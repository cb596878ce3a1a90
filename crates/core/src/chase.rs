//! The chase over c-instances: `Tree-Chase-BFS` (Algorithm 1), `Tree-Chase`
//! (Algorithm 2), and the four node handlers (Algorithms 3–6).
//!
//! The BFS explores the (implicit) chase tree: every popped c-instance is
//! first tested with `Tree-SAT` ∧ `IsConsistent`, in that order
//! (satisfying instances are *results* and are not expanded further; a
//! top-level result is validated against the original tree and covered
//! right there, on the same worker), otherwise expanded by the recursive
//! `Tree-Chase`, which dispatches on the
//! root operator of the current subtree and recursively re-enters the BFS
//! on child subtrees. The `visited` set deduplicates modulo renaming of
//! labeled nulls ([`cqi_instance::is_isomorphic`]), and the `limit` bound on
//! instance size guarantees termination (Proposition 3.1 makes an unbounded
//! search undecidable).
//!
//! The chase walks the node table of its root formula
//! ([`CompiledFormula`], built once per request and shared by every root
//! job and worker that chases the formula), not the bare syntax tree: a
//! node's free variables (bound by lines 2–5 of Algorithm 1), its sub-BFS
//! memo key, its quantifier test, its DNF and its three `∨` cases are each
//! derived once per request, never per chase step. The acceptance checks
//! run Tree-SAT under homomorphisms that already bind every free variable,
//! so they skip its `∃`-closure.
//!
//! ## Execution model
//!
//! Root and nested searches run one body of Algorithm 1,
//! `Engine::search`: a FIFO queue on one worker context, with one
//! `visited` set, a [`cqi_instance::IsoClasses`]. Like the paper's, that
//! check first compares cheap properties — the shape, then the cached
//! signature — and only then tries mappings. A search hands each
//! instance it accepts, with the Tree-SAT context that accepted it, to its
//! caller: a root search validates and covers it there and logs it, a
//! nested one returns it. All mutable worker state
//! (`WorkerCtx`: solver memos, sub-BFS results) only affects speed. Every
//! solver question of the chase is a question about one instance's global
//! condition φ(I), asked as (φ(I), extra literals). A generated child's
//! `IsConsistent` (the question (φ(I), [])) is asked once, when it is
//! generated, through a digest memo first. A popped instance's Tree-SAT
//! leaves share one [`SatCtx`], which builds φ(I) once and answers what
//! φ(I) already settles itself; a search's seed, which was never
//! generated, asks its `IsConsistent` there too. What remains goes
//! through one worker-level path,
//! `WorkerCtx::decide`: the worker's (φ, extra) memo, then one solve.
//! Problems are keyed in the instance's own null numbering, which is
//! deterministic per instance, so the memo never changes an answer. The
//! only parallel axis is across
//! roots: multi-root runs (the `Conj-*` tree sets and the `*-Add`
//! re-seeds) fan whole root searches out over the session's resident pool
//! when `ChaseConfig::threads > 1`
//! ([`Chase::run_roots_observed`]), and merge their results in job order,
//! so parallel runs accept the *same instances in the same order* as
//! sequential ones (asserted by the `scheduler` module's tests).
//! How a run schedules its roots — inline or fanned out, the job-order
//! merge, the observer — lives in the crate's `scheduler` module; this
//! module holds the run's state and stats, and the engine.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqi_drc::{Atom, Coverage, Query, Term, VarId};
use cqi_instance::consistency::to_problem;
use cqi_instance::{digest_stats, exact_digest, CInstance, Cond, IsoClasses, OfferCounts};
use cqi_obs::trace::{self, Phase};
use cqi_runtime::{BoundedMemo, MemoCounts, ResidentPool, RunCounters};
use cqi_schema::Schema;
use cqi_solver::{Ent, ExactCache, Lit, Phi};

use crate::compiled::{CompiledFormula, Node, Shape};
use crate::config::{CancelToken, ChaseConfig, RunControls};
use crate::treesat::{atom_to_lit, Hom, SatCtx};

/// Execution counters of one chase run: root fan-out and work-stealing
/// traffic, the hit/miss split of each memo tier, and dedupe volume.
/// Attached to every [`crate::CSolution`]; all counters are deltas over the
/// run (session-persistent caches are baselined at construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Always 0: the chase no longer fans frontier waves out. Kept public
    /// for the benchmark ledger, which still reads it.
    pub waves: u64,
    /// Always 0, like [`waves`](Self::waves).
    pub spilled_waves: u64,
    /// Work-stealing queue steals across all root fan-outs.
    pub steals: u64,
    /// Root-job fan-outs dispatched to the resident pool.
    pub resident_batches: u64,
    /// Offers to the `visited` sets of the root searches (nested searches
    /// dedupe the same way but are not counted).
    pub dedupe_offers: u64,
    /// Offers rejected as duplicates.
    pub dedupe_duplicates: u64,
    /// Shape-and-signature matches between an offer and a kept instance,
    /// each settled by a full isomorphism check.
    pub dedupe_iso_checks: u64,
    /// Per-worker exact-problem memo hits/misses, summed over workers.
    pub solver_l1_hits: u64,
    pub solver_l1_misses: u64,
    /// Always zero: the shared solver memo tier no longer exists. Kept
    /// public for the benchmark ledger, which still reads it.
    pub solver_l2: MemoCounts,
    /// Always zero: the saturated-state memo no longer exists. Kept public
    /// for the benchmark ledger, which still reads it.
    pub sat_l2: MemoCounts,
    /// Always 0: chase steps are no longer decided by extending a parent
    /// state. Kept public for the benchmark ledger, which still reads it.
    pub incr_extends: u64,
    /// Always 0, like [`incr_extends`](Self::incr_extends).
    pub incr_fallbacks: u64,
    /// Always 0: the chase no longer prunes subsumed subtrees. Kept public
    /// for the benchmark ledger, which still reads it.
    pub subsumed_subtrees: u64,
    /// Exact-digest requests answered from the per-instance cache vs
    /// recomputed ([`cqi_instance::digest_stats`]).
    pub digest_hits: u64,
    pub digest_recomputes: u64,
    /// Wall-time phase breakdown (ns), populated only on traced runs
    /// (`ExplainRequest::trace`) — derived from the same `cqi-obs` span
    /// instrumentation as the Perfetto trace. Only *leaf* spans are
    /// phase-attributed, so the components never double-count and, on a
    /// single-threaded run, sum to ≤ total wall time (multi-thread runs
    /// sum per-thread time, which may exceed wall clock).
    pub phase_solver_ns: u64,
    /// Always 0: the chase has no canonicalization phase any more. Kept
    /// public for the benchmark ledger, which still reads it.
    pub phase_canon_ns: u64,
    /// Time in isomorphism dedupe (the `visited` offers of every search).
    pub phase_dedupe_ns: u64,
    /// Time in scheduling (root fan-out result collection).
    pub phase_sched_ns: u64,
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

impl ChaseStats {
    pub fn solver_l1_hit_rate(&self) -> f64 {
        rate(self.solver_l1_hits, self.solver_l1_misses)
    }

    /// Always `0.0`, like [`solver_l2`](Self::solver_l2). Kept public for
    /// the benchmark ledger, which still reads it.
    pub fn solver_l2_hit_rate(&self) -> f64 {
        0.0
    }

    /// Always `0.0`: the saturated-state memo no longer exists. Kept public
    /// for the benchmark ledger, which still reads it.
    pub fn sat_l1_hit_rate(&self) -> f64 {
        0.0
    }

    /// Fraction of exact-digest requests served from the incremental cache.
    pub fn digest_hit_rate(&self) -> f64 {
        rate(self.digest_hits, self.digest_recomputes)
    }

    /// Always `0.0`: whole-wave solver batching no longer exists. Kept
    /// public for the benchmark ledger, which still reads it.
    pub fn wave_batch_dedupe_ratio(&self) -> f64 {
        0.0
    }

    /// Sum of the phase-breakdown components (ns); `0` on untraced runs.
    pub fn phase_total_ns(&self) -> u64 {
        self.phase_solver_ns + self.phase_canon_ns + self.phase_dedupe_ns + self.phase_sched_ns
    }

    /// `(phase name, accumulated ns)` pairs, ordered like
    /// [`cqi_obs::trace::Phase::ALL`].
    pub fn phases(&self) -> [(&'static str, u64); 4] {
        [
            (Phase::Solver.name(), self.phase_solver_ns),
            (Phase::Canon.name(), self.phase_canon_ns),
            (Phase::Dedupe.name(), self.phase_dedupe_ns),
            (Phase::Sched.name(), self.phase_sched_ns),
        ]
    }

    /// Serde-free JSON rendering for benchmark/reproduce reports.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"steals\": {}, \"resident_batches\": {}, \
             \"dedupe_offers\": {}, \"dedupe_duplicates\": {}, \"dedupe_iso_checks\": {}, \
             \"solver_l1_hit_rate\": {:.4}, \
             \"digest_cache\": {{\"hits\": {}, \"recomputes\": {}}}, \
             \"phases\": {{\"solver_ns\": {}, \"canonicalization_ns\": {}, \
             \"dedupe_ns\": {}, \"scheduling_ns\": {}}}}}",
            self.steals,
            self.resident_batches,
            self.dedupe_offers,
            self.dedupe_duplicates,
            self.dedupe_iso_checks,
            self.solver_l1_hit_rate(),
            self.digest_hits,
            self.digest_recomputes,
            self.phase_solver_ns,
            self.phase_canon_ns,
            self.phase_dedupe_ns,
            self.phase_sched_ns,
        )
    }

    /// Adds this run's counters to the process-wide `cqi-obs` registry (the
    /// future `cqi-serve /metrics` payload). Deltas over monotone counters
    /// keep the registry monotone; call once per completed run.
    pub fn publish_metrics(&self) {
        use std::sync::OnceLock;
        struct Series {
            steals: std::sync::Arc<cqi_obs::Counter>,
            dedupe_offers: std::sync::Arc<cqi_obs::Counter>,
            dedupe_duplicates: std::sync::Arc<cqi_obs::Counter>,
            solver_l1_hits: std::sync::Arc<cqi_obs::Counter>,
            solver_l1_misses: std::sync::Arc<cqi_obs::Counter>,
            digest_hits: std::sync::Arc<cqi_obs::Counter>,
            digest_recomputes: std::sync::Arc<cqi_obs::Counter>,
            phase_ns: [std::sync::Arc<cqi_obs::Counter>; 4],
        }
        static SERIES: OnceLock<Series> = OnceLock::new();
        let s = SERIES.get_or_init(|| {
            let r = cqi_obs::global();
            Series {
                steals: r.counter("cqi_chase_steals_total", "work-stealing queue steals", &[]),
                dedupe_offers: r.counter("cqi_dedupe_offers_total", "iso-dedupe offers", &[]),
                dedupe_duplicates: r.counter(
                    "cqi_dedupe_duplicates_total",
                    "offers rejected as duplicates",
                    &[],
                ),
                solver_l1_hits: r.counter(
                    "cqi_solver_memo_lookups_total",
                    "solver memo lookups by tier and outcome",
                    &[("tier", "l1"), ("outcome", "hit")],
                ),
                solver_l1_misses: r.counter(
                    "cqi_solver_memo_lookups_total",
                    "solver memo lookups by tier and outcome",
                    &[("tier", "l1"), ("outcome", "miss")],
                ),
                digest_hits: r.counter(
                    "cqi_digest_cache_total",
                    "exact-digest requests by outcome",
                    &[("outcome", "hit")],
                ),
                digest_recomputes: r.counter(
                    "cqi_digest_cache_total",
                    "exact-digest requests by outcome",
                    &[("outcome", "recompute")],
                ),
                phase_ns: [
                    r.counter(
                        "cqi_phase_ns_total",
                        "traced time per phase (ns)",
                        &[("phase", Phase::Solver.name())],
                    ),
                    r.counter(
                        "cqi_phase_ns_total",
                        "traced time per phase (ns)",
                        &[("phase", Phase::Canon.name())],
                    ),
                    r.counter(
                        "cqi_phase_ns_total",
                        "traced time per phase (ns)",
                        &[("phase", Phase::Dedupe.name())],
                    ),
                    r.counter(
                        "cqi_phase_ns_total",
                        "traced time per phase (ns)",
                        &[("phase", Phase::Sched.name())],
                    ),
                ],
            }
        });
        s.steals.add(self.steals);
        s.dedupe_offers.add(self.dedupe_offers);
        s.dedupe_duplicates.add(self.dedupe_duplicates);
        s.solver_l1_hits.add(self.solver_l1_hits);
        s.solver_l1_misses.add(self.solver_l1_misses);
        s.digest_hits.add(self.digest_hits);
        s.digest_recomputes.add(self.digest_recomputes);
        s.phase_ns[0].add(self.phase_solver_ns);
        s.phase_ns[1].add(self.phase_canon_ns);
        s.phase_ns[2].add(self.phase_dedupe_ns);
        s.phase_ns[3].add(self.phase_sched_ns);
    }

    /// Accumulates another run's counters (workload-level aggregation in
    /// the bench harness).
    pub fn merge(&mut self, other: &ChaseStats) {
        self.steals += other.steals;
        self.resident_batches += other.resident_batches;
        self.dedupe_offers += other.dedupe_offers;
        self.dedupe_duplicates += other.dedupe_duplicates;
        self.dedupe_iso_checks += other.dedupe_iso_checks;
        self.solver_l1_hits += other.solver_l1_hits;
        self.solver_l1_misses += other.solver_l1_misses;
        self.digest_hits += other.digest_hits;
        self.digest_recomputes += other.digest_recomputes;
        self.phase_solver_ns += other.phase_solver_ns;
        self.phase_canon_ns += other.phase_canon_ns;
        self.phase_dedupe_ns += other.phase_dedupe_ns;
        self.phase_sched_ns += other.phase_sched_ns;
    }
}

/// One-line human-readable summary — printed by `examples/streaming.rs`
/// and handy in logs: counters first, hit rates in parentheses, and the
/// traced phase breakdown (ms) when present.
impl std::fmt::Display for ChaseStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "steals={} batches={} dedupe={}/{}dup/{}iso solverL1={:.0}%({}) \
             digest={:.0}%({})",
            self.steals,
            self.resident_batches,
            self.dedupe_offers,
            self.dedupe_duplicates,
            self.dedupe_iso_checks,
            self.solver_l1_hit_rate() * 100.0,
            self.solver_l1_hits + self.solver_l1_misses,
            self.digest_hit_rate() * 100.0,
            self.digest_hits + self.digest_recomputes,
        )?;
        if self.phase_total_ns() > 0 {
            let ms = |ns: u64| ns as f64 / 1e6;
            write!(
                f,
                " phases[solver={:.2}ms canon={:.2}ms dedupe={:.2}ms sched={:.2}ms]",
                ms(self.phase_solver_ns),
                ms(self.phase_canon_ns),
                ms(self.phase_dedupe_ns),
                ms(self.phase_sched_ns),
            )?;
        }
        Ok(())
    }
}

/// Hot-path metric: every `IsConsistent` decision (memo hits included).
/// The counter is shard-per-worker ([`cqi_obs::Counter`]), so the always-on
/// cost is one uncontended relaxed add.
fn consistency_checks_metric() -> &'static cqi_obs::Counter {
    use std::sync::OnceLock;
    static C: OnceLock<std::sync::Arc<cqi_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        cqi_obs::global().counter(
            "cqi_consistency_checks_total",
            "IsConsistent decisions on the chase hot path (memo hits included)",
            &[],
        )
    })
}

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Entry bounds of the sub-BFS and `IsConsistent` memos: far above what
/// the paper's workloads fill, while bounding memory on adversarial ones.
const BFS_MEMO_CAP: usize = 400_000;
const CONSIST_MEMO_CAP: usize = 1_000_000;
/// Entry bound of each worker's exact-problem memo (cleared when full).
const EXACT_MEMO_CAP: usize = 8192;

/// Per-worker mutable chase state: every memo the search consults, plus the
/// worker-local slice of the run counters. None of it changes *answers* —
/// only how fast they are reached — which is what lets a root search run on
/// any worker while keeping parallel output identical to sequential.
pub(crate) struct WorkerCtx {
    /// Memoized sub-BFS results keyed by (subtree, instance digest,
    /// relevant homomorphism entries), each with whether `limit` cut the
    /// search that filled it. The recursion re-derives identical
    /// sub-searches constantly; this cache is the difference between
    /// seconds and minutes on the harder difference queries.
    bfs_memo: BoundedMemo<(u64, u64, u64), (Vec<CInstance>, bool)>,
    /// Memoized `IsConsistent` answers of generated children by instance
    /// digest.
    consist_memo: BoundedMemo<u64, bool>,
    /// Exact memo: most decisions repeat a question this worker already
    /// decided. Keyed by (φ(I), extra literals) in the instance's own null
    /// numbering, so renamed copies of a question are separate entries.
    /// Its hits and misses are reported as L1 hits and misses.
    exact: ExactCache,
    /// This worker observed the wall-clock deadline.
    pub(crate) timed_out: bool,
    /// This worker observed a fired [`CancelToken`].
    pub(crate) cancelled: bool,
    /// A size check of [`Engine::search`] dropped an instance on this
    /// worker, here or in a memoized sub-search it reused.
    pub(crate) size_cut: bool,
}

impl WorkerCtx {
    fn new() -> WorkerCtx {
        WorkerCtx {
            bfs_memo: BoundedMemo::new(BFS_MEMO_CAP),
            consist_memo: BoundedMemo::new(CONSIST_MEMO_CAP),
            exact: ExactCache::new(EXACT_MEMO_CAP),
            timed_out: false,
            cancelled: false,
            size_cut: false,
        }
    }

    /// Clears the per-run flags while keeping every memo warm — the reuse
    /// contract of [`ChaseCaches`].
    fn reset_run_flags(&mut self) {
        self.timed_out = false;
        self.cancelled = false;
        self.size_cut = false;
    }

    /// Clears the memos computed under other run parameters (see
    /// [`CacheParams`]): the sub-BFS results unless the search parameters
    /// match, the `IsConsistent` answers unless the consistency parameters
    /// do.
    fn clear_param_memos(&mut self, same_search: bool, same_consistency: bool) {
        if !same_search {
            self.bfs_memo.clear();
        }
        if !same_consistency {
            self.consist_memo.clear();
        }
    }

    /// Is φ ∧ extra satisfiable? The worker's one decision path, for
    /// `IsConsistent` and every Tree-SAT leaf alike: the (φ, extra) memo,
    /// then one solve (one solver call per check, as in the paper's §4.2).
    /// The memo stores a pure function of the full problem, so the path
    /// never changes an answer.
    pub(crate) fn decide(&mut self, phi: &Phi, extra: &[Lit]) -> bool {
        self.exact.is_sat(phi, extra)
    }
}

/// The answer-affecting run parameters the `bfs_memo`/`consist_memo`
/// contents were computed under. Consistency answers depend only on
/// `enforce_keys` and the schema. The sub-BFS results also depend on the
/// size `limit` (pruning inside `Engine::search`) and on `universal_fresh`
/// (`Handle-Universal`'s fresh-null branch), so they are only reusable by
/// a run with the *same* four. The exact memo is parameter-independent
/// (the problem encodes the key clauses) and stays warm across any
/// parameter change.
struct CacheParams {
    limit: usize,
    enforce_keys: bool,
    universal_fresh: bool,
    /// The schema the memoized digests were computed under (instance
    /// digests are only comparable within one schema, and consistency
    /// answers depend on its keys; a pre-parsed `QueryInput::Tree` may
    /// carry a different schema than the session's). Held, not just its
    /// address: a schema allocated where a freed one lived must not match.
    schema: Arc<Schema>,
}

impl CacheParams {
    /// `IsConsistent` answers computed under `self` hold under `other`.
    fn same_consistency(&self, other: &CacheParams) -> bool {
        self.enforce_keys == other.enforce_keys && Arc::ptr_eq(&self.schema, &other.schema)
    }

    /// Sub-BFS results computed under `self` hold under `other`.
    fn same_search(&self, other: &CacheParams) -> bool {
        self.same_consistency(other)
            && self.limit == other.limit
            && self.universal_fresh == other.universal_fresh
    }
}

/// Opaque, reusable chase worker state: the solver memos and sub-BFS caches
/// of every worker context. All of it is *speed-only* state (it never
/// changes answers — the invariant root-job fan-out already relies on), and
/// none of it depends on the query, only on the schema's instances, so a
/// `cqi::Session` keeps one across explain calls: repeated or similar
/// queries over one schema hit warm caches instead of re-deriving every
/// `IsConsistent` answer. Memos whose entries *are* sensitive to run
/// parameters are fingerprinted by `CacheParams` and cleared when a
/// reusing run differs.
#[derive(Default)]
pub struct ChaseCaches {
    ctxs: Vec<WorkerCtx>,
    params: Option<CacheParams>,
    /// The session's resident worker pool, spawned once, at the first
    /// root fan-out of a multi-thread run, and reused by every later run.
    /// `None` until then, so a session whose runs never fan out spawns no
    /// helper thread.
    pub(crate) pool: Option<Arc<ResidentPool>>,
}

/// One top-level root search: a (sub)formula chased from a seed instance
/// under pre-bound output variables. A variant run batches these —
/// one per conjunctive tree, plus one per (uncovered leaf × tree) in the
/// `*-Add` phase, all jobs of one tree sharing its compiled table — and
/// [`Chase::run_roots_observed`] fans the batch out across workers when
/// `threads > 1`.
pub struct RootJob<'f> {
    pub formula: &'f CompiledFormula,
    pub seed: CInstance,
    pub h: Hom,
}

/// One entry of [`Chase::accepted`]: the instance, its coverage of the
/// original tree (`None` when it fails the original-tree re-check), and its
/// wall-clock acceptance offset.
pub type AcceptedInstance = (CInstance, Option<Coverage>, Duration);

/// One chase run (possibly over several trees, for the `Conj-*` and `*-Add`
/// variants, which all feed the same accepted-instance log).
pub struct Chase<'a> {
    pub query: &'a Query,
    pub cfg: &'a ChaseConfig,
    /// Whether `Handle-Universal` may mint fresh labeled nulls
    /// (the `EO` variants disable this).
    pub universal_fresh: bool,
    pub start: Instant,
    pub(crate) deadline: Option<Instant>,
    pub(crate) cancel: Option<CancelToken>,
    pub timed_out: bool,
    /// A [`CancelToken`] fired mid-drive.
    pub cancelled: bool,
    /// `limit` cut the search: some size check dropped an instance. A
    /// completed run that cut nothing explores the same instances, and so
    /// accepts the same ones, under any larger limit.
    pub(crate) size_cut: bool,
    /// An acceptance observer returned `false` (the streaming consumer
    /// stopped), halting the drive early. Distinct from the `max_results`
    /// cap, which is a *requested* completion.
    pub halted: bool,
    pub(crate) done: bool,
    /// Satisfying consistent instances accepted at the top level, with
    /// acceptance timestamps (drives the §5.1 interactivity metrics).
    pub accepted: Vec<AcceptedInstance>,
    /// One memo context per worker; `ctxs[0]` drives single roots.
    pub(crate) ctxs: Vec<WorkerCtx>,
    /// The resolved thread budget: above 1, batches of roots fan out.
    pub(crate) threads: usize,
    /// The session's resident pool, taken from [`ChaseCaches`] and handed
    /// back by [`Chase::recycle_into`]; spawned (or resized) at the first
    /// fan-out that needs it ([`Chase::fanout_pool`]).
    pool: Option<Arc<ResidentPool>>,
    /// Steal/batch counters of this run's fan-outs.
    pub(crate) run_counters: RunCounters,
    /// Dedupe totals accumulated over this run's root searches.
    pub(crate) dedupe_acc: OfferCounts,
    /// Cumulative cache counters at construction — subtracted so
    /// [`Chase::stats`] reports per-run deltas despite session-persistent
    /// caches.
    stats_base: ChaseStats,
    /// [`cqi_obs::trace::phase_totals`] at construction (the accumulators
    /// are process-global and monotone; the delta is this run's traced
    /// phase breakdown).
    phase_base: [u64; 4],
    /// Hash of the query's variable table (names + domains). Folded into
    /// the sub-BFS memo key: two queries can share a formula *shape*
    /// (identical `VarId` structure) while naming/typing their variables
    /// differently, and fresh nulls inherit `query.var_name`/`var_domain`
    /// — so shape alone must not hit another query's cached results when
    /// a session reuses [`ChaseCaches`].
    pub(crate) query_key: u64,
}

impl<'a> Chase<'a> {
    /// A run of `query` under `cfg` that stops at `run`'s deadline or
    /// token. Its worker contexts are taken from `caches` (topped up with
    /// fresh ones if the thread budget grew); pair with
    /// [`Chase::recycle_into`] to return them warm after the run, with the
    /// session's resident pool, which the first root fan-out spawns.
    pub fn new_reusing(
        query: &'a Query,
        cfg: &'a ChaseConfig,
        universal_fresh: bool,
        run: &RunControls,
        caches: &mut ChaseCaches,
    ) -> Chase<'a> {
        // lint:allow(wall-clock) per-drive elapsed time feeds `ChaseStats`, not control flow
        let start = Instant::now();
        let threads = cfg.resolved_threads().max(1);
        let params = CacheParams {
            limit: cfg.limit,
            enforce_keys: cfg.enforce_keys,
            universal_fresh,
            schema: Arc::clone(&query.schema),
        };
        let (same_search, same_consistency) =
            caches.params.as_ref().map_or((false, false), |old| {
                (old.same_search(&params), old.same_consistency(&params))
            });
        caches.params = Some(params);
        let mut ctxs: Vec<WorkerCtx> = std::mem::take(&mut caches.ctxs);
        ctxs.truncate(threads);
        for ctx in &mut ctxs {
            ctx.reset_run_flags();
            // These memos' answers depend on the run parameters (see
            // [`CacheParams`]); a differing run must not see them.
            ctx.clear_param_memos(same_search, same_consistency);
        }
        while ctxs.len() < threads {
            ctxs.push(WorkerCtx::new());
        }
        let query_key = {
            let mut h = DefaultHasher::new();
            for v in &query.vars {
                v.name.hash(&mut h);
                v.domain.index().hash(&mut h);
            }
            h.finish()
        };
        let mut chase = Chase {
            query,
            cfg,
            universal_fresh,
            start,
            deadline: run.deadline.map(|t| start + t),
            cancel: run.cancel.clone(),
            timed_out: false,
            cancelled: false,
            size_cut: false,
            halted: false,
            done: false,
            accepted: Vec::new(),
            ctxs,
            threads,
            pool: caches.pool.take(),
            run_counters: RunCounters::default(),
            dedupe_acc: OfferCounts::default(),
            stats_base: ChaseStats::default(),
            phase_base: trace::phase_totals(),
            query_key,
        };
        chase.stats_base = chase.cumulative_stats();
        chase
    }

    /// Hands the worker contexts (with every memo warm) and the resident
    /// pool, if any run has spawned it, back to `caches` for the next run.
    pub fn recycle_into(self, caches: &mut ChaseCaches) {
        caches.ctxs = self.ctxs;
        caches.pool = self.pool;
    }

    /// The resident pool a fan-out of this run's `threads` runs on:
    /// `threads - 1` parked workers, the calling thread being the last
    /// participant. Spawned here, at the first fan-out, and respawned when
    /// the budget changed since it was spawned.
    pub(crate) fn fanout_pool(&mut self) -> Arc<ResidentPool> {
        let helpers = self.threads - 1;
        match &self.pool {
            Some(pool) if pool.workers() == helpers => Arc::clone(pool),
            _ => Arc::clone(self.pool.insert(Arc::new(ResidentPool::new(helpers)))),
        }
    }

    /// Every counter at its current cumulative value (caches persist
    /// across session runs; [`Chase::stats`] subtracts the construction
    /// baseline).
    fn cumulative_stats(&self) -> ChaseStats {
        let counters = self.run_counters.snapshot();
        // Process-global cumulative; the per-run delta comes out of the
        // `stats_base` subtraction like every other persistent counter.
        let (digest_hits, digest_recomputes) = digest_stats::snapshot();
        let mut s = ChaseStats {
            digest_hits,
            digest_recomputes,
            steals: counters.steals,
            resident_batches: counters.resident_batches,
            dedupe_offers: self.dedupe_acc.offers,
            dedupe_duplicates: self.dedupe_acc.duplicates,
            dedupe_iso_checks: self.dedupe_acc.iso_checks,
            ..ChaseStats::default()
        };
        for c in &self.ctxs {
            s.solver_l1_hits += c.exact.hits;
            s.solver_l1_misses += c.exact.misses;
        }
        s
    }

    /// This run's execution counters (see [`ChaseStats`]): drive totals
    /// plus per-run deltas of the session-persistent cache counters.
    pub fn stats(&self) -> ChaseStats {
        let cur = self.cumulative_stats();
        let base = &self.stats_base;
        let phases = trace::phase_totals();
        ChaseStats {
            phase_solver_ns: phases[0].saturating_sub(self.phase_base[0]),
            phase_canon_ns: 0,
            phase_dedupe_ns: phases[2].saturating_sub(self.phase_base[2]),
            phase_sched_ns: phases[3].saturating_sub(self.phase_base[3]),
            waves: 0,
            spilled_waves: 0,
            steals: cur.steals,
            resident_batches: cur.resident_batches,
            dedupe_offers: cur.dedupe_offers,
            dedupe_duplicates: cur.dedupe_duplicates,
            dedupe_iso_checks: cur.dedupe_iso_checks,
            solver_l1_hits: cur.solver_l1_hits - base.solver_l1_hits,
            solver_l1_misses: cur.solver_l1_misses - base.solver_l1_misses,
            solver_l2: MemoCounts::default(),
            sat_l2: MemoCounts::default(),
            incr_extends: 0,
            incr_fallbacks: 0,
            subsumed_subtrees: 0,
            // Saturating: the digest counters are process-global, so a
            // concurrent run elsewhere in the process can only inflate the
            // delta, never underflow it — but stay defensive.
            digest_hits: cur.digest_hits.saturating_sub(base.digest_hits),
            digest_recomputes: cur.digest_recomputes.saturating_sub(base.digest_recomputes),
        }
    }
}

/// Lines 2–5 of Algorithm 1: bind unbound free variables to fresh labeled
/// nulls, in the order of `free` (a node's [`Node::free_vars`]).
fn bind_free_vars(
    query: &Query,
    free: &[VarId],
    mut inst: CInstance,
    mut h: Hom,
) -> (CInstance, Hom) {
    h.resize(query.vars.len(), None);
    for &v in free {
        if h[v.index()].is_none() {
            let d = query.var_domain(v);
            let n = inst.fresh_null(query.var_name(v), d);
            h[v.index()] = Some(Ent::Null(n));
        }
    }
    (inst, h)
}

/// The chase engine: Algorithms 1–6, root and nested searches alike,
/// operating on one worker's memo context.
pub(crate) struct Engine<'e> {
    pub(crate) query: &'e Query,
    pub(crate) cfg: &'e ChaseConfig,
    pub(crate) universal_fresh: bool,
    pub(crate) deadline: Option<Instant>,
    pub(crate) cancel: Option<&'e CancelToken>,
    pub(crate) query_key: u64,
    pub(crate) ctx: &'e mut WorkerCtx,
}

impl Engine<'_> {
    fn stopped(&mut self) -> bool {
        if let Some(d) = self.deadline {
            // lint:allow(wall-clock) deadline enforcement needs a real clock
            if Instant::now() >= d {
                self.ctx.timed_out = true;
                return true;
            }
        }
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            self.ctx.cancelled = true;
            return true;
        }
        false
    }

    /// One solver decision, φ ∧ extra: the worker's memoized path
    /// ([`WorkerCtx::decide`]) with `cfg.solver_cache`, one cold solve
    /// without it. A question with no extra literals is `IsConsistent`,
    /// and is counted as such.
    fn decide(&mut self, phi: &Phi, extra: &[Lit]) -> bool {
        if extra.is_empty() {
            consistency_checks_metric().inc();
        }
        if self.cfg.solver_cache {
            self.ctx.decide(phi, extra)
        } else {
            let _s = trace::span_phase("solve", "solver", Phase::Solver);
            phi.is_sat_with(extra)
        }
    }

    /// `IsConsistent` of a generated child: the per-worker digest memo,
    /// then [`Engine::decide`] on the child's (φ(I), []).
    fn consistent(&mut self, inst: &CInstance) -> bool {
        let key = exact_digest(inst);
        if let Some(v) = self.ctx.consist_memo.get(&key) {
            return *v;
        }
        let phi = Phi::new(to_problem(inst, self.cfg.enforce_keys));
        let ans = self.decide(&phi, &[]);
        self.ctx.consist_memo.insert(key, ans);
        ans
    }

    /// `Tree-Chase-BFS` (Algorithm 1) for recursive (sub-formula) calls,
    /// memoized on (subtree, instance, relevant homomorphism entries): the
    /// instances [`search`](Self::search) accepts, in acceptance order.
    fn bfs(&mut self, q: Node<'_>, h0: &Hom, i0: &CInstance) -> Vec<CInstance> {
        // Key: query identity (variable names/domains — see
        // `Chase::query_key`) + subtree content + exact instance + the
        // homomorphism entries its free variables see. Content, not
        // identity: the memo outlives the query that filled it.
        let fkey = hash_of(&(self.query_key, q.key()));
        let ikey = exact_digest(i0);
        let hkey = {
            let mut hh = DefaultHasher::new();
            for v in q.free_vars() {
                v.0.hash(&mut hh);
                h0.get(v.index()).and_then(|e| e.as_ref()).hash(&mut hh);
            }
            hh.finish()
        };
        let key = (fkey, ikey, hkey);
        if let Some((cached, cut)) = self.ctx.bfs_memo.get(&key) {
            self.ctx.size_cut |= *cut;
            return cached.clone();
        }
        // The entry records whether this sub-search cut, not the run so
        // far: a later run with the same limit may reuse it.
        let cut_before = std::mem::take(&mut self.ctx.size_cut);
        let mut res = Vec::new();
        self.search(q, i0.clone(), h0.clone(), &mut |_, inst| {
            res.push(inst.clone());
            true
        });
        let cut = self.ctx.size_cut;
        self.ctx.size_cut |= cut_before;
        // Results truncated by timeout/cancellation must not poison the
        // cache (it outlives the run now that sessions recycle contexts).
        if !self.ctx.timed_out && !self.ctx.cancelled {
            self.ctx.bfs_memo.insert(key, (res.clone(), cut));
        }
        res
    }

    /// `Tree-Chase-BFS` (Algorithm 1), the one body of every search, root
    /// and nested: a FIFO queue from `seed` with the free variables of `q`
    /// bound (lines 2–5), one `visited` set (line 10), and for each popped
    /// instance either acceptance (line 13) or expansion (lines 16–19).
    /// `accept` receives each accepted instance with the Tree-SAT context
    /// that accepted it; returning `false` ends the search. Returns the
    /// `visited` set's counts.
    pub(crate) fn search(
        &mut self,
        q: Node<'_>,
        seed: CInstance,
        seed_h: Hom,
        accept: &mut dyn FnMut(&mut SatCtx<'_>, &CInstance) -> bool,
    ) -> OfferCounts {
        let (i0, h0) = bind_free_vars(self.query, q.free_vars(), seed, seed_h);
        let mut visited = IsoClasses::default();
        // Each queued instance, and whether it passed IsConsistent before
        // it was queued: every generated child did, the seed did not.
        let mut queue = VecDeque::from([(i0, false)]);
        while let Some((inst, checked)) = queue.pop_front() {
            if self.stopped() {
                break;
            }
            // Line 10: the size bound, then the `visited` check modulo
            // renaming of nulls.
            if inst.size() > self.cfg.limit {
                self.ctx.size_cut = true;
                continue;
            }
            let first_of_class = {
                let _s = trace::span_phase("dedupe_offer", "dedupe", Phase::Dedupe);
                visited.offer(&inst)
            };
            if !first_of_class {
                continue;
            }
            // Line 13: Tree-SAT under the current homomorphism, which
            // binds every free variable of `q` (nested calls must verify
            // satisfaction at the handler's chosen mapping, not under
            // blanket ∃-closure — otherwise the Handle-Universal merge
            // would accept bodies satisfied by some other entity), then
            // IsConsistent(I) on the same context. Only the seed asks it
            // (the question (φ(I), [])); a generated child passed it
            // before it was queued.
            let (query, keys) = (self.query, self.cfg.enforce_keys);
            let mut decide = |phi: &Phi, extra: &[Lit]| self.decide(phi, extra);
            let mut sat = SatCtx::new(query, &inst, keys, &mut decide);
            if checked {
                sat.known_consistent();
            }
            if sat.tree_sat_bound(q.formula(), &h0) && sat.consistent() {
                if !accept(&mut sat, &inst) {
                    break;
                }
                continue;
            }
            // Lines 16–19: expand.
            for j in self.tree_chase(q, &inst, &h0) {
                if self.stopped() {
                    break;
                }
                if j.size() > self.cfg.limit {
                    self.ctx.size_cut = true;
                } else if self.consistent(&j) {
                    queue.push_back((j, true));
                }
            }
        }
        visited.counts()
    }

    /// `Tree-Chase` (Algorithm 2): dispatch on the root operator.
    fn tree_chase(&mut self, q: Node<'_>, inst: &CInstance, h: &Hom) -> Vec<CInstance> {
        if q.is_quantifier_free() {
            // Lines 2–7: materialize each DNF conjunction.
            let mut res = Vec::new();
            for conj in q.dnf() {
                if let Some(j) = materialize(self.query, inst, conj, h) {
                    if self.consistent(&j) {
                        res.push(j);
                    }
                }
            }
            return res;
        }
        match q.shape() {
            Shape::And(l, r) => self.handle_conjunction(l, r, inst, h),
            Shape::Or(..) => self.handle_disjunction(q, inst, h),
            Shape::Exists(v, b) => self.handle_existential(v, b, inst, h),
            Shape::Forall(v, b) => self.handle_universal(v, b, inst, h),
            Shape::Atom(_) => unreachable!("atom has no quantifier"),
        }
    }

    /// Algorithm 3: chase the left child, then the right child on each of
    /// its solutions.
    fn handle_conjunction(
        &mut self,
        l: Node<'_>,
        r: Node<'_>,
        inst: &CInstance,
        h: &Hom,
    ) -> Vec<CInstance> {
        let mut res = Vec::new();
        let lres = self.bfs(l, h, inst);
        for j in lres {
            if self.stopped() {
                break;
            }
            // BFS results are already consistent and satisfying.
            res.extend(self.bfs(r, h, &j));
        }
        res
    }

    /// Algorithm 4: expand the root `∨` into its three conjunctive cases
    /// (compiled once per request, on the first visit).
    fn handle_disjunction(&mut self, q: Node<'_>, inst: &CInstance, h: &Hom) -> Vec<CInstance> {
        let mut res = Vec::new();
        for case in q.disjunction_cases() {
            if self.stopped() {
                break;
            }
            res.extend(self.bfs(case, h, inst));
        }
        res
    }

    /// Algorithm 5: map the variable to every pool entity, and once to a
    /// fresh labeled null.
    fn handle_existential(
        &mut self,
        v: VarId,
        body: Node<'_>,
        inst: &CInstance,
        h: &Hom,
    ) -> Vec<CInstance> {
        let d = self.query.var_domain(v);
        let mut res = Vec::new();
        for e in inst.domain_pool(d).to_vec() {
            if self.stopped() {
                break;
            }
            let mut g = h.clone();
            g[v.index()] = Some(e);
            res.extend(self.bfs(body, &g, inst));
        }
        if !self.stopped() {
            let mut i2 = inst.clone();
            let y = i2.fresh_null(self.query.var_name(v), d);
            let mut g = h.clone();
            g[v.index()] = Some(Ent::Null(y));
            res.extend(self.bfs(body, &g, &i2));
        }
        res
    }

    /// Algorithm 6: solutions for *all* pool entities are merged (the body
    /// must hold for every one); optionally also for one fresh null.
    fn handle_universal(
        &mut self,
        v: VarId,
        body: Node<'_>,
        inst: &CInstance,
        h: &Hom,
    ) -> Vec<CInstance> {
        let d = self.query.var_domain(v);
        let pool = inst.domain_pool(d).to_vec();
        let mut res: Vec<CInstance> = Vec::new();
        let mut ilist: Vec<CInstance> = vec![inst.clone()];
        if pool.is_empty() {
            // Lines 2–3: a universal over an empty domain holds vacuously.
            res.push(inst.clone());
        } else {
            for e in pool {
                if self.stopped() {
                    break;
                }
                let mut g = h.clone();
                g[v.index()] = Some(e);
                let mut cur = Vec::new();
                for j1 in &ilist {
                    cur.extend(self.bfs(body, &g, j1));
                }
                ilist = cur;
            }
            res.extend(ilist.iter().cloned());
        }
        // Lines 15–24: additionally require the body for a fresh null
        // (skipped by the EO variants — may lose completeness, §4.3).
        if self.universal_fresh && !self.stopped() {
            let mut cur = Vec::new();
            for j1 in &ilist {
                let mut j = j1.clone();
                let y = j.fresh_null(self.query.var_name(v), d);
                let mut g = h.clone();
                g[v.index()] = Some(Ent::Null(y));
                cur.extend(self.bfs(body, &g, &j));
            }
            res.extend(cur);
        }
        res
    }
}

/// Materializes a conjunction of atoms into a copy of `inst` under `h`
/// (the body of `Add-to-Ins`, also used directly by the CQ¬ fast path and
/// the `*-Add` seeding).
pub fn materialize(query: &Query, inst: &CInstance, conj: &[Atom], h: &Hom) -> Option<CInstance> {
    let mut j = inst.clone();
    for atom in conj {
        match atom {
            Atom::Rel {
                negated,
                rel,
                terms,
            } => {
                let mut tuple: Vec<Ent> = Vec::with_capacity(terms.len());
                for (col, t) in terms.iter().enumerate() {
                    let d = query.schema.attr_domain(*rel, col);
                    let e = match t {
                        Term::Var(v) => h[v.index()]
                            .clone()
                            .expect("free variable bound before Add-to-Ins"),
                        Term::Const(c) => {
                            j.add_const_to_domain(d, c.clone());
                            Ent::Const(c.clone())
                        }
                        Term::Wildcard => Ent::Null(j.fresh_dont_care(d)),
                    };
                    tuple.push(e);
                }
                if *negated {
                    j.add_cond(Cond::NotIn { rel: *rel, tuple });
                } else {
                    j.add_tuple(*rel, tuple);
                }
            }
            Atom::Cmp { op, lhs, rhs, .. } => {
                // LIKE patterns are *patterns*, not domain values — they
                // must never join the quantifier pools (a pattern string in
                // a pool produces phantom coverage).
                let register = *op != cqi_drc::CmpOp::Like;
                let resolve = |t: &Term, j: &mut CInstance, partner: &Term| -> Ent {
                    match t {
                        Term::Var(v) => h[v.index()]
                            .clone()
                            .expect("free variable bound before Add-to-Ins"),
                        Term::Const(c) => {
                            // Register the constant in the partner
                            // variable's domain pool so quantifiers can
                            // map to it later.
                            if register {
                                if let Term::Var(pv) = partner {
                                    j.add_const_to_domain(query.var_domain(*pv), c.clone());
                                }
                            }
                            Ent::Const(c.clone())
                        }
                        Term::Wildcard => {
                            unreachable!("wildcards cannot appear in comparisons")
                        }
                    }
                };
                let a = resolve(lhs, &mut j, rhs);
                let b = resolve(rhs, &mut j, lhs);
                if let (Ent::Const(_), Ent::Const(_)) = (&a, &b) {
                    // Evaluate immediately; false kills the conjunction,
                    // true need not be recorded.
                    let lit = atom_to_lit(atom, &a, &b);
                    let m = cqi_solver::Model::default();
                    match m.eval_lit(&lit) {
                        Some(true) => continue,
                        _ => return None,
                    }
                }
                j.add_cond(Cond::Lit(atom_to_lit(atom, &a, &b)));
            }
        }
    }
    Some(j)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cqi_drc::parse_query;
    use cqi_instance::is_isomorphic;
    use cqi_schema::{DomainType, Schema, Value};
    use cqi_solver::{Lit, SolverOp};
    use std::sync::Arc;

    pub(crate) fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .relation(
                    "Serves",
                    &[
                        ("bar", DomainType::Text),
                        ("beer", DomainType::Text),
                        ("price", DomainType::Real),
                    ],
                )
                .relation(
                    "Likes",
                    &[("drinker", DomainType::Text), ("beer", DomainType::Text)],
                )
                .same_domain(("Serves", "beer"), ("Likes", "beer"))
                .build()
                .unwrap(),
        )
    }

    /// One root search of `q`'s whole formula from the empty seed, on a
    /// chase over `caches`.
    fn root_run<'a>(
        q: &'a Query,
        cfg: &'a ChaseConfig,
        run: &RunControls,
        caches: &mut ChaseCaches,
    ) -> Chase<'a> {
        let mut chase = Chase::new_reusing(q, cfg, true, run, caches);
        chase.run_root_observed(
            &CompiledFormula::new(q.formula.clone()),
            CInstance::new(Arc::clone(&q.schema)),
            vec![None; q.vars.len()],
            &mut |_, _, _| true,
        );
        chase
    }

    fn run_with(src: &str, cfg: &ChaseConfig) -> Vec<CInstance> {
        let q = parse_query(&schema(), src).unwrap();
        let chase = root_run(
            &q,
            cfg,
            &RunControls::default(),
            &mut ChaseCaches::default(),
        );
        chase.accepted.into_iter().map(|(i, ..)| i).collect()
    }

    fn run(src: &str, limit: usize) -> Vec<CInstance> {
        run_with(src, &ChaseConfig::with_limit(limit))
    }

    #[test]
    fn single_atom_query_builds_one_tuple() {
        let accepted = run("{ (b1) | exists d1 (Likes(d1, b1)) }", 4);
        assert!(!accepted.is_empty());
        // The smallest accepted instance is a single Likes tuple.
        let min = accepted.iter().map(CInstance::size).min().unwrap();
        assert_eq!(min, 1);
    }

    #[test]
    fn conjunction_joins_on_shared_variable() {
        let accepted = run(
            "{ (b1) | exists d1 (Likes(d1, b1)) and exists x1, p1 (Serves(x1, b1, p1)) }",
            4,
        );
        assert!(!accepted.is_empty());
        for inst in &accepted {
            // Both tables populated, sharing the beer null.
            assert!(inst.tables.iter().all(|t| !t.is_empty()));
        }
    }

    #[test]
    fn comparison_condition_lands_in_global() {
        let accepted = run(
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
            8,
        );
        assert!(!accepted.is_empty());
        assert!(accepted
            .iter()
            .any(|i| i.global.iter().any(|c| matches!(c, Cond::Lit(_)))));
    }

    #[test]
    fn universal_over_empty_pool_accepted_vacuously() {
        // With no drinker nulls in any pool, ∀d1 (¬Likes(d1,b1)) holds
        // vacuously, so Algorithm 1 accepts the Serves-only instance
        // without expanding it (reaching the ¬Likes coverage is the job of
        // the *-Add seeding, tested in `variants`).
        let accepted = run(
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
            6,
        );
        assert!(!accepted.is_empty());
        assert!(accepted
            .iter()
            .any(|i| i.global.iter().all(|c| !matches!(c, Cond::NotIn { .. }))));
    }

    #[test]
    fn disjunction_produces_multiple_shapes() {
        let accepted = run(
            "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
            6,
        );
        // Both the >3 and <1 shapes must be found.
        let has_gt = accepted.iter().any(|i| {
            i.global
                .iter()
                .any(|c| i.cond_string(c).contains("> 3") || i.cond_string(c).contains("3 <"))
        });
        let has_lt = accepted.iter().any(|i| {
            i.global
                .iter()
                .any(|c| i.cond_string(c).contains("< 1") || i.cond_string(c).contains("1 >"))
        });
        assert!(has_gt && has_lt, "{:?}", accepted.len());
    }

    #[test]
    fn limit_bounds_instance_size() {
        let accepted = run(
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
            5,
        );
        assert!(accepted.iter().all(|i| i.size() <= 5));
    }

    #[test]
    fn timeout_flags_and_stops() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (x1, b1) | exists d1, p1 . Serves(x1, b1, p1) and Likes(d1, b1) \
             and forall x2, p2 (not Serves(x2, b1, p2) or p1 >= p2) }",
        )
        .unwrap();
        let cfg = ChaseConfig::with_limit(12);
        let run = RunControls {
            deadline: Some(Duration::from_millis(1)),
            ..RunControls::default()
        };
        let chase = root_run(&q, &cfg, &run, &mut ChaseCaches::default());
        // With a 1 ms budget the search cannot finish exploring.
        assert!(chase.timed_out || !chase.accepted.is_empty());
    }

    #[test]
    fn max_results_short_circuits() {
        // A capped log is the first `k` entries of the uncapped log,
        // instances and coverage alike.
        let s = schema();
        let q = parse_query(&s, FORALL_DISJ).unwrap();
        let log = |cfg: &ChaseConfig| -> Vec<(String, Option<Coverage>)> {
            root_run(
                &q,
                cfg,
                &RunControls::default(),
                &mut ChaseCaches::default(),
            )
            .accepted
            .into_iter()
            .map(|(i, coverage, _)| (format!("{i}"), coverage))
            .collect()
        };
        let full = log(&ChaseConfig::with_limit(8));
        assert!(full.len() > 2, "need a multi-instance log");
        for k in 1..full.len() {
            assert_eq!(log(&ChaseConfig::with_limit(8).max_results(k)), full[..k]);
        }
    }

    /// Generated case `gen_case(case_seed(7, 596), &GenKnobs::default())`
    /// under Disj-Naive, limit 4, keys off. Two of its accepted instances
    /// render identically and share an exact digest, which hashes tables,
    /// conditions and the null count but not the nulls' domains. They
    /// differ in one null that occurs nowhere: `f0_1` in `R0.a2`'s domain
    /// in one, `f0_0` in `R0.a0`'s in the other. They are not isomorphic,
    /// so the root's `visited` set keeps both.
    #[test]
    fn root_keeps_instances_that_differ_only_in_an_unused_nulls_domain() {
        let s = Arc::new(
            Schema::builder()
                .relation(
                    "R0",
                    &[
                        ("a0", DomainType::Int),
                        ("a1", DomainType::Int),
                        ("a2", DomainType::Text),
                    ],
                )
                .relation(
                    "R1",
                    &[
                        ("a0", DomainType::Int),
                        ("a1", DomainType::Real),
                        ("a2", DomainType::Text),
                    ],
                )
                .key("R1", &["a0"])
                .foreign_key("R0", &["a0"], "R1", &["a0"])
                .build()
                .unwrap(),
        );
        let q = parse_query(
            &s,
            "{ (x2, x5) | exists x0 (exists x1 (exists x3 (exists x4 (R0(x0, x1, x2) \
             and R0(x3, x4, x5) and forall f0_0 (forall f0_1 (not R0(f0_0, x3, f0_1))))))) }",
        )
        .unwrap();
        let cfg = ChaseConfig::with_limit(4);
        let chase = root_run(
            &q,
            &cfg,
            &RunControls::default(),
            &mut ChaseCaches::default(),
        );
        let accepted: Vec<&CInstance> = chase.accepted.iter().map(|(i, ..)| i).collect();
        let (a, b) = accepted
            .iter()
            .enumerate()
            .flat_map(|(k, a)| accepted[k + 1..].iter().map(move |b| (*a, *b)))
            .find(|(a, b)| exact_digest(a) == exact_digest(b) && !is_isomorphic(a, b))
            .expect("two accepted instances with one digest that are not isomorphic");
        // Equal renderings: the differing nulls occur in no tuple and no
        // condition.
        assert_eq!(format!("{a}"), format!("{b}"));
        let r0 = s.rel_id("R0").unwrap();
        let last_null = |i: &CInstance| {
            let n = i.nulls.last().unwrap();
            (n.name.clone(), n.domain)
        };
        let mut extra = [last_null(a), last_null(b)];
        extra.sort();
        assert_eq!(
            extra,
            [
                ("f0_0".to_string(), s.attr_domain(r0, 0)),
                ("f0_1".to_string(), s.attr_domain(r0, 2)),
            ]
        );
    }

    #[test]
    fn reused_caches_cleared_when_answer_affecting_params_change() {
        // The sub-BFS memo is only valid under the (limit, enforce_keys,
        // universal_fresh) and schema it was computed with: the search
        // prunes on cfg.limit and Handle-Universal branches on
        // universal_fresh. The consistency memo depends only on
        // enforce_keys and the schema, so it survives the other two.
        let s = schema();
        let src = "{ (b1) | exists d1 (Likes(d1, b1)) and exists x1, p1 (Serves(x1, b1, p1)) }";
        let q = parse_query(&s, src).unwrap();
        let none = RunControls::default();
        let run = |q: &Query, cfg: &ChaseConfig, fresh: bool, caches: &mut ChaseCaches| {
            let mut chase = Chase::new_reusing(q, cfg, fresh, &none, caches);
            chase.run_root_observed(
                &CompiledFormula::new(q.formula.clone()),
                CInstance::new(Arc::clone(&q.schema)),
                vec![None; q.vars.len()],
                &mut |_, _, _| true,
            );
            chase.recycle_into(caches);
        };
        // The memo sizes a run with these parameters starts from.
        let sizes_at_start =
            |q: &Query, cfg: &ChaseConfig, fresh: bool, caches: &mut ChaseCaches| {
                let chase = Chase::new_reusing(q, cfg, fresh, &none, caches);
                let c = &chase.ctxs[0];
                let sizes = (c.bfs_memo.len(), c.consist_memo.len());
                chase.recycle_into(caches);
                sizes
            };
        let mut caches = ChaseCaches::default();
        let cfg4 = ChaseConfig::with_limit(4);
        let cfg6 = ChaseConfig::with_limit(6);
        let cfg6_keys = ChaseConfig::with_limit(6).enforce_keys(true);
        run(&q, &cfg4, true, &mut caches);
        let (bfs, consist) = sizes_at_start(&q, &cfg4, true, &mut caches);
        assert!(bfs > 0 && consist > 0, "run must populate the memos");
        // Same parameters: memos survive (the warm-session fast path).
        run(&q, &cfg4, true, &mut caches);
        let (bfs2, consist2) = sizes_at_start(&q, &cfg4, true, &mut caches);
        assert!(bfs2 >= bfs && consist2 >= consist);
        // Limit change: the sub-BFS memo is cleared, the consistency memo
        // kept.
        assert_eq!(sizes_at_start(&q, &cfg6, true, &mut caches), (0, consist2));
        // universal_fresh change: the same.
        run(&q, &cfg6, true, &mut caches);
        let (bfs6, consist6) = sizes_at_start(&q, &cfg6, true, &mut caches);
        assert!(bfs6 > 0 && consist6 >= consist2);
        assert_eq!(sizes_at_start(&q, &cfg6, false, &mut caches), (0, consist6));
        // enforce_keys change: both cleared.
        run(&q, &cfg6, false, &mut caches);
        assert!(sizes_at_start(&q, &cfg6, false, &mut caches).1 > 0);
        assert_eq!(sizes_at_start(&q, &cfg6_keys, false, &mut caches), (0, 0));
        // Schema change: both cleared.
        run(&q, &cfg6_keys, false, &mut caches);
        let (bfs_k, consist_k) = sizes_at_start(&q, &cfg6_keys, false, &mut caches);
        assert!(bfs_k > 0 && consist_k > 0);
        let other = parse_query(&schema(), src).unwrap();
        assert!(!Arc::ptr_eq(&q.schema, &other.schema));
        assert_eq!(
            sizes_at_start(&other, &cfg6_keys, false, &mut caches),
            (0, 0)
        );
    }

    #[test]
    fn size_cut_survives_sub_search_memo_reuse() {
        // A run that reuses another run's sub-BFS results (same limit)
        // must report a cut inside them as if it had searched them itself.
        let s = schema();
        let none = RunControls::default();
        let srcs = [
            "{ (b1) | exists d1 (Likes(d1, b1)) and exists x1, p1 (Serves(x1, b1, p1)) }",
            FORALL_DISJ,
        ];
        let mut seen = [false, false];
        for src in srcs {
            let q = parse_query(&s, src).unwrap();
            for limit in 1..=6 {
                let cfg = ChaseConfig::with_limit(limit);
                let fresh = root_run(&q, &cfg, &none, &mut ChaseCaches::default()).size_cut;
                let mut caches = ChaseCaches::default();
                root_run(&q, &cfg, &none, &mut caches).recycle_into(&mut caches);
                let warm = root_run(&q, &cfg, &none, &mut caches);
                assert_eq!(warm.size_cut, fresh, "{src} at limit {limit}");
                seen[usize::from(fresh)] = true;
            }
        }
        assert_eq!(seen, [true, true], "both outcomes must occur");
    }

    #[test]
    fn exact_memo_keys_on_the_instance_numbering() {
        // White-box: one worker context solves an instance's problem once
        // and answers the repeat from its exact memo; the same instance
        // with its nulls created in another order is a new problem.
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) }").unwrap();
        let serves = s.rel_id("Serves").unwrap();
        // Serves(v0, v1, v2) with v2 > 3.0, nulls created in `order`.
        let build = |order: [usize; 3]| {
            let mut inst = CInstance::new(Arc::clone(&s));
            let mut cols = vec![Ent::Const(Value::real(0.0)); 3];
            for c in order {
                cols[c] = Ent::Null(inst.fresh_null(format!("v{c}"), s.attr_domain(serves, c)));
            }
            inst.add_cond(Cond::Lit(Lit::cmp(
                cols[2].clone(),
                SolverOp::Gt,
                Value::real(3.0),
            )));
            inst.add_tuple(serves, cols);
            inst
        };
        let decide = |cfg: &ChaseConfig, ctx: &mut WorkerCtx, inst: &CInstance| {
            Engine {
                query: &q,
                cfg,
                universal_fresh: true,
                deadline: None,
                cancel: None,
                query_key: 0,
                ctx,
            }
            .decide(&Phi::new(to_problem(inst, cfg.enforce_keys)), &[])
        };
        let cfg = ChaseConfig::with_limit(4);
        let mut ctx = WorkerCtx::new();
        let inst = build([0, 1, 2]);
        assert!(decide(&cfg, &mut ctx, &inst));
        assert_eq!((ctx.exact.misses, ctx.exact.hits), (1, 0));
        assert!(decide(&cfg, &mut ctx, &inst));
        assert_eq!((ctx.exact.misses, ctx.exact.hits), (1, 1));
        let renamed = build([2, 1, 0]);
        assert_ne!(to_problem(&inst, false), to_problem(&renamed, false));
        assert!(decide(&cfg, &mut ctx, &renamed));
        assert_eq!((ctx.exact.misses, ctx.exact.hits), (2, 1));
        // The cold reference solves every time and looks nothing up.
        let cold = cfg.clone().solver_cache(false);
        let mut ctx = WorkerCtx::new();
        assert!(decide(&cold, &mut ctx, &inst));
        assert!(decide(&cold, &mut ctx, &inst));
        assert_eq!(
            (ctx.exact.misses, ctx.exact.hits, ctx.exact.len()),
            (0, 0, 0)
        );
    }

    #[test]
    fn parallel_root_matches_sequential_accepted_sequence() {
        // The strongest determinism statement: the *ordered* accepted
        // stream is identical, instance by instance, rendered bytes and
        // all.
        let queries = [
            "{ (b1) | exists d1 (Likes(d1, b1)) }",
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
            "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
        ];
        for src in queries {
            let seq = run_with(src, &ChaseConfig::with_limit(6));
            let par = run_with(src, &ChaseConfig::with_limit(6).threads(4));
            assert_eq!(seq.len(), par.len(), "{src}");
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(format!("{a}"), format!("{b}"), "{src}");
            }
        }
    }

    /// A ∀-heavy disjunctive query: its top-level `∨` splits into two
    /// `∨`-free trees, so `Conj-*` variants run it as two root jobs.
    pub(crate) const FORALL_DISJ: &str = "{ (d1) | forall b1 (exists x1, p1 . Serves(x1, b1, p1)) \
                               and (Likes(d1, 'A') or Likes(d1, 'B')) }";

    #[test]
    fn fan_out_happens_only_across_root_jobs() {
        let s = schema();
        let explain = |src: &str, variant: crate::Variant, threads: usize| {
            let session = crate::Session::new(Arc::clone(&s))
                .config(ChaseConfig::with_limit(8).threads(threads));
            let mut items = Vec::new();
            let sol = session
                .explain_with(
                    crate::ExplainRequest::drc(src).variant(variant),
                    &mut |acc| {
                        items.push(format!("{}", acc.inst));
                        true
                    },
                )
                .unwrap();
            (items, sol.stats)
        };
        // A single-root request never fans out, whatever the thread budget,
        // and streams exactly the bytes a sequential run streams.
        let join = "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) \
                    and Serves(x2, b1, p2) and p1 > p2 }";
        let (seq, _) = explain(join, crate::Variant::DisjEO, 1);
        let (par, st) = explain(join, crate::Variant::DisjEO, 4);
        assert!(!seq.is_empty());
        assert_eq!(seq, par);
        assert_eq!(st.resident_batches, 0, "a single root must not fan out");
        // A multi-root Conj-Add request (two ∨-free trees) fans its roots
        // out over the resident pool.
        let (seq, _) = explain(FORALL_DISJ, crate::Variant::ConjAdd, 1);
        let (par, st) = explain(FORALL_DISJ, crate::Variant::ConjAdd, 2);
        assert!(!seq.is_empty());
        assert_eq!(seq, par);
        assert!(
            st.resident_batches > 0,
            "root jobs must fan out through the resident pool"
        );
        assert!(st.dedupe_offers > 0);
        assert_eq!(
            (st.waves, st.spilled_waves, st.subsumed_subtrees),
            (0, 0, 0)
        );
        assert_eq!((st.incr_extends, st.incr_fallbacks), (0, 0));
        assert_eq!(st.sat_l2, MemoCounts::default());
        assert_eq!(st.sat_l1_hit_rate(), 0.0);
        // Workers share no memo tier, and per-run baselining makes a fresh
        // chase over the warm caches start from zero, not from the
        // cumulative counters.
        let q = parse_query(&s, join).unwrap();
        let cfg = ChaseConfig::with_limit(7).threads(2);
        let mut caches = ChaseCaches::default();
        let none = RunControls::default();
        let chase = root_run(&q, &cfg, &none, &mut caches);
        let st1 = chase.stats();
        assert!(st1.solver_l1_hits + st1.solver_l1_misses > 0);
        assert_eq!(st1.solver_l2, MemoCounts::default());
        chase.recycle_into(&mut caches);
        let st2 = Chase::new_reusing(&q, &cfg, true, &none, &mut caches).stats();
        assert_eq!(st2.solver_l1_hits + st2.solver_l1_misses, 0);
    }
}
