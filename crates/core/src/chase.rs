//! The chase over c-instances: `Tree-Chase-BFS` (Algorithm 1), `Tree-Chase`
//! (Algorithm 2), and the four node handlers (Algorithms 3–6).
//!
//! The BFS explores the (implicit) chase tree: every popped c-instance is
//! first tested with `Tree-SAT` + `IsConsistent` (satisfying instances are
//! *results* and are not expanded further; a top-level result is validated
//! against the original tree and covered right there, on the same worker),
//! then expanded by the recursive `Tree-Chase`, which dispatches on the
//! root operator of the current subtree and recursively re-enters the BFS
//! on child subtrees. The `visited` set deduplicates modulo renaming of
//! labeled nulls ([`cqi_instance::is_isomorphic`]), and the `limit` bound on
//! instance size guarantees termination (Proposition 3.1 makes an unbounded
//! search undecidable).
//!
//! ## Execution model (`cqi-runtime`)
//!
//! Each root search is one FIFO BFS: [`Chase`] drives its top-level
//! frontier through [`cqi_runtime::drive`] on one worker context, with the
//! `visited` check backed by a [`cqi_runtime::VisitedSet`] keyed on the
//! [`signature`]/[`exact_digest`] iso-invariants. All mutable worker state
//! (`WorkerCtx`: solver memos, sub-BFS results) only affects speed. Every
//! solver question of the chase — `IsConsistent` and each Tree-SAT leaf —
//! goes through one worker-level path, `WorkerCtx::decide`: the worker's
//! exact-problem memo, then one solve. Problems are keyed in the
//! instance's own null numbering, which is deterministic per instance, so
//! the memo never changes an answer. The only parallel axis is across
//! roots: multi-root runs (the `Conj-*` tree sets and the `*-Add`
//! re-seeds) fan whole root searches out over the session's resident pool
//! when `ChaseConfig::threads > 1`
//! ([`Chase::run_roots`]), and merge their results in job order, so
//! parallel runs accept the *same instances in the same order* as
//! sequential ones (asserted by `crates/core/tests/parallel_props.rs`).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cqi_drc::{Atom, Coverage, Formula, Query, Term, VarId};
use cqi_obs::trace::{self, Phase};
use cqi_instance::consistency::to_problem;
use cqi_instance::{digest_stats, exact_digest, is_isomorphic, signature, CInstance, Cond};
use cqi_runtime::{
    drive, BoundedMemo, DedupeStats, Exec, Expansion, FrontierTask, MemoCounts, ResidentPool,
    RunCounters, SetKey,
};
use cqi_solver::{Ent, ExactCache, Problem};

use crate::config::{CancelToken, ChaseConfig};
use crate::conjtree::expand_disj_node;
use crate::cover::validated_coverage;
use crate::dnf::{has_quantifier, tree_to_conj};
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
    /// Duplicate-detection offers across all drives.
    pub dedupe_offers: u64,
    /// Offers rejected as duplicates.
    pub dedupe_duplicates: u64,
    /// Signature collisions needing a full isomorphism check.
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
    /// (`ChaseConfig::trace`) — derived from the same `cqi-obs` span
    /// instrumentation as the Perfetto trace. Only *leaf* spans are
    /// phase-attributed, so the components never double-count and, on a
    /// single-threaded run, sum to ≤ total wall time (multi-thread runs
    /// sum per-thread time, which may exceed wall clock).
    pub phase_solver_ns: u64,
    /// Always 0: the chase has no canonicalization phase any more. Kept
    /// public for the benchmark ledger, which still reads it.
    pub phase_canon_ns: u64,
    /// Time in isomorphism dedupe (visited-set offers + nested admission).
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
                    r.counter("cqi_phase_ns_total", "traced time per phase (ns)", &[(
                        "phase",
                        Phase::Solver.name(),
                    )]),
                    r.counter("cqi_phase_ns_total", "traced time per phase (ns)", &[(
                        "phase",
                        Phase::Canon.name(),
                    )]),
                    r.counter("cqi_phase_ns_total", "traced time per phase (ns)", &[(
                        "phase",
                        Phase::Dedupe.name(),
                    )]),
                    r.counter("cqi_phase_ns_total", "traced time per phase (ns)", &[(
                        "phase",
                        Phase::Sched.name(),
                    )]),
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

/// Per-worker mutable chase state: every memo the search consults, plus the
/// worker-local slice of the run counters. None of it changes *answers* —
/// only how fast they are reached — which is what lets a root search run on
/// any worker while keeping parallel output identical to sequential.
pub(crate) struct WorkerCtx {
    /// Memoized sub-BFS results keyed by (subtree, instance digest,
    /// relevant homomorphism entries). The recursion re-derives identical
    /// sub-searches constantly; this cache is the difference between
    /// seconds and minutes on the harder difference queries.
    bfs_memo: BoundedMemo<(u64, u64, u64), Vec<CInstance>>,
    /// Memoized `IsConsistent` answers by instance digest.
    consist_memo: BoundedMemo<u64, bool>,
    /// Exact-problem memo: most decisions repeat a problem this worker
    /// already decided. Keyed by the whole problem in the instance's own
    /// null numbering, so renamed copies of a problem are separate
    /// entries. Its hits and misses are reported as L1 hits and misses.
    exact: ExactCache,
    /// This worker observed the wall-clock deadline.
    timed_out: bool,
    /// This worker observed a fired [`CancelToken`].
    cancelled: bool,
}

impl WorkerCtx {
    fn new(cfg: &ChaseConfig) -> WorkerCtx {
        WorkerCtx {
            bfs_memo: BoundedMemo::new(BFS_MEMO_CAP),
            consist_memo: BoundedMemo::new(CONSIST_MEMO_CAP),
            exact: ExactCache::new(cfg.solver_cache_capacity),
            timed_out: false,
            cancelled: false,
        }
    }

    /// Clears the per-run flags while keeping every memo warm — the reuse
    /// contract of [`ChaseCaches`].
    fn reset_run_flags(&mut self) {
        self.timed_out = false;
        self.cancelled = false;
    }

    /// Clears the param-sensitive memos (see [`CacheParams`]).
    fn clear_param_memos(&mut self) {
        self.bfs_memo.clear();
        self.consist_memo.clear();
    }

    /// Is `p` satisfiable? The worker's one decision path, for
    /// `IsConsistent` and every Tree-SAT leaf alike: the exact-problem
    /// memo, then one solve (one solver call per check, as in the paper's
    /// §4.2). The memo stores a pure function of its full key, so the path
    /// never changes an answer.
    pub(crate) fn decide(&mut self, p: &Problem) -> bool {
        self.exact.is_sat(p)
    }
}

/// The answer-affecting run parameters the `bfs_memo`/`consist_memo`
/// contents were computed under. The sub-BFS results depend on the size
/// `limit` (pruning inside `bfs_inner`) and on `universal_fresh`
/// (`Handle-Universal`'s fresh-null branch), and consistency answers
/// depend on `enforce_keys` — so entries are only reusable by a run with
/// the *same* triple. The exact-problem memo is parameter-independent
/// (the problem encodes the key clauses) and stays warm across any
/// parameter change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CacheParams {
    limit: usize,
    enforce_keys: bool,
    universal_fresh: bool,
    /// Identity of the schema the memoized digests were computed under
    /// (instance digests are only comparable within one schema; a
    /// pre-parsed `QueryInput::Tree` may carry a different schema than the
    /// session's).
    schema: usize,
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
    /// The session's resident worker pool, spawned once (lazily, on the
    /// first multi-thread run) and reused by every subsequent run. `None`
    /// until then.
    pool: Option<Arc<ResidentPool>>,
}

impl ChaseCaches {
    pub fn new() -> ChaseCaches {
        ChaseCaches::default()
    }

    /// Spawns (or resizes) the resident pool backing a `threads`-wide run:
    /// `threads - 1` parked workers, the calling thread being the last
    /// participant. [`Chase::new_reusing`] calls this, so every
    /// multi-thread chase — session-backed or one-shot — fans out over a
    /// resident pool.
    fn ensure_pool(&mut self, threads: usize) {
        let helpers = threads.saturating_sub(1);
        if helpers == 0 {
            return;
        }
        if self.pool.as_ref().map(|p| p.workers()) != Some(helpers) {
            self.pool = Some(Arc::new(ResidentPool::new(helpers)));
        }
    }
}

/// One top-level root search: a (sub)formula chased from a seed instance
/// under pre-bound output variables. `run_variant` batches these —
/// one per conjunctive tree, plus one per (uncovered leaf × tree) in the
/// `*-Add` phase — and [`Chase::run_roots`] fans the batch out across
/// workers when `threads > 1`.
pub struct RootJob<'f> {
    pub formula: &'f Formula,
    pub seed: CInstance,
    pub h: Hom,
}

/// One entry of [`Chase::accepted`]: the instance, its coverage of the
/// original tree (`None` when it fails the original-tree re-check), and its
/// wall-clock acceptance offset.
pub type AcceptedInstance = (CInstance, Option<Coverage>, Duration);

/// What a root search accepts: the instance and its validated coverage.
type RootAccept = (CInstance, Option<Coverage>);

/// One chase run (possibly over several trees, for the `Conj-*` and `*-Add`
/// variants, which all feed the same accepted-instance log).
pub struct Chase<'a> {
    pub query: &'a Query,
    pub cfg: &'a ChaseConfig,
    /// Whether `Handle-Universal` may mint fresh labeled nulls
    /// (the `EO` variants disable this).
    pub universal_fresh: bool,
    pub start: Instant,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    pub timed_out: bool,
    /// A [`CancelToken`] fired mid-drive.
    pub cancelled: bool,
    /// An acceptance observer returned `false` (the streaming consumer
    /// stopped), halting the drive early. Distinct from the `max_results`
    /// cap, which is a *requested* completion.
    pub halted: bool,
    done: bool,
    /// Satisfying consistent instances accepted at the top level, with
    /// acceptance timestamps (drives the §5.1 interactivity metrics).
    pub accepted: Vec<AcceptedInstance>,
    /// One memo context per worker; `ctxs[0]` drives single roots.
    ctxs: Vec<WorkerCtx>,
    /// The session's resident pool when `threads > 1` (see
    /// [`ChaseCaches::ensure_pool`]); `None` runs every root inline.
    pool: Option<Arc<ResidentPool>>,
    /// Steal/batch counters of this run's fan-outs.
    run_counters: RunCounters,
    /// Dedupe totals accumulated over this run's drives.
    dedupe_acc: DedupeStats,
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
    query_key: u64,
}

impl<'a> Chase<'a> {
    pub fn new(query: &'a Query, cfg: &'a ChaseConfig, universal_fresh: bool) -> Chase<'a> {
        Chase::new_reusing(query, cfg, universal_fresh, &mut ChaseCaches::new())
    }

    /// Like [`Chase::new`], but the worker contexts are taken from `caches`
    /// (topped up with fresh ones if the thread budget grew); pair with
    /// [`Chase::recycle_into`] to return them warm after the run. Reused
    /// contexts keep the solver-cache capacity they were created with.
    /// A `threads > 1` budget spawns the resident pool it fans out over,
    /// once per `caches`.
    pub fn new_reusing(
        query: &'a Query,
        cfg: &'a ChaseConfig,
        universal_fresh: bool,
        caches: &mut ChaseCaches,
    ) -> Chase<'a> {
        // lint:allow(wall-clock) per-drive elapsed time feeds `ChaseStats`, not control flow
        let start = Instant::now();
        let threads = cfg.resolved_threads().max(1);
        let params = CacheParams {
            limit: cfg.limit,
            enforce_keys: cfg.enforce_keys,
            universal_fresh,
            schema: std::sync::Arc::as_ptr(&query.schema) as *const u8 as usize,
        };
        let param_safe = caches.params == Some(params);
        caches.params = Some(params);
        caches.ensure_pool(threads);
        let mut ctxs: Vec<WorkerCtx> = std::mem::take(&mut caches.ctxs);
        ctxs.truncate(threads);
        for ctx in &mut ctxs {
            ctx.reset_run_flags();
            if !param_safe {
                // These memos' answers depend on the run parameters (see
                // [`CacheParams`]); a differing run must not see them.
                ctx.clear_param_memos();
            }
        }
        while ctxs.len() < threads {
            ctxs.push(WorkerCtx::new(cfg));
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
            deadline: cfg.timeout.map(|t| start + t),
            cancel: cfg.cancel.clone(),
            timed_out: false,
            cancelled: false,
            halted: false,
            done: false,
            accepted: Vec::new(),
            ctxs,
            // A sequential run may inherit a pool from an earlier
            // multi-thread run on the same caches; it must not fan out.
            pool: caches.pool.clone().filter(|_| threads > 1),
            run_counters: RunCounters::default(),
            dedupe_acc: DedupeStats::default(),
            stats_base: ChaseStats::default(),
            phase_base: trace::phase_totals(),
            query_key,
        };
        chase.stats_base = chase.cumulative_stats();
        chase
    }

    /// Hands the worker contexts (with every memo warm) back to `caches`
    /// for the next run.
    pub fn recycle_into(self, caches: &mut ChaseCaches) {
        caches.ctxs = self.ctxs;
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

    fn absorb_drive(&mut self, st: DedupeStats) {
        self.dedupe_acc.offers += st.offers;
        self.dedupe_acc.duplicates += st.duplicates;
        self.dedupe_acc.iso_checks += st.iso_checks;
    }

    fn deadline_passed(&self) -> bool {
        // lint:allow(wall-clock) deadline enforcement needs a real clock
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn cancel_fired(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    }

    fn collect_ctx_flags(&mut self) {
        self.timed_out |= self.ctxs.iter().any(|c| c.timed_out);
        self.cancelled |= self.ctxs.iter().any(|c| c.cancelled);
    }

    /// Runs Algorithm 1 on `formula` from `seed`/`seed_h` as the top level,
    /// logging accepted instances. A single root is one sequential drive on
    /// the first worker context, whatever the thread budget.
    pub fn run_root(&mut self, formula: &Formula, seed: CInstance, seed_h: Hom) {
        self.run_root_observed(formula, seed, seed_h, &mut |_, _, _| true);
    }

    /// [`Chase::run_root`] with an acceptance observer: `observer` is
    /// called with every instance (and its validated coverage and
    /// acceptance timestamp) the moment it enters the log, in the same
    /// deterministic order as the final `accepted` log. Returning `false`
    /// halts the drive (the streaming API's consumer-gone/cancel path).
    pub fn run_root_observed(
        &mut self,
        formula: &Formula,
        seed: CInstance,
        seed_h: Hom,
        observer: &mut dyn FnMut(&CInstance, Option<&Coverage>, Duration) -> bool,
    ) {
        if self.done {
            return;
        }
        if self.deadline_passed() {
            self.timed_out = true;
            return;
        }
        if self.cancel_fired() {
            self.cancelled = true;
            return;
        }
        let _root_span = trace::span("root_job", "chase");
        let (i0, h0) = bind_free_vars(self.query, formula, seed, seed_h);
        let task = RootTask {
            query: self.query,
            cfg: self.cfg,
            universal_fresh: self.universal_fresh,
            deadline: self.deadline,
            cancel: self.cancel.as_ref(),
            formula,
            h0: &h0,
            query_key: self.query_key,
        };
        let start = self.start;
        let max = self.cfg.max_results;
        let accepted = &mut self.accepted;
        let mut done = false;
        let mut halted = false;
        let mut sink = |(inst, coverage): RootAccept| {
            let t = start.elapsed();
            let keep_streaming = observer(&inst, coverage.as_ref(), t);
            accepted.push((inst, coverage, t));
            if !keep_streaming {
                halted = true;
                done = true;
                return false;
            }
            if max.is_some_and(|m| accepted.len() >= m) {
                done = true;
                false
            } else {
                true
            }
        };
        let dedupe = drive(&task, &mut self.ctxs[0], vec![i0], &mut sink);
        self.absorb_drive(dedupe);
        self.done |= done;
        self.halted |= halted;
        self.collect_ctx_flags();
    }

    /// Runs a batch of independent root searches. With a thread budget and
    /// more than one job, whole roots are fanned out across the resident
    /// pool (each driven sequentially on its worker's context) and the
    /// accepted instances are merged in job order — identical output to
    /// running the jobs one by one.
    pub fn run_roots(&mut self, jobs: Vec<RootJob<'_>>) {
        self.run_roots_observed(jobs, &mut |_, _, _| true);
    }

    /// [`Chase::run_roots`] with an acceptance observer (see
    /// [`Chase::run_root_observed`]). Under job-level fan-out the observer
    /// fires at the deterministic job-order merge.
    pub fn run_roots_observed(
        &mut self,
        jobs: Vec<RootJob<'_>>,
        observer: &mut dyn FnMut(&CInstance, Option<&Coverage>, Duration) -> bool,
    ) {
        if jobs.is_empty() || self.done {
            return;
        }
        if let Some(pool) = self.pool.clone().filter(|_| jobs.len() > 1) {
            self.run_roots_parallel(&pool, jobs, observer);
        } else {
            for job in jobs {
                if self.timed_out || self.cancelled || self.done {
                    break;
                }
                self.run_root_observed(job.formula, job.seed, job.h, observer);
            }
        }
    }

    fn run_roots_parallel(
        &mut self,
        pool: &ResidentPool,
        jobs: Vec<RootJob<'_>>,
        observer: &mut dyn FnMut(&CInstance, Option<&Coverage>, Duration) -> bool,
    ) {
        let query = self.query;
        let cfg = self.cfg;
        let universal_fresh = self.universal_fresh;
        let deadline = self.deadline;
        let cancel = self.cancel.clone();
        let max = cfg.max_results;
        let start = self.start;
        let query_key = self.query_key;
        let exec = Exec::resident(pool).with_counters(&self.run_counters);
        let _fanout_span = trace::span("root_job_fanout", "chase");
        let per_job: Vec<(Vec<AcceptedInstance>, DedupeStats)> =
            exec.run(&mut self.ctxs, &jobs, |ctx, _, job| {
                let _job_span = trace::span("root_job", "chase");
                // lint:allow(wall-clock) deadline enforcement needs a real clock
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    ctx.timed_out = true;
                    return (Vec::new(), DedupeStats::default());
                }
                if cancel
                    .as_ref()
                    .is_some_and(CancelToken::is_cancelled)
                {
                    ctx.cancelled = true;
                    return (Vec::new(), DedupeStats::default());
                }
                let (i0, h0) =
                    bind_free_vars(query, job.formula, job.seed.clone(), job.h.clone());
                let task = RootTask {
                    query,
                    cfg,
                    universal_fresh,
                    deadline,
                    cancel: cancel.as_ref(),
                    formula: job.formula,
                    h0: &h0,
                    query_key,
                };
                let mut acc: Vec<AcceptedInstance> = Vec::new();
                let mut sink = |(inst, coverage): RootAccept| {
                    // Timestamp at the moment of acceptance, not at merge —
                    // the §5.1 interactivity metrics read these.
                    acc.push((inst, coverage, start.elapsed()));
                    // No single job ever needs more than the global cap.
                    max.is_none_or(|m| acc.len() < m)
                };
                let st = drive(&task, ctx, vec![i0], &mut sink);
                (acc, st)
            });
        // Deterministic merge: job order, truncated at the global cap
        // exactly where a sequential run would have stopped. (The log stays
        // in job order; timestamps are wall-clock and may interleave across
        // jobs, as they legitimately do.) The observer fires here, at the
        // merge point — job-level fan-out is a batch barrier, unlike the
        // per-item flushing of a single root's drive.
        'merge: for (acc, st) in per_job {
            self.absorb_drive(st);
            for (inst, coverage, t) in acc {
                let keep_streaming = observer(&inst, coverage.as_ref(), t);
                self.accepted.push((inst, coverage, t));
                if !keep_streaming {
                    self.halted = true;
                    self.done = true;
                    break 'merge;
                }
                if max.is_some_and(|m| self.accepted.len() >= m) {
                    self.done = true;
                    break 'merge;
                }
            }
        }
        self.collect_ctx_flags();
    }
}

/// Lines 2–5 of Algorithm 1: bind unbound free variables to fresh labeled
/// nulls.
fn bind_free_vars(
    query: &Query,
    formula: &Formula,
    mut inst: CInstance,
    mut h: Hom,
) -> (CInstance, Hom) {
    h.resize(query.vars.len(), None);
    for v in formula.free_vars() {
        if h[v.index()].is_none() {
            let d = query.var_domain(v);
            let n = inst.fresh_null(query.var_name(v), d);
            h[v.index()] = Some(Ent::Null(n));
        }
    }
    (inst, h)
}

/// The top-level frontier of one root search, as a [`FrontierTask`]: admit
/// by the size limit, dedupe by the [`signature`]/[`exact_digest`]
/// iso-invariants with [`is_isomorphic`] confirming collisions, and expand
/// via `IsConsistent` + `Tree-SAT` + `Tree-Chase` on the worker's context.
/// An accepted instance leaves with its original-tree validation and
/// coverage, computed on the Tree-SAT context that accepted it.
struct RootTask<'t> {
    query: &'t Query,
    cfg: &'t ChaseConfig,
    universal_fresh: bool,
    deadline: Option<Instant>,
    cancel: Option<&'t CancelToken>,
    formula: &'t Formula,
    h0: &'t Hom,
    query_key: u64,
}

impl FrontierTask for RootTask<'_> {
    type Item = CInstance;
    type Ctx = WorkerCtx;
    type Accept = RootAccept;

    fn admit(&self, inst: &CInstance) -> bool {
        inst.size() <= self.cfg.limit
    }

    fn keys(&self, inst: &CInstance) -> SetKey {
        SetKey {
            signature: signature(inst),
            digest: exact_digest(inst),
        }
    }

    fn is_duplicate(&self, a: &CInstance, b: &CInstance) -> bool {
        is_isomorphic(a, b)
    }

    fn stopped(&self, ctx: &mut WorkerCtx) -> bool {
        // lint:allow(wall-clock) deadline enforcement needs a real clock
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            ctx.timed_out = true;
            return true;
        }
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            ctx.cancelled = true;
            return true;
        }
        false
    }

    fn expand(&self, ctx: &mut WorkerCtx, inst: &CInstance) -> Expansion<CInstance, RootAccept> {
        let mut engine = Engine {
            query: self.query,
            cfg: self.cfg,
            universal_fresh: self.universal_fresh,
            deadline: self.deadline,
            cancel: self.cancel,
            query_key: self.query_key,
            ctx,
        };
        // Line 13: IsConsistent(I) ∧ Tree-SAT under the root homomorphism.
        // Every popped child passed IsConsistent when it was generated, so
        // that check is a digest-memo hit; running it first keeps the
        // Tree-SAT context alive to validate and cover an accepted instance.
        if engine.consistent(inst) {
            let (query, keys) = (self.query, self.cfg.enforce_keys);
            let mut decide = |p: &Problem| engine.decide(p);
            let mut sat = SatCtx::new(query, inst, keys, &mut decide);
            if sat.tree_sat(self.formula, self.h0) {
                let coverage = validated_coverage(&mut sat);
                return Expansion {
                    accepted: Some((inst.clone(), coverage)),
                    children: Vec::new(),
                };
            }
        }
        // Lines 16–19: expand.
        let mut children = Vec::new();
        for j in engine.tree_chase(self.formula, inst, self.h0) {
            if engine.stopped() {
                break;
            }
            if j.size() <= self.cfg.limit && engine.consistent(&j) {
                children.push(j);
            }
        }
        Expansion {
            accepted: None,
            children,
        }
    }
}

/// The recursive chase engine: all of Algorithms 1–6 below the top level,
/// operating on one worker's memo context.
struct Engine<'e> {
    query: &'e Query,
    cfg: &'e ChaseConfig,
    universal_fresh: bool,
    deadline: Option<Instant>,
    cancel: Option<&'e CancelToken>,
    query_key: u64,
    ctx: &'e mut WorkerCtx,
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

    /// One solver decision: the worker's memoized path
    /// ([`WorkerCtx::decide`]) with `cfg.solver_cache`, one cold solve
    /// without it.
    fn decide(&mut self, p: &Problem) -> bool {
        if self.cfg.solver_cache {
            self.ctx.decide(p)
        } else {
            let _s = trace::span_phase("solve", "solver", Phase::Solver);
            cqi_solver::is_sat(p)
        }
    }

    /// `IsConsistent(inst)`: the per-worker digest memo, then
    /// [`Engine::decide`] on the instance's constraint problem.
    fn consistent(&mut self, inst: &CInstance) -> bool {
        let key = exact_digest(inst);
        if let Some(v) = self.ctx.consist_memo.get(&key) {
            return *v;
        }
        consistency_checks_metric().inc();
        let ans = self.decide(&to_problem(inst, self.cfg.enforce_keys));
        self.ctx.consist_memo.insert(key, ans);
        ans
    }

    /// `Tree-Chase-BFS` (Algorithm 1) for recursive (sub-formula) calls,
    /// memoized on (subtree, instance, relevant homomorphism entries).
    fn bfs(&mut self, q: &Formula, h0: &Hom, i0: &CInstance) -> Vec<CInstance> {
        // Key: query identity (variable names/domains — see
        // `Chase::query_key`) + subtree content + exact instance + the
        // homomorphism entries its free variables see. Content, not
        // identity: the memo outlives the query that filled it.
        let fkey = hash_of(&(self.query_key, q));
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
        if let Some(cached) = self.ctx.bfs_memo.get(&key) {
            return cached.clone();
        }
        let res = self.bfs_inner(q, h0, i0);
        // Results truncated by timeout/cancellation must not poison the
        // cache (it outlives the run now that sessions recycle contexts).
        if !self.ctx.timed_out && !self.ctx.cancelled {
            self.ctx.bfs_memo.insert(key, res.clone());
        }
        res
    }

    /// `Tree-Chase-BFS` body, walked one FIFO generation (wave) at a time:
    /// each wave is first admitted (size bound + visited isomorphism check,
    /// in pop order), then every admitted instance is accepted or expanded
    /// ([`bfs_step`](Self::bfs_step)). An instance's step never reads
    /// `visited`, and its children join the next wave, so this visits
    /// exactly what a plain FIFO queue would, in the same order.
    fn bfs_inner(&mut self, q: &Formula, h0: &Hom, i0: &CInstance) -> Vec<CInstance> {
        let (i0, h0) = bind_free_vars(self.query, q, i0.clone(), h0.clone());
        let mut res: Vec<CInstance> = Vec::new();
        let mut frontier: Vec<CInstance> = vec![i0];
        let mut visited: Vec<(u64, CInstance)> = Vec::new();
        while !frontier.is_empty() {
            if self.stopped() {
                break;
            }
            let _wave_span = trace::span("nested_wave", "chase");
            // Line 10: size bound and visited (isomorphism) check.
            let mut wave: Vec<CInstance> = Vec::new();
            {
                let _s = trace::span_phase("nested_admit", "dedupe", Phase::Dedupe);
                for inst in std::mem::take(&mut frontier) {
                    if inst.size() > self.cfg.limit {
                        continue;
                    }
                    let sig = signature(&inst);
                    if visited
                        .iter()
                        .any(|(s, v)| *s == sig && is_isomorphic(v, &inst))
                    {
                        continue;
                    }
                    visited.push((sig, inst.clone()));
                    wave.push(inst);
                }
            }
            for inst in wave {
                if self.stopped() {
                    break;
                }
                let (accepted, children) = self.bfs_step(q, &h0, &inst);
                if accepted {
                    res.push(inst);
                } else {
                    frontier.extend(children);
                }
            }
        }
        res
    }

    /// One step of Algorithm 1 for an already-admitted instance: accept it
    /// (Tree-SAT ∧ IsConsistent) or expand it and pre-filter the children.
    /// Pure with respect to the BFS bookkeeping — it reads neither
    /// `visited` nor any sibling.
    fn bfs_step(&mut self, q: &Formula, h0: &Hom, inst: &CInstance) -> (bool, Vec<CInstance>) {
        // Line 13: Tree-SAT under the *current* homomorphism (recursive
        // calls must verify satisfaction at the handler's chosen
        // mapping, not under blanket ∃-closure — otherwise the
        // Handle-Universal merge would accept bodies satisfied by some
        // other entity) ∧ IsConsistent(I).
        let (query, keys) = (self.query, self.cfg.enforce_keys);
        let sat = SatCtx::new(query, inst, keys, &mut |p| self.decide(p)).tree_sat(q, h0);
        if sat && self.consistent(inst) {
            return (true, Vec::new());
        }
        // Lines 16–19: expand.
        let expansions = self.tree_chase(q, inst, h0);
        let mut children = Vec::new();
        for j in expansions {
            if self.stopped() {
                break;
            }
            if j.size() <= self.cfg.limit && self.consistent(&j) {
                children.push(j);
            }
        }
        (false, children)
    }

    /// `Tree-Chase` (Algorithm 2): dispatch on the root operator.
    fn tree_chase(&mut self, q: &Formula, inst: &CInstance, h: &Hom) -> Vec<CInstance> {
        if !has_quantifier(q) {
            // Lines 2–7: materialize each DNF conjunction.
            let mut res = Vec::new();
            for conj in tree_to_conj(q) {
                if let Some(j) = materialize(self.query, inst, &conj, h) {
                    if self.consistent(&j) {
                        res.push(j);
                    }
                }
            }
            return res;
        }
        match q {
            Formula::And(l, r) => self.handle_conjunction(l, r, inst, h),
            Formula::Or(l, r) => self.handle_disjunction(l, r, inst, h),
            Formula::Exists(v, b) => self.handle_existential(*v, b, inst, h),
            Formula::Forall(v, b) => self.handle_universal(*v, b, inst, h),
            Formula::Atom(_) => unreachable!("atom has no quantifier"),
        }
    }

    /// Algorithm 3: chase the left child, then the right child on each of
    /// its solutions.
    fn handle_conjunction(
        &mut self,
        l: &Formula,
        r: &Formula,
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

    /// Algorithm 4: expand the root `∨` into its three conjunctive cases.
    fn handle_disjunction(
        &mut self,
        l: &Formula,
        r: &Formula,
        inst: &CInstance,
        h: &Hom,
    ) -> Vec<CInstance> {
        let mut res = Vec::new();
        for case in expand_disj_node(l, r) {
            if self.stopped() {
                break;
            }
            res.extend(self.bfs(&case, h, inst));
        }
        res
    }

    /// Algorithm 5: map the variable to every pool entity, and once to a
    /// fresh labeled null.
    fn handle_existential(
        &mut self,
        v: VarId,
        body: &Formula,
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
        body: &Formula,
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
pub fn materialize(
    query: &Query,
    inst: &CInstance,
    conj: &[Atom],
    h: &Hom,
) -> Option<CInstance> {
    let mut j = inst.clone();
    for atom in conj {
        match atom {
            Atom::Rel { negated, rel, terms } => {
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
mod tests {
    use super::*;
    use cqi_drc::parse_query;
    use cqi_schema::{DomainType, Schema, Value};
    use cqi_solver::{Lit, SolverOp};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
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

    fn run_with(src: &str, cfg: &ChaseConfig) -> Vec<CInstance> {
        let s = schema();
        let q = parse_query(&s, src).unwrap();
        let mut chase = Chase::new(&q, cfg, true);
        let seed = CInstance::new(Arc::clone(&s));
        chase.run_root(&q.formula.clone(), seed, vec![None; q.vars.len()]);
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
        let cfg = ChaseConfig::with_limit(12).timeout(Duration::from_millis(1));
        let mut chase = Chase::new(&q, &cfg, true);
        chase.run_root(
            &q.formula.clone(),
            CInstance::new(Arc::clone(&s)),
            vec![None; q.vars.len()],
        );
        // With a 1 ms budget the search cannot finish exploring.
        assert!(chase.timed_out || !chase.accepted.is_empty());
    }

    #[test]
    fn max_results_short_circuits() {
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        let cfg = ChaseConfig::with_limit(8).max_results(1);
        let mut chase = Chase::new(&q, &cfg, true);
        chase.run_root(
            &q.formula.clone(),
            CInstance::new(Arc::clone(&s)),
            vec![None; q.vars.len()],
        );
        assert_eq!(chase.accepted.len(), 1);
    }

    #[test]
    fn reused_caches_cleared_when_answer_affecting_params_change() {
        // The bfs/consistency memos are only valid under the (limit,
        // enforce_keys, universal_fresh) they were computed with; reusing
        // them across a parameter change would silently change answers
        // (bfs_inner prunes on cfg.limit, Handle-Universal branches on
        // universal_fresh, IsConsistent depends on enforce_keys).
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists d1 (Likes(d1, b1)) and exists x1, p1 (Serves(x1, b1, p1)) }",
        )
        .unwrap();
        let run = |cfg: &ChaseConfig, fresh: bool, caches: &mut ChaseCaches| {
            let mut chase = Chase::new_reusing(&q, cfg, fresh, caches);
            chase.run_root(
                &q.formula.clone(),
                CInstance::new(Arc::clone(&s)),
                vec![None; q.vars.len()],
            );
            chase.recycle_into(caches);
        };
        let memo_sizes = |caches: &ChaseCaches| -> (usize, usize) {
            let c = &caches.ctxs[0];
            (c.bfs_memo.len(), c.consist_memo.len())
        };
        let mut caches = ChaseCaches::new();
        let cfg4 = ChaseConfig::with_limit(4);
        let cfg6 = ChaseConfig::with_limit(6);
        let cfg6_keys = ChaseConfig::with_limit(6).enforce_keys(true);
        run(&cfg4, true, &mut caches);
        let (bfs, consist) = memo_sizes(&caches);
        assert!(bfs > 0 && consist > 0, "run must populate the memos");
        // Same parameters: memos survive (the warm-session fast path).
        run(&cfg4, true, &mut caches);
        let (bfs2, consist2) = memo_sizes(&caches);
        assert!(bfs2 >= bfs && consist2 >= consist);
        // Limit change: cleared before the run starts.
        let chase = Chase::new_reusing(&q, &cfg6, true, &mut caches);
        assert_eq!((chase.ctxs[0].bfs_memo.len(), chase.ctxs[0].consist_memo.len()), (0, 0));
        chase.recycle_into(&mut caches);
        // universal_fresh change: cleared too.
        run(&cfg6, true, &mut caches);
        assert!(memo_sizes(&caches).0 > 0);
        let chase = Chase::new_reusing(&q, &cfg6, false, &mut caches);
        assert_eq!(chase.ctxs[0].bfs_memo.len(), 0);
        chase.recycle_into(&mut caches);
        // enforce_keys change: cleared as well.
        run(&cfg6, false, &mut caches);
        assert!(memo_sizes(&caches).1 > 0);
        let chase = Chase::new_reusing(&q, &cfg6_keys, false, &mut caches);
        assert_eq!(chase.ctxs[0].consist_memo.len(), 0);
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
            .decide(&to_problem(inst, cfg.enforce_keys))
        };
        let cfg = ChaseConfig::with_limit(4);
        let mut ctx = WorkerCtx::new(&cfg);
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
        let mut ctx = WorkerCtx::new(&cold);
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
    const FORALL_DISJ: &str = "{ (d1) | forall b1 (exists x1, p1 . Serves(x1, b1, p1)) \
                               and (Likes(d1, 'A') or Likes(d1, 'B')) }";

    #[test]
    fn fan_out_happens_only_across_root_jobs() {
        let s = schema();
        let explain = |src: &str, variant: crate::Variant, threads: usize| {
            let session = crate::Session::new(Arc::clone(&s))
                .config(ChaseConfig::with_limit(8).threads(threads));
            let mut items = Vec::new();
            let sol = session
                .explain_with(crate::ExplainRequest::drc(src).variant(variant), &mut |acc| {
                    items.push(format!("{}", acc.inst));
                    true
                })
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
        assert!(st.resident_batches > 0, "root jobs must fan out through the resident pool");
        assert!(st.dedupe_offers > 0);
        assert_eq!((st.waves, st.spilled_waves, st.subsumed_subtrees), (0, 0, 0));
        assert_eq!((st.incr_extends, st.incr_fallbacks), (0, 0));
        assert_eq!(st.sat_l2, MemoCounts::default());
        assert_eq!(st.sat_l1_hit_rate(), 0.0);
        // Workers share no memo tier, and per-run baselining makes a fresh
        // chase over the warm caches start from zero, not from the
        // cumulative counters.
        let q = parse_query(&s, join).unwrap();
        let cfg = ChaseConfig::with_limit(7).threads(2);
        let mut caches = ChaseCaches::new();
        let mut chase = Chase::new_reusing(&q, &cfg, true, &mut caches);
        chase.run_root(
            &q.formula.clone(),
            CInstance::new(Arc::clone(&s)),
            vec![None; q.vars.len()],
        );
        let st1 = chase.stats();
        assert!(st1.solver_l1_hits + st1.solver_l1_misses > 0);
        assert_eq!(st1.solver_l2, MemoCounts::default());
        chase.recycle_into(&mut caches);
        let st2 = Chase::new_reusing(&q, &cfg, true, &mut caches).stats();
        assert_eq!(st2.solver_l1_hits + st2.solver_l1_misses, 0);
    }
}
