//! Root-job scheduling: how one chase run ([`Chase`]) runs its root
//! searches and fills its accepted log.
//!
//! A single root is one search on the first worker context. A batch of
//! roots (the `Conj-*` tree sets, the `*-Add` re-seeds) runs job by job,
//! or, with a thread budget, fans whole roots out over the resident pool,
//! each searched on one worker's context, and merges their logs in job
//! order, so the log is the same either way. Each root's search validates
//! and covers what it accepts on the worker that accepted it. The caller's
//! observer sees every instance as it enters the log: per instance while a
//! root is searched inline, at the job-order merge under fan-out.

use std::time::Duration;

use cqi_drc::Coverage;
use cqi_instance::{CInstance, OfferCounts};
use cqi_obs::trace;
use cqi_runtime::{Exec, ResidentPool};

use crate::chase::{AcceptedInstance, Chase, Engine, RootJob};
use crate::compiled::CompiledFormula;
use crate::cover::validated_coverage;
use crate::treesat::Hom;

impl Chase<'_> {
    fn absorb(&mut self, counts: OfferCounts) {
        self.dedupe_acc.offers += counts.offers;
        self.dedupe_acc.duplicates += counts.duplicates;
        self.dedupe_acc.iso_checks += counts.iso_checks;
    }

    fn collect_ctx_flags(&mut self) {
        self.timed_out |= self.ctxs.iter().any(|c| c.timed_out);
        self.cancelled |= self.ctxs.iter().any(|c| c.cancelled);
        self.size_cut |= self.ctxs.iter().any(|c| c.size_cut);
    }

    /// Runs Algorithm 1 on `formula` from `seed`/`seed_h` as the top level,
    /// logging accepted instances. A single root is one sequential search
    /// on the first worker context, whatever the thread budget. `observer`
    /// is called with every instance (and its validated coverage and
    /// acceptance timestamp) the moment it enters the log, in the same
    /// deterministic order as the final `accepted` log. Returning `false`
    /// halts the drive (the streaming API's consumer-gone/cancel path).
    pub fn run_root_observed(
        &mut self,
        formula: &CompiledFormula,
        seed: CInstance,
        seed_h: Hom,
        observer: &mut dyn FnMut(&CInstance, Option<&Coverage>, Duration) -> bool,
    ) {
        if self.done {
            return;
        }
        let _root_span = trace::span("root_job", "chase");
        let start = self.start;
        let max = self.cfg.max_results;
        let accepted = &mut self.accepted;
        let mut done = false;
        let mut halted = false;
        let mut engine = Engine {
            query: self.query,
            cfg: self.cfg,
            universal_fresh: self.universal_fresh,
            deadline: self.deadline,
            cancel: self.cancel.as_ref(),
            query_key: self.query_key,
            ctx: &mut self.ctxs[0],
        };
        let counts = engine.search(formula.root(), seed, seed_h, &mut |sat, inst| {
            let coverage = validated_coverage(sat);
            let t = start.elapsed();
            let keep_streaming = observer(inst, coverage.as_ref(), t);
            accepted.push((inst.clone(), coverage, t));
            halted = !keep_streaming;
            done = halted || max.is_some_and(|m| accepted.len() >= m);
            !done
        });
        self.absorb(counts);
        self.done |= done;
        self.halted |= halted;
        self.collect_ctx_flags();
    }

    /// Runs a batch of independent root searches. With a thread budget and
    /// more than one job, whole roots are fanned out across the resident
    /// pool (each searched sequentially on its worker's context) and the
    /// accepted instances are merged in job order — identical output to
    /// running the jobs one by one. `observer` is as for
    /// [`Chase::run_root_observed`]; under job-level fan-out it fires at
    /// the deterministic job-order merge.
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
        let per_job: Vec<(Vec<AcceptedInstance>, OfferCounts)> =
            exec.run(&mut self.ctxs, &jobs, |ctx, _, job| {
                let _job_span = trace::span("root_job", "chase");
                let mut engine = Engine {
                    query,
                    cfg,
                    universal_fresh,
                    deadline,
                    cancel: cancel.as_ref(),
                    query_key,
                    ctx,
                };
                let mut acc: Vec<AcceptedInstance> = Vec::new();
                let (seed, seed_h) = (job.seed.clone(), job.h.clone());
                let counts = engine.search(job.formula.root(), seed, seed_h, &mut |sat, inst| {
                    let coverage = validated_coverage(sat);
                    // Timestamp at the moment of acceptance, not at merge —
                    // the §5.1 interactivity metrics read these.
                    acc.push((inst.clone(), coverage, start.elapsed()));
                    // No single job ever needs more than the global cap.
                    max.is_none_or(|m| acc.len() < m)
                });
                (acc, counts)
            });
        // Deterministic merge: job order, truncated at the global cap
        // exactly where a sequential run would have stopped. (The log stays
        // in job order; timestamps are wall-clock and may interleave across
        // jobs, as they legitimately do.) The observer fires here, at the
        // merge point — job-level fan-out is a batch barrier, unlike the
        // per-instance streaming of a single root's search.
        'merge: for (acc, counts) in per_job {
            self.absorb(counts);
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cqi_drc::{parse_query, Formula, Query};

    use super::*;
    use crate::chase::tests::{schema, FORALL_DISJ};
    use crate::chase::{ChaseCaches, ChaseStats};
    use crate::config::{ChaseConfig, RunControls, Variant};
    use crate::conjtree::conjunctive_trees;
    use proptest::prelude::*;

    /// A root search that keeps meeting renamed copies of instances it
    /// already holds: 14 of its 59 candidates at limit 6 are duplicates.
    const THREE_LIKES: &str = "{ (d1) | forall b1 (not Likes(d1, b1) or exists x1, p1 . \
                               Serves(x1, b1, p1)) and exists b2, b3, b4 (Likes(d1, b2) \
                               and Likes(d1, b3) and Likes(d1, b4)) }";

    /// One chase run: its rendered log with coverage, its stats, and
    /// whether an observer halted it.
    struct Run {
        log: Vec<(String, Option<Coverage>)>,
        stats: ChaseStats,
        halted: bool,
    }

    fn query(src: &str) -> Query {
        parse_query(&schema(), src).unwrap()
    }

    /// Runs one batch of root jobs, one per formula, each from the empty
    /// seed.
    fn run(
        q: &Query,
        formulas: &[Formula],
        cfg: &ChaseConfig,
        observer: &mut dyn FnMut(&CInstance, Option<&Coverage>, Duration) -> bool,
    ) -> Run {
        let compiled: Vec<CompiledFormula> =
            formulas.iter().cloned().map(CompiledFormula::new).collect();
        let mut caches = ChaseCaches::default();
        let mut chase = Chase::new_reusing(q, cfg, true, &RunControls::default(), &mut caches);
        let jobs = compiled
            .iter()
            .map(|f| RootJob {
                formula: f,
                seed: CInstance::new(Arc::clone(&q.schema)),
                h: vec![None; q.vars.len()],
            })
            .collect();
        chase.run_roots_observed(jobs, observer);
        Run {
            log: chase
                .accepted
                .iter()
                .map(|(i, coverage, _)| (format!("{i}"), coverage.clone()))
                .collect(),
            stats: chase.stats(),
            halted: chase.halted,
        }
    }

    fn all(_: &CInstance, _: Option<&Coverage>, _: Duration) -> bool {
        true
    }

    fn counts(st: &ChaseStats) -> (u64, u64, u64) {
        (st.dedupe_offers, st.dedupe_duplicates, st.dedupe_iso_checks)
    }

    #[test]
    fn parallel_matches_sequential() {
        // The batch log is every root's own log, in job order, whatever
        // the thread budget.
        let q = query(FORALL_DISJ);
        let trees = conjunctive_trees(&q.formula);
        assert!(trees.len() > 1, "need a multi-root batch");
        let cfg = ChaseConfig::with_limit(6);
        let mut per_root = Vec::new();
        for tree in &trees {
            per_root.extend(run(&q, std::slice::from_ref(tree), &cfg, &mut all).log);
        }
        let seq = run(&q, &trees, &cfg, &mut all);
        assert!(!seq.log.is_empty());
        assert_eq!(seq.log, per_root, "one batch is its roots run one by one");
        for threads in [2, 3, 4] {
            let par = run(&q, &trees, &cfg.clone().threads(threads), &mut all);
            assert_eq!(par.log, seq.log, "{threads} threads");
            assert_eq!(counts(&par.stats), counts(&seq.stats), "{threads} threads");
        }
    }

    #[test]
    fn parallel_matches_sequential_with_heavy_dedupe() {
        // Every root meets duplicates of its own, and the three roots of
        // the batch chase one formula, so each accepts what the others
        // accept. Each root owns its visited set: concurrent roots never
        // see each other's representatives, and the fan-out absorbs every
        // root's counts once.
        let q = query(THREE_LIKES);
        let cfg = ChaseConfig::with_limit(6);
        let one = run(&q, std::slice::from_ref(&q.formula), &cfg, &mut all);
        let (offers, duplicates, _) = counts(&one.stats);
        assert!(5 * duplicates > offers, "{duplicates} of {offers} offers");
        let thrice = vec![q.formula.clone(); 3];
        let seq = run(&q, &thrice, &cfg, &mut all);
        assert_eq!(seq.log, [&one.log[..], &one.log, &one.log].concat());
        let (o, d, i) = counts(&one.stats);
        assert_eq!(counts(&seq.stats), (3 * o, 3 * d, 3 * i));
        let par = run(&q, &thrice, &cfg.clone().threads(3), &mut all);
        assert_eq!(par.log, seq.log);
        assert_eq!(counts(&par.stats), counts(&seq.stats));
    }

    #[test]
    fn resident_exec_matches_sequential() {
        // The fan-out really goes through the pool: one batch for the
        // whole root set, and its log is still the sequential one. A batch
        // of one root runs inline.
        let q = query(FORALL_DISJ);
        let trees = conjunctive_trees(&q.formula);
        let cfg = ChaseConfig::with_limit(6);
        let seq = run(&q, &trees, &cfg, &mut all);
        assert_eq!(seq.stats.resident_batches, 0);
        let par = run(&q, &trees, &cfg.clone().threads(3), &mut all);
        assert_eq!(par.log, seq.log);
        assert_eq!(par.stats.resident_batches, 1, "roots fan out in one batch");
        let first = &trees[..1];
        let inline = run(&q, first, &cfg.clone().threads(3), &mut all);
        assert_eq!(inline.log, run(&q, first, &cfg, &mut all).log);
        assert_eq!(inline.stats.resident_batches, 0, "one root never fans out");
    }

    #[test]
    fn sink_false_truncates_identically() {
        // An observer that stops the run at the k-th instance leaves the
        // first k entries of the full log, inline and under fan-out, and
        // saw exactly those.
        let q = query(FORALL_DISJ);
        let trees = conjunctive_trees(&q.formula);
        for threads in [1, 2] {
            let cfg = ChaseConfig::with_limit(6).threads(threads);
            let full = run(&q, &trees, &cfg, &mut all);
            assert!(!full.halted && full.log.len() > 2);
            for k in 1..=full.log.len() {
                let mut seen = Vec::new();
                let cut = run(&q, &trees, &cfg, &mut |i, coverage, _| {
                    seen.push((format!("{i}"), coverage.cloned()));
                    seen.len() < k
                });
                assert!(cut.halted);
                assert_eq!(cut.log, full.log[..k], "k = {k}, {threads} threads");
                assert_eq!(seen, cut.log);
            }
        }
    }

    /// The streaming contract: a root searched inline hands each instance
    /// to the observer as the search accepts it, not in one batch when the
    /// search ends. So an observer that stops at the first instance stops
    /// the search there, after fewer offers to its visited set than the
    /// full search makes.
    #[test]
    fn sink_flushes_per_wave_not_at_drive_end() {
        let q = query(THREE_LIKES);
        let root = std::slice::from_ref(&q.formula);
        let cfg = ChaseConfig::with_limit(6);
        let full = run(&q, root, &cfg, &mut all);
        assert!(full.log.len() > 1, "need a multi-instance search");
        let first = run(&q, root, &cfg, &mut |_, _, _| false);
        assert_eq!(first.log, full.log[..1]);
        assert!(
            first.stats.dedupe_offers < full.stats.dedupe_offers,
            "the search must stop at the first instance ({} vs {} offers)",
            first.stats.dedupe_offers,
            full.stats.dedupe_offers
        );
    }

    /// The schema of the stream property: the test schema with `Serves`
    /// keyed by (bar, beer).
    fn keyed_schema() -> Arc<cqi_schema::Schema> {
        use cqi_schema::DomainType;
        Arc::new(
            cqi_schema::Schema::builder()
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
                .key("Serves", &["bar", "beer"])
                .build()
                .unwrap(),
        )
    }

    /// A feature-covering query pool: joins, comparisons, disjunction,
    /// universals with negation (NotIn conditions), LIKE, and constants.
    const QUERIES: [&str; 6] = [
        "{ (b1) | exists d1 (Likes(d1, b1)) }",
        "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
        "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
        "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
        "{ (d1) | exists b1 (Likes(d1, b1)) and d1 like 'Eve%' }",
        "{ (x1, b1) | exists p1 . Serves(x1, b1, p1) and forall p2, x2 (not Serves(x2, b1, p2) or p2 <= p1) }",
    ];

    fn pick<T: Copy>(xs: &[T], i: u64) -> T {
        xs[(i as usize) % xs.len()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The raw accepted stream of a whole run — every root job of a
        /// variant, `max_results` cuts included — is byte-identical between
        /// thread budgets, instance by instance, in order: the strongest
        /// form of the determinism guarantee. The parallel run fans its
        /// root jobs out over the resident pool [`Chase::new_reusing`]
        /// spawns, so worker hand-off and the job-order merge are on the
        /// tested path.
        #[test]
        fn parallel_accepted_stream_is_byte_identical(
            qi in any::<u64>(),
            vi in any::<u64>(),
            li in any::<u64>(),
            ti in any::<u64>(),
            cap in any::<u64>(),
        ) {
            let s = keyed_schema();
            let src = QUERIES[(qi as usize) % QUERIES.len()];
            let q = parse_query(&s, src).unwrap();
            let variant = pick(&Variant::ALL, vi);
            let limit = 4 + (li as usize) % 3; // 4..=6
            let threads = pick(&[2usize, 4], ti);
            let max_results = match cap % 4 {
                0 => Some(1),
                1 => Some(3),
                _ => None,
            };
            let formulas: Vec<CompiledFormula> = if variant.is_conjunctive() {
                conjunctive_trees(&q.formula)
            } else {
                vec![q.formula.clone()]
            }
            .into_iter()
            .map(CompiledFormula::new)
            .collect();
            let run = |cfg: &ChaseConfig| -> Vec<String> {
                let mut caches = ChaseCaches::default();
                let fresh = variant.universal_fresh_nulls();
                let mut chase =
                    Chase::new_reusing(&q, cfg, fresh, &RunControls::default(), &mut caches);
                chase.run_roots_observed(
                    formulas
                        .iter()
                        .map(|f| RootJob {
                            formula: f,
                            seed: CInstance::new(Arc::clone(&s)),
                            h: vec![None; q.vars.len()],
                        })
                        .collect(),
                    &mut all,
                );
                chase.accepted.iter().map(|(i, ..)| format!("{i}")).collect()
            };
            let mut seq_cfg = ChaseConfig::with_limit(limit);
            seq_cfg.max_results = max_results;
            let mut par_cfg = ChaseConfig::with_limit(limit).threads(threads);
            par_cfg.max_results = max_results;
            let seq = run(&seq_cfg);
            let par = run(&par_cfg);
            prop_assert_eq!(
                seq, par,
                "{} {} limit={} threads={} cap={:?}",
                src, variant, limit, threads, max_results
            );
        }
    }
}
