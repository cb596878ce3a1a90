//! Property tests for the parallel chase runtime: for random queries,
//! variants, limits, key enforcement, and thread budgets, root-job
//! fan-out must produce *identical* results to a sequential run — the
//! same accepted-instance stream (rendered bytes and all) and the same
//! minimal c-solution.

use std::collections::BTreeMap;
use std::sync::Arc;

use cqi_core::chase::{Chase, ChaseCaches, RootJob};
use cqi_core::compiled::CompiledFormula;
use cqi_core::conjtree::conjunctive_trees;
use cqi_core::{run_variant, ChaseConfig, Variant};
use cqi_drc::{parse_query, SyntaxTree};
use cqi_instance::CInstance;
use cqi_schema::{DomainType, Schema};
use proptest::prelude::*;

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

/// Canonical rendering of a solution for comparison: coverage → (size,
/// pretty-printed instance), plus the aggregate counters. Ordering by
/// acceptance timestamp is the one legitimately wall-clock-dependent part
/// of a `CSolution`, so the map is keyed by coverage instead.
fn render(sol: &cqi_core::CSolution) -> (usize, usize, BTreeMap<Vec<u32>, (usize, String)>) {
    let mut by_cov = BTreeMap::new();
    for si in &sol.instances {
        let cov: Vec<u32> = si.coverage.iter().map(|l| l.0).collect();
        by_cov.insert(cov, (si.size(), format!("{}", si.inst)));
    }
    (sol.raw_accepted, sol.num_coverages(), by_cov)
}

fn pick<T: Copy>(xs: &[T], i: u64) -> T {
    xs[(i as usize) % xs.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `run_variant` with a parallel config returns the same c-solution as
    /// the sequential default, across variants, limits, key enforcement,
    /// and thread budgets. Multi-thread runs fan their root jobs
    /// out over a resident pool, each worker with its own memos — so this
    /// property also pins per-worker memo state to the sequential baseline.
    #[test]
    fn parallel_run_variant_matches_sequential(
        qi in any::<u64>(),
        vi in any::<u64>(),
        li in any::<u64>(),
        keys in any::<bool>(),
        ti in any::<u64>(),
    ) {
        let s = schema();
        let src = QUERIES[(qi as usize) % QUERIES.len()];
        let variant = pick(&Variant::ALL, vi);
        let limit = 4 + (li as usize) % 4; // 4..=7
        let threads = pick(&[0usize, 2, 3, 4], ti);
        let tree = SyntaxTree::new(parse_query(&s, src).unwrap());
        let seq_cfg = ChaseConfig::with_limit(limit).enforce_keys(keys);
        let par_cfg = ChaseConfig::with_limit(limit)
            .enforce_keys(keys)
            .threads(threads);
        let seq = run_variant(&tree, variant, &seq_cfg);
        let par = run_variant(&tree, variant, &par_cfg);
        prop_assert_eq!(
            render(&seq),
            render(&par),
            "{} {} limit={} keys={} threads={}",
            src, variant, limit, keys, threads
        );
    }

    /// The raw accepted stream of a whole run — every root job of a
    /// variant, `max_results` cuts included — is byte-identical between
    /// thread budgets, instance by instance, in order: the strongest form
    /// of the determinism guarantee. The parallel run fans its root jobs
    /// out over the resident pool [`Chase::new_reusing`] spawns, so worker
    /// hand-off and the job-order merge are on the tested path.
    #[test]
    fn parallel_accepted_stream_is_byte_identical(
        qi in any::<u64>(),
        vi in any::<u64>(),
        li in any::<u64>(),
        ti in any::<u64>(),
        cap in any::<u64>(),
    ) {
        let s = schema();
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
            let mut chase =
                Chase::new_reusing(&q, cfg, variant.universal_fresh_nulls(), &mut ChaseCaches::new());
            chase.run_roots(
                formulas
                    .iter()
                    .map(|f| RootJob {
                        formula: f,
                        seed: CInstance::new(Arc::clone(&s)),
                        h: vec![None; q.vars.len()],
                    })
                    .collect(),
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
