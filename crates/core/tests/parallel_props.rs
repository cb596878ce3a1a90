//! Property test for the parallel chase runtime: for random queries,
//! variants, limits, key enforcement, and thread budgets, root-job
//! fan-out must produce the same minimal c-solution as a sequential run.
//! (The byte-identical accepted stream is a property of the crate's
//! `scheduler` tests, which see the engine.)

use std::collections::BTreeMap;
use std::sync::Arc;

use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_drc::{parse_query, SyntaxTree};
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

    /// A session with a parallel config returns the same c-solution as one
    /// with the sequential default, across variants, limits, key
    /// enforcement, and thread budgets. Multi-thread runs fan their root
    /// jobs out over a resident pool, each worker with its own memos — so
    /// this property also pins per-worker memo state to the sequential
    /// baseline.
    #[test]
    fn parallel_session_matches_sequential(
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
        let explain = |cfg: ChaseConfig| {
            Session::new(Arc::clone(&s))
                .config(cfg)
                .explain_collect(ExplainRequest::tree(&tree).variant(variant))
                .unwrap()
        };
        let seq = explain(seq_cfg);
        let par = explain(par_cfg);
        prop_assert_eq!(
            render(&seq),
            render(&par),
            "{} {} limit={} keys={} threads={}",
            src, variant, limit, keys, threads
        );
    }
}
