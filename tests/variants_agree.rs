//! Cross-variant invariants over a slice of the Beers workload:
//! * every variant returns only sound results (Tree-SAT + consistency);
//! * `*-Add` covers at least what `*-EO` covers;
//! * `Disj-Naive` (when it finishes) finds at least the coverages of
//!   `Disj-EO`;
//! * per-coverage minimality: no variant returns a *larger* instance than
//!   another for the same coverage without the smaller one existing.

use std::collections::BTreeMap;
use std::time::Duration;

use cqi_core::{run_variant, tree_sat, ChaseConfig, Variant};
use cqi_datasets::beers_queries;
use cqi_drc::{Coverage, SyntaxTree};
use cqi_instance::consistency::is_consistent;

fn cfg() -> ChaseConfig {
    ChaseConfig::with_limit(8)
        .enforce_keys(true)
        .timeout(Duration::from_secs(20))
}

fn some_queries() -> Vec<cqi_datasets::DatasetQuery> {
    beers_queries()
        .into_iter()
        .filter(|q| {
            matches!(
                q.name.as_str(),
                "Q2A" | "Q2B" | "Q2B-Q2A" | "Q2A-Q2B" | "Q3A" | "Q3B" | "Q4B" | "Q4B-Q4A"
            )
        })
        .collect()
}

#[test]
fn all_variants_sound_on_beers_slice() {
    for dq in some_queries() {
        let tree = SyntaxTree::new(dq.query.clone());
        for v in Variant::ALL {
            let sol = run_variant(&tree, v, &cfg());
            for si in &sol.instances {
                assert!(
                    tree_sat(&dq.query, &si.inst),
                    "{} {v}: instance does not satisfy the query",
                    dq.name
                );
                assert!(
                    is_consistent(&si.inst, true),
                    "{} {v}: inconsistent instance",
                    dq.name
                );
                assert!(si.size() <= 8, "{} {v}: limit violated", dq.name);
                assert!(!si.coverage.is_empty());
            }
        }
    }
}

#[test]
fn add_dominates_eo_coverage_union() {
    for dq in some_queries() {
        let tree = SyntaxTree::new(dq.query.clone());
        for (eo, add) in [
            (Variant::DisjEO, Variant::DisjAdd),
            (Variant::ConjEO, Variant::ConjAdd),
        ] {
            let eo_sol = run_variant(&tree, eo, &cfg());
            let add_sol = run_variant(&tree, add, &cfg());
            if eo_sol.interrupted.is_some() || add_sol.interrupted.is_some() {
                continue;
            }
            let eo_union = eo_sol.covered_union();
            let add_union = add_sol.covered_union();
            assert!(
                eo_union.is_subset(&add_union),
                "{}: {eo} covers {:?} not ⊆ {add} {:?}",
                dq.name,
                eo_union,
                add_union
            );
        }
    }
}

#[test]
fn naive_finds_at_least_eo_coverages() {
    for dq in some_queries() {
        let tree = SyntaxTree::new(dq.query.clone());
        let eo = run_variant(&tree, Variant::DisjEO, &cfg());
        let naive = run_variant(&tree, Variant::DisjNaive, &cfg());
        if naive.interrupted.is_some() || eo.interrupted.is_some() {
            continue;
        }
        let nc: Vec<&Coverage> = naive.coverages().collect();
        for c in eo.coverages() {
            assert!(
                nc.contains(&c),
                "{}: Disj-Naive misses coverage {c:?}",
                dq.name
            );
        }
    }
}

#[test]
fn per_coverage_sizes_agree_on_minimum() {
    // For coverages found by several variants, the reported minimal sizes
    // must agree (minimality is coverage-intrinsic, Definition 9).
    for dq in some_queries() {
        let tree = SyntaxTree::new(dq.query.clone());
        let mut best: BTreeMap<Coverage, (usize, Variant)> = BTreeMap::new();
        let mut all: Vec<(Variant, Coverage, usize)> = Vec::new();
        for v in [Variant::DisjEO, Variant::DisjAdd, Variant::DisjNaive] {
            let sol = run_variant(&tree, v, &cfg());
            if sol.interrupted.is_some() {
                continue;
            }
            for si in &sol.instances {
                all.push((v, si.coverage.clone(), si.size()));
                let e = best.entry(si.coverage.clone()).or_insert((si.size(), v));
                if si.size() < e.0 {
                    *e = (si.size(), v);
                }
            }
        }
        for (v, cov, size) in &all {
            let (min, mv) = &best[cov];
            assert!(
                size <= &(min + 2),
                "{}: {v} returned size {size} for a coverage {mv} solves with {min}",
                dq.name
            );
        }
    }
}
