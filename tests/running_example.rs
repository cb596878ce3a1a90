//! Integration test: the paper's running example (§1, Figs. 1–7) across the
//! whole pipeline — schema, parsing, difference, chase, coverage,
//! consistency, grounding, and ground evaluation.

use std::time::Duration;

use cqi_core::{coverage_of_cinstance, tree_sat, ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::{beers_k0, beers_schema, user_study_queries};
use cqi_drc::SyntaxTree;
use cqi_instance::ground_instance;

/// A session over the Beers schema at `limit`, with keys on.
fn keyed_session(limit: usize) -> Session {
    Session::new(beers_schema()).config(ChaseConfig::with_limit(limit).enforce_keys(true))
}

fn qb_minus_qa() -> cqi_drc::Query {
    let us = user_study_queries();
    us[0].2.difference(&us[0].1).expect("compatible")
}

#[test]
fn k0_is_a_counterexample() {
    // Fig. 1/Example 2: K0 satisfies QB − QA with output
    // (Restaurante Raffaele, American Pale Ale).
    let schema = beers_schema();
    let diff = qb_minus_qa();
    let k0 = beers_k0(&schema);
    let res = cqi_eval::evaluate(&diff, &k0);
    assert_eq!(res.len(), 1);
    assert!(res.contains(&vec![
        "Restaurante Raffaele".into(),
        "American Pale Ale".into()
    ]));
}

#[test]
fn k0_coverage_misses_the_two_negated_drinker_leaves() {
    // Example 6/Fig. 5: all leaves except ¬Likes(d2,b1) and
    // ¬(d2 LIKE 'Eve %') are covered by K0.
    let schema = beers_schema();
    let diff = qb_minus_qa();
    let k0 = beers_k0(&schema);
    let cov = cqi_eval::coverage_of_ground(&diff, &k0);
    let total = SyntaxTree::new(diff).num_leaves();
    assert_eq!(total, 10);
    assert_eq!(cov.len(), 8);
}

#[test]
fn chase_finds_i1_shape_at_limit_10() {
    // Fig. 6: a size-10 satisfying c-instance with the ¬(d1 LIKE 'Eve %')
    // condition exists and is found by Disj-EO.
    let diff = qb_minus_qa();
    let tree = SyntaxTree::new(diff);
    let sol = keyed_session(10)
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjEO)
                .deadline(Duration::from_secs(60)),
        )
        .unwrap();
    assert!(!sol.instances.is_empty(), "I1 should be found");
    let i1 = &sol.instances[0];
    assert_eq!(i1.size(), 10);
    let g = i1.inst.global_string();
    assert!(g.contains("Eve%"), "{g}");
    assert!(g.contains("not") && g.contains("Eve %"), "{g}");
    // I1 covers 9 of the 10 leaves: everything except ¬Likes(d2, b1)
    // (covering that one needs a second drinker, as in the paper's I2).
    assert_eq!(i1.coverage.len(), 9);
}

#[test]
fn found_instances_satisfy_and_ground_correctly() {
    // Soundness end to end: every returned c-instance satisfies the
    // difference query symbolically (Tree-SAT) *and* its grounded possible
    // world satisfies it concretely (ground evaluation).
    let us = user_study_queries();
    let (qa, qb) = (&us[0].1, &us[0].2);
    let diff = qb.difference(qa).unwrap();
    let tree = SyntaxTree::new(diff.clone());
    let sol = keyed_session(10)
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjAdd)
                .deadline(Duration::from_secs(60)),
        )
        .unwrap();
    assert!(!sol.instances.is_empty());
    for si in &sol.instances {
        assert!(tree_sat(&diff, &si.inst));
        let g = ground_instance(&si.inst, true).expect("consistent");
        assert!(
            cqi_eval::satisfies(&diff, &g),
            "grounded world must satisfy QB − QA:\n{g}"
        );
        // And it really is a counterexample: QB and QA disagree.
        assert_ne!(cqi_eval::evaluate(qb, &g), cqi_eval::evaluate(qa, &g));
    }
}

#[test]
fn i0_shape_appears_at_limit_13() {
    // Fig. 4: the three-bar price-chain instance I0. The paper's I0 has
    // size 12; our chase validates acceptance under the current
    // homomorphism (see DESIGN.md), which makes its I0-shaped instance
    // carry one extra LIKE condition — it appears at limit 13.
    let diff = qb_minus_qa();
    let tree = SyntaxTree::new(diff);
    let sol = keyed_session(13)
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjAdd)
                .deadline(Duration::from_secs(120)),
        )
        .unwrap();
    let has_three_serves = sol.instances.iter().any(|si| {
        let serves = si.inst.schema.rel_id("Serves").unwrap();
        si.inst.tables[serves.index()].len() == 3
    });
    assert!(
        has_three_serves,
        "a three-Serves-row instance (I0's shape) should appear at limit 13; got {} instances",
        sol.instances.len()
    );
    assert!(
        sol.num_coverages() >= 2,
        "I0 and I1 have different coverages"
    );
}

#[test]
fn coverage_is_consistent_between_definitions() {
    // The constructive c-instance coverage must be a subset of the ground
    // coverage of each grounded possible world (Definition 8: the
    // c-instance coverage is the *common* coverage of its worlds).
    let diff = qb_minus_qa();
    let tree = SyntaxTree::new(diff.clone());
    let sol = keyed_session(10)
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjEO)
                .deadline(Duration::from_secs(60)),
        )
        .unwrap();
    for si in &sol.instances {
        let sym = coverage_of_cinstance(&diff, &si.inst);
        let g = ground_instance(&si.inst, true).unwrap();
        let ground_cov = cqi_eval::coverage_of_ground(&diff, &g);
        for leaf in &sym {
            assert!(
                ground_cov.contains(leaf),
                "leaf {leaf:?} covered symbolically but not in the world:\n{g}"
            );
        }
    }
}
