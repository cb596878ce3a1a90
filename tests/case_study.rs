//! Integration test: the case study of §5.2 (Table 2) — the Q2 pair about
//! drinkers frequenting only bars that serve a beer they like.

use std::time::Duration;

use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::beers_schema;
use cqi_drc::{parse_query, Query, SyntaxTree};
use cqi_instance::{ground_instance, Cond};

fn q2_pair() -> (Query, Query) {
    let s = beers_schema();
    let correct = parse_query(
        &s,
        "{ (d1) | exists a1 (Drinker(d1, a1) and forall x1 (forall t1 (not Frequents(d1, x1, t1) \
         or exists b1, p1 (Serves(x1, b1, p1) and Likes(d1, b1))))) }",
    )
    .unwrap()
    .with_label("Q2A");
    let wrong = parse_query(
        &s,
        "{ (d1) | exists a1 (Drinker(d1, a1) and forall b1 ((forall t1, x1, p1 (not Frequents(d1, x1, t1) \
         or not Serves(x1, b1, p1))) or Likes(d1, b1))) }",
    )
    .unwrap()
    .with_label("Q2B");
    (correct, wrong)
}

fn solve(limit: usize) -> cqi_core::CSolution {
    let (correct, wrong) = q2_pair();
    let diff = wrong.difference(&correct).unwrap();
    let tree = SyntaxTree::new(diff);
    Session::new(tree.query().schema.clone())
        .config(ChaseConfig::with_limit(limit).enforce_keys(true))
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjAdd)
                .deadline(Duration::from_secs(90)),
        )
        .unwrap()
}

#[test]
fn universal_solution_has_multiple_facets() {
    // Table 2 lists seven c-instances for Q2B − Q2A; our representation
    // differs in detail, but the solution must expose at least three
    // distinct coverages (the paper's "different perspectives").
    let sol = solve(10);
    assert!(
        sol.num_coverages() >= 3,
        "expected ≥ 3 facets, got {}",
        sol.num_coverages()
    );
}

#[test]
fn some_facet_shows_frequents_without_serves() {
    // Table 2's first/third instances: a drinker frequents a bar that
    // serves nothing — the Frequents/Serves disconnection. Concretely:
    // some returned instance has a Frequents row but no Serves row.
    let sol = solve(10);
    let s = beers_schema();
    let frequents = s.rel_id("Frequents").unwrap();
    let serves = s.rel_id("Serves").unwrap();
    assert!(
        sol.instances.iter().any(|si| {
            !si.inst.tables[frequents.index()].is_empty()
                && si.inst.tables[serves.index()].is_empty()
        }),
        "missing the Frequents-without-Serves facet"
    );
}

#[test]
fn some_facet_uses_negative_conditions() {
    // Table 2's 2nd/5th/6th instances carry ¬Frequents or ¬Likes
    // conditions.
    let sol = solve(10);
    assert!(
        sol.instances.iter().any(|si| si
            .inst
            .global
            .iter()
            .any(|c| matches!(c, Cond::NotIn { .. }))),
        "missing a facet with explicit negated relational conditions"
    );
}

#[test]
fn every_facet_is_a_true_counterexample() {
    let (correct, wrong) = q2_pair();
    let sol = solve(10);
    assert!(!sol.instances.is_empty());
    for si in &sol.instances {
        let g = ground_instance(&si.inst, true).expect("consistent");
        let cr = cqi_eval::evaluate(&correct, &g);
        let wr = cqi_eval::evaluate(&wrong, &g);
        assert_ne!(cr, wr, "facet must separate the queries:\n{g}");
    }
}

#[test]
fn ratest_ground_example_is_less_informative() {
    // §5.2's comparison: the RATest counterexample is a single ground
    // instance; the universal solution has strictly more facets than one.
    let s = beers_schema();
    let (correct, wrong) = q2_pair();
    let ce = cqi_baseline::ratest(&s, &correct, &wrong, 60).expect("RATest finds a counterexample");
    assert!(ce.num_tuples() >= 2);
    let sol = solve(10);
    assert!(sol.num_coverages() > 1);
}
