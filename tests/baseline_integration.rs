//! Integration test: the baselines against the core system — RATest ground
//! counterexamples fall inside the represented worlds the chase describes,
//! and the Cosette-style mode distinguishes the workload's query pairs.

use std::time::Duration;

use cqi_baseline::{cosette, generate_database, minimal_counterexample, ratest};
use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::{beers_queries, beers_schema, user_study_queries, QueryKind};
use cqi_drc::SyntaxTree;

#[test]
fn ratest_finds_counterexamples_for_workload_pairs() {
    // Every wrong query disagrees with its standard query on some
    // generated database (that is what made them "wrong" submissions).
    let s = beers_schema();
    let qs = beers_queries();
    let mut found = 0;
    let mut tried = 0;
    for dq in qs.iter().filter(|q| q.kind == QueryKind::Wrong) {
        let std_name = format!("{}A", &dq.name[..dq.name.len() - 1]);
        let Some(std_q) = qs.iter().find(|q| q.name == std_name) else {
            continue;
        };
        tried += 1;
        if let Some(ce) = ratest(&s, &std_q.query, &dq.query, 40) {
            found += 1;
            assert_ne!(
                cqi_eval::evaluate(&std_q.query, &ce),
                cqi_eval::evaluate(&dq.query, &ce),
                "{}",
                dq.name
            );
            // 1-minimality.
            for (rel, tuple) in ce.all_tuples() {
                let mut cand = ce.clone();
                cand.remove(rel, &tuple);
                assert_eq!(
                    cqi_eval::evaluate(&std_q.query, &cand),
                    cqi_eval::evaluate(&dq.query, &cand),
                    "{}: counterexample not minimal",
                    dq.name
                );
            }
        }
    }
    assert!(
        found * 2 >= tried,
        "RATest should separate at least half the pairs ({found}/{tried})"
    );
}

#[test]
fn ratest_counterexample_is_in_some_represented_world() {
    // §5.2: "the ground instance by [41] is in the represented world of
    // the first c-instance" — the RATest counterexample must satisfy the
    // difference query, which every chase instance characterizes.
    let us = user_study_queries();
    let (qa, qb) = (&us[0].1, &us[0].2);
    let s = beers_schema();
    let ce = ratest(&s, qa, qb, 60).expect("counterexample exists");
    let diff_ab = qb.difference(qa).unwrap();
    let diff_ba = qa.difference(qb).unwrap();
    assert!(
        cqi_eval::satisfies(&diff_ab, &ce) || cqi_eval::satisfies(&diff_ba, &ce),
        "counterexample must witness one difference direction"
    );
}

#[test]
fn cosette_mode_agrees_with_chase() {
    let s = beers_schema();
    let q_all = cqi_drc::parse_query(&s, "{ (b1) | exists r1 (Beer(b1, r1)) }").unwrap();
    let q_some = cqi_drc::parse_query(
        &s,
        "{ (b1) | exists r1 (Beer(b1, r1)) and exists d1 (Likes(d1, b1)) }",
    )
    .unwrap();
    let ce = cosette(&q_all, &q_some, 6, Duration::from_secs(30))
        .unwrap()
        .expect("strict containment is witnessed");
    assert_ne!(
        cqi_eval::evaluate(&q_all, &ce),
        cqi_eval::evaluate(&q_some, &ce)
    );
}

#[test]
fn generated_databases_respect_beers_constraints() {
    let s = beers_schema();
    for seed in 0..6 {
        let db = generate_database(&s, 10, seed);
        assert!(db.satisfies_keys(), "seed {seed}");
        assert!(db.satisfies_foreign_keys(), "seed {seed}");
    }
}

#[test]
fn chase_and_ratest_agree_on_satisfiability() {
    // If the chase finds a difference instance, RATest should too (given
    // enough seeds), and vice versa for this pair.
    let us = user_study_queries();
    let (qa, qb) = (&us[0].1, &us[0].2);
    let diff = qb.difference(qa).unwrap();
    let tree = SyntaxTree::new(diff);
    let chased = Session::new(tree.query().schema.clone())
        .config(ChaseConfig::with_limit(10).enforce_keys(true))
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjEO)
                .deadline(Duration::from_secs(30)),
        )
        .unwrap();
    let s = beers_schema();
    let ground = ratest(&s, qa, qb, 60);
    assert_eq!(
        chased.instances.is_empty(),
        ground.is_none(),
        "chase and RATest disagree about whether the queries differ"
    );
}

#[test]
fn minimal_counterexample_none_for_equivalent_queries() {
    let s = beers_schema();
    let q = cqi_drc::parse_query(&s, "{ (b1) | exists r1 (Beer(b1, r1)) }").unwrap();
    let db = generate_database(&s, 8, 3);
    assert!(minimal_counterexample(&q, &q, &db).is_none());
}
