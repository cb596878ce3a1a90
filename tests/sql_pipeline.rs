//! Integration test: SQL front-end → DRC → chase → grounding, plus
//! SQL-vs-DRC semantic agreement on the running example's data.

use std::time::Duration;

use cqi_core::{cq_neg_universal_solution, ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::{beers_k0, beers_schema};
use cqi_drc::SyntaxTree;
use cqi_instance::ground_instance;
use cqi_sql::sql_to_drc;

/// A session over the Beers schema at `limit`, with keys on.
fn keyed_session(limit: usize) -> Session {
    Session::new(beers_schema()).config(ChaseConfig::with_limit(limit).enforce_keys(true))
}

#[test]
fn fig9_sql_queries_agree_with_fig2_drc_on_k0() {
    let s = beers_schema();
    let k0 = beers_k0(&s);
    let qa_sql = sql_to_drc(
        &s,
        "SELECT s.bar, s.beer FROM Likes l, Serves s \
         WHERE l.drinker LIKE 'Eve %' AND l.beer = s.beer \
         AND NOT EXISTS (SELECT * FROM Serves WHERE beer = s.beer AND price > s.price)",
    )
    .unwrap();
    let qb_sql = sql_to_drc(
        &s,
        "SELECT S1.bar, S1.beer FROM Likes L, Serves S1, Serves S2 \
         WHERE L.drinker LIKE 'Eve%' AND L.beer = S1.beer AND L.beer = S2.beer \
         AND S1.price > S2.price",
    )
    .unwrap();
    // QA returns Tadim only; QB returns Tadim and Restaurante Raffaele.
    let ra = cqi_eval::evaluate(&qa_sql, &k0);
    assert_eq!(ra.len(), 1);
    assert!(ra.contains(&vec!["Tadim".into(), "American Pale Ale".into()]));
    let rb = cqi_eval::evaluate(&qb_sql, &k0);
    assert_eq!(rb.len(), 2);
}

#[test]
fn sql_except_chases_to_counterexamples() {
    // EXCEPT builds the difference query directly in SQL.
    let s = beers_schema();
    let diff = sql_to_drc(
        &s,
        "SELECT S1.bar, S1.beer FROM Likes L, Serves S1, Serves S2 \
         WHERE L.drinker LIKE 'Eve%' AND L.beer = S1.beer AND L.beer = S2.beer \
         AND S1.price > S2.price \
         EXCEPT \
         SELECT s.bar, s.beer FROM Likes l, Serves s \
         WHERE l.drinker LIKE 'Eve %' AND l.beer = s.beer \
         AND NOT EXISTS (SELECT * FROM Serves WHERE beer = s.beer AND price > s.price)",
    )
    .unwrap();
    let tree = SyntaxTree::new(diff.clone());
    let sol = keyed_session(10)
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjEO)
                .deadline(Duration::from_secs(60)),
        )
        .unwrap();
    assert!(
        !sol.instances.is_empty(),
        "the SQL EXCEPT query is satisfiable"
    );
    let g = ground_instance(&sol.instances[0].inst, true).unwrap();
    assert!(cqi_eval::satisfies(&diff, &g));
}

#[test]
fn sql_cq_neg_takes_the_fast_path() {
    // QB is a conjunctive query: Proposition 3.1(1) applies and the
    // universal solution is a single c-instance covering all leaves.
    let s = beers_schema();
    let qb = sql_to_drc(
        &s,
        "SELECT S1.bar, S1.beer FROM Likes L, Serves S1, Serves S2 \
         WHERE L.drinker LIKE 'Eve%' AND L.beer = S1.beer AND L.beer = S2.beer \
         AND S1.price > S2.price",
    )
    .unwrap();
    assert!(qb.is_cq_neg());
    let tree = SyntaxTree::new(qb);
    let sol = cq_neg_universal_solution(&tree, true).expect("CQ¬ fast path applies");
    assert_eq!(sol.instances.len(), 1);
    assert_eq!(
        sol.instances[0].coverage.len(),
        tree.num_leaves(),
        "single instance covers every leaf"
    );
    // And it agrees with the chase run on the same tree.
    let chased = keyed_session(14)
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::ConjAdd)
                .deadline(Duration::from_secs(30)),
        )
        .unwrap();
    assert!(chased.coverages().any(|c| c.len() == tree.num_leaves()));
}

#[test]
fn explicit_join_on_chases_like_the_comma_form() {
    // `JOIN ... ON` and the comma-product form must produce the same
    // minimal c-solution, and the joined query must chase to satisfying,
    // groundable instances.
    let s = beers_schema();
    let joined = sql_to_drc(
        &s,
        "SELECT S1.bar, S1.beer FROM Likes L \
         JOIN Serves S1 ON L.beer = S1.beer \
         JOIN Serves S2 ON L.beer = S2.beer \
         WHERE S1.price > S2.price",
    )
    .unwrap();
    let comma = sql_to_drc(
        &s,
        "SELECT S1.bar, S1.beer FROM Likes L, Serves S1, Serves S2 \
         WHERE L.beer = S1.beer AND L.beer = S2.beer AND S1.price > S2.price",
    )
    .unwrap();
    let a = keyed_session(8)
        .explain_collect(
            ExplainRequest::tree(&SyntaxTree::new(joined.clone()))
                .variant(Variant::ConjAdd)
                .deadline(Duration::from_secs(30)),
        )
        .unwrap();
    let b = keyed_session(8)
        .explain_collect(
            ExplainRequest::tree(&SyntaxTree::new(comma))
                .variant(Variant::ConjAdd)
                .deadline(Duration::from_secs(30)),
        )
        .unwrap();
    assert!(!a.instances.is_empty());
    assert_eq!(a.num_coverages(), b.num_coverages());
    let g = ground_instance(&a.instances[0].inst, true).unwrap();
    assert!(!cqi_eval::evaluate(&joined, &g).is_empty());
}

#[test]
fn qualified_star_pipeline() {
    // SELECT s.* exposes exactly Serves' columns; the chase still finds
    // counterexample instances for it.
    let s = beers_schema();
    let q = sql_to_drc(
        &s,
        "SELECT s.* FROM Serves s JOIN Likes l ON l.beer = s.beer \
         WHERE s.price > 3.0",
    )
    .unwrap();
    assert_eq!(q.out_vars.len(), 3);
    let sol = keyed_session(6)
        .explain_collect(
            ExplainRequest::tree(&SyntaxTree::new(q.clone()))
                .variant(Variant::DisjEO)
                .deadline(Duration::from_secs(30)),
        )
        .unwrap();
    assert!(!sol.instances.is_empty());
    let g = ground_instance(&sol.instances[0].inst, true).unwrap();
    assert!(cqi_eval::satisfies(&q, &g));
}

#[test]
fn user_study_q2_wrong_vs_correct() {
    // Table 3's Q2: the wrong query selects beers at 'Edge'; the correct
    // query selects drinkers frequenting 'The Edge' not liking 'Erdinger'.
    let s = beers_schema();
    let wrong = sql_to_drc(
        &s,
        "SELECT DISTINCT S.beer FROM Serves S, Likes L \
         WHERE S.bar = 'Edge' AND S.beer = L.beer AND L.drinker <> 'Richard'",
    )
    .unwrap();
    let correct = cqi_drc::parse_query(
        &s,
        "{ (d1) | exists t1 (Frequents(d1, 'The Edge', t1)) and exists a1 (Drinker(d1, a1)) \
         and not Likes(d1, 'Erdinger') }",
    )
    .unwrap();
    let diff = wrong.difference(&correct).unwrap();
    let tree = SyntaxTree::new(diff.clone());
    let sol = keyed_session(10)
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjAdd)
                .deadline(Duration::from_secs(60)),
        )
        .unwrap();
    assert!(!sol.instances.is_empty(), "the two queries differ");
    let g = ground_instance(&sol.instances[0].inst, true).unwrap();
    assert_ne!(
        cqi_eval::evaluate(&wrong, &g),
        cqi_eval::evaluate(&correct, &g)
    );
}
