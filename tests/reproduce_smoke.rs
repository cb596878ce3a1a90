//! Smoke test for the experiment harness: exercises the `reproduce table1`
//! and `reproduce cqneg` code paths in-process with tiny limits, asserting
//! the output *structures* are populated. This keeps the bench harness from
//! bit-rotting without paying for a full figure reproduction in CI.

use std::time::Duration;

use cqi_core::{cq_neg_universal_solution, ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::{beers_queries, beers_schema, dataset_stats, tpch_queries};
use cqi_drc::SyntaxTree;
use cqi_sql::sql_to_drc;

/// The `reproduce table1` path: dataset statistics for both workloads.
#[test]
fn table1_dataset_stats_are_populated() {
    for (name, qs, paper_count) in [
        ("Beers", beers_queries(), 35),
        ("TPC-H", tpch_queries(), 28),
    ] {
        let s = dataset_stats(&qs);
        assert_eq!(s.num_queries, paper_count, "{name}: query count");
        assert!(s.mean_atoms > 0.0, "{name}: mean atoms");
        assert!(s.mean_quantifiers > 0.0, "{name}: mean quantifiers");
        assert!(s.mean_height > 0.0, "{name}: mean height");
        assert!(
            s.paper_mean_quantifiers > 0.0 && s.paper_mean_height > 0.0,
            "{name}: paper-side means"
        );
    }
}

/// The `reproduce cqneg` path: Proposition 3.1(1) universal solutions for a
/// hand-written DRC CQ¬ query and for the SQL front-end's lowering of the
/// paper's QB.
#[test]
fn cqneg_universal_solutions_nonempty() {
    let schema = beers_schema();
    let drc = cqi_drc::parse_query(
        &schema,
        "{ (b) | exists x, d, a . Beer(b, x) and Drinker(d, a) and not Likes(d, b) }",
    )
    .unwrap();
    let sol = cq_neg_universal_solution(&SyntaxTree::new(drc), true)
        .expect("CQ¬ query has a poly-time universal solution");
    assert!(!sol.instances.is_empty(), "DRC universal solution is empty");
    for si in &sol.instances {
        assert!(si.inst.num_tuples() > 0, "instance with no tuples");
        assert!(!format!("{}", si.inst).is_empty(), "display is empty");
    }

    let sql = sql_to_drc(
        &schema,
        "SELECT S1.bar, S1.beer FROM Likes L, Serves S1, Serves S2 \
         WHERE L.drinker LIKE 'Eve%' AND L.beer = S1.beer AND L.beer = S2.beer \
         AND S1.price > S2.price",
    )
    .unwrap();
    let sol = cq_neg_universal_solution(&SyntaxTree::new(sql), true)
        .expect("SQL-lowered CQ¬ query has a universal solution");
    assert!(!sol.instances.is_empty(), "SQL universal solution is empty");
}

/// A tiny end-to-end run through the same configuration surface the figures
/// use (`ChaseConfig` with a limit, a deadline on the request), pinned to
/// one fast query so the whole test stays in the hundreds of milliseconds.
#[test]
fn harness_chase_config_path_runs() {
    let qs = beers_queries();
    let dq = qs.iter().find(|q| q.name == "Q2A").expect("Q2A exists");
    let cfg = ChaseConfig::with_limit(4).enforce_keys(true);
    let sol = Session::new(dq.query.schema.clone())
        .config(cfg)
        .explain_collect(
            ExplainRequest::tree(&SyntaxTree::new(dq.query.clone()))
                .variant(Variant::ConjAdd)
                .deadline(Duration::from_secs(5)),
        )
        .unwrap();
    assert!(
        !sol.instances.is_empty(),
        "Q2A should produce at least one c-instance at limit 4"
    );
}
