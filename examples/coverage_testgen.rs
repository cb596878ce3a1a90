//! Coverage-driven test-data generation: the paper's third use case (§1) —
//! "generate a suite of test instances for a complex query such that
//! together they exercise all parts of the query".
//!
//! Each c-instance in the minimal c-solution is grounded into one concrete
//! test database; the union of their coverages tells us exactly which
//! syntax-tree leaves the suite exercises, and re-evaluating the query
//! confirms every generated database is a true positive.
//!
//! Run with: `cargo run --release --example coverage_testgen`

use std::time::Duration;

use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::beers_schema;
use cqi_drc::{parse_query, Coverage, SyntaxTree};
use cqi_instance::ground_instance;

fn main() {
    let schema = beers_schema();

    // A workload query with genuinely different execution paths: beers
    // either premium-priced everywhere or liked by somebody.
    let q = parse_query(
        &schema,
        "{ (b1) | exists r1 (Beer(b1, r1)) and \
         (exists d1 (Likes(d1, b1)) or \
          exists x1, p1 (Serves(x1, b1, p1) and p1 > 8.0)) }",
    )
    .expect("query parses")
    .with_label("workload");

    let tree = SyntaxTree::new(q.clone());
    let cfg = ChaseConfig::with_limit(8).enforce_keys(true);
    let sol = Session::new(tree.query().schema.clone())
        .config(cfg)
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjAdd)
                .deadline(Duration::from_secs(20)),
        )
        .expect("pre-parsed trees compile unconditionally");

    println!(
        "query has {} leaves; generating one test database per coverage...\n",
        tree.num_leaves()
    );
    let mut exercised = Coverage::new();
    for (i, si) in sol.instances.iter().enumerate() {
        let Some(db) = ground_instance(&si.inst, true) else {
            continue;
        };
        exercised.extend(si.coverage.iter().copied());
        println!(
            "-- test #{}: exercises leaves {:?}",
            i + 1,
            si.coverage.iter().map(|l| l.0).collect::<Vec<_>>()
        );
        print!("{db}");
        let result = cqi_eval::evaluate(&q, &db);
        assert!(!result.is_empty(), "generated test must satisfy the query");
        println!("   query result on this test: {result:?}\n");
    }
    println!(
        "suite coverage: {}/{} leaves exercised",
        exercised.len(),
        tree.num_leaves()
    );
    for (id, atom) in tree.leaves() {
        let mark = if exercised.contains(&id) {
            "✓"
        } else {
            "✗"
        };
        println!(
            "  {mark} L{}: {}",
            id.0,
            cqi_drc::pretty::atom_to_string(&q, atom)
        );
    }
}
