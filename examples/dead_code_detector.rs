//! Dead-code detection in queries: the paper's second use case (§1) — "if
//! there are no instances that can trigger some part of a query, it may be
//! possible to simplify the query to remove 'dead code' that logically
//! contradicts other necessary conditions".
//!
//! We chase a query whose one branch is self-contradictory; the leaves that
//! stay uncovered by *every* c-instance in the solution are the dead code.
//!
//! Run with: `cargo run --release --example dead_code_detector`

use std::time::Duration;

use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::beers_schema;
use cqi_drc::{parse_query, Coverage, SyntaxTree};

fn main() {
    let schema = beers_schema();

    // The second disjunct demands that *no* Beer row exists for b1 while
    // the query also requires Beer(b1, r1) — dead code that no data can
    // ever trigger.
    let q = parse_query(
        &schema,
        "{ (b1) | exists r1 (Beer(b1, r1)) and \
         (exists d1 (Likes(d1, b1)) or not Beer(b1, *)) }",
    )
    .expect("query parses")
    .with_label("suspicious");

    println!("analysing: {}\n", cqi_drc::pretty::query_to_string(&q));

    let tree = SyntaxTree::new(q.clone());
    // The Add variant actively seeds every leaf, so an uncovered leaf after
    // this run is a strong dead-code signal.
    let cfg = ChaseConfig::with_limit(8).enforce_keys(true);
    let sol = Session::new(tree.query().schema.clone())
        .config(cfg)
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjAdd)
                .deadline(Duration::from_secs(20)),
        )
        .expect("pre-parsed trees compile unconditionally");

    let mut covered = Coverage::new();
    for si in &sol.instances {
        covered.extend(si.coverage.iter().copied());
    }
    println!("{} c-instance(s) found; leaf report:", sol.instances.len());
    let mut dead = Vec::new();
    for (id, atom) in tree.leaves() {
        let reachable = covered.contains(&id);
        println!(
            "  {} L{}: {}",
            if reachable { "live" } else { "DEAD" },
            id.0,
            cqi_drc::pretty::atom_to_string(&q, atom)
        );
        if !reachable {
            dead.push(id);
        }
    }
    if dead.is_empty() {
        println!("\nno dead code detected.");
    } else {
        println!(
            "\n{} leaf/leaves can never be satisfied together with the rest of \
             the query — candidates for removal.",
            dead.len()
        );
    }
    assert!(
        !dead.is_empty(),
        "the contradictory branch must be reported as dead"
    );
}
