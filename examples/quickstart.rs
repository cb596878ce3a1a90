//! Quickstart: the paper's running example end to end.
//!
//! We define the Beers schema, write the correct query QA and the wrong
//! query QB (Fig. 2), build the difference `QB − QA`, and ask the chase for
//! a minimal c-solution — the set of abstract counterexamples that
//! characterizes *every* way the two queries can differ. One of them is the
//! paper's I1 (Fig. 6). Finally we ground a c-instance into a concrete
//! counterexample like Fig. 1's K0.
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Duration;

use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::beers_schema;
use cqi_drc::{parse_query, SyntaxTree};
use cqi_instance::ground_instance;

fn main() {
    let schema = beers_schema();

    // The correct query (Fig. 2a): bars serving, at the highest price, a
    // beer liked by a drinker whose first name is "Eve".
    let qa = parse_query(
        &schema,
        "{ (x1, b1) | exists d1, p1 . Serves(x1, b1, p1) and Likes(d1, b1) \
         and d1 like 'Eve %' \
         and forall x2, p2 (not Serves(x2, b1, p2) or p1 >= p2) }",
    )
    .expect("QA parses")
    .with_label("QA");

    // The wrong query (Fig. 2b): beers served at a *non-lowest* price, and
    // the LIKE pattern lost its space.
    let qb = parse_query(
        &schema,
        "{ (x1, b1) | exists d1, p1, x2, p2 . Serves(x1, b1, p1) and Likes(d1, b1) \
         and d1 like 'Eve%' and Serves(x2, b1, p2) and p1 > p2 }",
    )
    .expect("QB parses")
    .with_label("QB");

    let diff = qb.difference(&qa).expect("compatible queries");
    println!(
        "difference query: {}",
        cqi_drc::pretty::query_to_string(&diff)
    );

    let tree = SyntaxTree::new(diff);
    let cfg = ChaseConfig::with_limit(10).enforce_keys(true);
    let sol = Session::new(tree.query().schema.clone())
        .config(cfg)
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::DisjAdd)
                .deadline(Duration::from_secs(30)),
        )
        .expect("pre-parsed trees compile unconditionally");

    println!(
        "\nminimal c-solution: {} c-instance(s), {} accepted before minimization",
        sol.num_coverages(),
        sol.raw_accepted
    );
    for (i, si) in sol.instances.iter().enumerate() {
        println!(
            "\n-- c-instance #{} (size {}, covers {} of {} leaves):",
            i + 1,
            si.size(),
            si.coverage.len(),
            tree.num_leaves()
        );
        print!("{}", si.inst);
    }

    // Ground the first c-instance into a concrete counterexample.
    if let Some(si) = sol.instances.first() {
        let k = ground_instance(&si.inst, true).expect("consistent instance grounds");
        println!("\n-- one concrete counterexample from its possible worlds:");
        print!("{k}");
        println!(
            "QB returns {:?}, QA returns {:?}",
            cqi_eval::evaluate(&qb, &k),
            cqi_eval::evaluate(&qa, &k)
        );
    }
}
