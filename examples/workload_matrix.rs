//! Workload test matrix: §1's "given a set of workload queries, we can
//! generate test instances where a given subset of queries are satisfied
//! but others are not".
//!
//! For three workload queries we enumerate all 2³ satisfaction patterns and
//! synthesize one test database per achievable pattern, then verify each
//! database against every query.
//!
//! Run with: `cargo run --release --example workload_matrix`

use std::time::Duration;

use cqi_core::{generate_test_matrix, ChaseConfig};
use cqi_datasets::beers_schema;
use cqi_drc::parse_query;

fn main() {
    let schema = beers_schema();
    let queries = [
        parse_query(&schema, "{ (b1) | exists d1 (Likes(d1, b1)) }")
            .unwrap()
            .with_label("liked"),
        parse_query(
            &schema,
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1) and p1 > 5.0) }",
        )
        .unwrap()
        .with_label("premium"),
        parse_query(&schema, "{ (d1) | exists x1, t1 (Frequents(d1, x1, t1)) }")
            .unwrap()
            .with_label("regular"),
    ];
    let refs: Vec<&cqi_drc::Query> = queries.iter().collect();

    let cfg = ChaseConfig::with_limit(8).enforce_keys(true);
    let matrix =
        generate_test_matrix(&refs, &cfg, Duration::from_secs(10)).expect("workload combines");

    println!(
        "achievable satisfaction patterns: {}/{}\n",
        matrix.len(),
        1 << queries.len()
    );
    for (pattern, db) in &matrix {
        let marks: Vec<String> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let want = pattern & (1 << i) != 0;
                let got = cqi_eval::satisfies(q, db);
                assert_eq!(want, got, "pattern {pattern:b} query {}", q.label);
                format!("{}{}", if got { "+" } else { "-" }, q.label)
            })
            .collect();
        println!("-- pattern {:03b}: {}", pattern, marks.join(" "));
        print!("{db}");
    }
}
