//! Streaming quickstart: watch abstract counterexamples arrive live.
//!
//! The paper's §5.1 point is that conditional instances are useful *as
//! they arrive* — a user debugging a query wants the first counterexample
//! in milliseconds, not the whole minimal c-solution after the search
//! finishes. This example builds the running example's difference query
//! `QB − QA` directly in SQL (`EXCEPT`), opens a [`Session`], and prints
//! every accepted instance the moment the chase emits it, under a
//! deadline.
//!
//! Run with: `cargo run --release --example streaming`

use std::time::Duration;

use cqi::prelude::*;
use cqi_datasets::beers_schema;

fn main() {
    let session =
        Session::new(beers_schema()).config(ChaseConfig::with_limit(10).enforce_keys(true));

    // QB (wrong: non-lowest price, LIKE lost its space) EXCEPT QA
    // (correct): every answer is a way the two queries differ.
    let sql = "SELECT S1.bar, S1.beer FROM Likes L \
               JOIN Serves S1 ON L.beer = S1.beer \
               JOIN Serves S2 ON L.beer = S2.beer \
               WHERE L.drinker LIKE 'Eve%' AND S1.price > S2.price \
               EXCEPT \
               SELECT s.bar, s.beer FROM Likes l, Serves s \
               WHERE l.drinker LIKE 'Eve %' AND l.beer = s.beer \
               AND NOT EXISTS (SELECT * FROM Serves \
                               WHERE beer = s.beer AND price > s.price)";

    let request = ExplainRequest::sql(sql)
        .variant(Variant::DisjAdd)
        .deadline(Duration::from_secs(20));

    println!("streaming c-instances for QB − QA (deadline 20s)...\n");
    let mut stream = session.explain(request).expect("the SQL compiles");
    for accepted in stream.by_ref() {
        println!(
            "[{:7.1} ms] instance #{} (size {}, covers {} leaf(s)):",
            accepted.accepted_at.as_secs_f64() * 1e3,
            accepted.ordinal + 1,
            accepted.inst.size(),
            accepted.coverage.len(),
        );
        print!("{}", accepted.inst);
        println!();
    }

    // Recover the classic batch result — minimal c-solution + status.
    let sol = stream.collect();
    match sol.interrupted {
        None => println!("drive complete."),
        Some(Interrupted::Deadline) => println!("deadline hit — partial results above."),
        Some(Interrupted::Cancelled) => println!("cancelled — partial results above."),
    }
    println!(
        "{} accepted, {} distinct coverages, first instance after {:?}.",
        sol.raw_accepted,
        sol.num_coverages(),
        sol.time_to_first().unwrap_or_default(),
    );
    // The engine-stats one-liner (waves, memo hit rates, dedupe traffic).
    println!("engine: {}", sol.stats);

    // One line of the service-response rendering.
    if let Some(si) = sol.instances.first() {
        println!("\nfirst minimal instance as JSON:\n{}", si.inst.to_json());
    }
}
