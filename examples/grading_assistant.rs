//! Grading assistant: the paper's educational use case (§1, first bullet).
//!
//! An instructor has a correct SQL solution; a student submits a wrong SQL
//! query. The assistant (1) lowers both to DRC through the SQL front-end,
//! (2) checks them against a generated database, (3) produces the RATest
//! -style concrete counterexample, and (4) produces the c-instance
//! counterexamples that *explain* the difference abstractly — without
//! revealing the correct query.
//!
//! Run with: `cargo run --release --example grading_assistant`

use std::time::Duration;

use cqi_baseline::ratest;
use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::beers_schema;
use cqi_drc::SyntaxTree;
use cqi_sql::sql_to_drc;

fn main() {
    let schema = beers_schema();

    // Instructor's solution (Fig. 9a): highest-price bars for beers liked
    // by a drinker with first name Eve.
    let solution_sql = "SELECT s.bar, s.beer FROM Likes l, Serves s \
                        WHERE l.drinker LIKE 'Eve %' AND l.beer = s.beer \
                        AND NOT EXISTS (SELECT * FROM Serves \
                                        WHERE beer = s.beer AND price > s.price)";
    // Student's submission (Fig. 9b).
    let student_sql = "SELECT S1.bar, S1.beer FROM Likes L, Serves S1, Serves S2 \
                       WHERE L.drinker LIKE 'Eve%' AND L.beer = S1.beer \
                       AND L.beer = S2.beer AND S1.price > S2.price";

    println!("solution SQL: {solution_sql}\nstudent SQL:  {student_sql}\n");

    let solution = sql_to_drc(&schema, solution_sql).expect("solution lowers to DRC");
    let student = sql_to_drc(&schema, student_sql).expect("submission lowers to DRC");

    // RATest-style: one concrete counterexample from a random database.
    match ratest(&schema, &solution, &student, 60) {
        Some(ce) => {
            println!("-- RATest-style concrete counterexample (minimal sub-instance):");
            print!("{ce}");
            println!(
                "solution returns {:?}\nstudent  returns {:?}\n",
                cqi_eval::evaluate(&solution, &ce),
                cqi_eval::evaluate(&student, &ce)
            );
        }
        None => println!("-- queries agree on every generated database\n"),
    }

    // C-instance counterexamples: all the distinct ways the submission is
    // wrong, as abstract instances with conditions.
    let diff = student.difference(&solution).expect("same output arity");
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
        "-- {} abstract counterexample(s) for (student − solution):",
        sol.num_coverages()
    );
    for (i, si) in sol.instances.iter().enumerate() {
        println!("c-instance #{} (size {}):", i + 1, si.size());
        print!("{}", si.inst);
        println!("   ↳ hint: the conditions above are the *minimal* reason the answers differ.");
    }
}
