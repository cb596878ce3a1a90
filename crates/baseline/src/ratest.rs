//! RATest-style minimal ground counterexamples \[41\].
//!
//! RATest explains why a student query is wrong by exhibiting a *small*
//! sub-instance of a given database on which the wrong and correct queries
//! disagree ("the emphasis is on the cardinality of the generated
//! counterexample"). We reproduce its observable behaviour: greedy tuple
//! removal from a (generated) database while the disagreement persists —
//! the comparison target of the paper's case study (§5.2).

use std::sync::Arc;

use cqi_drc::Query;
use cqi_eval::evaluate;
use cqi_instance::GroundInstance;
use cqi_schema::Schema;

use crate::generator::generate_database;

/// Do the two queries disagree on `db`?
fn differ(q1: &Query, q2: &Query, db: &GroundInstance) -> bool {
    evaluate(q1, db) != evaluate(q2, db)
}

/// Greedily minimizes `db` while `q1` and `q2` still disagree; the result
/// is a 1-minimal counterexample (removing any single tuple reconciles the
/// queries). Returns `None` if the queries agree on `db`.
pub fn minimal_counterexample(
    q1: &Query,
    q2: &Query,
    db: &GroundInstance,
) -> Option<GroundInstance> {
    if !differ(q1, q2, db) {
        return None;
    }
    let mut cur = db.clone();
    loop {
        let mut shrunk = false;
        for (rel, tuple) in cur.all_tuples() {
            let mut cand = cur.clone();
            cand.remove(rel, &tuple);
            if differ(q1, q2, &cand) {
                cur = cand;
                shrunk = true;
            }
        }
        if !shrunk {
            return Some(cur);
        }
    }
}

/// Directed variant: finds a minimal sub-instance satisfying `plus − minus`
/// (i.e. `plus` returns a tuple that `minus` does not) — the direction the
/// paper's counterexamples present to students (the *wrong* query's extra
/// answers).
pub fn ratest_directed(
    schema: &Arc<Schema>,
    plus: &Query,
    minus: &Query,
    max_seeds: u64,
) -> Option<GroundInstance> {
    let diff = plus.difference(minus).ok()?;
    let witnesses = |db: &GroundInstance| cqi_eval::satisfies(&diff, db);
    for seed in 0..max_seeds {
        let rows = 4 + 2 * (seed as usize % 8);
        let db = generate_database(schema, rows, seed);
        if !witnesses(&db) {
            continue;
        }
        // Greedy 1-minimization preserving the directed difference.
        let mut cur = db;
        loop {
            let mut shrunk = false;
            for (rel, tuple) in cur.all_tuples() {
                let mut cand = cur.clone();
                cand.remove(rel, &tuple);
                if witnesses(&cand) {
                    cur = cand;
                    shrunk = true;
                }
            }
            if !shrunk {
                return Some(cur);
            }
        }
    }
    None
}

/// The full RATest pipeline: generate random databases (growing with each
/// failed seed) until the queries disagree, then minimize.
pub fn ratest(
    schema: &Arc<Schema>,
    q1: &Query,
    q2: &Query,
    max_seeds: u64,
) -> Option<GroundInstance> {
    for seed in 0..max_seeds {
        let rows = 4 + 2 * (seed as usize % 8);
        let db = generate_database(schema, rows, seed);
        if let Some(ce) = minimal_counterexample(q1, q2, &db) {
            return Some(ce);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_drc::parse_query;
    use cqi_schema::{DomainType, Value};

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .relation("Bar", &[("name", DomainType::Text), ("addr", DomainType::Text)])
                .relation("Beer", &[("name", DomainType::Text), ("brewer", DomainType::Text)])
                .relation(
                    "Serves",
                    &[
                        ("bar", DomainType::Text),
                        ("beer", DomainType::Text),
                        ("price", DomainType::Real),
                    ],
                )
                .key("Bar", &["name"])
                .key("Beer", &["name"])
                .key("Serves", &["bar", "beer"])
                .foreign_key("Serves", &["bar"], "Bar", &["name"])
                .foreign_key("Serves", &["beer"], "Beer", &["name"])
                .build()
                .unwrap(),
        )
    }

    /// Correct: bars serving the cheapest offer of a beer; wrong: bars
    /// serving at any non-maximal price. They disagree whenever ≥ 3
    /// distinct prices exist for one beer.
    fn queries(s: &Arc<Schema>) -> (Query, Query) {
        let correct = parse_query(
            s,
            "{ (x1, b1) | exists p1 . Serves(x1, b1, p1) and forall x2, p2 (not Serves(x2, b1, p2) or p1 <= p2) }",
        )
        .unwrap();
        let wrong = parse_query(
            s,
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 < p2 }",
        )
        .unwrap();
        (correct, wrong)
    }

    #[test]
    fn finds_and_minimizes_counterexample() {
        let s = schema();
        let (correct, wrong) = queries(&s);
        let ce = ratest(&s, &correct, &wrong, 30).expect("counterexample exists");
        // 1-minimality: removing any tuple reconciles the queries.
        for (rel, tuple) in ce.all_tuples() {
            let mut cand = ce.clone();
            cand.remove(rel, &tuple);
            assert!(
                !differ(&correct, &wrong, &cand),
                "not minimal: could drop {tuple:?}"
            );
        }
        assert!(differ(&correct, &wrong, &ce));
    }

    #[test]
    fn agreeing_queries_have_no_counterexample() {
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) }").unwrap();
        let db = generate_database(&s, 6, 1);
        assert!(minimal_counterexample(&q, &q, &db).is_none());
    }

    #[test]
    fn hand_built_counterexample_minimizes_to_three_serves() {
        // Three prices for one beer: the minimal counterexample for the
        // max-vs-not-min confusion needs all three Serves rows.
        let s = schema();
        let (correct, wrong) = queries(&s);
        let mut db = GroundInstance::new(Arc::clone(&s));
        db.insert_named("Beer", &["APA".into(), "SN".into()]);
        for (bar, price) in [("RM", 2.25), ("RR", 2.75), ("Tadim", 3.5)] {
            db.insert_named("Bar", &[bar.into(), "a".into()]);
            db.insert_named("Serves", &[bar.into(), "APA".into(), Value::real(price)]);
        }
        // Noise that minimization must strip.
        db.insert_named("Beer", &["Noise".into(), "NN".into()]);
        let ce = minimal_counterexample(&correct, &wrong, &db).unwrap();
        let serves = s.rel_id("Serves").unwrap();
        assert_eq!(ce.rows(serves).count(), 3);
        let beer = s.rel_id("Beer").unwrap();
        assert!(ce.rows(beer).count() <= 1, "noise beer removed");
    }
}
