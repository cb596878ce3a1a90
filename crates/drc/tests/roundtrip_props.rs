//! Property tests for the DRC front-end: randomly generated queries
//! round-trip through pretty-printer and parser, normalization is
//! idempotent, and difference queries validate and round-trip too, primed
//! variable names included.

use std::sync::Arc;

use cqi_drc::{parse_query, pretty, Metrics, Query, SyntaxTree};
use cqi_schema::{DomainType, Schema};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::builder()
            .relation(
                "Drinker",
                &[("name", DomainType::Text), ("addr", DomainType::Text)],
            )
            .relation(
                "Beer",
                &[("name", DomainType::Text), ("brewer", DomainType::Text)],
            )
            .relation(
                "Serves",
                &[
                    ("bar", DomainType::Text),
                    ("beer", DomainType::Text),
                    ("price", DomainType::Real),
                ],
            )
            .relation(
                "Likes",
                &[("drinker", DomainType::Text), ("beer", DomainType::Text)],
            )
            .same_domain(("Serves", "beer"), ("Likes", "beer"))
            .same_domain(("Likes", "drinker"), ("Drinker", "name"))
            .build()
            .unwrap(),
    )
}

/// Generates a random well-formed query *as source text* by growing a
/// formula around a positive `Likes(d, b)` anchor (which keeps the output
/// variable safe).
fn random_query_src(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let depth = rng.gen_range(0..4);
    let body = grow(&mut rng, depth, &mut 0);
    format!("{{ (b0) | exists d0 . Likes(d0, b0) and {body} }}")
}

fn grow(rng: &mut StdRng, depth: usize, fresh: &mut usize) -> String {
    if depth == 0 {
        return leaf(rng, fresh);
    }
    match rng.gen_range(0..5) {
        0 => format!(
            "({} and {})",
            grow(rng, depth - 1, fresh),
            grow(rng, depth - 1, fresh)
        ),
        1 => format!(
            "({} or {})",
            grow(rng, depth - 1, fresh),
            grow(rng, depth - 1, fresh)
        ),
        2 => {
            let (x, p) = next_two(fresh);
            format!(
                "exists {x}, {p} (Serves({x}, b0, {p}) and {})",
                grow(rng, depth - 1, fresh)
            )
        }
        3 => {
            let (x, p) = next_two(fresh);
            format!(
                "forall {x}, {p} (not Serves({x}, b0, {p}) or {})",
                grow(rng, depth - 1, fresh)
            )
        }
        _ => format!("not ({})", grow(rng, depth - 1, fresh)),
    }
}

fn next_two(fresh: &mut usize) -> (String, String) {
    let i = *fresh;
    *fresh += 2;
    (format!("v{i}"), format!("v{}", i + 1))
}

fn leaf(rng: &mut StdRng, _fresh: &mut usize) -> String {
    match rng.gen_range(0..4) {
        0 => "d0 like 'Eve%'".to_owned(),
        1 => "not (d0 like 'Eve %')".to_owned(),
        2 => format!("b0 != '{}'", if rng.gen() { "Amstel" } else { "Corona" }),
        _ => "exists q1 (Likes(d0, q1))".to_owned(),
    }
}

fn reprint(q: &Query) -> String {
    pretty::query_to_string(q)
}

/// Text round trip of one normalized query: the printed form parses back
/// to the same formula and re-prints identically.
fn round_trip(q: &Query) -> Result<(), String> {
    let text = reprint(q);
    let back = parse_query(&q.schema, &text).map_err(|e| format!("{e}\n{text}"))?;
    if back.formula != q.formula {
        return Err(format!("formula changed\n{text}"));
    }
    let again = reprint(&back);
    if again != text {
        return Err(format!("re-print differs\n{text}\n{again}"));
    }
    Ok(())
}

/// Every Beers and TPC-H dataset query, the normalized difference queries
/// with their primed variable names (`o3'`) included, round-trips through
/// text.
#[test]
fn dataset_queries_round_trip_through_text() {
    let queries: Vec<_> = cqi_datasets::beers_queries()
        .into_iter()
        .chain(cqi_datasets::tpch_queries())
        .collect();
    assert_eq!(queries.len(), 63);
    let failures: Vec<String> = queries
        .iter()
        .filter_map(|dq| {
            round_trip(&dq.query)
                .err()
                .map(|e| format!("{}: {e}", dq.name))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of 63 failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

proptest! {
    // Streams are deterministic and replayable: the vendored proptest seeds
    // every (test, case) pair from PROPTEST_SEED (default 0).
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print ∘ parse is a fixpoint: the printed form re-parses to a query
    /// that prints identically.
    #[test]
    fn print_parse_fixpoint(seed in any::<u64>()) {
        let s = schema();
        let src = random_query_src(seed);
        let q1 = parse_query(&s, &src).expect("generated query parses");
        let p1 = reprint(&q1);
        let q2 = parse_query(&s, &p1).expect("printed query re-parses");
        let p2 = reprint(&q2);
        prop_assert_eq!(p1, p2, "source: {}", src);
    }

    /// Parsing establishes the NNF invariant: no internal negation nodes
    /// (checked via pretty-printed text never containing `not (... and`
    /// at internal positions is hard; instead assert every atom-negation
    /// flag round-trips and metrics are stable).
    #[test]
    fn metrics_stable_under_roundtrip(seed in any::<u64>()) {
        let s = schema();
        let src = random_query_src(seed);
        let q1 = parse_query(&s, &src).expect("parses");
        let q2 = parse_query(&s, &reprint(&q1)).expect("re-parses");
        prop_assert_eq!(Metrics::of(&q1), Metrics::of(&q2));
        prop_assert_eq!(
            SyntaxTree::new(q1).num_leaves(),
            SyntaxTree::new(q2).num_leaves()
        );
    }

    /// Difference queries of two random queries validate and have the
    /// expected leaf count (|leaves(a)| + |leaves(b)|).
    #[test]
    fn difference_leaf_count(sa in any::<u64>(), sb in any::<u64>()) {
        let s = schema();
        let qa = parse_query(&s, &random_query_src(sa)).unwrap();
        let qb = parse_query(&s, &random_query_src(sb)).unwrap();
        let (la, lb) = (
            SyntaxTree::new(qa.clone()).num_leaves(),
            SyntaxTree::new(qb.clone()).num_leaves(),
        );
        let diff = qa.difference(&qb).expect("same arity");
        prop_assert_eq!(SyntaxTree::new(diff).num_leaves(), la + lb);
    }

    /// The difference of two generated queries renames `other`'s clashing
    /// variables with primes; its printed form still round-trips.
    #[test]
    fn difference_round_trips_through_text(sa in any::<u64>(), sb in any::<u64>()) {
        let s = schema();
        let qa = parse_query(&s, &random_query_src(sa)).unwrap();
        let qb = parse_query(&s, &random_query_src(sb)).unwrap();
        let diff = qa.difference(&qb).expect("same arity");
        prop_assert_eq!(round_trip(&diff), Ok(()));
    }

    /// Quantifier uniqueness (§3.1 assumption (3)) holds after parsing any
    /// generated query.
    #[test]
    fn binders_are_unique(seed in any::<u64>()) {
        use cqi_drc::{Formula, VarId};
        let s = schema();
        let q = parse_query(&s, &random_query_src(seed)).unwrap();
        fn collect(f: &Formula, out: &mut Vec<VarId>) {
            match f {
                Formula::Exists(v, b) | Formula::Forall(v, b) => {
                    out.push(*v);
                    collect(b, out);
                }
                Formula::And(l, r) | Formula::Or(l, r) => {
                    collect(l, out);
                    collect(r, out);
                }
                Formula::Atom(_) => {}
            }
        }
        let mut binders = Vec::new();
        collect(&q.formula, &mut binders);
        let n = binders.len();
        binders.sort();
        binders.dedup();
        prop_assert_eq!(binders.len(), n);
    }
}
