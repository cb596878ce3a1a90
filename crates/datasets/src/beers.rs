//! The Beers workload: schema, the running example's counterexample `K0`
//! (Fig. 1), Table 4's 35 queries, and the user-study queries (Table 3).

use std::sync::Arc;

use cqi_drc::{parse_query, Query};
use cqi_instance::GroundInstance;
use cqi_schema::{DomainType, Schema, Value};

use crate::{DatasetQuery, QueryKind};

/// The Beers schema with its natural foreign keys (the paper assumes
/// "natural foreign key constraints from Serves and Likes to Drinker, Bar,
/// Beer"; Frequents references Drinker and Bar).
pub fn beers_schema() -> Arc<Schema> {
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
                "Bar",
                &[("name", DomainType::Text), ("addr", DomainType::Text)],
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
            .relation(
                "Frequents",
                &[
                    ("drinker", DomainType::Text),
                    ("bar", DomainType::Text),
                    ("times_a_week", DomainType::Int),
                ],
            )
            .key("Drinker", &["name"])
            .key("Beer", &["name"])
            .key("Bar", &["name"])
            .key("Serves", &["bar", "beer"])
            .key("Frequents", &["drinker", "bar"])
            .foreign_key("Serves", &["bar"], "Bar", &["name"])
            .foreign_key("Serves", &["beer"], "Beer", &["name"])
            .foreign_key("Likes", &["drinker"], "Drinker", &["name"])
            .foreign_key("Likes", &["beer"], "Beer", &["name"])
            .foreign_key("Frequents", &["drinker"], "Drinker", &["name"])
            .foreign_key("Frequents", &["bar"], "Bar", &["name"])
            .build()
            .expect("beers schema is well-formed"),
    )
}

/// The ground counterexample `K0` of Fig. 1.
pub fn beers_k0(schema: &Arc<Schema>) -> GroundInstance {
    let mut g = GroundInstance::new(Arc::clone(schema));
    g.insert_named("Drinker", &["Eve Edwards".into(), "32767 Magic Way".into()]);
    g.insert_named(
        "Beer",
        &["American Pale Ale".into(), "Sierra Nevada".into()],
    );
    g.insert_named(
        "Bar",
        &["Restaurant Memory".into(), "1276 Evans Estate".into()],
    );
    g.insert_named("Bar", &["Tadim".into(), "082 Julia Underpass".into()]);
    g.insert_named(
        "Bar",
        &["Restaurante Raffaele".into(), "7357 Dalton Walks".into()],
    );
    g.insert_named("Likes", &["Eve Edwards".into(), "American Pale Ale".into()]);
    g.insert_named(
        "Serves",
        &[
            "Restaurant Memory".into(),
            "American Pale Ale".into(),
            Value::real(2.25),
        ],
    );
    g.insert_named(
        "Serves",
        &[
            "Restaurante Raffaele".into(),
            "American Pale Ale".into(),
            Value::real(2.75),
        ],
    );
    g.insert_named(
        "Serves",
        &["Tadim".into(), "American Pale Ale".into(), Value::real(3.5)],
    );
    g
}

fn q(schema: &Arc<Schema>, name: &str, src: &str) -> Query {
    parse_query(schema, src)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .with_label(name)
}

/// Source text of the 5 standard + 10 wrong Beers queries (Table 4).
pub fn base_query_sources() -> Vec<(&'static str, QueryKind, &'static str, [usize; 5])> {
    vec![
        (
            "Q1A",
            QueryKind::Correct,
            "{ (x1, b1) | exists d2, p3 . ((Serves(x1, b1, p3) and d2 like 'Eve %') and Likes(d2, b1)) \
             and forall p4, x3 (not Serves(x3, b1, p4) or p4 <= p3) }",
            [15, 9, 10, 1, 3],
        ),
        (
            "Q1B",
            QueryKind::Wrong,
            "{ (x1, b1) | exists d1, p1 . ((Serves(x1, b1, p1) and Likes(d1, b1)) and d1 like 'Eve %') \
             and exists x2, p2 ((p2 < p1 and Serves(x2, b1, p2)) and x1 != x2) }",
            [17, 10, 11, 0, 0],
        ),
        (
            "Q2A",
            QueryKind::Correct,
            "{ (b1) | exists tr1 (Beer(b1, tr1) and forall td1 (not Likes(td1, b1))) }",
            [6, 5, 4, 0, 1],
        ),
        (
            "Q2B",
            QueryKind::Wrong,
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and not exists d1 (Likes(d1, b1)) }",
            [7, 5, 5, 0, 1],
        ),
        (
            "Q3A",
            QueryKind::Correct,
            "{ (b1, x1) | exists tp1 (Serves(x1, b1, tp1) and forall tp2, tx2 (not Serves(tx2, b1, tp2) or tp2 <= tp1)) }",
            [10, 8, 7, 1, 3],
        ),
        (
            "Q3B",
            QueryKind::Wrong,
            "{ (b1, x1) | exists x2, p1, p2 (((Serves(x1, b1, p1) and Serves(x2, b1, p2)) and p2 <= p1) and x1 = x2) }",
            [12, 9, 8, 0, 0],
        ),
        (
            "Q3C",
            QueryKind::Wrong,
            "{ (b1, x1) | exists r1, p1 (Beer(b1, r1) and (Serves(x1, b1, p1) \
             and not exists x2, p2 (Serves(x2, b1, p2) and p1 < p2))) }",
            [13, 10, 9, 1, 3],
        ),
        (
            "Q4A",
            QueryKind::Correct,
            "{ (d1) | exists ta1 (Drinker(d1, ta1) and not exists tx1, tt1 (Frequents(d1, tx1, tt1) \
             and not exists tb1, tp1 (Likes(d1, tb1) and Serves(tx1, tb1, tp1)))) }",
            [13, 10, 9, 1, 3],
        ),
        (
            "Q4B",
            QueryKind::Wrong,
            "{ (d1) | exists x1, b1 (exists p1, t1 (Frequents(d1, x1, t1) and Serves(x1, b1, p1)) and Likes(d1, b1)) }",
            [10, 8, 7, 0, 0],
        ),
        (
            "Q4C",
            QueryKind::Wrong,
            "{ (d1) | exists x1 (exists t1 (Frequents(d1, x1, t1)) and not (exists t2 (Frequents(d1, x1, t2)) \
             and not exists b1, p1 (Likes(d1, b1) and Serves(x1, b1, p1)))) }",
            [13, 8, 9, 1, 1],
        ),
        (
            "Q4D",
            QueryKind::Wrong,
            "{ (d1) | exists a1 (Drinker(d1, a1)) and not exists b1 (exists x1, t1, p1 (Frequents(d1, x1, t1) \
             and Serves(x1, b1, p1)) and not Likes(d1, b1)) }",
            [13, 9, 9, 2, 6],
        ),
        (
            "Q5A",
            QueryKind::Correct,
            "{ (d1) | exists ta1 (Drinker(d1, ta1) and not exists tx1 (exists tb1, tp1 (Likes(d1, tb1) \
             and Serves(tx1, tb1, tp1)) and not exists tt1 (Frequents(d1, tx1, tt1)))) }",
            [13, 9, 9, 2, 5],
        ),
        (
            "Q5B",
            QueryKind::Wrong,
            "{ (d1) | exists x1, t1 (Frequents(d1, x1, t1) and not exists x2 (exists b1, p1 (Likes(d1, b1) \
             and Serves(x2, b1, p1)) and exists t2 (not Frequents(d1, x2, t2)))) }",
            [14, 10, 10, 2, 6],
        ),
        (
            "Q5C",
            QueryKind::Wrong,
            "{ (d1) | exists b1, x1, t1, p1 (((Frequents(d1, x1, t1) and Serves(x1, b1, p1)) and Likes(d1, b1))) \
             and not exists x2, b2 (exists p2 (Likes(d1, b2) and Serves(x2, b2, p2)) \
             and not exists p3, t2 ((Frequents(d1, x2, t2) and Serves(x2, b2, p3)) and Likes(d1, b2))) }",
            [25, 10, 17, 2, 5],
        ),
        (
            "Q5D",
            QueryKind::Wrong,
            "{ (d1) | exists b1, x1, p1 (Likes(d1, b1) and Serves(x1, b1, p1)) \
             and not exists x2 (exists b2, p2 (Likes(d1, b2) and Serves(x2, b2, p2)) \
             and not exists t1 (Frequents(d1, x2, t1))) }",
            [17, 8, 12, 2, 5],
        ),
    ]
}

/// The published metrics for the 20 difference queries
/// (`wrong − correct` and `correct − wrong`), keyed by label.
fn diff_paper_metrics(label: &str) -> [usize; 5] {
    match label {
        "Q1A-Q1B" => [31, 11, 20, 6, 9],
        "Q1B-Q1A" => [31, 11, 20, 3, 3],
        "Q2A-Q2B" => [13, 6, 9, 1, 3],
        "Q2B-Q2A" => [13, 6, 9, 1, 3],
        "Q3A-Q3B" => [21, 10, 14, 4, 7],
        "Q3B-Q3A" => [21, 10, 14, 1, 2],
        "Q3A-Q3C" => [22, 11, 15, 3, 6],
        "Q3C-Q3A" => [22, 11, 15, 2, 5],
        "Q4A-Q4B" => [23, 11, 16, 3, 9],
        "Q4B-Q4A" => [23, 11, 16, 2, 5],
        "Q4A-Q4C" => [26, 11, 18, 3, 9],
        "Q4C-Q4A" => [26, 11, 18, 3, 6],
        "Q4A-Q4D" => [26, 11, 18, 2, 4],
        "Q4D-Q4A" => [26, 11, 18, 4, 11],
        "Q5A-Q5B" => [27, 11, 19, 3, 8],
        "Q5B-Q5A" => [27, 11, 19, 3, 9],
        "Q5A-Q5C" => [38, 11, 26, 7, 13],
        "Q5C-Q5A" => [38, 11, 26, 3, 8],
        "Q5A-Q5D" => [30, 10, 21, 4, 10],
        "Q5D-Q5A" => [30, 10, 21, 3, 8],
        other => panic!("unknown difference query {other}"),
    }
}

/// The full Beers workload: 35 queries (Table 4).
pub fn beers_queries() -> Vec<DatasetQuery> {
    let schema = beers_schema();
    let mut base: Vec<(String, QueryKind, Query, [usize; 5])> = Vec::new();
    for (name, kind, src, paper) in base_query_sources() {
        base.push((name.to_owned(), kind, q(&schema, name, src), paper));
    }
    let mut out: Vec<DatasetQuery> = base
        .iter()
        .map(|(name, kind, query, paper)| DatasetQuery::new(name, *kind, query.clone(), *paper))
        .collect();
    // Pair every wrong query with its standard query (Q<i>X pairs with
    // Q<i>A) and add both difference directions.
    for (name, kind, query, _) in &base {
        if *kind != QueryKind::Wrong {
            continue;
        }
        let std_name = format!("{}A", &name[..name.len() - 1]);
        let (_, _, std_q, _) = base
            .iter()
            .find(|(n, _, _, _)| *n == std_name)
            .expect("every wrong query has a standard partner");
        for (a, b, label) in [
            (std_q, query, format!("{std_name}-{name}")),
            (query, std_q, format!("{name}-{std_name}")),
        ] {
            let diff = a
                .difference(b)
                .unwrap_or_else(|e| panic!("difference {label}: {e}"))
                .with_label(&label);
            out.push(DatasetQuery::new(
                &label,
                QueryKind::Difference,
                diff,
                diff_paper_metrics(&label),
            ));
        }
    }
    out
}

/// The user-study queries of Table 3 (Q1 is the running example; Q2 pairs a
/// correct "drinkers frequenting The Edge who do not like Erdinger" query
/// with the wrong submission that selects beers instead).
pub fn user_study_queries() -> Vec<(String, Query, Query)> {
    let s = beers_schema();
    let q1_correct = q(
        &s,
        "US-Q1-correct",
        "{ (x1, b1) | exists d1, p1 . Serves(x1, b1, p1) and Likes(d1, b1) and d1 like 'Eve %' \
         and forall x2, p2 (not Serves(x2, b1, p2) or p1 >= p2) }",
    );
    let q1_wrong = q(
        &s,
        "US-Q1-wrong",
        "{ (x1, b1) | exists d1, p1, x2, p2 . Serves(x1, b1, p1) and Likes(d1, b1) \
         and d1 like 'Eve%' and Serves(x2, b1, p2) and p1 > p2 }",
    );
    let q2_correct = q(
        &s,
        "US-Q2-correct",
        "{ (d1) | exists t1 (Frequents(d1, 'The Edge', t1)) and exists a1 (Drinker(d1, a1)) \
         and not Likes(d1, 'Erdinger') }",
    );
    let q2_wrong = q(
        &s,
        "US-Q2-wrong",
        "{ (b1) | exists d1, p1 . Serves('Edge', b1, p1) and Likes(d1, b1) and d1 != 'Richard' }",
    );
    vec![
        ("US-Q1".to_owned(), q1_correct, q1_wrong),
        ("US-Q2".to_owned(), q2_correct, q2_wrong),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_drc::Metrics;

    #[test]
    fn workload_has_35_queries() {
        let qs = beers_queries();
        assert_eq!(qs.len(), 35);
        let correct = qs.iter().filter(|q| q.kind == QueryKind::Correct).count();
        let wrong = qs.iter().filter(|q| q.kind == QueryKind::Wrong).count();
        let diff = qs
            .iter()
            .filter(|q| q.kind == QueryKind::Difference)
            .count();
        assert_eq!((correct, wrong, diff), (5, 10, 20));
    }

    #[test]
    fn k0_satisfies_constraints() {
        let s = beers_schema();
        let k0 = beers_k0(&s);
        assert!(k0.satisfies_keys());
        assert!(k0.satisfies_foreign_keys());
        assert_eq!(k0.num_tuples(), 9);
    }

    #[test]
    fn k0_separates_q1_queries() {
        // QB−QA (≈ Q1B−Q1A modulo formulation) is non-empty on K0.
        let s = beers_schema();
        let k0 = beers_k0(&s);
        let qs = beers_queries();
        let q1b_q1a = &qs.iter().find(|q| q.name == "Q1B-Q1A").unwrap().query;
        assert!(cqi_eval::satisfies(q1b_q1a, &k0));
        let q1a_q1b = &qs.iter().find(|q| q.name == "Q1A-Q1B").unwrap().query;
        assert!(!cqi_eval::satisfies(q1a_q1b, &k0));
    }

    #[test]
    fn metrics_are_computable_for_all() {
        for dq in beers_queries() {
            let m = Metrics::of(&dq.query);
            assert!(m.size > 0 && m.atoms > 0, "{}", dq.name);
            // Difference queries must be at least as complex as their
            // operands were in the paper.
            if dq.kind == QueryKind::Difference {
                assert!(m.quantifiers >= 4, "{}", dq.name);
            }
        }
    }

    #[test]
    fn ours_vs_paper_metrics_correlate() {
        // Exact node counts differ (representation details), but the
        // ordering by size should broadly agree: compare rank correlation
        // loosely via monotone checks on a few anchor pairs.
        let qs = beers_queries();
        let get = |n: &str| {
            let dq = qs.iter().find(|q| q.name == n).unwrap();
            (Metrics::of(&dq.query).size, dq.paper.size)
        };
        let (ours_small, paper_small) = get("Q2A");
        let (ours_big, paper_big) = get("Q5A-Q5C");
        assert!(ours_small < ours_big);
        assert!(paper_small < paper_big);
    }

    #[test]
    fn user_study_queries_parse() {
        let us = user_study_queries();
        assert_eq!(us.len(), 2);
        // Q2's wrong query returns beers, not drinkers: both are arity 1.
        assert_eq!(us[1].1.out_vars.len(), 1);
        assert_eq!(us[1].2.out_vars.len(), 1);
    }
}
