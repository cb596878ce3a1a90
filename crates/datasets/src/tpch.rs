//! The TPC-H workload (Table 5): Q4, Q16, Q19, Q21 with aggregates dropped,
//! two wrong variants each, plus the 16 difference queries — 28 in total.
//!
//! Transcription notes (kept faithful to Table 5):
//! * dates are `yyyymmdd` integers, exactly as the paper's DRC does
//!   (`19930701 ≤ o6 ∧ o6 < 19931001`);
//! * `∗` positions are don't-care wildcards;
//! * the Q16 comment patterns use the paper's `'%complain,'` vs
//!   `'%complain '` contrast (the wrong query differs only in the trailing
//!   character of the pattern);
//! * attribute domains are unified with `same_domain` declarations rather
//!   than enforced foreign keys: the paper states natural FKs only for the
//!   Beers schema, and enforcing referential repair on 16-ary `lineitem`
//!   tuples would re-define the size measure `|I|` that Table 5's
//!   `limit = 15` experiments rely on.

use std::sync::Arc;

use cqi_drc::parse_query;
use cqi_schema::{DomainType, Schema};

use crate::{DatasetQuery, QueryKind};

/// The TPC-H schema restricted to the relations the four queries touch.
pub fn tpch_schema() -> Arc<Schema> {
    use DomainType::{Int, Real, Text};
    Arc::new(
        Schema::builder()
            .relation(
                "part",
                &[
                    ("p_partkey", Int),
                    ("p_name", Text),
                    ("p_mfgr", Text),
                    ("p_brand", Text),
                    ("p_type", Text),
                    ("p_size", Int),
                    ("p_container", Text),
                    ("p_retailprice", Real),
                    ("p_comment", Text),
                ],
            )
            .relation(
                "supplier",
                &[
                    ("s_suppkey", Int),
                    ("s_name", Text),
                    ("s_address", Text),
                    ("s_nationkey", Int),
                    ("s_phone", Text),
                    ("s_acctbal", Real),
                    ("s_comment", Text),
                ],
            )
            .relation(
                "partsupp",
                &[
                    ("ps_partkey", Int),
                    ("ps_suppkey", Int),
                    ("ps_availqty", Int),
                    ("ps_supplycost", Real),
                    ("ps_comment", Text),
                ],
            )
            .relation(
                "orders",
                &[
                    ("o_orderkey", Int),
                    ("o_custkey", Int),
                    ("o_orderstatus", Text),
                    ("o_totalprice", Real),
                    ("o_orderdate", Int),
                    ("o_orderpriority", Text),
                    ("o_clerk", Text),
                    ("o_shippriority", Int),
                    ("o_comment", Text),
                ],
            )
            .relation(
                "lineitem",
                &[
                    ("l_orderkey", Int),
                    ("l_partkey", Int),
                    ("l_suppkey", Int),
                    ("l_linenumber", Int),
                    ("l_quantity", Int),
                    ("l_extendedprice", Real),
                    ("l_discount", Real),
                    ("l_tax", Real),
                    ("l_returnflag", Text),
                    ("l_linestatus", Text),
                    ("l_shipdate", Int),
                    ("l_commitdate", Int),
                    ("l_receiptdate", Int),
                    ("l_shipinstruct", Text),
                    ("l_shipmode", Text),
                    ("l_comment", Text),
                ],
            )
            .relation(
                "nation",
                &[
                    ("n_nationkey", Int),
                    ("n_name", Text),
                    ("n_regionkey", Int),
                    ("n_comment", Text),
                ],
            )
            .same_domain(("lineitem", "l_orderkey"), ("orders", "o_orderkey"))
            .same_domain(("lineitem", "l_partkey"), ("part", "p_partkey"))
            .same_domain(("lineitem", "l_suppkey"), ("supplier", "s_suppkey"))
            .same_domain(("partsupp", "ps_partkey"), ("part", "p_partkey"))
            .same_domain(("partsupp", "ps_suppkey"), ("supplier", "s_suppkey"))
            .same_domain(("supplier", "s_nationkey"), ("nation", "n_nationkey"))
            .build()
            .expect("tpch schema is well-formed"),
    )
}

/// Source text of the 4 correct + 8 wrong TPC-H queries (Table 5).
pub fn base_query_sources() -> Vec<(&'static str, QueryKind, &'static str, [usize; 5])> {
    vec![
        (
            "TQ4A",
            QueryKind::Correct,
            "{ (o1, o2) | exists o3, o6 (orders(o1, o3, *, *, o6, o2, *, *, *) and (19930701 <= o6 and o6 < 19931001)) \
             and exists l2, l3, l12, l13 (lineitem(o1, l2, l3, *, *, *, *, *, *, *, *, l12, l13, *, *, *) and l12 < l13) }",
            [17, 9, 12, 0, 0],
        ),
        (
            "TQ4B",
            QueryKind::Wrong,
            "{ (o1, o2) | exists o3, o6 (orders(o1, o3, *, *, o6, o2, *, *, *) and (19930701 <= o6 and o6 < 19931001)) \
             and exists l2, l3, l12, l13 (lineitem(o1, l2, l3, *, *, *, *, *, *, *, *, l12, l13, *, *, *) and l13 < l12) }",
            [17, 9, 12, 0, 0],
        ),
        (
            "TQ4C",
            QueryKind::Wrong,
            "{ (o1, o2) | exists o3, o6 (orders(o1, o3, *, *, o6, o2, *, *, *) and (19930701 <= o6 and o6 < 19931001)) \
             and not exists l2, l3, l12, l13 (lineitem(o1, l2, l3, *, *, *, *, *, *, *, *, l12, l13, *, *, *) and l12 < l13) }",
            [17, 9, 12, 1, 5],
        ),
        (
            "TQ16A",
            QueryKind::Correct,
            "{ (p4, p5, p6, ps2) | exists p1 (exists p2 ((part(p1, p2, *, p4, p5, p6, *, *, *) and (49 = p6 or 14 = p6)) \
             and ('Brand#45' != p4 and p5 like 'MEDIUM POLISHED%')) \
             and (partsupp(p1, ps2, *, *, *) \
             and not exists s7 (supplier(ps2, *, *, *, *, *, s7) and s7 like '%complain,'))) }",
            [22, 11, 14, 2, 2],
        ),
        (
            "TQ16B",
            QueryKind::Wrong,
            "{ (p4, p5, p6, ps2) | exists p1 (exists p2 ((part(p1, p2, *, p4, p5, p6, *, *, *) and (49 = p6 or 14 = p6)) \
             and ('Brand#45' != p4 and p5 like 'MEDIUM POLISHED%')) \
             and (partsupp(p1, ps2, *, *, *) \
             and not exists s7 (supplier(ps2, *, *, *, *, *, s7) and s7 like '%complain '))) }",
            [22, 11, 14, 2, 2],
        ),
        (
            "TQ16C",
            QueryKind::Wrong,
            "{ (p4, p5, p6, ps2) | exists p1 (exists p2 ((part(p1, p2, *, p4, p5, p6, *, *, *) and (49 = p6 or 14 = p6)) \
             and ('Brand#45' != p4 and p5 like 'MEDIUM POLISHED%')) \
             and (partsupp(p1, ps2, *, *, *) \
             and exists s7 (supplier(ps2, *, *, *, *, *, s7) and not (s7 like '%complain,')))) }",
            [22, 11, 14, 1, 0],
        ),
        (
            "TQ19A",
            QueryKind::Correct,
            "{ (l6, l7) | exists l1, l2, l4, l5, p4, p6, p7 \
             ((lineitem(l1, l2, *, l4, l5, l6, l7, *, *, *, *, *, *, 'DELIVER IN PERSON', 'AIR', *) \
             and part(l2, *, *, p4, *, p6, p7, *, *)) \
             and ((('Brand#12' = p4 and p7 like 'SM%') and (l5 <= 11 and p6 <= 5)) \
             or (('Brand#23' = p4 and p7 like 'MED%') and ((10 <= l5 and l5 <= 20) and p6 <= 10)))) }",
            [31, 16, 20, 1, 0],
        ),
        (
            "TQ19B",
            QueryKind::Wrong,
            "{ (l6, l7) | exists l1, l2, l4, l5, p4, p6, p7 \
             ((lineitem(l1, l2, *, l4, l5, l6, l7, *, *, *, *, *, *, 'DELIVER IN PERSON', 'AIR', *) \
             and part(l2, *, *, p4, *, p6, p7, *, *)) \
             and ((('Brand#12' = p4 and p7 like 'SM%') and (l5 <= 10 and p6 <= 5)) \
             or (('Brand#234' = p4 and p7 like 'MED%') and (l5 <= 20 and p6 <= 10)))) }",
            [29, 15, 19, 1, 0],
        ),
        (
            "TQ19C",
            QueryKind::Wrong,
            "{ (l6, l7) | exists l1, l2, l4, l5, p4, p6, p7 \
             ((lineitem(l1, l2, *, l4, l5, l6, l7, *, *, *, *, *, *, 'DELIVER IN PERSON', 'AIR', *) \
             and part(l2, *, *, p4, *, p6, p7, *, *)) \
             and (('Brand#12' = p4 and p7 like 'SM%') and (l5 <= 11 and p6 <= 5))) }",
            [21, 14, 15, 0, 0],
        ),
        (
            "TQ21A",
            QueryKind::Correct,
            "{ (s1, s2, o1) | (exists l12, l13 (lineitem(o1, *, s1, *, *, *, *, *, *, *, *, l12, l13, *, *, *) and l12 < l13) \
             and exists ll3, ll12, ll13 (lineitem(o1, *, ll3, *, *, *, *, *, *, *, *, ll12, ll13, *, *, *) and ll3 != s1)) \
             and ((orders(o1, *, 'F', *, *, *, *, *, *) and exists s4 (supplier(s1, s2, *, s4, *, *, *) \
             and nation(s4, 'SAUDI ARABIA', *, *))) \
             and not exists lll3, lll12, lll13 (lineitem(o1, *, lll3, *, *, *, *, *, *, *, *, lll12, lll13, *, *, *) \
             and (lll12 < lll13 and lll3 != s1))) }",
            [31, 11, 21, 2, 4],
        ),
        (
            "TQ21B",
            QueryKind::Wrong,
            "{ (s1, s2, o1) | (exists l12, l13 (lineitem(o1, *, s1, *, *, *, *, *, *, *, *, l12, l13, *, *, *) and l12 < l13) \
             and (orders(o1, *, 'F', *, *, *, *, *, *) and exists s4 (supplier(s1, s2, *, s4, *, *, *) \
             and nation(s4, 'SAUDI ARABIA', *, *)))) \
             and exists lll3, lll12, lll13 (lineitem(o1, *, lll3, *, *, *, *, *, *, *, *, lll12, lll13, *, *, *) \
             and (lll13 <= lll12 and lll3 != s1)) }",
            [24, 10, 16, 0, 0],
        ),
        (
            "TQ21C",
            QueryKind::Wrong,
            "{ (s1, s2, o1) | exists l12, l13 (lineitem(o1, *, s1, *, *, *, *, *, *, *, *, l12, l13, *, *, *) and l12 < l13) \
             and (exists o3 (orders(o1, *, o3, *, *, *, *, *, *)) and exists s4 (supplier(s1, s2, *, s4, *, *, *) \
             and nation(s4, 'SAUDI ARABIA', *, *))) }",
            [16, 8, 11, 0, 0],
        ),
    ]
}

fn diff_paper_metrics(label: &str) -> [usize; 5] {
    match label {
        "TQ4A-TQ4B" => [33, 10, 23, 4, 8],
        "TQ4B-TQ4A" => [33, 10, 23, 4, 8],
        "TQ4A-TQ4C" => [33, 10, 23, 3, 3],
        "TQ4C-TQ4A" => [33, 10, 23, 5, 13],
        "TQ16A-TQ16B" => [41, 12, 25, 7, 6],
        "TQ16B-TQ16A" => [41, 12, 25, 7, 6],
        "TQ16A-TQ16C" => [41, 12, 25, 8, 8],
        "TQ16C-TQ16A" => [41, 12, 25, 6, 4],
        "TQ19A-TQ19B" => [59, 17, 38, 9, 9],
        "TQ19B-TQ19A" => [59, 17, 38, 10, 9],
        "TQ19A-TQ19C" => [51, 17, 34, 6, 9],
        "TQ19C-TQ19A" => [51, 17, 34, 9, 9],
        "TQ21A-TQ21B" => [53, 12, 35, 9, 13],
        "TQ21B-TQ21A" => [53, 12, 35, 7, 9],
        "TQ21A-TQ21C" => [45, 12, 30, 6, 10],
        "TQ21C-TQ21A" => [45, 12, 30, 7, 9],
        other => panic!("unknown difference query {other}"),
    }
}

/// The full TPC-H workload: 28 queries (Table 5).
pub fn tpch_queries() -> Vec<DatasetQuery> {
    let schema = tpch_schema();
    let mut base: Vec<(String, QueryKind, cqi_drc::Query, [usize; 5])> = Vec::new();
    for (name, kind, src, paper) in base_query_sources() {
        let q = parse_query(&schema, src)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .with_label(name);
        base.push((name.to_owned(), kind, q, paper));
    }
    let mut out: Vec<DatasetQuery> = base
        .iter()
        .map(|(name, kind, query, paper)| DatasetQuery::new(name, *kind, query.clone(), *paper))
        .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_drc::Metrics;

    #[test]
    fn workload_has_28_queries() {
        let qs = tpch_queries();
        assert_eq!(qs.len(), 28);
        let correct = qs.iter().filter(|q| q.kind == QueryKind::Correct).count();
        let wrong = qs.iter().filter(|q| q.kind == QueryKind::Wrong).count();
        let diff = qs
            .iter()
            .filter(|q| q.kind == QueryKind::Difference)
            .count();
        assert_eq!((correct, wrong, diff), (4, 8, 16));
    }

    #[test]
    fn schema_unifies_join_domains() {
        let s = tpch_schema();
        let li = s.rel_id("lineitem").unwrap();
        let ord = s.rel_id("orders").unwrap();
        assert_eq!(s.attr_domain(li, 0), s.attr_domain(ord, 0));
        let sup = s.rel_id("supplier").unwrap();
        let nat = s.rel_id("nation").unwrap();
        assert_eq!(s.attr_domain(sup, 3), s.attr_domain(nat, 0));
    }

    #[test]
    fn tpch_is_more_complex_than_beers_on_average() {
        // Table 1's headline contrast.
        let t_mean: f64 = tpch_queries()
            .iter()
            .map(|q| Metrics::of(&q.query).quantifiers as f64)
            .sum::<f64>()
            / 28.0;
        let b_mean: f64 = crate::beers_queries()
            .iter()
            .map(|q| Metrics::of(&q.query).quantifiers as f64)
            .sum::<f64>()
            / 35.0;
        assert!(t_mean > b_mean, "tpch {t_mean} vs beers {b_mean}");
    }

    #[test]
    fn wildcards_present_in_atoms() {
        let qs = tpch_queries();
        let q4a = &qs[0].query;
        let mut wilds = 0;
        q4a.formula.for_each_atom(&mut |a| {
            if let cqi_drc::Atom::Rel { terms, .. } = a {
                wilds += terms
                    .iter()
                    .filter(|t| matches!(t, cqi_drc::Term::Wildcard))
                    .count();
            }
        });
        assert!(wilds >= 10, "Q4A has many don't-care positions: {wilds}");
    }
}
