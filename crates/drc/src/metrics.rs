//! Query complexity metrics (§5.1).
//!
//! The paper evaluates scalability against four measures of a query's syntax
//! tree: (1) number of nodes, (2) height, (3) number of universal
//! quantifiers plus disjunctions below a universal quantifier, and (4) total
//! number of quantifiers. We compute them on the *closed* tree — the output
//! variables are existentially closed first, exactly as `Tree-SAT`
//! (Algorithm 7, lines 1–3) does — and count single-variable quantifier
//! nodes. This reproduces the relative ordering of Tables 4/5; the paper's
//! absolute numbers came from its own implementation's representation, so
//! `cqi-datasets` additionally records the published values for side-by-side
//! reporting.

use crate::ast::{Formula, Query};

/// Complexity measures of one query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Measure (1): nodes in the closed syntax tree (leaves + connectives +
    /// single-variable quantifier nodes).
    pub size: usize,
    /// Measure (2): length (in nodes) of the longest root-to-leaf path.
    pub height: usize,
    /// Measure (4): `#∀ + #∃`.
    pub quantifiers: usize,
    pub existentials: usize,
    pub foralls: usize,
    /// Number of `∨` nodes.
    pub ors: usize,
    /// Measure (3): `#∀ + #(∨ below a ∀)`.
    pub or_below_forall_plus_forall: usize,
    /// Number of leaves (DRC atoms).
    pub atoms: usize,
}

impl Metrics {
    /// Computes the metrics for `q` on its existentially closed tree.
    pub fn of(q: &Query) -> Metrics {
        let mut m = Metrics::default();
        let (size, height) = walk(&q.formula, false, &mut m);
        // Close output variables with ∃ nodes.
        m.size = size + q.out_vars.len();
        m.height = height + q.out_vars.len();
        m.quantifiers = m.existentials + m.foralls + q.out_vars.len();
        m.existentials += q.out_vars.len();
        m
    }

    /// Metrics of a bare formula (no closure).
    pub fn of_formula(f: &Formula) -> Metrics {
        let mut m = Metrics::default();
        let (size, height) = walk(f, false, &mut m);
        m.size = size;
        m.height = height;
        m.quantifiers = m.existentials + m.foralls;
        m
    }
}

/// Returns (subtree node count, subtree height in nodes) while accumulating
/// counters into `m`. `below_forall` tracks measure (3)'s context.
fn walk(f: &Formula, below_forall: bool, m: &mut Metrics) -> (usize, usize) {
    match f {
        Formula::Atom(_) => {
            m.atoms += 1;
            (1, 1)
        }
        Formula::And(l, r) => {
            let (sl, hl) = walk(l, below_forall, m);
            let (sr, hr) = walk(r, below_forall, m);
            (sl + sr + 1, hl.max(hr) + 1)
        }
        Formula::Or(l, r) => {
            m.ors += 1;
            if below_forall {
                m.or_below_forall_plus_forall += 1;
            }
            let (sl, hl) = walk(l, below_forall, m);
            let (sr, hr) = walk(r, below_forall, m);
            (sl + sr + 1, hl.max(hr) + 1)
        }
        Formula::Exists(_, b) => {
            m.existentials += 1;
            let (s, h) = walk(b, below_forall, m);
            (s + 1, h + 1)
        }
        Formula::Forall(_, b) => {
            m.foralls += 1;
            m.or_below_forall_plus_forall += 1;
            let (s, h) = walk(b, true, m);
            (s + 1, h + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use cqi_schema::{DomainType, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
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
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn simple_query_metrics() {
        let q = parse_query(
            &schema(),
            "{ (x1, b1) | exists p1 (Serves(x1, b1, p1) and forall x2, p2 (not Serves(x2, b1, p2) or p2 <= p1)) }",
        )
        .unwrap();
        let m = Metrics::of(&q);
        assert_eq!(m.atoms, 3);
        // Nodes: 3 leaves + 1 and + 1 or + ∃p1 + ∀x2 + ∀p2 = 8, closed +2 = 10.
        assert_eq!(m.size, 10);
        assert_eq!(m.foralls, 2);
        // 1 ∨ below ∀ + 2 ∀ = 3.
        assert_eq!(m.or_below_forall_plus_forall, 3);
        // 1 ∃ + 2 ∀ + 2 closure = 5... quantifiers counts all.
        assert_eq!(m.quantifiers, 5);
        // Longest path: ∃x1 ∃b1 ∃p1 ∧ ∀x2 ∀p2 ∨ leaf = 8 nodes.
        assert_eq!(m.height, 8);
    }

    #[test]
    fn or_outside_forall_not_counted_in_measure3() {
        let q = parse_query(
            &schema(),
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) or exists d1 (Likes(d1, b1)) }",
        )
        .unwrap();
        let m = Metrics::of(&q);
        assert_eq!(m.ors, 1);
        assert_eq!(m.or_below_forall_plus_forall, 0);
    }

    #[test]
    fn formula_metrics_without_closure() {
        let q = parse_query(&schema(), "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) }").unwrap();
        let m = Metrics::of_formula(&q.formula);
        assert_eq!(m.size, 3); // ∃x1 ∃p1 leaf
        assert_eq!(m.quantifiers, 2);
        let mq = Metrics::of(&q);
        assert_eq!(mq.size, 4);
        assert_eq!(mq.quantifiers, 3);
    }
}
