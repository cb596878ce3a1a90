//! Conversion of syntax trees with `∨` into sets of `∨`-free
//! ("conjunctive") trees (§4.3).
//!
//! `Q1 ∨ Q2` expands to the three cases `{Q1 ∧ Q2, ¬Q1 ∧ Q2, Q1 ∧ ¬Q2}`.
//! As the paper stresses (Example 10/11), this conversion is **not**
//! equivalence-preserving under quantifiers — only soundness
//! (`converted ⇒ original`) holds — which is exactly the
//! completeness-for-speed trade the `Conj-*` variants make.
//!
//! Duplicate trees are pruned by structure (hashing and `Eq`), not by
//! rendering each tree. The chase compiles each surviving tree once per
//! request, and `Handle-Disjunction`'s three cases of each `∨` node once
//! per request, into node tables (the crate's `compiled` module).

use std::collections::HashSet;

use cqi_drc::normalize::negate;
use cqi_drc::Formula;

/// The single-node expansion used by `Handle-Disjunction` (Algorithm 4):
/// the root `∨` becomes three `∧` trees (negations pushed to leaves);
/// nested disjunctions are left in place for later recursion.
pub fn expand_disj_node(l: &Formula, r: &Formula) -> [Formula; 3] {
    [
        Formula::and(l.clone(), r.clone()),
        Formula::and(negate(l.clone()), r.clone()),
        Formula::and(l.clone(), negate(r.clone())),
    ]
}

/// Whole-tree conversion (the `Conj-*` variants): every `∨` *of the
/// original tree* is expanded into its three cases. Disjunctions that the
/// case-negations themselves introduce (De Morgan over an `∧`, or a negated
/// `∃`-block) are left in place, exactly as the paper's Example 11 does —
/// its second converted formula retains `∀x3,p4 (¬Serves ∨ p3 ≥ p4)`; the
/// residual `∨`s are handled by `Handle-Disjunction` during the chase.
/// Duplicate trees are pruned, the first of each kept: trees compare by
/// structure (`Formula`'s `Eq`), so `R64`'s `0.0` and `-0.0` are one
/// constant, while `Int(2)` and `Real(2.0)` stay two (a redundant root
/// costs time, never an answer).
pub fn conjunctive_trees(f: &Formula) -> Vec<Formula> {
    dedupe(convert(f))
}

/// Keeps the first of every group of equal trees, in order.
fn dedupe(mut trees: Vec<Formula>) -> Vec<Formula> {
    let keep: Vec<bool> = {
        let mut seen = HashSet::with_capacity(trees.len());
        trees.iter().map(|t| seen.insert(t)).collect()
    };
    let mut keep = keep.into_iter();
    trees.retain(|_| keep.next() == Some(true));
    trees
}

fn convert(f: &Formula) -> Vec<Formula> {
    match f {
        Formula::Atom(_) => vec![f.clone()],
        Formula::And(l, r) => {
            let ls = convert(l);
            let rs = convert(r);
            let mut out = Vec::with_capacity(ls.len() * rs.len());
            for lt in &ls {
                for rt in &rs {
                    out.push(Formula::and(lt.clone(), rt.clone()));
                }
            }
            out
        }
        Formula::Or(l, r) => {
            let ls = convert(l);
            let rs = convert(r);
            let nl = negate((**l).clone());
            let nr = negate((**r).clone());
            let mut out = Vec::new();
            // Q1 ∧ Q2
            for lt in &ls {
                for rt in &rs {
                    out.push(Formula::and(lt.clone(), rt.clone()));
                }
            }
            // ¬Q1 ∧ Q2 (the negated side stays whole)
            for rt in &rs {
                out.push(Formula::and(nl.clone(), rt.clone()));
            }
            // Q1 ∧ ¬Q2
            for lt in &ls {
                out.push(Formula::and(lt.clone(), nr.clone()));
            }
            out
        }
        Formula::Exists(v, b) => convert(b)
            .into_iter()
            .map(|t| Formula::Exists(*v, Box::new(t)))
            .collect(),
        Formula::Forall(v, b) => convert(b)
            .into_iter()
            .map(|t| Formula::Forall(*v, Box::new(t)))
            .collect(),
    }
}

/// Is the tree free of `∨` nodes?
pub fn is_or_free(f: &Formula) -> bool {
    match f {
        Formula::Atom(_) => true,
        Formula::Or(..) => false,
        Formula::And(l, r) => is_or_free(l) && is_or_free(r),
        Formula::Exists(_, b) | Formula::Forall(_, b) => is_or_free(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_datasets::{beers_queries, tpch_queries};
    use cqi_drc::{parse_query, Atom, CmpOp, Term, VarId};
    use cqi_schema::{DomainType, Schema, Value};
    use std::sync::Arc;

    /// The dedupe `conjunctive_trees` ran before it compared trees by
    /// structure: by their Debug strings.
    fn dedupe_by_debug(mut trees: Vec<Formula>) -> Vec<Formula> {
        let mut seen = HashSet::new();
        trees.retain(|t| seen.insert(format!("{t:?}")));
        trees
    }

    #[test]
    fn structural_dedupe_keeps_the_debug_reference_trees() {
        let mut total = 0;
        let queries: Vec<_> = beers_queries().into_iter().chain(tpch_queries()).collect();
        for dq in &queries {
            let trees = convert(&dq.query.formula);
            total += trees.len();
            assert_eq!(dedupe(trees.clone()), dedupe_by_debug(trees), "{}", dq.name);
        }
        assert!(total > queries.len(), "the dataset has ∨ nodes to expand");
    }

    #[test]
    fn signed_zeros_are_one_constant_and_int_and_real_are_two() {
        // Debug prints `0.0` and `-0.0` apart, and `2` and `2.0` alike.
        let leaf = |c: Value| {
            Formula::Atom(Atom::Cmp {
                negated: false,
                lhs: Term::Var(VarId(0)),
                op: CmpOp::Lt,
                rhs: Term::Const(c),
            })
        };
        let zeros = vec![leaf(Value::real(0.0)), leaf(Value::real(-0.0))];
        assert_eq!(dedupe(zeros.clone()), vec![leaf(Value::real(0.0))]);
        assert_eq!(dedupe_by_debug(zeros).len(), 2);
        let twos = vec![leaf(Value::Int(2)), leaf(Value::real(2.0))];
        assert_eq!(dedupe(twos.clone()), twos);
        assert_eq!(dedupe_by_debug(twos).len(), 1);
    }

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
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn single_or_gives_three_trees() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (x1, b1) | exists p1 (Serves(x1, b1, p1) and forall x2, p2 (not Serves(x2, b1, p2) or p2 <= p1)) }",
        )
        .unwrap();
        let trees = conjunctive_trees(&q.formula);
        assert_eq!(trees.len(), 3);
        assert!(trees.iter().all(is_or_free));
    }

    #[test]
    fn negated_and_keeps_residual_or() {
        // (a ∧ b) ∨ c: the ¬(a ∧ b) case keeps ¬a ∨ ¬b in place (Example
        // 11's behaviour) for Handle-Disjunction to process at chase time.
        let s = schema();
        let q = parse_query(
            &s,
            "{ (x1) | exists b1, p1 ((Serves(x1, b1, p1) and p1 > 2.0) or p1 < 1.0) }",
        )
        .unwrap();
        let trees = conjunctive_trees(&q.formula);
        assert_eq!(trees.len(), 3);
        assert!(trees.iter().any(|t| !is_or_free(t)), "¬(a∧b) retains an ∨");
    }

    #[test]
    fn or_chain_counts() {
        // A 3-disjunct chain yields 7 trees (3 per ∨ without recursive
        // blow-up of the negated blocks).
        let s = schema();
        let q = parse_query(
            &s,
            "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0 or p1 = 2.0)) }",
        )
        .unwrap();
        let trees = conjunctive_trees(&q.formula);
        assert_eq!(trees.len(), 7);
    }

    #[test]
    fn or_free_tree_is_unchanged() {
        let s = schema();
        let q = parse_query(&s, "{ (x1) | exists b1, p1 (Serves(x1, b1, p1)) }").unwrap();
        let trees = conjunctive_trees(&q.formula);
        assert_eq!(trees.len(), 1);
        assert_eq!(format!("{:?}", trees[0]), format!("{:?}", q.formula));
    }

    #[test]
    fn expand_node_shapes() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 2.0 or p1 < 1.0)) }",
        )
        .unwrap();
        // Find the Or node.
        fn find_or(f: &Formula) -> Option<(&Formula, &Formula)> {
            match f {
                Formula::Or(l, r) => Some((l, r)),
                Formula::And(l, r) => find_or(l).or_else(|| find_or(r)),
                Formula::Exists(_, b) | Formula::Forall(_, b) => find_or(b),
                Formula::Atom(_) => None,
            }
        }
        let (l, r) = find_or(&q.formula).unwrap();
        let cases = expand_disj_node(l, r);
        assert!(cases.iter().all(|c| matches!(c, Formula::And(..))));
    }
}
