//! Syntax trees (Definition 2) with stable leaf identities.
//!
//! A [`LeafId`] names one DRC atom (leaf) of a query's syntax tree, in DFS
//! (left-to-right) order. A [`Coverage`] — the central object of the paper —
//! is simply a set of `LeafId`s.

use std::collections::BTreeSet;
use std::fmt;

use crate::ast::{Atom, Formula, Query, VarId};

/// Index of a leaf (DRC atom) in DFS order over the query's syntax tree.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeafId(pub u32);

impl LeafId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LeafId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A set of covered leaves (the coverage `C` of Definitions 7/8).
pub type Coverage = BTreeSet<LeafId>;

/// A query together with its enumerated leaves. The tree structure *is* the
/// query formula; this wrapper caches the leaf atoms and provides indexed
/// traversal so that the chase and the coverage computation agree on leaf
/// identity.
#[derive(Clone, Debug)]
pub struct SyntaxTree {
    query: Query,
    leaves: Vec<Atom>,
}

impl SyntaxTree {
    pub fn new(query: Query) -> SyntaxTree {
        let mut leaves = Vec::new();
        query.formula.for_each_atom(&mut |a| leaves.push(a.clone()));
        SyntaxTree { query, leaves }
    }

    pub fn query(&self) -> &Query {
        &self.query
    }

    pub fn formula(&self) -> &Formula {
        &self.query.formula
    }

    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    pub fn leaf(&self, id: LeafId) -> &Atom {
        &self.leaves[id.index()]
    }

    pub fn leaves(&self) -> impl Iterator<Item = (LeafId, &Atom)> {
        self.leaves
            .iter()
            .enumerate()
            .map(|(i, a)| (LeafId(i as u32), a))
    }

    /// The full coverage (every leaf).
    pub fn full_coverage(&self) -> Coverage {
        (0..self.leaves.len() as u32).map(LeafId).collect()
    }

    /// Visits the formula bottom-up, handing each leaf its `LeafId`.
    pub fn walk_leaves(&self, f: &mut impl FnMut(LeafId, &Atom)) {
        let mut next = 0u32;
        self.query.formula.for_each_atom(&mut |a| {
            f(LeafId(next), a);
            next += 1;
        });
    }
}

/// Traverses `formula` assigning DFS leaf ids; utility shared with the
/// coverage computation in `cqi-core` which recurses over transformed trees
/// but must report original ids.
pub fn leaf_ids_in_order(formula: &Formula) -> Vec<(LeafId, Atom)> {
    let mut out = Vec::new();
    formula.for_each_atom(&mut |a| {
        out.push((LeafId(out.len() as u32), a.clone()));
    });
    out
}

/// A formula paired with the DFS leaf-id offset of its first leaf — the
/// representation the chase recurses over so every sub-recursion still knows
/// the *original* ids of its leaves.
#[derive(Clone, Debug)]
pub struct IdFormula {
    pub formula: Formula,
    /// `ids[i]` is the original leaf id of the i-th leaf (DFS) of `formula`,
    /// or `None` for leaves synthesized by tree transformations (negated
    /// copies introduced by the ∨-expansion do not cover original leaves).
    pub ids: Vec<Option<LeafId>>,
}

impl IdFormula {
    /// Wraps a whole-query formula: leaf ids are `0..n`.
    pub fn root(formula: Formula) -> IdFormula {
        let mut n = 0u32;
        let mut ids = Vec::new();
        formula.for_each_atom(&mut |_| {
            ids.push(Some(LeafId(n)));
            n += 1;
        });
        IdFormula { formula, ids }
    }

    pub fn num_leaves(&self) -> usize {
        self.ids.len()
    }

    /// Splits off the id slices for the two children of a binary node.
    pub fn split_binary(&self) -> (IdFormula, IdFormula) {
        match &self.formula {
            Formula::And(l, r) | Formula::Or(l, r) => {
                let mut nl = 0usize;
                l.for_each_atom(&mut |_| nl += 1);
                let left = IdFormula {
                    formula: (**l).clone(),
                    ids: self.ids[..nl].to_vec(),
                };
                let right = IdFormula {
                    formula: (**r).clone(),
                    ids: self.ids[nl..].to_vec(),
                };
                (left, right)
            }
            _ => panic!("split_binary on non-binary node"),
        }
    }

    /// Unwraps a quantifier node, keeping ids.
    pub fn child(&self) -> (VarId, IdFormula) {
        match &self.formula {
            Formula::Exists(v, b) | Formula::Forall(v, b) => (
                *v,
                IdFormula {
                    formula: (**b).clone(),
                    ids: self.ids.clone(),
                },
            ),
            _ => panic!("child() on non-quantifier node"),
        }
    }

    /// NNF-negates the formula. Negated leaves no longer cover their
    /// original ids (the ∨-expansion's `¬Q1 ∧ Q2` case).
    pub fn negate(&self) -> IdFormula {
        IdFormula {
            formula: crate::normalize::negate(self.formula.clone()),
            ids: vec![None; self.ids.len()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use cqi_schema::{DomainType, Schema};
    use std::sync::Arc;

    fn tree() -> SyntaxTree {
        let s = Arc::new(
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
        );
        let q = parse_query(
            &s,
            "{ (x1, b1) | exists p1 (Serves(x1, b1, p1) and forall x2, p2 (not Serves(x2, b1, p2) or p2 <= p1)) }",
        )
        .unwrap();
        SyntaxTree::new(q)
    }

    #[test]
    fn leaves_enumerated_in_dfs_order() {
        let t = tree();
        assert_eq!(t.num_leaves(), 3);
        assert!(matches!(
            t.leaf(LeafId(0)),
            Atom::Rel { negated: false, .. }
        ));
        assert!(matches!(t.leaf(LeafId(1)), Atom::Rel { negated: true, .. }));
        assert!(matches!(t.leaf(LeafId(2)), Atom::Cmp { .. }));
    }

    #[test]
    fn full_coverage_has_all_leaves() {
        let t = tree();
        assert_eq!(t.full_coverage().len(), 3);
    }

    #[test]
    fn id_formula_split_preserves_ids() {
        let t = tree();
        // Root of the body is Exists p1 -> And(...)
        let root = IdFormula::root(t.formula().clone());
        let (_, body) = root.child();
        let (l, r) = body.split_binary();
        assert_eq!(l.ids, vec![Some(LeafId(0))]);
        assert_eq!(r.ids, vec![Some(LeafId(1)), Some(LeafId(2))]);
    }

    #[test]
    fn negated_id_formula_loses_origins() {
        let t = tree();
        let root = IdFormula::root(t.formula().clone());
        let n = root.negate();
        assert!(n.ids.iter().all(Option::is_none));
        assert_eq!(n.ids.len(), 3);
    }
}
