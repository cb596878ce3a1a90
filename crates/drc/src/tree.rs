//! Syntax trees (Definition 2) with stable leaf identities.
//!
//! A [`LeafId`] names one DRC atom (leaf) of a query's syntax tree, in DFS
//! (left-to-right) order. A [`Coverage`] — the central object of the paper —
//! is simply a set of `LeafId`s.

use std::collections::BTreeSet;
use std::fmt;

use crate::ast::{Atom, Formula, Query};

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
}
