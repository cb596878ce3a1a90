//! The node table of one root formula: what `Tree-Chase-BFS` needs to know
//! about each sub-formula it re-enters, derived once per request instead of
//! on every chase step.
//!
//! Algorithm 1 re-enters the chase on sub-formulas thousands of times per
//! explain. A [`CompiledFormula`] holds, for every node of its formula:
//!
//! * the node's free variables, in exactly [`Formula::free_vars`] order —
//!   that order decides which labeled nulls `bind_free_vars` creates, and so
//!   the answers;
//! * whether the node is quantifier-free (the test `Tree-Chase`,
//!   Algorithm 2, dispatches on);
//! * built on first use: a bottom-up content key for the sub-BFS memo, the
//!   DNF of a quantifier-free node (`tree-to-conj`, Algorithm 2 line 3), and
//!   an `∨` node's three `Handle-Disjunction` cases (Algorithm 4), each
//!   compiled into a table of its own.
//!
//! The key is a content key, not an address: the sub-BFS memo outlives the
//! query, so equal sub-formulas of two parses share a key. The free
//! variables of all nodes live in one buffer, so compiling a formula fills
//! two vectors however large it is, and hashes nothing.
//!
//! One table serves every root job that chases its formula, the `*-Add`
//! re-seeds included, and the pool workers of a root fan-out, so it is
//! `Sync`: each lazy entry is a [`OnceLock`], and whichever worker fills it
//! first, every reader sees the same value. A table and the case tables
//! it grew are dropped with the request.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::OnceLock;

use cqi_drc::{Atom, Formula, Term, VarId};

use crate::conjtree::expand_disj_node;
use crate::dnf::tree_to_conj;

/// A root formula of a request with its node table (see the module docs).
pub struct CompiledFormula {
    formula: Formula,
    /// One entry per node, in preorder: an `∧`/`∨` node's first operand and
    /// a quantifier's body are the next entry.
    entries: Vec<Entry>,
    /// Every node's free variables, concatenated.
    free: Vec<VarId>,
}

struct Entry {
    /// This node's slice of [`CompiledFormula::free`].
    free: Range<usize>,
    /// Preorder index of an `∧`/`∨` node's second operand.
    second: usize,
    quantifier_free: bool,
    key: OnceLock<u64>,
    dnf: OnceLock<Vec<Vec<Atom>>>,
    cases: OnceLock<Box<[CompiledFormula; 3]>>,
}

impl CompiledFormula {
    /// Builds the table of `formula`: free variables and quantifier flags
    /// now, everything else on first use.
    pub fn new(formula: Formula) -> CompiledFormula {
        let mut entries = Vec::new();
        let mut free = Vec::new();
        push_node(&formula, &mut entries, &mut free);
        CompiledFormula {
            formula,
            entries,
            free,
        }
    }

    pub(crate) fn root(&self) -> Node<'_> {
        Node {
            table: self,
            formula: &self.formula,
            index: 0,
        }
    }
}

/// Appends the entries of `f`'s subtree in preorder and returns the index
/// of `f`'s own entry. Free variables compose bottom-up exactly as
/// [`Formula::free_vars`] collects them top-down: an atom's variables in
/// term order, a binary node's first operand's then the second's new ones,
/// a quantifier's body's minus its variable.
fn push_node(f: &Formula, entries: &mut Vec<Entry>, free: &mut Vec<VarId>) -> usize {
    let index = entries.len();
    entries.push(Entry {
        free: 0..0,
        second: 0,
        quantifier_free: false,
        key: OnceLock::new(),
        dnf: OnceLock::new(),
        cases: OnceLock::new(),
    });
    let (quantifier_free, second, start) = match f {
        Formula::Atom(a) => {
            let start = free.len();
            let mut push = |t: &Term| {
                if let Term::Var(v) = t {
                    if !free[start..].contains(v) {
                        free.push(*v);
                    }
                }
            };
            match a {
                Atom::Rel { terms, .. } => terms.iter().for_each(&mut push),
                Atom::Cmp { lhs, rhs, .. } => {
                    push(lhs);
                    push(rhs);
                }
            }
            (true, 0, start)
        }
        Formula::And(l, r) | Formula::Or(l, r) => {
            let first = push_node(l, entries, free);
            let second = push_node(r, entries, free);
            let (lf, rf) = (entries[first].free.clone(), entries[second].free.clone());
            let start = free.len();
            free.extend_from_within(lf.clone());
            for k in rf {
                let v = free[k];
                if !free[lf.clone()].contains(&v) {
                    free.push(v);
                }
            }
            let qf = entries[first].quantifier_free && entries[second].quantifier_free;
            (qf, second, start)
        }
        Formula::Exists(v, b) | Formula::Forall(v, b) => {
            let body = push_node(b, entries, free);
            let start = free.len();
            for k in entries[body].free.clone() {
                let u = free[k];
                if u != *v {
                    free.push(u);
                }
            }
            (false, 0, start)
        }
    };
    let entry = &mut entries[index];
    entry.free = start..free.len();
    entry.quantifier_free = quantifier_free;
    entry.second = second;
    index
}

/// A node of a [`CompiledFormula`]: one sub-formula and its table entry.
#[derive(Clone, Copy)]
pub(crate) struct Node<'c> {
    table: &'c CompiledFormula,
    formula: &'c Formula,
    index: usize,
}

/// A node's operator, with its operands as nodes.
pub(crate) enum Shape<'c> {
    Atom(&'c Atom),
    And(Node<'c>, Node<'c>),
    Or(Node<'c>, Node<'c>),
    Exists(VarId, Node<'c>),
    Forall(VarId, Node<'c>),
}

impl<'c> Node<'c> {
    fn entry(self) -> &'c Entry {
        &self.table.entries[self.index]
    }

    fn at(self, formula: &'c Formula, index: usize) -> Node<'c> {
        Node {
            table: self.table,
            formula,
            index,
        }
    }

    pub(crate) fn formula(self) -> &'c Formula {
        self.formula
    }

    /// The free variables, in [`Formula::free_vars`] order.
    pub(crate) fn free_vars(self) -> &'c [VarId] {
        &self.table.free[self.entry().free.clone()]
    }

    pub(crate) fn is_quantifier_free(self) -> bool {
        self.entry().quantifier_free
    }

    pub(crate) fn shape(self) -> Shape<'c> {
        let next = self.index + 1;
        match self.formula {
            Formula::Atom(a) => Shape::Atom(a),
            Formula::And(l, r) => Shape::And(self.at(l, next), self.at(r, self.entry().second)),
            Formula::Or(l, r) => Shape::Or(self.at(l, next), self.at(r, self.entry().second)),
            Formula::Exists(v, b) => Shape::Exists(*v, self.at(b, next)),
            Formula::Forall(v, b) => Shape::Forall(*v, self.at(b, next)),
        }
    }

    /// The content key: equal sub-formulas get equal keys, in any table
    /// and from any parse. Combined bottom-up from the operands' keys on
    /// first use.
    pub(crate) fn key(self) -> u64 {
        *self.entry().key.get_or_init(|| {
            let mut h = DefaultHasher::new();
            match self.shape() {
                Shape::Atom(a) => (0u8, a).hash(&mut h),
                Shape::And(l, r) => (1u8, l.key(), r.key()).hash(&mut h),
                Shape::Or(l, r) => (2u8, l.key(), r.key()).hash(&mut h),
                Shape::Exists(v, b) => (3u8, v, b.key()).hash(&mut h),
                Shape::Forall(v, b) => (4u8, v, b.key()).hash(&mut h),
            }
            h.finish()
        })
    }

    /// The DNF of a quantifier-free node ([`tree_to_conj`]), built on first
    /// use.
    pub(crate) fn dnf(self) -> &'c [Vec<Atom>] {
        self.entry().dnf.get_or_init(|| tree_to_conj(self.formula))
    }

    /// The three `Handle-Disjunction` cases of an `∨` node
    /// ([`expand_disj_node`]), each the root of its own table, compiled on
    /// first use.
    pub(crate) fn disjunction_cases(self) -> [Node<'c>; 3] {
        let Formula::Or(l, r) = self.formula else {
            panic!("disjunction_cases on a node that is not an ∨")
        };
        let cases = self
            .entry()
            .cases
            .get_or_init(|| Box::new(expand_disj_node(l, r).map(CompiledFormula::new)));
        cases.each_ref().map(CompiledFormula::root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conjtree::conjunctive_trees;
    use crate::dnf::has_quantifier;
    use cqi_datasets::{beers_queries, tpch_queries, DatasetQuery};
    use cqi_drc::parse_query;
    use std::collections::HashMap;

    fn dataset() -> Vec<DatasetQuery> {
        beers_queries().into_iter().chain(tpch_queries()).collect()
    }

    /// Every node of the table, in preorder.
    fn nodes(n: Node<'_>) -> Vec<Node<'_>> {
        let mut out = vec![n];
        match n.shape() {
            Shape::Atom(_) => {}
            Shape::And(l, r) | Shape::Or(l, r) => {
                out.extend(nodes(l));
                out.extend(nodes(r));
            }
            Shape::Exists(_, b) | Shape::Forall(_, b) => out.extend(nodes(b)),
        }
        out
    }

    fn assert_entries_match_formulas(table: &CompiledFormula, what: &str) {
        for n in nodes(table.root()) {
            let f = n.formula();
            assert_eq!(
                n.free_vars(),
                f.free_vars(),
                "{what}: free variables of {f:?}"
            );
            assert_eq!(n.is_quantifier_free(), !has_quantifier(f), "{what}: {f:?}");
            if n.is_quantifier_free() {
                assert_eq!(n.dnf(), tree_to_conj(f), "{what}: DNF of {f:?}");
            }
        }
    }

    /// The root formulas the chase compiles for a query: the query's own
    /// formula and its conjunctive trees.
    fn roots(dq: &DatasetQuery) -> Vec<Formula> {
        let mut out = vec![dq.query.formula.clone()];
        out.extend(conjunctive_trees(&dq.query.formula));
        out
    }

    #[test]
    fn entries_equal_what_the_chase_used_to_recompute() {
        let mut checked = 0;
        for dq in dataset() {
            for f in roots(&dq) {
                let table = CompiledFormula::new(f);
                assert_entries_match_formulas(&table, &dq.name);
                // One level of ∨-case expansion, at every ∨ node.
                for n in nodes(table.root()) {
                    if let Shape::Or(l, r) = n.shape() {
                        let cases = n.disjunction_cases();
                        let expected = expand_disj_node(l.formula(), r.formula());
                        for (case, f) in cases.iter().zip(&expected) {
                            assert_eq!(case.formula(), f);
                            assert_entries_match_formulas(case.table, &dq.name);
                            checked += 1;
                        }
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 200, "only {checked} tables checked");
    }

    #[test]
    fn keys_follow_content_across_parses() {
        // Equal sub-formulas share a key, in one table, across tables and
        // across two parses of the same text; different sub-formulas of
        // the whole dataset never do.
        let mut by_key: HashMap<u64, Formula> = HashMap::new();
        let keys =
            |t: &CompiledFormula| nodes(t.root()).iter().map(|n| n.key()).collect::<Vec<_>>();
        for dq in dataset() {
            for f in roots(&dq) {
                let table = CompiledFormula::new(f);
                for n in nodes(table.root()) {
                    let seen = by_key.entry(n.key()).or_insert_with(|| n.formula().clone());
                    assert_eq!(
                        seen,
                        n.formula(),
                        "{}: two sub-formulas share a key",
                        dq.name
                    );
                }
            }
            // Two copies of one formula live at two addresses.
            let (a, b) = (dq.query.formula.clone(), dq.query.formula.clone());
            assert_eq!(
                keys(&CompiledFormula::new(a)),
                keys(&CompiledFormula::new(b)),
                "{}",
                dq.name
            );
        }
        let s = cqi_datasets::beers_schema();
        let parse = |src: &str| CompiledFormula::new(parse_query(&s, src).unwrap().formula);
        let src = "{ (b1) | exists d1 (Likes(d1, b1) and d1 like 'Eve%') }";
        let (a, b) = (parse(src), parse(src));
        assert_eq!(a.root().key(), b.root().key(), "two parses of one text");
        let changed = parse("{ (b1) | exists d1 (Likes(d1, b1) and d1 like 'Eva%') }");
        assert_ne!(a.root().key(), changed.root().key(), "a changed constant");
        // The positive atom is shared; the comparison atom is not.
        let atoms = |t: &CompiledFormula| {
            nodes(t.root())
                .into_iter()
                .filter(|n| matches!(n.shape(), Shape::Atom(_)))
                .map(|n| n.key())
                .collect::<Vec<_>>()
        };
        let (ka, kc) = (atoms(&a), atoms(&changed));
        assert_eq!(ka[0], kc[0]);
        assert_ne!(ka[1], kc[1]);
    }
}
