//! `Tree-SAT` (Algorithm 7): does a c-instance satisfy a query syntax tree?
//!
//! * A **positive relational leaf** is satisfied when the homomorphic image
//!   of its tuple is (syntactically) a row of the instance.
//! * A **condition leaf** (comparison, `LIKE`, negated relational atom) is
//!   satisfied when it holds in *every possible world*, i.e. the global
//!   condition **entails** it: `φ(I) ∧ ¬lit` is unsatisfiable. (Algorithm 7
//!   writes this as membership in `φ(I)`; the paper's own example I1
//!   (Fig. 6) requires the entailment reading — `p1 > p2` must satisfy the
//!   leaf `p1 ≥ p2` — and its implementation discharged these checks with
//!   an SMT solver.)
//! * Quantifiers range over the instance's per-domain entity pools; free
//!   variables left unbound by the caller's homomorphism are existentially
//!   closed at entry (lines 1–3). The chase's own checks (acceptance in the
//!   BFS and the coverage walk) bind every free variable before they ask,
//!   and enter through a crate-private entry that skips the closure and
//!   the free-variable scan it needs.
//!
//! A [`SatCtx`] hands every leaf's solver question (`φ ∧ ¬lit` for a
//! condition leaf, `φ ∧ image = row` for a negated relational leaf) to the
//! decider it was built with. The chase passes its worker's decision path —
//! the exact-problem memo, then one solve — so Tree-SAT shares that memo
//! with `IsConsistent`, inside nested BFS steps and in the validation of
//! accepted instances alike. The one-shot [`tree_sat`] and
//! [`tree_sat_with`] solve every leaf cold.

use std::collections::HashMap;

use cqi_drc::{Atom, CmpOp, Formula, Query, Term, VarId};
use cqi_instance::consistency::to_problem;
use cqi_instance::CInstance;
use cqi_schema::Value;
use cqi_solver::{Ent, Lit, Problem, SolverOp};

/// A (partial) homomorphism from query variables to instance entities.
pub type Hom = Vec<Option<Ent>>;

pub(crate) fn cmp_to_solver_op(op: CmpOp) -> Option<SolverOp> {
    Some(match op {
        CmpOp::Lt => SolverOp::Lt,
        CmpOp::Le => SolverOp::Le,
        CmpOp::Gt => SolverOp::Gt,
        CmpOp::Ge => SolverOp::Ge,
        CmpOp::Eq => SolverOp::Eq,
        CmpOp::Ne => SolverOp::Ne,
        CmpOp::Like => return None,
    })
}

/// Resolves a term under a homomorphism; `None` encodes a wildcard.
fn resolve(h: &Hom, t: &Term) -> Option<Ent> {
    match t {
        Term::Var(v) => Some(
            h[v.index()]
                .clone()
                .expect("free variable bound by closure"),
        ),
        Term::Const(c) => Some(Ent::Const(c.clone())),
        Term::Wildcard => None,
    }
}

/// Converts a (possibly negated) comparison atom with resolved sides to a
/// canonical literal.
pub(crate) fn atom_to_lit(atom: &Atom, a: &Ent, b: &Ent) -> Lit {
    let Atom::Cmp { negated, op, .. } = atom else {
        panic!("atom_to_lit on relational atom")
    };
    let lit = match op {
        CmpOp::Like => {
            let pattern = match b {
                Ent::Const(Value::Str(p)) => p.to_string(),
                other => panic!("LIKE pattern must be a string constant, got {other:?}"),
            };
            Lit::Like {
                negated: *negated,
                ent: a.clone(),
                pattern,
            }
        }
        other => {
            let mut sop = cmp_to_solver_op(*other).unwrap();
            if *negated {
                sop = sop.negate();
            }
            Lit::Cmp {
                lhs: a.clone(),
                op: sop,
                rhs: b.clone(),
            }
        }
    };
    lit.canonical()
}

/// Reusable satisfaction context: the instance's possible-worlds constraint
/// system is built once and shared by every leaf entailment check, and
/// every solver question goes to the caller's decider.
pub struct SatCtx<'a> {
    pub query: &'a Query,
    pub inst: &'a CInstance,
    base: Problem,
    /// Decides each leaf's satisfiability problem: the chase passes its
    /// worker's memoized decision path, the one-shot functions a cold
    /// solve.
    decide: &'a mut dyn FnMut(&Problem) -> bool,
    /// Entailment answers are pure functions of the (immutable) instance;
    /// Tree-SAT revisits the same literals across pool iterations, so a
    /// small memo pays for itself immediately.
    entail_cache: HashMap<Lit, bool>,
    row_cache: HashMap<RowKey, bool>,
}

/// (relation, resolved pattern, row index) — key of the negated-atom
/// matchability memo.
type RowKey = (u32, Vec<Option<Ent>>, usize);

impl<'a> SatCtx<'a> {
    pub fn new(
        query: &'a Query,
        inst: &'a CInstance,
        enforce_keys: bool,
        decide: &'a mut dyn FnMut(&Problem) -> bool,
    ) -> SatCtx<'a> {
        SatCtx {
            query,
            inst,
            base: to_problem(inst, enforce_keys),
            decide,
            entail_cache: HashMap::new(),
            row_cache: HashMap::new(),
        }
    }

    /// Does `φ(I)` entail `lit` — i.e. is `φ ∧ ¬lit` unsatisfiable?
    fn entails(&mut self, lit: &Lit) -> bool {
        if let Some(v) = self.entail_cache.get(lit) {
            return *v;
        }
        let mut p = self.base.clone();
        p.assert(lit.negate());
        let ans = !(self.decide)(&p);
        self.entail_cache.insert(lit.clone(), ans);
        ans
    }

    /// Could the entity vector match row `t` in some possible world?
    fn row_matchable(
        &mut self,
        rel: u32,
        row_idx: usize,
        pattern: &[Option<Ent>],
        row: &[Ent],
    ) -> bool {
        let key = (rel, pattern.to_vec(), row_idx);
        if let Some(v) = self.row_cache.get(&key) {
            return *v;
        }
        let mut p = self.base.clone();
        for (e, cell) in pattern.iter().zip(row) {
            let Some(e) = e else { continue }; // wildcard matches anything
            if e == cell {
                continue;
            }
            p.assert(Lit::Cmp {
                lhs: e.clone(),
                op: SolverOp::Eq,
                rhs: cell.clone(),
            });
        }
        let ans = (self.decide)(&p);
        self.row_cache.insert(key, ans);
        ans
    }

    /// Is one leaf satisfied under `h` (Algorithm 7 lines 4–8)?
    pub fn leaf(&mut self, h: &Hom, atom: &Atom) -> bool {
        match atom {
            Atom::Rel {
                negated: false,
                rel,
                terms,
            } => {
                let pattern: Vec<Option<Ent>> = terms.iter().map(|t| resolve(h, t)).collect();
                self.inst.tables[rel.index()].iter().any(|row| {
                    pattern
                        .iter()
                        .zip(row)
                        .all(|(p, cell)| p.as_ref().is_none_or(|p| p == cell))
                })
            }
            Atom::Rel {
                negated: true,
                rel,
                terms,
            } => {
                // Certain absence: no row of R can coincide with the image
                // in any possible world. (A syntactic ¬R(...) condition in
                // φ(I) makes the corresponding rows unmatchable through its
                // clause expansion.)
                let pattern: Vec<Option<Ent>> = terms.iter().map(|t| resolve(h, t)).collect();
                let inst = self.inst;
                !inst.tables[rel.index()]
                    .iter()
                    .enumerate()
                    .any(|(i, row)| self.row_matchable(rel.0, i, &pattern, row))
            }
            Atom::Cmp {
                negated,
                lhs,
                op,
                rhs,
            } => {
                let (Some(a), Some(b)) = (resolve(h, lhs), resolve(h, rhs)) else {
                    return false;
                };
                // Constant-constant comparisons evaluate directly.
                if let (Ent::Const(ca), Ent::Const(cb)) = (&a, &b) {
                    let truth = match op {
                        CmpOp::Like => match (ca, cb) {
                            (Value::Str(s), Value::Str(p)) => cqi_solver::nfa::like_match(p, s),
                            _ => false,
                        },
                        other => cmp_to_solver_op(*other)
                            .unwrap()
                            .eval(ca, cb)
                            .unwrap_or(false),
                    };
                    return truth != *negated;
                }
                self.entails(&atom_to_lit(atom, &a, &b))
            }
        }
    }

    fn sat(&mut self, h: &mut Hom, f: &Formula) -> bool {
        match f {
            Formula::Atom(a) => self.leaf(h, a),
            Formula::And(l, r) => self.sat(h, l) && self.sat(h, r),
            Formula::Or(l, r) => self.sat(h, l) || self.sat(h, r),
            Formula::Exists(v, b) => {
                let pool = self.inst.domain_pool(self.query.var_domain(*v)).to_vec();
                for e in pool {
                    h[v.index()] = Some(e);
                    if self.sat(h, b) {
                        h[v.index()] = None;
                        return true;
                    }
                }
                h[v.index()] = None;
                false
            }
            Formula::Forall(v, b) => {
                // The universal must also range over don't-care nulls
                // sitting in columns of this domain: they are outside the
                // pool (Definition 3) but take *some* active-domain value in
                // every possible world, so a body that fails under one of
                // them fails in every grounding.
                let d = self.query.var_domain(*v);
                let mut pool = self.inst.domain_pool(d).to_vec();
                pool.extend(self.inst.dont_cares_in_domain(d));
                for e in pool {
                    h[v.index()] = Some(e);
                    if !self.sat(h, b) {
                        h[v.index()] = None;
                        return false;
                    }
                }
                h[v.index()] = None;
                true
            }
        }
    }

    /// [`SatCtx::tree_sat`] under a homomorphism that already binds every
    /// free variable of `formula`, so there is nothing to close: the chase's
    /// acceptance checks and the coverage walk bind them before they ask.
    /// An unbound free variable panics at its first leaf.
    pub(crate) fn tree_sat_bound(&mut self, formula: &Formula, h: &Hom) -> bool {
        let mut h = h.clone();
        h.resize(self.query.vars.len(), None);
        self.sat(&mut h, formula)
    }

    /// `Tree-SAT(Q, I, f)`: satisfiability of `formula` under the partial
    /// mapping `h`, existentially closing unbound free variables.
    pub fn tree_sat(&mut self, formula: &Formula, h: &Hom) -> bool {
        let mut h = h.clone();
        h.resize(self.query.vars.len(), None);
        let free: Vec<VarId> = formula
            .free_vars()
            .into_iter()
            .filter(|v| h[v.index()].is_none())
            .collect();
        self.close_and_sat(formula, &mut h, &free)
    }

    fn close_and_sat(&mut self, formula: &Formula, h: &mut Hom, free: &[VarId]) -> bool {
        match free.split_first() {
            None => self.sat(h, formula),
            Some((v, rest)) => {
                let pool = self.inst.domain_pool(self.query.var_domain(*v)).to_vec();
                for e in pool {
                    h[v.index()] = Some(e);
                    if self.close_and_sat(formula, h, rest) {
                        h[v.index()] = None;
                        return true;
                    }
                }
                h[v.index()] = None;
                false
            }
        }
    }
}

/// One-shot `Tree-SAT` under a given partial homomorphism, solving every
/// leaf cold.
pub fn tree_sat_with(q: &Query, inst: &CInstance, formula: &Formula, h: &Hom) -> bool {
    SatCtx::new(q, inst, false, &mut cqi_solver::is_sat).tree_sat(formula, h)
}

/// `I |= Q` with all output variables existentially closed (the acceptance
/// check of Algorithm 1 applied to the whole query).
pub fn tree_sat(q: &Query, inst: &CInstance) -> bool {
    tree_sat_with(q, inst, &q.formula, &vec![None; q.vars.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_drc::parse_query;
    use cqi_instance::Cond;
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

    /// A hand-built instance shaped like the paper's I1 (Fig. 6), minus the
    /// FK-parent rows (this schema declares no FKs).
    fn i1(s: &Arc<Schema>) -> CInstance {
        let serves = s.rel_id("Serves").unwrap();
        let likes = s.rel_id("Likes").unwrap();
        let mut inst = CInstance::new(Arc::clone(s));
        let (bd, ed, pd) = (
            s.attr_domain(serves, 0),
            s.attr_domain(serves, 1),
            s.attr_domain(serves, 2),
        );
        let dd = s.attr_domain(likes, 0);
        let d1 = inst.fresh_null("d1", dd);
        let b1 = inst.fresh_null("b1", ed);
        let x1 = inst.fresh_null("x1", bd);
        let x2 = inst.fresh_null("x2", bd);
        let p1 = inst.fresh_null("p1", pd);
        let p2 = inst.fresh_null("p2", pd);
        inst.add_tuple(serves, vec![x1.into(), b1.into(), p1.into()]);
        inst.add_tuple(serves, vec![x2.into(), b1.into(), p2.into()]);
        inst.add_tuple(likes, vec![d1.into(), b1.into()]);
        inst.add_cond(Cond::Lit(Lit::like(d1, "Eve%")));
        inst.add_cond(Cond::Lit(Lit::cmp(p1, SolverOp::Gt, p2)));
        inst
    }

    #[test]
    fn qb_satisfied_by_i1() {
        let s = schema();
        let qb = parse_query(
            &s,
            "{ (x1, b1) | exists d1, p1, x2, p2 . Serves(x1, b1, p1) and Likes(d1, b1) \
             and d1 like 'Eve%' and Serves(x2, b1, p2) and p1 > p2 }",
        )
        .unwrap();
        assert!(tree_sat(&qb, &i1(&s)));
    }

    /// Found by the `cqi-fuzz` differential campaign: a null created under
    /// one domain but joined into a same-typed column of another domain
    /// must be visible to quantifiers over that column's domain. Before
    /// occurrence-closing the pools, the ∀ below ranged over an empty pool
    /// and passed vacuously even though the instance's only row violates
    /// it in every grounding.
    #[test]
    fn forall_sees_cross_domain_nulls() {
        let s = schema();
        let likes = s.rel_id("Likes").unwrap();
        let (dd, ed) = (s.attr_domain(likes, 0), s.attr_domain(likes, 1));
        assert_ne!(dd, ed, "test needs Likes.drinker and Likes.beer distinct");
        let mut inst = CInstance::new(Arc::clone(&s));
        let n = inst.fresh_null("x1", dd);
        inst.add_tuple(likes, vec![n.into(), n.into()]);
        // x1 reused across both Text domains (legal: types agree).
        let q_pos = parse_query(&s, "{ (x1) | Likes(x1, x1) }").unwrap();
        assert!(tree_sat(&q_pos, &inst), "positive core must close over x1");
        let q = parse_query(
            &s,
            "{ (x1) | Likes(x1, x1) and forall f (not Likes(*, f)) }",
        )
        .unwrap();
        // f ranges over the beer domain; the row's beer cell holds the
        // drinker-domain null n, so ¬Likes(*, f) fails at f = n.
        assert!(!tree_sat(&q, &inst));
    }

    /// Also found by `cqi-fuzz`: don't-care nulls stay out of the pools
    /// (Definition 3) but still take *some* value in every possible world,
    /// so a universal over their column's domain must range over them.
    #[test]
    fn forall_sees_dont_care_cells() {
        let s = schema();
        let serves = s.rel_id("Serves").unwrap();
        let (bd, ed, pd) = (
            s.attr_domain(serves, 0),
            s.attr_domain(serves, 1),
            s.attr_domain(serves, 2),
        );
        let mut inst = CInstance::new(Arc::clone(&s));
        let x1 = inst.fresh_null("x1", bd);
        let b1 = inst.fresh_null("b1", ed);
        let dc = inst.fresh_dont_care(pd);
        inst.add_tuple(serves, vec![x1.into(), b1.into(), dc.into()]);
        let q_pos = parse_query(&s, "{ (x1) | exists b1 (Serves(x1, b1, *)) }").unwrap();
        assert!(tree_sat(&q_pos, &inst));
        let q = parse_query(
            &s,
            "{ (x1) | exists b1 (Serves(x1, b1, *)) and forall p (not Serves(*, *, p)) }",
        )
        .unwrap();
        // The price pool is empty, but the don't-care cell grounds to some
        // price in every world — the ∀ cannot pass vacuously.
        assert!(!tree_sat(&q, &inst));
    }

    #[test]
    fn entailed_comparison_satisfies_leaf() {
        // The instance stores p1 > p2; the leaves p2 < p1, p1 >= p2, and
        // p1 != p2 are all entailed.
        let s = schema();
        for cond in ["p2 < p1", "p1 >= p2", "p1 != p2"] {
            let q = parse_query(
                &s,
                &format!(
                    "{{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and {cond} }}"
                ),
            )
            .unwrap();
            assert!(tree_sat(&q, &i1(&s)), "{cond} should be entailed");
        }
    }

    #[test]
    fn reflexive_comparisons() {
        // p1 >= p1 is always certain; p1 > p1 never.
        let s = schema();
        let q_ge = parse_query(
            &s,
            "{ (x1, b1) | exists p1 (Serves(x1, b1, p1) and p1 >= p1) }",
        )
        .unwrap();
        assert!(tree_sat(&q_ge, &i1(&s)));
        let q_gt = parse_query(
            &s,
            "{ (x1, b1) | exists p1 (Serves(x1, b1, p1) and p1 > p1) }",
        )
        .unwrap();
        assert!(!tree_sat(&q_gt, &i1(&s)));
    }

    #[test]
    fn non_entailed_comparison_fails() {
        // p1 = 99.0 is satisfiable in some worlds but not *certain*.
        let s = schema();
        let q = parse_query(
            &s,
            "{ (x1, b1) | exists p1 (Serves(x1, b1, p1) and p1 = 99.0) }",
        )
        .unwrap();
        assert!(!tree_sat(&q, &i1(&s)));
        // But equality between two existentials is certain via the
        // reflexive mapping p1 = p2 ↦ the same null.
        let q2 = parse_query(
            &s,
            "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 = p2 }",
        )
        .unwrap();
        assert!(tree_sat(&q2, &i1(&s)));
    }

    #[test]
    fn negated_atom_certain_absence() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
        )
        .unwrap();
        let mut inst = i1(&s);
        // d1 likes b1 in the instance: fails.
        assert!(!tree_sat(&q, &inst));
        // A second drinker with ¬Likes(d2, b1): the ∀ over {d1, d2} still
        // fails because of d1.
        let likes = s.rel_id("Likes").unwrap();
        let dd = s.attr_domain(likes, 0);
        let d2 = inst.fresh_null("d2", dd);
        inst.add_cond(Cond::NotIn {
            rel: likes,
            tuple: vec![d2.into(), Ent::Null(cqi_solver::NullId(1))],
        });
        assert!(!tree_sat(&q, &inst));
    }

    #[test]
    fn not_in_condition_makes_absence_certain() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
        )
        .unwrap();
        let serves = s.rel_id("Serves").unwrap();
        let likes = s.rel_id("Likes").unwrap();
        let mut inst = CInstance::new(Arc::clone(&s));
        let b1 = inst.fresh_null("b1", s.attr_domain(serves, 1));
        let x1 = inst.fresh_null("x1", s.attr_domain(serves, 0));
        let p1 = inst.fresh_null("p1", s.attr_domain(serves, 2));
        let d1 = inst.fresh_null("d1", s.attr_domain(likes, 0));
        inst.add_tuple(serves, vec![x1.into(), b1.into(), p1.into()]);
        inst.add_cond(Cond::NotIn {
            rel: likes,
            tuple: vec![d1.into(), b1.into()],
        });
        assert!(tree_sat(&q, &inst));
    }

    #[test]
    fn absence_not_certain_without_condition() {
        // Same shape but no ¬Likes condition and an actual Likes row whose
        // drinker could equal d1.
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
        )
        .unwrap();
        let serves = s.rel_id("Serves").unwrap();
        let likes = s.rel_id("Likes").unwrap();
        let mut inst = CInstance::new(Arc::clone(&s));
        let b1 = inst.fresh_null("b1", s.attr_domain(serves, 1));
        let x1 = inst.fresh_null("x1", s.attr_domain(serves, 0));
        let p1 = inst.fresh_null("p1", s.attr_domain(serves, 2));
        let d1 = inst.fresh_null("d1", s.attr_domain(likes, 0));
        inst.add_tuple(serves, vec![x1.into(), b1.into(), p1.into()]);
        inst.add_tuple(likes, vec![d1.into(), b1.into()]);
        assert!(!tree_sat(&q, &inst));
    }

    #[test]
    fn wildcard_in_positive_leaf() {
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists x1 (Serves(x1, b1, *)) }").unwrap();
        assert!(tree_sat(&q, &i1(&s)));
    }

    #[test]
    fn empty_instance_fails() {
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        let inst = CInstance::new(Arc::clone(&s));
        assert!(!tree_sat(&q, &inst));
    }

    #[test]
    fn negated_like_entailment() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists d1 (Likes(d1, b1) and not (d1 like 'Eve %')) }",
        )
        .unwrap();
        let mut inst = i1(&s);
        // 'Eve%' does not entail ¬'Eve %' (the name could still contain the
        // space).
        assert!(!tree_sat(&q, &inst));
        inst.add_cond(Cond::Lit(Lit::not_like(cqi_solver::NullId(0), "Eve %")));
        assert!(tree_sat(&q, &inst));
    }

    #[test]
    fn equality_in_condition_propagates_to_leaf() {
        // φ has d1 = 'Eve Smith'; the leaf d1 LIKE 'Eve%' is entailed.
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists d1 (Likes(d1, b1) and d1 like 'Eve%') }",
        )
        .unwrap();
        let likes = s.rel_id("Likes").unwrap();
        let mut inst = CInstance::new(Arc::clone(&s));
        let d1 = inst.fresh_null("d1", s.attr_domain(likes, 0));
        let b1 = inst.fresh_null("b1", s.attr_domain(likes, 1));
        inst.add_tuple(likes, vec![d1.into(), b1.into()]);
        inst.add_cond(Cond::Lit(Lit::cmp(
            d1,
            SolverOp::Eq,
            Value::str("Eve Smith"),
        )));
        assert!(tree_sat(&q, &inst));
    }
}
