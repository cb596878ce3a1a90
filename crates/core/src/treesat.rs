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
//! A [`SatCtx`] decides every question about one instance as (φ(I),
//! extra literals): `φ ∧ ¬lit` for a condition leaf, `φ ∧ image = row` for
//! each row against a negated relational leaf, and `IsConsistent(I)` as
//! (φ(I), []). It builds φ(I) once, on the first question it cannot answer
//! itself, and answers three kinds of question without the solver, each
//! the solver's own answer:
//!
//! * a condition leaf whose literal is a conjunct of φ(I) is entailed
//!   (`φ ∧ ¬lit` holds both `lit` and `¬lit`);
//! * a row whose equalities contradict every literal of some `≠`-only
//!   clause of φ(I) cannot match (a `¬R(x⃗)` condition with the leaf's own
//!   image expands to exactly such clauses);
//! * a row equal to the image adds nothing, so it asks `IsConsistent(I)`.
//!
//! Everything else goes to the decider the context was built with, a
//! `FnMut(&Phi, &[Lit]) -> bool` that decides φ(I) ∧ extra. The chase
//! passes its worker's decision path — the (φ, extra) memo, then one
//! solve — so Tree-SAT shares that memo with `IsConsistent`, inside nested
//! BFS steps and in the validation of accepted instances alike. The
//! one-shot [`tree_sat`] and [`tree_sat_with`] solve every question cold
//! ([`Phi::is_sat_with`]).

use std::collections::HashMap;

use cqi_drc::{Atom, CmpOp, Formula, Query, Term, VarId};
use cqi_instance::consistency::to_problem;
use cqi_instance::{CInstance, Cond};
use cqi_schema::Value;
use cqi_solver::{Ent, Lit, Phi, SolverOp};

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

/// φ(I), with the indices of its clauses made only of `≠` literals (the
/// expansions of `¬R(x⃗)` conditions), which a row question may contradict
/// outright.
struct Base {
    phi: Phi,
    neq_clauses: Vec<usize>,
}

impl Base {
    fn new(inst: &CInstance, enforce_keys: bool) -> Base {
        let p = to_problem(inst, enforce_keys);
        let is_neq = |l: &Lit| {
            matches!(
                l,
                Lit::Cmp {
                    op: SolverOp::Ne,
                    ..
                }
            )
        };
        let neq_clauses = (0..p.clauses.len())
            .filter(|&i| p.clauses[i].iter().all(is_neq))
            .collect();
        Base {
            phi: Phi::new(p),
            neq_clauses,
        }
    }

    /// Is some `≠`-only clause false under `eqs`: is each of its literals
    /// `a ≠ b` contradicted by an equality `a = b` (either way round)?
    fn contradicted_by(&self, eqs: &[Lit]) -> bool {
        let clauses = &self.phi.problem().clauses;
        self.neq_clauses.iter().any(|&i| {
            clauses[i].iter().all(|l| {
                let Lit::Cmp { lhs, rhs, .. } = l else {
                    return false;
                };
                eqs.iter().any(|eq| {
                    matches!(eq, Lit::Cmp { lhs: a, rhs: b, .. }
                        if (a == lhs && b == rhs) || (a == rhs && b == lhs))
                })
            })
        })
    }
}

/// φ(I) of `inst`, built on first use.
fn base<'b>(slot: &'b mut Option<Base>, inst: &CInstance, enforce_keys: bool) -> &'b Base {
    slot.get_or_insert_with(|| Base::new(inst, enforce_keys))
}

/// Reusable satisfaction context: every question about the instance is
/// asked of one φ(I), built on first use, and every question the context
/// does not answer itself goes to the caller's decider.
pub struct SatCtx<'a> {
    pub query: &'a Query,
    pub inst: &'a CInstance,
    enforce_keys: bool,
    base: Option<Base>,
    /// `IsConsistent(I)`, once asked.
    consistent: Option<bool>,
    /// Decides φ(I) ∧ extra: the chase passes its worker's memoized
    /// decision path, the one-shot functions a cold solve.
    decide: &'a mut dyn FnMut(&Phi, &[Lit]) -> bool,
    /// Entailment answers are pure functions of the (immutable) instance;
    /// Tree-SAT revisits the same literals across pool iterations, so a
    /// small memo pays for itself immediately.
    entail_cache: HashMap<Lit, bool>,
    /// Answers of negated relational leaves by (relation, image).
    absent_cache: HashMap<(u32, Vec<Option<Ent>>), bool>,
    /// The equalities of the current row question.
    eqs: Vec<Lit>,
}

impl<'a> SatCtx<'a> {
    pub fn new(
        query: &'a Query,
        inst: &'a CInstance,
        enforce_keys: bool,
        decide: &'a mut dyn FnMut(&Phi, &[Lit]) -> bool,
    ) -> SatCtx<'a> {
        SatCtx {
            query,
            inst,
            enforce_keys,
            base: None,
            consistent: None,
            decide,
            entail_cache: HashMap::new(),
            absent_cache: HashMap::new(),
            eqs: Vec::new(),
        }
    }

    /// Records that `IsConsistent(I)` holds, so the context never asks it.
    pub(crate) fn known_consistent(&mut self) {
        self.consistent = Some(true);
    }

    /// `IsConsistent(I)`: the question (φ(I), []), asked once.
    pub(crate) fn consistent(&mut self) -> bool {
        if let Some(c) = self.consistent {
            return c;
        }
        let base = base(&mut self.base, self.inst, self.enforce_keys);
        let c = (self.decide)(&base.phi, &[]);
        self.consistent = Some(c);
        c
    }

    /// Does `φ(I)` entail `lit` — i.e. is `φ ∧ ¬lit` unsatisfiable? A
    /// conjunct of φ(I) is, without asking.
    fn entails(&mut self, lit: &Lit) -> bool {
        if let Some(v) = self.entail_cache.get(lit) {
            return *v;
        }
        let in_phi = self
            .inst
            .global
            .iter()
            .any(|c| matches!(c, Cond::Lit(l) if l == lit));
        let ans = in_phi || {
            let base = base(&mut self.base, self.inst, self.enforce_keys);
            !(self.decide)(&base.phi, &[lit.negate()])
        };
        self.entail_cache.insert(lit.clone(), ans);
        ans
    }

    /// Could the entity vector match row `row` in some possible world?
    fn row_matchable(&mut self, pattern: &[Option<Ent>], row: &[Ent]) -> bool {
        self.eqs.clear();
        for (e, cell) in pattern.iter().zip(row) {
            let Some(e) = e else { continue }; // wildcard matches anything
            if e != cell {
                self.eqs.push(Lit::Cmp {
                    lhs: e.clone(),
                    op: SolverOp::Eq,
                    rhs: cell.clone(),
                });
            }
        }
        if self.eqs.is_empty() {
            return self.consistent();
        }
        let base = base(&mut self.base, self.inst, self.enforce_keys);
        !base.contradicted_by(&self.eqs) && (self.decide)(&base.phi, &self.eqs)
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
                let key = (rel.0, terms.iter().map(|t| resolve(h, t)).collect());
                if let Some(v) = self.absent_cache.get(&key) {
                    return *v;
                }
                let inst = self.inst;
                let absent = !inst.tables[rel.index()]
                    .iter()
                    .any(|row| self.row_matchable(&key.1, row));
                self.absent_cache.insert(key, absent);
                absent
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

    /// `f` with `v` mapped to `e`.
    fn sat_at(&mut self, h: &mut Hom, v: VarId, e: &Ent, f: &Formula) -> bool {
        h[v.index()] = Some(e.clone());
        self.sat(h, f)
    }

    fn sat(&mut self, h: &mut Hom, f: &Formula) -> bool {
        match f {
            Formula::Atom(a) => self.leaf(h, a),
            Formula::And(l, r) => self.sat(h, l) && self.sat(h, r),
            Formula::Or(l, r) => self.sat(h, l) || self.sat(h, r),
            Formula::Exists(v, b) => {
                let inst = self.inst;
                let pool = inst.domain_pool(self.query.var_domain(*v));
                let holds = pool.iter().any(|e| self.sat_at(h, *v, e, b));
                h[v.index()] = None;
                holds
            }
            Formula::Forall(v, b) => {
                // The universal must also range over don't-care nulls
                // sitting in columns of this domain: they are outside the
                // pool (Definition 3) but take *some* active-domain value in
                // every possible world, so a body that fails under one of
                // them fails in every grounding.
                let inst = self.inst;
                let d = self.query.var_domain(*v);
                let holds = inst.domain_pool(d).iter().all(|e| self.sat_at(h, *v, e, b))
                    && inst
                        .dont_cares_in_domain(d)
                        .iter()
                        .all(|e| self.sat_at(h, *v, e, b));
                h[v.index()] = None;
                holds
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
                let inst = self.inst;
                let pool = inst.domain_pool(self.query.var_domain(*v));
                let holds = pool.iter().any(|e| {
                    h[v.index()] = Some(e.clone());
                    self.close_and_sat(formula, h, rest)
                });
                h[v.index()] = None;
                holds
            }
        }
    }
}

/// One-shot `Tree-SAT` under a given partial homomorphism, solving every
/// question cold.
pub fn tree_sat_with(q: &Query, inst: &CInstance, formula: &Formula, h: &Hom) -> bool {
    SatCtx::new(q, inst, false, &mut Phi::is_sat_with).tree_sat(formula, h)
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

    /// Decides with a cold solve and records the extra literals of every
    /// question the context asks.
    fn counting(questions: &mut Vec<Vec<Lit>>) -> impl FnMut(&Phi, &[Lit]) -> bool + '_ {
        |phi: &Phi, extra: &[Lit]| {
            questions.push(extra.to_vec());
            phi.is_sat_with(extra)
        }
    }

    fn var(q: &Query, name: &str) -> VarId {
        VarId(q.vars.iter().position(|v| v.name == name).unwrap() as u32)
    }

    /// A query whose one negated leaf is `¬Likes(d1, b1)`.
    const NOT_LIKES: &str =
        "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }";

    fn negated_atom(f: &Formula) -> Option<&Atom> {
        match f {
            Formula::Atom(a @ Atom::Rel { negated: true, .. }) => Some(a),
            Formula::Atom(_) => None,
            Formula::And(l, r) | Formula::Or(l, r) => negated_atom(l).or_else(|| negated_atom(r)),
            Formula::Exists(_, b) | Formula::Forall(_, b) => negated_atom(b),
        }
    }

    #[test]
    fn condition_leaf_in_phi_asks_nothing() {
        // Serves(x, b, p) with the condition p > 3.0 stored as the chase
        // stores it, canonical.
        let s = schema();
        let serves = s.rel_id("Serves").unwrap();
        let mut inst = CInstance::new(Arc::clone(&s));
        let x = inst.fresh_null("x", s.attr_domain(serves, 0));
        let b = inst.fresh_null("b", s.attr_domain(serves, 1));
        let p = inst.fresh_null("p", s.attr_domain(serves, 2));
        inst.add_tuple(serves, vec![x.into(), b.into(), p.into()]);
        inst.add_cond(Cond::Lit(
            Lit::cmp(p, SolverOp::Gt, Value::real(3.0)).canonical(),
        ));
        let ask = |cond: &str| {
            let q = parse_query(
                &s,
                &format!("{{ (x1, b1) | exists p1 (Serves(x1, b1, p1) and {cond}) }}"),
            )
            .unwrap();
            let mut questions = Vec::new();
            let mut decide = counting(&mut questions);
            let sat = SatCtx::new(&q, &inst, false, &mut decide).tree_sat(&q.formula, &vec![]);
            drop(decide);
            (sat, questions.len())
        };
        assert_eq!(ask("p1 > 3.0"), (true, 0), "the leaf's literal is in φ(I)");
        // An entailed literal that φ(I) does not hold is one question.
        assert_eq!(ask("p1 >= 3.0"), (true, 1));
        assert_eq!(ask("p1 > 4.0"), (false, 1));
    }

    #[test]
    fn negated_leaf_with_its_condition_in_phi_asks_no_row_question() {
        // Likes(d0, b), Likes(d2, b) and ¬Likes(d1, b): φ(I) holds the
        // clauses d1 ≠ d0 and d1 ≠ d2, which the row questions of the leaf
        // ¬Likes(d1, b) contradict.
        let s = schema();
        let likes = s.rel_id("Likes").unwrap();
        let dd = s.attr_domain(likes, 0);
        let mut inst = CInstance::new(Arc::clone(&s));
        let b = inst.fresh_null("b", s.attr_domain(likes, 1));
        let d0 = inst.fresh_null("d0", dd);
        let d1 = inst.fresh_null("d1", dd);
        let d2 = inst.fresh_null("d2", dd);
        inst.add_tuple(likes, vec![d0.into(), b.into()]);
        inst.add_tuple(likes, vec![d2.into(), b.into()]);
        inst.add_cond(Cond::NotIn {
            rel: likes,
            tuple: vec![d1.into(), b.into()],
        });
        let q = parse_query(&s, NOT_LIKES).unwrap();
        let atom = negated_atom(&q.formula).unwrap();
        let mut h: Hom = vec![None; q.vars.len()];
        h[var(&q, "b1").index()] = Some(b.into());
        let mut questions = Vec::new();
        let mut decide = counting(&mut questions);
        let mut ctx = SatCtx::new(&q, &inst, false, &mut decide);
        h[var(&q, "d1").index()] = Some(d1.into());
        assert!(ctx.leaf(&h, atom), "¬Likes(d1, b) is certain");
        drop(ctx);
        drop(decide);
        assert!(questions.is_empty(), "{questions:?}");
        // A drinker without the condition could be either row's.
        let mut wider = inst.clone();
        let d3 = wider.fresh_null("d3", dd);
        let mut decide = counting(&mut questions);
        let mut ctx = SatCtx::new(&q, &wider, false, &mut decide);
        h[var(&q, "d1").index()] = Some(d3.into());
        assert!(!ctx.leaf(&h, atom));
        drop(ctx);
        drop(decide);
        assert_eq!(
            questions.len(),
            1,
            "the first row that may match ends the scan"
        );
    }

    #[test]
    fn row_equal_to_the_image_asks_only_is_consistent() {
        let s = schema();
        let likes = s.rel_id("Likes").unwrap();
        let mut inst = CInstance::new(Arc::clone(&s));
        let d = inst.fresh_null("d", s.attr_domain(likes, 0));
        let b = inst.fresh_null("b", s.attr_domain(likes, 1));
        inst.add_tuple(likes, vec![d.into(), b.into()]);
        let q = parse_query(&s, NOT_LIKES).unwrap();
        let atom = negated_atom(&q.formula).unwrap();
        let mut h: Hom = vec![None; q.vars.len()];
        h[var(&q, "d1").index()] = Some(d.into());
        h[var(&q, "b1").index()] = Some(b.into());
        let mut questions = Vec::new();
        let mut decide = counting(&mut questions);
        let mut ctx = SatCtx::new(&q, &inst, false, &mut decide);
        assert!(!ctx.leaf(&h, atom), "the image is a row of a consistent I");
        // The answer is IsConsistent(I), asked once for the context.
        assert!(ctx.consistent());
        drop(ctx);
        drop(decide);
        assert_eq!(questions, vec![Vec::<Lit>::new()]);
        // A context told that I is consistent asks nothing.
        questions.clear();
        let mut decide = counting(&mut questions);
        let mut ctx = SatCtx::new(&q, &inst, false, &mut decide);
        ctx.known_consistent();
        assert!(!ctx.leaf(&h, atom));
        drop(ctx);
        drop(decide);
        assert!(questions.is_empty(), "{questions:?}");
    }
}
