//! DRC abstract syntax (Definition 1) and queries.

use std::fmt;
use std::sync::Arc;

use cqi_schema::{DomainId, DomainType, RelId, Schema, Value};

/// A query variable (element of `V_Q` in the paper). Indexes into
/// [`Query::vars`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A term inside an atom: a query variable, a constant, or a don't-care
/// (`∗` of Table 5 — matches anything and binds nothing).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    Var(VarId),
    Const(Value),
    Wildcard,
}

/// Binary comparison operators of Definition 1 (plus `LIKE`; negation is a
/// flag on the atom, not an operator).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    Like,
}

impl CmpOp {
    /// `x op y ≡ y (op.flip()) x`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Like => panic!("LIKE has no flipped form"),
        }
    }

    /// `¬(x op y) ≡ x (op.negate()) y` where defined. `LIKE` has no dual
    /// operator, so negation stays a flag for it.
    pub fn negate(self) -> Option<CmpOp> {
        Some(match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Like => return None,
        })
    }

    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Like => "like",
        }
    }
}

/// A DRC atom — the leaves of the syntax tree (Definition 1/2). Negation
/// lives here so internal tree nodes are only quantifiers and connectives.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Atom {
    Rel {
        negated: bool,
        rel: RelId,
        terms: Vec<Term>,
    },
    Cmp {
        negated: bool,
        lhs: Term,
        op: CmpOp,
        rhs: Term,
    },
}

impl Atom {
    pub fn negate(&self) -> Atom {
        match self {
            Atom::Rel {
                negated,
                rel,
                terms,
            } => Atom::Rel {
                negated: !negated,
                rel: *rel,
                terms: terms.clone(),
            },
            Atom::Cmp {
                negated,
                lhs,
                op,
                rhs,
            } => Atom::Cmp {
                negated: !negated,
                lhs: lhs.clone(),
                op: *op,
                rhs: rhs.clone(),
            },
        }
    }

    pub fn is_negated(&self) -> bool {
        match self {
            Atom::Rel { negated, .. } | Atom::Cmp { negated, .. } => *negated,
        }
    }

    /// Variables occurring in this atom, in term order (with repeats).
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        let mut push = |t: &Term| {
            if let Term::Var(v) = t {
                out.push(*v);
            }
        };
        match self {
            Atom::Rel { terms, .. } => terms.iter().for_each(&mut push),
            Atom::Cmp { lhs, rhs, .. } => {
                push(lhs);
                push(rhs);
            }
        }
        out
    }
}

/// An FOL formula in the shape required by Definition 2: binary connectives,
/// single-variable quantifier nodes, negation only on [`Atom`] leaves once
/// normalized.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Formula {
    Atom(Atom),
    And(Box<Formula>, Box<Formula>),
    Or(Box<Formula>, Box<Formula>),
    Exists(VarId, Box<Formula>),
    Forall(VarId, Box<Formula>),
}

impl Formula {
    pub fn and(l: Formula, r: Formula) -> Formula {
        Formula::And(Box::new(l), Box::new(r))
    }

    pub fn or(l: Formula, r: Formula) -> Formula {
        Formula::Or(Box::new(l), Box::new(r))
    }

    pub fn exists(vs: &[VarId], body: Formula) -> Formula {
        vs.iter()
            .rev()
            .fold(body, |acc, v| Formula::Exists(*v, Box::new(acc)))
    }

    pub fn forall(vs: &[VarId], body: Formula) -> Formula {
        vs.iter()
            .rev()
            .fold(body, |acc, v| Formula::Forall(*v, Box::new(acc)))
    }

    /// Left-associated conjunction of `fs` (the paper fixes the
    /// associativity of connectives this way; empty input is not allowed).
    pub fn and_all(mut fs: Vec<Formula>) -> Formula {
        assert!(!fs.is_empty(), "and_all of empty list");
        let first = fs.remove(0);
        fs.into_iter().fold(first, Formula::and)
    }

    /// Visits every atom (leaf) left to right.
    pub fn for_each_atom<'a>(&'a self, f: &mut impl FnMut(&'a Atom)) {
        match self {
            Formula::Atom(a) => f(a),
            Formula::And(l, r) | Formula::Or(l, r) => {
                l.for_each_atom(f);
                r.for_each_atom(f);
            }
            Formula::Exists(_, b) | Formula::Forall(_, b) => b.for_each_atom(f),
        }
    }

    /// Free variables, in first-occurrence order.
    pub fn free_vars(&self) -> Vec<VarId> {
        fn go(f: &Formula, bound: &mut Vec<VarId>, out: &mut Vec<VarId>) {
            match f {
                Formula::Atom(a) => {
                    for v in a.vars() {
                        if !bound.contains(&v) && !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
                Formula::And(l, r) | Formula::Or(l, r) => {
                    go(l, bound, out);
                    go(r, bound, out);
                }
                Formula::Exists(v, b) | Formula::Forall(v, b) => {
                    bound.push(*v);
                    go(b, bound, out);
                    bound.pop();
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }
}

/// Metadata for one query variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarInfo {
    pub name: String,
    /// Unified attribute domain this variable ranges over (inferred from the
    /// relational atoms it occurs in).
    pub domain: DomainId,
    pub domain_type: DomainType,
}

/// Errors from query construction/validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    Parse {
        pos: usize,
        msg: String,
    },
    UnknownRelation(String),
    ArityMismatch {
        rel: String,
        expected: usize,
        got: usize,
    },
    DomainConflict {
        var: String,
        detail: String,
    },
    UnknownDomain {
        var: String,
    },
    NotSafe {
        detail: String,
    },
    OutputVarMismatch {
        detail: String,
    },
    TypeError {
        detail: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse { pos, msg } => write!(f, "parse error at byte {pos}: {msg}"),
            QueryError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            QueryError::ArityMismatch { rel, expected, got } => {
                write!(
                    f,
                    "relation `{rel}` has arity {expected}, atom has {got} terms"
                )
            }
            QueryError::DomainConflict { var, detail } => {
                write!(f, "variable `{var}` used in conflicting domains: {detail}")
            }
            QueryError::UnknownDomain { var } => {
                write!(f, "cannot infer a domain for variable `{var}` (it never occurs in a relational atom or alongside one)")
            }
            QueryError::NotSafe { detail } => write!(f, "query is not safe: {detail}"),
            QueryError::OutputVarMismatch { detail } => {
                write!(f, "output variables do not match free variables: {detail}")
            }
            QueryError::TypeError { detail } => write!(f, "type error: {detail}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A validated DRC query `{ (x1..xp) | P(x1..xp) }` over a schema.
///
/// Invariants established by [`Query::new`]:
/// * the formula is in negation normal form (negation on leaves only);
/// * every quantifier binds a distinct fresh variable (alpha-renamed);
/// * every variable has an inferred [`DomainId`];
/// * the free variables of the formula are exactly `out_vars`.
#[derive(Clone, Debug)]
pub struct Query {
    pub schema: Arc<Schema>,
    pub out_vars: Vec<VarId>,
    pub formula: Formula,
    pub vars: Vec<VarInfo>,
    /// Human-readable label (e.g. "Q1A" or "Q1B - Q1A").
    pub label: String,
}

impl Query {
    /// Validates and normalizes a raw formula into a `Query`.
    pub fn new(
        schema: Arc<Schema>,
        out_vars: Vec<VarId>,
        formula: Formula,
        var_names: Vec<String>,
    ) -> Result<Query, QueryError> {
        crate::normalize::build_query(schema, out_vars, formula, var_names, String::new())
    }

    pub fn with_label(mut self, label: impl Into<String>) -> Query {
        self.label = label.into();
        self
    }

    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    pub fn var_domain(&self, v: VarId) -> DomainId {
        self.vars[v.index()].domain
    }

    /// Whether this query is in CQ¬ (Proposition 3.1(1)): only `∃`, `∧`, and
    /// possibly-negated leaves.
    pub fn is_cq_neg(&self) -> bool {
        fn go(f: &Formula) -> bool {
            match f {
                Formula::Atom(_) => true,
                Formula::And(l, r) => go(l) && go(r),
                Formula::Or(..) | Formula::Forall(..) => false,
                Formula::Exists(_, b) => go(b),
            }
        }
        go(&self.formula)
    }

    /// The difference query `self − other` (both must share schema and
    /// output arity): `P_self ∧ ¬P_other` with `other`'s output variables
    /// substituted by `self`'s and the result re-normalized.
    pub fn difference(&self, other: &Query) -> Result<Query, QueryError> {
        crate::normalize::difference(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_negate_and_flip() {
        assert_eq!(CmpOp::Lt.negate(), Some(CmpOp::Ge));
        assert_eq!(CmpOp::Eq.negate(), Some(CmpOp::Ne));
        assert_eq!(CmpOp::Like.negate(), None);
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
        assert_eq!(CmpOp::Ne.flip(), CmpOp::Ne);
    }

    #[test]
    fn formula_free_vars() {
        let (a, b, c) = (VarId(0), VarId(1), VarId(2));
        let atom = |v: VarId| {
            Formula::Atom(Atom::Cmp {
                negated: false,
                lhs: Term::Var(v),
                op: CmpOp::Eq,
                rhs: Term::Const(Value::Int(1)),
            })
        };
        let f = Formula::and(
            atom(a),
            Formula::Exists(b, Box::new(Formula::and(atom(b), atom(c)))),
        );
        assert_eq!(f.free_vars(), vec![a, c]);
    }

    #[test]
    fn exists_desugars_nested() {
        let body = Formula::Atom(Atom::Cmp {
            negated: false,
            lhs: Term::Var(VarId(0)),
            op: CmpOp::Eq,
            rhs: Term::Var(VarId(1)),
        });
        let f = Formula::exists(&[VarId(0), VarId(1)], body);
        match f {
            Formula::Exists(v0, inner) => {
                assert_eq!(v0, VarId(0));
                assert!(matches!(*inner, Formula::Exists(v1, _) if v1 == VarId(1)));
            }
            _ => panic!("expected Exists chain"),
        }
    }

    #[test]
    fn atom_negate_toggles() {
        let a = Atom::Rel {
            negated: false,
            rel: RelId(0),
            terms: vec![Term::Wildcard],
        };
        assert!(a.negate().is_negated());
        assert!(!a.negate().negate().is_negated());
    }
}
