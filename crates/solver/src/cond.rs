//! The solver's input language: literals, clauses, problems.

use std::fmt;

use cqi_schema::{DomainType, Value};

use crate::ent::{Ent, NullId};

/// Comparison operators understood by the solver (negation is expressed by
/// rewriting to the dual operator; `LIKE` keeps an explicit flag because it
/// has no dual).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SolverOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl SolverOp {
    pub fn negate(self) -> SolverOp {
        match self {
            SolverOp::Lt => SolverOp::Ge,
            SolverOp::Le => SolverOp::Gt,
            SolverOp::Gt => SolverOp::Le,
            SolverOp::Ge => SolverOp::Lt,
            SolverOp::Eq => SolverOp::Ne,
            SolverOp::Ne => SolverOp::Eq,
        }
    }

    pub fn flip(self) -> SolverOp {
        match self {
            SolverOp::Lt => SolverOp::Gt,
            SolverOp::Le => SolverOp::Ge,
            SolverOp::Gt => SolverOp::Lt,
            SolverOp::Ge => SolverOp::Le,
            SolverOp::Eq => SolverOp::Eq,
            SolverOp::Ne => SolverOp::Ne,
        }
    }

    /// Evaluates the operator on two comparable constants.
    pub fn eval(self, a: &Value, b: &Value) -> Option<bool> {
        let ord = a.try_cmp(b)?;
        Some(match self {
            SolverOp::Lt => ord.is_lt(),
            SolverOp::Le => ord.is_le(),
            SolverOp::Gt => ord.is_gt(),
            SolverOp::Ge => ord.is_ge(),
            SolverOp::Eq => ord.is_eq(),
            SolverOp::Ne => ord.is_ne(),
        })
    }

    pub fn symbol(self) -> &'static str {
        match self {
            SolverOp::Lt => "<",
            SolverOp::Le => "<=",
            SolverOp::Gt => ">",
            SolverOp::Ge => ">=",
            SolverOp::Eq => "=",
            SolverOp::Ne => "!=",
        }
    }
}

/// One atomic constraint. The derived order is arbitrary but total.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lit {
    /// `lhs op rhs`.
    Cmp { lhs: Ent, op: SolverOp, rhs: Ent },
    /// `ent LIKE pattern` (or its negation). `%` matches any sequence,
    /// `_` any single character; everything else is literal.
    Like {
        negated: bool,
        ent: Ent,
        pattern: String,
    },
}

impl Lit {
    pub fn cmp(lhs: impl Into<Ent>, op: SolverOp, rhs: impl Into<Ent>) -> Lit {
        Lit::Cmp {
            lhs: lhs.into(),
            op,
            rhs: rhs.into(),
        }
    }

    pub fn like(ent: impl Into<Ent>, pattern: impl Into<String>) -> Lit {
        Lit::Like {
            negated: false,
            ent: ent.into(),
            pattern: pattern.into(),
        }
    }

    pub fn not_like(ent: impl Into<Ent>, pattern: impl Into<String>) -> Lit {
        Lit::Like {
            negated: true,
            ent: ent.into(),
            pattern: pattern.into(),
        }
    }

    /// Logical negation of this literal.
    pub fn negate(&self) -> Lit {
        match self {
            Lit::Cmp { lhs, op, rhs } => Lit::Cmp {
                lhs: lhs.clone(),
                op: op.negate(),
                rhs: rhs.clone(),
            },
            Lit::Like { negated, ent, pattern } => Lit::Like {
                negated: !negated,
                ent: ent.clone(),
                pattern: pattern.clone(),
            },
        }
    }

    /// Canonical orientation: `>`/`>=` flip to `<`/`<=`, and the operands
    /// of the symmetric `=`/`!=` are sorted — so syntactic membership
    /// checks (Tree-SAT's `f(x) ◦ f(y) ∈ φ(I)`) are orientation-blind.
    pub fn canonical(self) -> Lit {
        match self {
            Lit::Cmp { lhs, op, rhs } => {
                let (lhs, op, rhs) = match op {
                    SolverOp::Gt | SolverOp::Ge => (rhs, op.flip(), lhs),
                    SolverOp::Eq | SolverOp::Ne if lhs > rhs => (rhs, op, lhs),
                    _ => (lhs, op, rhs),
                };
                Lit::Cmp { lhs, op, rhs }
            }
            other => other,
        }
    }

    /// Nulls mentioned by this literal.
    pub fn nulls(&self) -> impl Iterator<Item = NullId> + '_ {
        let pair: [Option<NullId>; 2] = match self {
            Lit::Cmp { lhs, rhs, .. } => [lhs.as_null(), rhs.as_null()],
            Lit::Like { ent, .. } => [ent.as_null(), None],
        };
        pair.into_iter().flatten()
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Cmp { lhs, op, rhs } => write!(f, "{lhs:?} {} {rhs:?}", op.symbol()),
            Lit::Like { negated, ent, pattern } => {
                if *negated {
                    write!(f, "not ({ent:?} like '{pattern}')")
                } else {
                    write!(f, "{ent:?} like '{pattern}'")
                }
            }
        }
    }
}

/// A disjunction of literals.
pub type Clause = Vec<Lit>;

/// A satisfiability problem: `⋀ conj ∧ ⋀ (⋁ clause)`. Equality and hashing
/// are structural, so a whole problem can key an exact-answer memo.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Problem {
    /// `null_types[n.index()]` is the domain type of null `n`. Every null
    /// referenced by a literal must be covered.
    pub null_types: Vec<DomainType>,
    pub conj: Vec<Lit>,
    pub clauses: Vec<Clause>,
}

impl Problem {
    pub fn new(null_types: Vec<DomainType>) -> Problem {
        Problem {
            null_types,
            conj: Vec::new(),
            clauses: Vec::new(),
        }
    }

    pub fn num_nulls(&self) -> usize {
        self.null_types.len()
    }

    pub fn assert(&mut self, lit: Lit) {
        self.conj.push(lit);
    }

    pub fn assert_clause(&mut self, clause: Clause) {
        self.clauses.push(clause);
    }

    pub fn null_type(&self, n: NullId) -> DomainType {
        self.null_types[n.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_negate_roundtrip() {
        for op in [
            SolverOp::Lt,
            SolverOp::Le,
            SolverOp::Gt,
            SolverOp::Ge,
            SolverOp::Eq,
            SolverOp::Ne,
        ] {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn op_eval() {
        assert_eq!(
            SolverOp::Lt.eval(&Value::Int(1), &Value::Int(2)),
            Some(true)
        );
        assert_eq!(
            SolverOp::Ge.eval(&Value::str("b"), &Value::str("a")),
            Some(true)
        );
        assert_eq!(SolverOp::Eq.eval(&Value::Int(1), &Value::str("a")), None);
    }

    #[test]
    fn lit_negate_involutive() {
        let l = Lit::cmp(NullId(0), SolverOp::Lt, Value::Int(3));
        assert_eq!(l.negate().negate(), l);
        let k = Lit::like(NullId(1), "Eve%");
        assert_eq!(k.negate().negate(), k);
    }

    #[test]
    fn lit_nulls() {
        let l = Lit::cmp(NullId(0), SolverOp::Lt, NullId(4));
        assert_eq!(l.nulls().collect::<Vec<_>>(), vec![NullId(0), NullId(4)]);
    }
}
