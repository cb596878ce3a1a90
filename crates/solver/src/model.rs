//! Concrete models (assignments of constants to labeled nulls) and model
//! verification.

use cqi_schema::{DomainType, Value};

use crate::cond::{Clause, Lit};
use crate::ent::{Ent, NullId};
use crate::nfa::like_match;

/// An assignment of constants to (a subset of) the labeled nulls. Nulls not
/// mentioned by any constraint remain `None`; [`Model::complete`] fills them
/// with distinct defaults for grounding.
#[derive(Clone, Debug, Default)]
pub struct Model {
    values: Vec<Option<Value>>,
}

impl Model {
    pub fn new(values: Vec<Option<Value>>) -> Model {
        Model { values }
    }

    pub fn get(&self, n: NullId) -> Option<&Value> {
        self.values.get(n.index()).and_then(|v| v.as_ref())
    }

    pub fn set(&mut self, n: NullId, v: Value) {
        if n.index() >= self.values.len() {
            self.values.resize(n.index() + 1, None);
        }
        self.values[n.index()] = Some(v);
    }

    /// Resolves an entity to a constant under this model.
    pub fn resolve(&self, e: &Ent) -> Option<Value> {
        match e {
            Ent::Const(v) => Some(v.clone()),
            Ent::Null(n) => self.get(*n).cloned(),
        }
    }

    /// Evaluates a literal; `None` if a referenced null is unassigned.
    pub fn eval_lit(&self, lit: &Lit) -> Option<bool> {
        match lit {
            Lit::Cmp { lhs, op, rhs } => {
                let (a, b) = (self.resolve(lhs)?, self.resolve(rhs)?);
                op.eval(&a, &b)
            }
            Lit::Like {
                negated,
                ent,
                pattern,
            } => {
                let v = self.resolve(ent)?;
                match v {
                    Value::Str(s) => Some(like_match(pattern, &s) != *negated),
                    _ => Some(false),
                }
            }
        }
    }

    /// Checks that every conjunct holds and every clause has a true literal.
    pub fn verify(&self, conj: &[Lit], clauses: &[Clause]) -> bool {
        conj.iter().all(|l| self.eval_lit(l) == Some(true))
            && clauses
                .iter()
                .all(|c| c.iter().any(|l| self.eval_lit(l) == Some(true)))
    }

    // The loop index doubles as the null id for the defaults table; an
    // iterator over `self.assign` would hide that correspondence.
    #[allow(clippy::needless_range_loop)]
    /// Fills unassigned nulls with pairwise-distinct default constants of
    /// the right type, leaving assigned nulls untouched. Distinctness keeps
    /// grounded instances from accidentally collapsing tuples.
    pub fn complete(&mut self, types: &[DomainType]) {
        if self.values.len() < types.len() {
            self.values.resize(types.len(), None);
        }
        // Values already used, to steer clear of collisions.
        let used: Vec<Value> = self.values.iter().flatten().cloned().collect();
        let mut counter = 0i64;
        for (i, slot) in self.values.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            loop {
                let cand = match types[i] {
                    DomainType::Int => Value::Int(1000 + counter),
                    DomainType::Real => Value::real(1000.0 + counter as f64),
                    DomainType::Text => Value::str(format!("v{counter}")),
                };
                counter += 1;
                if !used.contains(&cand) {
                    *slot = Some(cand);
                    break;
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::SolverOp;

    #[test]
    fn eval_and_verify() {
        let mut m = Model::default();
        m.set(NullId(0), Value::Int(5));
        m.set(NullId(1), Value::Int(7));
        let l = Lit::cmp(NullId(0), SolverOp::Lt, NullId(1));
        assert_eq!(m.eval_lit(&l), Some(true));
        assert_eq!(m.eval_lit(&l.negate()), Some(false));
        assert!(m.verify(std::slice::from_ref(&l), &[vec![l.negate(), l.clone()]]));
        assert!(!m.verify(&[l.negate()], &[]));
    }

    #[test]
    fn eval_unassigned_is_none() {
        let m = Model::default();
        let l = Lit::cmp(NullId(0), SolverOp::Lt, Value::Int(1));
        assert_eq!(m.eval_lit(&l), None);
    }

    #[test]
    fn complete_assigns_distinct_defaults() {
        let mut m = Model::default();
        m.set(NullId(1), Value::str("v0")); // collides with default scheme
        m.complete(&[DomainType::Text, DomainType::Text, DomainType::Int]);
        let a = m.get(NullId(0)).unwrap().clone();
        let b = m.get(NullId(1)).unwrap().clone();
        let c = m.get(NullId(2)).unwrap().clone();
        assert_ne!(a, b);
        assert!(matches!(c, Value::Int(_)));
    }

    #[test]
    fn like_on_number_is_false() {
        let mut m = Model::default();
        m.set(NullId(0), Value::Int(5));
        assert_eq!(m.eval_lit(&Lit::like(NullId(0), "5%")), Some(false));
    }
}
