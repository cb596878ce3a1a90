//! Clause handling: a small DPLL-style search layered over the theory
//! solver ([`crate::theory`]). Clauses are few and short in practice (they
//! come from negated relational atoms and key constraints), so plain
//! chronological backtracking with theory-level pruning suffices.

use cqi_schema::DomainType;

use crate::cond::{Lit, Problem};
use crate::model::Model;
use crate::theory::check_conj;
use crate::Outcome;

/// A theory check: decides one branch's conjunction.
pub(crate) type ConjCheck = fn(&[DomainType], &[Lit]) -> Option<Model>;

/// Decides `problem` and returns a verified model when satisfiable.
pub fn solve(problem: &Problem) -> Outcome {
    solve_with(problem, check_conj)
}

/// [`solve`] with `check` deciding the conjunction at every search node.
pub(crate) fn solve_with(problem: &Problem, check: ConjCheck) -> Outcome {
    let mut conj = problem.conj.clone();
    // Drop clauses already satisfied by a conjunct (cheap subsumption).
    let clauses: Vec<&[Lit]> = problem
        .clauses
        .iter()
        .filter(|c| !c.iter().any(|l| conj.contains(l)))
        .map(|c| c.as_slice())
        .collect();
    match search(check, &problem.null_types, &mut conj, &clauses, 0) {
        Some(model) => {
            debug_assert!(
                model.verify(&problem.conj, &problem.clauses),
                "solver model failed verification"
            );
            Outcome::Sat(model)
        }
        None => Outcome::Unsat,
    }
}

fn search(
    check: ConjCheck,
    types: &[DomainType],
    conj: &mut Vec<Lit>,
    clauses: &[&[Lit]],
    idx: usize,
) -> Option<Model> {
    // Theory-level pruning at every node.
    let model = check(types, conj)?;
    if idx == clauses.len() {
        return Some(model);
    }
    // If the current partial model already satisfies the next clause, we
    // can skip branching on it (the model is a witness).
    if clauses[idx].iter().any(|l| model.eval_lit(l) == Some(true)) {
        // Still need to confirm the *rest* under the clause's truth; branch
        // on the satisfied literal first for a cheap path.
        let order: Vec<&Lit> = {
            let (sat, unsat): (Vec<&Lit>, Vec<&Lit>) = clauses[idx]
                .iter()
                .partition(|l| model.eval_lit(l) == Some(true));
            sat.into_iter().chain(unsat).collect()
        };
        for lit in order {
            conj.push(lit.clone());
            if let Some(m) = search(check, types, conj, clauses, idx + 1) {
                conj.pop();
                return Some(m);
            }
            conj.pop();
        }
        return None;
    }
    for lit in clauses[idx] {
        conj.push(lit.clone());
        if let Some(m) = search(check, types, conj, clauses, idx + 1) {
            conj.pop();
            return Some(m);
        }
        conj.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::SolverOp;
    use crate::ent::NullId;
    use cqi_schema::Value;

    fn n(i: u32) -> NullId {
        NullId(i)
    }

    #[test]
    fn clause_forces_branch() {
        // x = 1 ∧ (x ≠ 1 ∨ y ≠ 2) ∧ y = 2 is unsat;
        // dropping `y = 2` makes it sat via the y ≠ 2 branch.
        let mut p = Problem::new(vec![DomainType::Int, DomainType::Int]);
        p.assert(Lit::cmp(n(0), SolverOp::Eq, Value::Int(1)));
        p.assert(Lit::cmp(n(1), SolverOp::Eq, Value::Int(2)));
        p.assert_clause(vec![
            Lit::cmp(n(0), SolverOp::Ne, Value::Int(1)),
            Lit::cmp(n(1), SolverOp::Ne, Value::Int(2)),
        ]);
        assert!(!solve(&p).is_sat());

        let mut q = Problem::new(vec![DomainType::Int, DomainType::Int]);
        q.assert(Lit::cmp(n(0), SolverOp::Eq, Value::Int(1)));
        q.assert_clause(vec![
            Lit::cmp(n(0), SolverOp::Ne, Value::Int(1)),
            Lit::cmp(n(1), SolverOp::Ne, Value::Int(2)),
        ]);
        let m = solve(&q).model().unwrap();
        assert_ne!(m.get(n(1)), Some(&Value::Int(2)));
    }

    #[test]
    fn multiple_clauses_pigeonhole_style() {
        // x,y ∈ {1,2} via clauses, x ≠ y: sat with {1,2} assignment.
        let mut p = Problem::new(vec![DomainType::Int, DomainType::Int]);
        p.assert_clause(vec![
            Lit::cmp(n(0), SolverOp::Eq, Value::Int(1)),
            Lit::cmp(n(0), SolverOp::Eq, Value::Int(2)),
        ]);
        p.assert_clause(vec![
            Lit::cmp(n(1), SolverOp::Eq, Value::Int(1)),
            Lit::cmp(n(1), SolverOp::Eq, Value::Int(2)),
        ]);
        p.assert(Lit::cmp(n(0), SolverOp::Ne, n(1)));
        let m = solve(&p).model().unwrap();
        let a = m.get(n(0)).unwrap().clone();
        let b = m.get(n(1)).unwrap().clone();
        assert_ne!(a, b);
        for v in [a, b] {
            assert!(v == Value::Int(1) || v == Value::Int(2));
        }
    }

    #[test]
    fn unsat_across_three_values() {
        // x ∈ {1,2} (clause), x ≠ 1, x ≠ 2.
        let mut p = Problem::new(vec![DomainType::Int]);
        p.assert_clause(vec![
            Lit::cmp(n(0), SolverOp::Eq, Value::Int(1)),
            Lit::cmp(n(0), SolverOp::Eq, Value::Int(2)),
        ]);
        p.assert(Lit::cmp(n(0), SolverOp::Ne, Value::Int(1)));
        p.assert(Lit::cmp(n(0), SolverOp::Ne, Value::Int(2)));
        assert!(!solve(&p).is_sat());
    }

    #[test]
    fn negated_tuple_clause_shape() {
        // The shape produced for ¬Likes(d2, b1) against tuple (d1, b1):
        // (d2 ≠ d1 ∨ b1 ≠ b1) — must force d2 ≠ d1.
        let mut p = Problem::new(vec![DomainType::Text, DomainType::Text, DomainType::Text]);
        p.assert_clause(vec![
            Lit::cmp(n(2), SolverOp::Ne, n(0)),
            Lit::cmp(n(1), SolverOp::Ne, n(1)),
        ]);
        let m = solve(&p).model().unwrap();
        assert_ne!(m.get(n(2)), m.get(n(0)));
    }

    #[test]
    fn empty_problem_sat() {
        let p = Problem::new(vec![]);
        assert!(solve(&p).is_sat());
    }
}
