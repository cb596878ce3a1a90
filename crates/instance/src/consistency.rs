//! `IsConsistent` (Definition 5): reduction of a c-instance's global
//! condition to a [`cqi_solver::Problem`].
//!
//! * Comparison/LIKE conditions become solver conjuncts directly.
//! * A negated relational atom `¬R(e⃗)` becomes one clause
//!   `⋁ᵢ eᵢ ≠ tᵢ` per tuple `t` already in `R` — possible worlds contain no
//!   tuples beyond the mapped v-tables, so membership can only come from an
//!   existing row.
//! * With `enforce_keys`, key constraints add EGD clauses
//!   `(⋁ₖ t.k ≠ u.k) ∨ t.a = u.a` so that no possible world violates a key.

use cqi_solver::{Clause, Ent, Lit, Model, Outcome, Problem, SolverOp};

use crate::cinstance::{CInstance, Cond};

/// Builds the satisfiability problem for `inst`'s possible worlds.
pub fn to_problem(inst: &CInstance, enforce_keys: bool) -> Problem {
    let mut p = Problem::new(inst.null_types());
    for cond in inst.global.iter() {
        match cond {
            Cond::Lit(l) => p.assert(l.clone()),
            Cond::NotIn { rel, tuple } => {
                for row in &inst.tables[rel.index()] {
                    let mut clause: Clause = Vec::new();
                    let mut trivially_true = false;
                    for (e, t) in tuple.iter().zip(row) {
                        // A don't-care position in the negated atom stands
                        // for "any value" (`¬∃w R(.., w)`), so it can never
                        // be the point of difference.
                        if let Ent::Null(n) = e {
                            if inst.null_info(*n).dont_care {
                                continue;
                            }
                        }
                        if e == t {
                            // Syntactically identical cells can never
                            // differ; this disjunct is false, skip it.
                            continue;
                        }
                        if let (Ent::Const(a), Ent::Const(b)) = (e, t) {
                            if a != b {
                                trivially_true = true;
                                break;
                            }
                            continue;
                        }
                        clause.push(Lit::Cmp {
                            lhs: e.clone(),
                            op: SolverOp::Ne,
                            rhs: t.clone(),
                        });
                    }
                    if trivially_true {
                        continue;
                    }
                    if clause.is_empty() {
                        // ¬R(e⃗) while e⃗ is literally a row of R: the
                        // condition is unsatisfiable.
                        p.assert(Lit::Cmp {
                            lhs: Ent::Const(0.into()),
                            op: SolverOp::Eq,
                            rhs: Ent::Const(1.into()),
                        });
                    } else {
                        p.assert_clause(clause);
                    }
                }
            }
        }
    }
    if enforce_keys {
        add_key_clauses(inst, &mut p);
    }
    p
}

fn add_key_clauses(inst: &CInstance, p: &mut Problem) {
    for key in inst.schema.keys() {
        let rows = &inst.tables[key.rel.index()];
        let arity = inst.schema.relation(key.rel).arity();
        for (i, a) in rows.iter().enumerate() {
            for b in rows.iter().skip(i + 1) {
                // If the keys can coincide, the rest must coincide:
                // one clause per non-key attribute.
                let key_diff: Clause = key
                    .attrs
                    .iter()
                    .filter(|k| a[**k] != b[**k])
                    .map(|k| Lit::Cmp {
                        lhs: a[*k].clone(),
                        op: SolverOp::Ne,
                        rhs: b[*k].clone(),
                    })
                    .collect();
                for col in 0..arity {
                    if key.attrs.contains(&col) || a[col] == b[col] {
                        continue;
                    }
                    let mut clause = key_diff.clone();
                    clause.push(Lit::Cmp {
                        lhs: a[col].clone(),
                        op: SolverOp::Eq,
                        rhs: b[col].clone(),
                    });
                    p.assert_clause(clause);
                }
            }
        }
    }
}

/// `IsConsistent(I)` — is `PWD(I)` non-empty?
pub fn is_consistent(inst: &CInstance, enforce_keys: bool) -> bool {
    cqi_solver::is_sat(&to_problem(inst, enforce_keys))
}

/// Consistency with a witness model for the labeled nulls.
pub fn consistent_model(inst: &CInstance, enforce_keys: bool) -> Option<Model> {
    match cqi_solver::solve(&to_problem(inst, enforce_keys)) {
        Outcome::Sat(m) => Some(m),
        Outcome::Unsat => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_schema::{DomainType, Schema};
    use cqi_solver::SolverOp;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .relation(
                    "Likes",
                    &[("drinker", DomainType::Text), ("beer", DomainType::Text)],
                )
                .relation(
                    "Serves",
                    &[
                        ("bar", DomainType::Text),
                        ("beer", DomainType::Text),
                        ("price", DomainType::Real),
                    ],
                )
                .key("Serves", &["bar", "beer"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn empty_instance_is_consistent() {
        let inst = CInstance::new(schema());
        assert!(is_consistent(&inst, true));
    }

    #[test]
    fn contradictory_condition_inconsistent() {
        let s = schema();
        let mut inst = CInstance::new(s.clone());
        let serves = s.rel_id("Serves").unwrap();
        let pd = s.attr_domain(serves, 2);
        let p1 = inst.fresh_null("p1", pd);
        inst.add_cond(Cond::Lit(Lit::cmp(p1, SolverOp::Lt, p1)));
        assert!(!is_consistent(&inst, false));
    }

    #[test]
    fn not_in_against_identical_row_inconsistent() {
        let s = schema();
        let mut inst = CInstance::new(s.clone());
        let likes = s.rel_id("Likes").unwrap();
        let d = inst.fresh_null("d1", s.attr_domain(likes, 0));
        let b = inst.fresh_null("b1", s.attr_domain(likes, 1));
        inst.add_tuple(likes, vec![d.into(), b.into()]);
        inst.add_cond(Cond::NotIn {
            rel: likes,
            tuple: vec![d.into(), b.into()],
        });
        assert!(!is_consistent(&inst, false));
    }

    #[test]
    fn not_in_forces_disequality_in_model() {
        // ¬Likes(d2, b1) with row (d1, b1): any model must set d2 ≠ d1
        // (the I1 situation from the paper's case study).
        let s = schema();
        let mut inst = CInstance::new(s.clone());
        let likes = s.rel_id("Likes").unwrap();
        let d1 = inst.fresh_null("d1", s.attr_domain(likes, 0));
        let d2 = inst.fresh_null("d2", s.attr_domain(likes, 0));
        let b1 = inst.fresh_null("b1", s.attr_domain(likes, 1));
        inst.add_tuple(likes, vec![d1.into(), b1.into()]);
        inst.add_cond(Cond::NotIn {
            rel: likes,
            tuple: vec![d2.into(), b1.into()],
        });
        let m = consistent_model(&inst, false).unwrap();
        assert_ne!(m.get(d1), m.get(d2));
    }

    #[test]
    fn key_constraint_propagates_equality() {
        // Two Serves rows with equal bar+beer nulls: prices must be equal
        // under key (bar, beer); a strict order between them is then
        // inconsistent.
        let s = schema();
        let mut inst = CInstance::new(s.clone());
        let serves = s.rel_id("Serves").unwrap();
        let (bd, ed, pd) = (
            s.attr_domain(serves, 0),
            s.attr_domain(serves, 1),
            s.attr_domain(serves, 2),
        );
        let x = inst.fresh_null("x", bd);
        let b = inst.fresh_null("b", ed);
        let p1 = inst.fresh_null("p1", pd);
        let p2 = inst.fresh_null("p2", pd);
        inst.add_tuple(serves, vec![x.into(), b.into(), p1.into()]);
        inst.add_tuple(serves, vec![x.into(), b.into(), p2.into()]);
        inst.add_cond(Cond::Lit(Lit::cmp(p1, SolverOp::Gt, p2)));
        assert!(
            is_consistent(&inst, false),
            "without keys: two rows may differ"
        );
        assert!(
            !is_consistent(&inst, true),
            "with keys: p1 = p2 forced, p1 > p2 fails"
        );
    }

    #[test]
    fn key_constraint_satisfiable_when_keys_differ() {
        let s = schema();
        let mut inst = CInstance::new(s.clone());
        let serves = s.rel_id("Serves").unwrap();
        let (bd, ed, pd) = (
            s.attr_domain(serves, 0),
            s.attr_domain(serves, 1),
            s.attr_domain(serves, 2),
        );
        let x1 = inst.fresh_null("x1", bd);
        let x2 = inst.fresh_null("x2", bd);
        let b = inst.fresh_null("b", ed);
        let p1 = inst.fresh_null("p1", pd);
        let p2 = inst.fresh_null("p2", pd);
        inst.add_tuple(serves, vec![x1.into(), b.into(), p1.into()]);
        inst.add_tuple(serves, vec![x2.into(), b.into(), p2.into()]);
        inst.add_cond(Cond::Lit(Lit::cmp(p1, SolverOp::Gt, p2)));
        let m = consistent_model(&inst, true).unwrap();
        // The model must separate the bars (else prices would collide).
        assert_ne!(m.get(x1), m.get(x2));
    }

    #[test]
    fn model_completes_unmentioned_nulls() {
        // The witness satisfies the conditions, and `Model::complete`
        // leaves a value for every null, including one no condition
        // mentions, exactly as grounding does.
        let s = schema();
        let mut inst = CInstance::new(s.clone());
        let serves = s.rel_id("Serves").unwrap();
        let pd = s.attr_domain(serves, 2);
        let p1 = inst.fresh_null("p1", pd);
        let p2 = inst.fresh_null("p2", pd);
        let unused = inst.fresh_null("p3", pd);
        inst.add_cond(Cond::Lit(Lit::cmp(p1, SolverOp::Gt, p2)));
        let mut m = consistent_model(&inst, true).unwrap();
        assert!(m.get(p1).unwrap().as_f64() > m.get(p2).unwrap().as_f64());
        m.complete(&inst.null_types());
        assert!(
            m.get(unused).is_some(),
            "complete() grounds unmentioned nulls"
        );
        inst.add_cond(Cond::Lit(Lit::cmp(p2, SolverOp::Gt, p1)));
        assert!(consistent_model(&inst, true).is_none());
    }

    #[test]
    fn like_in_global_condition() {
        let s = schema();
        let mut inst = CInstance::new(s.clone());
        let likes = s.rel_id("Likes").unwrap();
        let d = inst.fresh_null("d1", s.attr_domain(likes, 0));
        inst.add_cond(Cond::Lit(Lit::like(d, "Eve%")));
        inst.add_cond(Cond::Lit(Lit::not_like(d, "Eve %")));
        let m = consistent_model(&inst, false).unwrap();
        match m.get(d).unwrap() {
            cqi_schema::Value::Str(v) => {
                assert!(v.starts_with("Eve") && !v.starts_with("Eve "));
            }
            other => panic!("expected string, got {other}"),
        }
    }
}
