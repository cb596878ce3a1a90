//! Ground evaluation of DRC queries (Definition 1's `D |= Q`).

use std::collections::BTreeSet;

use cqi_drc::{Atom, CmpOp, Formula, Query, Term, VarId};
use cqi_instance::GroundInstance;
use cqi_schema::Value;
use cqi_solver::nfa::like_match;

/// A (partial) assignment of query variables to constants.
pub type Assignment = Vec<Option<Value>>;

/// The candidate constants a variable may take: the active domain of its
/// unified attribute domain (`Dom_K` restricted to `Dom(x)`, exactly as
/// Definition 7 ranges quantifiers). Safe/domain-independent queries
/// (assumption (2) of §3.1) evaluate identically over this range and the
/// full infinite domain.
fn var_range(q: &Query, db: &GroundInstance, v: VarId) -> Vec<Value> {
    let dom = q.var_domain(v);
    let out: BTreeSet<Value> = db.active_domain(Some(dom));
    out.into_iter().collect()
}

/// Public view of `var_range` for the coverage computation.
pub fn var_range_pub(q: &Query, db: &GroundInstance, v: VarId) -> Vec<Value> {
    var_range(q, db, v)
}

fn resolve(asg: &Assignment, t: &Term) -> Option<Value> {
    match t {
        Term::Var(v) => asg[v.index()].clone(),
        Term::Const(c) => Some(c.clone()),
        Term::Wildcard => None,
    }
}

/// Evaluates one atom under a (sufficiently defined) assignment.
pub fn eval_atom(db: &GroundInstance, asg: &Assignment, atom: &Atom) -> bool {
    match atom {
        Atom::Rel { negated, rel, terms } => {
            let pattern: Vec<Option<Value>> = terms.iter().map(|t| resolve(asg, t)).collect();
            let found = db.rows(*rel).any(|row| {
                pattern
                    .iter()
                    .zip(row)
                    .all(|(p, v)| p.as_ref().is_none_or(|p| p == v))
            });
            found != *negated
        }
        Atom::Cmp { negated, lhs, op, rhs } => {
            let (Some(a), Some(b)) = (resolve(asg, lhs), resolve(asg, rhs)) else {
                return false;
            };
            let res = match op {
                CmpOp::Like => match (&a, &b) {
                    (Value::Str(s), Value::Str(p)) => like_match(p, s),
                    _ => false,
                },
                other => {
                    let sop = match other {
                        CmpOp::Lt => cqi_solver::SolverOp::Lt,
                        CmpOp::Le => cqi_solver::SolverOp::Le,
                        CmpOp::Gt => cqi_solver::SolverOp::Gt,
                        CmpOp::Ge => cqi_solver::SolverOp::Ge,
                        CmpOp::Eq => cqi_solver::SolverOp::Eq,
                        CmpOp::Ne => cqi_solver::SolverOp::Ne,
                        CmpOp::Like => unreachable!(),
                    };
                    sop.eval(&a, &b).unwrap_or(false)
                }
            };
            res != *negated
        }
    }
}

fn eval_formula(q: &Query, db: &GroundInstance, asg: &mut Assignment, f: &Formula) -> bool {
    match f {
        Formula::Atom(a) => eval_atom(db, asg, a),
        Formula::And(l, r) => {
            eval_formula(q, db, asg, l) && eval_formula(q, db, asg, r)
        }
        Formula::Or(l, r) => eval_formula(q, db, asg, l) || eval_formula(q, db, asg, r),
        Formula::Exists(v, b) => {
            let range = var_range(q, db, *v);
            for c in range {
                asg[v.index()] = Some(c);
                if eval_formula(q, db, asg, b) {
                    asg[v.index()] = None;
                    return true;
                }
            }
            asg[v.index()] = None;
            false
        }
        Formula::Forall(v, b) => {
            let range = var_range(q, db, *v);
            for c in range {
                asg[v.index()] = Some(c);
                if !eval_formula(q, db, asg, b) {
                    asg[v.index()] = None;
                    return false;
                }
            }
            asg[v.index()] = None;
            true
        }
    }
}

/// All satisfying assignments of the output variables.
pub fn satisfying_assignments(q: &Query, db: &GroundInstance) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    let mut asg: Assignment = vec![None; q.vars.len()];
    fn rec(
        q: &Query,
        db: &GroundInstance,
        asg: &mut Assignment,
        i: usize,
        out: &mut Vec<Vec<Value>>,
    ) {
        if i == q.out_vars.len() {
            if eval_formula(q, db, asg, &q.formula) {
                out.push(
                    q.out_vars
                        .iter()
                        .map(|v| asg[v.index()].clone().expect("out var bound"))
                        .collect(),
                );
            }
            return;
        }
        let v = q.out_vars[i];
        for c in var_range(q, db, v) {
            asg[v.index()] = Some(c);
            rec(q, db, asg, i + 1, out);
        }
        asg[v.index()] = None;
    }
    rec(q, db, &mut asg, 0, &mut out);
    out
}

/// `Q(D)` — the set of output tuples.
pub fn evaluate(q: &Query, db: &GroundInstance) -> BTreeSet<Vec<Value>> {
    satisfying_assignments(q, db).into_iter().collect()
}

/// `D |= Q` — non-empty result (or truth, for a Boolean query).
pub fn satisfies(q: &Query, db: &GroundInstance) -> bool {
    if q.out_vars.is_empty() {
        let mut asg: Assignment = vec![None; q.vars.len()];
        return eval_formula(q, db, &mut asg, &q.formula);
    }
    !satisfying_assignments(q, db).is_empty()
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
                .relation("Drinker", &[("name", DomainType::Text), ("addr", DomainType::Text)])
                .relation("Beer", &[("name", DomainType::Text), ("brewer", DomainType::Text)])
                .relation("Bar", &[("name", DomainType::Text), ("addr", DomainType::Text)])
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
                .foreign_key("Serves", &["bar"], "Bar", &["name"])
                .foreign_key("Serves", &["beer"], "Beer", &["name"])
                .foreign_key("Likes", &["drinker"], "Drinker", &["name"])
                .foreign_key("Likes", &["beer"], "Beer", &["name"])
                .build()
                .unwrap(),
        )
    }

    /// The paper's K0 (Fig. 1).
    fn k0(s: &Arc<Schema>) -> GroundInstance {
        let mut g = GroundInstance::new(Arc::clone(s));
        g.insert_named("Drinker", &["Eve Edwards".into(), "32767 Magic Way".into()]);
        g.insert_named("Beer", &["American Pale Ale".into(), "Sierra Nevada".into()]);
        for bar in ["Restaurant Memory", "Tadim", "Restaurante Raffaele"] {
            g.insert_named("Bar", &[bar.into(), format!("{bar} addr").into()]);
        }
        g.insert_named("Likes", &["Eve Edwards".into(), "American Pale Ale".into()]);
        g.insert_named(
            "Serves",
            &["Restaurant Memory".into(), "American Pale Ale".into(), Value::real(2.25)],
        );
        g.insert_named(
            "Serves",
            &["Restaurante Raffaele".into(), "American Pale Ale".into(), Value::real(2.75)],
        );
        g.insert_named(
            "Serves",
            &["Tadim".into(), "American Pale Ale".into(), Value::real(3.5)],
        );
        g
    }

    fn qa(s: &Arc<Schema>) -> cqi_drc::Query {
        parse_query(
            s,
            "{ (x1, b1) | exists d1, p1 . Serves(x1, b1, p1) and Likes(d1, b1) and d1 like 'Eve %' \
             and forall x2, p2 (not Serves(x2, b1, p2) or p1 >= p2) }",
        )
        .unwrap()
        .with_label("QA")
    }

    fn qb(s: &Arc<Schema>) -> cqi_drc::Query {
        parse_query(
            s,
            "{ (x1, b1) | exists d1, p1, x2, p2 . Serves(x1, b1, p1) and Likes(d1, b1) \
             and d1 like 'Eve%' and Serves(x2, b1, p2) and p1 > p2 }",
        )
        .unwrap()
        .with_label("QB")
    }

    #[test]
    fn qa_returns_highest_price_bar() {
        let s = schema();
        let res = evaluate(&qa(&s), &k0(&s));
        assert_eq!(res.len(), 1);
        assert!(res.contains(&vec!["Tadim".into(), "American Pale Ale".into()]));
    }

    #[test]
    fn qb_returns_non_lowest_price_bars() {
        let s = schema();
        let res = evaluate(&qb(&s), &k0(&s));
        assert_eq!(res.len(), 2);
        assert!(res.contains(&vec!["Tadim".into(), "American Pale Ale".into()]));
        assert!(res.contains(&vec![
            "Restaurante Raffaele".into(),
            "American Pale Ale".into()
        ]));
    }

    #[test]
    fn difference_query_on_k0() {
        // K0 is exactly the paper's counterexample: QB − QA returns
        // (Restaurante Raffaele, American Pale Ale) only.
        let s = schema();
        let diff = qb(&s).difference(&qa(&s)).unwrap();
        let res = evaluate(&diff, &k0(&s));
        assert_eq!(res.len(), 1);
        assert!(res.contains(&vec![
            "Restaurante Raffaele".into(),
            "American Pale Ale".into()
        ]));
        assert!(satisfies(&diff, &k0(&s)));
    }

    #[test]
    fn empty_instance_fails_positive_query() {
        let s = schema();
        let g = GroundInstance::new(Arc::clone(&s));
        assert!(!satisfies(&qb(&s), &g));
    }

    #[test]
    fn wildcard_matches_anything() {
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists x1 (Serves(x1, b1, *)) }").unwrap();
        let res = evaluate(&q, &k0(&s));
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn boolean_query() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ | exists d1, a1 (Drinker(d1, a1) and d1 like 'Eve%') }",
        )
        .unwrap();
        assert!(satisfies(&q, &k0(&s)));
        let q2 = parse_query(
            &s,
            "{ | exists d1, a1 (Drinker(d1, a1) and d1 like 'Bob%') }",
        )
        .unwrap();
        assert!(!satisfies(&q2, &k0(&s)));
    }

    #[test]
    fn forall_with_negated_atom() {
        // Beers not liked by anyone: none in K0 (Eve likes the only beer).
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists r1 (Beer(b1, r1)) and forall d1 (not Likes(d1, b1)) }",
        )
        .unwrap();
        assert!(!satisfies(&q, &k0(&s)));
    }

    #[test]
    fn query_constants_extend_ranges() {
        // No price 9.99 in the instance, but `p1 = 9.99` can never hold;
        // `p1 < 9.99` should hold for existing prices.
        let s = schema();
        let q = parse_query(
            &s,
            "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and p1 > 3.0) }",
        )
        .unwrap();
        let res = evaluate(&q, &k0(&s));
        assert_eq!(res.len(), 1);
        assert!(res.contains(&vec!["Tadim".into()]));
    }
}
