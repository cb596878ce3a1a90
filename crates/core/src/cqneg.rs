//! The poly-time universal solution for CQ¬ (Proposition 3.1(1)).
//!
//! For a conjunctive query with negation, the universal solution is a
//! *single* c-instance: every positive relational atom becomes a tuple over
//! fresh labeled nulls, and the global condition conjoins every comparison
//! and negated relational atom. Construction is linear in the query size
//! plus one consistency check.

use std::time::Instant;

use cqi_drc::{Atom, SyntaxTree};
use cqi_instance::consistency::is_consistent;
use cqi_instance::CInstance;
use cqi_solver::Ent;

use crate::chase::materialize;
use crate::cover::coverage_of_cinstance;
use crate::solution::{CSolution, SatInstance};
use crate::treesat::Hom;

/// Builds the CQ¬ universal solution; `None` when the query is not in CQ¬.
/// An inconsistent construction yields an empty solution (the query is
/// unsatisfiable).
pub fn cq_neg_universal_solution(tree: &SyntaxTree, enforce_keys: bool) -> Option<CSolution> {
    let q = tree.query();
    if !q.is_cq_neg() {
        return None;
    }
    // lint:allow(wall-clock) the fast path reports its own elapsed time in `CqNegStats`
    let start = Instant::now();
    let mut inst = CInstance::new(q.schema.clone());
    let mut h: Hom = vec![None; q.vars.len()];
    let atoms: Vec<Atom> = tree.leaves().map(|(_, a)| a.clone()).collect();
    for atom in &atoms {
        for v in atom.vars() {
            if h[v.index()].is_none() {
                let n = inst.fresh_null(q.var_name(v), q.var_domain(v));
                h[v.index()] = Some(Ent::Null(n));
            }
        }
    }
    let built = materialize(q, &inst, &atoms, &h);
    let instances = match built {
        Some(built) if is_consistent(&built, enforce_keys) => {
            let coverage = coverage_of_cinstance(q, &built);
            vec![SatInstance {
                inst: built,
                coverage,
                accepted_at: start.elapsed(),
            }]
        }
        _ => Vec::new(),
    };
    let raw_accepted = instances.len();
    Some(CSolution {
        instances,
        raw_accepted,
        interrupted: None,
        total_time: start.elapsed(),
        stats: crate::chase::ChaseStats::default(),
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treesat::tree_sat;
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
                    "Likes",
                    &[("drinker", DomainType::Text), ("beer", DomainType::Text)],
                )
                .foreign_key("Likes", &["drinker"], "Drinker", &["name"])
                .foreign_key("Likes", &["beer"], "Beer", &["name"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn paper_example_cq_neg() {
        // "Beers not liked by some drinker" (§3.4):
        // {(b) | ∃x,d,a (Beer(b,x) ∧ Drinker(d,a) ∧ ¬Likes(d,b))}.
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b) | exists x, d, a . Beer(b, x) and Drinker(d, a) and not Likes(d, b) }",
        )
        .unwrap();
        let t = SyntaxTree::new(q);
        let sol = cq_neg_universal_solution(&t, false).unwrap();
        assert_eq!(sol.instances.len(), 1);
        let si = &sol.instances[0];
        assert!(tree_sat(t.query(), &si.inst));
        // All three leaves covered.
        assert_eq!(si.coverage.len(), 3);
        // One Beer tuple, one Drinker tuple, one ¬Likes condition.
        assert_eq!(si.inst.global.len(), 1);
    }

    #[test]
    fn non_cq_neg_is_rejected() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b) | exists x (Beer(b, x)) and forall d (not Likes(d, b)) }",
        )
        .unwrap();
        assert!(cq_neg_universal_solution(&SyntaxTree::new(q), false).is_none());
    }

    #[test]
    fn unsatisfiable_cq_neg_yields_empty_solution() {
        // Likes(d,b) ∧ ¬Likes(d,b).
        let s = schema();
        let q = parse_query(&s, "{ (b) | exists d . Likes(d, b) and not Likes(d, b) }").unwrap();
        let sol = cq_neg_universal_solution(&SyntaxTree::new(q), false).unwrap();
        assert!(sol.instances.is_empty());
    }

    #[test]
    fn comparisons_join_the_condition() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (d) | exists a, b . Drinker(d, a) and Likes(d, b) and d like 'Eve%' and b != d }",
        )
        .unwrap();
        let sol = cq_neg_universal_solution(&SyntaxTree::new(q), false).unwrap();
        assert_eq!(sol.instances.len(), 1);
        assert_eq!(sol.instances[0].inst.global.len(), 2);
    }
}
