//! Coverage of satisfying c-instances with respect to the *original* query
//! syntax tree.
//!
//! This is the constructive counterpart of Definition 8 that the paper's
//! implementation uses ("we keep track of the coverage of each c-instance
//! as it is created"): a leaf is covered when its homomorphic image is
//! certainly satisfied by the instance — a tuple for positive leaves,
//! membership in the global condition for negated/comparison leaves — and
//! the recursion mirrors Definition 7, unioning over the per-domain entity
//! pools at quantifiers and over all satisfying assignments of the output
//! variables at the top.
//!
//! The chase validates and covers each accepted instance once, in one
//! enumeration, on the worker and [`SatCtx`] that just accepted it
//! (`validated_coverage`), so the leaf checks reuse that context's
//! entailment answers and the worker's solver memo. The public functions
//! below build a fresh context and solve cold.

use cqi_drc::{Coverage, Formula, LeafId, Query};
use cqi_instance::CInstance;
use cqi_solver::Phi;

use crate::treesat::{Hom, SatCtx};

/// `cov(Q, I)` for a satisfying c-instance.
pub fn coverage_of_cinstance(q: &Query, inst: &CInstance) -> Coverage {
    coverage_of_cinstance_keys(q, inst, false)
}

/// `cov(Q, I)` with key constraints taken into account during certainty
/// checks.
pub fn coverage_of_cinstance_keys(q: &Query, inst: &CInstance, enforce_keys: bool) -> Coverage {
    let mut decide = Phi::is_sat_with;
    validated_coverage(&mut SatCtx::new(q, inst, enforce_keys, &mut decide)).unwrap_or_default()
}

/// Original-tree validation and coverage of an accepted instance, in one
/// enumeration of the output variables' assignments, on the context that
/// accepted it. Conjunctive trees and `*-Add` re-seeds only imply the
/// original query, so the instance is re-checked against `q.formula`: the
/// output variables are exactly its free variables, so it holds iff some
/// enumerated assignment satisfies it, and `None` means none does. An
/// empty coverage is legitimate for vacuously satisfied queries (e.g. a
/// Boolean ∀-only query on the empty instance).
pub(crate) fn validated_coverage(ctx: &mut SatCtx<'_>) -> Option<Coverage> {
    let mut cov = Coverage::new();
    let mut h: Hom = vec![None; ctx.query.vars.len()];
    enumerate_alphas(ctx, &mut h, 0, &mut cov).then_some(cov)
}

/// Covers under every assignment of the output variables from `i` on that
/// satisfies the formula; returns whether any did.
fn enumerate_alphas(ctx: &mut SatCtx<'_>, h: &mut Hom, i: usize, cov: &mut Coverage) -> bool {
    let q = ctx.query;
    if i == q.out_vars.len() {
        if !ctx.tree_sat_bound(&q.formula, h) {
            return false;
        }
        let mut next = 0u32;
        walk(ctx, h, &q.formula, &mut next, cov);
        return true;
    }
    let v = q.out_vars[i];
    let inst = ctx.inst;
    let mut any = false;
    for e in inst.domain_pool(q.var_domain(v)) {
        h[v.index()] = Some(e.clone());
        any |= enumerate_alphas(ctx, h, i + 1, cov);
    }
    h[v.index()] = None;
    any
}

fn walk(ctx: &mut SatCtx<'_>, h: &mut Hom, f: &Formula, next: &mut u32, cov: &mut Coverage) {
    match f {
        Formula::Atom(a) => {
            let id = LeafId(*next);
            *next += 1;
            if ctx.leaf(h, a) {
                cov.insert(id);
            }
        }
        Formula::And(l, r) | Formula::Or(l, r) => {
            walk(ctx, h, l, next, cov);
            walk(ctx, h, r, next, cov);
        }
        Formula::Exists(v, b) | Formula::Forall(v, b) => {
            let start = *next;
            let inst = ctx.inst;
            let pool = inst.domain_pool(ctx.query.var_domain(*v));
            let mut end = start;
            if pool.is_empty() {
                let mut probe = start;
                count_leaves(b, &mut probe);
                end = probe;
            }
            for e in pool {
                h[v.index()] = Some(e.clone());
                let mut sub = start;
                walk(ctx, h, b, &mut sub, cov);
                end = sub;
            }
            h[v.index()] = None;
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
    use cqi_instance::Cond;
    use cqi_schema::{DomainType, Schema};
    use cqi_solver::{Lit, SolverOp};
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

    #[test]
    fn conjunctive_instance_covers_all_leaves() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists d1 (Likes(d1, b1)) and exists x1, p1 (Serves(x1, b1, p1)) }",
        )
        .unwrap();
        let serves = s.rel_id("Serves").unwrap();
        let likes = s.rel_id("Likes").unwrap();
        let mut inst = CInstance::new(Arc::clone(&s));
        let b1 = inst.fresh_null("b1", s.attr_domain(likes, 1));
        let d1 = inst.fresh_null("d1", s.attr_domain(likes, 0));
        let x1 = inst.fresh_null("x1", s.attr_domain(serves, 0));
        let p1 = inst.fresh_null("p1", s.attr_domain(serves, 2));
        inst.add_tuple(likes, vec![d1.into(), b1.into()]);
        inst.add_tuple(serves, vec![x1.into(), b1.into(), p1.into()]);
        let cov = coverage_of_cinstance(&q, &inst);
        assert_eq!(cov.len(), 2);
    }

    #[test]
    fn partial_instance_covers_one_disjunct() {
        let s = schema();
        let q = parse_query(
            &s,
            "{ (b1) | exists x1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
        )
        .unwrap();
        let serves = s.rel_id("Serves").unwrap();
        let mut inst = CInstance::new(Arc::clone(&s));
        let b1 = inst.fresh_null("b1", s.attr_domain(serves, 1));
        let x1 = inst.fresh_null("x1", s.attr_domain(serves, 0));
        let p1 = inst.fresh_null("p1", s.attr_domain(serves, 2));
        inst.add_tuple(serves, vec![x1.into(), b1.into(), p1.into()]);
        inst.add_cond(Cond::Lit(Lit::cmp(
            p1,
            SolverOp::Gt,
            cqi_schema::Value::real(3.0),
        )));
        let cov = coverage_of_cinstance(&q, &inst);
        // Leaves: Serves (0), p1>3 (1), p1<1 (2): only 0 and 1 covered.
        assert_eq!(cov.len(), 2);
        assert!(cov.contains(&LeafId(0)));
        assert!(cov.contains(&LeafId(1)));
    }

    #[test]
    fn unsatisfying_instance_has_empty_coverage() {
        let s = schema();
        let q = parse_query(&s, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        let inst = CInstance::new(Arc::clone(&s));
        assert!(coverage_of_cinstance(&q, &inst).is_empty());
    }
}
