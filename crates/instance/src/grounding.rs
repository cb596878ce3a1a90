//! Grounding: extracting one possible world (Definition 4/5) from a
//! consistent c-instance.

use cqi_schema::Value;
use cqi_solver::Ent;

use crate::cinstance::CInstance;
use crate::consistency::consistent_model;
use crate::ground::GroundInstance;

/// Produces one ground instance `μ(I) ∈ PWD(I)` by solving the global
/// condition and filling unconstrained (don't-care) nulls with distinct
/// fresh constants. Returns `None` when the instance is inconsistent.
pub fn ground_instance(inst: &CInstance, enforce_keys: bool) -> Option<GroundInstance> {
    let mut model = consistent_model(inst, enforce_keys)?;
    model.complete(&inst.null_types());
    let mut g = GroundInstance::new(inst.schema.clone());
    for (rel, row) in inst.tuples() {
        let tuple: Vec<Value> = row
            .iter()
            .map(|e| match e {
                Ent::Const(v) => v.clone(),
                Ent::Null(n) => model
                    .get(*n)
                    .expect("completed model covers all nulls")
                    .clone(),
            })
            .collect();
        g.insert(rel, tuple);
    }
    Some(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cinstance::Cond;
    use cqi_schema::{DomainType, Schema};
    use cqi_solver::{Lit, SolverOp};
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

    /// Builds the paper's I0 (Fig. 4) and grounds it: the result must have
    /// the shape of K0 (Fig. 1) — 3 bars serving one beer at descending
    /// prices, liked by a drinker whose name starts with "Eve ".
    #[test]
    fn grounding_i0_yields_k0_shape() {
        let s = schema();
        let mut inst = CInstance::new(Arc::clone(&s));
        let serves = s.rel_id("Serves").unwrap();
        let likes = s.rel_id("Likes").unwrap();
        let (bd, ed, pd) = (
            s.attr_domain(serves, 0),
            s.attr_domain(serves, 1),
            s.attr_domain(serves, 2),
        );
        let dd = s.attr_domain(likes, 0);
        let d1 = inst.fresh_null("d1", dd);
        let b1 = inst.fresh_null("b1", ed);
        let xs: Vec<_> = (1..=3)
            .map(|i| inst.fresh_null(format!("x{i}"), bd))
            .collect();
        let ps: Vec<_> = (1..=3)
            .map(|i| inst.fresh_null(format!("p{i}"), pd))
            .collect();
        for (x, p) in xs.iter().zip(&ps) {
            inst.add_tuple(serves, vec![(*x).into(), b1.into(), (*p).into()]);
        }
        inst.add_tuple(likes, vec![d1.into(), b1.into()]);
        inst.add_cond(Cond::Lit(Lit::like(d1, "Eve %")));
        inst.add_cond(Cond::Lit(Lit::cmp(ps[0], SolverOp::Gt, ps[1])));
        inst.add_cond(Cond::Lit(Lit::cmp(ps[1], SolverOp::Gt, ps[2])));
        assert_eq!(inst.size(), 12, "|I0| = 12 as in the paper");

        let g = ground_instance(&inst, true).unwrap();
        assert!(g.satisfies_foreign_keys());
        // 3 serves rows with distinct prices.
        let serves_rows: Vec<_> = g.rows(serves).collect();
        assert_eq!(serves_rows.len(), 3);
        let mut prices: Vec<f64> = serves_rows.iter().map(|r| r[2].as_f64().unwrap()).collect();
        prices.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(prices[0] < prices[1] && prices[1] < prices[2]);
        // One drinker named "Eve ...".
        let drinker = s.rel_id("Drinker").unwrap();
        let names: Vec<_> = g.rows(drinker).collect();
        assert_eq!(names.len(), 1);
        match &names[0][0] {
            Value::Str(n) => assert!(n.starts_with("Eve ")),
            other => panic!("expected string, got {other}"),
        }
    }

    #[test]
    fn inconsistent_instance_does_not_ground() {
        let s = schema();
        let mut inst = CInstance::new(Arc::clone(&s));
        let serves = s.rel_id("Serves").unwrap();
        let pd = s.attr_domain(serves, 2);
        let p = inst.fresh_null("p", pd);
        inst.add_cond(Cond::Lit(Lit::cmp(p, SolverOp::Ne, p)));
        assert!(ground_instance(&inst, false).is_none());
    }

    #[test]
    fn dont_cares_get_distinct_values() {
        let s = schema();
        let mut inst = CInstance::new(Arc::clone(&s));
        let bar = s.rel_id("Bar").unwrap();
        let bd = s.attr_domain(bar, 0);
        let x1 = inst.fresh_null("x1", bd);
        let x2 = inst.fresh_null("x2", bd);
        let a1 = inst.fresh_dont_care(s.attr_domain(bar, 1));
        let a2 = inst.fresh_dont_care(s.attr_domain(bar, 1));
        inst.add_tuple(bar, vec![x1.into(), a1.into()]);
        inst.add_tuple(bar, vec![x2.into(), a2.into()]);
        inst.add_cond(Cond::Lit(Lit::cmp(x1, SolverOp::Ne, x2)));
        let g = ground_instance(&inst, false).unwrap();
        assert_eq!(g.rows(bar).count(), 2);
    }
}
