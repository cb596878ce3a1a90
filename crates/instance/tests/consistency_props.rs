//! Property tests for the memoized consistency path: deciding an
//! instance's problem through the exact memo must agree with the
//! from-scratch `IsConsistent` on randomly generated c-instances, including
//! negated atoms and key constraints.

use std::sync::{Arc, Mutex, OnceLock};

use cqi_instance::consistency::{is_consistent, to_problem};
use cqi_instance::{CInstance, Cond};
use cqi_schema::{DomainType, Schema, Value};
use cqi_solver::{ExactCache, Lit, NullId, SolverOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
            .key("Serves", &["bar", "beer"])
            .build()
            .unwrap(),
    )
}

/// One memo shared by all cases, so entries from earlier cases are live
/// while later ones are decided.
fn shared_cache() -> &'static Mutex<ExactCache> {
    static CACHE: OnceLock<Mutex<ExactCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(ExactCache::new(8192)))
}

/// Builds a random c-instance: Serves/Likes rows over shared nulls, price
/// orders, LIKEs, and sometimes negated atoms.
fn build(seed: u64) -> CInstance {
    let s = schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let serves = s.rel_id("Serves").unwrap();
    let likes = s.rel_id("Likes").unwrap();
    let (bd, ed, pd) = (
        s.attr_domain(serves, 0),
        s.attr_domain(serves, 1),
        s.attr_domain(serves, 2),
    );
    let dd = s.attr_domain(likes, 0);
    let mut inst = CInstance::new(Arc::clone(&s));
    let beer = inst.fresh_null("b", ed);
    let n_rows = rng.gen_range(0..4usize);
    let mut prices: Vec<NullId> = Vec::new();
    for i in 0..n_rows {
        // Sometimes reuse the bar null to make key clauses bite.
        let bar = if i > 0 && rng.gen_bool(0.3) {
            NullId(1) // the first bar null (created below on i == 0)
        } else {
            inst.fresh_null(format!("x{i}"), bd)
        };
        let p = inst.fresh_null(format!("p{i}"), pd);
        prices.push(p);
        inst.add_tuple(serves, vec![bar.into(), beer.into(), p.into()]);
    }
    for w in prices.windows(2) {
        let op = [SolverOp::Lt, SolverOp::Gt, SolverOp::Eq][rng.gen_range(0..3)];
        inst.add_cond(Cond::Lit(Lit::cmp(w[0], op, w[1])));
    }
    if let Some(&p) = prices.first() {
        if rng.gen() {
            inst.add_cond(Cond::Lit(Lit::cmp(p, SolverOp::Gt, Value::real(2.0))));
        }
        if rng.gen() {
            inst.add_cond(Cond::Lit(Lit::cmp(p, SolverOp::Lt, Value::real(2.5))));
        }
    }
    if rng.gen() {
        let d = inst.fresh_null("d", dd);
        inst.add_tuple(likes, vec![d.into(), beer.into()]);
        inst.add_cond(Cond::Lit(Lit::like(d, "Eve%")));
        if rng.gen() {
            let d2 = inst.fresh_null("d2", dd);
            inst.add_cond(Cond::NotIn {
                rel: likes,
                tuple: vec![d2.into(), beer.into()],
            });
            if rng.gen() {
                inst.add_cond(Cond::Lit(Lit::cmp(d2, SolverOp::Eq, d)));
            }
        }
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Memoized and from-scratch `IsConsistent` agree, with keys on and
    /// off, across a memo shared by all 256 cases.
    #[test]
    fn memoized_consistency_agrees(seed in any::<u64>()) {
        let inst = build(seed);
        let cache = shared_cache();
        for keys in [false, true] {
            let plain = is_consistent(&inst, keys);
            let cached = cache.lock().unwrap().is_sat(&to_problem(&inst, keys));
            prop_assert_eq!(plain, cached, "keys={}", keys);
        }
    }
}

#[test]
fn shared_cache_accumulates_hits() {
    // Re-checking an instance hits: its problem is built in the
    // instance's own null numbering, so it is the same key.
    let cache = shared_cache();
    let inst = build(12345);
    let a = cache.lock().unwrap().is_sat(&to_problem(&inst, true));
    let hits_before = cache.lock().unwrap().hits;
    let b = cache.lock().unwrap().is_sat(&to_problem(&inst, true));
    assert_eq!(a, b);
    assert_eq!(a, is_consistent(&inst, true));
    assert!(cache.lock().unwrap().hits > hits_before);
}
