//! Property tests for c-instance isomorphism and grounding: isomorphism is
//! an equivalence relation invariant under null renaming, signatures are
//! iso-invariants, and grounded worlds satisfy the global condition.

use std::sync::Arc;

use cqi_instance::{
    consistency::consistent_model, exact_digest, ground_instance, is_isomorphic, signature,
    CInstance, Cond,
};
use cqi_schema::{DomainType, Schema, Value};
use cqi_solver::{Ent, Lit, NullId, SolverOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

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

/// Builds a random c-instance; `order` permutes null creation so that
/// `build(seed, a)` and `build(seed, b)` are isomorphic by construction.
fn build(seed: u64, shuffle: u64) -> CInstance {
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
    let n_bars = rng.gen_range(1..4usize);
    let n_prices = rng.gen_range(1..4usize);

    // Create nulls in a shuffled order (renaming the instance).
    let mut slots: Vec<(usize, cqi_schema::DomainId)> = Vec::new();
    slots.push((0, ed)); // beer
    slots.push((1, dd)); // drinker
    for i in 0..n_bars {
        slots.push((2 + i, bd));
    }
    for i in 0..n_prices {
        slots.push((10 + i, pd));
    }
    let mut order: Vec<usize> = (0..slots.len()).collect();
    let mut shuffler = StdRng::seed_from_u64(shuffle);
    order.shuffle(&mut shuffler);

    let mut inst = CInstance::new(Arc::clone(&s));
    let mut ids: Vec<Option<NullId>> = vec![None; 16];
    for idx in order {
        let (slot, d) = slots[idx];
        ids[slot] = Some(inst.fresh_null(format!("n{slot}"), d));
    }
    let beer = ids[0].unwrap();
    let drinker = ids[1].unwrap();
    let bars: Vec<NullId> = (0..n_bars).map(|i| ids[2 + i].unwrap()).collect();
    let prices: Vec<NullId> = (0..n_prices).map(|i| ids[10 + i].unwrap()).collect();

    // Deterministic content from `seed` only.
    for (i, b) in bars.iter().enumerate() {
        let p = prices[i % prices.len()];
        inst.add_tuple(serves, vec![(*b).into(), beer.into(), p.into()]);
    }
    inst.add_tuple(likes, vec![drinker.into(), beer.into()]);
    if rng.gen() {
        inst.add_cond(Cond::Lit(Lit::like(drinker, "Eve%")));
    }
    for w in prices.windows(2) {
        inst.add_cond(Cond::Lit(Lit::cmp(w[0], SolverOp::Lt, w[1])));
    }
    if rng.gen() {
        inst.add_cond(Cond::NotIn {
            rel: likes,
            tuple: vec![drinker.into(), beer.into()],
        });
    }
    inst
}

proptest! {
    // Streams are deterministic and replayable: the vendored proptest seeds
    // every (test, case) pair from PROPTEST_SEED (default 0).
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Renamed (shuffled-creation) instances are isomorphic and share a
    /// signature.
    #[test]
    fn renaming_preserves_isomorphism(seed in any::<u64>(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = build(seed, s1);
        let b = build(seed, s2);
        prop_assert_eq!(signature(&a), signature(&b));
        prop_assert!(is_isomorphic(&a, &b));
        prop_assert!(is_isomorphic(&b, &a), "symmetry");
        prop_assert!(is_isomorphic(&a, &a), "reflexivity");
    }

    /// Adding one condition breaks isomorphism (and usually the signature).
    #[test]
    fn mutation_breaks_isomorphism(seed in any::<u64>(), s1 in any::<u64>()) {
        let a = build(seed, s1);
        let mut b = build(seed, s1);
        let serves = b.schema.rel_id("Serves").unwrap();
        let pd = b.schema.attr_domain(serves, 2);
        let extra = b.fresh_null("extra", pd);
        b.add_cond(Cond::Lit(Lit::cmp(extra, SolverOp::Gt, Value::real(99.0))));
        prop_assert!(!is_isomorphic(&a, &b));
        prop_assert_ne!(exact_digest(&a), exact_digest(&b));
    }

    /// Consistent instances ground into worlds whose values satisfy every
    /// literal of the global condition.
    #[test]
    fn grounding_satisfies_conditions(seed in any::<u64>(), s1 in any::<u64>()) {
        let inst = build(seed, s1);
        match consistent_model(&inst, true) {
            None => {
                // Then grounding must also fail.
                prop_assert!(ground_instance(&inst, true).is_none());
            }
            Some(model) => {
                for cond in inst.global.iter() {
                    if let Cond::Lit(l) = cond {
                        prop_assert_eq!(model.eval_lit(l), Some(true), "{:?}", l);
                    }
                }
                let g = ground_instance(&inst, true).expect("grounds");
                prop_assert!(g.num_tuples() <= inst.num_tuples(), "worlds may merge, not grow");
            }
        }
    }

    /// Clones share storage copy-on-write: running every mutator on a clone
    /// never changes the source's digest or signature, nor whether the
    /// source is isomorphic to a fresh build.
    #[test]
    fn mutating_a_clone_leaves_the_source_alone(
        seed in any::<u64>(),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
    ) {
        let a = build(seed, s1);
        let fresh = build(seed, s2);
        let (digest, sig, iso) = (exact_digest(&a), signature(&a), is_isomorphic(&a, &fresh));
        let likes = a.schema.rel_id("Likes").unwrap();
        let serves = a.schema.rel_id("Serves").unwrap();
        let (bd, pd) = (a.schema.attr_domain(serves, 0), a.schema.attr_domain(serves, 2));
        let beer = a.tables[likes.index()][0][1].clone();
        // The id the first step's fresh null gets.
        let bar = Ent::Null(NullId(a.num_nulls() as u32));
        let mut b = a.clone();
        let steps: [&dyn Fn(&mut CInstance); 5] = [
            &|i| {
                i.fresh_null("n0", bd);
            },
            &|i| {
                i.fresh_dont_care(pd);
            },
            &|i| i.add_const_to_domain(pd, Value::real(7.0)),
            &|i| {
                i.add_tuple(serves, vec![bar.clone(), beer.clone(), Value::real(7.0).into()]);
            },
            &|i| {
                i.add_cond(Cond::Lit(Lit::cmp(beer.clone(), SolverOp::Ne, Value::str("x"))));
            },
        ];
        for step in steps {
            step(&mut b);
            prop_assert_eq!(exact_digest(&a), digest);
            prop_assert_eq!(signature(&a), sig);
            prop_assert_eq!(is_isomorphic(&a, &fresh), iso);
        }
        prop_assert!(!is_isomorphic(&a, &b));
    }

    /// The exact digest is stable (pure function of the instance).
    #[test]
    fn digest_deterministic(seed in any::<u64>(), s1 in any::<u64>()) {
        let a = build(seed, s1);
        let b = build(seed, s1);
        prop_assert_eq!(exact_digest(&a), exact_digest(&b));
    }
}

#[test]
fn isomorphism_transitivity_spot_check() {
    let a = build(7, 1);
    let b = build(7, 2);
    let c = build(7, 3);
    assert!(is_isomorphic(&a, &b));
    assert!(is_isomorphic(&b, &c));
    assert!(is_isomorphic(&a, &c));
}
