//! The `visited` set of Algorithm 1 (line 10): one kept instance per
//! isomorphism class, modulo renaming of labeled nulls, built on the three
//! tiers of [`crate::iso`] — shape counts, then the cached signature, then
//! the exact check.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::cinstance::CInstance;
use crate::iso::{is_isomorphic, signature};

/// Traffic counters of one [`IsoClasses`] set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OfferCounts {
    pub offers: u64,
    /// Offers rejected as duplicates.
    pub duplicates: u64,
    /// Pairs of an offer and a kept instance whose shape and signature
    /// matched, each settled by [`is_isomorphic`].
    pub iso_checks: u64,
}

/// The `visited` set of one search: one kept instance per isomorphism
/// class, in offer order, so the first instance offered of every class is
/// its representative and every later one is a duplicate.
///
/// Kept instances are bucketed by a hash of their shape counts
/// ([`same_shape`](crate::same_shape)). An offer computes its
/// [`signature`] only when its bucket is non-empty, and a kept instance's
/// signature is cached beside it the first time a bucket mate asks.
/// [`is_isomorphic`] decides every duplicate verdict: two instances that
/// differ only in an unused null's domain have one
/// [`exact_digest`](crate::exact_digest) but are not duplicates.
#[derive(Default)]
pub struct IsoClasses {
    buckets: HashMap<u64, Vec<(Option<u64>, CInstance)>>,
    counts: OfferCounts,
}

impl IsoClasses {
    /// Offers `inst`: `true` when it is the first of its isomorphism class
    /// (a clone is kept), `false` for a duplicate.
    pub fn offer(&mut self, inst: &CInstance) -> bool {
        self.counts.offers += 1;
        let bucket = self.buckets.entry(shape_hash(inst)).or_default();
        let mut sig = None;
        if !bucket.is_empty() {
            let s = *sig.insert(signature(inst));
            for (kept_sig, kept) in bucket.iter_mut() {
                if *kept_sig.get_or_insert_with(|| signature(kept)) == s {
                    self.counts.iso_checks += 1;
                    if is_isomorphic(kept, inst) {
                        self.counts.duplicates += 1;
                        return false;
                    }
                }
            }
        }
        bucket.push((sig, inst.clone()));
        true
    }

    pub fn counts(&self) -> OfferCounts {
        self.counts
    }

    /// The kept class representatives.
    #[cfg(test)]
    fn kept(&self) -> Vec<&CInstance> {
        self.buckets.values().flatten().map(|(_, i)| i).collect()
    }
}

/// A hash of the counts [`same_shape`](crate::same_shape) compares.
fn shape_hash(inst: &CInstance) -> u64 {
    let mut s = DefaultHasher::new();
    inst.num_nulls().hash(&mut s);
    inst.global.len().hash(&mut s);
    for rows in inst.tables.iter() {
        rows.len().hash(&mut s);
    }
    s.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::tests::{schema, two_row_instance};
    use crate::{exact_digest, same_shape, Cond};
    use cqi_schema::Schema;
    use cqi_solver::{Lit, NullId, SolverOp};
    use std::sync::Arc;

    /// Directed `>` cycles of the given lengths over fresh price nulls
    /// (`[6]` is a hexagon, `[3, 3]` two triangles), the nulls created in
    /// reverse order when `reversed`.
    fn gt_cycles(s: &Arc<Schema>, cycles: &[usize], reversed: bool) -> CInstance {
        let serves = s.rel_id("Serves").unwrap();
        let pd = s.attr_domain(serves, 2);
        let n: usize = cycles.iter().sum();
        let mut inst = CInstance::new(Arc::clone(s));
        let mut ids = vec![NullId(0); n];
        let order: Vec<usize> = if reversed {
            (0..n).rev().collect()
        } else {
            (0..n).collect()
        };
        for i in order {
            ids[i] = inst.fresh_null(format!("p{i}"), pd);
        }
        let mut start = 0;
        for &len in cycles {
            for k in 0..len {
                let (a, b) = (ids[start + k], ids[start + (k + 1) % len]);
                inst.add_cond(Cond::Lit(Lit::cmp(a, SolverOp::Gt, b)));
            }
            start += len;
        }
        inst
    }

    #[test]
    fn signature_collision_confirms_by_isomorphism() {
        // Colour refinement gives every null of a hexagon and of two
        // triangles the same colour, so the two share a shape bucket and a
        // signature but are not isomorphic. The renamed hexagon is a
        // duplicate; the triangles are a class of their own in the bucket.
        let s = schema();
        let hexagon = gt_cycles(&s, &[6], false);
        let renamed = gt_cycles(&s, &[6], true);
        let triangles = gt_cycles(&s, &[3, 3], false);
        assert!(same_shape(&hexagon, &triangles));
        assert_eq!(signature(&hexagon), signature(&triangles));
        assert_ne!(exact_digest(&hexagon), exact_digest(&renamed));
        let mut set = IsoClasses::default();
        assert!(set.offer(&hexagon));
        assert!(!set.offer(&renamed));
        assert!(set.offer(&triangles));
        assert_eq!(set.kept().len(), 2, "distinct classes share a bucket");
        // The renamed hexagon was checked against the hexagon; the
        // triangles against the hexagon only (the duplicate was not kept).
        assert_eq!(set.counts().iso_checks, 2, "collisions ran the full check");
    }

    #[test]
    fn duplicate_verdicts_are_final() {
        // First-wins: the first offered member stays the representative,
        // and every later member of its class is a duplicate, including an
        // identical repeat and a repeat of an earlier duplicate.
        let s = schema();
        let first = two_row_instance(&s, false);
        let renamed = two_row_instance(&s, true);
        assert_ne!(exact_digest(&first), exact_digest(&renamed));
        let mut set = IsoClasses::default();
        assert!(set.offer(&first));
        assert!(!set.offer(&renamed));
        assert!(!set.offer(&first));
        assert!(!set.offer(&renamed));
        let kept = set.kept();
        assert_eq!(kept.len(), 1);
        assert_eq!(exact_digest(kept[0]), exact_digest(&first));
    }

    #[test]
    fn counters_match_the_offer_stream() {
        let s = schema();
        let a = two_row_instance(&s, false);
        let with_like = |pattern: &str| {
            let mut inst = a.clone();
            inst.add_cond(Cond::Lit(Lit::like(NullId(1), pattern)));
            inst
        };
        let offers = [
            a.clone(),                     // kept: empty bucket, no signature
            gt_cycles(&s, &[6], false),    // kept: its own bucket
            a.clone(),                     // identical repeat: iso duplicate
            two_row_instance(&s, true),    // renamed: iso duplicate
            gt_cycles(&s, &[3, 3], false), // the hexagon's signature, new class
            with_like("T%"),               // kept: its own bucket
            with_like("U%"),               // same bucket, other signature
        ];
        let mut set = IsoClasses::default();
        let kept: Vec<bool> = offers.iter().map(|i| set.offer(i)).collect();
        assert_eq!(kept, [true, true, false, false, true, true, true]);
        let counts = set.counts();
        assert_eq!(counts.offers, 7);
        assert_eq!(counts.duplicates, 2);
        assert_eq!(counts.iso_checks, 3, "two duplicates and one collision");
        assert_eq!(set.kept().len(), 5);
    }

    #[test]
    fn iso_classes_keep_a_digest_twin_that_is_not_isomorphic() {
        // The exact digest hashes tables, conditions and the null count,
        // not the nulls' domains: one unused null in the bar domain, or in
        // the price domain, gives one digest but two classes.
        let s = schema();
        let serves = s.rel_id("Serves").unwrap();
        let with_unused = |col: usize| {
            let mut inst = two_row_instance(&s, false);
            inst.fresh_null("u", s.attr_domain(serves, col));
            inst
        };
        let (a, b) = (with_unused(0), with_unused(2));
        assert_eq!(exact_digest(&a), exact_digest(&b));
        assert!(!is_isomorphic(&a, &b));
        let mut set = IsoClasses::default();
        assert!(set.offer(&a));
        assert!(set.offer(&b));
        assert!(!set.offer(&with_unused(2)));
        let counts = set.counts();
        assert_eq!((counts.offers, counts.duplicates), (3, 1));
    }
}
