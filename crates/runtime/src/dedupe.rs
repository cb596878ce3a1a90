//! The chase's `visited` set (Algorithm 1, line 10): deduplicates frontier
//! candidates *modulo renaming of labeled nulls*.
//!
//! A cheap renaming-invariant `signature` buckets candidates, an exact
//! `digest` gives a fast identity path, and a full isomorphism check
//! confirms duplicates on signature collisions. One root search owns one
//! set and offers its candidates in FIFO order, so the first candidate of
//! every isomorphism class is that class's representative and every later
//! one is a duplicate.

use std::collections::{HashMap, HashSet};

use cqi_obs::trace::{self, Phase};

/// The two-level key of the visited set: a renaming-invariant `signature`
/// (equal for all members of an isomorphism class — the bucket key) and an
/// exact structural `digest` (equal only for identical instances — the
/// fast positive path, mirroring the digest-keyed memos of the chase).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetKey {
    pub signature: u64,
    pub digest: u64,
}

/// Traffic counters of one [`VisitedSet`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DedupeStats {
    pub offers: u64,
    pub duplicates: u64,
    /// Signature-bucket collisions that required a full isomorphism check
    /// (same signature, different digest).
    pub iso_checks: u64,
    /// Duplicate verdicts settled by the exact-digest fast path, without a
    /// bucket walk or candidate clone.
    pub digest_fast_hits: u64,
}

/// The set of isomorphism-class representatives one root search has kept.
pub struct VisitedSet<T> {
    /// `signature → representatives of every isomorphism class sharing it`.
    buckets: HashMap<u64, Vec<T>>,
    /// Digest of every candidate offered so far. Identical digests are
    /// identical instances (the chase-wide 64-bit assumption), hence
    /// members of one class — so a repeated digest is a duplicate without
    /// walking the bucket.
    digests: HashSet<u64>,
    stats: DedupeStats,
}

impl<T> Default for VisitedSet<T> {
    fn default() -> Self {
        VisitedSet {
            buckets: HashMap::new(),
            digests: HashSet::new(),
            stats: DedupeStats::default(),
        }
    }
}

impl<T: Clone> VisitedSet<T> {
    /// Offers a candidate. Returns `true` when it is the first member of
    /// its isomorphism class (it is kept as the representative), `false`
    /// for a duplicate. `iso` is the exact check run on signature
    /// collisions, called as `iso(representative, candidate)`.
    pub fn insert(&mut self, key: SetKey, item: &T, iso: impl Fn(&T, &T) -> bool) -> bool {
        let _s = trace::span_phase("dedupe_offer", "dedupe", Phase::Dedupe);
        self.stats.offers += 1;
        if !self.digests.insert(key.digest) {
            self.stats.digest_fast_hits += 1;
            self.stats.duplicates += 1;
            return false;
        }
        let bucket = self.buckets.entry(key.signature).or_default();
        for rep in bucket.iter() {
            self.stats.iso_checks += 1;
            if iso(rep, item) {
                self.stats.duplicates += 1;
                return false;
            }
        }
        bucket.push(item.clone());
        true
    }

    /// Number of class representatives kept.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    pub fn stats(&self) -> DedupeStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test item: `class` drives the (mock) isomorphism check, `tag`
    /// distinguishes non-identical members of one class.
    #[derive(Clone, Debug, PartialEq)]
    struct Item {
        class: u32,
        tag: u32,
    }

    fn key(sig: u64, digest: u64) -> SetKey {
        SetKey {
            signature: sig,
            digest,
        }
    }

    fn iso(a: &Item, b: &Item) -> bool {
        a.class == b.class
    }

    #[test]
    fn identical_digest_is_duplicate_without_iso_check() {
        let mut set: VisitedSet<Item> = VisitedSet::default();
        let it = Item { class: 1, tag: 0 };
        let k = key(10, 100);
        assert!(set.insert(k, &it, iso));
        assert!(!set.insert(k, &it, iso));
        assert_eq!(set.stats().iso_checks, 0, "digest fast path skips iso");
        assert_eq!(set.stats().digest_fast_hits, 1, "settled by the fast path");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn signature_collision_confirms_by_isomorphism() {
        // Same signature, different digests: one genuine duplicate (same
        // class) and one distinct class that must coexist in the bucket.
        let mut set: VisitedSet<Item> = VisitedSet::default();
        let a = Item { class: 1, tag: 0 };
        let a2 = Item { class: 1, tag: 1 }; // renamed copy of a
        let b = Item { class: 2, tag: 0 }; // different class, same signature
        assert!(set.insert(key(7, 100), &a, iso));
        assert!(!set.insert(key(7, 101), &a2, iso));
        assert!(set.insert(key(7, 102), &b, iso));
        assert_eq!(set.len(), 2, "distinct classes share a bucket");
        // a2 was checked against a; b against a only (a2 was not kept).
        assert_eq!(set.stats().iso_checks, 2, "collisions ran the full check");
        assert_eq!(set.stats().digest_fast_hits, 0);
    }

    #[test]
    fn duplicate_verdicts_are_final() {
        // First-wins: the first offered member stays the representative, and
        // every later member of its class is a duplicate — including a
        // repeat of an earlier duplicate's digest.
        let mut set: VisitedSet<Item> = VisitedSet::default();
        let mk = |tag| Item { class: 3, tag };
        assert!(set.insert(key(2, 302), &mk(2), iso));
        assert!(!set.insert(key(2, 304), &mk(4), iso));
        assert!(!set.insert(key(2, 301), &mk(1), iso));
        assert!(!set.insert(key(2, 304), &mk(4), iso));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn counters_match_the_offer_stream() {
        let mut set: VisitedSet<Item> = VisitedSet::default();
        let offers = [
            (key(1, 10), Item { class: 1, tag: 0 }), // kept
            (key(2, 20), Item { class: 2, tag: 0 }), // kept: own bucket, no iso
            (key(1, 10), Item { class: 1, tag: 0 }), // digest fast hit
            (key(1, 11), Item { class: 1, tag: 1 }), // iso duplicate
            (key(1, 12), Item { class: 4, tag: 0 }), // collision, new class
        ];
        let kept: Vec<bool> = offers
            .iter()
            .map(|(k, it)| set.insert(*k, it, iso))
            .collect();
        assert_eq!(kept, [true, true, false, false, true]);
        let st = set.stats();
        assert_eq!(st.offers, 5);
        assert_eq!(st.duplicates, 2);
        assert_eq!(st.digest_fast_hits, 1);
        assert_eq!(st.iso_checks, 2);
        assert_eq!(set.len(), 3);
    }
}
