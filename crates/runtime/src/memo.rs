//! Per-worker memo storage and memo-tier counters.
//!
//! [`BoundedMemo`] is the capacity-bounded map a worker keeps its
//! memoized results in (the chase's sub-BFS and `IsConsistent` memos).
//! [`MemoCounts`] is the type of `ChaseStats::solver_l2` and
//! `ChaseStats::sat_l2`. Workers share no memo tier, so both always read
//! zero; they stay because the benchmark ledger reads them.

use std::collections::HashMap;
use std::hash::Hash;

/// A single-owner memo holding at most `capacity` entries. Once full it
/// drops new keys, so a long session cannot grow it without bound. The
/// first value stored for a key stays: memoized values are pure functions
/// of their keys, so a second insert would carry the same value.
pub struct BoundedMemo<K, V> {
    map: HashMap<K, V>,
    capacity: usize,
}

impl<K: Hash + Eq, V> BoundedMemo<K, V> {
    pub fn new(capacity: usize) -> BoundedMemo<K, V> {
        BoundedMemo {
            map: HashMap::new(),
            capacity,
        }
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Stores `value` under `key` unless the key is present or the memo is
    /// full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.map.len() < self.capacity {
            self.map.entry(key).or_insert(value);
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// A point-in-time copy of one memo tier's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounts {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    /// Lock acquisitions that found the tier's lock already held.
    pub contended: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert_round_trips() {
        let mut memo: BoundedMemo<u64, String> = BoundedMemo::new(1024);
        assert_eq!(memo.get(&7), None);
        memo.insert(7, "seven".into());
        assert_eq!(memo.get(&7).map(String::as_str), Some("seven"));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn first_writer_wins_on_duplicate_keys() {
        let mut memo: BoundedMemo<u64, u64> = BoundedMemo::new(64);
        memo.insert(1, 10);
        memo.insert(1, 99);
        assert_eq!(memo.get(&1), Some(&10));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn full_memo_drops_new_keys() {
        let mut memo: BoundedMemo<u64, u64> = BoundedMemo::new(4);
        for k in 0..100 {
            memo.insert(k, k);
        }
        assert_eq!(memo.len(), 4, "a full memo must drop inserts");
        assert_eq!(memo.get(&3), Some(&3));
        assert_eq!(memo.get(&4), None);
        memo.clear();
        assert!(memo.is_empty());
    }
}
