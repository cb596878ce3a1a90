//! An LRU memo for solver outcomes, keyed on canonical problems.
//!
//! The chase re-decides structurally isomorphic `IsConsistent` problems
//! constantly (fresh nulls renamed per branch, same shape). [`SolverCache`]
//! canonicalizes each [`Problem`] ([`crate::canon`]), looks the canonical
//! form up, and on a miss solves the *canonical* problem — so the cached
//! outcome is a pure function of the key — then maps the model back through
//! the null renaming.

use std::collections::HashMap;

use crate::canon::{canonicalize, CanonKey, Canonical};
use crate::cond::Problem;
use crate::model::Model;
use crate::Outcome;

/// Hit/miss/eviction counters, exposed for benchmarks and logging.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

struct CacheEntry {
    last_used: u64,
    /// Canonical-space witness; `None` records unsat.
    result: Option<Model>,
}

/// LRU-evicting memo from canonical problems to solver outcomes.
pub struct SolverCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CanonKey, CacheEntry>,
    pub stats: CacheStats,
}

/// Default capacity: ample for a whole chase run over the paper's
/// workloads while bounding memory on adversarial ones.
pub const DEFAULT_CACHE_CAPACITY: usize = 8192;

impl Default for SolverCache {
    fn default() -> Self {
        SolverCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl SolverCache {
    pub fn new(capacity: usize) -> SolverCache {
        SolverCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Decides `problem` through the memo, returning a verified model when
    /// satisfiable (in the *original* null naming).
    pub fn solve(&mut self, problem: &Problem) -> Outcome {
        let canon = canonicalize(problem);
        match self.lookup(&canon) {
            Some(out) => out,
            None => self.solve_canonical(&canon),
        }
    }

    /// Looks a pre-canonicalized problem up; counts a hit or a miss.
    pub fn lookup(&mut self, canon: &Canonical) -> Option<Outcome> {
        self.lookup_sat(canon).map(|sat| {
            if sat {
                let entry = &self.map[&canon.key];
                Outcome::Sat(canon.model_to_orig(entry.result.as_ref().expect("sat entry")))
            } else {
                Outcome::Unsat
            }
        })
    }

    /// Like [`lookup`](Self::lookup) but returns only the sat/unsat bit,
    /// skipping the per-hit model remap — the chase's consistency checks
    /// discard the witness, and hits dominate its hot path.
    pub fn lookup_sat(&mut self, canon: &Canonical) -> Option<bool> {
        self.tick += 1;
        match self.map.get_mut(&canon.key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.result.is_some())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Solves the canonical problem, stores the outcome, and returns it in
    /// the original naming. (The cached result is a pure function of the
    /// key.)
    pub fn solve_canonical(&mut self, canon: &Canonical) -> Outcome {
        let _s = cqi_obs::trace::span("dpll_solve", "solver");
        let result = crate::dpll::solve(&canon.problem()).model();
        let outcome = match &result {
            Some(m) => Outcome::Sat(canon.model_to_orig(m)),
            None => Outcome::Unsat,
        };
        self.store(canon.key.clone(), result);
        outcome
    }

    /// Reads the canonical-space entry for `key` without touching LRU state
    /// or counters — for callers (the chase's shared L2 tier) that mirror
    /// entries into another store and keep their own counters. `None` means
    /// absent; `Some(None)` records unsat.
    pub fn peek_canonical(&self, key: &CanonKey) -> Option<Option<Model>> {
        self.map.get(key).map(|e| e.result.clone())
    }

    /// Records a canonical-space outcome decided elsewhere (a shared-memo
    /// hit filled from another worker). `result` is a canonical-space
    /// witness; `None` records unsat.
    pub fn insert_canonical(&mut self, key: CanonKey, result: Option<Model>) {
        self.store(key, result);
    }

    fn store(&mut self, key: CanonKey, result: Option<Model>) {
        if self.map.len() >= self.capacity {
            self.evict();
        }
        self.map.insert(
            key,
            CacheEntry {
                last_used: self.tick,
                result,
            },
        );
    }

    /// Convenience: just the yes/no answer, through the memo.
    pub fn is_sat(&mut self, problem: &Problem) -> bool {
        matches!(self.solve(problem), Outcome::Sat(_))
    }

    /// Drops the least-recently-used quarter of the entries (ticks are
    /// unique per operation, so the cutoff removes exactly that fraction).
    fn evict(&mut self) {
        let mut ticks: Vec<u64> = self.map.values().map(|e| e.last_used).collect();
        ticks.sort_unstable();
        let cutoff = ticks[ticks.len() / 4];
        let before = self.map.len();
        self.map.retain(|_, e| e.last_used > cutoff);
        self.stats.evictions += (before - self.map.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::{Lit, SolverOp};
    use crate::ent::NullId;
    use cqi_schema::{DomainType, Value};

    fn n(i: u32) -> NullId {
        NullId(i)
    }

    fn window(null: u32, lo: i64, hi: i64) -> Problem {
        let mut p = Problem::new(vec![DomainType::Int; (null + 1) as usize]);
        p.assert(Lit::cmp(n(null), SolverOp::Gt, Value::Int(lo)));
        p.assert(Lit::cmp(n(null), SolverOp::Lt, Value::Int(hi)));
        p
    }

    #[test]
    fn hit_on_renamed_problem() {
        let mut cache = SolverCache::default();
        assert!(cache.is_sat(&window(0, 1, 5)));
        // Same shape, different null id → canonical hit.
        assert!(cache.is_sat(&window(3, 1, 5)));
        assert_eq!(cache.stats.hits, 1);
        assert_eq!(cache.stats.misses, 1);
    }

    #[test]
    fn cached_model_respects_original_naming() {
        let mut cache = SolverCache::default();
        let _ = cache.solve(&window(0, 10, 12));
        let out = cache.solve(&window(2, 10, 12));
        assert_eq!(cache.stats.hits, 1);
        let m = out.model().unwrap();
        match m.get(n(2)).unwrap() {
            Value::Int(v) => assert_eq!(*v, 11),
            other => panic!("expected int, got {other}"),
        }
    }

    #[test]
    fn unsat_is_cached_too() {
        let mut cache = SolverCache::default();
        assert!(!cache.is_sat(&window(0, 2, 3)));
        assert!(!cache.is_sat(&window(1, 2, 3)));
        assert_eq!(cache.stats.hits, 1);
    }

    #[test]
    fn eviction_keeps_capacity_bounded_and_answers_correct() {
        let mut cache = SolverCache::new(8);
        for i in 0..40 {
            assert!(cache.is_sat(&window(0, i, i + 2)), "window ({i}, {})", i + 2);
        }
        assert!(cache.len() <= 8);
        assert!(cache.stats.evictions > 0);
        // Evicted entries re-solve correctly.
        assert!(cache.is_sat(&window(0, 0, 2)));
        assert!(!cache.is_sat(&window(0, 0, 1)));
    }

    #[test]
    fn lru_prefers_recently_used() {
        let mut cache = SolverCache::new(4);
        for i in 0..4 {
            cache.is_sat(&window(0, 10 * i, 10 * i + 2));
        }
        // Touch the first entry, then overflow: the first must survive.
        cache.is_sat(&window(0, 0, 2));
        let hits_before = cache.stats.hits;
        cache.is_sat(&window(0, 100, 102)); // triggers eviction
        cache.is_sat(&window(0, 0, 2));
        assert_eq!(cache.stats.hits, hits_before + 1, "recently-used entry evicted");
    }
}
