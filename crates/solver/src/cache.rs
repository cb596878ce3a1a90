//! The exact-problem memo the chase decides through, one per worker.
//!
//! Most `IsConsistent` and Tree-SAT questions of a chase repeat a problem
//! the same worker already decided, so [`ExactCache`] keys each answer by
//! the whole [`Problem`] in its own null numbering: a hit is one hash
//! lookup, a miss is one [`crate::is_sat`] call. The stored answer is a
//! pure function of its key, so the memo never changes an answer. Renamed
//! copies of a problem are separate entries (answers are not invariant
//! under renaming; see the crate docs).

use std::collections::HashMap;

use cqi_obs::trace::{self, Phase};

use crate::cond::Problem;

/// Memo from exact problems to their Sat/Unsat answers, cleared when it
/// reaches its capacity.
pub struct ExactCache {
    map: HashMap<Problem, bool>,
    capacity: usize,
    /// Decisions answered from the memo.
    pub hits: u64,
    /// Decisions that solved.
    pub misses: u64,
}

impl ExactCache {
    /// An empty memo that is cleared whenever it holds `capacity` entries.
    pub fn new(capacity: usize) -> ExactCache {
        ExactCache {
            map: HashMap::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Is `p` satisfiable? The stored answer on a hit (`l1_lookup` span);
    /// on a miss, one solve (`solve` span) whose answer is stored.
    pub fn is_sat(&mut self, p: &Problem) -> bool {
        let hit = {
            let _s = trace::span_phase("l1_lookup", "solver", Phase::Solver);
            self.map.get(p).copied()
        };
        if let Some(sat) = hit {
            self.hits += 1;
            return sat;
        }
        self.misses += 1;
        let sat = {
            let _s = trace::span_phase("solve", "solver", Phase::Solver);
            crate::is_sat(p)
        };
        if self.map.len() >= self.capacity {
            self.map.clear();
        }
        self.map.insert(p.clone(), sat);
        sat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::{Lit, SolverOp};
    use crate::ent::NullId;
    use cqi_schema::{DomainType, Value};

    fn window(null: u32, lo: i64, hi: i64) -> Problem {
        let mut p = Problem::new(vec![DomainType::Int; (null + 1) as usize]);
        p.assert(Lit::cmp(NullId(null), SolverOp::Gt, Value::Int(lo)));
        p.assert(Lit::cmp(NullId(null), SolverOp::Lt, Value::Int(hi)));
        p
    }

    #[test]
    fn unsat_is_cached_too() {
        let mut cache = ExactCache::new(16);
        assert!(!cache.is_sat(&window(0, 2, 3)));
        assert!(!cache.is_sat(&window(0, 2, 3)));
        assert_eq!((cache.misses, cache.hits), (1, 1));
        // The same shape over another null is another key.
        assert!(!cache.is_sat(&window(1, 2, 3)));
        assert_eq!((cache.misses, cache.hits, cache.len()), (2, 1, 2));
    }

    #[test]
    fn eviction_keeps_capacity_bounded_and_answers_correct() {
        let mut cache = ExactCache::new(8);
        for i in 0..40 {
            assert!(cache.is_sat(&window(0, i, i + 2)), "window ({i}, {})", i + 2);
            assert!(cache.len() <= 8);
        }
        // Evicted entries re-solve correctly.
        let misses = cache.misses;
        assert!(cache.is_sat(&window(0, 0, 2)));
        assert!(!cache.is_sat(&window(0, 0, 1)));
        assert_eq!(cache.misses, misses + 2);
    }
}
