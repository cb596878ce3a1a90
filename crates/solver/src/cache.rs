//! The memo the chase decides through, one per worker.
//!
//! Every solver question of the chase is asked of one c-instance's global
//! condition φ(I): `IsConsistent` is φ(I) itself, and a Tree-SAT leaf adds
//! a few literals to it (`¬lit` for a condition leaf, the row equalities
//! for a negated relational leaf). So [`ExactCache`] keys each answer by
//! that split, (φ, extra). φ is a [`Phi`]: the problem and its hash,
//! computed once per instance and shared by every question about it. A
//! lookup hashes only the extra literals. A hit compares φ (pointer, then
//! content) and the extra literals exactly, so a hash collision is a miss;
//! a miss is one [`crate::is_sat`] call on φ ∧ extra. The stored answer is
//! a pure function of that problem, so the memo never changes an answer.
//! Renamed copies of a problem are separate entries (answers are not
//! invariant under renaming; see the crate docs).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use cqi_obs::trace::{self, Phase};

use crate::cond::{Lit, Problem};

/// A problem φ with its hash, computed once. Cloning shares the problem.
#[derive(Clone, Debug)]
pub struct Phi {
    problem: Arc<Problem>,
    hash: u64,
}

impl Phi {
    pub fn new(problem: Problem) -> Phi {
        let mut s = DefaultHasher::new();
        problem.hash(&mut s);
        Phi {
            hash: s.finish(),
            problem: Arc::new(problem),
        }
    }

    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Decides φ ∧ extra (`extra` appended to φ's conjuncts) from scratch.
    pub fn is_sat_with(&self, extra: &[Lit]) -> bool {
        let mut p = Problem::clone(&self.problem);
        p.conj.extend_from_slice(extra);
        crate::is_sat(&p)
    }

    /// The memo key of (φ, extra): φ's stored hash and the extra literals.
    fn key(&self, extra: &[Lit]) -> u64 {
        let mut s = DefaultHasher::new();
        self.hash.hash(&mut s);
        extra.hash(&mut s);
        s.finish()
    }
}

/// One stored answer: the question it answers, in full.
struct Entry {
    phi: Arc<Problem>,
    extra: Box<[Lit]>,
    sat: bool,
}

/// Memo from (φ, extra) questions to their Sat/Unsat answers, cleared when
/// it reaches its capacity.
pub struct ExactCache {
    /// One entry per key; a question whose key collides with a stored
    /// entry's replaces it.
    map: HashMap<u64, Entry>,
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

    /// Is φ ∧ extra satisfiable? The stored answer on a hit (`l1_lookup`
    /// span); on a miss, one solve (`solve` span) whose answer is stored.
    pub fn is_sat(&mut self, phi: &Phi, extra: &[Lit]) -> bool {
        let (key, hit) = {
            let _s = trace::span_phase("l1_lookup", "solver", Phase::Solver);
            let key = phi.key(extra);
            let hit = self
                .map
                .get(&key)
                .and_then(|e| (e.phi == phi.problem && *e.extra == *extra).then_some(e.sat));
            (key, hit)
        };
        if let Some(sat) = hit {
            self.hits += 1;
            return sat;
        }
        self.misses += 1;
        let sat = {
            let _s = trace::span_phase("solve", "solver", Phase::Solver);
            phi.is_sat_with(extra)
        };
        if self.map.len() >= self.capacity {
            self.map.clear();
        }
        let entry = Entry {
            phi: Arc::clone(&phi.problem),
            extra: extra.into(),
            sat,
        };
        self.map.insert(key, entry);
        sat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::SolverOp;
    use crate::ent::NullId;
    use cqi_schema::{DomainType, Value};

    fn window(null: u32, lo: i64, hi: i64) -> Problem {
        let mut p = Problem::new(vec![DomainType::Int; (null + 1) as usize]);
        p.assert(Lit::cmp(NullId(null), SolverOp::Gt, Value::Int(lo)));
        p.assert(Lit::cmp(NullId(null), SolverOp::Lt, Value::Int(hi)));
        p
    }

    fn is_sat(cache: &mut ExactCache, p: Problem) -> bool {
        cache.is_sat(&Phi::new(p), &[])
    }

    #[test]
    fn unsat_is_cached_too() {
        let mut cache = ExactCache::new(16);
        assert!(!is_sat(&mut cache, window(0, 2, 3)));
        assert!(!is_sat(&mut cache, window(0, 2, 3)));
        assert_eq!((cache.misses, cache.hits), (1, 1));
        // The same shape over another null is another key.
        assert!(!is_sat(&mut cache, window(1, 2, 3)));
        assert_eq!((cache.misses, cache.hits, cache.len()), (2, 1, 2));
    }

    #[test]
    fn eviction_keeps_capacity_bounded_and_answers_correct() {
        let mut cache = ExactCache::new(8);
        for i in 0..40 {
            assert!(
                is_sat(&mut cache, window(0, i, i + 2)),
                "window ({i}, {})",
                i + 2
            );
            assert!(cache.len() <= 8);
        }
        // Evicted entries re-solve correctly.
        let misses = cache.misses;
        assert!(is_sat(&mut cache, window(0, 0, 2)));
        assert!(!is_sat(&mut cache, window(0, 0, 1)));
        assert_eq!(cache.misses, misses + 2);
    }

    #[test]
    fn phis_with_one_stored_hash_do_not_share_an_answer() {
        // Two different problems forced onto one hash: every question
        // about them has one key, and the content check tells them apart.
        let narrow = Phi {
            problem: Arc::new(window(0, 2, 3)),
            hash: 7,
        };
        let wide = Phi {
            problem: Arc::new(window(0, 2, 5)),
            hash: 7,
        };
        assert_eq!(narrow.key(&[]), wide.key(&[]));
        let mut cache = ExactCache::new(16);
        assert!(!cache.is_sat(&narrow, &[]));
        assert!(cache.is_sat(&wide, &[]));
        assert!(!cache.is_sat(&narrow, &[]));
        assert_eq!((cache.misses, cache.hits), (3, 0));
        assert!(!cache.is_sat(&narrow, &[]));
        assert_eq!((cache.misses, cache.hits), (3, 1));
    }

    #[test]
    fn equal_phis_in_two_allocations_share_an_answer() {
        let four = Lit::cmp(NullId(0), SolverOp::Eq, Value::Int(4));
        let five = Lit::cmp(NullId(0), SolverOp::Eq, Value::Int(5));
        let a = Phi::new(window(0, 2, 5));
        let b = Phi::new(window(0, 2, 5));
        assert!(!Arc::ptr_eq(&a.problem, &b.problem));
        let mut cache = ExactCache::new(16);
        assert!(cache.is_sat(&a, std::slice::from_ref(&four)));
        assert!(cache.is_sat(&b, std::slice::from_ref(&four)));
        assert_eq!((cache.misses, cache.hits), (1, 1));
        // Other extra literals are another question.
        assert!(!cache.is_sat(&b, std::slice::from_ref(&five)));
        assert!(cache.is_sat(&b, &[]));
        assert_eq!((cache.misses, cache.hits, cache.len()), (3, 1, 3));
    }
}
