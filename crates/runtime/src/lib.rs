//! # cqi-runtime
//!
//! Execution substrate for the chase: a work-stealing [`ResidentPool`]
//! behind the [`Exec`] handle that fans whole root searches out across
//! workers, the resident [`Executor`] whose parked threads run detached
//! jobs (every streamed explain's drive, so no request spawns a thread),
//! the capacity-bounded [`BoundedMemo`] each worker keeps its memos in,
//! and the [`sync`] shim every synchronization primitive goes through.
//! Workers share no memo.
//!
//! ## Determinism model
//!
//! The paper's chase has independent units only at its roots: `Conj-*`
//! chases each `∨`-free conjunctive tree separately, and `*-Add` runs one
//! re-seeded search per uncovered leaf. Inside a root, Algorithm 1 is a
//! FIFO BFS over one visited set. So `threads > 1` has exactly one
//! meaning — root-job fan-out — and parallel runs stay byte-identical to
//! sequential ones because
//!
//! 1. **every root is searched sequentially** on one worker context, with
//!    its own visited set, so its accepted stream is the same whichever
//!    worker runs it;
//! 2. **worker state is speed-only** — each worker's memo contexts hold
//!    pure functions of their keys, so which worker runs a root never
//!    changes an answer; and
//! 3. **results are merged in job order** — [`Exec::run`] returns results
//!    in item order, and the chase concatenates the per-root streams in
//!    the order a sequential run would have produced them.
//!
//! See `cqi-core`'s `parallel_props.rs` for the property suite asserting
//! sequential ≡ parallel.

#![deny(unsafe_code)]

pub mod executor;
pub mod memo;
pub mod pool;
pub mod sync;

pub use executor::{Executor, JobHandle};
pub use memo::{BoundedMemo, MemoCounts};
pub use pool::{Exec, ResidentPool, RunCounters, RunCounts};

/// Resolves a user-facing thread budget: `0` means "all available
/// parallelism", anything else is taken literally (minimum 1).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_zero_is_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }
}
