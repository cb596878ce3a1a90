//! Synchronization shim: the single point where the runtime's protocols
//! bind to their synchronization primitives.
//!
//! Normally this module re-exports `std::sync` types unchanged — zero
//! cost, zero behavior change. Under `--features model-check` the same
//! names resolve to the vendored `loom` model checker's instrumented
//! types instead, so every lock acquisition, condvar wait/notify, and
//! protocol-relevant atomic op becomes a scheduling point of a bounded
//! exhaustive interleaving search (see `cqi-analysis`).
//!
//! Rules for runtime code:
//!
//! - `pool.rs` must route **all** synchronization through this module:
//!   `sync::Mutex`, `sync::Condvar`, `sync::atomic::*`,
//!   `sync::thread::spawn`.
//! - Pure *statistics* counters (never read back to make a control-flow
//!   decision) use [`counter::Counter`], which is deliberately **not**
//!   instrumented: branching schedules on observability counters would
//!   blow up the model state space for nothing. This is also the one
//!   designated home of `Ordering::Relaxed` in this crate (enforced by
//!   `cqi-lint`).

#[cfg(not(feature = "model-check"))]
pub use std::sync::{Condvar, Mutex};

#[cfg(feature = "model-check")]
pub use loom::sync::{Condvar, Mutex};

/// Atomics for *protocol* state (read back to make decisions): modeled
/// under `model-check`. `Ordering` is always the std enum; the modeled
/// types accept it for API compatibility but execute as `SeqCst`.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    #[cfg(not(feature = "model-check"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

    #[cfg(feature = "model-check")]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
}

/// Thread spawn used by the pool: managed (gated by the model checker's
/// scheduler) under `model-check`, plain `std::thread` otherwise.
pub mod thread {
    #[cfg(not(feature = "model-check"))]
    pub use std::thread::{spawn, JoinHandle};

    #[cfg(feature = "model-check")]
    pub use loom::thread::{spawn, JoinHandle};
}

/// Monotonic statistics counters, exempt from model instrumentation.
pub mod counter {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A monotonically increasing stats counter. Writers only add; readers
    /// only observe for reporting. Never use one to gate control flow —
    /// that would be protocol state and belongs in [`super::atomic`].
    ///
    /// This module is a designated `Ordering::Relaxed` zone: the counters
    /// carry no synchronization obligations.
    #[derive(Debug, Default)]
    pub struct Counter(AtomicU64);

    impl Counter {
        pub const fn new() -> Counter {
            Counter(AtomicU64::new(0))
        }

        #[inline]
        pub fn inc(&self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }

        #[inline]
        pub fn add(&self, n: u64) {
            self.0.fetch_add(n, Ordering::Relaxed);
        }

        #[inline]
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }
}
