//! Chase configuration and the six algorithm variants of §5.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shareable cooperative-cancellation flag for one explain/chase run.
///
/// Clone it, hand one copy to [`ExplainRequest::cancel`], keep the other,
/// and call [`cancel`] from any thread: the chase polls the flag on the
/// same per-step loop that checks the wall-clock deadline, stops, and
/// returns the instances accepted so far flagged
/// [`crate::Interrupted::Cancelled`]. When no token is
/// installed the hot path only pays an `Option` check.
///
/// [`cancel`]: CancelToken::cancel
/// [`ExplainRequest::cancel`]: crate::ExplainRequest::cancel
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The algorithm variants compared throughout the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Variant {
    /// Exhaustive chase (§4.2) expanding each `∨` node in place.
    DisjNaive,
    /// Whole-tree conversion to `∨`-free trees first (§4.3).
    ConjNaive,
    /// `Disj-Naive` but fresh labeled nulls are only introduced at `∃`
    /// nodes ("EO" = existential-only).
    DisjEO,
    /// `Conj-Naive` with the EO restriction.
    ConjEO,
    /// `Disj-EO`, then re-seeded runs targeting still-uncovered leaf atoms.
    DisjAdd,
    /// `Conj-EO`, then re-seeded runs targeting still-uncovered leaf atoms.
    ConjAdd,
}

impl Variant {
    pub const ALL: [Variant; 6] = [
        Variant::DisjEO,
        Variant::DisjAdd,
        Variant::DisjNaive,
        Variant::ConjEO,
        Variant::ConjAdd,
        Variant::ConjNaive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Variant::DisjNaive => "Disj-Naive",
            Variant::ConjNaive => "Conj-Naive",
            Variant::DisjEO => "Disj-EO",
            Variant::ConjEO => "Conj-EO",
            Variant::DisjAdd => "Disj-Add",
            Variant::ConjAdd => "Conj-Add",
        }
    }

    /// Does this variant pre-convert the tree to `∨`-free trees?
    pub fn is_conjunctive(self) -> bool {
        matches!(
            self,
            Variant::ConjNaive | Variant::ConjEO | Variant::ConjAdd
        )
    }

    /// Does this variant allow `∀` nodes to mint fresh labeled nulls?
    pub fn universal_fresh_nulls(self) -> bool {
        matches!(self, Variant::DisjNaive | Variant::ConjNaive)
    }

    /// Does this variant run the coverage-seeded second phase?
    pub fn is_add(self) -> bool {
        matches!(self, Variant::DisjAdd | Variant::ConjAdd)
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of one chase run that a session keeps between requests. The
/// run controls — deadline, cancellation and tracing — are not here: each
/// request carries its own ([`crate::ExplainRequest`]).
#[derive(Clone, Debug)]
pub struct ChaseConfig {
    /// Maximum c-instance size (tuples + atomic conditions) — the `limit`
    /// of Algorithm 1, ensuring termination.
    pub limit: usize,
    /// Feed key-constraint EGD clauses to the consistency check.
    pub enforce_keys: bool,
    /// Optional cap on accepted satisfying instances (before minimization).
    pub max_results: Option<usize>,
    /// Memoize solver outcomes per worker, keyed by the exact question
    /// (φ(I), extra literals), so an `IsConsistent` or Tree-SAT question
    /// the worker already decided costs one lookup. `false` is the cold
    /// reference: every question that Tree-SAT does not settle from φ(I)
    /// itself is one solve.
    pub solver_cache: bool,
    /// Thread budget for root-job fan-out (`cqi-runtime`): `1` (the
    /// default) runs every root search on the calling thread, `0` uses all
    /// available parallelism, `n > 1` fans the independent root searches
    /// of a run — one per conjunctive tree under `Conj-*`, one per
    /// uncovered leaf and tree in the `*-Add` phase — out over `n` workers
    /// of a resident pool. Each root is still one sequential FIFO search,
    /// and results merge in job order, so parallel runs accept the same
    /// instances in the same order as sequential ones: this is purely a
    /// wall-clock knob, and single-root runs never fan out.
    pub threads: usize,
}

impl ChaseConfig {
    pub fn with_limit(limit: usize) -> ChaseConfig {
        ChaseConfig {
            limit,
            enforce_keys: false,
            max_results: None,
            solver_cache: true,
            threads: 1,
        }
    }

    pub fn enforce_keys(mut self, on: bool) -> ChaseConfig {
        self.enforce_keys = on;
        self
    }

    pub fn max_results(mut self, n: usize) -> ChaseConfig {
        self.max_results = Some(n);
        self
    }

    pub fn solver_cache(mut self, on: bool) -> ChaseConfig {
        self.solver_cache = on;
        self
    }

    pub fn threads(mut self, n: usize) -> ChaseConfig {
        self.threads = n;
        self
    }

    /// The effective worker count: `0` resolves to the machine's available
    /// parallelism.
    pub fn resolved_threads(&self) -> usize {
        cqi_runtime::resolve_threads(self.threads)
    }
}

/// The run controls of one request: its wall-clock budget, its
/// cancellation token and whether it is traced. A session passes them to
/// the run as the request set them.
#[derive(Clone, Debug, Default)]
pub(crate) struct RunControls {
    /// On expiry the run returns the instances found so far, flagged
    /// [`crate::Interrupted::Deadline`].
    pub(crate) deadline: Option<Duration>,
    /// When the token fires, the run stops at the next per-step poll (the
    /// same loop that checks the deadline) and returns the instances
    /// accepted so far. `None` costs nothing on the hot path.
    pub(crate) cancel: Option<CancelToken>,
    /// Capture a span trace of the run (`cqi-obs`): request → root job →
    /// solver-call spans recorded into per-thread ring buffers and returned
    /// as Chrome trace-event JSON on `CSolution::trace`, plus the
    /// `ChaseStats` wall-time phase breakdown. Off, the instrumentation
    /// costs one relaxed atomic load per span site; the accepted stream is
    /// byte-identical either way.
    pub(crate) trace: bool,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig::with_limit(10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_properties() {
        assert!(Variant::DisjNaive.universal_fresh_nulls());
        assert!(!Variant::DisjEO.universal_fresh_nulls());
        assert!(Variant::ConjAdd.is_conjunctive());
        assert!(Variant::ConjAdd.is_add());
        assert!(!Variant::DisjNaive.is_add());
        assert_eq!(Variant::DisjAdd.name(), "Disj-Add");
    }

    #[test]
    fn config_builders() {
        let c = ChaseConfig::with_limit(15)
            .enforce_keys(true)
            .max_results(3);
        assert_eq!(c.limit, 15);
        assert!(c.enforce_keys);
        assert_eq!(c.max_results, Some(3));
        // The exact-problem memo defaults on.
        assert!(c.solver_cache);
        let cold = c.solver_cache(false);
        assert!(!cold.solver_cache);
    }

    #[test]
    fn thread_knobs() {
        let c = ChaseConfig::with_limit(6);
        assert_eq!(c.threads, 1, "sequential by default");
        assert_eq!(c.resolved_threads(), 1);
        assert_eq!(c.threads(3).resolved_threads(), 3);
        // 0 = all available parallelism (at least one worker anywhere).
        assert!(ChaseConfig::with_limit(6).threads(0).resolved_threads() >= 1);
    }
}
