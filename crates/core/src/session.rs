//! The unified streaming explanation API: [`Session`] → [`ExplainRequest`]
//! → [`SolutionStream`].
//!
//! The paper's §5.1 interactivity argument is that conditional instances
//! are useful *as they arrive* — time-to-first-instance, not batch
//! completion, is what makes explanations usable. A [`Session`] packages
//! everything a service keeps between requests (the schema, a tuned
//! [`ChaseConfig`], and warm solver caches), and [`Session::explain`]
//! returns a [`SolutionStream`] that yields [`AcceptedInstance`]s while the
//! chase is still driving, in the same deterministic order as the batch
//! API under any thread budget.
//!
//! ```
//! use std::sync::Arc;
//! use cqi_schema::{DomainType, Schema};
//! use cqi_core::{ExplainRequest, Session};
//!
//! let schema = Arc::new(
//!     Schema::builder()
//!         .relation("Likes", &[("drinker", DomainType::Text), ("beer", DomainType::Text)])
//!         .build()
//!         .unwrap(),
//! );
//! let session = Session::new(schema);
//! let stream = session
//!     .explain(ExplainRequest::drc("{ (b1) | exists d1 (Likes(d1, b1)) }").limit(4))
//!     .unwrap();
//! let mut n = 0;
//! let sol = {
//!     let mut stream = stream;
//!     for accepted in stream.by_ref() {
//!         n += 1;
//!         assert!(accepted.inst.size() <= 4);
//!     }
//!     stream.collect()
//! };
//! // The stream yields every accepted instance that satisfies the
//! // *original* tree; under conjunctive variants a few raw accepts can
//! // fail that re-check, so `n <= raw_accepted` in general.
//! assert!(n >= sol.instances.len() && n <= sol.raw_accepted);
//! assert!(sol.interrupted.is_none());
//! ```
//!
//! ## Migration from `run_variant`
//!
//! A [`Session`] is the only way to run the chase. The removed batch entry
//! point and run controls map as follows:
//!
//! | before | after |
//! |---|---|
//! | `run_variant(&tree, v, &cfg)` | `Session::new(schema).config(cfg).explain_collect(ExplainRequest::tree(&tree).variant(v))` |
//! | `ChaseConfig::timeout(d)` | `ExplainRequest::deadline(d)`, on each request |
//! | `ChaseConfig::cancel(token)` / `ChaseConfig::trace(on)` | `ExplainRequest::cancel(token)` (or `SolutionStream::cancel()`) / `ExplainRequest::trace(on)` |
//! | `parse_query` vs `sql_to_drc` per front-end | `ExplainRequest::drc(src)` / `ExplainRequest::sql(src)` |
//! | results at drive end | `SolutionStream` yields during the drive |

use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use cqi_drc::{parse_query, QueryError, SyntaxTree};
use cqi_runtime::{Executor, JobHandle};
use cqi_schema::Schema;
use cqi_sql::sql_to_drc;

use crate::chase::ChaseCaches;
use crate::config::{CancelToken, ChaseConfig, RunControls, Variant};
use crate::solution::{AcceptedInstance, CSolution};
use crate::variants::run_variant_observed;

/// A query in any of the supported front-ends. `Drc`/`Sql` sources are
/// compiled against the session's schema; a pre-parsed [`SyntaxTree`]
/// carries its own.
#[derive(Clone, Copy, Debug)]
pub enum QueryInput<'q> {
    /// DRC text syntax (`{ (b1) | exists d1 (Likes(d1, b1)) }`).
    Drc(&'q str),
    /// SQL (`SELECT l.beer FROM Likes l`, including `JOIN ... ON`,
    /// `EXISTS`/`NOT EXISTS`, and `EXCEPT`).
    Sql(&'q str),
    /// A pre-parsed syntax tree (no compilation step).
    Tree(&'q SyntaxTree),
}

/// One explanation request: a query (in any front-end), an algorithm
/// variant, per-request overrides of the session's tuning, and the run
/// controls (deadline, cancellation, tracing), which only a request sets.
/// Built fluently:
///
/// ```ignore
/// ExplainRequest::sql("SELECT l.beer FROM Likes l")
///     .variant(Variant::ConjAdd)
///     .limit(8)
///     .deadline(Duration::from_secs(2))
///     .cancel(token)
/// ```
#[derive(Clone, Debug)]
pub struct ExplainRequest<'q> {
    input: QueryInput<'q>,
    variant: Variant,
    limit: Option<usize>,
    max_results: Option<usize>,
    threads: Option<usize>,
    run: RunControls,
    deepening: Option<(usize, usize)>,
}

impl<'q> ExplainRequest<'q> {
    pub fn new(input: QueryInput<'q>) -> ExplainRequest<'q> {
        ExplainRequest {
            input,
            variant: Variant::ConjAdd,
            limit: None,
            max_results: None,
            threads: None,
            run: RunControls::default(),
            deepening: None,
        }
    }

    pub fn drc(src: &'q str) -> ExplainRequest<'q> {
        ExplainRequest::new(QueryInput::Drc(src))
    }

    pub fn sql(src: &'q str) -> ExplainRequest<'q> {
        ExplainRequest::new(QueryInput::Sql(src))
    }

    pub fn tree(tree: &'q SyntaxTree) -> ExplainRequest<'q> {
        ExplainRequest::new(QueryInput::Tree(tree))
    }

    /// The algorithm variant (default: [`Variant::ConjAdd`], the paper's
    /// best coverage-per-second tradeoff).
    pub fn variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Overrides the session's instance-size limit for this request.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Wall-clock budget for this request; on expiry the drive stops and
    /// the solution is flagged [`Interrupted::Deadline`]. A deadline of
    /// zero returns immediately (useful as a liveness probe).
    ///
    /// [`Interrupted::Deadline`]: crate::Interrupted::Deadline
    pub fn deadline(mut self, d: Duration) -> Self {
        self.run.deadline = Some(d);
        self
    }

    /// Stops after `n` accepted instances (pre-minimization).
    pub fn max_results(mut self, n: usize) -> Self {
        self.max_results = Some(n);
        self
    }

    /// Overrides the session's thread budget for this request.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Installs a cooperative cancellation token (see [`CancelToken`]).
    ///
    /// [`Session::explain`] *adopts* the token as the stream's own:
    /// dropping the returned `SolutionStream` before the drive finishes
    /// fires it. Share a token across runs only if cancelling them
    /// together is intended (tokens never reset).
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.run.cancel = Some(token);
        self
    }

    /// Captures a span trace of this request (`cqi-obs`): the run's
    /// request → root job → wave → solver-call span tree is returned as
    /// Chrome trace-event JSON on [`CSolution::trace`] (load it in
    /// Perfetto), and [`CSolution::stats`] gains the wall-time phase
    /// breakdown. The accepted stream is byte-identical with tracing on or
    /// off; untraced requests pay one relaxed atomic load per span site.
    pub fn trace(mut self, on: bool) -> Self {
        self.run.trace = on;
        self
    }

    /// Iterative deepening (§4.3's timeout-instead-of-limit mode): the
    /// drive reruns with the instance-size limit growing from
    /// `start_limit` by `step` until a level completes without the limit
    /// cutting its search (every deeper level would explore the same
    /// instances), a level is interrupted, or the request deadline (10 s
    /// without one) is exhausted. A level's solution replaces the kept one
    /// when it has more coverages, or as many and its level completed, so
    /// on a tie the kept solution is a completed level, not the one the
    /// deadline interrupted. [`Session::explain_collect`] returns that
    /// solution; [`Session::explain_deepening`] also reports the limit it
    /// was found at.
    pub fn deepening(mut self, start_limit: usize, step: usize) -> Self {
        self.deepening = Some((start_limit, step.max(1)));
        self
    }
}

/// Iterative deepening's keep rule: a level's solution replaces the kept
/// one when it has more coverages, or as many and the level completed.
fn replaces_kept(kept_coverages: usize, coverages: usize, completed: bool) -> bool {
    coverages > kept_coverages || (coverages == kept_coverages && completed)
}

/// The resident threads every streamed drive runs on, shared by all
/// sessions of the process: a session per request still spawns no thread.
fn explain_workers() -> &'static Executor {
    static WORKERS: OnceLock<Executor> = OnceLock::new();
    WORKERS.get_or_init(Executor::new)
}

/// Briefly locks the session cache slot and takes the bundle out (an empty
/// bundle runs cold and warms up as it goes).
fn checkout(slot: &Mutex<ChaseCaches>) -> ChaseCaches {
    std::mem::take(&mut *slot.lock().unwrap_or_else(|p| p.into_inner()))
}

/// Returns a bundle to the slot; under concurrent explains the last
/// check-in wins and the other bundle is simply dropped.
fn checkin(slot: &Mutex<ChaseCaches>, caches: ChaseCaches) {
    *slot.lock().unwrap_or_else(|p| p.into_inner()) = caches;
}

/// A compiled request input: borrowed for pre-parsed trees, owned for
/// freshly compiled sources.
enum Compiled<'q> {
    Borrowed(&'q SyntaxTree),
    Owned(SyntaxTree),
}

impl Compiled<'_> {
    fn as_ref(&self) -> &SyntaxTree {
        match self {
            Compiled::Borrowed(t) => t,
            Compiled::Owned(t) => t,
        }
    }

    fn into_owned(self) -> SyntaxTree {
        match self {
            Compiled::Borrowed(t) => t.clone(),
            Compiled::Owned(t) => t,
        }
    }
}

/// A reusable explanation session: schema + tuned [`ChaseConfig`] + warm
/// solver caches, shared across queries. The caches are speed-only state —
/// explaining the same query through a warm or a cold session yields
/// byte-identical streams. A session is the only way to run the chase.
pub struct Session {
    schema: Arc<Schema>,
    cfg: ChaseConfig,
    caches: Arc<Mutex<ChaseCaches>>,
}

impl Session {
    /// A session with the default configuration ([`ChaseConfig::default`]).
    pub fn new(schema: Arc<Schema>) -> Session {
        Session {
            schema,
            cfg: ChaseConfig::default(),
            caches: Arc::new(Mutex::new(ChaseCaches::default())),
        }
    }

    /// Replaces the session's base configuration (per-request knobs on
    /// [`ExplainRequest`] override it per call).
    pub fn config(mut self, cfg: ChaseConfig) -> Session {
        self.cfg = cfg;
        self
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn compile<'q>(&self, input: QueryInput<'q>) -> Result<Compiled<'q>, QueryError> {
        Ok(match input {
            QueryInput::Drc(src) => {
                Compiled::Owned(SyntaxTree::new(parse_query(&self.schema, src)?))
            }
            QueryInput::Sql(src) => {
                Compiled::Owned(SyntaxTree::new(sql_to_drc(&self.schema, src)?))
            }
            QueryInput::Tree(t) => Compiled::Borrowed(t),
        })
    }

    /// The effective per-run configuration: the session's base with the
    /// request's overrides applied.
    fn effective_cfg(&self, req: &ExplainRequest<'_>) -> ChaseConfig {
        let mut cfg = self.cfg.clone();
        if let Some(l) = req.limit {
            cfg.limit = l;
        }
        if let Some(m) = req.max_results {
            cfg.max_results = Some(m);
        }
        if let Some(t) = req.threads {
            cfg.threads = t;
        }
        cfg
    }

    /// Checks the warm cache bundle out of the session (briefly locking),
    /// so the drive itself runs without holding the session mutex — a long
    /// streaming explain must not block concurrent requests on the same
    /// session. A concurrent checkout simply finds the slot empty and runs
    /// cold; last check-in wins.
    fn checkout_caches(&self) -> ChaseCaches {
        checkout(&self.caches)
    }

    fn checkin_caches(&self, caches: ChaseCaches) {
        checkin(&self.caches, caches);
    }

    /// Streaming explain: compiles the request, submits the drive to a
    /// resident explain worker shared by all sessions (no thread is spawned
    /// per request), and returns a [`SolutionStream`] immediately.
    /// Instances arrive on the stream as the chase accepts them; dropping
    /// the stream cancels the drive, which then frees its worker.
    pub fn explain(&self, req: ExplainRequest<'_>) -> Result<SolutionStream, QueryError> {
        let tree = self.compile(req.input)?.into_owned();
        // The stream always owns a token so drop-cancellation works even
        // when the caller installed none.
        let cancel = req.run.cancel.clone().unwrap_or_default();
        let cfg = self.effective_cfg(&req);
        let run = RunControls {
            cancel: Some(cancel.clone()),
            ..req.run
        };
        let variant = req.variant;
        let caches = Arc::clone(&self.caches);
        let (tx, rx) = mpsc::channel::<AcceptedInstance>();
        // The job owns `tx`, so the stream ends when the drive returns.
        let handle = explain_workers().submit(move || {
            let mut bundle = checkout(&caches);
            // A failed send means the consumer dropped the stream: halt the
            // drive instead of exploring for nobody.
            let mut send = |acc| tx.send(acc).is_ok();
            let drive =
                run_variant_observed(&tree, variant, &cfg, &run, &mut bundle, Some(&mut send));
            checkin(&caches, bundle);
            drive.sol
        });
        Ok(SolutionStream {
            rx: Some(rx),
            handle: Some(handle),
            cancel,
        })
    }

    /// Callback-driven explain, running inline on the caller's thread:
    /// `observer` is invoked with every accepted instance as the drive
    /// produces it; returning `false` stops the drive (the remaining
    /// instances are never computed). Returns the batch solution over
    /// everything streamed.
    pub fn explain_with(
        &self,
        req: ExplainRequest<'_>,
        observer: &mut dyn FnMut(AcceptedInstance) -> bool,
    ) -> Result<CSolution, QueryError> {
        let compiled = self.compile(req.input)?;
        let cfg = self.effective_cfg(&req);
        let mut caches = self.checkout_caches();
        let sol = run_variant_observed(
            compiled.as_ref(),
            req.variant,
            &cfg,
            &req.run,
            &mut caches,
            Some(observer),
        )
        .sol;
        self.checkin_caches(caches);
        Ok(sol)
    }

    /// Batch explain: runs the request inline on the caller's thread and
    /// returns its minimal c-solution, on the session's warm caches.
    pub fn explain_collect(&self, req: ExplainRequest<'_>) -> Result<CSolution, QueryError> {
        if req.deepening.is_some() {
            return self.explain_deepening(req).map(|(sol, _)| sol);
        }
        let compiled = self.compile(req.input)?;
        let cfg = self.effective_cfg(&req);
        let mut caches = self.checkout_caches();
        let sol = run_variant_observed(
            compiled.as_ref(),
            req.variant,
            &cfg,
            &req.run,
            &mut caches,
            None,
        )
        .sol;
        self.checkin_caches(caches);
        Ok(sol)
    }

    /// Iterative-deepening explain ([`ExplainRequest::deepening`], §4.3's
    /// "set a timeout parameter instead of the limit"): grows the
    /// instance-size limit until a level completes without the limit
    /// cutting its search (a deeper level would return the same answer), a
    /// level is interrupted, or the wall-clock budget (the request
    /// deadline, or 10 s) runs out. A level's solution replaces the kept
    /// one when it has more coverages, or as many and its level completed,
    /// so it returns the last completed level with the most coverages
    /// unless the final, interrupted level found more, together with the
    /// limit it was found at. Every level runs on the session's warm
    /// caches. Without an explicit `deepening` option the limit starts at 2
    /// and grows by 2 per level.
    pub fn explain_deepening(
        &self,
        req: ExplainRequest<'_>,
    ) -> Result<(CSolution, usize), QueryError> {
        let (start_limit, step) = req.deepening.unwrap_or((2, 2));
        let compiled = self.compile(req.input)?;
        let mut cfg = self.effective_cfg(&req);
        let budget = req.run.deadline.unwrap_or(Duration::from_secs(10));
        // lint:allow(wall-clock) iterative deepening spends a wall-clock budget by design
        let start = Instant::now();
        let mut caches = self.checkout_caches();
        let mut limit = start_limit;
        let mut best: Option<(CSolution, usize)> = None;
        loop {
            cfg.limit = limit;
            let run = RunControls {
                deadline: Some(budget.saturating_sub(start.elapsed())),
                ..req.run.clone()
            };
            let drive = run_variant_observed(
                compiled.as_ref(),
                req.variant,
                &cfg,
                &run,
                &mut caches,
                None,
            );
            let completed = drive.sol.interrupted.is_none();
            if best.as_ref().is_none_or(|(b, _)| {
                replaces_kept(b.num_coverages(), drive.sol.num_coverages(), completed)
            }) {
                best = Some((drive.sol, limit));
            }
            // A completed level the limit did not cut is final: every
            // deeper level explores the same instances. Deeper levels would
            // only get less time than an interrupted one.
            if !completed || !drive.size_cut || start.elapsed() >= budget {
                break;
            }
            limit += step;
        }
        self.checkin_caches(caches);
        Ok(best.expect("the first level always runs"))
    }
}

/// A live explanation: an iterator over [`AcceptedInstance`]s, yielding in
/// the deterministic accepted order while the drive runs on a resident
/// explain worker.
///
/// * Iterate (`for acc in &mut stream`) to consume instances as they
///   arrive; the iterator ends when the drive completes (or is
///   interrupted).
/// * [`SolutionStream::collect`] drains the remainder and returns the
///   [`CSolution`] the batch API would have produced — including
///   [`interrupted`](CSolution::interrupted) status for deadline expiry or
///   cancellation.
/// * [`SolutionStream::cancel`] (or dropping the stream) stops the drive
///   at its next poll; already-streamed instances stay valid.
pub struct SolutionStream {
    rx: Option<mpsc::Receiver<AcceptedInstance>>,
    handle: Option<JobHandle<CSolution>>,
    cancel: CancelToken,
}

impl Iterator for SolutionStream {
    type Item = AcceptedInstance;

    fn next(&mut self) -> Option<AcceptedInstance> {
        self.rx.as_ref()?.recv().ok()
    }
}

impl SolutionStream {
    /// A clone of the drive's cancellation token (shareable with other
    /// threads, timers, request handlers...).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Requests cancellation; the drive stops at its next per-step poll.
    /// The stream then ends and [`SolutionStream::collect`] reports
    /// [`Interrupted::Cancelled`](crate::Interrupted::Cancelled) with the
    /// instances found so far.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Drains any remaining instances and returns the batch [`CSolution`]
    /// (the same minimal c-solution [`Session::explain_collect`] returns,
    /// interruption status included). Shadows `Iterator::collect` deliberately:
    /// "collect the stream" recovers the old batch API.
    pub fn collect(mut self) -> CSolution {
        // Drain rather than drop the receiver: a dropped receiver would
        // halt the drive mid-way through the remaining instances.
        if let Some(rx) = &self.rx {
            while rx.recv().is_ok() {}
        }
        let sol = self
            .handle
            .take()
            .expect("collect consumes the stream")
            .join()
            .expect("the explain worker thread panicked");
        self.rx = None;
        sol
    }
}

impl Drop for SolutionStream {
    fn drop(&mut self) {
        // Consumer walked away before the drive finished: stop it. (The
        // drive also halts on its next failed send; the token covers the
        // window between sends.) `collect` already took the handle, so this
        // only fires for abandoned streams. The drive is not waited for: it
        // stops at its next poll, without blocking this drop, and its
        // worker goes back to the idle set.
        //
        // A *finished* drive must not be cancelled: the stream may share a
        // caller-supplied token with other runs, and consuming the stream
        // by value (`for acc in stream {}`) legitimately ends in drop. The
        // iterator only ends once the sender is dropped, i.e. the drive
        // returned — `try_recv` distinguishes that (Disconnected) from an
        // abandoned mid-drive stream (Empty or a pending item).
        let Some(handle) = &self.handle else { return };
        let finished = handle.is_finished()
            || self
                .rx
                .as_ref()
                .is_some_and(|rx| matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)));
        if !finished {
            self.cancel.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqi_schema::DomainType;

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

    const JOIN_QUERY: &str =
        "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }";

    #[test]
    fn all_front_ends_reach_the_chase() {
        let session = Session::new(schema());
        let drc = session
            .explain_collect(ExplainRequest::drc("{ (b1) | exists d1 (Likes(d1, b1)) }").limit(4))
            .unwrap();
        assert!(!drc.instances.is_empty());
        let sql = session
            .explain_collect(ExplainRequest::sql("SELECT l.beer FROM Likes l").limit(4))
            .unwrap();
        assert!(!sql.instances.is_empty());
        let q = parse_query(&session.schema, "{ (b1) | exists d1 (Likes(d1, b1)) }").unwrap();
        let tree = SyntaxTree::new(q);
        let pre = session
            .explain_collect(ExplainRequest::tree(&tree).limit(4))
            .unwrap();
        assert_eq!(drc.num_coverages(), pre.num_coverages());
    }

    #[test]
    fn parse_errors_surface_without_panicking() {
        let session = Session::new(schema());
        assert!(session
            .explain_collect(ExplainRequest::drc("{ nope"))
            .is_err());
        assert!(session
            .explain_collect(ExplainRequest::sql("SELECT FROM"))
            .is_err());
        assert!(session
            .explain(ExplainRequest::sql("SELECT x FROM Nope"))
            .is_err());
    }

    #[test]
    fn callback_streams_before_the_drive_completes() {
        // The callback stops the drive after the first instance; a batch
        // run of the same request accepts strictly more. That is only
        // possible if the callback fired *during* the drive.
        let session = Session::new(schema());
        let batch = session
            .explain_collect(ExplainRequest::drc(JOIN_QUERY).limit(6))
            .unwrap();
        assert!(batch.raw_accepted > 1, "workload must be multi-instance");
        let mut seen = Vec::new();
        let partial = session
            .explain_with(ExplainRequest::drc(JOIN_QUERY).limit(6), &mut |acc| {
                seen.push(acc);
                false
            })
            .unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].ordinal, 0);
        assert!(
            partial.raw_accepted < batch.raw_accepted,
            "stopping the stream early must stop the drive early \
             ({} vs {})",
            partial.raw_accepted,
            batch.raw_accepted
        );
        // A consumer-stopped drive is a truncation, not a completion.
        assert_eq!(partial.interrupted, Some(crate::Interrupted::Cancelled));
    }

    #[test]
    fn deepening_reaches_a_completed_level_and_reports_it() {
        let session = Session::new(schema());
        let req = ExplainRequest::drc(JOIN_QUERY)
            .deadline(Duration::from_millis(300))
            .deepening(3, 1);
        let (sol, depth) = session.explain_deepening(req).unwrap();
        assert!(!sol.instances.is_empty());
        assert!(depth >= 3, "at least the starting level must complete");
        // The request-option route returns the same deepest solution.
        let via_collect = session
            .explain_collect(
                ExplainRequest::drc(JOIN_QUERY)
                    .deadline(Duration::from_millis(300))
                    .deepening(3, 1),
            )
            .unwrap();
        assert_eq!(via_collect.num_coverages(), sol.num_coverages());
    }

    #[test]
    fn deepening_runs_on_the_session_caches() {
        // Every deepening level runs on the session's own caches, so a
        // later request at the reached depth finds them warm: it misses the
        // solver memo less often than the same request on a fresh session.
        let src = "{ (b1) | exists d1 (Likes(d1, b1)) }";
        let session = Session::new(schema());
        let (_, depth) = session
            .explain_deepening(
                ExplainRequest::drc(src)
                    .deadline(Duration::from_millis(100))
                    .deepening(2, 1),
            )
            .unwrap();
        let req = || ExplainRequest::drc(src).limit(depth);
        let warm = session.explain_collect(req()).unwrap();
        let cold = Session::new(schema()).explain_collect(req()).unwrap();
        assert!(cold.stats.solver_l1_misses > 0);
        assert!(
            warm.stats.solver_l1_misses < cold.stats.solver_l1_misses,
            "depth {depth}: warm {} vs cold {} L1 misses",
            warm.stats.solver_l1_misses,
            cold.stats.solver_l1_misses
        );
    }

    #[test]
    fn deepening_keeps_the_completed_level_on_a_tie() {
        // (kept coverages, level coverages, level completed)
        assert!(
            !replaces_kept(4, 4, false),
            "a tie with an interrupted level"
        );
        assert!(replaces_kept(4, 4, true), "a tie with a completed level");
        assert!(replaces_kept(4, 5, false), "more coverages, interrupted");
        assert!(replaces_kept(4, 5, true), "more coverages, completed");
        assert!(!replaces_kept(4, 3, true), "fewer coverages");
    }

    #[test]
    fn deepening_stops_once_the_limit_cuts_nothing() {
        // Without a deadline the budget is 10 s; the search stops growing
        // long before, and the level that shows it ends the deepening.
        let src = "{ (b1) | exists d1 (Likes(d1, b1)) }";
        let session = Session::new(schema());
        let (sol, limit) = session
            .explain_deepening(ExplainRequest::drc(src).deepening(2, 2))
            .unwrap();
        assert_eq!(sol.interrupted, None);
        assert!(limit <= 6, "stopped at limit {limit}");
        for l in [limit, limit + 2] {
            let at = Session::new(schema())
                .explain_collect(ExplainRequest::drc(src).limit(l))
                .unwrap();
            assert_eq!(rendered(&sol), rendered(&at), "limit {l}");
        }
    }

    #[test]
    fn repeated_request_decides_everything_from_the_memo() {
        // Tree-SAT leaves, validation included, share the worker's decision
        // path with IsConsistent: repeating a request on one session finds
        // every decision it needs in the memo, and answers the same.
        let session = Session::new(schema());
        let render = |sol: &CSolution| -> Vec<String> {
            sol.instances
                .iter()
                .map(|si| format!("{}", si.inst))
                .collect()
        };
        let req = || ExplainRequest::drc(JOIN_QUERY).limit(6);
        let first = session.explain_collect(req()).unwrap();
        let second = session.explain_collect(req()).unwrap();
        assert!(!first.instances.is_empty());
        assert_eq!(render(&first), render(&second));
        assert_eq!(second.stats.solver_l1_misses, 0);
        assert!(
            second.stats.solver_l1_hits > 0,
            "the repeated run must look decisions up"
        );
    }

    #[test]
    fn stream_matches_batch_order_and_solution() {
        let session = Session::new(schema());
        let batch = Session::new(schema())
            .explain_collect(ExplainRequest::drc(JOIN_QUERY).limit(6))
            .unwrap();
        let stream = session
            .explain(ExplainRequest::drc(JOIN_QUERY).limit(6))
            .unwrap();
        let mut stream = stream;
        let items: Vec<AcceptedInstance> = stream.by_ref().collect::<Vec<_>>();
        let sol = stream.collect();
        assert_eq!(items.len(), batch.raw_accepted);
        for (i, acc) in items.iter().enumerate() {
            assert_eq!(acc.ordinal, i);
        }
        assert_eq!(sol.raw_accepted, batch.raw_accepted);
        assert_eq!(sol.num_coverages(), batch.num_coverages());
        assert!(sol.interrupted.is_none());
    }

    #[test]
    fn zero_deadline_returns_immediately_interrupted() {
        let session = Session::new(schema());
        let stream = session
            .explain(
                ExplainRequest::drc(JOIN_QUERY)
                    .limit(12)
                    .deadline(Duration::ZERO),
            )
            .unwrap();
        let sol = stream.collect();
        assert_eq!(sol.interrupted, Some(crate::Interrupted::Deadline));
        assert_eq!(sol.raw_accepted, 0);
    }

    #[test]
    fn cancellation_mid_drive_flags_cancelled() {
        let session = Session::new(schema());
        let token = CancelToken::new();
        token.cancel(); // fire before the drive even starts
        let sol = session
            .explain_collect(ExplainRequest::drc(JOIN_QUERY).limit(8).cancel(token))
            .unwrap();
        assert_eq!(sol.interrupted, Some(crate::Interrupted::Cancelled));
        // And mid-drive: cancel from the callback after the first instance.
        let token = CancelToken::new();
        let tok = token.clone();
        let sol = session
            .explain_with(
                ExplainRequest::drc(JOIN_QUERY).limit(8).cancel(token),
                &mut |_| {
                    tok.cancel();
                    true
                },
            )
            .unwrap();
        assert_eq!(sol.interrupted, Some(crate::Interrupted::Cancelled));
        assert!(sol.raw_accepted >= 1);
    }

    #[test]
    fn cancel_token_is_shared_through_the_request() {
        let tok = CancelToken::new();
        assert!(!tok.is_cancelled());
        let req = ExplainRequest::drc(JOIN_QUERY).cancel(tok.clone());
        assert!(!req.run.cancel.as_ref().unwrap().is_cancelled());
        tok.cancel();
        // Clones share one flag — firing the caller's copy is visible
        // through the request's.
        assert!(req.run.cancel.unwrap().is_cancelled());
        assert!(
            ExplainRequest::drc(JOIN_QUERY).run.cancel.is_none(),
            "off by default"
        );
    }

    /// Renders a solution's minimal instances with their coverage.
    fn rendered(sol: &CSolution) -> Vec<String> {
        sol.instances
            .iter()
            .map(|si| format!("{} {:?}", si.inst, si.coverage))
            .collect()
    }

    /// The next request on `session` sets no run control and inherits none
    /// from the one before: it completes, and answers as the same request
    /// on a fresh session.
    fn assert_next_request_completes(session: &Session) {
        let req = || ExplainRequest::drc(JOIN_QUERY).limit(6);
        let next = session.explain_collect(req()).unwrap();
        let fresh = Session::new(schema()).explain_collect(req()).unwrap();
        assert_eq!(next.interrupted, None);
        assert!(!next.instances.is_empty());
        assert_eq!(rendered(&next), rendered(&fresh));
        assert_eq!(next.raw_accepted, fresh.raw_accepted);
    }

    #[test]
    fn a_deadline_stays_with_its_request() {
        // The chase checks the deadline at every pop, so a zero deadline
        // stops the first request before it accepts anything.
        let session = Session::new(schema());
        let stopped = session
            .explain_collect(
                ExplainRequest::drc(JOIN_QUERY)
                    .limit(6)
                    .deadline(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(stopped.interrupted, Some(crate::Interrupted::Deadline));
        assert_next_request_completes(&session);
    }

    #[test]
    fn a_cancel_token_stays_with_its_request() {
        let session = Session::new(schema());
        let token = CancelToken::new();
        token.cancel();
        let stopped = session
            .explain_collect(ExplainRequest::drc(JOIN_QUERY).limit(6).cancel(token))
            .unwrap();
        assert_eq!(stopped.interrupted, Some(crate::Interrupted::Cancelled));
        assert_next_request_completes(&session);
    }

    #[test]
    fn warm_session_caches_do_not_change_answers() {
        // Explain A, then B on the same session (warm caches), and compare
        // B against a cold session: identical streams, byte for byte.
        let warm = Session::new(schema());
        warm.explain_collect(ExplainRequest::drc("{ (b1) | exists d1 (Likes(d1, b1)) }").limit(5))
            .unwrap();
        let cold = Session::new(schema());
        let render = |s: &Session| -> Vec<String> {
            let mut out = Vec::new();
            s.explain_with(ExplainRequest::drc(JOIN_QUERY).limit(6), &mut |acc| {
                out.push(format!("{}", acc.inst));
                true
            })
            .unwrap();
            out
        };
        assert_eq!(render(&warm), render(&cold));
    }

    #[test]
    fn warm_session_keeps_schemas_apart_at_a_reused_address() {
        // A pre-parsed tree carries its own schema. Each schema below is
        // freed after its request, so the next one is usually allocated at
        // the same address; the warm memos must still never answer a
        // request with what they learned under the other schema's keys. A
        // key on `Likes.drinker` makes two beers liked by one drinker
        // inconsistent, so every second request has no instance at all.
        let query = "{ (d1) | exists b1, b2 (Likes(d1, b1) and Likes(d1, b2) and b1 != b2) }";
        let build = |keyed: bool| {
            let likes = [("drinker", DomainType::Text), ("beer", DomainType::Text)];
            let mut b = Schema::builder().relation("Likes", &likes);
            if keyed {
                b = b.key("Likes", &["drinker"]);
            }
            Arc::new(b.build().unwrap())
        };
        let cfg = ChaseConfig::with_limit(5).enforce_keys(true);
        let warm = Session::new(build(false)).config(cfg.clone());
        let render = |sol: &CSolution| -> Vec<String> {
            sol.instances
                .iter()
                .map(|si| format!("{} {:?}", si.inst, si.coverage))
                .collect()
        };
        for i in 0..40 {
            let keyed = i % 2 == 1;
            let s = build(keyed);
            let tree = SyntaxTree::new(parse_query(&s, query).unwrap());
            let hot = warm.explain_collect(ExplainRequest::tree(&tree)).unwrap();
            let fresh = Session::new(Arc::clone(&s))
                .config(cfg.clone())
                .explain_collect(ExplainRequest::tree(&tree))
                .unwrap();
            assert_eq!(render(&hot), render(&fresh), "request {i}, keyed: {keyed}");
            assert_eq!(hot.instances.is_empty(), keyed, "request {i}");
        }
    }

    #[test]
    fn warm_caches_respect_per_request_limit_and_variant() {
        // The bfs/consistency memos depend on the size limit and the
        // variant's fresh-null policy; a session explaining the same query
        // under different per-request parameters must match a cold session
        // exactly (the ChaseCaches fingerprint clears what is unsafe).
        // The ∀ query is the sharp case: `Handle-Universal` explores a
        // fresh-null branch only under the Naive variants, so a stale
        // sub-BFS memo from an EO run would silently drop solutions.
        let forall_query = "{ (x1, b1) | exists p1 . Serves(x1, b1, p1) \
             and forall p2, x2 (not Serves(x2, b1, p2) or p2 <= p1) }";
        let render = |sol: &CSolution| -> Vec<String> {
            sol.instances
                .iter()
                .map(|si| format!("{}", si.inst))
                .collect()
        };
        for src in [JOIN_QUERY, forall_query] {
            let warm = Session::new(schema());
            for (limit, v) in [
                (4, Variant::DisjEO),
                (6, Variant::DisjEO),    // limit grew
                (6, Variant::DisjNaive), // universal_fresh flips
                (4, Variant::DisjEO),    // and back
                (6, Variant::ConjAdd),   // conjunctive trees
            ] {
                let w = warm
                    .explain_collect(ExplainRequest::drc(src).limit(limit).variant(v))
                    .unwrap();
                let c = Session::new(schema())
                    .explain_collect(ExplainRequest::drc(src).limit(limit).variant(v))
                    .unwrap();
                assert_eq!(w.raw_accepted, c.raw_accepted, "{src} limit={limit} {v}");
                assert_eq!(render(&w), render(&c), "{src} limit={limit} {v}");
            }
        }
    }

    /// White-box drop semantics (the real workloads complete in
    /// microseconds, so wall-clock-based assertions about "mid-drive"
    /// would race): a stream whose job is provably still running must
    /// fire the token on drop; one whose job provably finished must leave
    /// it untouched. The jobs run on a private executor, like the drives
    /// `Session::explain` submits to the shared one.
    #[test]
    fn drop_cancels_unfinished_drives_and_spares_finished_ones() {
        let workers = Executor::new();
        let empty_sol = || CSolution {
            instances: Vec::new(),
            raw_accepted: 0,
            interrupted: None,
            total_time: Duration::ZERO,
            stats: Default::default(),
            trace: None,
        };

        // Unfinished: the job blocks on a gate until after the drop.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (tx, rx) = mpsc::channel::<AcceptedInstance>();
        let handle = workers.submit(move || {
            gate_rx.recv().ok();
            drop(tx);
            empty_sol()
        });
        let token = CancelToken::new();
        let stream = SolutionStream {
            rx: Some(rx),
            handle: Some(handle),
            cancel: token.clone(),
        };
        drop(stream);
        assert!(token.is_cancelled(), "mid-drive drop must fire the token");
        gate_tx.send(()).ok();

        // Finished: the sender is already dropped (the job returned its
        // solution), as after a by-value `for acc in stream {}` loop.
        let (tx, rx) = mpsc::channel::<AcceptedInstance>();
        let handle = workers.submit(move || {
            drop(tx);
            empty_sol()
        });
        while !matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)) {
            std::thread::yield_now();
        }
        let token = CancelToken::new();
        let stream = SolutionStream {
            rx: Some(rx),
            handle: Some(handle),
            cancel: token.clone(),
        };
        drop(stream);
        assert!(
            !token.is_cancelled(),
            "a finished drive must not poison a (possibly shared) token"
        );
    }

    #[test]
    fn consuming_the_stream_by_value_does_not_fire_the_users_token() {
        // `for acc in stream {}` ends in drop, not collect(); a completed
        // drive must leave a caller-supplied (possibly shared) token
        // untouched.
        let session = Session::new(schema());
        let token = CancelToken::new();
        let stream = session
            .explain(
                ExplainRequest::drc(JOIN_QUERY)
                    .limit(5)
                    .cancel(token.clone()),
            )
            .unwrap();
        for _ in stream {}
        assert!(
            !token.is_cancelled(),
            "a drive that ran to completion must not poison the token"
        );
    }

    #[test]
    fn warm_caches_are_query_scoped_not_shape_scoped() {
        // Two queries with the same formula *shape* but different variable
        // names: the second must not inherit the first's sub-BFS results
        // (fresh nulls are named/typed from the query's variable table).
        let warm = Session::new(schema());
        let q_a = "{ (b1) | exists d1 (Likes(d1, b1)) }";
        let q_b = "{ (b1) | exists person (Likes(person, b1)) }";
        warm.explain_collect(ExplainRequest::drc(q_a).limit(4))
            .unwrap();
        let render = |sol: &CSolution| -> Vec<String> {
            sol.instances
                .iter()
                .map(|si| format!("{}", si.inst))
                .collect()
        };
        let w = warm
            .explain_collect(ExplainRequest::drc(q_b).limit(4))
            .unwrap();
        let c = Session::new(schema())
            .explain_collect(ExplainRequest::drc(q_b).limit(4))
            .unwrap();
        assert_eq!(render(&w), render(&c));
        assert!(
            render(&w).iter().any(|r| r.contains("person")),
            "the second query's own variable names must appear: {:?}",
            render(&w)
        );
    }

    #[test]
    fn session_mutex_is_not_held_during_the_drive() {
        // Long drives must not serialize a session: the cache bundle is
        // checked out before the run, so the slot is lockable mid-drive
        // (a concurrent request would run cold instead of blocking).
        let session = Session::new(schema());
        let mut polled = false;
        session
            .explain_with(ExplainRequest::drc(JOIN_QUERY).limit(5), &mut |_| {
                polled = true;
                assert!(
                    session.caches.try_lock().is_ok(),
                    "cache mutex must be free while the drive runs"
                );
                true
            })
            .unwrap();
        assert!(polled);
    }

    #[test]
    fn the_resident_pool_is_spawned_at_the_first_fan_out() {
        // A `threads(2)` session spawns no helper thread while its runs
        // search one root each; the first run that fans roots out spawns
        // the pool, and every later run, streamed ones included, reuses it.
        let session = Session::new(schema()).config(ChaseConfig::with_limit(4).threads(2));
        let pool = || session.caches.lock().unwrap().pool.clone();
        for variant in [Variant::DisjEO, Variant::ConjEO, Variant::DisjNaive] {
            let req = ExplainRequest::drc(JOIN_QUERY).variant(variant);
            let sol = session.explain_collect(req).unwrap();
            assert!(!sol.instances.is_empty());
            assert_eq!(sol.stats.resident_batches, 0, "{variant} has one root");
        }
        assert!(pool().is_none(), "no run fanned out");
        let two_trees = "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }";
        let req = || ExplainRequest::drc(two_trees).variant(Variant::ConjEO);
        let sol = session.explain_collect(req()).unwrap();
        assert!(sol.stats.resident_batches > 0, "two trees fan out");
        let spawned = pool().expect("the fan-out spawned the pool");
        let sol = session.explain(req()).unwrap().collect();
        assert!(sol.stats.resident_batches > 0);
        let sol = session
            .explain_collect(ExplainRequest::drc(JOIN_QUERY))
            .unwrap();
        assert_eq!(sol.stats.resident_batches, 0);
        assert!(Arc::ptr_eq(&spawned, &pool().unwrap()), "spawned once");
    }
}
