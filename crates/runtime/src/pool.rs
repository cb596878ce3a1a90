//! Work-stealing execution over a resident pool of `std::thread`s (no
//! external deps), behind one [`Exec`] handle.
//!
//! [`Exec::run`] runs one closure over an indexed slice of items on up to
//! `ctxs.len()` workers. Each worker owns one mutable context (the chase
//! threads its per-worker solver and sub-BFS memos through here) and
//! pulls work from its own bounded deque; idle workers
//! *batch-steal* half of a victim's remaining ranges in one lock
//! acquisition. Results are tagged with their item index and returned in
//! item order, so callers observe a deterministic, sequential-equivalent
//! output regardless of how work was interleaved.
//!
//! The workers are a [`ResidentPool`]: parked threads spawned once (per
//! `cqi::Session`) and fed *batches*. A batch submission publishes one
//! entrant closure — "claim a context slot and steal until the queues are
//! dry" — to the pool's injector and wakes the workers; the **submitting
//! thread self-drains the same batch**, so a batch completes even when
//! every resident worker is busy (which also makes nested submission from
//! inside a worker deadlock-free), while idle residents join as extra
//! hands. A close-and-wait barrier keeps the batch's borrowed state alive
//! until the last entrant has left.

// The crate is `#![deny(unsafe_code)]`; this module is the project's one
// allowlisted unsafe file (see `cqi-lint`'s policy) — the context-slot
// handoff needs raw-pointer sends, each with its own SAFETY contract.
#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cqi_obs::trace::{self, Phase};

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::counter::Counter;
use crate::sync::thread::{self, JoinHandle};
use crate::sync::{Condvar, Mutex};

/// Fault-injection hooks for the concurrency model checker's self-tests
/// (`cqi-analysis`): each fault seeds a protocol bug that the checker must
/// demonstrably find, mirroring the fuzz campaign's `--mutate` pattern.
/// Compiled only under `model-check`; production builds have no hook.
#[cfg(feature = "model-check")]
pub mod fault {
    use std::sync::atomic::{AtomicU8, Ordering};

    /// No fault (the default).
    pub const NONE: u8 = 0;
    /// [`super::Batch::exit`] skips the idle wakeup when the last entrant
    /// leaves: the submitter's close-and-wait barrier then misses the
    /// `active == 0` transition and sleeps forever — a lost wakeup the
    /// checker reports as a deadlock.
    pub const SKIP_IDLE_NOTIFY: u8 = 1;

    static MODE: AtomicU8 = AtomicU8::new(NONE);

    /// Arms a fault for the current process. Model-checker self-tests run
    /// single-process and restore [`NONE`] when done.
    pub fn set(mode: u8) {
        MODE.store(mode, Ordering::SeqCst);
    }

    pub(crate) fn skips_idle_notify() -> bool {
        MODE.load(Ordering::SeqCst) == SKIP_IDLE_NOTIFY
    }
}

/// How many items a worker claims from its own queue per lock acquisition.
/// Small enough to keep the tail of a wave balanced, large enough that the
/// lock is off the hot path.
fn batch_size(items: usize, workers: usize) -> usize {
    (items / (workers * 4)).clamp(1, 64)
}

/// Seeds one contiguous range per worker (cache-friendly); the deques are
/// bounded by construction (≤ `items` entries total).
fn seed_queues(items: usize, workers: usize) -> Vec<Mutex<VecDeque<Range<usize>>>> {
    (0..workers)
        .map(|w| {
            let per = items.div_ceil(workers);
            let start = (w * per).min(items);
            let end = ((w + 1) * per).min(items);
            let mut q = VecDeque::new();
            if start < end {
                q.push_back(start..end);
            }
            Mutex::new(q)
        })
        .collect()
}

/// Pops a batch from the worker's own deque (front), or batch-steals half
/// of a victim's backmost range. Returns `None` when every queue is empty.
fn pop_or_steal(
    queues: &[Mutex<VecDeque<Range<usize>>>],
    worker: usize,
    batch: usize,
    steals: &Counter,
) -> Option<Range<usize>> {
    {
        let mut q = queues[worker].lock().unwrap();
        if let Some(r) = q.pop_front() {
            if r.len() > batch {
                q.push_front(r.start + batch..r.end);
                return Some(r.start..r.start + batch);
            }
            return Some(r);
        }
    }
    // Steal: scan the other workers round-robin from our right neighbour;
    // take the back half of the victim's backmost range (batch-steal — one
    // lock, up to half the victim's pending work).
    let n = queues.len();
    for off in 1..n {
        let victim = (worker + off) % n;
        let mut q = queues[victim].lock().unwrap();
        if let Some(r) = q.pop_back() {
            steals.inc();
            if r.len() > 1 {
                let mid = r.start + r.len() / 2;
                q.push_back(r.start..mid);
                return Some(mid..r.end);
            }
            return Some(r);
        }
    }
    None
}

/// One worker's drain loop: claim-or-steal ranges until every queue is
/// empty, collecting `(index, result)` pairs.
fn drain_queues<T, C, R, F>(
    queues: &[Mutex<VecDeque<Range<usize>>>],
    worker: usize,
    batch: usize,
    steals: &Counter,
    ctx: &mut C,
    items: &[T],
    f: &F,
) -> Vec<(usize, R)>
where
    F: Fn(&mut C, usize, &T) -> R,
{
    let mut got: Vec<(usize, R)> = Vec::new();
    while let Some(range) = pop_or_steal(queues, worker, batch, steals) {
        for i in range {
            got.push((i, f(ctx, i, &items[i])));
        }
    }
    got
}

/// Assembles tagged results into item order, panicking on a gap (every
/// index must be processed exactly once).
fn assemble<R>(items: usize, tagged: Vec<(usize, R)>) -> Vec<R> {
    let _s = trace::span_phase("assemble", "sched", Phase::Sched);
    let mut out: Vec<Option<R>> = (0..items).map(|_| None).collect();
    for (i, r) in tagged {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|o| o.expect("every index processed exactly once"))
        .collect()
}

/// Counters one execution run accumulates across its `Exec` fan-outs, for
/// the engine-stats surface (`ChaseStats`).
#[derive(Debug, Default)]
pub struct RunCounters {
    /// Ranges taken from another worker's queue.
    pub steals: Counter,
    /// Fan-outs served by the resident pool.
    pub resident_batches: Counter,
}

/// A point-in-time copy of [`RunCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCounts {
    pub steals: u64,
    pub resident_batches: u64,
}

impl RunCounters {
    pub fn snapshot(&self) -> RunCounts {
        RunCounts {
            steals: self.steals.get(),
            resident_batches: self.resident_batches.get(),
        }
    }
}

/// Execution handle threaded through the chase's root-job fan-out:
/// [`Exec::run`] fans indexed work out over a [`ResidentPool`].
#[derive(Clone, Copy)]
pub struct Exec<'p> {
    pool: &'p ResidentPool,
    counters: Option<&'p RunCounters>,
}

impl<'p> Exec<'p> {
    /// Execution over a resident pool; the calling thread still
    /// participates in every batch, so a pool of `n` workers yields up to
    /// `n + 1`-way parallelism.
    pub fn resident(pool: &'p ResidentPool) -> Exec<'p> {
        Exec {
            pool,
            counters: None,
        }
    }

    /// Attaches run counters (steal/batch totals accumulate into them).
    pub fn with_counters(self, counters: &'p RunCounters) -> Exec<'p> {
        Exec {
            counters: Some(counters),
            ..self
        }
    }

    /// Runs `f(ctx, index, &items[index])` for every item on up to
    /// `ctxs.len()` workers (capped at the item count) and returns the
    /// results in item order. With a single context, at most one item, or
    /// a pool of zero workers, everything runs inline on `ctxs[0]`.
    pub fn run<T, C, R, F>(&self, ctxs: &mut [C], items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        C: Send,
        R: Send,
        F: Fn(&mut C, usize, &T) -> R + Sync,
    {
        assert!(!ctxs.is_empty(), "Exec::run needs at least one context");
        let workers = ctxs.len().min(items.len());
        if workers <= 1 || self.pool.workers() == 0 {
            let ctx = &mut ctxs[0];
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(ctx, i, t))
                .collect();
        }
        if let Some(c) = self.counters {
            c.resident_batches.inc();
        }
        let _s = trace::span("resident_batch", "pool");
        let batch = batch_size(items.len(), workers);
        let queues = seed_queues(items.len(), workers);
        let steals = Counter::new();
        let slots = CtxSlots(ctxs.iter_mut().map(|c| c as *mut C).collect());
        let next_slot = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
        let work = || {
            // Protocol state (each ticket must be observed exactly once), not
            // a stats counter — hence a modeled atomic at SeqCst, not a
            // Counter.
            let s = next_slot.fetch_add(1, Ordering::SeqCst);
            if s >= workers {
                return;
            }
            // SAFETY: `s` came from a unique `fetch_add` ticket, so this
            // thread is the only one that ever dereferences slot `s`, and the
            // slots outlive every entrant: `run_batch`'s close-and-wait
            // barrier keeps this frame (and `ctxs` behind it) alive until the
            // last entrant has left, on the normal path and on unwind.
            let ctx: &mut C = unsafe { &mut *slots.slot(s) };
            let got = drain_queues(&queues, s, batch, &steals, ctx, items, &f);
            if !got.is_empty() {
                results.lock().unwrap().extend(got);
            }
        };
        self.pool.run_batch(workers - 1, &work);
        if let Some(c) = self.counters {
            c.steals.add(steals.get());
        }
        assemble(items.len(), results.into_inner().unwrap())
    }
}

/// Context slots for resident batches. Each raw pointer is claimed by
/// exactly one entrant (a unique `fetch_add` ticket), so no two threads
/// ever alias a context; `C: Send` makes shipping that exclusive borrow to
/// a pool thread sound.
struct CtxSlots<C>(Vec<*mut C>);
// SAFETY: sharing `CtxSlots` across threads only shares the *pointers*;
// `Exec::run` hands out each slot index at most once (unique `fetch_add`
// ticket), so no two threads ever dereference the same `*mut C`, and
// `C: Send` makes moving that exclusive access to another thread sound.
// No `&C` is ever produced, so `C: Sync` is not required.
unsafe impl<C: Send> Sync for CtxSlots<C> {}

impl<C> CtxSlots<C> {
    /// Raw pointer to slot `i`. A caller holding a unique ticket for the
    /// slot may dereference it mutably — no other thread claims it.
    fn slot(&self, i: usize) -> *mut C {
        self.0[i]
    }
}

/// State of one submitted batch, shared between the submitter and the
/// resident workers that join it.
struct Batch {
    /// The entrant closure, borrowed from the submitter's stack with its
    /// lifetime erased. Dereferenced only between a successful
    /// [`Batch::try_enter`] and the matching exit, and the submitter blocks
    /// until `closed && active == 0` before unwinding its frame — so the
    /// borrow is live for every call.
    work: &'static (dyn Fn() + Sync),
    state: Mutex<BatchState>,
    /// Signalled when `active` drops to zero.
    idle: Condvar,
}

#[derive(Default)]
struct BatchState {
    /// No further entrants; set by the submitter at barrier time.
    closed: bool,
    /// Entrants currently inside `work`.
    active: usize,
    /// An entrant's `work` call panicked (re-raised by the submitter).
    panicked: bool,
}

impl Batch {
    fn try_enter(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return false;
        }
        st.active += 1;
        true
    }

    fn exit(&self, panicked: bool) {
        let mut st = self.state.lock().unwrap();
        st.active -= 1;
        st.panicked |= panicked;
        if st.active == 0 {
            #[cfg(feature = "model-check")]
            if fault::skips_idle_notify() {
                return;
            }
            self.idle.notify_all();
        }
    }
}

/// Closes the batch and waits out in-flight entrants when dropped — on the
/// normal path *and* when the submitter's own drain unwinds, so resident
/// workers never outlive the borrows captured in `work`.
struct BatchGuard<'a> {
    pool: &'a ResidentPool,
    batch: &'a Arc<Batch>,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        // These locks may be taken while this thread is already unwinding (a
        // panicking batch closure); like `std`, the instrumented primitives
        // only poison when a panic *starts* inside a critical section, so
        // plain `unwrap` here stays correct on both layers.
        let mut st = self.batch.state.lock().unwrap();
        st.closed = true;
        while st.active > 0 {
            st = self.batch.idle.wait(st).unwrap();
        }
        let panicked = st.panicked;
        drop(st);
        // Sweep tickets no worker redeemed, so closed batches don't pile up
        // in the injector.
        let mut inj = self.pool.shared.inj.lock().unwrap();
        inj.tickets.retain(|t| !Arc::ptr_eq(t, self.batch));
        drop(inj);
        if panicked && !std::thread::panicking() {
            panic!("resident pool worker panicked");
        }
    }
}

#[derive(Default)]
struct Injector {
    /// One ticket per requested helper; a worker redeems a ticket by
    /// joining the batch (or drops it if the batch already closed).
    tickets: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

struct PoolShared {
    inj: Mutex<Injector>,
    ready: Condvar,
}

/// A resident worker pool: `threads` parked OS threads, spawned once and
/// fed batches through [`ResidentPool::run_batch`] (normally via
/// [`Exec::resident`]). Dropping the pool shuts the workers down.
pub struct ResidentPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl ResidentPool {
    /// Spawns `threads` resident workers. A pool of zero workers is valid
    /// (every batch just runs on the submitting thread).
    pub fn new(threads: usize) -> ResidentPool {
        let shared = Arc::new(PoolShared {
            inj: Mutex::new(Injector::default()),
            ready: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ResidentPool { shared, handles }
    }

    /// Number of resident workers.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs one batch: requests up to `helpers` resident workers to join,
    /// runs `work` on the calling thread, and blocks until every joined
    /// worker has left. `work` must be reentrant — each entrant calls it
    /// once, concurrently. Nested `run_batch` from inside `work` is safe
    /// (the nested submitter self-drains).
    pub fn run_batch(&self, helpers: usize, work: &(dyn Fn() + Sync)) {
        // SAFETY: this transmute changes only the reference's lifetime (the
        // pointee type is identical), which is the minimal possible scope
        // for the cast — the erased borrow must live inside `Batch` because
        // workers redeem tickets asynchronously. It is sound because no
        // entrant can touch `work` outside the submitter's frame:
        // `try_enter` fails once the batch is closed, and `BatchGuard`
        // (dropped on the normal path and on unwind) closes the batch and
        // blocks until `active == 0` before this frame is torn down.
        let work: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(work) };
        let batch = Arc::new(Batch {
            work,
            state: Mutex::new(BatchState::default()),
            idle: Condvar::new(),
        });
        let helpers = helpers.min(self.handles.len());
        if helpers > 0 {
            let mut inj = self.shared.inj.lock().unwrap();
            for _ in 0..helpers {
                inj.tickets.push_back(Arc::clone(&batch));
            }
            drop(inj);
            self.shared.ready.notify_all();
        }
        let _guard = BatchGuard {
            pool: self,
            batch: &batch,
        };
        work();
        // _guard drops here: close, wait out helpers, sweep stale tickets.
    }
}

impl Drop for ResidentPool {
    fn drop(&mut self) {
        {
            let mut inj = self.shared.inj.lock().unwrap();
            inj.shutdown = true;
        }
        self.shared.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let batch = {
            let mut inj = shared.inj.lock().unwrap();
            loop {
                if inj.shutdown {
                    return;
                }
                if let Some(b) = inj.tickets.pop_front() {
                    break b;
                }
                inj = shared.ready.wait(inj).unwrap();
            }
        };
        if batch.try_enter() {
            // Trap panics so the submitter can re-raise them at its barrier
            // (mirroring scoped join semantics) and this worker keeps
            // serving later batches.
            let r = catch_unwind(AssertUnwindSafe(|| (batch.work)()));
            batch.exit(r.is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_item_order() {
        let pool = ResidentPool::new(3);
        let items: Vec<usize> = (0..1000).collect();
        let mut ctxs = vec![(), (), (), ()];
        let out = Exec::resident(&pool).run(&mut ctxs, &items, |_, i, x| {
            assert_eq!(i, *x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let pool = ResidentPool::new(2);
        let items: Vec<usize> = (0..777).collect();
        let hits = AtomicUsize::new(0);
        let mut ctxs = vec![0usize; 3];
        let out = Exec::resident(&pool).run(&mut ctxs, &items, |ctx, _, x| {
            *ctx += 1;
            hits.fetch_add(1, Ordering::Relaxed);
            *x
        });
        assert_eq!(hits.load(Ordering::Relaxed), 777);
        assert_eq!(out.len(), 777);
        // Per-worker contexts saw disjoint shares that sum to the total.
        assert_eq!(ctxs.iter().sum::<usize>(), 777);
    }

    #[test]
    fn single_context_runs_inline() {
        let pool = ResidentPool::new(2);
        let items = vec![1, 2, 3];
        let mut ctxs = vec![Vec::<usize>::new()];
        Exec::resident(&pool).run(&mut ctxs, &items, |ctx, i, _| ctx.push(i));
        assert_eq!(ctxs[0], vec![0, 1, 2], "inline path preserves order");
    }

    #[test]
    fn empty_items_is_a_noop() {
        let pool = ResidentPool::new(1);
        let mut ctxs = vec![(), ()];
        let out: Vec<u8> = Exec::resident(&pool).run(&mut ctxs, &Vec::<u8>::new(), |_, _, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One pathologically slow item at index 0; the rest are instant.
        // Whoever holds the slow item's slot keeps the rest of that slot's
        // range queued while it sleeps, so the other entrants must steal it
        // (a lone entrant steals every other slot's range instead).
        let pool = ResidentPool::new(3);
        let counters = RunCounters::default();
        let items: Vec<usize> = (0..256).collect();
        let mut ctxs = vec![(); 4];
        let exec = Exec::resident(&pool).with_counters(&counters);
        let out = exec.run(&mut ctxs, &items, |_, _, x| {
            if *x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            *x + 1
        });
        assert_eq!(out, (1..=256).collect::<Vec<_>>());
        assert!(counters.steals.get() > 0, "the tail must be redistributed");
    }

    #[test]
    fn resident_pool_is_reusable_across_batches() {
        let pool = ResidentPool::new(2);
        let exec = Exec::resident(&pool);
        let items: Vec<usize> = (0..300).collect();
        for round in 0..20 {
            let mut ctxs = vec![0usize; 3];
            let out = exec.run(&mut ctxs, &items, |ctx, _, x| {
                *ctx += 1;
                x + round
            });
            assert_eq!(out, (0..300).map(|x| x + round).collect::<Vec<_>>());
            assert_eq!(ctxs.iter().sum::<usize>(), 300);
        }
    }

    #[test]
    fn resident_zero_workers_runs_on_caller() {
        let pool = ResidentPool::new(0);
        let items: Vec<usize> = (0..64).collect();
        let mut ctxs = vec![(); 4];
        let out = Exec::resident(&pool).run(&mut ctxs, &items, |_, _, x| x * 2);
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_resident_batches_complete() {
        // A batch item that itself fans out through the same pool — the
        // inner submitter self-drains, so this terminates even when every
        // resident worker is occupied by the outer batch.
        let pool = ResidentPool::new(2);
        let outer: Vec<usize> = (0..8).collect();
        let mut ctxs = vec![(); 3];
        let out = Exec::resident(&pool).run(&mut ctxs, &outer, |_, _, x| {
            let inner: Vec<usize> = (0..50).collect();
            let mut inner_ctxs = vec![(); 2];
            let inner_out =
                Exec::resident(&pool).run(&mut inner_ctxs, &inner, |_, _, y| y + x);
            inner_out.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|x| (0..50).map(|y| y + x).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn run_counters_observe_batches() {
        let pool = ResidentPool::new(2);
        let counters = RunCounters::default();
        let exec = Exec::resident(&pool).with_counters(&counters);
        let items: Vec<usize> = (0..200).collect();
        let mut ctxs = vec![(); 3];
        exec.run(&mut ctxs, &items, |_, _, x| *x);
        assert_eq!(counters.resident_batches.get(), 1);
        // Inline runs (one context) are not batches.
        exec.run(&mut ctxs[..1], &items, |_, _, x| *x);
        assert_eq!(counters.snapshot().resident_batches, 1);
    }

    #[test]
    fn worker_panic_reaches_the_submitter_and_pool_survives() {
        let pool = ResidentPool::new(2);
        let items: Vec<usize> = (0..64).collect();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut ctxs = vec![(); 3];
            Exec::resident(&pool).run(&mut ctxs, &items, |_, _, x| {
                if *x == 13 {
                    panic!("boom");
                }
                *x
            });
        }));
        assert!(r.is_err(), "panic must propagate to the submitter");
        // The pool still serves later batches.
        let mut ctxs = vec![(); 3];
        let out = Exec::resident(&pool).run(&mut ctxs, &items, |_, _, x| x + 1);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }
}
