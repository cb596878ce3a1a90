//! A resident executor for detached jobs: parked, named OS threads that
//! each run one `FnOnce` at a time and hand its result back through a
//! [`JobHandle`] shaped like `std::thread::JoinHandle` (`is_finished`,
//! `join`).
//!
//! Where [`ResidentPool`](crate::ResidentPool) lends extra hands to a batch
//! its submitter waits out, an [`Executor`] job outlives the call that
//! submitted it: `cqi::Session::explain` returns a stream while its drive
//! still runs here. Without it every such call would spawn, and later
//! tear down, a thread of its own.
//!
//! * **Reuse is deterministic.** [`Executor::submit`] hands the job to an
//!   idle worker, or spawns one when none is idle. A worker re-enters the
//!   idle set *before* its job's result becomes visible to
//!   [`JobHandle::join`] or [`JobHandle::is_finished`], so a caller that
//!   joins each job before submitting the next runs every job on one
//!   thread.
//! * **Bounded without a setting.** A worker that finishes while
//!   [`resolve_threads(0)`](crate::resolve_threads) workers are already
//!   idle exits instead of parking.
//! * **Panics stay contained.** Each job runs under `catch_unwind`: its
//!   handle's `join` returns the payload as `Err`, as a thread's would,
//!   and the worker goes on serving.
//!
//! Dropping an executor lets its idle workers exit; a job still running
//! finishes first and its handle stays valid.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use crate::resolve_threads;
use crate::sync::{Condvar, Mutex};

/// A submitted job, type-erased. It runs its closure, calls `park`, and
/// only then publishes the result to its handle, so the worker is idle
/// again before a joiner can observe the result.
type Job = Box<dyn FnOnce(&mut dyn FnMut()) + Send>;

/// The name of every worker thread.
const THREAD_NAME: &str = "cqi-explain";

/// A set of resident worker threads for detached jobs (see the module
/// docs).
pub struct Executor {
    shared: Arc<Shared>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is queued for an idle worker, or on shutdown.
    queued: Condvar,
    /// Most workers that may stay parked.
    max_idle: usize,
}

#[derive(Default)]
struct State {
    /// Jobs handed to idle workers and not yet taken. Each was submitted
    /// against a parked worker, so a waiting worker takes each one.
    jobs: VecDeque<Job>,
    /// Workers parked, or about to park, that no queued job is meant for.
    idle: usize,
    /// The executor was dropped: idle workers exit.
    shutdown: bool,
}

impl Shared {
    /// Puts a worker that just finished a job back into the idle set, unless
    /// the set is full or the executor is gone. Returns whether it parked.
    fn park(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.shutdown || st.idle >= self.max_idle {
            return false;
        }
        st.idle += 1;
        true
    }

    /// Blocks a parked worker until a job is queued for it; `None` on
    /// shutdown.
    fn next_job(&self) -> Option<Job> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.shutdown {
                st.idle -= 1;
                return None;
            }
            st = self.queued.wait(st).unwrap();
        }
    }
}

/// One worker thread: runs its first job, then every job queued for it
/// while it is idle, until it is not allowed to park.
fn work(shared: &Shared, mut job: Job) {
    loop {
        let mut parked = false;
        job(&mut || parked = shared.park());
        if !parked {
            return;
        }
        match shared.next_job() {
            Some(next) => job = next,
            None => return,
        }
    }
}

impl Executor {
    /// An executor with no workers yet. Each worker thread it spawns is
    /// named `cqi-explain` and has the default stack size.
    pub fn new() -> Executor {
        Executor {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                queued: Condvar::new(),
                max_idle: resolve_threads(0),
            }),
        }
    }

    /// Runs `f` on an idle worker, or on a newly spawned one when none is
    /// idle, and returns at once with a handle to its result.
    pub fn submit<R, F>(&self, f: F) -> JobHandle<R>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let done = Arc::clone(&slot);
        let job: Job = Box::new(move |park: &mut dyn FnMut()| {
            let result = catch_unwind(AssertUnwindSafe(f));
            park();
            *done.result.lock().unwrap() = Some(result);
            done.ready.notify_one();
        });
        let mut st = self.shared.state.lock().unwrap();
        if st.idle > 0 {
            st.idle -= 1;
            st.jobs.push_back(job);
            drop(st);
            self.shared.queued.notify_one();
        } else {
            drop(st);
            let shared = Arc::clone(&self.shared);
            thread::Builder::new()
                .name(THREAD_NAME.to_owned())
                .spawn(move || work(&shared, job))
                .expect("spawning an executor worker thread");
        }
        JobHandle { slot }
    }

    /// Workers parked without a job right now.
    #[cfg(test)]
    fn idle_workers(&self) -> usize {
        self.shared.state.lock().unwrap().idle
    }
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::new()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.queued.notify_all();
    }
}

/// Where a job's result waits for its handle.
struct Slot<R> {
    result: Mutex<Option<thread::Result<R>>>,
    ready: Condvar,
}

/// An owned permission to wait for a submitted job's result, like
/// `std::thread::JoinHandle`. Dropping it detaches the job, which runs on.
pub struct JobHandle<R> {
    slot: Arc<Slot<R>>,
}

impl<R> JobHandle<R> {
    /// Has the job returned (or panicked)? Once this is `true`, its worker
    /// is back in the idle set or gone.
    pub fn is_finished(&self) -> bool {
        self.slot.result.lock().unwrap().is_some()
    }

    /// Waits for the job and returns its result, or the payload it
    /// panicked with as `Err`.
    pub fn join(self) -> thread::Result<R> {
        let mut result = self.slot.result.lock().unwrap();
        loop {
            if let Some(r) = result.take() {
                return r;
            }
            result = self.slot.ready.wait(result).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    fn this_thread() -> ThreadId {
        thread::current().id()
    }

    #[test]
    fn back_to_back_jobs_run_on_one_thread() {
        let exec = Executor::new();
        let ids: Vec<ThreadId> = (0..100)
            .map(|i| {
                let h = exec.submit(move || (i, this_thread()));
                let (j, id) = h.join().unwrap();
                assert_eq!(j, i);
                id
            })
            .collect();
        assert!(ids.iter().all(|id| *id == ids[0]), "{ids:?}");
        assert_ne!(ids[0], this_thread());
        assert_eq!(exec.idle_workers(), 1);
    }

    #[test]
    fn jobs_held_together_run_on_distinct_threads_and_idle_stays_bounded() {
        let exec = Executor::new();
        let k = resolve_threads(0) + 2;
        let barrier = Arc::new(Barrier::new(k));
        let handles: Vec<JobHandle<ThreadId>> = (0..k)
            .map(|_| {
                let b = Arc::clone(&barrier);
                exec.submit(move || {
                    b.wait();
                    this_thread()
                })
            })
            .collect();
        let ids: HashSet<ThreadId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(ids.len(), k, "every held job needs its own thread");
        // Every worker decided to park or exit before its result was
        // visible, so the idle set is settled once every job is joined.
        assert_eq!(exec.idle_workers(), resolve_threads(0));
    }

    #[test]
    fn a_panicking_job_reaches_join_and_its_worker_survives() {
        let exec = Executor::new();
        let (tx, rx) = mpsc::channel();
        let h = exec.submit(move || {
            tx.send(this_thread()).unwrap();
            panic!("boom");
        });
        let payload = h.join().expect_err("the job panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        let panicked_on = rx.recv().unwrap();
        let next = exec.submit(this_thread).join().unwrap();
        assert_eq!(next, panicked_on, "the worker must survive the panic");
    }

    #[test]
    fn is_finished_only_after_the_job_returns() {
        let exec = Executor::new();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let h = exec.submit(move || {
            entered_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
            7
        });
        entered_rx.recv().unwrap();
        assert!(!h.is_finished(), "the job is blocked on its gate");
        gate_tx.send(()).unwrap();
        while !h.is_finished() {
            thread::yield_now();
        }
        assert_eq!(exec.idle_workers(), 1, "parked before it finished");
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn dropping_the_executor_lets_a_running_job_finish() {
        let exec = Executor::new();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let h = exec.submit(move || gate_rx.recv().is_ok());
        drop(exec);
        gate_tx.send(()).unwrap();
        assert!(h.join().unwrap());
    }
}
