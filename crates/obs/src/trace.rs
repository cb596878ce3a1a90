//! Span tracing: thread-local span guards recording into per-thread ring
//! buffers, exported as Chrome trace-event JSON (loadable in Perfetto via
//! `ui.perfetto.dev` → Open trace).
//!
//! ## Cost model
//!
//! * **Capture off** (the default): [`span`] loads one relaxed atomic and
//!   returns an inert guard — a branch, no clock read, no allocation.
//! * **Capture on**: two `Instant` reads per span plus one push into the
//!   calling thread's bounded ring (a `Mutex` only that thread touches
//!   outside of drains, so the lock is uncontended). When a ring is full
//!   the *oldest* event is overwritten; recording never blocks or grows.
//!
//! ## Phase attribution
//!
//! Spans may carry a [`Phase`]; on completion the span's duration is added
//! to a process-wide per-phase accumulator ([`phase_totals`]), which is
//! how `ChaseStats` derives its wall-time phase breakdown without a second
//! clock. Call sites must only phase-attribute *leaf* spans (no
//! phase-attributed span nested inside another) so the components of the
//! breakdown never double-count and, on a single thread, sum to ≤ total
//! wall time.
//!
//! ## Capture scope
//!
//! Captures are process-global and refcounted: [`begin_capture`] clears
//! the rings when the refcount rises from zero, [`end_capture`] drains
//! *all* threads' rings into one JSON document. Two concurrent traced
//! requests therefore see each other's spans — acceptable for an
//! engine-debugging tool; the per-request flag (`ExplainRequest::trace`)
//! exists so production traffic pays the disabled-path branch only.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::json_escape;

/// Per-thread ring capacity. 64Ki events × 40 B ≈ 2.5 MiB per recording
/// thread, bounded however long a capture runs.
pub const RING_CAPACITY: usize = 1 << 16;

/// Engine phases for the wall-time breakdown. Only leaf spans carry one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Solver decisions: memo lookups and fresh solves (DPLL).
    Solver,
    /// Canonicalization of solver problems. No span carries it any more
    /// (the chase keys its memo on the exact problem); kept so the phase
    /// breakdown keeps its four entries for the benchmark ledger.
    Canon,
    /// Isomorphism dedupe: offers, confirms.
    Dedupe,
    /// Scheduling: wave assembly/merge, batch collection.
    Sched,
}

impl Phase {
    pub const ALL: [Phase; 4] = [Phase::Solver, Phase::Canon, Phase::Dedupe, Phase::Sched];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Solver => "solver",
            Phase::Canon => "canonicalization",
            Phase::Dedupe => "dedupe",
            Phase::Sched => "scheduling",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Solver => 0,
            Phase::Canon => 1,
            Phase::Dedupe => 2,
            Phase::Sched => 3,
        }
    }
}

/// One completed span (Chrome "complete event", `ph: "X"`).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub name: &'static str,
    pub cat: &'static str,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub tid: u64,
}

struct ThreadBuf {
    tid: u64,
    ring: Mutex<VecDeque<Event>>,
    overwritten: AtomicU64,
}

struct TraceState {
    epoch: Instant,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    next_tid: AtomicU64,
}

/// Capture refcount, outside the `OnceLock` so the disabled-path check is
/// a single static load.
static CAPTURE_DEPTH: AtomicU64 = AtomicU64::new(0);

/// Per-phase accumulated span nanoseconds (monotone; consumers snapshot
/// deltas).
static PHASE_NS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

fn state() -> &'static TraceState {
    static STATE: OnceLock<TraceState> = OnceLock::new();
    STATE.get_or_init(|| TraceState {
        epoch: Instant::now(),
        threads: Mutex::new(Vec::new()),
        next_tid: AtomicU64::new(1),
    })
}

thread_local! {
    static TL_BUF: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
}

/// Is a capture active? One relaxed load — the whole disabled-path cost.
#[inline]
pub fn enabled() -> bool {
    CAPTURE_DEPTH.load(Ordering::Relaxed) > 0
}

fn now_ns() -> u64 {
    state().epoch.elapsed().as_nanos() as u64
}

fn record(mut ev: Event) {
    TL_BUF.with(|cell| {
        let mut slot = cell.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let st = state();
            let buf = Arc::new(ThreadBuf {
                tid: st.next_tid.fetch_add(1, Ordering::Relaxed),
                ring: Mutex::new(VecDeque::with_capacity(64)),
                overwritten: AtomicU64::new(0),
            });
            st.threads.lock().unwrap().push(buf.clone());
            buf
        });
        ev.tid = buf.tid;
        let mut ring = buf.ring.lock().unwrap();
        if ring.len() >= RING_CAPACITY {
            ring.pop_front();
            buf.overwritten.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    });
}

/// RAII span: created by [`span`]/[`span_phase`], records on drop. Inert
/// (no clock was read) when no capture was active at creation.
pub struct SpanGuard {
    name: &'static str,
    cat: &'static str,
    phase: Option<Phase>,
    /// `None` = created with capture off; drop is a no-op.
    start_ns: Option<u64>,
}

impl SpanGuard {
    #[inline]
    fn new(name: &'static str, cat: &'static str, phase: Option<Phase>) -> SpanGuard {
        let start_ns = if enabled() { Some(now_ns()) } else { None };
        SpanGuard {
            name,
            cat,
            phase,
            start_ns,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start_ns else {
            return;
        };
        let dur = now_ns().saturating_sub(start);
        if let Some(p) = self.phase {
            PHASE_NS[p.index()].fetch_add(dur, Ordering::Relaxed);
        }
        record(Event {
            name: self.name,
            cat: self.cat,
            ts_ns: start,
            dur_ns: dur,
            tid: 0, // filled from the thread buffer in `record`
        });
    }
}

/// Opens an un-attributed span (shows in the trace, not in the phase
/// breakdown). Returns an inert guard when no capture is active.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    SpanGuard::new(name, cat, None)
}

/// Opens a phase-attributed *leaf* span: its duration feeds the phase
/// breakdown. Never nest one phase-attributed span inside another.
#[inline]
pub fn span_phase(name: &'static str, cat: &'static str, phase: Phase) -> SpanGuard {
    SpanGuard::new(name, cat, Some(phase))
}

/// Snapshot of the monotone per-phase accumulators, indexed like
/// [`Phase::ALL`] (ns). Subtract two snapshots for a per-run breakdown.
pub fn phase_totals() -> [u64; 4] {
    [
        PHASE_NS[0].load(Ordering::Relaxed),
        PHASE_NS[1].load(Ordering::Relaxed),
        PHASE_NS[2].load(Ordering::Relaxed),
        PHASE_NS[3].load(Ordering::Relaxed),
    ]
}

/// Starts (or joins) a capture. Rings are cleared when the refcount rises
/// from zero, so a fresh capture starts empty.
pub fn begin_capture() {
    if CAPTURE_DEPTH.fetch_add(1, Ordering::SeqCst) == 0 {
        let st = state();
        for buf in st.threads.lock().unwrap().iter() {
            buf.ring.lock().unwrap().clear();
            buf.overwritten.store(0, Ordering::Relaxed);
        }
    }
}

/// Ends a capture and drains every thread's ring into a Chrome
/// trace-event JSON document (`{"traceEvents": [...]}`).
pub fn end_capture() -> String {
    let mut events: Vec<Event> = Vec::new();
    let mut overwritten = 0u64;
    {
        let st = state();
        for buf in st.threads.lock().unwrap().iter() {
            let mut ring = buf.ring.lock().unwrap();
            events.extend(ring.drain(..));
            overwritten += buf.overwritten.swap(0, Ordering::Relaxed);
        }
    }
    CAPTURE_DEPTH.fetch_sub(1, Ordering::SeqCst);
    events.sort_by_key(|e| (e.tid, e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    chrome_trace_json(&events, overwritten)
}

/// Renders complete events as Chrome trace-event JSON. `ts`/`dur` are in
/// microseconds (the format's unit), kept fractional for ns precision.
pub fn chrome_trace_json(events: &[Event], overwritten: u64) -> String {
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"otherData\": {\"overwritten_events\": ");
    out.push_str(&overwritten.to_string());
    out.push_str("}, \"traceEvents\": [");
    let mut first = true;
    for tid in &tids {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"cqi-{tid}\"}}}}"
        ));
    }
    for e in events {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}}}",
            json_escape(e.name),
            json_escape(e.cat),
            e.tid,
            e.ts_ns as f64 / 1000.0,
            e.dur_ns as f64 / 1000.0,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captures are process-global; serialize the capture-touching tests.
    fn capture_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _l = capture_lock();
        assert!(!enabled());
        {
            let _g = span("noop", "test");
        }
        begin_capture();
        let json = end_capture();
        assert!(!json.contains("\"noop\""));
    }

    #[test]
    fn spans_nest_and_export_chrome_json() {
        let _l = capture_lock();
        begin_capture();
        {
            let _outer = span("outer", "test");
            std::thread::sleep(std::time::Duration::from_micros(200));
            {
                let _inner = span_phase("inner", "test", Phase::Solver);
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }
        let json = end_capture();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"outer\""));
        assert!(json.contains("\"inner\""));
        assert!(json.contains("\"ph\": \"X\""));
        // Inner completes before outer, so after (tid, ts) sorting the
        // outer span (earlier start) precedes the inner one.
        let outer_at = json.find("\"outer\"").unwrap();
        let inner_at = json.find("\"inner\"").unwrap();
        assert!(outer_at < inner_at, "parent span must sort before child");
    }

    #[test]
    fn phase_totals_accumulate_only_under_capture() {
        let _l = capture_lock();
        let before = phase_totals();
        {
            let _g = span_phase("off", "test", Phase::Dedupe);
        }
        assert_eq!(
            phase_totals()[Phase::Dedupe.index()],
            before[Phase::Dedupe.index()],
            "no capture → no phase accounting"
        );
        begin_capture();
        {
            let _g = span_phase("on", "test", Phase::Dedupe);
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        let _ = end_capture();
        assert!(
            phase_totals()[Phase::Dedupe.index()] > before[Phase::Dedupe.index()],
            "captured phase span must advance the accumulator"
        );
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let _l = capture_lock();
        begin_capture();
        for _ in 0..(RING_CAPACITY + 10) {
            let _g = span("tick", "test");
        }
        let json = end_capture();
        assert!(json.contains("\"overwritten_events\": "));
        // The drain happened after overflow: the document reports ≥ 10
        // overwritten events rather than growing without bound.
        let n: u64 = json
            .split("\"overwritten_events\": ")
            .nth(1)
            .unwrap()
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(n >= 10, "expected ≥10 overwritten, got {n}");
    }

    #[test]
    fn cross_thread_events_all_drain() {
        let _l = capture_lock();
        begin_capture();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let _g = span("worker_span", "test");
                    std::thread::sleep(std::time::Duration::from_micros(20));
                });
            }
        });
        let json = end_capture();
        assert!(json.matches("\"worker_span\"").count() >= 3);
    }
}
