//! The traced run's per-layer ledger: the benchmark's own spans around
//! each call into a layer, and the Chrome trace file that joins those spans
//! with the engine's request trace.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::time::{Duration, Instant};

use cqi::obs::trace::{span, SpanGuard};

use crate::speed::now;

/// The benchmark's layer spans. Names are module names of the library.
pub const LAYERS: [&str; 8] = [
    "request",
    "sqlfront.sql_to_drc",
    "drc.parse_query",
    "core.session.setup",
    "core.conjtree",
    "core.chase",
    "core.session.stream_spawn",
    "core.solution.to_json",
];

pub const REQUEST: usize = 0;
pub const SQL: usize = 1;
pub const PARSE: usize = 2;
pub const SETUP: usize = 3;
pub const CONJTREE: usize = 4;
pub const CHASE: usize = 5;
pub const SPAWN: usize = 6;
pub const TO_JSON: usize = 7;

/// Totals of one layer over every traced request: inclusive and self time
/// (the span minus its child spans).
#[derive(Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub total: Duration,
    pub self_time: Duration,
}

struct Open {
    layer: usize,
    start: Instant,
    child_time: Duration,
    /// The same span in the `cqi-obs` trace, so it shares the engine's
    /// clock and lands in the exported trace next to the engine's spans.
    _obs: SpanGuard,
}

/// Nested layer spans of the traced requests, on the driving thread.
#[derive(Default)]
pub struct Spans {
    open: Vec<Open>,
    pub totals: [LayerTotals; LAYERS.len()],
}

impl Spans {
    pub fn enter(&mut self, layer: usize) {
        self.open.push(Open {
            layer,
            _obs: span(LAYERS[layer], "perfbench"),
            start: now(),
            child_time: Duration::ZERO,
        });
    }

    /// Closes the spans a failed request left open.
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let o = self.open.pop().expect("exit matches an enter");
        let dur = o.start.elapsed();
        let t = &mut self.totals[o.layer];
        t.calls += 1;
        t.total += dur;
        t.self_time += dur.saturating_sub(o.child_time);
        if let Some(parent) = self.open.last_mut() {
            parent.child_time += dur;
        }
    }
}

/// Duration (µs) of the first complete event named `name` in a Chrome
/// trace document rendered by `cqi-obs`.
pub fn event_dur_us(doc: &str, name: &str) -> Option<f64> {
    let at = doc.find(&format!("\"name\": \"{name}\", \"cat\""))?;
    let obj = &doc[at..at + doc[at..].find('}')?];
    let dur = &obj[obj.find("\"dur\": ")? + 7..];
    dur.trim().parse().ok()
}

/// A Chrome trace-event file assembled from per-request trace documents,
/// up to a size budget; requests past the budget are left out whole.
pub struct TraceFile {
    out: BufWriter<File>,
    bytes: usize,
    first: bool,
    full: bool,
    pub requests: usize,
}

const TRACE_BUDGET_BYTES: usize = 32 << 20;

impl TraceFile {
    pub fn create(path: &std::path::Path) -> std::io::Result<TraceFile> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        Ok(TraceFile {
            out,
            bytes: 0,
            first: true,
            full: false,
            requests: 0,
        })
    }

    /// Appends the events of one request's documents (the engine's
    /// capture and the benchmark's own), or nothing once over budget.
    pub fn append(&mut self, docs: &[&str]) -> std::io::Result<()> {
        let inner: Vec<&str> = docs.iter().filter_map(|d| events(d)).collect();
        let len: usize = inner.iter().map(|e| e.len() + 2).sum();
        if self.full || self.bytes + len > TRACE_BUDGET_BYTES {
            self.full = true;
            return Ok(());
        }
        for e in inner {
            if !self.first {
                self.out.write_all(b", ")?;
            }
            self.first = false;
            self.out.write_all(e.as_bytes())?;
        }
        self.bytes += len;
        self.requests += 1;
        Ok(())
    }

    pub fn finish(mut self) -> std::io::Result<()> {
        self.out.write_all(b"]}\n")?;
        self.out.flush()
    }
}

/// The comma-separated event list inside a document's `traceEvents`
/// array, `None` when it is empty.
fn events(doc: &str) -> Option<&str> {
    let key = "\"traceEvents\": [";
    let start = doc.find(key)? + key.len();
    let end = doc.rfind(']')?;
    let inner = doc.get(start..end)?.trim();
    (!inner.is_empty()).then_some(inner)
}
