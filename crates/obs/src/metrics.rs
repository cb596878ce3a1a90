//! Process-wide metrics registry: counters, gauges, log-bucketed
//! histograms; Prometheus-style text exposition + serde-free JSON.
//!
//! Hot-path counters are *sharded*: each worker thread lands on one of
//! [`COUNTER_SHARDS`] cache-line-padded cells (assigned round-robin on
//! first touch), so concurrent increments from a full thread pool never
//! contend on one cache line. Reads sum the cells — reads are rare
//! (scrapes), writes are constant.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of padded cells per sharded counter. A power of two ≥ the
/// typical worker-pool width; threads beyond it wrap around (still
/// correct, just shared).
pub const COUNTER_SHARDS: usize = 16;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize =
        NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// One cache line per cell so sharded increments never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

/// Monotone counter, sharded per worker thread.
pub struct Counter {
    cells: Box<[PaddedCell]>,
}

impl Counter {
    pub fn new() -> Counter {
        Counter {
            cells: (0..COUNTER_SHARDS).map(|_| PaddedCell::default()).collect(),
        }
    }

    /// Adds `n` to the calling thread's cell (relaxed; never contends
    /// across the pool).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[thread_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sums the cells. Monotone but not a snapshot (concurrent adds may
    /// or may not be included — fine for scrapes).
    pub fn get(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// Last-write-wins signed gauge.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: powers of two `≤ 2^(i)` for
/// `i = 0..BUCKETS-1`, plus a `+Inf` overflow bucket. 2^38 ns ≈ 4.6 min —
/// ample for per-call latencies in nanoseconds.
pub const HIST_BUCKETS: usize = 40;

/// Bucket index for an observation: the smallest `i` with `v ≤ 2^i`
/// (log-bucketing), clamped into the overflow bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    let idx = if v <= 1 {
        0
    } else {
        (64 - (v - 1).leading_zeros()) as usize
    };
    idx.min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i`; `None` is the `+Inf` bucket.
pub fn bucket_bound(i: usize) -> Option<u64> {
    if i + 1 >= HIST_BUCKETS {
        None
    } else {
        Some(1u64 << i)
    }
}

/// Log-bucketed histogram (power-of-two bounds). Observation cost: three
/// relaxed atomic adds.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

enum Kind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
    help: &'static str,
    kind: Kind,
}

/// A set of named metrics. Registration is get-or-create keyed on
/// `(name, labels)`: hot-path call sites register once (cache the `Arc`
/// in a `OnceLock`) and then only touch atomics.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Vec<Entry>>,
}

/// The process-wide registry — what a `/metrics` endpoint scrapes.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T, F, G>(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        pick: F,
        make: G,
    ) -> Arc<T>
    where
        F: Fn(&Kind) -> Option<Arc<T>>,
        G: FnOnce() -> (Arc<T>, Kind),
    {
        let mut inner = self.inner.lock().unwrap();
        for e in inner.iter() {
            if e.name == name
                && e.labels.len() == labels.len()
                && e.labels
                    .iter()
                    .zip(labels)
                    .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
            {
                if let Some(found) = pick(&e.kind) {
                    return found;
                }
                panic!("metric {name} re-registered with a different type");
            }
        }
        let (arc, kind) = make();
        inner.push(Entry {
            name,
            labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
            help,
            kind,
        });
        arc
    }

    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            labels,
            |k| match k {
                Kind::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::new());
                (c.clone(), Kind::Counter(c.clone()))
            },
        )
    }

    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            help,
            labels,
            |k| match k {
                Kind::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::new());
                (g.clone(), Kind::Gauge(g.clone()))
            },
        )
    }

    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            help,
            labels,
            |k| match k {
                Kind::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::new());
                (h.clone(), Kind::Histogram(h.clone()))
            },
        )
    }

    /// Prometheus-style text exposition. Every non-comment line is
    /// `name{labels} value` (or `name value` when unlabeled); `# HELP` /
    /// `# TYPE` comment lines are emitted once per metric name.
    pub fn render_text(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        let mut seen: Vec<&'static str> = Vec::new();
        for e in inner.iter() {
            if !seen.contains(&e.name) {
                seen.push(e.name);
                let ty = match e.kind {
                    Kind::Counter(_) => "counter",
                    Kind::Gauge(_) => "gauge",
                    Kind::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
                out.push_str(&format!("# TYPE {} {}\n", e.name, ty));
            }
            match &e.kind {
                Kind::Counter(c) => {
                    out.push_str(&sample_line(e.name, &e.labels, &[], &c.get().to_string()));
                }
                Kind::Gauge(g) => {
                    out.push_str(&sample_line(e.name, &e.labels, &[], &g.get().to_string()));
                }
                Kind::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, n) in counts.iter().enumerate() {
                        cumulative += n;
                        let le = match bucket_bound(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&sample_line(
                            &format!("{}_bucket", e.name),
                            &e.labels,
                            &[("le", &le)],
                            &cumulative.to_string(),
                        ));
                    }
                    out.push_str(&sample_line(
                        &format!("{}_sum", e.name),
                        &e.labels,
                        &[],
                        &h.sum().to_string(),
                    ));
                    out.push_str(&sample_line(
                        &format!("{}_count", e.name),
                        &e.labels,
                        &[],
                        &h.count().to_string(),
                    ));
                }
            }
        }
        out
    }

    /// The whole registry as a JSON document (serde-free).
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for e in inner.iter() {
            let labels = format!(
                "{{{}}}",
                e.labels
                    .iter()
                    .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            match &e.kind {
                Kind::Counter(c) => counters.push(format!(
                    "{{\"name\": \"{}\", \"labels\": {labels}, \"value\": {}}}",
                    json_escape(e.name),
                    c.get()
                )),
                Kind::Gauge(g) => gauges.push(format!(
                    "{{\"name\": \"{}\", \"labels\": {labels}, \"value\": {}}}",
                    json_escape(e.name),
                    g.get()
                )),
                Kind::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .bucket_counts()
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| **n > 0)
                        .map(|(i, n)| {
                            let le = match bucket_bound(i) {
                                Some(b) => format!("\"{b}\""),
                                None => "\"+Inf\"".to_string(),
                            };
                            format!("{{\"le\": {le}, \"count\": {n}}}")
                        })
                        .collect();
                    histograms.push(format!(
                        "{{\"name\": \"{}\", \"labels\": {labels}, \"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                        json_escape(e.name),
                        h.count(),
                        h.sum(),
                        buckets.join(", ")
                    ));
                }
            }
        }
        format!(
            "{{\"counters\": [{}], \"gauges\": [{}], \"histograms\": [{}]}}",
            counters.join(", "),
            gauges.join(", "),
            histograms.join(", ")
        )
    }
}

fn sample_line(
    name: &str,
    labels: &[(&'static str, String)],
    extra: &[(&str, &str)],
    value: &str,
) -> String {
    if labels.is_empty() && extra.is_empty() {
        return format!("{name} {value}\n");
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", label_escape(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", label_escape(v))),
    );
    format!("{name}{{{}}} {value}\n", parts.join(","))
}

fn label_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        // v ≤ 2^i picks bucket i: 0,1 → 0; 2 → 1; 3,4 → 2; 5..8 → 3.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(9), 4);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Bounds are consistent with the index: v ≤ bound(idx(v)).
        for v in [0u64, 1, 2, 7, 100, 4096, 1 << 20] {
            let b = bucket_bound(bucket_index(v)).unwrap();
            assert!(v <= b, "{v} > bucket bound {b}");
            if v > 1 {
                // …and v is above the previous bucket's bound (tight).
                let prev = bucket_bound(bucket_index(v) - 1).unwrap();
                assert!(v > prev, "{v} ≤ previous bound {prev}");
            }
        }
        assert_eq!(bucket_bound(HIST_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_observe_counts_sum() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1006);
        let counts = h.bucket_counts();
        assert_eq!(counts.iter().sum::<u64>(), 4);
        assert_eq!(counts[bucket_index(1000)], 1);
    }

    #[test]
    fn registry_get_or_create_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("test_total", "a test counter", &[("kind", "x")]);
        let b = r.counter("test_total", "a test counter", &[("kind", "x")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same (name, labels) must share storage");
        let other = r.counter("test_total", "a test counter", &[("kind", "y")]);
        assert_eq!(other.get(), 0, "different labels are a distinct series");
    }

    /// A parsed `name{labels} value` exposition sample.
    type Sample = (String, Vec<(String, String)>, f64);

    /// Every non-comment exposition line must parse as `name{labels} value`.
    fn parse_sample_line(line: &str) -> Option<Sample> {
        let (name_part, value_part) = line.rsplit_once(' ')?;
        let value: f64 = value_part.parse().ok()?;
        let (name, labels) = match name_part.split_once('{') {
            None => (name_part.to_string(), Vec::new()),
            Some((n, rest)) => {
                let body = rest.strip_suffix('}')?;
                let mut labels = Vec::new();
                if !body.is_empty() {
                    for pair in body.split(',') {
                        let (k, v) = pair.split_once('=')?;
                        let v = v.strip_prefix('"')?.strip_suffix('"')?;
                        labels.push((k.to_string(), v.to_string()));
                    }
                }
                (n.to_string(), labels)
            }
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return None;
        }
        Some((name, labels, value))
    }

    #[test]
    fn exposition_lines_are_well_formed() {
        let r = Registry::new();
        r.counter("cqi_test_waves_total", "waves", &[]).add(7);
        r.gauge("cqi_test_depth", "depth", &[("worker", "0")])
            .set(-3);
        let h = r.histogram("cqi_test_ns", "latencies", &[("phase", "solver")]);
        h.observe(5);
        h.observe(5000);
        let text = r.render_text();
        let mut samples = 0;
        let mut saw_inf = false;
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, labels, _value) = parse_sample_line(line)
                .unwrap_or_else(|| panic!("malformed exposition line: {line:?}"));
            if name == "cqi_test_ns_bucket" {
                assert!(labels.iter().any(|(k, _)| k == "le"));
                saw_inf |= labels.iter().any(|(_, v)| v == "+Inf");
            }
            samples += 1;
        }
        // counter + gauge + (40 buckets + sum + count).
        assert_eq!(samples, 2 + HIST_BUCKETS + 2);
        assert!(saw_inf, "histogram must end in a +Inf bucket");
        // Histogram bucket counts are cumulative: the +Inf line equals count.
        let inf_line = text.lines().rfind(|l| l.contains("le=\"+Inf\"")).unwrap();
        assert!(
            inf_line.ends_with(" 2"),
            "cumulative +Inf ≠ count: {inf_line}"
        );
    }

    #[test]
    fn json_render_is_balanced() {
        let r = Registry::new();
        r.counter("c_total", "c", &[]).inc();
        r.histogram("h_ns", "h", &[]).observe(42);
        let json = r.render_json();
        // Cheap structural check (the umbrella crate re-validates with the
        // shared json_well_formed checker).
        let depth_ok = json.chars().fold((0i32, true), |(d, ok), c| match c {
            '{' | '[' => (d + 1, ok),
            '}' | ']' => (d - 1, ok && d > 0),
            _ => (d, ok),
        });
        assert!(depth_ok.1 && depth_ok.0 == 0, "unbalanced JSON: {json}");
        assert!(json.contains("\"c_total\""));
        assert!(json.contains("\"buckets\""));
    }
}
