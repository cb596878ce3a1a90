//! Validates a Chrome trace-event JSON file produced by `cqi-obs`
//! (`reproduce --trace-out`, `ExplainRequest::trace(true)`): CI's proof
//! that a traced explain actually yields a Perfetto-loadable span tree.
//!
//! ```text
//! trace_check <trace.json>
//! ```
//!
//! Checks, in order:
//! 1. the file is well-formed JSON (`cqi_instance::json_well_formed`);
//! 2. it contains at least one complete (`"ph": "X"`) `explain` span —
//!    the per-request root;
//! 3. at least one wave-level span (`root_job`/`nested_wave` from the
//!    chase) is time-contained in the `explain` span;
//! 4. at least one solver-category span (`canonicalize`, `l1_lookup`,
//!    `solve`, ...) is time-contained in the `explain` span.
//!
//! Together 2–4 certify the request → wave → solver nesting the
//! observability layer promises. Exit code 0 iff all checks pass.

use std::process::ExitCode;

use cqi_instance::json_well_formed;

/// One complete (`ph: "X"`) trace event, reduced to what nesting checks
/// need. `ts`/`dur` are microseconds, as in the Chrome trace format.
#[derive(Clone, Debug)]
struct Span {
    name: String,
    ts: f64,
    dur: f64,
}

impl Span {
    /// Time containment: `inner` ran entirely within `self`'s window.
    /// Cross-thread containment counts — a worker's solver call belongs
    /// to the driving request even though it carries another `tid`.
    fn contains(&self, inner: &Span) -> bool {
        self.ts <= inner.ts && inner.ts + inner.dur <= self.ts + self.dur
    }
}

/// Extracts every complete event from the trace JSON with the same
/// dependency-free scan `bench_diff` uses for bench rows: find `{...}`
/// object slices, read the fields by key. Metadata events (`ph: "M"`)
/// and anything malformed are skipped.
fn parse_spans(text: &str) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut rest = text;
    while let Some(obj_start) = rest.find('{') {
        let Some(obj_len) = rest[obj_start..].find('}') else {
            break;
        };
        let obj = &rest[obj_start..obj_start + obj_len + 1];
        if field_str(obj, "ph").as_deref() == Some("X") {
            if let (Some(name), Some(ts), Some(dur)) =
                (field_str(obj, "name"), field_num(obj, "ts"), field_num(obj, "dur"))
            {
                spans.push(Span { name, ts, dur });
            }
        }
        rest = &rest[obj_start + obj_len + 1..];
    }
    spans
}

/// `"key": "value"` within one flat object.
fn field_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let after = &obj[obj.find(&pat)? + pat.len()..];
    let after = after.trim_start().strip_prefix(':')?.trim_start();
    let after = after.strip_prefix('"')?;
    Some(after[..after.find('"')?].to_owned())
}

/// `"key": 123.4` within one flat object.
fn field_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let after = &obj[obj.find(&pat)? + pat.len()..];
    let after = after.trim_start().strip_prefix(':')?.trim_start();
    let end = after
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(after.len());
    after[..end].parse().ok()
}

/// Span names that count as the wave level of the request → wave →
/// solver nesting. The chase emits `root_job` around every root search and
/// `nested_wave` around every generation of a recursive sub-BFS, at any
/// thread budget; the generic `wave` name is accepted too, so a trace
/// that only marks generations that way still validates.
const WAVE_NAMES: [&str; 3] = ["wave", "nested_wave", "root_job"];

/// Span names that count as solver work (the chase's phase-attributed
/// leaves plus the solver crate's own trace-only spans).
const SOLVER_NAMES: [&str; 7] = [
    "canonicalize",
    "l1_lookup",
    "l2_lookup",
    "solve",
    "dpll_solve",
    "solve_order",
    "check_conj",
];

/// The validation proper, separated from I/O so tests can drive it on
/// synthetic traces. Returns every failed check's message.
fn validate(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !json_well_formed(text) {
        errs.push("trace is not well-formed JSON".to_owned());
        return errs;
    }
    let spans = parse_spans(text);
    let Some(explain) = spans.iter().find(|s| s.name == "explain") else {
        errs.push("no complete `explain` (request root) span".to_owned());
        return errs;
    };
    let nested_in_explain = |names: &[&str]| {
        spans
            .iter()
            .filter(|s| names.contains(&s.name.as_str()) && explain.contains(s))
            .count()
    };
    let waves = nested_in_explain(&WAVE_NAMES);
    if waves == 0 {
        errs.push(format!("no wave-level span ({WAVE_NAMES:?}) inside `explain`"));
    }
    let solver = nested_in_explain(&SOLVER_NAMES);
    if solver == 0 {
        errs.push("no solver-category span inside `explain`".to_owned());
    }
    if errs.is_empty() {
        println!(
            "trace_check: ok — {} complete events, {waves} wave-level and {solver} \
             solver-category spans nested in `explain` ({:.1} ms)",
            spans.len(),
            explain.dur / 1e3,
        );
    }
    errs
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <trace.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let errs = validate(&text);
    for e in &errs {
        eprintln!("trace_check: FAIL: {e}");
    }
    if errs.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid trace: explain ⊃ wave ⊃ solve, plus a metadata
    /// event that must be ignored.
    const GOOD: &str = r#"{"traceEvents": [
      {"ph": "M", "name": "thread_name", "pid": 1, "tid": 2},
      {"ph": "X", "name": "explain", "cat": "request", "ts": 0, "dur": 1000, "pid": 1, "tid": 1},
      {"ph": "X", "name": "wave", "cat": "sched", "ts": 10, "dur": 500, "pid": 1, "tid": 1},
      {"ph": "X", "name": "solve", "cat": "solver", "ts": 20, "dur": 100, "pid": 1, "tid": 2}
    ]}"#;

    #[test]
    fn good_trace_passes() {
        assert!(validate(GOOD).is_empty());
    }

    #[test]
    fn metadata_events_are_skipped() {
        assert_eq!(parse_spans(GOOD).len(), 3);
    }

    #[test]
    fn malformed_json_fails() {
        let errs = validate(r#"{"traceEvents": ["#);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("well-formed"));
    }

    #[test]
    fn missing_explain_fails() {
        let errs =
            validate(r#"{"traceEvents": [{"ph": "X", "name": "wave", "ts": 0, "dur": 1}]}"#);
        assert!(errs[0].contains("explain"));
    }

    #[test]
    fn solver_span_outside_explain_window_fails() {
        let text = r#"{"traceEvents": [
          {"ph": "X", "name": "explain", "ts": 0, "dur": 100},
          {"ph": "X", "name": "wave", "ts": 10, "dur": 50},
          {"ph": "X", "name": "solve", "ts": 200, "dur": 10}
        ]}"#;
        let errs = validate(text);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("solver-category"));
    }
}
