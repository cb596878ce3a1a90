//! Integration tests for the observability layer (`cqi-obs`): tracing
//! must never change what the engine computes, traced runs must yield a
//! valid Chrome trace with the promised request → wave → solver nesting,
//! the phase breakdown must be conservative (sum ≤ wall time on one
//! thread), and the metrics exposition must parse line-by-line.

use std::sync::{Arc, Mutex, MutexGuard};

use cqi::prelude::*;
use proptest::prelude::*;

/// Span capture is process-global (`begin_capture` clears every thread's
/// ring), so tests that trace must not overlap — the test harness runs
/// `#[test]` fns on multiple threads of one process.
fn capture_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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
            .key("Serves", &["bar", "beer"])
            .build()
            .unwrap(),
    )
}

const QUERIES: [&str; 4] = [
    "{ (b1) | exists d1 (Likes(d1, b1)) }",
    "{ (x1, b1) | exists p1, x2, p2 . Serves(x1, b1, p1) and Serves(x2, b1, p2) and p1 > p2 }",
    "{ (x1) | exists b1, p1 (Serves(x1, b1, p1) and (p1 > 3.0 or p1 < 1.0)) }",
    "{ (b1) | exists x1, p1 (Serves(x1, b1, p1)) and forall d1 (not Likes(d1, b1)) }",
];

/// Streams one request and renders every accepted instance; the byte
/// string is the determinism witness.
fn streamed(
    s: &Arc<Schema>,
    tree: &SyntaxTree,
    variant: Variant,
    limit: usize,
    threads: usize,
    trace: bool,
) -> (Vec<String>, CSolution) {
    let cfg = ChaseConfig::with_limit(limit).threads(threads);
    let session = Session::new(Arc::clone(s)).config(cfg);
    let mut stream = session
        .explain(ExplainRequest::tree(tree).variant(variant).trace(trace))
        .unwrap();
    let items: Vec<String> = stream
        .by_ref()
        .map(|a| format!("{}@{:?}", a.inst, a.coverage))
        .collect();
    (items, stream.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tracing safety claim: turning tracing on changes nothing about
    /// the accepted stream — byte-identical items, same order, at one
    /// thread and under root-job fan-out.
    #[test]
    fn accepted_stream_is_byte_identical_with_tracing_on(
        qi in any::<u64>(),
        vi in any::<u64>(),
        li in any::<u64>(),
    ) {
        let _guard = capture_lock();
        let s = schema();
        let src = QUERIES[(qi as usize) % QUERIES.len()];
        let variant = Variant::ALL[(vi as usize) % Variant::ALL.len()];
        let limit = 4 + (li as usize) % 3; // 4..=6
        let tree = SyntaxTree::new(parse_query(&s, src).unwrap());

        for threads in [1usize, 4] {
            let (off_items, off_sol) = streamed(&s, &tree, variant, limit, threads, false);
            let (on_items, on_sol) = streamed(&s, &tree, variant, limit, threads, true);
            prop_assert_eq!(&off_items, &on_items,
                "tracing must not change the stream: {} {} threads={}",
                src, variant, threads);
            prop_assert_eq!(off_sol.raw_accepted, on_sol.raw_accepted);
            prop_assert!(off_sol.trace.is_none(), "untraced run must carry no trace");
            prop_assert!(on_sol.trace.is_some(), "traced run must carry a trace");
        }
    }
}

#[test]
fn traced_solution_carries_valid_chrome_trace() {
    let _guard = capture_lock();
    let s = schema();
    let tree = SyntaxTree::new(parse_query(&s, QUERIES[1]).unwrap());
    for threads in [1usize, 4] {
        let (_, sol) = streamed(&s, &tree, Variant::ConjAdd, 6, threads, true);
        let trace = sol.trace.as_deref().expect("traced run returns a trace");
        assert!(
            cqi::instance::json_well_formed(trace),
            "threads={threads}: trace must be well-formed JSON"
        );
        // The span tree the ISSUE promises: request root, wave level,
        // solver leaves, plus Perfetto thread-name metadata.
        for needle in [
            "\"name\": \"explain\"",
            "\"name\": \"root_job\"",
            "\"cat\": \"solver\"",
            "\"name\": \"thread_name\"",
        ] {
            assert!(
                trace.contains(needle),
                "threads={threads}: missing {needle}"
            );
        }
        // Complete events only (plus "M" metadata): every span is ph=X.
        assert!(trace.contains("\"ph\": \"X\""));
    }
}

#[test]
fn phase_breakdown_sums_to_at_most_wall_time_single_threaded() {
    let _guard = capture_lock();
    let s = schema();
    let tree = SyntaxTree::new(parse_query(&s, QUERIES[1]).unwrap());
    let (_, sol) = streamed(&s, &tree, Variant::ConjAdd, 6, 1, true);
    let phase_total = sol.stats.phase_total_ns();
    assert!(
        phase_total > 0,
        "a traced run must attribute some phase time"
    );
    assert!(
        phase_total <= sol.total_time.as_nanos() as u64,
        "leaf-only attribution must keep the breakdown conservative: \
         {} phase ns vs {} total ns",
        phase_total,
        sol.total_time.as_nanos()
    );
    // The breakdown reaches the one-line summary too.
    let line = format!("{}", sol.stats);
    assert!(
        line.contains("phases"),
        "traced stats display the breakdown: {line}"
    );
}

#[test]
fn untraced_runs_attribute_no_phase_time() {
    let _guard = capture_lock();
    let s = schema();
    let tree = SyntaxTree::new(parse_query(&s, QUERIES[0]).unwrap());
    let (_, sol) = streamed(&s, &tree, Variant::ConjAdd, 4, 1, false);
    assert_eq!(sol.stats.phase_total_ns(), 0);
    assert!(sol.trace.is_none());
}

/// One line of Prometheus text exposition: `name{labels} value` or
/// `name value`, where the value parses as a number.
fn exposition_line_ok(line: &str) -> bool {
    let rest = match line.find('{') {
        Some(open) => {
            let Some(close) = line.rfind('}') else {
                return false;
            };
            if !name_ok(&line[..open]) || close < open {
                return false;
            }
            &line[close + 1..]
        }
        None => {
            let Some(sp) = line.find(' ') else {
                return false;
            };
            if !name_ok(&line[..sp]) {
                return false;
            }
            &line[sp..]
        }
    };
    let v = rest.trim();
    v.parse::<f64>().is_ok() || v == "+Inf"
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[test]
fn metrics_exposition_parses_line_by_line() {
    let _guard = capture_lock();
    // Any completed run publishes into the global registry.
    let s = schema();
    let tree = SyntaxTree::new(parse_query(&s, QUERIES[1]).unwrap());
    let _ = streamed(&s, &tree, Variant::ConjAdd, 4, 1, false);

    let text = cqi::obs::global().render_text();
    assert!(
        !text.is_empty(),
        "a completed run must have published metrics"
    );
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        assert!(exposition_line_ok(line), "bad exposition line: {line:?}");
        samples += 1;
    }
    assert!(samples > 0);
    assert!(text.contains("cqi_dedupe_offers_total"));
    assert!(
        text.contains("cqi_solver_memo_lookups_total{tier=\"l1\",outcome=\"hit\"}"),
        "labeled counters render as name{{k=\"v\",...}}: {text}"
    );
    // The JSON rendering of the same registry is well-formed.
    assert!(cqi::instance::json_well_formed(
        &cqi::obs::global().render_json()
    ));
}
