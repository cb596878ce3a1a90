//! Perf-regression gate: compares a freshly generated `BENCH_*.json`
//! (written by the vendored criterion's `BENCH_JSON` hook) against a
//! checked-in baseline and fails — non-zero exit — when any benchmark
//! regressed beyond the threshold ratio.
//!
//! ```text
//! bench_diff <baseline.json> <fresh.json>... [--threshold 1.5] [--only SUBSTR] [--geomean]
//! ```
//!
//! Benchmarks present in only one file are reported but never fail the
//! gate (new benchmarks appear, old ones get renamed); improvements are
//! reported as such. The default threshold of 1.5x leaves headroom for
//! shared-runner noise (±30–40% is routine on CI hosts) while still
//! catching the step-function regressions that matter.
//!
//! Two knobs exist for gates tighter than noise allows per-row:
//!
//! - extra `<fresh.json>` arguments are min-merged per benchmark id
//!   (best-of-N — timing noise is one-sided, so the minimum is the
//!   stable statistic);
//! - `--geomean` fails on the geometric mean of the per-row ratios
//!   instead of any single row, so independent per-row noise cancels
//!   while a systematic slowdown still trips the gate.
//!
//! `--only SUBSTR` restricts the comparison to benchmark ids containing
//! `SUBSTR`, so CI can hold one group (e.g. the tracing-disabled fig8
//! smoke) to a tighter threshold than the rest of the file.

use std::process::ExitCode;

/// One `{"id": ..., "mean_ns": ...}` row of the bench JSON.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    id: String,
    mean_ns: f64,
}

/// Parses the minimal bench-JSON shape (an array of flat objects with
/// string/number fields) without a JSON dependency: scans for `"id"` keys
/// and reads the paired `"mean_ns"` number. Anything malformed is skipped
/// rather than fatal — a truncated fresh file should surface as "missing
/// benchmark", not a parse panic.
fn parse_rows(text: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut rest = text;
    while let Some(obj_start) = rest.find('{') {
        let Some(obj_len) = rest[obj_start..].find('}') else {
            break;
        };
        let obj = &rest[obj_start..obj_start + obj_len + 1];
        if let (Some(id), Some(mean_ns)) = (field_str(obj, "id"), field_num(obj, "mean_ns")) {
            rows.push(Row { id, mean_ns });
        }
        rest = &rest[obj_start + obj_len + 1..];
    }
    rows
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

/// `--only`: keeps rows whose id contains the substring (`None` keeps all).
fn filter_only(rows: Vec<Row>, only: Option<&str>) -> Vec<Row> {
    match only {
        Some(s) => rows.into_iter().filter(|r| r.id.contains(s)).collect(),
        None => rows,
    }
}

/// Best-of-N merge: the per-id minimum across runs. First-seen order is
/// kept so reports stay aligned with the baseline file.
fn min_merge(runs: Vec<Vec<Row>>) -> Vec<Row> {
    let mut merged: Vec<Row> = Vec::new();
    for row in runs.into_iter().flatten() {
        match merged.iter_mut().find(|m| m.id == row.id) {
            Some(m) => m.mean_ns = m.mean_ns.min(row.mean_ns),
            None => merged.push(row),
        }
    }
    merged
}

fn load(path: &str) -> Vec<Row> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_rows(&text),
        Err(e) => {
            eprintln!("bench_diff: cannot read {path}: {e}");
            Vec::new()
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 1.5_f64;
    let mut only: Option<String> = None;
    let mut geomean = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--geomean" {
            geomean = true;
        } else if a == "--threshold" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => threshold = t,
                None => {
                    eprintln!("bench_diff: --threshold needs a number");
                    return ExitCode::from(2);
                }
            }
        } else if a == "--only" {
            match it.next() {
                Some(s) => only = Some(s.clone()),
                None => {
                    eprintln!("bench_diff: --only needs a substring");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(a.clone());
        }
    }
    let [baseline_path, fresh_paths @ ..] = paths.as_slice() else {
        eprintln!(
            "usage: bench_diff <baseline.json> <fresh.json>... [--threshold 1.5] \
             [--only SUBSTR] [--geomean]"
        );
        return ExitCode::from(2);
    };
    if fresh_paths.is_empty() {
        eprintln!("bench_diff: need at least one fresh file after the baseline");
        return ExitCode::from(2);
    }
    let baseline = filter_only(load(baseline_path), only.as_deref());
    let fresh = filter_only(
        min_merge(fresh_paths.iter().map(|p| load(p)).collect()),
        only.as_deref(),
    );
    if baseline.is_empty() || fresh.is_empty() {
        eprintln!(
            "bench_diff: empty input (baseline: {} rows, fresh: {} rows)",
            baseline.len(),
            fresh.len()
        );
        return ExitCode::from(2);
    }

    let mut regressions = 0usize;
    let mut ln_sum = 0.0_f64;
    let mut compared = 0usize;
    for b in &baseline {
        let Some(f) = fresh.iter().find(|f| f.id == b.id) else {
            println!(
                "  [gone]   {} (baseline {:.1} ns, not in fresh run)",
                b.id, b.mean_ns
            );
            continue;
        };
        let ratio = f.mean_ns / b.mean_ns;
        ln_sum += ratio.ln();
        compared += 1;
        let tag = if ratio > threshold {
            regressions += 1;
            "REGRESS"
        } else if ratio < 1.0 / threshold {
            "faster"
        } else {
            "ok"
        };
        println!(
            "  [{tag:7}] {}: {:.1} ns -> {:.1} ns ({ratio:.2}x)",
            b.id, b.mean_ns, f.mean_ns
        );
    }
    for f in &fresh {
        if !baseline.iter().any(|b| b.id == f.id) {
            println!("  [new]    {} ({:.1} ns, no baseline)", f.id, f.mean_ns);
        }
    }
    if compared == 0 {
        eprintln!("bench_diff: no benchmark id in common between baseline and fresh");
        return ExitCode::from(2);
    }

    if geomean {
        let gm = (ln_sum / compared as f64).exp();
        if gm > threshold {
            eprintln!(
                "bench_diff: geomean ratio {gm:.3}x exceeds {threshold}x vs {baseline_path} \
                 ({compared} benchmarks)"
            );
            return ExitCode::FAILURE;
        }
        println!(
            "bench_diff: geomean ratio {gm:.3}x within {threshold}x ({compared} benchmarks compared)"
        );
        return ExitCode::SUCCESS;
    }
    if regressions > 0 {
        eprintln!(
            "bench_diff: {regressions} benchmark(s) regressed beyond {threshold}x vs {baseline_path}"
        );
        return ExitCode::FAILURE;
    }
    println!("bench_diff: no regression beyond {threshold}x ({compared} benchmarks compared)");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"id": "order_chain/4", "mean_ns": 240.9},
  {"id": "memo/cold", "mean_ns": 2420377.8}
]"#;

    #[test]
    fn parses_the_bench_json_shape() {
        let rows = parse_rows(SAMPLE);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, "order_chain/4");
        assert!((rows[0].mean_ns - 240.9).abs() < 1e-9);
        assert!((rows[1].mean_ns - 2420377.8).abs() < 1e-9);
    }

    #[test]
    fn malformed_objects_are_skipped() {
        let rows = parse_rows(r#"[{"id": "a"}, {"mean_ns": 3}, {"id": "b", "mean_ns": 7}]"#);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, "b");
    }

    #[test]
    fn scientific_notation_parses() {
        let rows = parse_rows(r#"[{"id": "x", "mean_ns": 1.5e3}]"#);
        assert!((rows[0].mean_ns - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn min_merge_is_best_of_n() {
        let run1 = parse_rows(r#"[{"id": "a", "mean_ns": 10}, {"id": "b", "mean_ns": 5}]"#);
        let run2 = parse_rows(r#"[{"id": "a", "mean_ns": 7}, {"id": "c", "mean_ns": 3}]"#);
        let merged = min_merge(vec![run1, run2]);
        assert_eq!(merged.len(), 3);
        assert_eq!(
            merged[0],
            Row {
                id: "a".into(),
                mean_ns: 7.0
            }
        );
        assert_eq!(
            merged[1],
            Row {
                id: "b".into(),
                mean_ns: 5.0
            }
        );
        assert_eq!(
            merged[2],
            Row {
                id: "c".into(),
                mean_ns: 3.0
            }
        );
    }

    #[test]
    fn only_filters_by_substring() {
        let rows = parse_rows(SAMPLE);
        let kept = filter_only(rows.clone(), Some("order_chain"));
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].id, "order_chain/4");
        assert_eq!(filter_only(rows.clone(), None).len(), 2);
        assert!(filter_only(rows, Some("nope")).is_empty());
    }
}
