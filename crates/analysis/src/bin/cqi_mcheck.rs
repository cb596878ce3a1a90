//! `cqi-mcheck`: runs the runtime's concurrency protocol (the resident
//! pool's ticketed injector) under the vendored bounded-exhaustive model
//! checker, including the seeded-fault self-test that proves the checker
//! can actually catch the protocol's characteristic bug.
//!
//! Usage: `cqi-mcheck [--report PATH]`
//!
//! Requires `--features model-check`; the plain build exits 2 with an
//! explanation (so a mis-wired CI step fails loudly rather than
//! vacuously passing).

#[cfg(feature = "model-check")]
fn run() -> i32 {
    use cqi_analysis::models;
    use cqi_analysis::report::{json_arr, json_obj, json_str};

    let mut report_path: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => {
                report_path = Some(args.next().expect("--report needs a path").into());
            }
            other => {
                eprintln!("unknown argument: {other}");
                return 2;
            }
        }
    }

    let started = std::time::Instant::now();
    let outcomes = models::all_models();
    let elapsed = started.elapsed();
    let mut all_passed = true;
    for o in &outcomes {
        let verdict = if o.passed() { "PASS" } else { "FAIL" };
        all_passed &= o.passed();
        println!(
            "[{verdict}] {} ({}; {})",
            o.name,
            if o.expect_violation {
                "seeded fault: checker must find it"
            } else {
                "clean protocol: checker must exhaust"
            },
            o.report,
        );
        if !o.passed() {
            if let Some(v) = &o.report.violation {
                println!("--- violation detail ---\n{v}");
            }
        }
    }
    println!(
        "model check: {}/{} models as expected in {:.1}s",
        outcomes.iter().filter(|o| o.passed()).count(),
        outcomes.len(),
        elapsed.as_secs_f64()
    );

    if let Some(path) = report_path {
        let section = json_obj([
            ("passed", all_passed.to_string()),
            ("elapsed_seconds", format!("{:.3}", elapsed.as_secs_f64())),
            (
                "models",
                json_arr(outcomes.iter().map(|o| {
                    json_obj([
                        ("name", json_str(o.name)),
                        ("expect_violation", o.expect_violation.to_string()),
                        ("passed", o.passed().to_string()),
                        ("schedules", o.report.schedules.to_string()),
                        ("decision_points", o.report.decision_points.to_string()),
                        ("exhausted", o.report.exhausted.to_string()),
                        ("max_depth", o.report.max_depth.to_string()),
                        (
                            "violation",
                            match &o.report.violation {
                                None => "null".to_string(),
                                Some(v) => json_obj([
                                    ("kind", json_str(&v.kind)),
                                    ("message", json_str(&v.message)),
                                    (
                                        "schedule",
                                        json_arr(v.schedule.iter().map(|s| json_str(s))),
                                    ),
                                ]),
                            },
                        ),
                    ])
                })),
            ),
        ]);
        if let Err(e) = cqi_analysis::report::merge_section(&path, "model_check", section) {
            eprintln!("failed to write {}: {e}", path.display());
            return 1;
        }
        println!("wrote model_check section to {}", path.display());
    }

    if all_passed {
        0
    } else {
        1
    }
}

#[cfg(not(feature = "model-check"))]
fn run() -> i32 {
    eprintln!(
        "cqi-mcheck requires the model checker: rebuild with\n    \
         cargo run --release -p cqi-analysis --features model-check --bin cqi-mcheck"
    );
    2
}

fn main() {
    std::process::exit(run());
}
