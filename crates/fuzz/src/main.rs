//! `cqi-fuzz` — the differential fuzzing campaign binary.
//!
//! Bounded CI sweep (deterministic, seed-pinned, writes `FUZZ_report.json`,
//! exits non-zero on any divergence):
//!
//! ```text
//! cargo run --release -p cqi-fuzz -- --cases 500 --seed 0 --out FUZZ_report.json
//! ```
//!
//! Unbounded soak mode (runs until a divergence or Ctrl-C):
//!
//! ```text
//! cargo run --release -p cqi-fuzz -- --soak
//! ```
//!
//! Harness self-test (inject a soundness bug into the chased query; the
//! sweep must report divergences):
//!
//! ```text
//! cargo run --release -p cqi-fuzz -- --mutate negate-cmp --cases 100
//! ```

use std::process::ExitCode;

use cqi_fuzz::driver::{run_one, sweep, CaseOutcome, SweepOptions, SweepSummary};
use cqi_fuzz::report;
use cqi_fuzz::spec::Mutation;

struct Args {
    opts: SweepOptions,
    out: String,
    soak: bool,
    /// In self-test mode divergences are the *expected* outcome: exit zero
    /// iff the sweep diverged.
    expect_divergence: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut opts = SweepOptions::default();
    let mut out = String::from("FUZZ_report.json");
    let mut soak = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--cases" => {
                opts.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--seed" => {
                opts.master_seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--deadline-ms" => {
                opts.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--out" => out = value("--out")?,
            "--soak" => soak = true,
            "--mutate" => {
                opts.mutation = Some(match value("--mutate")?.as_str() {
                    "drop-cmp" => Mutation::DropFirstCmp,
                    "negate-cmp" => Mutation::NegateFirstCmp,
                    other => return Err(format!("--mutate: unknown mutation {other:?}")),
                })
            }
            "--help" | "-h" => {
                return Err(String::from(
                    "usage: cqi-fuzz [--cases N] [--seed N] [--deadline-ms N] \
                     [--out PATH] [--soak] [--mutate drop-cmp|negate-cmp]",
                ))
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    let expect_divergence = opts.mutation.is_some();
    Ok(Args {
        opts,
        out,
        soak,
        expect_divergence,
    })
}

fn print_record(r: &cqi_fuzz::CaseRecord, opts: &SweepOptions) {
    if let CaseOutcome::Diverged {
        kind,
        detail,
        shrunk,
    } = &r.outcome
    {
        let seed = r.seed;
        eprintln!(
            "{}",
            report::render_repro(seed, *kind, detail, &shrunk.spec)
        );
        eprintln!(
            "replay: cargo run --release -p cqi-fuzz -- --seed {} --cases {}{}",
            opts.master_seed,
            r.index + 1,
            match opts.mutation {
                Some(Mutation::DropFirstCmp) => " --mutate drop-cmp",
                Some(Mutation::NegateFirstCmp) => " --mutate negate-cmp",
                None => "",
            }
        );
    }
}

fn run_soak(opts: &SweepOptions) -> ExitCode {
    eprintln!(
        "cqi-fuzz soak: master seed {}, deadline {}ms per case (Ctrl-C to stop)",
        opts.master_seed, opts.deadline_ms
    );
    let mut accepted = 0usize;
    for index in 0.. {
        let (record, _, _) = run_one(index, opts);
        accepted += record.accepted;
        if let CaseOutcome::Diverged { .. } = &record.outcome {
            print_record(&record, opts);
            return ExitCode::FAILURE;
        }
        if (index + 1) % 100 == 0 {
            eprintln!(
                "  {} cases, {} instances oracle-checked, 0 divergences",
                index + 1,
                accepted
            );
        }
    }
    unreachable!("soak loop is unbounded")
}

fn print_summary(summary: &SweepSummary) {
    eprintln!(
        "cqi-fuzz: {} cases — {} passed, {} skipped (deadline), {} diverged; \
         {} instances oracle-checked, {} baseline checks, {} cross-variant checks",
        summary.cases.len(),
        summary.passed(),
        summary.skipped(),
        summary.divergences(),
        summary.checked(),
        summary.baseline_checks(),
        summary.crossvariant_checks(),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.soak {
        return run_soak(&args.opts);
    }

    let summary = sweep(&args.opts);
    for r in &summary.cases {
        print_record(r, &args.opts);
    }
    print_summary(&summary);
    let json = report::render(&summary);
    debug_assert!(cqi_instance::json_well_formed(&json));
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("cqi-fuzz: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("cqi-fuzz: report written to {}", args.out);

    let diverged = summary.divergences() > 0;
    if args.expect_divergence {
        if diverged {
            eprintln!("cqi-fuzz: self-test OK — injected bug was caught (exit 0)");
            ExitCode::SUCCESS
        } else {
            eprintln!("cqi-fuzz: self-test FAILED — injected bug went unnoticed");
            ExitCode::FAILURE
        }
    } else if diverged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
