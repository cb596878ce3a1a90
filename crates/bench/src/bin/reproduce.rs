//! `reproduce` — regenerates every table and figure of the paper's
//! evaluation (§5). See `reproduce help`.

use std::time::Duration;

use std::collections::BTreeMap;

use cqi_bench::casestudy::print_case_study;
use cqi_bench::harness::{
    self, coverage_series, joint_coverage_size_series, print_series, run_workload,
    runtime_series, time_to_first_series, RunRecord, SeriesSink, XMeasure,
};
use cqi_bench::userstudy::print_user_study;
use cqi_core::{cq_neg_universal_solution, ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::{beers_queries, dataset_stats, tpch_queries, DatasetQuery};
use cqi_drc::SyntaxTree;
use cqi_sql::sql_to_drc;

struct Opts {
    timeout: Duration,
    beers_limit: usize,
    tpch_limit: usize,
    quick: bool,
    /// Chase worker budget for root-job fan-out (`ChaseConfig::threads`):
    /// 1 = sequential (default), 0 = all cores. Parallel runs produce
    /// identical figures — the runtime's determinism guarantee — so this
    /// only moves wall-clock.
    threads: usize,
    /// When set, every table/series is also written there as CSV plus a
    /// combined `figures.json` (machine-readable, CI-diffable).
    sink: Option<SeriesSink>,
    /// When set, one representative explain runs with span tracing on
    /// (`ExplainRequest::trace`), the Chrome trace-event JSON is written
    /// here, and the `ChaseStats` phase breakdown lands in `figures.json`.
    trace_out: Option<std::path::PathBuf>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        timeout: Duration::from_secs(5),
        beers_limit: 10,
        tpch_limit: 15,
        quick: false,
        threads: 1,
        sink: None,
        trace_out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--timeout" => {
                i += 1;
                o.timeout = Duration::from_secs_f64(
                    args.get(i)
                        .and_then(|a| a.parse().ok())
                        .expect("--timeout takes seconds"),
                );
            }
            "--limit" => {
                i += 1;
                let l: usize = args
                    .get(i)
                    .and_then(|a| a.parse().ok())
                    .expect("--limit takes a number");
                o.beers_limit = l;
                o.tpch_limit = l;
            }
            "--quick" => o.quick = true,
            "--threads" => {
                i += 1;
                o.threads = args
                    .get(i)
                    .and_then(|a| a.parse().ok())
                    .expect("--threads takes a number (0 = all cores)");
            }
            "--out-dir" => {
                i += 1;
                o.sink = Some(
                    SeriesSink::new(args.get(i).expect("--out-dir takes a directory"))
                        .expect("--out-dir must be creatable"),
                );
            }
            "--trace-out" => {
                i += 1;
                o.trace_out = Some(
                    args.get(i).expect("--trace-out takes a file path").into(),
                );
            }
            other => panic!("unknown option `{other}`"),
        }
        i += 1;
    }
    o
}

/// Prints one series table and mirrors it into the sink when `--out-dir`
/// is set.
fn emit_series(
    o: &mut Opts,
    title: &str,
    ylabel: &str,
    variants: &[Variant],
    series: &BTreeMap<usize, BTreeMap<Variant, f64>>,
) {
    print_series(title, ylabel, variants, series);
    if let Some(sink) = o.sink.as_mut() {
        sink.emit(title, ylabel, variants, series)
            .expect("writing series to --out-dir");
    }
}

/// Per-variant time-to-first summary over one workload (§5.1: the metric
/// the streaming `Session` API surfaces live), printed and mirrored into
/// `figures.json`.
fn emit_time_to_first_summary(o: &mut Opts, label: &str, variants: &[Variant], records: &[RunRecord]) {
    println!("\n== {label}: time to first instance (s) ==");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for v in variants {
        let stats = harness::interactivity(records, *v);
        let fmt = |d: Option<Duration>| {
            d.map(|d| format!("{:.3}", d.as_secs_f64()))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "  {:<11} mean time-to-first: {:>8}",
            v.name(),
            fmt(stats.mean_time_to_first)
        );
        rows.push(vec![v.name().to_owned(), fmt(stats.mean_time_to_first)]);
    }
    if let Some(sink) = o.sink.as_mut() {
        sink.emit_table(
            &format!("{label}: time to first instance"),
            &["variant", "mean_time_to_first_s"],
            &rows,
        )
        .expect("writing time-to-first summary to --out-dir");
    }
}

fn beers_cfg(o: &Opts) -> ChaseConfig {
    ChaseConfig::with_limit(o.beers_limit)
        .enforce_keys(true)
        .timeout(o.timeout)
        .threads(o.threads)
}

fn tpch_cfg(o: &Opts) -> ChaseConfig {
    ChaseConfig::with_limit(o.tpch_limit)
        .enforce_keys(false)
        .timeout(o.timeout)
        .threads(o.threads)
}

/// Records the run parameters — notably the thread budget and the engine
/// knobs behind it — into `figures.json`, so emitted figures are
/// attributable to a configuration.
fn emit_run_config(o: &mut Opts, cmd: &str) {
    let resolved = cqi_runtime::resolve_threads(o.threads);
    let defaults = ChaseConfig::default();
    let rows = vec![
        vec!["command".to_owned(), cmd.to_owned()],
        vec!["threads".to_owned(), o.threads.to_string()],
        vec!["threads_resolved".to_owned(), resolved.to_string()],
        vec![
            "resident_pool".to_owned(),
            (resolved > 1).to_string(),
        ],
        vec!["solver_cache".to_owned(), defaults.solver_cache.to_string()],
        vec!["timeout_s".to_owned(), format!("{}", o.timeout.as_secs_f64())],
        vec!["beers_limit".to_owned(), o.beers_limit.to_string()],
        vec!["tpch_limit".to_owned(), o.tpch_limit.to_string()],
        vec!["quick".to_owned(), o.quick.to_string()],
    ];
    if let Some(sink) = o.sink.as_mut() {
        sink.emit_table("Run configuration", &["key", "value"], &rows)
            .expect("writing run configuration to --out-dir");
    }
}

/// Workload-aggregated engine counters ([`cqi_core::ChaseStats`]): root
/// fan-out and steal traffic, and the hit rate of every memo tier — printed
/// and mirrored into `figures.json` next to the figures they annotate.
fn emit_engine_stats(o: &mut Opts, label: &str, records: &[RunRecord]) {
    let mut t = cqi_core::ChaseStats::default();
    for r in records {
        t.merge(&r.stats);
    }
    let pct = |r: f64| format!("{:.1}%", r * 100.0);
    println!("\n== {label}: engine counters ==");
    println!(
        "  root fan-outs: {}   steals: {}",
        t.resident_batches, t.steals
    );
    println!("  solver memo hit rate: {}", pct(t.solver_l1_hit_rate()));
    println!(
        "  dedupe: {} offers, {} duplicates, {} iso checks",
        t.dedupe_offers, t.dedupe_duplicates, t.dedupe_iso_checks
    );
    println!(
        "  digest cache: {} of {} probes",
        pct(t.digest_hit_rate()),
        t.digest_hits + t.digest_recomputes,
    );
    let rows = vec![
        vec!["steals".to_owned(), t.steals.to_string()],
        vec!["resident_batches".to_owned(), t.resident_batches.to_string()],
        vec!["dedupe_offers".to_owned(), t.dedupe_offers.to_string()],
        vec!["dedupe_duplicates".to_owned(), t.dedupe_duplicates.to_string()],
        vec!["dedupe_iso_checks".to_owned(), t.dedupe_iso_checks.to_string()],
        vec!["solver_l1_hit_rate".to_owned(), format!("{:.4}", t.solver_l1_hit_rate())],
        vec!["digest_hits".to_owned(), t.digest_hits.to_string()],
        vec!["digest_recomputes".to_owned(), t.digest_recomputes.to_string()],
        vec![
            "digest_hit_rate".to_owned(),
            format!("{:.4}", t.digest_hit_rate()),
        ],
    ];
    if let Some(sink) = o.sink.as_mut() {
        sink.emit_table(&format!("{label}: engine counters"), &["key", "value"], &rows)
            .expect("writing engine counters to --out-dir");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let mut opts = parse_opts(&args[1.min(args.len())..]);
    emit_run_config(&mut opts, cmd);
    match cmd {
        "table1" => table1(&mut opts),
        "fig8" | "fig10" => beers_figures(&mut opts),
        "fig11" => tpch_figures(&mut opts),
        "fig12" => limit_sensitivity(&mut opts, Variant::DisjAdd, "Fig. 12"),
        "fig13" => limit_sensitivity(&mut opts, Variant::ConjAdd, "Fig. 13"),
        "interactivity" => interactivity(&mut opts),
        "table2" => print_case_study(10, opts.timeout.max(Duration::from_secs(20))),
        "userstudy" => print_user_study(
            13,
            opts.timeout.max(Duration::from_secs(20)),
            42,
            22,
        ),
        "cqneg" => cqneg(),
        "all" => {
            table1(&mut opts);
            beers_figures(&mut opts);
            tpch_figures(&mut opts);
            limit_sensitivity(&mut opts, Variant::DisjAdd, "Fig. 12");
            limit_sensitivity(&mut opts, Variant::ConjAdd, "Fig. 13");
            interactivity(&mut opts);
            print_case_study(10, opts.timeout.max(Duration::from_secs(20)));
            print_user_study(13, opts.timeout.max(Duration::from_secs(20)), 42, 22);
            cqneg();
        }
        _ => {
            eprintln!(
                "usage: reproduce <table1|fig8|fig10|fig11|fig12|fig13|interactivity|table2|userstudy|cqneg|all> \
                 [--timeout SECS] [--limit N] [--quick] [--threads N] [--out-dir DIR] [--trace-out FILE]"
            );
            return;
        }
    }
    if let Some(path) = opts.trace_out.clone() {
        emit_trace(&mut opts, &path);
    }
    if let Some(sink) = opts.sink.as_ref() {
        sink.finish().expect("writing figures.json to --out-dir");
    }
}

/// `--trace-out`: runs one representative Beers explain (Q2B, Conj-Add)
/// with span tracing on, writes the Chrome trace-event JSON (Perfetto /
/// `chrome://tracing` loadable) to `path`, and emits the wall-time phase
/// breakdown into `figures.json`.
fn emit_trace(o: &mut Opts, path: &std::path::Path) {
    let qs = beers_queries();
    let dq = qs
        .iter()
        .find(|q| q.name == "Q2B")
        .expect("the Beers workload contains Q2B");
    let tree = SyntaxTree::new(dq.query.clone());
    let session = Session::new(dq.query.schema.clone()).config(beers_cfg(o));
    let sol = session
        .explain_collect(
            ExplainRequest::tree(&tree)
                .variant(Variant::ConjAdd)
                .trace(true),
        )
        .expect("pre-parsed trees compile unconditionally");
    let trace = sol.trace.as_deref().expect("a traced run returns a trace");
    std::fs::write(path, trace).expect("--trace-out must be writable");
    println!("\n== traced explain (Q2B, Conj-Add) ==");
    println!("  engine: {}", sol.stats);
    println!("  trace: {} bytes -> {}", trace.len(), path.display());
    let mut rows: Vec<Vec<String>> = sol
        .stats
        .phases()
        .iter()
        .map(|(name, ns)| vec![(*name).to_owned(), ns.to_string()])
        .collect();
    rows.push(vec![
        "total_time_ns".to_owned(),
        sol.total_time.as_nanos().to_string(),
    ]);
    if let Some(sink) = o.sink.as_mut() {
        sink.emit_table(
            "Traced explain (Q2B Conj-Add): phase breakdown (ns)",
            &["phase", "ns"],
            &rows,
        )
        .expect("writing phase breakdown to --out-dir");
    }
}

/// Table 1: dataset statistics (ours vs paper).
fn table1(o: &mut Opts) {
    println!("== Table 1: dataset statistics ==");
    println!(
        "{:<8} {:>9} {:>12} {:>17} {:>9} {:>12}",
        "Dataset", "# Queries", "Mean # Atoms", "Mean # Quantifiers", "Mean # Or", "Mean Height"
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, qs, paper) in [
        ("Beers", beers_queries(), (35, 6.40, 13.94, 2.17, 9.54)),
        ("TPC-H", tpch_queries(), (28, 11.96, 23.07, 4.18, 12.07)),
    ] {
        let s = dataset_stats(&qs);
        println!(
            "{:<8} {:>9} {:>12.2} {:>17.2} {:>9.2} {:>12.2}   (ours)",
            name, s.num_queries, s.mean_atoms, s.mean_quantifiers, s.mean_ors, s.mean_height
        );
        println!(
            "{:<8} {:>9} {:>12.2} {:>17.2} {:>9.2} {:>12.2}   (paper)",
            name, paper.0, paper.1, paper.2, paper.3, paper.4
        );
        rows.push(vec![
            name.to_owned(),
            "ours".to_owned(),
            s.num_queries.to_string(),
            format!("{:.2}", s.mean_atoms),
            format!("{:.2}", s.mean_quantifiers),
            format!("{:.2}", s.mean_ors),
            format!("{:.2}", s.mean_height),
        ]);
        rows.push(vec![
            name.to_owned(),
            "paper".to_owned(),
            paper.0.to_string(),
            format!("{:.2}", paper.1),
            format!("{:.2}", paper.2),
            format!("{:.2}", paper.3),
            format!("{:.2}", paper.4),
        ]);
    }
    if let Some(sink) = o.sink.as_mut() {
        sink.emit_table(
            "Table 1: dataset statistics",
            &["dataset", "source", "queries", "mean_atoms", "mean_quantifiers", "mean_ors", "mean_height"],
            &rows,
        )
        .expect("writing table1 to --out-dir");
    }
}

fn beers_subset(quick: bool) -> Vec<DatasetQuery> {
    let qs = beers_queries();
    if !quick {
        return qs;
    }
    qs.into_iter()
        .filter(|q| q.name.starts_with("Q2") || q.name.starts_with("Q3"))
        .collect()
}

/// Figures 8 and 10: runtime and quality over the Beers workload.
fn beers_figures(o: &mut Opts) {
    let variants = Variant::ALL;
    let qs = beers_subset(o.quick);
    eprintln!(
        "running {} Beers queries x {} variants (timeout {:?}, limit {}) ...",
        qs.len(),
        variants.len(),
        o.timeout,
        o.beers_limit
    );
    let records = run_workload(&qs, &variants, &beers_cfg(o), true);
    for x in XMeasure::ALL {
        emit_series(
            o,
            &format!("Fig. 8: running time vs {}", x.label()),
            "mean seconds",
            &variants,
            &runtime_series(&records, x),
        );
    }
    emit_series(
        o,
        "Fig. 10 (left): # coverage vs # Or Below Forall + # Forall",
        "mean # distinct coverages",
        &variants,
        &coverage_series(&records, XMeasure::OrBelowForallPlusForall),
    );
    emit_series(
        o,
        "Fig. 10 (right): instance size of joint coverage vs # quantifiers",
        "mean size",
        &variants,
        &joint_coverage_size_series(&records, &variants, XMeasure::Quantifiers),
    );
    emit_series(
        o,
        "Fig. 8 (streaming): time to first instance vs # Or Below Forall + # Forall",
        "mean seconds to first instance",
        &variants,
        &time_to_first_series(&records, XMeasure::OrBelowForallPlusForall),
    );
    emit_time_to_first_summary(o, "Beers", &variants, &records);
    emit_engine_stats(o, "Beers", &records);
}

/// Figure 11: TPC-H runtime and quality (4 variants, as in the paper).
fn tpch_figures(o: &mut Opts) {
    let variants = [
        Variant::DisjEO,
        Variant::DisjAdd,
        Variant::ConjEO,
        Variant::ConjAdd,
    ];
    let mut qs = tpch_queries();
    if o.quick {
        qs.truncate(8);
    }
    eprintln!(
        "running {} TPC-H queries x {} variants (timeout {:?}, limit {}) ...",
        qs.len(),
        variants.len(),
        o.timeout,
        o.tpch_limit
    );
    let records = run_workload(&qs, &variants, &tpch_cfg(o), true);
    emit_series(
        o,
        "Fig. 11 (left): running time vs # Or Below Forall + # Forall",
        "mean seconds",
        &variants,
        &runtime_series(&records, XMeasure::OrBelowForallPlusForall),
    );
    emit_series(
        o,
        "Fig. 11 (right): # coverage vs # Or Below Forall + # Forall",
        "mean # distinct coverages",
        &variants,
        &coverage_series(&records, XMeasure::OrBelowForallPlusForall),
    );
    emit_series(
        o,
        "Fig. 11 (streaming): time to first instance vs # Or Below Forall + # Forall",
        "mean seconds to first instance",
        &variants,
        &time_to_first_series(&records, XMeasure::OrBelowForallPlusForall),
    );
    emit_time_to_first_summary(o, "TPC-H", &variants, &records);
    emit_engine_stats(o, "TPC-H", &records);
}

/// Figures 12/13: limit parameter sensitivity for one Add variant.
fn limit_sensitivity(o: &mut Opts, variant: Variant, figure: &str) {
    let qs = beers_subset(o.quick);
    for limit in [6usize, 8, 10] {
        let cfg = ChaseConfig::with_limit(limit)
            .enforce_keys(true)
            .timeout(o.timeout)
            .threads(o.threads);
        eprintln!("{figure}: {} at limit {limit} ...", variant.name());
        let records = run_workload(&qs, &[variant], &cfg, false);
        emit_series(
            o,
            &format!(
                "{figure}: {} limit={limit} — runtime vs # Or Below Forall + # Forall",
                variant.name()
            ),
            "mean seconds",
            &[variant],
            &runtime_series(&records, XMeasure::OrBelowForallPlusForall),
        );
        emit_series(
            o,
            &format!(
                "{figure}: {} limit={limit} — # coverage vs # Or Below Forall + # Forall",
                variant.name()
            ),
            "mean # distinct coverages",
            &[variant],
            &coverage_series(&records, XMeasure::OrBelowForallPlusForall),
        );
    }
}

/// §5.1 interactivity: time-to-first instance and inter-emission gap.
fn interactivity(o: &mut Opts) {
    println!("\n== §5.1 Interactivity ==");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (label, qs, cfg) in [
        ("Beers", beers_subset(o.quick), beers_cfg(o)),
        ("TPC-H", {
            let mut qs = tpch_queries();
            if o.quick {
                qs.truncate(8);
            }
            qs
        }, tpch_cfg(o)),
    ] {
        let variants = [Variant::DisjAdd, Variant::ConjAdd];
        let records = run_workload(&qs, &variants, &cfg, false);
        for v in variants {
            let stats = harness::interactivity(&records, v);
            let fmt = |d: Option<Duration>| {
                d.map(|d| format!("{:.2}", d.as_secs_f64()))
                    .unwrap_or_else(|| "-".into())
            };
            println!(
                "{label:<6} {:<9} time-to-first: {:>8}   mean gap between coverages: {:>8}",
                v.name(),
                stats
                    .mean_time_to_first
                    .map(|d| format!("{:.2}s", d.as_secs_f64()))
                    .unwrap_or_else(|| "-".into()),
                stats
                    .mean_gap
                    .map(|d| format!("{:.2}s", d.as_secs_f64()))
                    .unwrap_or_else(|| "-".into()),
            );
            rows.push(vec![
                label.to_owned(),
                v.name().to_owned(),
                fmt(stats.mean_time_to_first),
                fmt(stats.mean_gap),
            ]);
        }
    }
    if let Some(sink) = o.sink.as_mut() {
        sink.emit_table(
            "Interactivity (5.1)",
            &["dataset", "variant", "time_to_first_s", "mean_gap_s"],
            &rows,
        )
        .expect("writing interactivity to --out-dir");
    }
}

/// Proposition 3.1(1): the CQ¬ poly-time universal solution, demonstrated
/// on the paper's own CQ¬ example and a SQL-lowered query.
fn cqneg() {
    println!("\n== Proposition 3.1(1): CQ¬ universal solutions ==");
    let schema = cqi_datasets::beers_schema();
    let drc = cqi_drc::parse_query(
        &schema,
        "{ (b) | exists x, d, a . Beer(b, x) and Drinker(d, a) and not Likes(d, b) }",
    )
    .unwrap();
    let sol = cq_neg_universal_solution(&SyntaxTree::new(drc), true).unwrap();
    println!("DRC 'beers not liked by some drinker': {} instance(s)", sol.instances.len());
    for si in &sol.instances {
        print!("{}", si.inst);
    }
    let sql = sql_to_drc(
        &schema,
        "SELECT S1.bar, S1.beer FROM Likes L, Serves S1, Serves S2 \
         WHERE L.drinker LIKE 'Eve%' AND L.beer = S1.beer AND L.beer = S2.beer \
         AND S1.price > S2.price",
    )
    .unwrap();
    let sol = cq_neg_universal_solution(&SyntaxTree::new(sql), true).unwrap();
    println!("SQL QB (Fig. 9b) via sql front-end: {} instance(s)", sol.instances.len());
    for si in &sol.instances {
        print!("{}", si.inst);
    }
}
