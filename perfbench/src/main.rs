//! The explain benchmark. One closed-loop client sends explanation
//! requests through the public `cqi` API, one after another, and reports
//! the end-to-end metrics (`--trace 0`) or the per-layer ledger
//! (`--trace 1`) of one workload. Every answer is checked: each instance
//! of the first pass goes through the grounding oracle, and every later
//! pass must reproduce the first pass's answers.
//!
//! ```text
//! perfbench --workload <beers-paper|tpch-wide-t2|fuzz-interactive>
//!           [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//! ```
//!
//! A request starts from the query's source (or a pre-parsed tree) and
//! ends when the complete c-solution is rendered with `CSolution::to_json`.
//! The last line of standard output is the result as one JSON object.

mod ledger;
mod speed;
mod stats;
mod workloads;

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path as FsPath, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use cqi::core::conjtree::conjunctive_trees;
use cqi::core::{CSolution, ChaseStats, ExplainRequest, Interrupted, QueryInput, Session};
use cqi::drc::{parse_query, SyntaxTree};
use cqi::fuzz::check_solution;
use cqi::obs::trace::{begin_capture, end_capture};
use cqi::sql::sql_to_drc;

use ledger::{Spans, LAYERS};
use speed::now;
use stats::{geomean, median, quantile, tail_q};
use workloads::{Input, Path, Request, Workload};

/// Per-request wall-clock budget; a request that reaches it has failed.
const DEADLINE: Duration = Duration::from_secs(20);
/// Set-up runs this many times per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Requests answered once during set-up, before timing starts.
const WARM_UP_REQUESTS: usize = 6;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <beers-paper|tpch-wide-t2|fuzz-interactive> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Why a request counts as failed.
#[derive(Clone, Copy)]
enum Cause {
    /// The API returned `Err` (a query the front end rejects).
    Error,
    /// The request panicked.
    Panic,
    /// The request reached its deadline.
    Deadline,
    /// An instance failed the grounding oracle.
    Oracle,
    /// A later pass answered differently from the first.
    Mismatch,
}

/// Names of the causes, indexed by `Cause as usize`.
const CAUSES: [&str; 5] = ["error", "panic", "deadline", "oracle", "mismatch"];

/// One answered request.
struct Answer {
    latency: Duration,
    /// Time to the first instance: streamed, or the return of the batch
    /// call. `None` when the solution is empty.
    first: Option<Duration>,
    sol: CSolution,
    json_bytes: usize,
    /// Syntax-tree leaves and conjunctive trees (traced requests only).
    leaves: usize,
    conj_trees: usize,
}

fn enter(spans: &mut Option<&mut Spans>, layer: usize) {
    if let Some(s) = spans.as_deref_mut() {
        s.enter(layer);
    }
}

fn exit(spans: &mut Option<&mut Spans>) {
    if let Some(s) = spans.as_deref_mut() {
        s.exit();
    }
}

/// A session for one pass of a shared-schema workload, already past its
/// one-time set-up (the worker pool at `threads > 1`).
fn new_session(wl: &Workload) -> Option<Session> {
    let schema = wl.shared.clone()?;
    let session = Session::new(schema).config(wl.cfg.clone());
    if let Some(q) = wl.warm_up {
        session
            .explain_collect(ExplainRequest::drc(q).deadline(DEADLINE))
            .expect("the warm-up query compiles");
    }
    Some(session)
}

/// Sends one request. With `spans`, the request is traced: the benchmark
/// compiles the query itself inside the front end's span, hands the engine
/// the tree with `trace(true)`, and counts conjunctive trees.
fn run_request(
    wl: &Workload,
    req: &Request,
    shared: Option<&Session>,
    mut spans: Option<&mut Spans>,
) -> Result<Answer, Cause> {
    let traced = spans.is_some();
    let t0 = now();
    enter(&mut spans, ledger::REQUEST);
    let own;
    let session = match shared {
        Some(s) => s,
        None => {
            enter(&mut spans, ledger::SETUP);
            let schema = req.schema.build().expect("per-request schemas build");
            own = Session::new(schema).config(wl.cfg.clone());
            exit(&mut spans);
            &own
        }
    };
    let compiled;
    let input = match (&req.input, traced) {
        (Input::Drc(src), true) => {
            enter(&mut spans, ledger::PARSE);
            let q = parse_query(session.schema(), src);
            exit(&mut spans);
            compiled = SyntaxTree::new(q.map_err(|_| Cause::Error)?);
            QueryInput::Tree(&compiled)
        }
        (Input::Sql(src), true) => {
            enter(&mut spans, ledger::SQL);
            let q = sql_to_drc(session.schema(), src);
            exit(&mut spans);
            compiled = SyntaxTree::new(q.map_err(|_| Cause::Error)?);
            QueryInput::Tree(&compiled)
        }
        (Input::Drc(src), false) => QueryInput::Drc(src),
        (Input::Sql(src), false) => QueryInput::Sql(src),
        (Input::Tree(t), _) => QueryInput::Tree(t),
    };
    let (mut leaves, mut conj_trees) = (0, 0);
    if let (true, QueryInput::Tree(t)) = (traced, input) {
        leaves = t.num_leaves();
        if req.variant.is_conjunctive() {
            enter(&mut spans, ledger::CONJTREE);
            conj_trees = conjunctive_trees(t.formula()).len();
            exit(&mut spans);
        }
    }
    let er = ExplainRequest::new(input)
        .variant(req.variant)
        .deadline(DEADLINE)
        .trace(traced);
    enter(&mut spans, ledger::CHASE);
    let drove = match wl.path {
        Path::Collect => session.explain_collect(er).map(|sol| {
            let first = (!sol.instances.is_empty()).then(|| t0.elapsed());
            (sol, first)
        }),
        Path::Stream => {
            enter(&mut spans, ledger::SPAWN);
            let stream = session.explain(er);
            exit(&mut spans);
            stream.map(|mut stream| {
                let mut first = None;
                for _ in stream.by_ref() {
                    first.get_or_insert_with(|| t0.elapsed());
                }
                (stream.collect(), first)
            })
        }
    };
    exit(&mut spans);
    let (sol, first) = drove.map_err(|_| Cause::Error)?;
    enter(&mut spans, ledger::TO_JSON);
    let json_bytes = std::hint::black_box(sol.to_json()).len();
    exit(&mut spans);
    exit(&mut spans);
    let latency = t0.elapsed();
    if sol.interrupted == Some(Interrupted::Deadline) {
        return Err(Cause::Deadline);
    }
    Ok(Answer {
        latency,
        first,
        sol,
        json_bytes,
        leaves,
        conj_trees,
    })
}

/// Sends one request, turning a panic into a failure.
fn attempt(
    wl: &Workload,
    req: &Request,
    shared: Option<&Session>,
    mut spans: Option<&mut Spans>,
) -> Result<Answer, Cause> {
    let answer = catch_unwind(AssertUnwindSafe(|| {
        run_request(wl, req, shared, spans.as_deref_mut())
    }))
    .unwrap_or(Err(Cause::Panic));
    if let Some(s) = spans {
        s.close_all();
    }
    answer
}

/// What must repeat exactly between passes: raw accepts and the set of
/// minimal instances' coverages and sizes. (The instances' order follows
/// acceptance times, which may tie differently across runs.)
fn fingerprint(sol: &CSolution) -> u64 {
    let mut classes: Vec<(&cqi::drc::Coverage, usize)> = sol
        .instances
        .iter()
        .map(|si| (&si.coverage, si.size()))
        .collect();
    classes.sort();
    let mut h = DefaultHasher::new();
    (sol.raw_accepted, classes).hash(&mut h);
    h.finish()
}

fn set_up(name: &str, seed: u64) -> (Workload, Duration) {
    let t = now();
    let wl = workloads::build(name, seed).expect("workload names are checked");
    let session = new_session(&wl);
    for req in wl.requests.iter().take(WARM_UP_REQUESTS) {
        let _ = attempt(&wl, req, session.as_ref(), None);
    }
    drop(session);
    (wl, t.elapsed())
}

/// Failure counts by cause, plus the attempt count.
#[derive(Default)]
struct Tally {
    attempted: u64,
    by_cause: [u64; CAUSES.len()],
    /// The first few failed requests, as `cause: label`.
    examples: Vec<String>,
}

impl Tally {
    fn fail(&mut self, c: Cause, req: &Request) {
        self.by_cause[c as usize] += 1;
        if self.examples.len() < 10 {
            self.examples
                .push(format!("{}: {}", CAUSES[c as usize], req.label));
        }
    }

    fn failed(&self) -> u64 {
        self.by_cause.iter().sum()
    }
}

/// One timed request of a measured pass.
struct Sample {
    /// Time spent in the request, failed or not.
    elapsed: Duration,
    /// Latency and time to first instance of an answered request (ms).
    latency_ms: Option<f64>,
    first_ms: Option<f64>,
    /// The host-speed segment it ran in.
    segment: usize,
}

/// End-to-end samples of the measured passes.
struct Measured {
    passes: usize,
    samples: Vec<Sample>,
    timeline: speed::Timeline,
    classes: usize,
    sizes: Vec<f64>,
}

/// Whether a run that started at `start` and made `passes` passes should
/// stop: another pass would end more than half a pass past `seconds`.
fn spent(start: Instant, passes: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / passes as f64 / 2.0 >= seconds
}

/// Runs whole passes until `seconds` are spent (at least one), checks
/// every answer, and returns the samples.
fn measure(wl: &Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Measured {
    let n = wl.requests.len();
    let mut m = Measured {
        passes: 0,
        samples: Vec::new(),
        timeline: speed::Timeline::new(wl.cfg.threads),
        classes: 0,
        sizes: Vec::new(),
    };
    let mut prints: Vec<Option<u64>> = vec![None; n];
    let start = now();
    loop {
        let order = workloads::shuffled(n, seed, m.passes);
        let session = new_session(wl);
        for &i in &order {
            let req = &wl.requests[i];
            let segment = m.timeline.tick();
            let t = now();
            let a = attempt(wl, req, session.as_ref(), None);
            let mut sample = Sample {
                elapsed: t.elapsed(),
                latency_ms: None,
                first_ms: None,
                segment,
            };
            tally.attempted += 1;
            match a {
                Err(c) => tally.fail(c, req),
                Ok(a) => {
                    sample.latency_ms = Some(a.latency.as_secs_f64() * 1e3);
                    sample.first_ms = a.first.map(|f| f.as_secs_f64() * 1e3);
                    // Outside the request's timing: a request's first answer
                    // goes through the oracle, and later passes must repeat it.
                    let print = fingerprint(&a.sol);
                    match prints[i] {
                        Some(p) if p != print => tally.fail(Cause::Mismatch, req),
                        Some(_) => {}
                        None => {
                            prints[i] = Some(print);
                            if check_solution(&req.oracle, &a.sol, wl.cfg.enforce_keys).is_err() {
                                tally.fail(Cause::Oracle, req);
                            }
                            m.classes += a.sol.num_coverages();
                            m.sizes
                                .extend(a.sol.instances.iter().map(|si| si.size() as f64));
                        }
                    }
                }
            }
            m.samples.push(sample);
        }
        drop(session);
        m.passes += 1;
        if spent(start, m.passes, seconds) {
            break;
        }
    }
    m.timeline.finish();
    m
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Metric name, value, unit — in the order they are printed.
type Metrics = Vec<(String, f64, &'static str)>;

/// Timing samples of the measured passes, each scaled by its segment's
/// host-speed factor, or as read when `normalize` is off.
struct Timings {
    latency_ms: Vec<f64>,
    first_ms: Vec<f64>,
    busy_s: f64,
}

fn timings(m: &Measured, normalize: bool) -> Timings {
    let f = |s: &Sample| {
        if normalize {
            m.timeline.factor(s.segment)
        } else {
            1.0
        }
    };
    Timings {
        latency_ms: m
            .samples
            .iter()
            .filter_map(|s| Some(s.latency_ms? * f(s)))
            .collect(),
        first_ms: m
            .samples
            .iter()
            .filter_map(|s| Some(s.first_ms? * f(s)))
            .collect(),
        busy_s: m
            .samples
            .iter()
            .map(|s| s.elapsed.as_secs_f64() * f(s))
            .sum(),
    }
}

fn end_to_end(m: &Measured, t: &Timings, setup_s: f64, tally: &Tally) -> Metrics {
    let tq = tail_q(t.latency_ms.len());
    let fq = tail_q(t.first_ms.len());
    let mean_size = m.sizes.iter().sum::<f64>() / m.sizes.len() as f64;
    let attempted = tally.attempted as f64;
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("explain_ms_p50".into(), median(&t.latency_ms), "ms"),
        ("explain_ms_p95".into(), quantile(&t.latency_ms, tq), "ms"),
        ("explain_ms_geomean".into(), geomean(&t.latency_ms), "ms"),
        (
            "explains_per_s".into(),
            t.latency_ms.len() as f64 / t.busy_s,
            "1/s",
        ),
        ("first_instance_ms_p50".into(), median(&t.first_ms), "ms"),
        (
            "first_instance_ms_p95".into(),
            quantile(&t.first_ms, fq),
            "ms",
        ),
        ("coverage_classes".into(), m.classes as f64, "count"),
        ("mean_instance_size".into(), mean_size, "tuples"),
        (
            "sound_frac".into(),
            (attempted - tally.failed() as f64) / attempted,
            "ratio",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

/// The traced run's per-layer totals (beyond the span totals).
#[derive(Default)]
struct Layered {
    passes: usize,
    requests: u64,
    stats: ChaseStats,
    drive: Duration,
    raw_accepted: u64,
    instances: u64,
    leaves: u64,
    conj_trees: u64,
    json_bytes: u64,
    verify: Duration,
    traced_total: Duration,
    untraced_total: Duration,
}

/// Traced run: pairs of passes in one seeded order, first untraced (the
/// baseline of the tracing overhead) then traced, until `seconds` are
/// spent (at least one pair).
fn trace_run(
    wl: &Workload,
    args: &Args,
    tally: &mut Tally,
    trace_path: &FsPath,
) -> std::io::Result<(Spans, Layered, bool)> {
    let n = wl.requests.len();
    let mut spans = Spans::default();
    let mut lay = Layered::default();
    let mut file = ledger::TraceFile::create(trace_path)?;
    let start = now();
    loop {
        let order = workloads::shuffled(n, args.seed, lay.passes);
        let session = new_session(wl);
        let mut untraced = vec![None; n];
        for &i in &order {
            tally.attempted += 1;
            match attempt(wl, &wl.requests[i], session.as_ref(), None) {
                Ok(a) => untraced[i] = Some(a.sol.total_time),
                Err(c) => tally.fail(c, &wl.requests[i]),
            }
        }
        drop(session);
        let session = new_session(wl);
        for &i in &order {
            let req = &wl.requests[i];
            tally.attempted += 1;
            begin_capture();
            let a = attempt(wl, req, session.as_ref(), Some(&mut spans));
            let ours = end_capture();
            let a = match a {
                Ok(a) => a,
                Err(c) => {
                    tally.fail(c, req);
                    continue;
                }
            };
            let engine = a.sol.trace.as_deref().unwrap_or("");
            file.append(&[engine, &ours])?;
            let drive = ledger::event_dur_us(engine, "explain")
                .map_or(a.sol.total_time, |us| Duration::from_secs_f64(us / 1e6));
            let t = now();
            if check_solution(&req.oracle, &a.sol, wl.cfg.enforce_keys).is_err() {
                tally.fail(Cause::Oracle, req);
            }
            lay.verify += t.elapsed();
            if let Some(base) = untraced[i] {
                lay.untraced_total += base;
                lay.traced_total += a.sol.total_time;
            }
            lay.requests += 1;
            lay.stats.merge(&a.sol.stats);
            lay.drive += drive;
            lay.raw_accepted += a.sol.raw_accepted as u64;
            lay.instances += a.sol.instances.len() as u64;
            lay.leaves += a.leaves as u64;
            lay.conj_trees += a.conj_trees as u64;
            lay.json_bytes += a.json_bytes as u64;
        }
        drop(session);
        lay.passes += 1;
        if spent(start, lay.passes, args.seconds) {
            break;
        }
    }
    let requests_in_file = file.requests;
    file.finish()?;
    println!(
        "trace: {} ({requests_in_file} requests)",
        trace_path.display()
    );
    let checker = std::env::current_exe()?.with_file_name("trace_check");
    let out = Command::new(&checker).arg(trace_path).output()?;
    print!("{}", String::from_utf8_lossy(&out.stdout));
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    Ok((spans, lay, out.status.success()))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(spans: &Spans, lay: &Layered) -> Metrics {
    let reqs = lay.requests.max(1) as f64;
    let passes = lay.passes.max(1) as f64;
    let s = &lay.stats;
    let mean_us = |layer: usize| {
        let t = &spans.totals[layer];
        ratio(t.total.as_secs_f64() * 1e6, t.calls as f64)
    };
    let ms = |ns: u64| ns as f64 / 1e6 / reqs;
    let drive_ms = lay.drive.as_secs_f64() * 1e3 / reqs;
    vec![
        ("sqlfront.sql_to_drc_us".into(), mean_us(ledger::SQL), "us"),
        ("drc.parse_query_us".into(), mean_us(ledger::PARSE), "us"),
        ("drc.leaves".into(), lay.leaves as f64 / passes, "count"),
        ("core.session.setup_us".into(), mean_us(ledger::SETUP), "us"),
        (
            "core.session.stream_spawn_us".into(),
            mean_us(ledger::SPAWN),
            "us",
        ),
        (
            "core.conjtree.trees".into(),
            lay.conj_trees as f64 / passes,
            "count",
        ),
        ("core.conjtree.us".into(), mean_us(ledger::CONJTREE), "us"),
        ("core.chase.drive_ms".into(), drive_ms, "ms"),
        (
            "core.chase.remainder_ms".into(),
            drive_ms - ms(s.phase_total_ns()),
            "ms",
        ),
        (
            "core.chase.raw_accepted".into(),
            lay.raw_accepted as f64 / passes,
            "count",
        ),
        (
            "core.chase.accept_yield".into(),
            ratio(lay.instances as f64, lay.raw_accepted as f64),
            "ratio",
        ),
        (
            "core.chase.dedupe_offers".into(),
            s.dedupe_offers as f64 / passes,
            "count",
        ),
        (
            "core.chase.dedupe_dup_ratio".into(),
            ratio(s.dedupe_duplicates as f64, s.dedupe_offers as f64),
            "ratio",
        ),
        (
            "core.chase.iso_checks".into(),
            s.dedupe_iso_checks as f64 / passes,
            "count",
        ),
        (
            "core.chase.subsumed_subtrees".into(),
            s.subsumed_subtrees as f64 / passes,
            "count",
        ),
        (
            "core.chase.incr_extend_ratio".into(),
            ratio(
                s.incr_extends as f64,
                (s.incr_extends + s.incr_fallbacks) as f64,
            ),
            "ratio",
        ),
        ("solver.solve_ms".into(), ms(s.phase_solver_ns), "ms"),
        ("solver.canon_ms".into(), ms(s.phase_canon_ns), "ms"),
        ("solver.l1_hit_rate".into(), s.solver_l1_hit_rate(), "ratio"),
        ("solver.l2_hit_rate".into(), s.solver_l2_hit_rate(), "ratio"),
        (
            "solver.sat_l1_hit_rate".into(),
            s.sat_l1_hit_rate(),
            "ratio",
        ),
        ("instance.dedupe_ms".into(), ms(s.phase_dedupe_ns), "ms"),
        (
            "instance.digest_hit_rate".into(),
            s.digest_hit_rate(),
            "ratio",
        ),
        (
            "instance.digest_probes".into(),
            (s.digest_hits + s.digest_recomputes) as f64 / passes,
            "count",
        ),
        ("runtime.sched_ms".into(), ms(s.phase_sched_ns), "ms"),
        ("runtime.waves".into(), s.waves as f64 / passes, "count"),
        (
            "runtime.spilled_waves".into(),
            s.spilled_waves as f64 / passes,
            "count",
        ),
        ("runtime.steals".into(), s.steals as f64 / passes, "count"),
        (
            "runtime.resident_batches".into(),
            s.resident_batches as f64 / passes,
            "count",
        ),
        (
            "runtime.wave_batch_dedupe_ratio".into(),
            s.wave_batch_dedupe_ratio(),
            "ratio",
        ),
        (
            "runtime.l2_contended".into(),
            (s.solver_l2.contended + s.sat_l2.contended) as f64 / passes,
            "count",
        ),
        (
            "core.solution.to_json_us".into(),
            mean_us(ledger::TO_JSON),
            "us",
        ),
        (
            "core.solution.json_bytes".into(),
            lay.json_bytes as f64 / reqs,
            "bytes",
        ),
        (
            "eval.verify_ms".into(),
            lay.verify.as_secs_f64() * 1e3 / reqs,
            "ms",
        ),
        (
            "obs.trace_overhead".into(),
            ratio(
                lay.traced_total.as_secs_f64(),
                lay.untraced_total.as_secs_f64(),
            ),
            "ratio",
        ),
    ]
}

/// Mean per-request self time of every part of a traced request, so the
/// parts add up to the request time. The chase splits into the engine's
/// traced phases, the drive's unattributed remainder, and the time the
/// chase call spends outside the drive (stream spawn, hand-off, join).
fn self_time_table(spans: &Spans, lay: &Layered, threads: usize) -> Vec<(String, f64)> {
    let reqs = lay.requests.max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / reqs;
    let t = &spans.totals;
    let s = &lay.stats;
    let chase = t[ledger::CHASE].total;
    let mut rows: Vec<(String, f64)> = vec![("request".into(), ms(t[ledger::REQUEST].total))];
    for layer in [ledger::SQL, ledger::PARSE, ledger::SETUP, ledger::CONJTREE] {
        rows.push((LAYERS[layer].into(), ms(t[layer].self_time)));
    }
    for (name, ns) in s.phases() {
        rows.push((
            format!("core.chase.phase.{name}"),
            ms(Duration::from_nanos(ns)),
        ));
    }
    let remainder = lay.drive.as_secs_f64() * 1e3 / reqs - s.phase_total_ns() as f64 / 1e6 / reqs;
    let label = if threads == 1 {
        "core.chase.remainder_ms".to_owned()
    } else {
        format!("core.chase.remainder_ms (phases sum {threads} threads' time)")
    };
    rows.push((label, remainder));
    rows.push((
        "core.chase outside the drive".into(),
        ms(chase.saturating_sub(lay.drive)),
    ));
    rows.push((
        LAYERS[ledger::TO_JSON].into(),
        ms(t[ledger::TO_JSON].self_time),
    ));
    rows.push((
        "benchmark glue (request self time)".into(),
        ms(t[ledger::REQUEST].self_time),
    ));
    rows
}

fn json_metrics(metrics: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Set-up times, as read and scaled by the probes around each.
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let mut wl = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPEATS } {
        drop(wl.take());
        let before = speed::probe(1);
        let (w, t) = set_up(&args.workload, args.seed);
        let factor = speed::reference_ms(1) / median(&[before, speed::probe(1)]);
        setups_raw.push(t.as_secs_f64());
        setups.push(t.as_secs_f64() * factor);
        wl = Some(w);
    }
    let wl = wl.expect("set-up ran");
    println!(
        "workload {} seed {} seconds {} trace {}: {} requests per pass, {} fed as trees, \
         engine threads {}, available parallelism {threads}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wl.requests.len(),
        wl.tree_inputs,
        wl.cfg.threads,
    );
    let mut tally = Tally::default();
    let stem = format!(
        "{}-seed{}-trace{}",
        wl.name,
        args.seed,
        u8::from(args.trace)
    );
    let (metrics, extra, trace_ok) = if args.trace {
        let trace_path = args
            .out_dir
            .join(format!("{}-seed{}.trace.json", wl.name, args.seed));
        let (spans, lay, ok) = match trace_run(&wl, &args, &mut tally, &trace_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: writing the trace failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let table = self_time_table(&spans, &lay, wl.cfg.threads);
        println!(
            "per-layer self time, mean ms per request ({} traced passes):",
            lay.passes
        );
        let mut extra = String::from("\"self_time_ms\": {");
        for (i, (name, v)) in table.iter().enumerate() {
            println!("  {name:<58} {v:>12.4}");
            let _ = write!(extra, "{}\"{name}\": {v}", if i > 0 { ", " } else { "" });
        }
        extra.push('}');
        (per_layer(&spans, &lay), extra, ok)
    } else {
        let m = measure(&wl, args.seed, args.seconds, &mut tally);
        let t = timings(&m, true);
        let metrics = end_to_end(&m, &t, median(&setups), &tally);
        let raw = end_to_end(&m, &timings(&m, false), median(&setups_raw), &tally);
        println!(
            "{} passes, {} latency samples (p95 = q{:.3}), {} first-instance samples \
             (p95 = q{:.3}); host-speed probe median {:.4} ms, reference {} ms",
            m.passes,
            t.latency_ms.len(),
            tail_q(t.latency_ms.len()),
            t.first_ms.len(),
            tail_q(t.first_ms.len()),
            m.timeline.median_probe(),
            speed::reference_ms(wl.cfg.threads),
        );
        println!("as read, before scaling to the reference speed:");
        let mut extra = format!(
            "\"passes\": {}, \"latency_samples\": {}, \"first_instance_samples\": {}, \
             \"probe_median_ms\": {}, \"as_read\": {{",
            m.passes,
            t.latency_ms.len(),
            t.first_ms.len(),
            m.timeline.median_probe(),
        );
        for (i, (name, value, unit)) in raw.iter().enumerate() {
            println!("  {name:<40} {value:>16.6} {unit}");
            let _ = write!(
                extra,
                "{}\"{name}\": {value}",
                if i > 0 { ", " } else { "" }
            );
        }
        extra.push('}');
        println!("scaled to the reference speed (the result):");
        (metrics, extra, true)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    let mut causes = String::from("{");
    for (i, (name, n)) in CAUSES.iter().zip(tally.by_cause).enumerate() {
        let _ = write!(causes, "{}\"{name}\": {n}", if i > 0 { ", " } else { "" });
    }
    causes.push('}');
    println!("failures by cause: {causes}");
    for e in &tally.examples {
        println!("  failed {e}");
    }
    let correct = tally.failed() == 0 && trace_ok;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed(),
        json_metrics(&metrics)
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"setup_s_as_read\": {setups_raw:?}, \"failures\": {causes}, {extra}, \
         \"result\": {result}}}\n",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let record_path = args.out_dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&record_path, record) {
        eprintln!("perfbench: cannot write {}: {e}", record_path.display());
        return ExitCode::FAILURE;
    }
    println!("{result}");
    ExitCode::SUCCESS
}
