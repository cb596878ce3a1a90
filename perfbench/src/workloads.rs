//! The three workloads: the requests each one sends, generated from the
//! seed, and the engine settings it runs them with. `perfbench/ledger.json`
//! records why each workload exists and which layers it exercises.

use std::sync::Arc;

use cqi::core::{ChaseConfig, Variant};
use cqi::datasets::{
    beers, beers_queries, beers_schema, tpch, tpch_queries, tpch_schema, QueryKind,
};
use cqi::drc::{parse_query, pretty, Query, SyntaxTree};
use cqi::fuzz::{case_seed, gen_case, GenKnobs, SchemaSpec};
use cqi::schema::Schema;
use cqi::sql::sql_to_drc;

pub const NAMES: [&str; 3] = ["beers-paper", "tpch-wide-t2", "fuzz-interactive"];

/// What the program receives: query text, or a pre-parsed tree where the
/// text form does not round-trip.
pub enum Input {
    Drc(String),
    Sql(String),
    Tree(SyntaxTree),
}

/// Where a request's schema comes from. `Shared` requests run on the
/// pass's session; the others build a schema and a session per request.
pub enum SchemaSource {
    Shared,
    Spec(SchemaSpec),
    Beers,
}

impl SchemaSource {
    pub fn build(&self) -> Option<Arc<Schema>> {
        match self {
            SchemaSource::Shared => None,
            SchemaSource::Spec(spec) => Some(spec.build().expect("generated schemas build")),
            SchemaSource::Beers => Some(beers_schema()),
        }
    }
}

pub struct Request {
    pub label: String,
    pub input: Input,
    pub variant: Variant,
    pub schema: SchemaSource,
    /// The query the engine runs, compiled from the same source at set-up:
    /// the soundness oracle evaluates answers against it.
    pub oracle: Query,
}

/// How a workload hands requests to the engine.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `Session::explain_collect`: the batch path.
    Collect,
    /// `Session::explain`: the streamed path, consumed to the end.
    Stream,
}

pub struct Workload {
    pub name: &'static str,
    pub cfg: ChaseConfig,
    pub path: Path,
    /// The schema of the per-pass session; `None` when every request builds
    /// its own schema and session.
    pub shared: Option<Arc<Schema>>,
    pub requests: Vec<Request>,
    /// A query each fresh per-pass session answers (as Conj-Add) before the
    /// pass starts, so session set-up stays out of the first request: the
    /// worker pool at `threads > 1`, and for TPC-H the heap growth whose
    /// size otherwise depends on which request a pass starts with (peak
    /// memory 24 or 36 MB by seed).
    pub warm_up: Option<&'static str>,
    /// Queries fed as trees because their printed text does not parse back.
    pub tree_inputs: usize,
}

/// Requests of the fixed datasets left out of their workload, with the
/// reason: one unsound answer, and every request that took 0.1 s (Beers)
/// or 0.3 s (TPC-H) or more in one cold pass on the reference host, so a
/// run makes enough passes to average over request orders.
#[rustfmt::skip]
pub const EXCLUDED: &[(&str, &str, Variant, &str)] = &[
    ("beers-paper", "Q5A-Q5B", Variant::DisjAdd, "unsound: instance #2 fails the grounding oracle"),
    ("beers-paper", "Q3A-Q3C", Variant::DisjNaive, "slow: 13.2 s"),
    ("beers-paper", "Q5A-Q5C", Variant::ConjAdd, "slow: 5.5 s"),
    ("beers-paper", "Q3C-Q3A", Variant::DisjAdd, "slow: 2.9 s"),
    ("beers-paper", "Q4A-Q4D", Variant::DisjNaive, "slow: 1.0 s"),
    ("beers-paper", "Q3C-Q3A", Variant::DisjNaive, "slow: 0.98 s"),
    ("beers-paper", "Q3B-Q3A", Variant::ConjAdd, "slow: 0.91 s"),
    ("beers-paper", "Q5A-Q5D", Variant::ConjAdd, "slow: 0.77 s"),
    ("beers-paper", "Q5D-Q5A", Variant::DisjNaive, "slow: 0.74 s"),
    ("beers-paper", "Q4A-Q4D", Variant::DisjAdd, "slow: 0.68 s"),
    ("beers-paper", "Q3A-Q3C", Variant::ConjNaive, "slow: 0.63 s"),
    ("beers-paper", "Q5B-Q5A", Variant::ConjNaive, "slow: 0.61 s"),
    ("beers-paper", "Q5D", Variant::DisjAdd, "slow: 0.57 s"),
    ("beers-paper", "Q5D-Q5A", Variant::DisjAdd, "slow: 0.49 s"),
    ("beers-paper", "Q5B-Q5A", Variant::ConjAdd, "slow: 0.49 s"),
    ("beers-paper", "Q5A-Q5C", Variant::ConjNaive, "slow: 0.44 s"),
    ("beers-paper", "Q5A-Q5B", Variant::ConjAdd, "slow: 0.42 s"),
    ("beers-paper", "Q5C", Variant::DisjAdd, "slow: 0.40 s"),
    ("beers-paper", "Q5C-Q5A", Variant::DisjAdd, "slow: 0.35 s"),
    ("beers-paper", "Q4C-Q4A", Variant::DisjNaive, "slow: 0.34 s"),
    ("beers-paper", "Q4B-Q4A", Variant::DisjNaive, "slow: 0.32 s"),
    ("beers-paper", "Q5B-Q5A", Variant::DisjNaive, "slow: 0.25 s"),
    ("beers-paper", "Q5A-Q5C", Variant::ConjEO, "slow: 0.25 s"),
    ("beers-paper", "Q3B-Q3A", Variant::DisjNaive, "slow: 0.24 s"),
    ("beers-paper", "Q4A-Q4D", Variant::ConjNaive, "slow: 0.22 s"),
    ("beers-paper", "Q5C-Q5A", Variant::ConjAdd, "slow: 0.23 s"),
    ("beers-paper", "Q4D-Q4A", Variant::ConjAdd, "slow: 0.22 s"),
    ("beers-paper", "Q5D", Variant::ConjAdd, "slow: 0.21 s"),
    ("beers-paper", "Q5D-Q5A", Variant::ConjAdd, "slow: 0.20 s"),
    ("beers-paper", "Q5C", Variant::ConjAdd, "slow: 0.17 s"),
    ("beers-paper", "Q5C-Q5A", Variant::DisjNaive, "slow: 0.17 s"),
    ("beers-paper", "Q1A", Variant::DisjEO, "slow: 0.16 s"),
    ("beers-paper", "Q2B-Q2A", Variant::DisjNaive, "slow: 0.15 s"),
    ("beers-paper", "Q5D-Q5A", Variant::ConjNaive, "slow: 0.14 s"),
    ("beers-paper", "Q5B", Variant::ConjAdd, "slow: 0.13 s"),
    ("beers-paper", "Q4A-Q4D", Variant::ConjAdd, "slow: 0.12 s"),
    ("beers-paper", "Q4A-Q4D", Variant::DisjEO, "slow: 0.12 s"),
    ("beers-paper", "Q1A-Q1B", Variant::ConjAdd, "slow: 0.12 s"),
    ("beers-paper", "Q3A-Q3B", Variant::DisjAdd, "slow: 0.11 s"),
    ("beers-paper", "Q1B-Q1A", Variant::ConjAdd, "slow: 0.11 s"),
    ("beers-paper", "Q5A-Q5D", Variant::ConjNaive, "slow: 0.10 s"),
    ("beers-paper", "Q5D", Variant::DisjNaive, "slow: 0.10 s"),
    ("tpch-wide-t2", "TQ19B-TQ19A", Variant::DisjAdd, "slow: 2.6 s"),
    ("tpch-wide-t2", "TQ21A-TQ21B", Variant::DisjAdd, "slow: 2.4 s"),
    ("tpch-wide-t2", "TQ19C-TQ19A", Variant::DisjAdd, "slow: 1.9 s"),
    ("tpch-wide-t2", "TQ21C-TQ21A", Variant::DisjAdd, "slow: 1.8 s"),
    ("tpch-wide-t2", "TQ19A-TQ19C", Variant::DisjAdd, "slow: 1.8 s"),
    ("tpch-wide-t2", "TQ21A-TQ21C", Variant::DisjAdd, "slow: 1.6 s"),
    ("tpch-wide-t2", "TQ21A", Variant::ConjAdd, "slow: 1.4 s"),
    ("tpch-wide-t2", "TQ4A-TQ4B", Variant::DisjAdd, "slow: 1.1 s"),
    ("tpch-wide-t2", "TQ4B-TQ4A", Variant::DisjAdd, "slow: 1.1 s"),
    ("tpch-wide-t2", "TQ21A", Variant::DisjAdd, "slow: 0.96 s"),
    ("tpch-wide-t2", "TQ21B-TQ21A", Variant::DisjAdd, "slow: 0.78 s"),
    ("tpch-wide-t2", "TQ16A", Variant::DisjEO, "slow: 0.56 s"),
    ("tpch-wide-t2", "TQ16B-TQ16A", Variant::DisjAdd, "slow: 0.32 s"),
    ("tpch-wide-t2", "TQ16A-TQ16B", Variant::DisjAdd, "slow: 0.31 s"),
];

fn excluded(workload: &str, query: &str, v: Variant) -> bool {
    EXCLUDED
        .iter()
        .any(|&(w, q, ev, _)| w == workload && q == query && ev == v)
}

/// SQL requests of the interactive workload, on the Beers schema, taken
/// from the repository's examples and SQL pipeline tests.
pub const BEERS_SQL: [&str; 5] = [
    "SELECT s.bar, s.beer FROM Likes l, Serves s \
     WHERE l.drinker LIKE 'Eve %' AND l.beer = s.beer \
     AND NOT EXISTS (SELECT * FROM Serves WHERE beer = s.beer AND price > s.price)",
    "SELECT S1.bar, S1.beer FROM Likes L, Serves S1, Serves S2 \
     WHERE L.drinker LIKE 'Eve%' AND L.beer = S1.beer AND L.beer = S2.beer \
     AND S1.price > S2.price",
    "SELECT S1.bar, S1.beer FROM Likes L \
     JOIN Serves S1 ON L.beer = S1.beer JOIN Serves S2 ON L.beer = S2.beer \
     WHERE L.drinker LIKE 'Eve%' AND S1.price > S2.price \
     EXCEPT \
     SELECT s.bar, s.beer FROM Likes l, Serves s \
     WHERE l.drinker LIKE 'Eve %' AND l.beer = s.beer \
     AND NOT EXISTS (SELECT * FROM Serves WHERE beer = s.beer AND price > s.price)",
    "SELECT s.* FROM Serves s JOIN Likes l ON l.beer = s.beer WHERE s.price > 3.0",
    "SELECT DISTINCT S.beer FROM Serves S, Likes L \
     WHERE S.bar = 'Edge' AND S.beer = L.beer AND L.drinker <> 'Richard'",
];

/// Distinct generated cases per pass of `fuzz-interactive`, and the share
/// of SQL requests among them (one in `SQL_EVERY`).
pub const FUZZ_CASES: usize = 24000;
const SQL_EVERY: usize = 16;

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "beers-paper" => datasets(
            "beers-paper",
            beers_schema(),
            beers_queries(),
            beers::base_query_sources(),
            &Variant::ALL,
            &Variant::ALL,
            ChaseConfig::with_limit(10).enforce_keys(true).threads(1),
            Path::Collect,
            "{ (b1) | exists d1 (Likes(d1, b1)) }",
        ),
        "tpch-wide-t2" => datasets(
            "tpch-wide-t2",
            tpch_schema(),
            tpch_queries(),
            tpch::base_query_sources(),
            &[
                Variant::DisjEO,
                Variant::DisjAdd,
                Variant::ConjEO,
                Variant::ConjAdd,
            ],
            &[Variant::DisjEO, Variant::DisjAdd],
            ChaseConfig::with_limit(8).enforce_keys(false).threads(2),
            Path::Stream,
            tpch::base_query_sources()
                .iter()
                .find(|s| s.0 == "TQ16A")
                .expect("TQ16A is a base query")
                .2,
        ),
        "fuzz-interactive" => fuzz(seed),
        _ => return None,
    })
}

type Sources = Vec<(&'static str, QueryKind, &'static str, [usize; 5])>;

/// A fixed dataset: base queries from their source text, difference
/// queries from their printed text, or as trees when that text does not
/// parse back (the printer emits primed variables such as `o3'`).
#[allow(clippy::too_many_arguments)]
fn datasets(
    name: &'static str,
    schema: Arc<Schema>,
    queries: Vec<cqi::datasets::DatasetQuery>,
    sources: Sources,
    base_variants: &[Variant],
    diff_variants: &[Variant],
    cfg: ChaseConfig,
    path: Path,
    warm_up: &'static str,
) -> Workload {
    let mut requests = Vec::new();
    let mut tree_inputs = 0;
    for dq in &queries {
        let text = match sources.iter().find(|s| s.0 == dq.name) {
            Some(s) => s.2.to_owned(),
            None => pretty::query_to_string(&dq.query),
        };
        let parsed = parse_query(&schema, &text).ok();
        if parsed.is_none() {
            tree_inputs += 1;
        }
        let variants = match dq.kind {
            QueryKind::Difference => diff_variants,
            _ => base_variants,
        };
        for &v in variants {
            if excluded(name, &dq.name, v) {
                continue;
            }
            let (input, oracle) = match &parsed {
                Some(q) => (Input::Drc(text.clone()), q.clone()),
                None => (
                    Input::Tree(SyntaxTree::new(dq.query.clone())),
                    dq.query.clone(),
                ),
            };
            requests.push(Request {
                label: format!("{}/{}", dq.name, v.name()),
                input,
                variant: v,
                schema: SchemaSource::Shared,
                oracle,
            });
        }
    }
    Workload {
        name,
        cfg,
        path,
        shared: Some(schema),
        requests,
        warm_up: Some(warm_up),
        tree_inputs,
    }
}

/// Seeded generated cases, each on its own schema, with one SQL request on
/// the Beers schema in every `SQL_EVERY`. Limit 4, not the fuzzer's 6: at
/// 6 a few Naive cases per thousand run for seconds and swamp the
/// sub-millisecond mix this workload exists to measure.
fn fuzz(seed: u64) -> Workload {
    let beers = beers_schema();
    let knobs = GenKnobs::default();
    let mut requests = Vec::with_capacity(FUZZ_CASES);
    for i in 0..FUZZ_CASES {
        let variant = Variant::ALL[i % Variant::ALL.len()];
        if i % SQL_EVERY == SQL_EVERY - 1 {
            let sql = BEERS_SQL[(i / SQL_EVERY) % BEERS_SQL.len()];
            requests.push(Request {
                label: format!(
                    "sql{}/{}",
                    (i / SQL_EVERY) % BEERS_SQL.len(),
                    variant.name()
                ),
                input: Input::Sql(sql.to_owned()),
                variant,
                schema: SchemaSource::Beers,
                oracle: sql_to_drc(&beers, sql).expect("the Beers SQL requests lower"),
            });
            continue;
        }
        let case = gen_case(case_seed(seed, i), &knobs);
        let schema = case.schema.build().expect("generated schemas build");
        let text = case.drc();
        let oracle = parse_query(&schema, &text).expect("generated DRC text parses");
        requests.push(Request {
            label: format!("case{i}/{}", variant.name()),
            input: Input::Drc(text),
            variant,
            schema: SchemaSource::Spec(case.schema),
            oracle,
        });
    }
    Workload {
        name: "fuzz-interactive",
        cfg: ChaseConfig::with_limit(4).threads(1),
        path: Path::Stream,
        shared: None,
        requests,
        warm_up: None,
        tree_inputs: 0,
    }
}

/// Seeded Fisher-Yates order of `n` requests for pass `pass`.
pub fn shuffled(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let stream = case_seed(seed, pass);
    for i in (1..n).rev() {
        let j = (case_seed(stream, i) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}
