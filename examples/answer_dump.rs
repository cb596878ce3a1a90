//! Answer dump: every answer of a fixed request set, as text, for
//! comparing two builds byte for byte.
//!
//! The benchmark compares answers only between passes of one build, and
//! only through the minimal c-solutions. This prints, for each request, a
//! label, `raw_accepted` (instances accepted before minimization), whether
//! the run was interrupted, and every minimal instance with its coverage
//! and its grounding (`ground_instance` under the request's `enforce_keys`,
//! one row per line), so the comparison also covers the solver's model
//! values, which the grounding oracle checks. Run it on two builds and
//! compare the outputs with `cmp`; `diff` then names the requests that
//! moved. The requests, one `Session` per dataset and limit, none with a
//! deadline:
//!
//! * every Beers query × the 6 variants at limits 8 and 10, keys on,
//!   through the batch path (`Session::explain_collect`);
//! * every TPC-H query × the 6 variants at limit 8, threads 2, keys on,
//!   and 3,000 generated cases (`case_seed(7, i)`, `Variant::ALL[i % 6]`)
//!   at limit 4, each on its own schema and session, through the streamed
//!   path (`Session::explain`, the stream drained, then `collect`).
//!
//! Run with: `cargo run --release --example answer_dump > answers.txt`
//! (a few minutes).

use std::io::{self, BufWriter, Write};
use std::sync::Arc;

use cqi::drc::QueryError;
use cqi::instance::ground_instance;
use cqi::prelude::*;
use cqi_datasets::{beers_queries, tpch_queries, DatasetQuery};
use cqi_fuzz::{case_seed, gen_case, GenKnobs};

/// A request's solution through one of the two paths.
type Explain = fn(&Session, ExplainRequest<'_>) -> Result<CSolution, QueryError>;

fn batch(session: &Session, req: ExplainRequest<'_>) -> Result<CSolution, QueryError> {
    session.explain_collect(req)
}

fn streamed(session: &Session, req: ExplainRequest<'_>) -> Result<CSolution, QueryError> {
    let mut stream = session.explain(req)?;
    for _ in stream.by_ref() {}
    Ok(stream.collect())
}

/// Prints one minimal instance's grounding, a row per line, or `none`
/// when it does not ground.
fn dump_grounding(out: &mut impl Write, inst: &CInstance, keys: bool) -> io::Result<()> {
    let Some(g) = ground_instance(inst, keys) else {
        return writeln!(out, "-- grounding none");
    };
    writeln!(out, "-- grounding")?;
    for (rel, row) in g.all_tuples() {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        writeln!(out, "{}({})", g.schema.relation(rel).name, cells.join(", "))?;
    }
    Ok(())
}

fn dump(
    out: &mut impl Write,
    label: &str,
    session: &Session,
    keys: bool,
    explain: Explain,
    req: ExplainRequest<'_>,
) -> io::Result<()> {
    match explain(session, req) {
        Ok(sol) => {
            writeln!(
                out,
                "== {label}: raw_accepted={} interrupted={:?}",
                sol.raw_accepted, sol.interrupted
            )?;
            for si in &sol.instances {
                writeln!(out, "-- coverage {:?}", si.coverage)?;
                write!(out, "{}", si.inst)?;
                dump_grounding(out, &si.inst, keys)?;
            }
        }
        Err(e) => writeln!(out, "== {label}: error {e:?}")?,
    }
    Ok(())
}

fn dataset(
    out: &mut impl Write,
    name: &str,
    queries: &[DatasetQuery],
    cfg: ChaseConfig,
    explain: Explain,
) -> io::Result<()> {
    let schema = Arc::clone(&queries[0].query.schema);
    let (limit, keys) = (cfg.limit, cfg.enforce_keys);
    let session = Session::new(schema).config(cfg);
    for dq in queries {
        let tree = SyntaxTree::new(dq.query.clone());
        for v in Variant::ALL {
            let label = format!("{name} limit {limit} {} {v}", dq.name);
            dump(
                out,
                &label,
                &session,
                keys,
                explain,
                ExplainRequest::tree(&tree).variant(v),
            )?;
        }
    }
    Ok(())
}

fn main() -> io::Result<()> {
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let beers = beers_queries();
    for limit in [8, 10] {
        let cfg = ChaseConfig::with_limit(limit).enforce_keys(true);
        dataset(&mut out, "beers", &beers, cfg, batch)?;
    }
    let cfg = ChaseConfig::with_limit(8).enforce_keys(true).threads(2);
    dataset(&mut out, "tpch", &tpch_queries(), cfg, streamed)?;
    let knobs = GenKnobs::default();
    for i in 0..3000 {
        let case = gen_case(case_seed(7, i), &knobs);
        let v = Variant::ALL[i % 6];
        let label = format!("generated {i} {v}");
        let (schema, query) = match case.build(None) {
            Ok(built) => built,
            Err(e) => {
                writeln!(out, "== {label}: build error {e:?}")?;
                continue;
            }
        };
        let cfg = ChaseConfig::with_limit(4);
        let keys = cfg.enforce_keys;
        let session = Session::new(schema).config(cfg);
        let tree = SyntaxTree::new(query);
        dump(
            &mut out,
            &label,
            &session,
            keys,
            streamed,
            ExplainRequest::tree(&tree).variant(v),
        )?;
    }
    out.flush()
}
