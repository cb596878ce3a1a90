//! Criterion counterpart of Fig. 11: chase runtime on representative TPC-H
//! queries (limit 15, the paper's setting). `reproduce fig11` produces the
//! full series.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::tpch_queries;
use cqi_drc::SyntaxTree;

fn bench_tpch(c: &mut Criterion) {
    let queries = tpch_queries();
    let subset = ["TQ4A", "TQ4B", "TQ19C", "TQ21C"];
    let mut g = c.benchmark_group("fig11_tpch");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(10));
    for name in subset {
        let dq = queries.iter().find(|q| q.name == name).unwrap();
        let tree = SyntaxTree::new(dq.query.clone());
        for v in [Variant::DisjAdd, Variant::ConjAdd] {
            g.bench_with_input(BenchmarkId::new(v.name(), name), &tree, |b, tree| {
                let cfg = ChaseConfig::with_limit(15);
                let req = || {
                    ExplainRequest::tree(black_box(tree))
                        .variant(v)
                        .deadline(Duration::from_secs(10))
                };
                // A cold run: the session is built inside the timed closure.
                b.iter(|| {
                    let session = Session::new(tree.query().schema.clone()).config(cfg.clone());
                    black_box(session.explain_collect(req()).unwrap())
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_tpch);
criterion_main!(benches);
