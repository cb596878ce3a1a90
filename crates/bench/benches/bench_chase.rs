//! Thread-scaling sweep for the chase's root-job fan-out (`cqi-runtime`):
//! representative `fig8` (Beers) and `fig11` (TPC-H) workloads at 1, 2,
//! and 4 threads.
//!
//! Each thread budget runs through a persistent [`Session`], so the
//! resident worker pool is spawned once per configuration and every
//! iteration measures steady-state hand-off (not thread spawn/join) —
//! the deployment profile of a long-lived explain service.
//!
//! CI runs this with `BENCH_JSON=BENCH_chase.json`, so the 1/2/4-thread
//! series is tracked as a perf-trajectory artifact. On a single-core host
//! the series should be near parity (the determinism guarantee makes
//! parallelism a pure wall-clock knob); on a ≥4-core runner the 4-thread rows are expected
//! to be ≥2x faster on the wide-frontier workloads.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::{beers_queries, tpch_queries};
use cqi_drc::SyntaxTree;

/// The scaling series: 1 thread (sequential baseline), then 2 and 4.
const THREAD_SERIES: [usize; 3] = [1, 2, 4];

fn bench_fig8_thread_scaling(c: &mut Criterion) {
    let queries = beers_queries();
    let mut g = c.benchmark_group("chase_threads_fig8");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    // Conj-Add over ∀/∨-heavy queries: many conjunctive trees plus *-Add
    // re-seeds = a wide root-job batch, the chase's outer parallel axis.
    for name in ["Q2B", "Q3B", "Q4B"] {
        let dq = queries.iter().find(|q| q.name == name).unwrap();
        let tree = SyntaxTree::new(dq.query.clone());
        for threads in THREAD_SERIES {
            let cfg = ChaseConfig::with_limit(8)
                .enforce_keys(true)
                .timeout(Duration::from_secs(10))
                .threads(threads);
            let session = Session::new(dq.query.schema.clone()).config(cfg);
            g.bench_with_input(
                BenchmarkId::new(format!("threads={threads}"), name),
                &tree,
                |b, tree| {
                    b.iter(|| {
                        black_box(
                            session
                                .explain_collect(
                                    ExplainRequest::tree(black_box(tree)).variant(Variant::ConjAdd),
                                )
                                .unwrap(),
                        )
                    });
                },
            );
        }
    }
    g.finish();
}

fn bench_fig11_thread_scaling(c: &mut Criterion) {
    let queries = tpch_queries();
    let mut g = c.benchmark_group("chase_threads_fig11");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    let subset: Vec<_> = queries.into_iter().take(3).collect();
    for dq in &subset {
        let tree = SyntaxTree::new(dq.query.clone());
        for threads in THREAD_SERIES {
            let cfg = ChaseConfig::with_limit(10)
                .timeout(Duration::from_secs(10))
                .threads(threads);
            let session = Session::new(dq.query.schema.clone()).config(cfg);
            g.bench_with_input(
                BenchmarkId::new(format!("threads={threads}"), &dq.name),
                &tree,
                |b, tree| {
                    b.iter(|| {
                        black_box(
                            session
                                .explain_collect(
                                    ExplainRequest::tree(black_box(tree)).variant(Variant::ConjAdd),
                                )
                                .unwrap(),
                        )
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fig8_thread_scaling,
    bench_fig11_thread_scaling
);
criterion_main!(benches);
