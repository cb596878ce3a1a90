//! Criterion counterpart of Fig. 8: chase runtime on representative Beers
//! queries across the algorithm variants. (The full sweep over all 35
//! queries and all x-axis groupings is produced by `reproduce fig8`; this
//! bench tracks regression on a fast, fixed subset.)

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cqi_core::{run_variant, ChaseConfig, Variant};
use cqi_datasets::beers_queries;
use cqi_drc::SyntaxTree;

fn bench_variants(c: &mut Criterion) {
    let queries = beers_queries();
    let subset = ["Q2A", "Q2B", "Q2B-Q2A", "Q3B", "Q4B"];
    let mut g = c.benchmark_group("fig8_beers");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    for name in subset {
        let dq = queries.iter().find(|q| q.name == name).unwrap();
        let tree = SyntaxTree::new(dq.query.clone());
        for v in [Variant::DisjEO, Variant::DisjAdd, Variant::ConjEO, Variant::ConjAdd] {
            g.bench_with_input(
                BenchmarkId::new(v.name(), name),
                &tree,
                |b, tree| {
                    let cfg = ChaseConfig::with_limit(8)
                        .enforce_keys(true)
                        .timeout(Duration::from_secs(10));
                    b.iter(|| black_box(run_variant(black_box(tree), v, &cfg)));
                },
            );
        }
    }
    g.finish();
}

fn bench_running_example(c: &mut Criterion) {
    // QB − QA (the paper's flagship difference query) at limit 10.
    let us = cqi_datasets::user_study_queries();
    let diff = us[0].2.difference(&us[0].1).unwrap();
    let tree = SyntaxTree::new(diff);
    let mut g = c.benchmark_group("fig8_running_example");
    g.sample_size(10);
    for v in [Variant::DisjEO, Variant::ConjEO] {
        g.bench_function(v.name(), |b| {
            let cfg = ChaseConfig::with_limit(10)
                .enforce_keys(true)
                .timeout(Duration::from_secs(30));
            b.iter(|| black_box(run_variant(black_box(&tree), v, &cfg)));
        });
    }
    g.finish();
}

/// The solver-cache knob on whole chase runs: `cold` decides every
/// solver question from scratch, `memo` (the default configuration) goes
/// through each worker's exact-problem memo; each with keys on and off.
fn bench_cache_knobs(c: &mut Criterion) {
    let queries = beers_queries();
    let dq = queries.iter().find(|q| q.name == "Q2B").unwrap();
    let tree = SyntaxTree::new(dq.query.clone());
    let mut g = c.benchmark_group("fig8_cache_knobs");
    g.sample_size(10);
    for (label, keys, cache) in [
        ("cold", true, false),
        ("memo", true, true),
        ("cold keys off", false, false),
        ("memo keys off", false, true),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &tree, |b, tree| {
            let cfg = ChaseConfig::with_limit(8)
                .enforce_keys(keys)
                .timeout(Duration::from_secs(10))
                .solver_cache(cache);
            b.iter(|| black_box(run_variant(black_box(tree), Variant::DisjEO, &cfg)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_variants, bench_running_example, bench_cache_knobs);
criterion_main!(benches);
