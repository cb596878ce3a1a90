//! Criterion counterpart of Table 2 / §5.2: the case-study pipeline and the
//! baselines side by side — chase-based universal solution vs RATest-style
//! ground counterexample vs Cosette-style single witness.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqi_baseline::{generate_database, minimal_counterexample, ratest};
use cqi_core::{ChaseConfig, ExplainRequest, Session, Variant};
use cqi_datasets::{beers_schema, user_study_queries};
use cqi_drc::SyntaxTree;

fn bench_case_study_chase(c: &mut Criterion) {
    let us = user_study_queries();
    let diff = us[0].2.difference(&us[0].1).unwrap();
    let tree = SyntaxTree::new(diff);
    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(10));
    g.bench_function("chase_universal_solution_q1", |b| {
        let cfg = ChaseConfig::with_limit(10).enforce_keys(true);
        let req = || {
            ExplainRequest::tree(black_box(&tree))
                .variant(Variant::DisjAdd)
                .deadline(Duration::from_secs(30))
        };
        // A cold run: the session is built inside the timed closure.
        b.iter(|| {
            let session = Session::new(tree.query().schema.clone()).config(cfg.clone());
            black_box(session.explain_collect(req()).unwrap())
        });
    });
    g.finish();
}

fn bench_ratest(c: &mut Criterion) {
    let s = beers_schema();
    let us = user_study_queries();
    let (qa, qb) = (us[0].1.clone(), us[0].2.clone());
    let mut g = c.benchmark_group("table2_baselines");
    g.sample_size(10);
    g.bench_function("ratest_q1", |b| {
        b.iter(|| black_box(ratest(&s, &qa, &qb, 40)));
    });
    g.bench_function("ratest_minimize_only", |b| {
        // Minimization cost on a fixed database that already separates the
        // queries (found by scanning seeds once, outside the timer).
        let db = (0..60)
            .map(|seed| generate_database(&s, 4 + 2 * (seed as usize % 8), seed))
            .find(|db| minimal_counterexample(&qa, &qb, db).is_some())
            .expect("some seed separates the queries");
        b.iter(|| black_box(minimal_counterexample(&qa, &qb, &db)));
    });
    g.finish();
}

criterion_group!(benches, bench_case_study_chase, bench_ratest);
criterion_main!(benches);
