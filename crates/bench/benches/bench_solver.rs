//! Microbenchmarks of the constraint-solver substrate (the `IsConsistent`
//! inner loop of Algorithm 1): order chains, LIKE pattern sets, and the
//! full consistency check of the paper's I0.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cqi_datasets::beers_schema;
use cqi_instance::consistency::is_consistent;
use cqi_instance::{CInstance, Cond};
use cqi_schema::DomainType;
use cqi_solver::{order, Lit, NullId, Problem, SolverOp};

fn bench_order_chains(c: &mut Criterion) {
    let mut g = c.benchmark_group("order_chain");
    for n in [4usize, 16, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut p = order::OrderProblem::new(n);
            for i in 1..n {
                p.lt(i, i - 1); // p1 > p2 > ... chain
            }
            b.iter(|| black_box(order::solve_order(black_box(&p))));
        });
    }
    g.finish();
}

fn bench_int_tightening(c: &mut Criterion) {
    c.bench_function("order_int_window", |b| {
        let mut p = order::OrderProblem::new(6);
        p.int_class = vec![true; 6];
        p.pinned[0] = Some(0.0);
        p.pinned[5] = Some(5.0);
        for i in 0..5 {
            p.lt(i, i + 1);
        }
        b.iter(|| black_box(order::solve_order(black_box(&p))));
    });
}

fn bench_like_sets(c: &mut Criterion) {
    c.bench_function("like_eve_prefix_vs_space", |b| {
        b.iter(|| {
            let mut p = Problem::new(vec![DomainType::Text]);
            p.assert(Lit::like(NullId(0), "Eve%"));
            p.assert(Lit::not_like(NullId(0), "Eve %"));
            black_box(cqi_solver::solve(black_box(&p)))
        });
    });
}

fn bench_dpll_clauses(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpll_clauses");
    for n in [2usize, 6, 10] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            // n clauses (x_i = 1 ∨ x_i = 2) plus pairwise-adjacent
            // disequalities.
            let mut p = Problem::new(vec![DomainType::Int; n]);
            for i in 0..n {
                p.assert_clause(vec![
                    Lit::cmp(NullId(i as u32), SolverOp::Eq, cqi_schema::Value::Int(1)),
                    Lit::cmp(NullId(i as u32), SolverOp::Eq, cqi_schema::Value::Int(2)),
                ]);
            }
            for i in 1..n {
                p.assert(Lit::cmp(
                    NullId(i as u32 - 1),
                    SolverOp::Ne,
                    NullId(i as u32),
                ));
            }
            b.iter(|| black_box(cqi_solver::solve(black_box(&p))));
        });
    }
    g.finish();
}

/// Builds the paper's I0 (Fig. 4) and times `IsConsistent` with keys.
fn bench_i0_consistency(c: &mut Criterion) {
    let s = beers_schema();
    let serves = s.rel_id("Serves").unwrap();
    let likes = s.rel_id("Likes").unwrap();
    let mut inst = CInstance::new(s.clone());
    let (bd, ed, pd) = (
        s.attr_domain(serves, 0),
        s.attr_domain(serves, 1),
        s.attr_domain(serves, 2),
    );
    let dd = s.attr_domain(likes, 0);
    let d1 = inst.fresh_null("d1", dd);
    let b1 = inst.fresh_null("b1", ed);
    let xs: Vec<_> = (0..3).map(|i| inst.fresh_null(format!("x{i}"), bd)).collect();
    let ps: Vec<_> = (0..3).map(|i| inst.fresh_null(format!("p{i}"), pd)).collect();
    for (x, p) in xs.iter().zip(&ps) {
        inst.add_tuple(serves, vec![(*x).into(), b1.into(), (*p).into()]);
    }
    inst.add_tuple(likes, vec![d1.into(), b1.into()]);
    inst.add_cond(Cond::Lit(Lit::like(d1, "Eve %")));
    inst.add_cond(Cond::Lit(Lit::cmp(ps[0], SolverOp::Gt, ps[1])));
    inst.add_cond(Cond::Lit(Lit::cmp(ps[1], SolverOp::Gt, ps[2])));
    c.bench_function("is_consistent_I0_with_keys", |b| {
        b.iter(|| black_box(is_consistent(black_box(&inst), true)));
    });
}

criterion_group!(
    benches,
    bench_order_chains,
    bench_int_tightening,
    bench_like_sets,
    bench_dpll_clauses,
    bench_i0_consistency
);
criterion_main!(benches);
