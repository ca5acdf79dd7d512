//! Operator micro-benchmarks (the DESIGN.md ablation on set-semantics
//! dedup cost): each physical operator at a fixed scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_algebra::{Condition, Selection};
use sj_eval::{kernel, ops};
use sj_storage::{Relation, Tuple};
use sj_workload::SplitMix64;
use std::time::Duration;

fn random_relation(n: usize, domain: i64, seed: u64) -> Relation {
    let mut rng = SplitMix64::new(seed);
    Relation::from_tuples(
        2,
        (0..n).map(|_| Tuple::from_ints(&[rng.range_i64(1, domain), rng.range_i64(1, domain)])),
    )
    .unwrap()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("operators");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for n in [1024usize, 8192] {
        let r = random_relation(n, n as i64 / 4, 1);
        let s = random_relation(n, n as i64 / 4, 2);
        group.bench_with_input(BenchmarkId::new("equi_join", n), &(&r, &s), |b, (r, s)| {
            b.iter(|| kernel::join(r, s, &Condition::eq(2, 1), 1))
        });
        group.bench_with_input(BenchmarkId::new("semijoin", n), &(&r, &s), |b, (r, s)| {
            b.iter(|| kernel::semijoin(r, s, &Condition::eq(2, 1), 1))
        });
        group.bench_with_input(BenchmarkId::new("union", n), &(&r, &s), |b, (r, s)| {
            b.iter(|| r.union(s).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("difference", n), &(&r, &s), |b, (r, s)| {
            b.iter(|| r.difference(s).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("project_dedup", n), &r, |b, r| {
            b.iter(|| ops::project(r, &[2]))
        });
        group.bench_with_input(BenchmarkId::new("select_lt", n), &r, |b, r| {
            b.iter(|| ops::select(r, &Selection::Lt(1, 2)))
        });
        group.bench_with_input(BenchmarkId::new("group_count", n), &r, |b, r| {
            b.iter(|| ops::group_count(r, &[1]))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
