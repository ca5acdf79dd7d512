//! Columnar vs row-wise signature set join across scales. The outputs
//! are byte-identical (`sj_setjoin::columnar`'s unit tests prove it);
//! this harness measures what the columnar element slices buy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_setjoin::{signature_set_join, signature_set_join_rowwise, SetPredicate};
use sj_workload::{ElementDist, SetJoinWorkload, SetSizeDist};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("vectorized_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for groups in [256usize, 512] {
        // Overlap-heavy sets: most signature filters pass, so the exact
        // verification merges dominate — the case the columnar element
        // slices accelerate.
        let (r, s) = SetJoinWorkload {
            r_groups: groups,
            s_groups: groups,
            set_size: SetSizeDist::Uniform(32, 128),
            domain: 128,
            elements: ElementDist::Zipf(0.8),
            seed: 0x5E7C01,
        }
        .generate();
        // Column caches built up front: the comparison measures the
        // joins, not the one-time column materialization.
        let _ = (r.columns(), s.columns());
        group.bench_with_input(
            BenchmarkId::new("signature_setjoin/row", groups),
            &(&r, &s),
            |b, (r, s)| b.iter(|| signature_set_join_rowwise(r, s, SetPredicate::Contains)),
        );
        group.bench_with_input(
            BenchmarkId::new("signature_setjoin/columnar", groups),
            &(&r, &s),
            |b, (r, s)| b.iter(|| signature_set_join(r, s, SetPredicate::Contains)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
