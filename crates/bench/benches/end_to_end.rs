//! End-to-end pipeline benchmark: the Fig. 4 comparison as a criterion
//! measurement (gather + reconstruct, golden vs standard vs uncut).
//!
//! For the per-subcircuit simulation ablation (no shared prefixes),
//! construct the backend with `IdealBackend::with_prefix_sharing(false)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcut_circuit::ansatz::GoldenAnsatz;
use qcut_core::golden::GoldenPolicy;
use qcut_core::pipeline::{CutExecutor, ExecutionOptions};
use qcut_device::ideal::IdealBackend;
use qcut_math::Pauli;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    for width in [5usize, 7] {
        let (circuit, cut) = GoldenAnsatz::new(width, 3).build();
        let backend = IdealBackend::new(11);
        let executor = CutExecutor::new(&backend);
        let options = ExecutionOptions {
            shots_per_setting: 1000,
            ..Default::default()
        };

        group.bench_with_input(BenchmarkId::new("uncut", width), &width, |b, _| {
            b.iter(|| executor.run_uncut(&circuit, 1000).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("standard_cut", width), &width, |b, _| {
            b.iter(|| {
                executor
                    .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("golden_cut", width), &width, |b, _| {
            b.iter(|| {
                executor
                    .run(
                        &circuit,
                        &cut,
                        GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
                        &options,
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
