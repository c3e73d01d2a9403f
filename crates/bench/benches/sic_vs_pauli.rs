//! Ablation B: eigenstate (6^K preparations) vs SIC (4^K preparations)
//! downstream schemes — the trade-off the paper discusses in §II-B
//! ("the SICC basis … can be used to achieve O(4^K) circuit evaluations
//! … However, [it] would require more involved implementation, namely,
//! solving linear systems").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcut_circuit::ansatz::GoldenAnsatz;
use qcut_core::basis::BasisPlan;
use qcut_core::fragment::Fragmenter;
use qcut_core::golden::GoldenPolicy;
use qcut_core::pipeline::{CutExecutor, ExecutionOptions, ReconstructionMethod};
use qcut_core::reconstruction::exact_downstream_tensor;
use qcut_core::sic::{exact_sic_downstream_tensor, SicFrame};
use qcut_device::ideal::IdealBackend;

fn bench_pipeline_method(c: &mut Criterion) {
    let mut group = c.benchmark_group("prep_scheme_pipeline");
    group.sample_size(20);
    let (circuit, cut) = GoldenAnsatz::new(5, 9).build();
    let backend = IdealBackend::new(17);
    let executor = CutExecutor::new(&backend);
    for (label, method) in [
        ("eigenstate_6preps", ReconstructionMethod::Eigenstate),
        ("sic_4preps", ReconstructionMethod::Sic),
    ] {
        let options = ExecutionOptions {
            shots_per_setting: 1000,
            method,
            ..Default::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                executor
                    .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_downstream_assembly(c: &mut Criterion) {
    // SIC assembly includes the linear-system-derived frame weights.
    let mut group = c.benchmark_group("downstream_assembly");
    for width in [5usize, 7] {
        let (circuit, spec) = GoldenAnsatz::new(width, 9).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        group.bench_with_input(BenchmarkId::new("eigenstate", width), &width, |b, _| {
            b.iter(|| exact_downstream_tensor(&frags.downstream, &plan))
        });
        group.bench_with_input(BenchmarkId::new("sic", width), &width, |b, _| {
            b.iter(|| exact_sic_downstream_tensor(&frags.downstream, &plan))
        });
    }
    group.finish();
}

fn bench_frame_solve(c: &mut Criterion) {
    c.bench_function("sic_frame_solve", |b| b.iter(SicFrame::new));
}

criterion_group!(
    benches,
    bench_pipeline_method,
    bench_downstream_assembly,
    bench_frame_solve
);
criterion_main!(benches);
