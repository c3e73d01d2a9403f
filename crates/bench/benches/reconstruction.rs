//! Benchmarks of the classical reconstruction path: tensor assembly and
//! contraction — the cost the golden method reduces from `4^K` to `3^K`
//! terms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcut_circuit::ansatz::GoldenAnsatz;
use qcut_core::allocation::{schedule_for_plan, ShotAllocation};
use qcut_core::basis::BasisPlan;
use qcut_core::execution::{gather, FragmentData};
use qcut_core::fragment::{Fragmenter, Fragments};
use qcut_core::pipeline::ReconstructionMethod;
use qcut_core::reconstruction::{
    contract, downstream_tensor, exact_downstream_tensor, exact_upstream_tensor, upstream_tensor,
};
use qcut_core::retry::RetryPolicy;
use qcut_device::ideal::IdealBackend;
use qcut_math::Pauli;

fn setup(width: usize, golden: bool) -> (Fragments, BasisPlan, FragmentData) {
    let (circuit, spec) = GoldenAnsatz::new(width, 7).build();
    let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
    let plan = if golden {
        BasisPlan::with_neglected(vec![Some(Pauli::Y)])
    } else {
        BasisPlan::standard(1)
    };
    let schedule = schedule_for_plan(
        &plan,
        ShotAllocation::Uniform {
            shots_per_setting: 1000,
        },
    )
    .unwrap();
    let backend = IdealBackend::new(1);
    let data = gather(
        &backend,
        &frags,
        &plan,
        ReconstructionMethod::Eigenstate,
        &schedule,
        &RetryPolicy::default(),
    )
    .unwrap();
    (frags, plan, data)
}

fn bench_tensor_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor_assembly");
    for width in [5usize, 7] {
        let (frags, plan, data) = setup(width, false);
        group.bench_with_input(
            BenchmarkId::new("upstream_from_counts", width),
            &width,
            |b, _| b.iter(|| upstream_tensor(&frags.upstream, &plan, &data)),
        );
        group.bench_with_input(
            BenchmarkId::new("downstream_from_counts", width),
            &width,
            |b, _| b.iter(|| downstream_tensor(&frags.downstream, &plan, &data)),
        );
    }
    group.finish();
}

fn bench_contract_standard_vs_golden(c: &mut Criterion) {
    let mut group = c.benchmark_group("contract");
    for (label, golden) in [("standard_4_terms", false), ("golden_3_terms", true)] {
        for width in [5usize, 7] {
            let (frags, plan, _) = setup(width, golden);
            let up = exact_upstream_tensor(&frags.upstream, &plan);
            let down = exact_downstream_tensor(&frags.downstream, &plan);
            group.bench_with_input(BenchmarkId::new(label, width), &width, |b, _| {
                b.iter(|| contract(&frags, &plan, &up, &down))
            });
        }
    }
    group.finish();
}

fn bench_full_classical_path(c: &mut Criterion) {
    // Tensor assembly + contraction together — the "reconstructing
    // measurement statistics from fragments" cost of the paper's abstract.
    let mut group = c.benchmark_group("classical_reconstruction");
    for (label, golden) in [("standard", false), ("golden", true)] {
        let (frags, plan, data) = setup(5, golden);
        group.bench_function(label, |b| {
            b.iter(|| {
                let up = upstream_tensor(&frags.upstream, &plan, &data);
                let down = downstream_tensor(&frags.downstream, &plan, &data);
                contract(&frags, &plan, &up, &down)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tensor_assembly,
    bench_contract_standard_vs_golden,
    bench_full_classical_path
);
criterion_main!(benches);
