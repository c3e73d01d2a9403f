//! JobGraph dedup ablation: gather throughput with structural dedup on vs
//! off on a repeated-subcircuit workload.
//!
//! The workload models the case the engine is built for: many consumers
//! (reconstruction terms / tomography settings) requesting the same few
//! unique subcircuits. With dedup on, each unique circuit is simulated
//! once and fanned out; with dedup off, every planned job hits the
//! backend, which is how the pre-engine execution layer behaved.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcut_circuit::ansatz::GoldenAnsatz;
use qcut_circuit::circuit::Circuit;
use qcut_core::basis::BasisPlan;
use qcut_core::fragment::Fragmenter;
use qcut_core::jobgraph::{Channel, JobGraph};
use qcut_core::retry::RetryPolicy;
use qcut_core::tomography::build_upstream_circuit;
use qcut_device::ideal::IdealBackend;

/// The repeated-subcircuit ansatz: the golden ansatz's upstream variants
/// (3 unique circuits), each requested by `fan_out` distinct consumers —
/// the shape a multi-term reconstruction or a cross-run batch produces.
fn repeated_workload(fan_out: usize) -> Vec<(Circuit, u64)> {
    let (circuit, cut) = GoldenAnsatz::new(7, 5).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let plan = BasisPlan::standard(1);
    let mut jobs = Vec::new();
    for (i, setting) in plan.all_meas_settings().iter().enumerate() {
        let variant = build_upstream_circuit(&frags.upstream, setting);
        for rep in 0..fan_out {
            jobs.push((variant.clone(), (rep * 3 + i) as u64));
        }
    }
    jobs
}

fn bench_dedup_vs_not(c: &mut Criterion) {
    let mut group = c.benchmark_group("jobgraph_gather");
    group.sample_size(20);
    for fan_out in [4usize, 16] {
        let jobs = repeated_workload(fan_out);
        for (label, dedup) in [("dedup_on", true), ("dedup_off", false)] {
            group.bench_with_input(BenchmarkId::new(label, fan_out), &fan_out, |b, _| {
                b.iter(|| {
                    let mut graph = if dedup {
                        JobGraph::new()
                    } else {
                        JobGraph::without_dedup()
                    };
                    for (circuit, key) in &jobs {
                        graph.add_job(circuit.clone(), (Channel::UpstreamMeas, *key), 1000);
                    }
                    let backend = IdealBackend::new(3);
                    graph.execute(&backend, &RetryPolicy::default()).unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dedup_vs_not);
criterion_main!(benches);
