//! JobGraph dedup: gather throughput when many consumers request the
//! same few circuits vs the same job count over distinct circuits.
//!
//! The `repeated` workload models the case the engine is built for: many
//! consumers (reconstruction terms / tomography settings) requesting the
//! same few unique subcircuits, each simulated once and fanned out. The
//! `distinct` workload registers as many jobs over structurally distinct
//! circuits (the repetition index folded into an `rz` angle), so nothing
//! merges and every job hits the backend — what merging saves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcut_circuit::ansatz::GoldenAnsatz;
use qcut_circuit::circuit::Circuit;
use qcut_core::basis::BasisPlan;
use qcut_core::fragment::Fragmenter;
use qcut_core::jobgraph::{Channel, JobGraph};
use qcut_core::retry::RetryPolicy;
use qcut_core::tomography::build_upstream_circuit;
use qcut_device::ideal::IdealBackend;

/// The golden ansatz's upstream variants (3 unique circuits), each
/// requested by `fan_out` distinct consumers — the shape a multi-term
/// reconstruction or a cross-run batch produces. With `distinct`, every
/// repetition gets its own `rz` angle, so all `3 · fan_out` jobs are
/// structurally distinct.
fn workload(fan_out: usize, distinct: bool) -> Vec<(Circuit, u64)> {
    let (circuit, cut) = GoldenAnsatz::new(7, 5).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let plan = BasisPlan::standard(1);
    let mut jobs = Vec::new();
    for (i, setting) in plan.all_meas_settings().iter().enumerate() {
        let variant = build_upstream_circuit(&frags.upstream, setting);
        for rep in 0..fan_out {
            let mut job = variant.clone();
            if distinct {
                job.rz(0.01 * (rep + 1) as f64, 0);
            }
            jobs.push((job, (rep * 3 + i) as u64));
        }
    }
    jobs
}

fn bench_repeated_vs_distinct(c: &mut Criterion) {
    let mut group = c.benchmark_group("jobgraph_gather");
    group.sample_size(20);
    for fan_out in [4usize, 16] {
        for (label, distinct) in [("repeated", false), ("distinct", true)] {
            let jobs = workload(fan_out, distinct);
            group.bench_with_input(BenchmarkId::new(label, fan_out), &fan_out, |b, _| {
                b.iter(|| {
                    let mut graph = JobGraph::new();
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

criterion_group!(benches, bench_repeated_vs_distinct);
criterion_main!(benches);
