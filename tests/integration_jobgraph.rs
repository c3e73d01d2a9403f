//! JobGraph engine integration tests: batched-vs-sequential bit-identical
//! equivalence across all three execution paths, dedup accounting on
//! dedup-bearing workloads, and detection-data reuse.

#[path = "support/sequential.rs"]
mod sequential;

use qcut::cutting::basis::BasisPlan;
use qcut::cutting::golden::OnlineConfig;
use qcut::cutting::jobgraph::{Channel, JobGraph};
use qcut::cutting::pipeline::{CutRun, PostProcess};
use qcut::device::backend::{BackendError, BatchRun, ExecutionResult, JobResult, JobSpec};
use qcut::device::timing::TimingModel;
use qcut::prelude::*;
use sequential::Sequential;
use std::sync::atomic::{AtomicUsize, Ordering};

fn options(shots: u64) -> ExecutionOptions {
    ExecutionOptions {
        shots_per_setting: shots,
        ..Default::default()
    }
}

/// Runs the same request on `backend` and on the sequential reference of
/// an equally-seeded twin: `(batched, sequential)`.
fn batched_and_sequential<B: Backend>(
    backend: impl Fn() -> B,
    circuit: &Circuit,
    cut: &CutSpec,
    policy: GoldenPolicy,
    options: &ExecutionOptions,
) -> (CutRun, CutRun) {
    let batched = CutExecutor::new(&backend())
        .run(circuit, cut, policy.clone(), options)
        .unwrap();
    let sequential = CutExecutor::new(&Sequential(backend()))
        .run(circuit, cut, policy, options)
        .unwrap();
    (batched, sequential)
}

/// A 3-qubit circuit whose cut is *not* golden (RX gives the cut qubit a Y
/// component, the trailing RZ mixes it into X — same family as the golden
/// detector's negative-control tests).
fn non_golden() -> (Circuit, CutSpec) {
    let mut c = Circuit::new(3);
    c.rx(1.1, 0).rx(0.9, 1).cx(0, 1).rz(0.8, 1).cx(1, 2);
    (c, CutSpec::single(1, 2))
}

#[test]
fn batched_and_sequential_eigenstate_runs_are_bit_identical() {
    let (circuit, cut) = GoldenAnsatz::new(5, 17).build();
    let (par, seq) = batched_and_sequential(
        || IdealBackend::new(99),
        &circuit,
        &cut,
        GoldenPolicy::Disabled,
        &options(3000),
    );
    assert_eq!(par.distribution.values(), seq.distribution.values());
    assert_eq!(par.report.total_shots, seq.report.total_shots);
    assert_eq!(par.report.jobs_executed, seq.report.jobs_executed);
}

#[test]
fn batched_and_sequential_sic_runs_are_bit_identical() {
    let (circuit, cut) = GoldenAnsatz::new(5, 23).build();
    let (par, seq) = batched_and_sequential(
        || IdealBackend::new(7),
        &circuit,
        &cut,
        GoldenPolicy::Disabled,
        &ExecutionOptions {
            method: ReconstructionMethod::Sic,
            ..options(3000)
        },
    );
    assert_eq!(par.distribution.values(), seq.distribution.values());
    // SIC plans 3 upstream + 4 SIC jobs, no eigenstate downstream ones.
    assert_eq!(par.report.jobs_planned, 7);
}

#[test]
fn batched_and_sequential_online_detection_runs_are_bit_identical() {
    let (circuit, cut) = GoldenAnsatz::new(5, 4).build();
    let config = OnlineConfig {
        epsilon: 0.08,
        batch_shots: 3000,
        ..OnlineConfig::default()
    };
    let (par, seq) = batched_and_sequential(
        || IdealBackend::new(6),
        &circuit,
        &cut,
        GoldenPolicy::DetectOnline(config),
        &options(3000),
    );
    assert_eq!(par.distribution.values(), seq.distribution.values());
    assert_eq!(par.report.detection_shots, seq.report.detection_shots);
}

#[test]
fn batched_and_sequential_runs_match_on_noisy_backend() {
    let (circuit, cut) = GoldenAnsatz::new(5, 11).build();
    let (par, seq) = batched_and_sequential(
        || presets::ibm_5q(13),
        &circuit,
        &cut,
        GoldenPolicy::Disabled,
        &ExecutionOptions {
            postprocess: PostProcess::Raw,
            ..options(800)
        },
    );
    assert_eq!(par.distribution.values(), seq.distribution.values());
}

#[test]
fn online_detection_data_is_reused_by_the_gather() {
    // Non-golden circuit: detection concludes NotGolden, so the Y setting
    // it measured stays in the gather plan and its shots are reused — a
    // dedup-bearing workload end to end.
    let (circuit, cut) = non_golden();
    let config = OnlineConfig {
        epsilon: 0.05,
        batch_shots: 2000,
        ..OnlineConfig::default()
    };
    let backend = IdealBackend::new(5);
    let run = CutExecutor::new(&backend)
        .run(
            &circuit,
            &cut,
            GoldenPolicy::DetectOnline(config),
            &options(4000),
        )
        .unwrap();
    let r = &run.report;
    assert!(r.neglected[0].is_empty(), "cut wrongly judged golden");
    assert!(r.detection_shots > 0);
    assert!(r.shots_saved > 0, "detection data was not reused: {r:?}");
    assert!(r.jobs_executed <= r.jobs_planned);
    // The reused Y-setting node needs fewer (possibly zero) fresh shots.
    assert!(
        r.jobs_executed < r.jobs_planned || r.shots_saved >= 2000,
        "expected at least one detection batch to offset the gather"
    );
    // Reusing data must not hurt the reconstruction.
    let truth = Distribution::from_values(3, StateVector::from_circuit(&circuit).probabilities());
    let d = total_variation_distance(&run.distribution, &truth);
    assert!(d < 0.06, "reconstruction off by {d}");
}

#[test]
fn repeated_subcircuit_workload_dedups_across_consumers() {
    // The engine-level picture of a repeated-subcircuit ansatz: many
    // reconstruction terms consuming the same few unique circuits.
    let mut unique = Vec::new();
    for i in 0..3u64 {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(0.1 + i as f64, 2);
        unique.push(c);
    }
    let mut g = JobGraph::new();
    for term in 0..12u64 {
        g.add_job(
            unique[(term % 3) as usize].clone(),
            (Channel::DownstreamPrep, term),
            1000,
        );
    }
    assert_eq!(g.jobs_planned(), 12);
    assert_eq!(g.num_nodes(), 3);
    let run = g
        .execute(&IdealBackend::new(1), &RetryPolicy::default())
        .unwrap();
    assert_eq!(run.stats.jobs_executed, 3);
    assert_eq!(run.stats.shots_executed, 3000);
    assert_eq!(run.stats.shots_saved, 9000);
    // Every consumer of the same node sees the identical histogram.
    let a = run.counts(&(Channel::DownstreamPrep, 0)).unwrap();
    let b = run.counts(&(Channel::DownstreamPrep, 3)).unwrap();
    assert_eq!(a, b);
}

#[test]
fn uncut_runs_flow_through_the_engine_unchanged() {
    let (circuit, _) = GoldenAnsatz::new(5, 7).build();
    // Engine-routed uncut run consumes the same seed stream as a direct
    // backend run, so the counts are identical.
    let direct = IdealBackend::new(41).run(&circuit, 5000).unwrap();
    let backend = IdealBackend::new(41);
    let run = CutExecutor::new(&backend)
        .run_uncut(&circuit, 5000)
        .unwrap();
    assert_eq!(
        run.distribution.values(),
        direct.counts.to_distribution().values()
    );
    assert_eq!(run.report.shots, 5000);
}

#[test]
fn run_report_dedup_fields_are_consistent_across_policies() {
    let (circuit, cut) = GoldenAnsatz::new(5, 2).build();
    let backend = IdealBackend::new(3);
    let executor = CutExecutor::new(&backend);
    for policy in [
        GoldenPolicy::Disabled,
        GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
        GoldenPolicy::detect_exact(),
    ] {
        let run = executor
            .run(&circuit, &cut, policy, &options(1000))
            .unwrap();
        let r = &run.report;
        assert!(r.jobs_executed <= r.jobs_planned, "{r:?}");
        // Dup-free static plans: every planned job executes.
        assert_eq!(r.jobs_executed, r.jobs_planned);
        assert_eq!(r.shots_saved, 0);
        assert_eq!(r.jobs_planned, r.subcircuits_executed);
        assert!(r.dedup_ratio().abs() < f64::EPSILON);
    }
}

/// Counts the jobs a backend is handed, delegating everything else.
struct Counting<B> {
    inner: B,
    jobs: AtomicUsize,
}

impl<B: Backend> Counting<B> {
    fn new(inner: B) -> Self {
        Counting {
            inner,
            jobs: AtomicUsize::new(0),
        }
    }

    fn jobs(&self) -> usize {
        self.jobs.load(Ordering::Relaxed)
    }
}

impl<B: Backend> Backend for Counting<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }

    fn timing(&self) -> &TimingModel {
        self.inner.timing()
    }

    fn run(&self, circuit: &Circuit, shots: u64) -> Result<ExecutionResult, BackendError> {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.inner.run(circuit, shots)
    }

    fn run_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<JobResult> {
        self.run_batch_stats(jobs).results
    }

    fn run_batch_stats(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        self.jobs.fetch_add(jobs.len(), Ordering::Relaxed);
        self.inner.run_batch_stats(jobs)
    }

    fn cache_fingerprint(&self) -> u64 {
        self.inner.cache_fingerprint()
    }

    fn deterministic_seeding(&self) -> bool {
        self.inner.deterministic_seeding()
    }
}

fn bits(d: &Distribution) -> Vec<u64> {
    d.values().iter().map(|v| v.to_bits()).collect()
}

/// A plain `execution::gather` plans the same graph, in the same job
/// order, as the pipeline: on equally seeded backends, contracting its data
/// is bit-identical to `CutExecutor::run` and both execute the same jobs —
/// for both preparation schemes, one and two cuts, and the standard and
/// all-Y-golden plans.
#[test]
fn plain_gather_is_bit_identical_to_the_pipeline() {
    use qcut::circuit::ansatz::MultiCutAnsatz;
    use qcut::cutting::execution::gather;
    use qcut::cutting::reconstruction::{contract, upstream_tensor};

    for k in 1..=2usize {
        let (circuit, cut) = if k == 1 {
            GoldenAnsatz::new(5, 21).build()
        } else {
            MultiCutAnsatz::new(2, 5).build()
        };
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        for golden in [false, true] {
            let (plan, policy) = if golden {
                (
                    BasisPlan::with_neglected(vec![Some(Pauli::Y); k]),
                    GoldenPolicy::KnownAPriori((0..k).map(|c| (c, Pauli::Y)).collect()),
                )
            } else {
                (BasisPlan::standard(k), GoldenPolicy::Disabled)
            };
            for method in [ReconstructionMethod::Eigenstate, ReconstructionMethod::Sic] {
                let case = format!("K={k} golden={golden} {method:?}");
                let options = ExecutionOptions {
                    shots_per_setting: 1000,
                    method,
                    postprocess: PostProcess::Raw,
                    ..Default::default()
                };
                let schedule = method
                    .schedule(&plan, options.resolved_allocation())
                    .unwrap();
                let plain = Counting::new(IdealBackend::new(17));
                let data = gather(
                    &plain,
                    &frags,
                    &plan,
                    method,
                    &schedule,
                    &RetryPolicy::default(),
                )
                .unwrap();
                let up = upstream_tensor(&frags.upstream, &plan, &data);
                let down = method.downstream_tensor(&frags.downstream, &plan, &data);
                let direct = contract(&frags, &plan, &up, &down);

                let piped = Counting::new(IdealBackend::new(17));
                let run = CutExecutor::new(&piped)
                    .run(&circuit, &cut, policy.clone(), &options)
                    .unwrap();
                assert_eq!(bits(&direct), bits(&run.distribution), "{case}");
                assert_eq!(plain.jobs(), piped.jobs(), "{case}");
                assert_eq!(run.report.jobs_executed, piped.jobs(), "{case}");
            }
        }
    }
}
