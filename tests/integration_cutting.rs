//! Cross-crate integration tests: the full pipeline against ground truth
//! on ideal and noisy backends, across circuit widths and policies.

use qcut::prelude::*;

fn truth_of(circuit: &Circuit) -> Distribution {
    Distribution::from_values(
        circuit.num_qubits(),
        StateVector::from_circuit(circuit).probabilities(),
    )
}

#[test]
fn pipeline_matches_truth_on_ideal_backend_both_widths() {
    for width in [5usize, 7] {
        let (circuit, cut) = GoldenAnsatz::new(width, 31).build();
        let truth = truth_of(&circuit);
        let backend = IdealBackend::new(3);
        let executor = CutExecutor::new(&backend);
        let options = ExecutionOptions {
            shots_per_setting: 20_000,
            ..Default::default()
        };
        for policy in [
            GoldenPolicy::Disabled,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            GoldenPolicy::detect_exact(),
        ] {
            let run = executor
                .run(&circuit, &cut, policy.clone(), &options)
                .unwrap();
            let d = total_variation_distance(&run.distribution, &truth);
            assert!(
                d < 0.06,
                "width {width}, policy {policy:?}: TVD {d} too large"
            );
        }
    }
}

#[test]
fn golden_and_standard_agree_with_each_other() {
    let (circuit, cut) = GoldenAnsatz::new(5, 77).build();
    let backend = IdealBackend::new(8);
    let executor = CutExecutor::new(&backend);
    let options = ExecutionOptions {
        shots_per_setting: 30_000,
        ..Default::default()
    };
    let standard = executor
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    let golden = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            &options,
        )
        .unwrap();
    let d = total_variation_distance(&standard.distribution, &golden.distribution);
    assert!(d < 0.05, "methods disagree by {d}");
    assert!(golden.report.total_shots < standard.report.total_shots);
}

#[test]
fn pipeline_works_on_noisy_device() {
    let (circuit, cut) = GoldenAnsatz::new(5, 13).build();
    let truth = truth_of(&circuit);
    let backend = presets::ibm_5q(4);
    let executor = CutExecutor::new(&backend);
    let options = ExecutionOptions {
        shots_per_setting: 10_000,
        ..Default::default()
    };
    let run = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            &options,
        )
        .unwrap();
    // Noisy: not exact, but in the right neighbourhood.
    let d = total_variation_distance(&run.distribution, &truth);
    assert!(d < 0.35, "noisy reconstruction unreasonably far: {d}");
    // Distribution must be a proper distribution after clipping.
    assert!(run.distribution.is_proper(1e-9));
}

#[test]
fn cutting_lets_small_devices_run_big_circuits() {
    // The motivating use case: a 5-qubit circuit on a 3-qubit device.
    let (circuit, cut) = GoldenAnsatz::new(5, 17).build();
    let small_device = IdealBackend::new(5).with_capacity(3);
    let executor = CutExecutor::new(&small_device);

    // Uncut: impossible.
    assert!(executor.run_uncut(&circuit, 1000).is_err());

    // Cut: both 3-qubit fragments fit.
    let run = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &ExecutionOptions {
                shots_per_setting: 20_000,
                ..Default::default()
            },
        )
        .unwrap();
    let d = total_variation_distance(&run.distribution, &truth_of(&circuit));
    assert!(d < 0.06, "cut run on small device off by {d}");
}

#[test]
fn seven_qubit_circuit_on_four_qubit_device() {
    let (circuit, cut) = GoldenAnsatz::new(7, 23).build();
    let small_device = IdealBackend::new(6).with_capacity(4);
    let executor = CutExecutor::new(&small_device);
    assert!(executor.run_uncut(&circuit, 100).is_err());
    let run = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            &ExecutionOptions {
                shots_per_setting: 20_000,
                ..Default::default()
            },
        )
        .unwrap();
    let d = total_variation_distance(&run.distribution, &truth_of(&circuit));
    assert!(d < 0.08, "7q on 4q device off by {d}");
}

#[test]
fn postprocessing_variants_stay_close() {
    use qcut::cutting::pipeline::PostProcess;
    let (circuit, cut) = GoldenAnsatz::new(5, 41).build();
    let truth = truth_of(&circuit);
    let backend = IdealBackend::new(12);
    let executor = CutExecutor::new(&backend);
    for post in [
        PostProcess::Raw,
        PostProcess::ClipRenormalize,
        PostProcess::SimplexProjection,
    ] {
        let run = executor
            .run(
                &circuit,
                &cut,
                GoldenPolicy::Disabled,
                &ExecutionOptions {
                    shots_per_setting: 20_000,
                    postprocess: post,
                    ..Default::default()
                },
            )
            .unwrap();
        let d = total_variation_distance(&run.distribution.clip_renormalize(), &truth);
        assert!(d < 0.06, "postprocess {post:?} off by {d}");
    }
}

#[test]
fn report_accounting_is_consistent() {
    let (circuit, cut) = GoldenAnsatz::new(5, 53).build();
    let backend = presets::ibm_5q(9);
    let executor = CutExecutor::new(&backend);
    let options = ExecutionOptions {
        shots_per_setting: 1000,
        ..Default::default()
    };
    let run = executor
        .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
        .unwrap();
    let r = &run.report;
    assert_eq!(
        r.subcircuits_executed,
        r.upstream_settings + r.downstream_settings
    );
    assert_eq!(r.total_shots, r.subcircuits_executed as u64 * 1000);
    // Device time ≈ subcircuits × (job overhead + shot time).
    let per_job = r.simulated_device_seconds / r.subcircuits_executed as f64;
    assert!(per_job > 1.85 && per_job < 2.6, "per-job time {per_job}");
}

/// Two-cut reconstructions are reproducible: the same pipeline on equally
/// seeded backends gives bit-identical distributions. (A `b1` of the
/// upstream tensor sums up to `2^K` signed terms, so the summation order
/// must not depend on a hash map's per-instance iteration order.)
#[test]
fn multi_cut_runs_are_bit_reproducible() {
    use qcut::circuit::ansatz::MultiCutAnsatz;
    let (circuit, cut) = MultiCutAnsatz::new(2, 5).build();
    let run = || {
        let backend = IdealBackend::new(7);
        let values = CutExecutor::new(&backend)
            .run(
                &circuit,
                &cut,
                GoldenPolicy::Disabled,
                &ExecutionOptions::default(),
            )
            .unwrap()
            .distribution
            .values()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>();
        values
    };
    let first = run();
    for attempt in 1..5 {
        assert_eq!(run(), first, "run {attempt} differs from run 0");
    }
}
