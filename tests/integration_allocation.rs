//! Integration tests of shot allocation and observable measurement —
//! the repository's extensions beyond the paper's §III protocol.
//!
//! The allocation half pins the ISSUE 4 contract: every policy schedules
//! exactly its requested total (property-tested over plan shapes), the
//! uniform policy through the engine path is bit-identical to the
//! default protocol, weighted budgets compose with dedup under exact
//! `shots_saved` accounting, and usage-weighted budgets beat uniform on
//! estimated variance at equal total cost.

use proptest::prelude::*;
use qcut::circuit::ansatz::MultiCutAnsatz;
use qcut::cutting::allocation::{schedule_for_plan, schedule_sic, AllocationError, ShotSchedule};
use qcut::cutting::basis::BasisPlan;
use qcut::cutting::error::PipelineError;
use qcut::cutting::execution::{gather, FragmentData};
use qcut::cutting::fragment::Fragments;
use qcut::cutting::golden::OnlineConfig;
use qcut::cutting::observable::{pauli_expectation, DiagonalObservable};
use qcut::cutting::reconstruction::{exact_downstream_tensor, exact_upstream_tensor, reconstruct};
use qcut::cutting::variance::variance_from_schedule;
use qcut::prelude::*;

/// An eigenstate gather of `basis` under `sched` on `backend`.
fn eigen_gather(
    backend: &IdealBackend,
    frags: &Fragments,
    basis: &BasisPlan,
    sched: &ShotSchedule,
) -> FragmentData {
    gather(
        backend,
        frags,
        basis,
        ReconstructionMethod::Eigenstate,
        sched,
        &RetryPolicy::default(),
    )
    .unwrap()
}

#[test]
fn weighted_allocation_reconstructs_correctly() {
    let (circuit, cut) = GoldenAnsatz::new(5, 101).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let basis = BasisPlan::standard(1);
    let backend = IdealBackend::new(41);

    let sched =
        schedule_for_plan(&basis, ShotAllocation::WeightedByUsage { total: 120_000 }).unwrap();
    assert!(sched.min_shots() > 0);
    assert_eq!(sched.total(), 120_000);
    let data = eigen_gather(&backend, &frags, &basis, &sched);
    assert_eq!(data.total_shots, sched.total());

    let recon = reconstruct(&frags, &basis, &data).clip_renormalize();
    let truth = Distribution::from_values(5, StateVector::from_circuit(&circuit).probabilities());
    let d = total_variation_distance(&recon, &truth);
    assert!(d < 0.05, "weighted-allocation reconstruction off by {d}");
}

#[test]
fn equal_budget_uniform_vs_weighted_accuracy() {
    // Same total budget, two allocations; both must land near the truth
    // (the weighted scheme is a variance refinement, not a correctness
    // change).
    let (circuit, cut) = GoldenAnsatz::new(5, 103).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let basis = BasisPlan::standard(1);
    let truth = Distribution::from_values(5, StateVector::from_circuit(&circuit).probabilities());
    let total = 90_000;
    for alloc in [
        ShotAllocation::TotalBudget { total },
        ShotAllocation::WeightedByUsage { total },
    ] {
        let backend = IdealBackend::new(43);
        let sched = schedule_for_plan(&basis, alloc).unwrap();
        assert_eq!(sched.total(), total, "{alloc:?} must spend exactly");
        let data = eigen_gather(&backend, &frags, &basis, &sched);
        let recon = reconstruct(&frags, &basis, &data).clip_renormalize();
        let d = total_variation_distance(&recon, &truth);
        assert!(d < 0.05, "{alloc:?}: off by {d}");
    }
}

/// ISSUE 4 acceptance (a): the Uniform policy routed through the
/// allocation-aware engine path is bit-identical to the historical
/// default protocol — same distribution values, same accounting.
#[test]
fn uniform_allocation_is_bit_identical_to_default_path() {
    let (circuit, cut) = GoldenAnsatz::new(5, 211).build();
    let shots = 2000u64;
    let run_with = |options: &ExecutionOptions| {
        let backend = IdealBackend::new(77);
        CutExecutor::new(&backend)
            .run(&circuit, &cut, GoldenPolicy::Disabled, options)
            .unwrap()
    };
    let default_path = run_with(&ExecutionOptions {
        shots_per_setting: shots,
        ..Default::default()
    });
    let explicit = run_with(&ExecutionOptions {
        allocation: Some(ShotAllocation::Uniform {
            shots_per_setting: shots,
        }),
        ..Default::default()
    });
    assert_eq!(
        default_path.distribution.values(),
        explicit.distribution.values(),
        "Uniform through the allocation path must be bit-identical"
    );
    assert_eq!(default_path.report.total_shots, explicit.report.total_shots);
    assert_eq!(
        default_path.report.shots_requested,
        explicit.report.shots_requested
    );
    assert_eq!(
        default_path.report.jobs_executed,
        explicit.report.jobs_executed
    );
}

/// ISSUE 4 acceptance (b): weighted budgets compose with engine dedup —
/// online-detection measurements seed the weighted gather (the circuit
/// is *not* golden, so the measured Y setting survives into the gather
/// plan and its shots are reused), with exact accounting.
#[test]
fn weighted_allocation_composes_with_dedup() {
    // Same non-golden family as the golden detector's negative controls:
    // RX gives the cut qubit a Y component, the trailing RZ mixes it
    // into X.
    let mut circuit = Circuit::new(3);
    circuit.rx(1.1, 0).rx(0.9, 1).cx(0, 1).rz(0.8, 1).cx(1, 2);
    let cut = CutSpec::single(1, 2);
    let backend = IdealBackend::new(91);
    let exec = CutExecutor::new(&backend);
    let total = 40_000u64;
    let config = OnlineConfig {
        epsilon: 0.05,
        batch_shots: 2000,
        ..OnlineConfig::default()
    };
    let run = exec
        .run(
            &circuit,
            &cut,
            GoldenPolicy::DetectOnline(config),
            &ExecutionOptions {
                allocation: Some(ShotAllocation::WeightedByUsage { total }),
                ..Default::default()
            },
        )
        .unwrap();
    let report = &run.report;
    assert!(report.neglected[0].is_empty(), "cut wrongly judged golden");
    assert!(report.detection_shots > 0);
    assert!(report.jobs_executed <= report.jobs_planned);

    // Exact accounting: every requested shot is either executed (in
    // detection or the gather) or saved — nothing lost, nothing counted
    // twice.
    assert_eq!(
        report.shots_requested,
        report.detection_shots
            + report.total_shots
            + report.shots_saved
            + report.cache_shots_reused
    );
    // The gather half of the request is exactly the weighted schedule of
    // the detected plan (detection rounds never dedup among themselves,
    // so their request equals their executed shots).
    let sched = schedule_for_plan(
        &BasisPlan::standard(1),
        ShotAllocation::WeightedByUsage { total },
    )
    .unwrap();
    assert_eq!(sched.total(), total);
    assert_eq!(report.shots_requested - report.detection_shots, total);
    // Detection data was actually reused: the gather executed fewer fresh
    // shots than the weighted schedule requested.
    assert!(report.shots_saved > 0, "detection reuse must save shots");
    assert_eq!(report.shots_saved, total - report.total_shots);

    // And the result is still correct.
    let truth = Distribution::from_values(3, StateVector::from_circuit(&circuit).probabilities());
    let d = total_variation_distance(&run.distribution, &truth);
    assert!(d < 0.06, "weighted+dedup reconstruction off by {d}");
}

/// ISSUE 4 acceptance (c): at equal total budget, usage-weighted
/// allocation yields a lower estimated reconstruction variance than the
/// uniform split on a `BasisPlan::standard(2)` workload (deterministic:
/// exact tensors + requested schedules).
#[test]
fn weighted_beats_uniform_variance_at_equal_budget() {
    let plan = BasisPlan::standard(2);
    for seed in [1u64, 5, 11] {
        let (circuit, spec) = MultiCutAnsatz::new(2, seed).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let up = exact_upstream_tensor(&frags.upstream, &plan);
        let down = exact_downstream_tensor(&frags.downstream, &plan);
        let total = 90_000u64;
        let uniform = schedule_for_plan(&plan, ShotAllocation::TotalBudget { total }).unwrap();
        let weighted = schedule_for_plan(&plan, ShotAllocation::WeightedByUsage { total }).unwrap();
        assert_eq!(uniform.total(), weighted.total());
        let rms_u = variance_from_schedule(&frags, &plan, &up, &down, &uniform).rms_error();
        let rms_w = variance_from_schedule(&frags, &plan, &up, &down, &weighted).rms_error();
        assert!(
            rms_w < rms_u,
            "seed {seed}: weighted RMS {rms_w} should beat uniform {rms_u}"
        );
    }
}

#[test]
fn every_policy_executes_through_the_pipeline() {
    // The acceptance bar: all three `ShotAllocation` variants drive
    // `CutExecutor::run` end-to-end, for both reconstruction methods.
    let (circuit, cut) = GoldenAnsatz::new(5, 227).build();
    let truth = Distribution::from_values(5, StateVector::from_circuit(&circuit).probabilities());
    for (policy, shots_hint) in [
        (
            ShotAllocation::Uniform {
                shots_per_setting: 20_000,
            },
            20_000,
        ),
        (ShotAllocation::TotalBudget { total: 180_000 }, 20_000),
        (ShotAllocation::WeightedByUsage { total: 180_000 }, 20_000),
    ] {
        for method in [ReconstructionMethod::Eigenstate, ReconstructionMethod::Sic] {
            let backend = IdealBackend::new(97);
            let exec = CutExecutor::new(&backend);
            let run = exec
                .run(
                    &circuit,
                    &cut,
                    GoldenPolicy::Disabled,
                    &ExecutionOptions {
                        shots_per_setting: shots_hint,
                        allocation: Some(policy),
                        method,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(run.report.allocation, policy);
            let d = total_variation_distance(&run.distribution, &truth);
            assert!(d < 0.08, "{policy:?}/{method:?}: off by {d}");
        }
    }
}

#[test]
fn starved_budget_surfaces_as_pipeline_error() {
    // The old `assert!` aborted the process; the pipeline now returns a
    // typed error callers can handle.
    let (circuit, cut) = GoldenAnsatz::new(5, 229).build();
    let backend = IdealBackend::new(3);
    let exec = CutExecutor::new(&backend);
    for policy in [
        ShotAllocation::TotalBudget { total: 4 },
        ShotAllocation::WeightedByUsage { total: 8 },
    ] {
        let err = exec
            .run(
                &circuit,
                &cut,
                GoldenPolicy::Disabled,
                &ExecutionOptions::with_allocation(policy),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Allocation(AllocationError::BudgetTooSmall { settings: 9, .. })
            ),
            "{policy:?} gave {err:?}"
        );
    }
}

/// Arbitrary plan shapes for the apportionment property tests: 1–3 cuts,
/// each optionally golden in one of the three bases.
fn plan_from(cuts: &[u8]) -> BasisPlan {
    BasisPlan::with_neglected(
        cuts.iter()
            .map(|c| match c {
                1 => Some(Pauli::X),
                2 => Some(Pauli::Y),
                3 => Some(Pauli::Z),
                _ => None,
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ISSUE 4 headline-bugfix property: `schedule(...).total() == total`
    /// for every policy and plan shape — the floor() split used to drop
    /// up to n−1 shots of a weighted budget.
    #[test]
    fn every_policy_schedules_exactly_its_total(
        cuts in proptest::collection::vec(0u8..4, 1..4),
        shots in 1u64..5000,
        budget_per_setting in 1u64..5000,
    ) {
        let plan = plan_from(&cuts);
        let n_eigen = plan.total_settings() as u64;
        let total = n_eigen * budget_per_setting + budget_per_setting % 7;

        let uniform = schedule_for_plan(
            &plan,
            ShotAllocation::Uniform { shots_per_setting: shots },
        ).unwrap();
        prop_assert_eq!(uniform.total(), n_eigen * shots);
        prop_assert_eq!(uniform.min_shots(), shots);
        prop_assert_eq!(uniform.max_shots(), shots);

        for alloc in [
            ShotAllocation::TotalBudget { total },
            ShotAllocation::WeightedByUsage { total },
        ] {
            let s = schedule_for_plan(&plan, alloc).unwrap();
            prop_assert_eq!(s.total(), total, "{:?} lost shots", alloc);
            prop_assert!(s.min_shots() >= 1, "{:?} starved a setting", alloc);
            prop_assert_eq!(s.num_settings() as u64, n_eigen);
        }
    }

    /// The same exactness for SIC-shaped schedules (`3^K' + 4^K`
    /// settings).
    #[test]
    fn sic_schedules_are_exact_too(
        cuts in proptest::collection::vec(0u8..4, 1..4),
        budget_per_setting in 1u64..5000,
    ) {
        let plan = plan_from(&cuts);
        let n_up = plan.all_meas_settings().len() as u64;
        let n_down = 4u64.pow(plan.num_cuts() as u32);
        let total = (n_up + n_down) * budget_per_setting + budget_per_setting % 5;
        for alloc in [
            ShotAllocation::TotalBudget { total },
            ShotAllocation::WeightedByUsage { total },
        ] {
            let s = schedule_sic(&plan, alloc).unwrap();
            prop_assert_eq!(s.upstream.len() as u64, n_up);
            prop_assert_eq!(s.downstream.len() as u64, n_down);
            prop_assert_eq!(s.total(), total, "{:?} lost shots", alloc);
            prop_assert!(s.min_shots() >= 1);
        }
    }

    /// ISSUE 5: the adaptive policy spends exactly its total across plan
    /// shapes — both at the schedule level (pilot + Neyman refine under
    /// arbitrary scores) and through the eigenstate/SIC planning surrogate.
    #[test]
    fn adaptive_spends_exactly_its_total(
        cuts in proptest::collection::vec(0u8..4, 1..4),
        budget_per_setting in 2u64..5000,
        fraction in 0.01f64..0.99,
        scores in proptest::collection::vec(0.0f64..10.0, 40),
    ) {
        use qcut::cutting::allocation::{pilot_schedule, pilot_total, refine_schedule};
        let plan = plan_from(&cuts);
        let n_eigen = plan.total_settings() as u64;
        let n_up = plan.all_meas_settings().len();
        let n_down_sic = 4usize.pow(plan.num_cuts() as u32);

        // Schedule-level: uniform pilot + largest-remainder Neyman refine.
        let total = n_eigen * budget_per_setting + budget_per_setting % 7;
        let pilot = pilot_total(fraction, total).max(n_eigen);
        prop_assert!(pilot <= total);
        let pilot_sched = pilot_schedule(n_up, n_eigen as usize - n_up, pilot).unwrap();
        prop_assert_eq!(pilot_sched.total(), pilot);
        // Cycle the generated scores over however many settings the plan
        // shape produced (up to 3^3 + 6^3 for three standard cuts).
        let up_scores: Vec<f64> = (0..n_up).map(|i| scores[i % scores.len()]).collect();
        let down_scores: Vec<f64> = (n_up..n_eigen as usize)
            .map(|i| scores[i % scores.len()])
            .collect();
        let cumulative = refine_schedule(&pilot_sched, &up_scores, &down_scores, total - pilot);
        prop_assert_eq!(cumulative.total(), total, "adaptive lost shots");
        prop_assert!(cumulative.min_shots() >= 1);

        // Planner surrogate, eigenstate and SIC shapes.
        let alloc = ShotAllocation::Adaptive { pilot_fraction: 0.5, total };
        let s = schedule_for_plan(&plan, alloc).unwrap();
        prop_assert_eq!(s.total(), total, "eigenstate surrogate lost shots");
        let sic_total = (n_up + n_down_sic) as u64 * budget_per_setting;
        let s = schedule_sic(
            &plan,
            ShotAllocation::Adaptive { pilot_fraction: 0.5, total: sic_total },
        )
        .unwrap();
        prop_assert_eq!(s.total(), sic_total, "SIC surrogate lost shots");
    }

    /// Budgets below one-shot-per-setting always fail with the typed
    /// error, never a panic.
    #[test]
    fn undersized_budgets_error_cleanly(
        cuts in proptest::collection::vec(0u8..4, 1..4),
        deficit in 1u64..10,
    ) {
        let plan = plan_from(&cuts);
        let n = plan.total_settings() as u64;
        let total = n.saturating_sub(deficit);
        for alloc in [
            ShotAllocation::TotalBudget { total },
            ShotAllocation::WeightedByUsage { total },
        ] {
            let err = schedule_for_plan(&plan, alloc).unwrap_err();
            prop_assert!(matches!(err, AllocationError::BudgetTooSmall { .. }));
        }
    }

    /// A gather under an arbitrary (valid) schedule delivers exactly the
    /// realized per-setting shots it was asked for.
    #[test]
    fn scheduled_gather_delivers_the_schedule(
        seed in 0u64..32,
        shots in proptest::collection::vec(1u64..400, 9),
    ) {
        let (circuit, cut) = GoldenAnsatz::new(5, seed).build();
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        let basis = BasisPlan::standard(1);
        let sched = ShotSchedule {
            upstream: shots[..3].to_vec(),
            downstream: shots[3..].to_vec(),
        };
        let backend = IdealBackend::new(seed);
        let data = eigen_gather(&backend, &frags, &basis, &sched);
        prop_assert_eq!(data.total_shots, sched.total());
        for (i, setting) in basis.all_meas_settings().iter().enumerate() {
            let key = qcut::cutting::basis::encode_meas(setting);
            prop_assert_eq!(data.shots_for_meas(key), sched.upstream[i]);
        }
        for (i, preparation) in basis.all_prep_settings().iter().enumerate() {
            let key = qcut::cutting::basis::encode_prep(preparation);
            prop_assert_eq!(data.shots_for_prep(key), sched.downstream[i]);
        }
    }
}

/// ISSUE 5 degenerate edge (a): `pilot_fraction = 0` means "no pilot, no
/// measured variance" and must be *bit-identical* to the single-round
/// `WeightedByUsage` policy — same distribution, same accounting.
#[test]
fn adaptive_pilot_fraction_zero_is_bit_identical_to_weighted() {
    let (circuit, cut) = GoldenAnsatz::new(5, 301).build();
    let total = 45_000u64;
    let run_with = |policy| {
        let backend = IdealBackend::new(61);
        CutExecutor::new(&backend)
            .run(
                &circuit,
                &cut,
                GoldenPolicy::Disabled,
                &ExecutionOptions::with_allocation(policy),
            )
            .unwrap()
    };
    let adaptive = run_with(ShotAllocation::Adaptive {
        pilot_fraction: 0.0,
        total,
    });
    let weighted = run_with(ShotAllocation::WeightedByUsage { total });
    assert_eq!(
        adaptive.distribution.values(),
        weighted.distribution.values(),
        "pilot_fraction = 0 must run the WeightedByUsage path bit-identically"
    );
    assert_eq!(adaptive.report.total_shots, weighted.report.total_shots);
    assert_eq!(
        adaptive.report.shots_requested,
        weighted.report.shots_requested
    );
    assert_eq!(adaptive.report.pilot_shots, 0);
    assert_eq!(adaptive.report.rounds, 1);
}

/// ISSUE 5 degenerate edge (b): `pilot_fraction = 1` means "the whole
/// budget *is* the uniform pilot" and must be bit-identical to the even
/// `TotalBudget` split (the uniform division of `total`).
#[test]
fn adaptive_pilot_fraction_one_is_bit_identical_to_uniform_split() {
    let (circuit, cut) = GoldenAnsatz::new(5, 303).build();
    let total = 45_000u64;
    let run_with = |policy| {
        let backend = IdealBackend::new(67);
        CutExecutor::new(&backend)
            .run(
                &circuit,
                &cut,
                GoldenPolicy::Disabled,
                &ExecutionOptions::with_allocation(policy),
            )
            .unwrap()
    };
    let adaptive = run_with(ShotAllocation::Adaptive {
        pilot_fraction: 1.0,
        total,
    });
    let uniform = run_with(ShotAllocation::TotalBudget { total });
    assert_eq!(
        adaptive.distribution.values(),
        uniform.distribution.values(),
        "pilot_fraction = 1 must run the uniform-split path bit-identically"
    );
    assert_eq!(adaptive.report.total_shots, uniform.report.total_shots);
    assert_eq!(adaptive.report.pilot_shots, 0);
    assert_eq!(adaptive.report.rounds, 1);
}

/// An interior pilot fraction runs two engine rounds: the pilot executes
/// its uniform budget, the refine round executes exactly the remainder
/// (the cumulative requests are offset by the seeded pilot histograms),
/// and the reconstruction stays correct.
#[test]
fn adaptive_interior_fraction_runs_two_rounds_and_reconstructs() {
    let (circuit, cut) = GoldenAnsatz::new(5, 307).build();
    let truth = Distribution::from_values(5, StateVector::from_circuit(&circuit).probabilities());
    let total = 180_000u64;
    for method in [ReconstructionMethod::Eigenstate, ReconstructionMethod::Sic] {
        let backend = IdealBackend::new(71);
        let run = CutExecutor::new(&backend)
            .run(
                &circuit,
                &cut,
                GoldenPolicy::Disabled,
                &ExecutionOptions {
                    allocation: Some(ShotAllocation::Adaptive {
                        pilot_fraction: 0.2,
                        total,
                    }),
                    method,
                    ..Default::default()
                },
            )
            .unwrap();
        let report = &run.report;
        assert_eq!(report.rounds, 2, "{method:?}");
        assert_eq!(report.pilot_shots, total / 5, "{method:?}: uniform pilot");
        // No detection, no intra-plan duplicates: the two rounds spend
        // exactly the requested total in fresh shots.
        assert_eq!(report.pilot_shots + report.total_shots, total, "{method:?}");
        assert_eq!(
            report.shots_requested,
            report.detection_shots
                + report.pilot_shots
                + report.total_shots
                + report.shots_saved
                + report.cache_shots_reused,
            "{method:?}: exact accounting"
        );
        // The refine round re-requests the pilot budget (served from the
        // seeded histograms), so the saved shots are exactly the pilot.
        assert_eq!(report.shots_saved, report.pilot_shots, "{method:?}");
        let d = total_variation_distance(&run.distribution, &truth);
        assert!(d < 0.08, "{method:?}: adaptive reconstruction off by {d}");
    }
}

/// ISSUE 5 acceptance: the exact accounting invariant holds under the
/// full composition — online golden detection seeding the pilot, the
/// pilot seeding the refine round, dedup on.
#[test]
fn adaptive_composes_with_online_detection_and_dedup() {
    // The non-golden family from the detector's negative controls.
    let mut circuit = Circuit::new(3);
    circuit.rx(1.1, 0).rx(0.9, 1).cx(0, 1).rz(0.8, 1).cx(1, 2);
    let cut = CutSpec::single(1, 2);
    let backend = IdealBackend::new(83);
    let total = 40_000u64;
    let config = OnlineConfig {
        epsilon: 0.05,
        batch_shots: 2000,
        ..OnlineConfig::default()
    };
    let run = CutExecutor::new(&backend)
        .run(
            &circuit,
            &cut,
            GoldenPolicy::DetectOnline(config),
            &ExecutionOptions {
                allocation: Some(ShotAllocation::Adaptive {
                    pilot_fraction: 0.25,
                    total,
                }),
                ..Default::default()
            },
        )
        .unwrap();
    let report = &run.report;
    assert!(report.neglected[0].is_empty(), "cut wrongly judged golden");
    assert!(report.detection_shots > 0);
    assert_eq!(report.rounds, 2);
    assert_eq!(
        report.shots_requested,
        report.detection_shots
            + report.pilot_shots
            + report.total_shots
            + report.shots_saved
            + report.cache_shots_reused,
        "exact accounting under detection + pilot + refine seeding"
    );
    // Detection data offsets the pilot, and the pilot offsets the refine:
    // both reuses land in shots_saved, so the fresh gather work is less
    // than the scheduled total.
    assert!(report.shots_saved > report.pilot_shots);
    assert!(report.pilot_shots + report.total_shots < total);
    let truth = Distribution::from_values(3, StateVector::from_circuit(&circuit).probabilities());
    let d = total_variation_distance(&run.distribution, &truth);
    assert!(d < 0.06, "adaptive+detection reconstruction off by {d}");
}

/// A pilot fraction that rounds below one-shot-per-setting surfaces as
/// the typed pilot error, not a panic. (The static-analysis gate flags
/// the same starvation as `QA201` even earlier, so this test disables it
/// to keep the runtime allocation path covered.)
#[test]
fn adaptive_starved_pilot_is_a_typed_error() {
    use qcut::cutting::analysis::AnalysisConfig;
    let (circuit, cut) = GoldenAnsatz::new(5, 311).build();
    let backend = IdealBackend::new(5);
    let err = CutExecutor::new(&backend)
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &ExecutionOptions {
                allocation: Some(ShotAllocation::Adaptive {
                    pilot_fraction: 0.0001,
                    total: 9_000,
                }),
                analysis: AnalysisConfig::disabled(),
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            PipelineError::Allocation(AllocationError::PilotBudgetTooSmall { settings: 9, .. })
        ),
        "got {err:?}"
    );
}

/// With analysis enabled (the default), the same starved pilot is caught
/// statically before any shot: `QA201` denies the run because not even a
/// fully-golden plan fits the pilot budget.
#[test]
fn adaptive_starved_pilot_is_denied_statically() {
    use qcut::cutting::analysis::LintCode;
    let (circuit, cut) = GoldenAnsatz::new(5, 311).build();
    let backend = IdealBackend::new(5);
    let err = CutExecutor::new(&backend)
        .run(
            &circuit,
            &cut,
            GoldenPolicy::Disabled,
            &ExecutionOptions::with_allocation(ShotAllocation::Adaptive {
                pilot_fraction: 0.0001,
                total: 9_000,
            }),
        )
        .unwrap_err();
    let PipelineError::Analysis(diags) = err else {
        panic!("expected static rejection, got {err:?}");
    };
    assert!(diags.contains(LintCode::BudgetBelowFloor));
}

/// The engine-seeded refine round is equivalent to gathering the two
/// passes separately and merging them with `FragmentData::merge`: seeding
/// offsets each node's cumulative request by the pilot histogram, so the
/// fresh executions are exactly the increment pass.
#[test]
fn seeded_refine_round_delivers_the_merge_of_both_passes() {
    use qcut::cutting::allocation::{pilot_schedule, refine_schedule};
    use qcut::cutting::basis::{encode_meas, encode_prep};
    use qcut::cutting::jobgraph::{Channel, JobGraph};
    use qcut::cutting::planner::{add_downstream_jobs, add_upstream_jobs};
    use qcut::cutting::tomography::{build_downstream_circuit, build_upstream_circuit};

    let (circuit, cut) = GoldenAnsatz::new(5, 313).build();
    let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
    let basis = BasisPlan::standard(1);

    let pilot_sched = pilot_schedule(3, 6, 1800).unwrap();
    let scores_up = [3.0, 1.0, 2.0];
    let scores_down = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0];
    let cumulative = refine_schedule(&pilot_sched, &scores_up, &scores_down, 7200);
    let increments = qcut::cutting::allocation::ShotSchedule {
        upstream: cumulative
            .upstream
            .iter()
            .zip(&pilot_sched.upstream)
            .map(|(&c, &p)| c - p)
            .collect(),
        downstream: cumulative
            .downstream
            .iter()
            .zip(&pilot_sched.downstream)
            .map(|(&c, &p)| c - p)
            .collect(),
    };

    // Two independent single-round gathers …
    let backend = IdealBackend::new(131);
    let mut merged = eigen_gather(&backend, &frags, &basis, &pilot_sched);
    let fresh = eigen_gather(&backend, &frags, &basis, &increments);
    merged.merge(&fresh);

    // … versus a pilot + seeded engine round requesting the cumulative
    // targets, on a fresh same-seed backend so both arms draw identical
    // per-job RNG streams (sub-seeds advance with every executed job).
    let backend = IdealBackend::new(131);
    let pilot = eigen_gather(&backend, &frags, &basis, &pilot_sched);
    let mut graph = JobGraph::new();
    add_upstream_jobs(&mut graph, &frags, &basis, &cumulative.upstream);
    add_downstream_jobs(&mut graph, &frags, &basis, &cumulative.downstream);
    for setting in basis.all_meas_settings() {
        graph.seed_counts(
            &build_upstream_circuit(&frags.upstream, &setting),
            &pilot.upstream[&encode_meas(&setting)],
        );
    }
    for preparation in basis.all_prep_settings() {
        graph.seed_counts(
            &build_downstream_circuit(&frags.downstream, &preparation),
            &pilot.downstream[&encode_prep(&preparation)],
        );
    }
    let mut run = graph.execute(&backend, &RetryPolicy::default()).unwrap();
    assert_eq!(run.stats.shots_executed, increments.total());
    assert_eq!(run.stats.shots_saved, pilot_sched.total());
    let seeded = FragmentData::from_counts(
        run.take_channel(Channel::UpstreamMeas),
        run.take_channel(Channel::DownstreamPrep),
        run.stats.simulated_device_time,
        run.stats.host_time,
    );
    assert_eq!(seeded.upstream, merged.upstream);
    assert_eq!(seeded.downstream, merged.downstream);
    assert_eq!(seeded.total_shots, cumulative.total());
}

#[test]
fn observable_pipeline_on_noisy_device() {
    // Pauli expectations through the cutting pipeline on the simulated
    // hardware: noisy but unbiased within noise floor.
    let (circuit, cut) = GoldenAnsatz::new(5, 107).build();
    let backend = presets::ibm_5q(47);
    let executor = CutExecutor::new(&backend);
    let options = ExecutionOptions {
        shots_per_setting: 8000,
        ..Default::default()
    };
    let p = PauliString::parse("IIZZI").unwrap();
    let want = StateVector::from_circuit(&circuit).expectation_pauli(&p);
    let got = pauli_expectation(
        &executor,
        &circuit,
        &cut,
        GoldenPolicy::detect_exact(),
        &options,
        &p,
    )
    .unwrap();
    assert!(
        (got - want).abs() < 0.25,
        "noisy <IIZZI>: got {got}, want {want}"
    );
}

#[test]
fn diagonal_observables_from_reconstruction() {
    let (circuit, cut) = GoldenAnsatz::new(5, 109).build();
    let backend = IdealBackend::new(53);
    let executor = CutExecutor::new(&backend);
    let run = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            &ExecutionOptions {
                shots_per_setting: 30_000,
                ..Default::default()
            },
        )
        .unwrap();
    let truth = Distribution::from_values(5, StateVector::from_circuit(&circuit).probabilities());
    for obs in [
        DiagonalObservable::hamming_weight(5),
        DiagonalObservable::ising_chain(5, 1.0),
        DiagonalObservable::projector(5, 0b00000),
    ] {
        let got = obs.expectation(&run.distribution);
        let want = obs.expectation(&truth);
        assert!(
            (got - want).abs() < 0.15,
            "diagonal observable off: {got} vs {want}"
        );
    }
}
