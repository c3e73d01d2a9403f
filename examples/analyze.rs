//! Static analysis walkthrough: lint workloads before spending a single
//! shot, read coded diagnostics, promote informational lints, and watch
//! the pipeline's deny gate reject a broken workload.
//!
//! ```text
//! cargo run --release --example analyze
//! ```

use qcut::cutting::analysis::{analyze, AnalysisConfig, LintCode, Severity};
use qcut::cutting::error::PipelineError;
use qcut::prelude::*;

fn main() {
    // 1. A healthy workload lints clean under the default configuration.
    let (circuit, cut) = GoldenAnsatz::new(5, 1234).build();
    let options = ExecutionOptions::default();
    let diags = analyze(&circuit, &cut, &options);
    println!("healthy workload: {diags}\n");

    // 2. Promote the informational lints (default Allow) to Warn to see
    //    the structural reports: plan coverage and golden-structure hints.
    let verbose = ExecutionOptions {
        analysis: AnalysisConfig::default()
            .with_override(LintCode::GoldenStructure, Severity::Warn)
            .with_override(LintCode::NeglectCoverage, Severity::Warn),
        ..Default::default()
    };
    println!("promoted reports:");
    for d in analyze(&circuit, &cut, &verbose).iter() {
        println!("  {d}");
    }
    println!();

    // 3. The dataflow layer (QA6xx) is informational too: promote it to
    //    see light-cone dead gates and statically-provable golden bases
    //    the configured policy is leaving on the table.
    let mut sloppy = circuit.clone();
    sloppy.s(0); // trailing diagonal gate: measure-dead
    let dataflow = ExecutionOptions {
        analysis: AnalysisConfig::default()
            .with_override(LintCode::OutOfConeDeadGate, Severity::Warn)
            .with_override(LintCode::ProvableGoldenUndetected, Severity::Warn),
        ..Default::default()
    };
    println!("dataflow findings:");
    for d in analyze(&sloppy, &cut, &dataflow).iter() {
        println!("  {d}");
    }
    println!();

    // 4. A starved budget: 4 shots fund the fully-golden floor (3
    //    settings for one cut) but starve the 9-setting standard plan —
    //    QA204 warns that only golden detection can save the run.
    let starved = ExecutionOptions::with_allocation(ShotAllocation::TotalBudget { total: 4 });
    println!("starved budget:");
    for d in analyze(&circuit, &cut, &starved).iter() {
        println!("  {d}");
    }
    println!();

    // 5. Deny-level findings gate the pipeline: the run is rejected as a
    //    typed error before any backend interaction.
    let backend = IdealBackend::new(7);
    let executor = CutExecutor::new(&backend);
    let zero_shots = ExecutionOptions {
        shots_per_setting: 0, // QA202: Deny
        ..Default::default()
    };
    match executor.run(&circuit, &cut, GoldenPolicy::Disabled, &zero_shots) {
        Err(PipelineError::Analysis(diags)) => {
            println!("pipeline rejected the workload:");
            for d in diags.deny() {
                println!("  {d}");
            }
        }
        other => panic!("expected an analysis rejection, got {other:?}"),
    }
    println!();

    // 6. The pool layer (QA7xx) lints placement feasibility against the
    //    actual member fleet: a pool of 2-qubit devices can never fit the
    //    3-qubit fragments (QA701, deny), and an oversized fleet leaves
    //    members provably idle (QA703, informational until promoted).
    let cramped = BackendPool::new(PlacementPolicy::RoundRobin)
        .with_backend(IdealBackend::new(1).with_capacity(2))
        .with_backend(IdealBackend::new(2).with_capacity(2));
    println!("cramped pool:");
    for d in analyze_with_backend(&circuit, &cut, &options, &cramped).iter() {
        println!("  {d}");
    }
    let mut oversized = BackendPool::new(PlacementPolicy::LeastLoaded);
    for seed in 0..16u64 {
        oversized = oversized.with_backend(IdealBackend::new(seed));
    }
    let idle_aware = ExecutionOptions {
        analysis: AnalysisConfig::default().with_override(LintCode::PoolIdleMember, Severity::Warn),
        ..Default::default()
    };
    println!("oversized pool (QA703 promoted):");
    for d in analyze_with_backend(&circuit, &cut, &idle_aware, &oversized).iter() {
        println!("  {d}");
    }
    println!();

    // 7. Warnings do not block execution; they ride in the run report.
    let run = executor
        .run(
            &circuit,
            &cut,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            &ExecutionOptions {
                allocation: Some(ShotAllocation::TotalBudget { total: 8 }),
                ..Default::default()
            },
        )
        .expect("the golden shrink makes 8 shots schedulable");
    println!(
        "run succeeded with {} warning(s):",
        run.report.diagnostics.len()
    );
    for d in &run.report.diagnostics {
        println!("  {d}");
    }
}
