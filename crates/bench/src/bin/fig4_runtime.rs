//! Regenerates **Figure 4**: algorithm runtime on the simulator, with and
//! without the golden cutting point optimisation.
//!
//! Measures host wall time for *gathering fragment data + reconstruction*
//! per trial (the quantity the paper records: "the time taken for
//! gathering fragment data and reconstructing them on a randomly generated
//! circuit", §III-B), assuming the golden cutting point is known a priori.
//!
//! Paper parameters: 1000 trials × 1000 shots per (sub)circuit.
//! Paper finding: the golden arm is ≈ ⅓ faster (6 vs 9 subcircuits).
//!
//! ```text
//! cargo run -p qcut-bench --release --bin fig4_runtime
//! cargo run -p qcut-bench --release --bin fig4_runtime -- --trials 200 --width 7
//! ```
//!
//! Every arm runs through the engine's batched submission. For the
//! per-subcircuit simulation ablation (no shared prefixes), construct the
//! backend with `IdealBackend::with_prefix_sharing(false)`.

use qcut_bench::{rule, summarize, Args};
use qcut_circuit::ansatz::GoldenAnsatz;
use qcut_core::golden::GoldenPolicy;
use qcut_core::pipeline::{CutExecutor, ExecutionOptions};
use qcut_device::ideal::IdealBackend;
use qcut_math::Pauli;

fn main() {
    let args = Args::parse(&["trials", "shots", "width", "seed"]);
    let trials = args.get_u64("trials", 1000);
    let shots = args.get_u64("shots", 1000);
    let width = args.get_u64("width", 5) as usize;
    let base_seed = args.get_u64("seed", 1);

    println!("Figure 4 — simulator runtime with vs without golden cutting point");
    println!("width = {width}, trials = {trials}, shots per (sub)circuit = {shots}");
    rule(78);

    let mut standard_secs = Vec::with_capacity(trials as usize);
    let mut golden_secs = Vec::with_capacity(trials as usize);

    for trial in 0..trials {
        let seed = base_seed + trial;
        let (circuit, cut) = GoldenAnsatz::new(width, seed).build();
        let backend = IdealBackend::new(5000 + seed);
        let executor = CutExecutor::new(&backend);
        let options = ExecutionOptions {
            shots_per_setting: shots,
            ..Default::default()
        };

        let standard = executor
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
            .expect("standard run failed");
        standard_secs.push(standard.report.total_host_seconds());

        let golden = executor
            .run(
                &circuit,
                &cut,
                GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
                &options,
            )
            .expect("golden run failed");
        golden_secs.push(golden.report.total_host_seconds());
    }

    let (std_ci, std_s) = summarize(&standard_secs);
    let (gold_ci, gold_s) = summarize(&golden_secs);
    println!("{:<34} {:>28}  (seconds/trial)", "method", "mean ± 95% CI");
    rule(78);
    println!("{:<34} {std_s:>28}", "standard reconstruction [18]");
    println!("{:<34} {gold_s:>28}", "golden cutting point (ours)");
    rule(78);
    let speedup = 1.0 - gold_ci.mean / std_ci.mean;
    println!(
        "relative runtime reduction: {:.1}%  (paper reports ≈33% from 9 → 6 subcircuits)",
        100.0 * speedup
    );
}
