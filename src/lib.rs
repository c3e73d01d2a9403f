//! # qcut — Efficient Quantum Circuit Cutting by Neglecting Basis Elements
//!
//! Umbrella crate re-exporting the public API of the `qcut` workspace, a
//! from-scratch Rust reproduction of *"Efficient Quantum Circuit Cutting by
//! Neglecting Basis Elements"* (Chen, Hansen, et al., IPPS 2023,
//! arXiv:2304.04093).
//!
//! The workspace implements:
//!
//! * [`math`] — complex arithmetic, dense linear algebra, Pauli basis,
//!   Haar-random unitaries;
//! * [`circuit`] — a quantum circuit IR with the paper's Fig. 2 golden
//!   ansatz and a Qiskit-style `random_circuit` generator;
//! * [`sim`] — state-vector and density-matrix simulators with Kraus noise;
//! * [`device`] — simulated backends (ideal and noisy IBM-like presets)
//!   with a timing model for wall-clock experiments, plus multi-backend
//!   sharding pools with capacity- and noise-aware placement;
//! * [`stats`] — distributions, the paper's weighted distance (Eq. 17),
//!   and confidence intervals;
//! * [`cache`] — the cross-run warm-start cache: persistent per-node
//!   histograms and simulator fork-state reuse for parameter sweeps;
//! * [`cutting`] — the paper's contribution: wire cutting, golden cutting
//!   point detection and exploitation (a-priori / exact / online /
//!   statically proven via stabilizer dataflow), tensor reconstruction,
//!   the SIC variant, the light-cone cut adviser
//!   (`cutting::dataflow::cut_report`), and the shot-allocation policies
//!   (uniform / weighted / two-round variance-adaptive) scheduled through
//!   the JobGraph engine.
//!
//! See `ARCHITECTURE.md` at the repository root for the crate layering,
//! the JobGraph execution seam, the PrefixForest, and the allocation
//! pipeline with the full data-flow diagram.
//!
//! ## Quickstart
//!
//! ```
//! use qcut::prelude::*;
//!
//! // Build the paper's 5-qubit golden ansatz (Fig. 2) and cut it.
//! let ansatz = GoldenAnsatz::new(5, 1234);
//! let (circuit, cut) = ansatz.build();
//!
//! // Run both fragments on the ideal backend and reconstruct.
//! let backend = IdealBackend::new(4242);
//! let executor = CutExecutor::new(&backend);
//! let options = ExecutionOptions { shots_per_setting: 2000, ..Default::default() };
//!
//! let standard = executor
//!     .run(&circuit, &cut, GoldenPolicy::Disabled, &options)
//!     .unwrap();
//! let golden = executor
//!     .run(&circuit, &cut, GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]), &options)
//!     .unwrap();
//!
//! // Golden reconstruction uses 6 subcircuit settings instead of 9 ...
//! assert_eq!(standard.report.subcircuits_executed, 9);
//! assert_eq!(golden.report.subcircuits_executed, 6);
//! // ... and agrees with the standard result.
//! let d = total_variation_distance(&golden.distribution, &standard.distribution);
//! assert!(d < 0.1);
//! ```

#![forbid(unsafe_code)]

pub use qcut_cache as cache;
pub use qcut_circuit as circuit;
pub use qcut_core as cutting;
pub use qcut_device as device;
pub use qcut_math as math;
pub use qcut_sim as sim;
pub use qcut_stats as stats;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use qcut_cache::{CacheConfig, CacheKey, ShotDiscipline, WarmCache};
    pub use qcut_circuit::ansatz::{three_qubit_example, GoldenAnsatz};
    pub use qcut_circuit::circuit::Circuit;
    pub use qcut_circuit::cone::{dead_instructions, DeadGate, DeadGateKind, LightCones};
    pub use qcut_circuit::gate::{CliffordAction, Gate};
    pub use qcut_circuit::random::{random_circuit, random_real_circuit, RandomCircuitConfig};
    pub use qcut_circuit::tableau::{StabilizerGenerator, StabilizerTableau};
    pub use qcut_core::allocation::{ShotAllocation, ShotSchedule};
    pub use qcut_core::analysis::{
        analyze, analyze_with_backend, AnalysisConfig, Diagnostic, Diagnostics, LintCode, Severity,
    };
    pub use qcut_core::basis::MeasBasis;
    pub use qcut_core::cut::{CutLocation, CutSpec};
    pub use qcut_core::dataflow::{
        cut_report, prove_golden_bases, proven_plan, CutCandidate, CutReport,
    };
    pub use qcut_core::error::{ExecutionFailure, PipelineError};
    pub use qcut_core::fragment::Fragmenter;
    pub use qcut_core::golden::{ExactDetector, GoldenPolicy, OnlineDetector};
    pub use qcut_core::pipeline::{CutExecutor, ExecutionOptions, ReconstructionMethod};
    pub use qcut_core::retry::{Backoff, FailurePolicy, RetryPolicy};
    pub use qcut_device::backend::Backend;
    pub use qcut_device::fault::FaultInjectingBackend;
    pub use qcut_device::ideal::IdealBackend;
    pub use qcut_device::noisy::NoisyBackend;
    pub use qcut_device::pool::{BackendPool, MemberInfo, Placement, PlacementPolicy};
    pub use qcut_device::presets;
    pub use qcut_device::timing::TimingModel;
    pub use qcut_math::{c64, Complex, Matrix, Pauli, PauliString, PrepState};
    pub use qcut_sim::counts::Counts;
    pub use qcut_sim::statevector::StateVector;
    pub use qcut_stats::distance::{total_variation_distance, weighted_distance};
    pub use qcut_stats::distribution::Distribution;
}
