//! # qcut-core
//!
//! The paper's contribution: quantum circuit cutting with **golden cutting
//! points** — neglecting basis elements whose upstream coefficients vanish
//! (Chen, Hansen, et al., IPPS 2023, arXiv:2304.04093).
//!
//! The crate implements, from the cut specification down to the final
//! distribution:
//!
//! * [`fragment`] — bipartitioning a circuit along validated wire cuts;
//! * [`basis`] — the measurement/preparation/reconstruction enumerations
//!   and how golden cuts shrink them (`3→2`, `6→4`, `4→3` per cut);
//! * [`tomography`] — concrete subcircuit variants;
//! * [`jobgraph`] — the batched, deduplicating JobGraph engine every
//!   backend execution (eigenstate, SIC, online detection, uncut) routes
//!   through: structurally identical subcircuits execute once and fan back
//!   out to every consumer, under one retry/timeout/failover loop that
//!   treats a bare backend as a one-member pool;
//! * [`planner`] — graph builders translating a [`basis::BasisPlan`] into
//!   engine jobs;
//! * [`allocation`] — shot-allocation policies over the settings: the
//!   paper's uniform protocol, exact total-budget splits, usage-weighted
//!   budgets, and the two-round variance-adaptive pilot → refine policy;
//! * [`execution`] — fragment data gathering on any backend, as one
//!   batched engine submission;
//! * [`reconstruction`] — the tensor contraction of paper Eq. 13/14, plus
//!   exact (infinite-shot) variants used for verification and detection;
//! * [`variance`] — shot-noise propagation through the contraction:
//!   error bars, schedule scoring, and the adaptive policy's Neyman
//!   weights;
//! * [`golden`] — a-priori, exact, online, and statically-proven
//!   golden-point detection (online realises the paper's §IV future work);
//! * [`dataflow`] — abstract interpretation over the circuit DAG: the
//!   stabilizer-tableau domain behind
//!   [`golden::GoldenPolicy::ProveStatic`]'s zero-shot symbolic golden
//!   proofs, and the light-cone domain behind the wire-edge cut adviser
//!   ([`dataflow::cut_report`]);
//! * [`sic`] — the SIC-basis preparation alternative discussed in §II-B;
//! * [`observable`] — Pauli/diagonal observable estimation on top of the
//!   reconstructed distribution;
//! * [`retry`] — fault-tolerance policies: [`retry::RetryPolicy`]
//!   (attempts / deterministic backoff / per-job timeout, honored inside
//!   the engine) and [`retry::FailurePolicy`] (fail with a typed salvage
//!   error vs degrade to a renormalized surviving plan);
//! * [`report`] — the accounting every run returns ([`report::RunReport`]);
//! * [`analysis`] — the static lint pass ([`analysis::analyze`]) every
//!   run is gated on: one table of coded checks over the circuit, the
//!   cut, the predicted schedule, the planned job graph, the warm-start
//!   cache and fault-tolerance configuration, and the backend pool,
//!   before any shot;
//! * [`pipeline`] — the one-call API: [`pipeline::CutExecutor`], with
//!   optional cross-run warm-start caching
//!   ([`pipeline::ExecutionOptions::cache`], backed by `qcut-cache`).
//!
//! ```
//! use qcut_circuit::ansatz::GoldenAnsatz;
//! use qcut_core::golden::GoldenPolicy;
//! use qcut_core::pipeline::{CutExecutor, ExecutionOptions};
//! use qcut_device::ideal::IdealBackend;
//! use qcut_math::Pauli;
//!
//! let (circuit, cut) = GoldenAnsatz::new(5, 42).build();
//! let backend = IdealBackend::new(7);
//! let executor = CutExecutor::new(&backend);
//! let run = executor
//!     .run(
//!         &circuit,
//!         &cut,
//!         GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
//!         &ExecutionOptions { shots_per_setting: 2000, ..Default::default() },
//!     )
//!     .unwrap();
//! assert_eq!(run.report.subcircuits_executed, 6); // not 9: Y neglected
//! ```

#![forbid(unsafe_code)]

pub mod allocation;
pub mod analysis;
pub mod basis;
pub mod dataflow;
pub mod error;
pub mod execution;
pub mod fragment;
pub mod golden;
pub mod jobgraph;
pub mod observable;
pub mod pipeline;
pub mod planner;
pub mod reconstruction;
pub mod report;
pub mod retry;
pub mod sic;
pub mod tomography;
pub mod variance;

#[cfg(test)]
#[path = "../../../tests/support/sequential.rs"]
mod sequential;

/// Cut specification types, re-exported from `qcut-circuit` for
/// convenience (they live there so ansatz generators can return them).
pub mod cut {
    pub use qcut_circuit::cut::{CutError, CutLocation, CutSpec};
}

/// Common re-exports.
pub mod prelude {
    pub use crate::allocation::{
        schedule_for_plan, schedule_sic, usage_counts, AllocationError, ShotAllocation,
        ShotSchedule,
    };
    pub use crate::analysis::{
        analyze, analyze_with_backend, AnalysisConfig, Diagnostic, Diagnostics, LintCode, Severity,
    };
    pub use crate::basis::{BasisPlan, MeasBasis};
    pub use crate::cut::{CutError, CutLocation, CutSpec};
    pub use crate::dataflow::{
        cut_report, prove_golden_bases, proven_plan, CutCandidate, CutReport,
    };
    pub use crate::error::{ExecutionFailure, PipelineError};
    pub use crate::execution::{gather, FragmentData};
    pub use crate::fragment::{Fragment, FragmentError, FragmentRole, Fragmenter, Fragments};
    pub use crate::golden::{
        ExactDetector, GoldenPolicy, GoldenVerdict, OnlineConfig, OnlineDetector,
    };
    pub use crate::jobgraph::{
        Channel, ConsumerKey, GraphFailure, GraphRun, GraphStats, JobGraph, NodeFailure,
    };
    pub use crate::observable::{
        diagonalize_pauli, pauli_expectation, DiagonalObservable, PauliSumObservable,
    };
    pub use crate::pipeline::{
        CutExecutor, CutRun, ExecutionOptions, PostProcess, ReconstructionMethod, UncutRun,
    };
    pub use crate::planner::{add_downstream_jobs, add_sic_jobs, add_upstream_jobs, uncut_graph};
    pub use crate::reconstruction::{
        contract, downstream_tensor, exact_reconstruct, reconstruct, upstream_tensor,
        CoefficientTensor,
    };
    pub use crate::report::{FailureRecord, RunReport, UncutReport};
    pub use crate::retry::{Backoff, FailurePolicy, RetryPolicy};
    pub use crate::sic::{sic_downstream_tensor, SicFrame};
    pub use crate::variance::{
        empirical_variance, reconstruction_variance, variance_from_schedule, variance_from_tensors,
        ReconstructionError,
    };
}

pub use prelude::*;
