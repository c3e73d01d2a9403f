//! The sequential reference backend of the batched ≡ sequential pins.
//!
//! Shared by the `qcut-core` unit tests and the workspace integration
//! tests, so the reference implementation lives in one place.

use qcut_circuit::circuit::Circuit;
use qcut_device::backend::{
    Backend, BackendError, BatchRun, BatchStats, ExecutionResult, JobResult, JobSpec,
};
use qcut_device::timing::TimingModel;

/// Wraps a backend so every batch runs job by job, in submission order,
/// through the inner backend's [`Backend::run`]: no prefix sharing, no
/// batch-position seeding. A seed-deterministic backend must deliver the
/// same counts through the engine with and without this wrapper.
pub struct Sequential<B>(pub B);

impl<B: Backend> Backend for Sequential<B> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn num_qubits(&self) -> usize {
        self.0.num_qubits()
    }

    fn timing(&self) -> &TimingModel {
        self.0.timing()
    }

    fn run(&self, circuit: &Circuit, shots: u64) -> Result<ExecutionResult, BackendError> {
        self.0.run(circuit, shots)
    }

    fn run_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<JobResult> {
        self.run_batch_stats(jobs).results
    }

    fn run_batch_stats(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        let results: Vec<JobResult> = jobs
            .iter()
            .map(|j| self.0.run(j.circuit, j.shots))
            .collect();
        let stats = BatchStats::unshared(jobs, &results);
        BatchRun { results, stats }
    }

    fn cache_fingerprint(&self) -> u64 {
        self.0.cache_fingerprint()
    }

    fn deterministic_seeding(&self) -> bool {
        self.0.deterministic_seeding()
    }
}
