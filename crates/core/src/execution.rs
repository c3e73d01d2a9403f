//! Running one gather on a backend and collecting [`FragmentData`].
//!
//! Fragments "can be simulated independently … run fragments in parallel"
//! (paper §II-A): [`gather`] plans every subcircuit variant of a
//! [`BasisPlan`] with the planner's gather graph — the same graph, in the
//! same job order, that [`crate::pipeline::CutExecutor::run`] executes —
//! and runs it as one batched, deduplicated backend submission. Under
//! either preparation scheme the delivered histograms land in one
//! [`FragmentData`].

use crate::allocation::ShotSchedule;
use crate::basis::BasisPlan;
use crate::fragment::Fragments;
use crate::jobgraph::{Channel, GraphFailure, GraphRun};
use crate::pipeline::ReconstructionMethod;
use crate::planner::gather_graph;
use crate::retry::RetryPolicy;
use qcut_device::backend::Backend;
use qcut_sim::counts::Counts;
use std::collections::HashMap;
use std::time::Duration;

/// Measured counts for every subcircuit variant of one cut circuit.
///
/// Shots are tracked *per setting* (the realized schedule): under a
/// non-uniform [`crate::allocation::ShotAllocation`] — or when the engine
/// delivers merged histograms that exceed a setting's request — the
/// per-setting totals are what the variance/CI math must consume, not a
/// nominal mean.
#[derive(Debug, Clone)]
pub struct FragmentData {
    /// Upstream counts keyed by [`crate::basis::encode_meas`] of the
    /// setting.
    pub upstream: HashMap<u64, Counts>,
    /// Downstream counts keyed by [`crate::basis::encode_prep`] of the
    /// eigenstate preparation, or by [`crate::sic::encode_sic`] of the SIC
    /// preparation in a [`ReconstructionMethod::Sic`] gather.
    pub downstream: HashMap<u64, Counts>,
    /// Realized shots per upstream setting (same keys as
    /// [`FragmentData::upstream`]). Matches the delivered histogram totals,
    /// which can exceed the *requested* schedule when deduplicated or
    /// seeded engine nodes hand back a larger merged histogram.
    pub upstream_shots: HashMap<u64, u64>,
    /// Realized shots per downstream preparation (same keys as
    /// [`FragmentData::downstream`]).
    pub downstream_shots: HashMap<u64, u64>,
    /// Number of subcircuits executed.
    pub subcircuits: usize,
    /// Total shots across all subcircuits (sum of the realized schedule).
    pub total_shots: u64,
    /// Sum of simulated device time over all jobs (the Fig. 5 quantity).
    pub simulated_device_time: Duration,
    /// Host CPU time spent inside backend runs (summed over jobs).
    pub host_time: Duration,
}

impl FragmentData {
    /// Assembles fragment data from delivered per-channel counts, deriving
    /// the realized per-setting schedule from the histogram totals.
    pub fn from_counts(
        upstream: HashMap<u64, Counts>,
        downstream: HashMap<u64, Counts>,
        simulated_device_time: Duration,
        host_time: Duration,
    ) -> Self {
        let upstream_shots: HashMap<u64, u64> =
            upstream.iter().map(|(&k, c)| (k, c.total())).collect();
        let downstream_shots: HashMap<u64, u64> =
            downstream.iter().map(|(&k, c)| (k, c.total())).collect();
        let total_shots =
            upstream_shots.values().sum::<u64>() + downstream_shots.values().sum::<u64>();
        FragmentData {
            subcircuits: upstream.len() + downstream.len(),
            upstream,
            downstream,
            upstream_shots,
            downstream_shots,
            total_shots,
            simulated_device_time,
            host_time,
        }
    }

    /// Drains a gather graph's run into fragment data: the upstream
    /// channel plus the downstream channel `method` reads.
    pub(crate) fn from_run(run: &mut GraphRun, method: ReconstructionMethod) -> Self {
        FragmentData::from_counts(
            run.take_channel(Channel::UpstreamMeas),
            run.take_channel(method.downstream_channel()),
            run.stats.simulated_device_time,
            run.stats.host_time,
        )
    }

    /// Counts for one upstream setting.
    pub fn upstream_counts(&self, setting_key: u64) -> Option<&Counts> {
        self.upstream.get(&setting_key)
    }

    /// Counts for one downstream preparation.
    pub fn downstream_counts(&self, prep_key: u64) -> Option<&Counts> {
        self.downstream.get(&prep_key)
    }

    /// Realized shots behind one upstream setting (0 when absent).
    pub fn shots_for_meas(&self, setting_key: u64) -> u64 {
        self.upstream_shots.get(&setting_key).copied().unwrap_or(0)
    }

    /// Realized shots behind one downstream preparation (0 when absent).
    pub fn shots_for_prep(&self, prep_key: u64) -> u64 {
        self.downstream_shots.get(&prep_key).copied().unwrap_or(0)
    }

    /// Merges shot data from a second gathering pass (same plan): counts
    /// accumulate, per-setting budgets and timings add up. The pipeline
    /// does not call this — its adaptive refine round seeds the engine with
    /// the pilot's delivered nodes instead — but the seeded round delivers
    /// exactly this merge of both passes, and
    /// `tests/integration_allocation.rs` keeps `merge` as the reference
    /// that pins it.
    pub fn merge(&mut self, other: &FragmentData) {
        for (k, c) in &other.upstream {
            self.upstream
                .entry(*k)
                .and_modify(|mine| mine.merge(c))
                .or_insert_with(|| c.clone());
        }
        for (k, c) in &other.downstream {
            self.downstream
                .entry(*k)
                .and_modify(|mine| mine.merge(c))
                .or_insert_with(|| c.clone());
        }
        for (k, s) in &other.upstream_shots {
            *self.upstream_shots.entry(*k).or_insert(0) += s;
        }
        for (k, s) in &other.downstream_shots {
            *self.downstream_shots.entry(*k).or_insert(0) += s;
        }
        self.total_shots += other.total_shots;
        self.simulated_device_time += other.simulated_device_time;
        self.host_time += other.host_time;
        self.subcircuits = self.upstream.len() + self.downstream.len();
    }
}

/// Plans the gather of `plan` under `method` and `schedule` (per-setting
/// shot counts aligned with [`ReconstructionMethod::schedule`];
/// [`ShotSchedule::uniform`] is the paper's protocol) and executes it as
/// one batched, deduplicated engine submission.
///
/// Transient backend faults and deterministic per-job timeouts are retried
/// inside the engine under `retry` (only failed nodes re-submitted), and
/// what still fails permanently is returned as a [`GraphFailure`] carrying
/// the salvaged surviving data.
pub fn gather<B: Backend + ?Sized>(
    backend: &B,
    fragments: &Fragments,
    plan: &BasisPlan,
    method: ReconstructionMethod,
    schedule: &ShotSchedule,
    retry: &RetryPolicy,
) -> Result<FragmentData, Box<GraphFailure>> {
    let graph = gather_graph(fragments, plan, method, schedule);
    let mut run = graph.execute(backend, retry)?;
    Ok(FragmentData::from_run(&mut run, method))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{encode_meas, encode_prep};
    use crate::fragment::Fragmenter;
    use crate::sequential::Sequential;
    use qcut_circuit::ansatz::GoldenAnsatz;
    use qcut_device::ideal::IdealBackend;
    use qcut_math::Pauli;

    fn plan_for(seed: u64, golden: bool) -> (Fragments, BasisPlan) {
        let (c, spec) = GoldenAnsatz::new(5, seed).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let basis = if golden {
            BasisPlan::with_neglected(vec![Some(Pauli::Y)])
        } else {
            BasisPlan::standard(1)
        };
        (frags, basis)
    }

    fn uniform(plan: &BasisPlan, shots: u64) -> ShotSchedule {
        ShotSchedule::uniform(
            plan.all_meas_settings().len(),
            plan.all_prep_settings().len(),
            shots,
        )
    }

    fn eigen_gather<B: Backend + ?Sized>(
        backend: &B,
        (frags, plan): &(Fragments, BasisPlan),
        schedule: &ShotSchedule,
    ) -> Result<FragmentData, Box<GraphFailure>> {
        gather(
            backend,
            frags,
            plan,
            ReconstructionMethod::Eigenstate,
            schedule,
            &RetryPolicy::default(),
        )
    }

    #[test]
    fn gather_fills_every_setting() {
        let backend = IdealBackend::new(3);
        let case = plan_for(0, false);
        let data = eigen_gather(&backend, &case, &uniform(&case.1, 500)).unwrap();
        assert_eq!(data.upstream.len(), 3);
        assert_eq!(data.downstream.len(), 6);
        assert_eq!(data.subcircuits, 9);
        assert_eq!(data.total_shots, 4500);
        for c in data.upstream.values().chain(data.downstream.values()) {
            assert_eq!(c.total(), 500);
        }
    }

    #[test]
    fn golden_gather_skips_y_settings() {
        let backend = IdealBackend::new(3);
        let case = plan_for(0, true);
        let data = eigen_gather(&backend, &case, &uniform(&case.1, 500)).unwrap();
        assert_eq!(data.subcircuits, 6);
        assert_eq!(data.total_shots, 3000);
    }

    #[test]
    fn scheduled_gather_records_the_realized_schedule() {
        // Under a non-uniform schedule the per-setting shot record must be
        // the actual counts, never the mean (the old `shots_per_setting`
        // field silently averaged).
        let backend = IdealBackend::new(5);
        let case = plan_for(2, false);
        let schedule = ShotSchedule {
            upstream: vec![100, 200, 300],
            downstream: vec![50, 60, 70, 80, 90, 100],
        };
        let data = eigen_gather(&backend, &case, &schedule).unwrap();
        assert_eq!(data.total_shots, schedule.total());
        for (i, setting) in case.1.all_meas_settings().iter().enumerate() {
            let key = encode_meas(setting);
            assert_eq!(data.shots_for_meas(key), schedule.upstream[i]);
            assert_eq!(data.upstream[&key].total(), schedule.upstream[i]);
        }
        for (i, preparation) in case.1.all_prep_settings().iter().enumerate() {
            let key = encode_prep(preparation);
            assert_eq!(data.shots_for_prep(key), schedule.downstream[i]);
        }
    }

    #[test]
    fn sequential_and_parallel_produce_same_shape() {
        let case = plan_for(1, false);
        let schedule = uniform(&case.1, 100);
        let par = eigen_gather(&IdealBackend::new(9), &case, &schedule).unwrap();
        let seq = eigen_gather(&Sequential(IdealBackend::new(9)), &case, &schedule).unwrap();
        assert_eq!(par.upstream, seq.upstream);
        assert_eq!(par.downstream, seq.downstream);
        assert_eq!(par.total_shots, seq.total_shots);
    }

    #[test]
    fn capacity_error_propagates() {
        use qcut_device::backend::BackendError;
        let backend = IdealBackend::new(0).with_capacity(2);
        let case = plan_for(0, false); // 3-qubit fragments
        let err = eigen_gather(&backend, &case, &uniform(&case.1, 10)).unwrap_err();
        assert!(!err.failures.is_empty());
        assert!(matches!(
            err.first_error(),
            Some(BackendError::CircuitTooWide { .. })
        ));
        // Every setting sat on a too-wide fragment: nothing salvaged.
        assert_eq!(err.salvage.stats.shots_executed, 0);
    }

    #[test]
    fn merge_accumulates_budgets() {
        let backend = IdealBackend::new(3);
        let case = plan_for(0, false);
        let mut a = eigen_gather(&backend, &case, &uniform(&case.1, 200)).unwrap();
        let b = eigen_gather(&backend, &case, &uniform(&case.1, 300)).unwrap();
        a.merge(&b);
        assert_eq!(a.total_shots, 4500);
        for c in a.upstream.values() {
            assert_eq!(c.total(), 500);
        }
        for &s in a.upstream_shots.values().chain(a.downstream_shots.values()) {
            assert_eq!(s, 500);
        }
    }
}
