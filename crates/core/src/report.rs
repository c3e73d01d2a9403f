//! Run reports: everything the paper's figures plot.

use crate::allocation::ShotAllocation;
use crate::analysis::Diagnostic;
use crate::jobgraph::{Channel, NodeFailure};
use qcut_math::Pauli;
use serde::{Deserialize, Serialize};

/// One permanently failed engine node, as reported to callers: which
/// consumers (channel + setting key) lost their data, what the final
/// error was, and what it cost. It derives the workspace's `serde`
/// markers like every report type, but the vendored `serde` is a
/// marker-only stub: nothing serializes a record yet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// The consumers this node was serving — i.e. which basis settings
    /// lost their data.
    pub consumers: Vec<(Channel, u64)>,
    /// Rendered backend error of the final attempt.
    pub error: String,
    /// Delivery attempts made before giving up.
    pub attempts: u32,
    /// Shots requested from this node and never delivered.
    pub shots_lost: u64,
}

impl From<&NodeFailure> for FailureRecord {
    fn from(f: &NodeFailure) -> Self {
        FailureRecord {
            consumers: f.consumers.clone(),
            error: f.error.to_string(),
            attempts: f.attempts,
            shots_lost: f.shots_lost,
        }
    }
}

/// Accounting of one cut-circuit execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Number of cuts `K`.
    pub num_cuts: usize,
    /// Neglected bases per cut (empty = regular cut).
    pub neglected: Vec<Vec<Pauli>>,
    /// The shot-allocation policy the gather was scheduled under.
    pub allocation: ShotAllocation,
    /// Upstream measurement settings executed.
    pub upstream_settings: usize,
    /// Downstream preparations executed.
    pub downstream_settings: usize,
    /// Total subcircuits executed (`upstream + downstream`; the quantity
    /// the golden method shrinks 9 → 6 per cut).
    pub subcircuits_executed: usize,
    /// Fresh device shots executed for the main gather round (Fig. 5's
    /// 4.5e5 → 3.0e5). Excludes [`RunReport::detection_shots`],
    /// [`RunReport::pilot_shots`], and anything the engine saved via
    /// dedup/reuse (see [`RunReport::shots_saved`]), so total device work
    /// is `detection_shots + pilot_shots + total_shots` with no
    /// double-counting of reused measurements.
    pub total_shots: u64,
    /// Fresh device shots executed by the uniform pilot round of a
    /// two-round [`crate::allocation::ShotAllocation::Adaptive`] run
    /// (0 on single-round policies).
    pub pilot_shots: u64,
    /// Gather rounds executed: 1 for every single-round policy, 2 for an
    /// adaptive pilot → refine run (online-detection batches are not
    /// gather rounds and are accounted separately).
    pub rounds: usize,
    /// Shots requested across every engine job of the run (detection
    /// rounds + pilot/gather fan-out edges, before dedup/reuse). The
    /// exact-accounting invariant is `shots_requested = detection_shots +
    /// pilot_shots + total_shots + shots_saved + cache_shots_reused +
    /// shots_lost`.
    pub shots_requested: u64,
    /// Jobs registered on the JobGraph engine across the whole run
    /// (detection rounds + gather fan-out edges).
    pub jobs_planned: usize,
    /// Unique jobs the engine actually submitted to the backend after
    /// structural dedup and cache reuse (`jobs_executed ≤ jobs_planned`).
    pub jobs_executed: usize,
    /// Shots the engine did *not* have to execute because structurally
    /// identical jobs were merged or same-run data (detection batches,
    /// the adaptive pilot) was reused. Cross-run warm-start reuse is
    /// accounted separately in [`RunReport::cache_shots_reused`].
    pub shots_saved: u64,
    /// Engine nodes whose histogram was served (at least partly) from the
    /// cross-run warm-start cache (0 when no cache was configured).
    pub cache_hits: u64,
    /// Shots served from persistent warm-start cache entries instead of
    /// being executed — the cross-run term of the accounting invariant on
    /// [`RunReport::shots_requested`].
    pub cache_shots_reused: u64,
    /// Simulator fork states served from the backend's tier-2 state cache
    /// across this run's batches (0 when the backend has none attached).
    pub states_reused: u64,
    /// Gate applications the backend performed simulating all engine
    /// batches of this run (shared circuit prefixes counted once on
    /// prefix-sharing backends).
    pub gates_applied: u64,
    /// Gate applications prefix sharing eliminated (`0` on non-sharing
    /// backends and sequential reference runs).
    pub gates_saved: u64,
    /// Terms in the reconstruction contraction (`4^{K_r} 3^{K_g}`).
    pub reconstruction_terms: usize,
    /// Simulated device occupation time in seconds (Fig. 5's wall time).
    pub simulated_device_seconds: f64,
    /// Host time gathering fragment data (classical simulation cost).
    pub gather_seconds: f64,
    /// Host time spent in classical reconstruction.
    pub reconstruct_seconds: f64,
    /// Extra shots spent by online golden detection (0 otherwise).
    pub detection_shots: u64,
    /// Host time spent detecting golden points.
    pub detection_seconds: f64,
    /// Total per-job delivery attempts across every engine submission of
    /// the run (`jobs_executed` when nothing was retried).
    pub attempts: u64,
    /// Job re-submissions after transient faults or timeouts.
    pub jobs_retried: u64,
    /// Shots requested from permanently failed nodes and never delivered
    /// — the loss term of the [`RunReport::shots_requested`] invariant.
    pub shots_lost: u64,
    /// Deterministic backoff accounting in seconds: what a wall-clock
    /// retry loop would have waited between attempts (never slept).
    pub backoff_seconds: f64,
    /// Jobs delivered by each [`qcut_device::pool::BackendPool`] member
    /// across the run's engine submissions, indexed by member position.
    /// Empty on single-backend runs. A job that failed over counts for
    /// the sibling that delivered it.
    pub jobs_per_member: Vec<u64>,
    /// Simulated device seconds each pool member spent (including
    /// timed-out attempts). The sharded wall-clock of the gather is the
    /// max entry; empty on single-backend runs.
    pub member_makespan_seconds: Vec<f64>,
    /// Σ member makespans / max member makespan: how evenly the pool's
    /// members shared the device time — `N` for a perfect `N`-way split,
    /// `1.0` on single-backend runs.
    pub pool_parallel_ratio: f64,
    /// Jobs a transiently failing pool member handed to a healthy sibling
    /// that then delivered them (0 on single-backend runs).
    pub jobs_failed_over: u64,
    /// True when permanent node failures were salvaged under
    /// [`crate::retry::FailurePolicy::Degrade`]: the affected basis
    /// settings were dropped, the reconstruction was renormalized over
    /// the surviving plan, and [`RunReport::failures`] itemises the
    /// damage.
    pub degraded: bool,
    /// Per-node failure records of a degraded run (empty when
    /// [`RunReport::degraded`] is false).
    pub failures: Vec<FailureRecord>,
    /// How much wider the degraded reconstruction's variance should be
    /// read: the ratio of the originally planned reconstruction terms to
    /// the surviving ones (`1.0` on clean runs). A heuristic inflation —
    /// fewer surviving terms means fewer independent estimates averaged
    /// into the same distribution.
    pub variance_inflation: f64,
    /// Warn-level findings of the pre-execution static analysis pass,
    /// plus runtime cache notices (`QA403` when a configured cache file
    /// failed to load or persist). Empty when the workload linted clean,
    /// nothing degraded, and analysis was disabled.
    pub diagnostics: Vec<Diagnostic>,
}

impl RunReport {
    /// Total end-to-end host seconds (gather + reconstruct + detection) —
    /// the Fig. 4 quantity.
    pub fn total_host_seconds(&self) -> f64 {
        self.gather_seconds + self.reconstruct_seconds + self.detection_seconds
    }

    /// Number of golden cuts in this run.
    pub fn num_golden(&self) -> usize {
        self.neglected.iter().filter(|n| !n.is_empty()).count()
    }

    /// Fraction of planned engine jobs eliminated by dedup/reuse
    /// (`0.0` when every planned job was executed).
    pub fn dedup_ratio(&self) -> f64 {
        if self.jobs_planned == 0 {
            0.0
        } else {
            1.0 - self.jobs_executed as f64 / self.jobs_planned as f64
        }
    }

    /// Fraction of simulation gate applications eliminated by prefix
    /// sharing (`0.0` when nothing was shared).
    pub fn prefix_sharing_ratio(&self) -> f64 {
        let naive = self.gates_applied + self.gates_saved;
        if naive == 0 {
            0.0
        } else {
            self.gates_saved as f64 / naive as f64
        }
    }
}

/// Report for an uncut reference execution (the Fig. 3 baseline arm).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UncutReport {
    /// Shots executed.
    pub shots: u64,
    /// Simulated device seconds.
    pub simulated_device_seconds: f64,
    /// Host seconds.
    pub host_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let r = RunReport {
            num_cuts: 1,
            neglected: vec![vec![Pauli::Y]],
            allocation: ShotAllocation::Uniform {
                shots_per_setting: 1000,
            },
            upstream_settings: 2,
            downstream_settings: 4,
            subcircuits_executed: 6,
            total_shots: 6000,
            pilot_shots: 0,
            rounds: 1,
            shots_requested: 6000,
            jobs_planned: 6,
            jobs_executed: 6,
            shots_saved: 0,
            cache_hits: 0,
            cache_shots_reused: 0,
            states_reused: 0,
            gates_applied: 30,
            gates_saved: 70,
            reconstruction_terms: 3,
            simulated_device_seconds: 12.6,
            gather_seconds: 0.5,
            reconstruct_seconds: 0.1,
            detection_shots: 0,
            detection_seconds: 0.0,
            attempts: 6,
            jobs_retried: 0,
            shots_lost: 0,
            backoff_seconds: 0.0,
            jobs_per_member: Vec::new(),
            member_makespan_seconds: Vec::new(),
            pool_parallel_ratio: 1.0,
            jobs_failed_over: 0,
            degraded: false,
            failures: Vec::new(),
            variance_inflation: 1.0,
            diagnostics: Vec::new(),
        };
        assert!((r.total_host_seconds() - 0.6).abs() < 1e-12);
        assert_eq!(r.num_golden(), 1);
        assert_eq!(r.dedup_ratio(), 0.0);
        assert!((r.prefix_sharing_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn failure_records_render_node_failures() {
        use qcut_device::backend::{BackendError, TransientKind};
        let node = NodeFailure {
            node: 3,
            consumers: vec![(Channel::UpstreamMeas, 1), (Channel::DownstreamPrep, 7)],
            error: BackendError::Transient {
                kind: TransientKind::Network,
                attempt: 2,
            },
            attempts: 2,
            shots_lost: 1500,
        };
        let rec = FailureRecord::from(&node);
        assert_eq!(rec.consumers, node.consumers);
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.shots_lost, 1500);
        assert!(rec.error.contains("network"), "{}", rec.error);
    }
}
