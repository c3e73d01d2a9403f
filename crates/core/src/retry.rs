//! Retry, timeout, and failure-handling policies for graph execution.
//!
//! Real device fleets fail transiently — throttled submissions, dropped
//! jobs, mid-queue recalibrations — and the engine's answer is a
//! [`RetryPolicy`] honored by [`crate::jobgraph::JobGraph::execute`], the
//! one retry loop every backend (bare or pooled) runs through: only the
//! failed nodes of a batch are re-submitted (successful siblings are
//! salvaged, and any counts already seeded into a node still offset its
//! retry, so no shot is ever re-bought), a pool member's transient fault
//! first fails over to a sibling within the same round, and the backoff
//! between rounds is pure *accounting* — a [`Duration`] accumulated into
//! [`crate::jobgraph::GraphStats::backoff_wait`], never slept — so tests
//! replay deterministically without a wall clock.
//!
//! What happens when retries are exhausted is the pipeline's decision,
//! captured by [`FailurePolicy`]: fail the run with a typed error that
//! names the failed and salvaged nodes, or degrade — drop the affected
//! basis settings, renormalize the reconstruction, and return a report
//! with the damage itemised.

use std::time::Duration;

/// How long to wait before a retry. All delays are deterministic
/// accounting (summed into `GraphStats::backoff_wait`), never slept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backoff {
    /// Retry immediately.
    #[default]
    None,
    /// The same delay before every retry.
    Fixed(Duration),
    /// `base · factor^(n−1)` before the `n`-th retry, capped at `cap`.
    Exponential {
        /// Delay before the first retry.
        base: Duration,
        /// Multiplier per further retry.
        factor: u32,
        /// Upper bound on any single delay.
        cap: Duration,
    },
}

impl Backoff {
    /// The delay before the `n`-th retry (`n ≥ 1`; `n = 0` returns zero).
    pub fn delay(&self, n: u32) -> Duration {
        if n == 0 {
            return Duration::ZERO;
        }
        match *self {
            Backoff::None => Duration::ZERO,
            Backoff::Fixed(d) => d,
            Backoff::Exponential { base, factor, cap } => {
                let scale = factor.saturating_pow(n.saturating_sub(1));
                base.saturating_mul(scale).min(cap)
            }
        }
    }
}

/// Retry discipline for one graph execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total delivery attempts per node (1 = no retries; 0 is treated
    /// as 1).
    pub max_attempts: u32,
    /// Delay schedule between attempts (accounting only).
    pub backoff: Backoff,
    /// Deadline on a single job's *simulated* device time (from the
    /// backend's timing model): a job exceeding it counts as a
    /// [`qcut_device::backend::BackendError::Timeout`] — its counts are
    /// discarded, its device time is accrued as waste, and it is retried
    /// like any other transient fault. `None` disables the deadline.
    pub per_job_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    /// One attempt, no backoff, no deadline — exactly the pre-retry
    /// engine behaviour, so the fault-free path stays bit-identical.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Backoff::None,
            per_job_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` attempts and immediate retries.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..Self::default()
        }
    }
}

/// What the pipeline does when a node fails permanently (transient
/// retries exhausted, or a deterministic error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Return a typed error naming the failed nodes and the salvage
    /// state (which nodes succeeded). The default.
    #[default]
    Fail,
    /// Salvage the run: drop the basis settings served by failed nodes,
    /// renormalize the reconstruction over the surviving plan, widen the
    /// reported variance, and return `RunReport { degraded: true }` with
    /// per-node failure records instead of an error.
    Degrade,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_the_pre_retry_engine() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff, Backoff::None);
        assert_eq!(p.per_job_timeout, None);
        assert_eq!(FailurePolicy::default(), FailurePolicy::Fail);
    }

    #[test]
    fn exponential_backoff_grows_and_caps() {
        let b = Backoff::Exponential {
            base: Duration::from_millis(100),
            factor: 2,
            cap: Duration::from_millis(350),
        };
        assert_eq!(b.delay(0), Duration::ZERO);
        assert_eq!(b.delay(1), Duration::from_millis(100));
        assert_eq!(b.delay(2), Duration::from_millis(200));
        assert_eq!(b.delay(3), Duration::from_millis(350)); // capped from 400
        assert_eq!(b.delay(30), Duration::from_millis(350));
    }

    #[test]
    fn fixed_and_none_backoff() {
        assert_eq!(Backoff::None.delay(5), Duration::ZERO);
        let f = Backoff::Fixed(Duration::from_secs(1));
        assert_eq!(f.delay(1), Duration::from_secs(1));
        assert_eq!(f.delay(9), Duration::from_secs(1));
    }

    #[test]
    fn huge_exponents_saturate_instead_of_overflowing() {
        let b = Backoff::Exponential {
            base: Duration::from_secs(1),
            factor: 10,
            cap: Duration::from_secs(60),
        };
        assert_eq!(b.delay(u32::MAX), Duration::from_secs(60));
    }
}
