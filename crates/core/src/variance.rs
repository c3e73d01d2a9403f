//! Shot-noise variance propagation through the reconstruction contraction.
//!
//! The paper's §IV closes on exactly this question: online decisions
//! "would require further statistical analysis of acceptable error and the
//! amplification of error through tensor contraction". This module provides
//! that analysis for the estimator itself: a per-bitstring variance
//! estimate of the reconstructed quasi-probability
//!
//! ```text
//! p̂(b) = 2^{-K} Σ_M Â[M][b1] · D̂[M][b2]
//! ```
//!
//! where `Â` and `D̂` come from *independent* measurement runs. Using
//! independence and the delta method,
//!
//! ```text
//! Var[p̂(b)] ≈ 4^{-K} Σ_M ( A² Var[D] + D² Var[A] + Var[A]Var[D] )
//! ```
//!
//! plus cross-`M` covariance terms for strings sharing a measurement
//! setting or preparation; we bound those conservatively by accumulating
//! per-setting contributions coherently (an upper-bound flavour suitable
//! for error bars). Per-coefficient variances come from the multinomial:
//! a signed-sum coefficient estimated from `N` shots has
//! `Var ≤ (1 − coeff²)/N ≤ 1/N`.
//!
//! The estimate is validated against the empirical trial-to-trial variance
//! in the tests below. The same machinery scores candidate schedules
//! before execution ([`variance_from_schedule`]) and drives the two-round
//! adaptive allocation's per-setting Neyman weights ([`neyman_scores`]).
//!
//! # Example
//!
//! The predicted RMS error follows the `1/√N` law, so budgets can be
//! sized before anything executes:
//!
//! ```
//! use qcut_circuit::ansatz::GoldenAnsatz;
//! use qcut_core::basis::BasisPlan;
//! use qcut_core::fragment::Fragmenter;
//! use qcut_core::reconstruction::{exact_downstream_tensor, exact_upstream_tensor};
//! use qcut_core::variance::predicted_rms_for_budget;
//!
//! let (circuit, cut) = GoldenAnsatz::new(5, 7).build();
//! let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
//! let plan = BasisPlan::standard(1);
//! let up = exact_upstream_tensor(&frags.upstream, &plan);
//! let down = exact_downstream_tensor(&frags.downstream, &plan);
//! // 4× the shots halve the predicted error.
//! let rms_1k = predicted_rms_for_budget(&frags, &plan, &up, &down, 1000);
//! let rms_4k = predicted_rms_for_budget(&frags, &plan, &up, &down, 4000);
//! assert!((rms_1k / rms_4k - 2.0).abs() < 0.05);
//! ```

use crate::allocation::ShotSchedule;
use crate::basis::{encode_meas, encode_prep, BasisPlan};
use crate::execution::FragmentData;
use crate::fragment::Fragments;
use crate::reconstruction::{downstream_tensor, upstream_tensor, CoefficientTensor};
use qcut_math::Pauli;
use qcut_stats::distribution::Distribution;
use std::collections::HashMap;

/// Per-bitstring standard errors of a reconstructed distribution.
#[derive(Debug, Clone)]
pub struct ReconstructionError {
    num_bits: usize,
    variance: Vec<f64>,
}

impl ReconstructionError {
    /// Number of bits.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Variance estimate for one bitstring.
    pub fn variance(&self, bits: u64) -> f64 {
        self.variance[bits as usize]
    }

    /// Standard error for one bitstring.
    pub fn std_error(&self, bits: u64) -> f64 {
        self.variance(bits).sqrt()
    }

    /// Root-mean-square standard error across all outcomes — a single
    /// figure of merit for "how noisy is this reconstruction".
    pub fn rms_error(&self) -> f64 {
        (self.variance.iter().sum::<f64>() / self.variance.len() as f64).sqrt()
    }

    /// The largest per-outcome standard error.
    pub fn max_error(&self) -> f64 {
        self.variance.iter().fold(0.0f64, |a, &v| a.max(v)).sqrt()
    }
}

/// Estimates the shot-noise variance of [`crate::reconstruction::reconstruct`]'s
/// output, from the same fragment data.
///
/// Per-string variances come from the *realized* per-setting shot counts
/// in `data` (the delivered histogram totals), so the estimate stays
/// correct under non-uniform [`crate::allocation::ShotAllocation`]
/// schedules and when engine dedup delivered merged histograms larger
/// than a setting's request.
pub fn reconstruction_variance(
    fragments: &Fragments,
    plan: &BasisPlan,
    data: &FragmentData,
) -> ReconstructionError {
    let up = upstream_tensor(&fragments.upstream, plan, data);
    let down = downstream_tensor(&fragments.downstream, plan, data);
    variance_core(fragments, plan, &up, &down, |m| {
        string_vars(plan, m, &data.upstream_shots, &data.downstream_shots)
    })
}

/// The per-string variance pair `(Var[A], Var[D])` under explicit
/// per-setting shot counts: the upstream coefficient of string `m` is
/// estimated from its measurement setting's `N` shots (`Var ≤ 1/N`); the
/// downstream coefficient is a signed sum over the string's `2^K` prep
/// combinations, each contributing `1/N_combo`.
fn string_vars(
    plan: &BasisPlan,
    m: &[Pauli],
    meas_shots: &HashMap<u64, u64>,
    prep_shots: &HashMap<u64, u64>,
) -> (f64, f64) {
    // A missing setting is a plan/data mismatch — fail loudly like the
    // tensor builders do, instead of silently returning 1-shot variance.
    let shots_of = |map: &HashMap<u64, u64>, key: u64| -> f64 {
        let n = *map
            .get(&key)
            .unwrap_or_else(|| panic!("missing shot record for setting key {key} of {m:?}"));
        n.max(1) as f64
    };
    let var_a = 1.0 / shots_of(meas_shots, encode_meas(&plan.setting_for(m)));
    let num_cuts = plan.num_cuts();
    let pairs: Vec<_> = (0..num_cuts).map(|k| plan.prep_pair(k, m[k])).collect();
    let mut var_d = 0.0;
    for combo in 0..(1usize << num_cuts) {
        let states: Vec<_> = pairs
            .iter()
            .enumerate()
            .map(|(k, pair)| pair[(combo >> k) & 1].0)
            .collect();
        var_d += 1.0 / shots_of(prep_shots, encode_prep(&states));
    }
    (var_a, var_d)
}

/// Variance estimate from explicit tensors and a (uniform) per-setting shot
/// budget.
pub fn variance_from_tensors(
    fragments: &Fragments,
    plan: &BasisPlan,
    upstream: &CoefficientTensor,
    downstream: &CoefficientTensor,
    shots_per_setting: u64,
) -> ReconstructionError {
    let shots = shots_per_setting.max(1) as f64;
    // Per-coefficient variance bound from the multinomial signed sum.
    // Downstream coefficients are 2^K-term signed sums of independent
    // preparations, each with variance ≤ 1/N.
    let k = plan.num_cuts() as i32;
    let var_a = 1.0 / shots;
    let var_d = 2.0f64.powi(k) / shots;
    variance_core(fragments, plan, upstream, downstream, |_| (var_a, var_d))
}

/// Variance estimate from explicit tensors and a *requested* per-setting
/// schedule (aligned with the plan's enumerations, as produced by
/// [`crate::allocation::schedule_for_plan`]). Deterministic given exact
/// tensors — the planning-time counterpart of [`reconstruction_variance`],
/// used to compare allocation policies before anything executes.
pub fn variance_from_schedule(
    fragments: &Fragments,
    plan: &BasisPlan,
    upstream: &CoefficientTensor,
    downstream: &CoefficientTensor,
    schedule: &ShotSchedule,
) -> ReconstructionError {
    let meas_settings = plan.all_meas_settings();
    let prep_settings = plan.all_prep_settings();
    assert_eq!(
        schedule.upstream.len(),
        meas_settings.len(),
        "schedule arity"
    );
    assert_eq!(
        schedule.downstream.len(),
        prep_settings.len(),
        "schedule arity"
    );
    let meas_shots: HashMap<u64, u64> = meas_settings
        .iter()
        .zip(&schedule.upstream)
        .map(|(s, &n)| (encode_meas(s), n))
        .collect();
    let prep_shots: HashMap<u64, u64> = prep_settings
        .iter()
        .zip(&schedule.downstream)
        .map(|(s, &n)| (encode_prep(s), n))
        .collect();
    variance_core(fragments, plan, upstream, downstream, |m| {
        string_vars(plan, m, &meas_shots, &prep_shots)
    })
}

/// Per-setting Neyman scores for the two-round adaptive allocation,
/// aligned with [`BasisPlan::all_meas_settings`] /
/// [`BasisPlan::all_prep_settings`] order.
#[derive(Debug, Clone)]
pub struct NeymanScores {
    /// One score per upstream measurement setting.
    pub upstream: Vec<f64>,
    /// One score per downstream eigenstate preparation.
    pub downstream: Vec<f64>,
}

/// Scores each setting's first-order contribution to the reconstruction
/// variance, from (pilot-)empirical tensors.
///
/// Under the same per-coefficient model [`variance_from_schedule`]
/// evaluates (`Var[Â_M] ≤ 1/N_setting`, `Var[D̂_M] ≤ Σ_combo 1/N_prep`),
/// the total variance is — up to the second-order `Var·Var` cross term —
/// *linear in the per-setting `1/N`*:
///
/// ```text
/// Σ_b Var[p̂(b)] ≈ 4^{-K} ( Σ_s c_s/N_s + Σ_p c_p/N_p )
/// c_s = 2^{n1} Σ_{M ∈ s}        ‖D̂[M]‖²     (upstream setting s)
/// c_p = 2^{n2} Σ_{(M,combo) ∋ p} ‖Â[M]‖²     (downstream prep p)
/// ```
///
/// Minimising that subject to a fixed `Σ N` is the classic Neyman
/// allocation `N_i ∝ √c_i`, and `√c_i` is exactly the returned score: the
/// usage count rides in the number of summands, the coefficient magnitude
/// in the tensor norms, and the per-shot dispersion `σ̂ ≤ 1` in the
/// multinomial bound the variance model already uses. Settings whose
/// consuming strings have (near-)vanishing coefficients — e.g. next to a
/// golden cut — score near zero and stop drawing budget, which is the
/// paper's neglection economy applied to *shots* instead of subcircuits.
///
/// The downstream half of a SIC gather is informationally complete and
/// uniformly read through the frame solve, so the pipeline only consumes
/// the `upstream` half there (pass the SIC tensor as `downstream`).
pub fn neyman_scores(
    fragments: &Fragments,
    plan: &BasisPlan,
    upstream: &CoefficientTensor,
    downstream: &CoefficientTensor,
) -> NeymanScores {
    let n1 = fragments.upstream.num_outputs() as i32;
    let n2 = fragments.downstream.num_outputs() as i32;
    let num_cuts = plan.num_cuts();
    let mut up_contrib: HashMap<u64, f64> = HashMap::new();
    let mut down_contrib: HashMap<u64, f64> = HashMap::new();
    for m in plan.all_recon_strings() {
        let norm_sq = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        let a_sq = norm_sq(upstream.get(&m).expect("upstream entry"));
        let d_sq = norm_sq(downstream.get(&m).expect("downstream entry"));
        *up_contrib
            .entry(encode_meas(&plan.setting_for(&m)))
            .or_insert(0.0) += 2.0f64.powi(n1) * d_sq;
        let pairs: Vec<_> = (0..num_cuts).map(|k| plan.prep_pair(k, m[k])).collect();
        for combo in 0..(1usize << num_cuts) {
            let states: Vec<_> = pairs
                .iter()
                .enumerate()
                .map(|(k, pair)| pair[(combo >> k) & 1].0)
                .collect();
            *down_contrib.entry(encode_prep(&states)).or_insert(0.0) += 2.0f64.powi(n2) * a_sq;
        }
    }
    NeymanScores {
        upstream: plan
            .all_meas_settings()
            .iter()
            .map(|s| {
                up_contrib
                    .get(&encode_meas(s))
                    .copied()
                    .unwrap_or(0.0)
                    .sqrt()
            })
            .collect(),
        downstream: plan
            .all_prep_settings()
            .iter()
            .map(|s| {
                down_contrib
                    .get(&encode_prep(s))
                    .copied()
                    .unwrap_or(0.0)
                    .sqrt()
            })
            .collect(),
    }
}

/// The shared contraction-propagation pass: accumulates per-bitstring
/// variance with per-string `(Var[A], Var[D])` supplied by `vars_for`.
fn variance_core(
    fragments: &Fragments,
    plan: &BasisPlan,
    upstream: &CoefficientTensor,
    downstream: &CoefficientTensor,
    vars_for: impl Fn(&[Pauli]) -> (f64, f64),
) -> ReconstructionError {
    let n = fragments.total_qubits;
    let n1 = fragments.upstream.num_outputs();
    let n2 = fragments.downstream.num_outputs();
    let k = plan.num_cuts() as i32;
    let scale = 0.25f64.powi(k);

    let strings = plan.all_recon_strings();
    let t1: Vec<u64> = (0..(1u64 << n1))
        .map(|b| assemble(b, &fragments.upstream.output_globals))
        .collect();
    let t2: Vec<u64> = (0..(1u64 << n2))
        .map(|b| assemble(b, &fragments.downstream.output_globals))
        .collect();

    let mut variance = vec![0.0f64; 1 << n];
    for m in &strings {
        let a = upstream.get(m).expect("upstream entry");
        let d = downstream.get(m).expect("downstream entry");
        let (var_a, var_d) = vars_for(m);
        for (b1, &av) in a.iter().enumerate() {
            for (b2, &dv) in d.iter().enumerate() {
                let idx = (t1[b1] | t2[b2]) as usize;
                variance[idx] += scale * (av * av * var_d + dv * dv * var_a + var_a * var_d);
            }
        }
    }
    ReconstructionError {
        num_bits: n,
        variance,
    }
}

/// Predicted RMS error as a function of the shot budget — useful for
/// picking `shots_per_setting` before running (inverse-square-root law).
pub fn predicted_rms_for_budget(
    fragments: &Fragments,
    plan: &BasisPlan,
    upstream: &CoefficientTensor,
    downstream: &CoefficientTensor,
    shots_per_setting: u64,
) -> f64 {
    variance_from_tensors(fragments, plan, upstream, downstream, shots_per_setting).rms_error()
}

fn assemble(bits: u64, globals: &[usize]) -> u64 {
    let mut out = 0u64;
    for (i, &g) in globals.iter().enumerate() {
        out |= ((bits >> i) & 1) << g;
    }
    out
}

/// Empirical counterpart used in the validation tests: the per-outcome
/// variance across repeated reconstructions.
pub fn empirical_variance(distributions: &[Distribution]) -> Vec<f64> {
    assert!(!distributions.is_empty());
    let dim = distributions[0].dim();
    let n = distributions.len() as f64;
    let mut mean = vec![0.0f64; dim];
    for d in distributions {
        for (m, v) in mean.iter_mut().zip(d.values()) {
            *m += v / n;
        }
    }
    let mut var = vec![0.0f64; dim];
    for d in distributions {
        for ((v, m), out) in d.values().iter().zip(&mean).zip(var.iter_mut()) {
            *out += (v - m) * (v - m) / (n - 1.0);
        }
    }
    var
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::ShotAllocation;
    use crate::execution::gather;
    use crate::fragment::Fragmenter;
    use crate::pipeline::ReconstructionMethod;
    use crate::reconstruction::{exact_downstream_tensor, exact_upstream_tensor, reconstruct};
    use crate::retry::RetryPolicy;
    use qcut_circuit::ansatz::GoldenAnsatz;
    use qcut_device::ideal::IdealBackend;
    use qcut_math::Pauli;

    /// A uniform eigenstate gather at `shots` per setting.
    fn uniform_gather(
        backend: &IdealBackend,
        frags: &Fragments,
        plan: &BasisPlan,
        shots: u64,
    ) -> FragmentData {
        let method = ReconstructionMethod::Eigenstate;
        let schedule = method
            .schedule(
                plan,
                ShotAllocation::Uniform {
                    shots_per_setting: shots,
                },
            )
            .unwrap();
        gather(
            backend,
            frags,
            plan,
            method,
            &schedule,
            &RetryPolicy::default(),
        )
        .unwrap()
    }

    #[test]
    fn variance_scales_inversely_with_shots() {
        let (circuit, spec) = GoldenAnsatz::new(5, 5).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let up = exact_upstream_tensor(&frags.upstream, &plan);
        let down = exact_downstream_tensor(&frags.downstream, &plan);
        let rms_1k = predicted_rms_for_budget(&frags, &plan, &up, &down, 1000);
        let rms_4k = predicted_rms_for_budget(&frags, &plan, &up, &down, 4000);
        assert!(
            (rms_1k / rms_4k - 2.0).abs() < 0.05,
            "expected 1/sqrt(N) scaling: {rms_1k} vs {rms_4k}"
        );
    }

    #[test]
    fn golden_plan_has_lower_variance_per_equal_setting_budget() {
        // Fewer contraction terms = less accumulated noise at equal
        // per-setting shots — a quantitative version of the paper's "no
        // accuracy cost" claim.
        let (circuit, spec) = GoldenAnsatz::new(5, 7).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let standard = BasisPlan::standard(1);
        let golden = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
        let rms = |plan: &BasisPlan| {
            let up = exact_upstream_tensor(&frags.upstream, plan);
            let down = exact_downstream_tensor(&frags.downstream, plan);
            predicted_rms_for_budget(&frags, plan, &up, &down, 1000)
        };
        assert!(
            rms(&golden) <= rms(&standard) + 1e-12,
            "golden variance should not exceed standard"
        );
    }

    #[test]
    fn predicted_variance_tracks_empirical_variance() {
        // The acid test: run many independent reconstructions and compare
        // the trial-to-trial spread to the prediction. The prediction is a
        // mild upper bound (coherent cross-term accumulation), so empirical
        // ≤ predicted within a small factor, and not wildly smaller.
        let (circuit, spec) = GoldenAnsatz::new(5, 9).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let shots = 2000u64;

        let trials = 24;
        let mut dists = Vec::with_capacity(trials);
        let mut predicted_rms = 0.0;
        for t in 0..trials {
            let backend = IdealBackend::new(9000 + t as u64);
            let data = uniform_gather(&backend, &frags, &plan, shots);
            dists.push(reconstruct(&frags, &plan, &data));
            if t == 0 {
                predicted_rms = reconstruction_variance(&frags, &plan, &data).rms_error();
            }
        }
        let emp = empirical_variance(&dists);
        let empirical_rms = (emp.iter().sum::<f64>() / emp.len() as f64).sqrt();
        assert!(
            empirical_rms < predicted_rms * 1.6,
            "empirical {empirical_rms} should not exceed prediction {predicted_rms}"
        );
        assert!(
            empirical_rms > predicted_rms / 12.0,
            "prediction {predicted_rms} is uselessly loose vs empirical {empirical_rms}"
        );
    }

    #[test]
    fn realized_variance_matches_uniform_formula_on_uniform_data() {
        // On a uniform gather the per-setting realized shots all equal the
        // nominal budget, so the schedule-aware estimate must agree with
        // the closed-form uniform one.
        let (circuit, spec) = GoldenAnsatz::new(5, 13).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let backend = IdealBackend::new(55);
        let shots = 1500u64;
        let data = uniform_gather(&backend, &frags, &plan, shots);
        let up = upstream_tensor(&frags.upstream, &plan, &data);
        let down = downstream_tensor(&frags.downstream, &plan, &data);
        let realized = reconstruction_variance(&frags, &plan, &data);
        let uniform = variance_from_tensors(&frags, &plan, &up, &down, shots);
        for b in 0..(1u64 << 5) {
            assert!(
                (realized.variance(b) - uniform.variance(b)).abs() < 1e-12,
                "bitstring {b}: realized {} vs uniform {}",
                realized.variance(b),
                uniform.variance(b)
            );
        }
    }

    #[test]
    fn scheduled_variance_tracks_the_skew() {
        // Moving budget onto the Z setting must lower the Z/I strings'
        // upstream variance contribution and raise X/Y's; the aggregate
        // figure reacts to *where* the shots went, which the old nominal
        // mean could not see.
        use crate::allocation::{schedule_for_plan, ShotAllocation};
        let (circuit, spec) = GoldenAnsatz::new(5, 15).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let up = exact_upstream_tensor(&frags.upstream, &plan);
        let down = exact_downstream_tensor(&frags.downstream, &plan);
        let total = 9_000u64;
        let uniform = schedule_for_plan(&plan, ShotAllocation::TotalBudget { total }).unwrap();
        let weighted = schedule_for_plan(&plan, ShotAllocation::WeightedByUsage { total }).unwrap();
        assert_eq!(uniform.total(), weighted.total());
        let rms_u = variance_from_schedule(&frags, &plan, &up, &down, &uniform).rms_error();
        let rms_w = variance_from_schedule(&frags, &plan, &up, &down, &weighted).rms_error();
        assert!(rms_u > 0.0 && rms_w > 0.0);
        assert!(
            (rms_u - rms_w).abs() / rms_u < 0.5,
            "same total budget should land in the same ballpark: {rms_u} vs {rms_w}"
        );
        // And the uniform special case of the schedule API reproduces the
        // closed-form constant-budget estimate exactly.
        let per_setting = crate::allocation::ShotSchedule::uniform(3, 6, 1000);
        let a = variance_from_schedule(&frags, &plan, &up, &down, &per_setting);
        let b = variance_from_tensors(&frags, &plan, &up, &down, 1000);
        for bits in 0..(1u64 << 5) {
            assert!((a.variance(bits) - b.variance(bits)).abs() < 1e-15);
        }
    }

    #[test]
    fn neyman_scores_track_usage_and_coefficient_magnitude() {
        // On the golden ansatz the Y-string coefficients vanish upstream,
        // so every prep combination serving only the Y string scores ~0,
        // while the Z setting (read by I *and* Z) outscores X.
        let (circuit, spec) = GoldenAnsatz::new(5, 3).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let up = exact_upstream_tensor(&frags.upstream, &plan);
        let down = exact_downstream_tensor(&frags.downstream, &plan);
        let scores = neyman_scores(&frags, &plan, &up, &down);
        assert_eq!(scores.upstream.len(), 3);
        assert_eq!(scores.downstream.len(), 6);
        use crate::basis::MeasBasis;
        let idx = |b: MeasBasis| {
            plan.all_meas_settings()
                .iter()
                .position(|s| s == &vec![b])
                .unwrap()
        };
        assert!(
            scores.upstream[idx(MeasBasis::Z)] > scores.upstream[idx(MeasBasis::X)],
            "Z (2 consuming strings) must outscore X (1): {:?}",
            scores.upstream
        );
        // The Y-only preparations (Yp/Ym) read a vanishing ‖Â[Y]‖².
        use qcut_math::PrepState;
        let pidx = |p: PrepState| {
            plan.all_prep_settings()
                .iter()
                .position(|s| s == &vec![p])
                .unwrap()
        };
        assert!(
            scores.downstream[pidx(PrepState::Yp)] < 1e-6,
            "Y-prep score should vanish on the golden ansatz: {:?}",
            scores.downstream
        );
        assert!(scores.downstream[pidx(PrepState::Zp)] > 0.1);
    }

    #[test]
    fn neyman_refined_schedule_beats_usage_weights_on_skewed_plans() {
        // The payoff the adaptive policy banks on: refining by the
        // measured per-setting sensitivities lowers the scheduled variance
        // below the static usage split at equal total budget.
        use crate::allocation::ShotAllocation;
        use crate::allocation::{pilot_schedule, pilot_total, refine_schedule, schedule_for_plan};
        let (circuit, spec) = GoldenAnsatz::new(5, 21).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let up = exact_upstream_tensor(&frags.upstream, &plan);
        let down = exact_downstream_tensor(&frags.downstream, &plan);
        let total = 90_000u64;
        let pilot = pilot_total(0.1, total);
        let pilot_sched = pilot_schedule(3, 6, pilot).unwrap();
        let scores = neyman_scores(&frags, &plan, &up, &down);
        let adaptive = refine_schedule(
            &pilot_sched,
            &scores.upstream,
            &scores.downstream,
            total - pilot,
        );
        assert_eq!(adaptive.total(), total);
        let weighted = schedule_for_plan(&plan, ShotAllocation::WeightedByUsage { total }).unwrap();
        let rms_a = variance_from_schedule(&frags, &plan, &up, &down, &adaptive).rms_error();
        let rms_w = variance_from_schedule(&frags, &plan, &up, &down, &weighted).rms_error();
        assert!(
            rms_a <= rms_w * 1.0001,
            "Neyman-refined RMS {rms_a} should not exceed usage-weighted {rms_w}"
        );
    }

    #[test]
    fn error_object_accessors() {
        let (circuit, spec) = GoldenAnsatz::new(5, 11).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let backend = IdealBackend::new(77);
        let data = uniform_gather(&backend, &frags, &plan, 1000);
        let err = reconstruction_variance(&frags, &plan, &data);
        assert_eq!(err.num_bits(), 5);
        assert!(err.variance(0) > 0.0);
        assert!(err.std_error(0) > 0.0);
        assert!(err.max_error() >= err.rms_error());
    }

    #[test]
    fn empirical_variance_of_identical_distributions_is_zero() {
        let d = Distribution::uniform(2);
        let var = empirical_variance(&[d.clone(), d.clone(), d]);
        assert!(var.iter().all(|&v| v.abs() < 1e-15));
    }
}
