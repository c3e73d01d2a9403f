//! Tensor reconstruction: combining fragment data into the uncut circuit's
//! bitstring distribution (paper Eq. 13/14).
//!
//! For every reconstruction Pauli string `M ∈ B^K` (with neglected bases
//! removed) two coefficient vectors are assembled:
//!
//! * upstream `A[M][b1] = Σ_r (Π_k r_k) · P(b1, r | setting(M))` — the
//!   eigenvalue-weighted joint statistics of the fragment outputs `b1` and
//!   the cut-qubit outcomes `r`;
//! * downstream `D[M][b2] = Σ_s (Π_k w_k) · P(b2 | prep(M, s))` — the
//!   signed sum over the preparation pair of each cut.
//!
//! The distribution is then the contraction
//! `p(b1 ⊕ b2) = 2^{-K} Σ_M A[M][b1] · D[M][b2]`, parallelised over `b1`.
//! Exact (infinite-shot) tensors computed from the state-vector simulator
//! are provided both for unit-testing the identity and for the exact
//! golden-point detector.

use crate::basis::{encode_meas, encode_paulis, encode_prep, BasisPlan};
use crate::execution::FragmentData;
use crate::fragment::{Fragment, FragmentRole, Fragments};
use crate::tomography::{build_downstream_circuit, build_upstream_circuit};
use qcut_math::Pauli;
use qcut_sim::statevector::StateVector;
use qcut_stats::distribution::Distribution;
use rayon::prelude::*;
use std::collections::HashMap;

/// Coefficient vectors per reconstruction Pauli string.
#[derive(Debug, Clone)]
pub struct CoefficientTensor {
    /// `encode_paulis(M)` → vector over output bitstrings.
    entries: HashMap<u64, Vec<f64>>,
    num_outputs: usize,
}

impl CoefficientTensor {
    /// Builds a tensor from raw entries (used by the SIC assembly path).
    pub fn from_entries(entries: HashMap<u64, Vec<f64>>, num_outputs: usize) -> Self {
        CoefficientTensor {
            entries,
            num_outputs,
        }
    }

    /// The coefficient vector for a Pauli string.
    pub fn get(&self, m: &[Pauli]) -> Option<&[f64]> {
        self.entries.get(&encode_paulis(m)).map(|v| v.as_slice())
    }

    /// Number of output bits (`b` index width).
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of stored Pauli strings.
    pub fn num_strings(&self) -> usize {
        self.entries.len()
    }

    /// Largest absolute coefficient for a given string (used by golden
    /// detection: a negligible basis has all-zero vectors).
    pub fn max_abs(&self, m: &[Pauli]) -> f64 {
        self.get(m)
            .map(|v| v.iter().fold(0.0f64, |a, &x| a.max(x.abs())))
            .unwrap_or(0.0)
    }
}

/// Joint outcome table of one upstream setting: `(b1, r_bits, probability)`
/// sorted by `(b1, r_bits)`, so [`assemble_upstream`] sums each `b1`'s
/// terms in a fixed order: with `K ≥ 2` a `b1` collects up to `2^K` signed
/// terms, and a hash map's per-instance iteration order would change the
/// last bits of the sum from run to run.
type Joint = Vec<(u64, u64, f64)>;

/// Sorts `(b1, r_bits) → probability` entries into a [`Joint`].
fn sorted_joint(entries: impl IntoIterator<Item = ((u64, u64), f64)>) -> Joint {
    let mut joint: Joint = entries.into_iter().map(|((b1, r), p)| (b1, r, p)).collect();
    joint.sort_unstable_by_key(|&(b1, r, _)| (b1, r));
    joint
}

/// Builds the upstream tensor from measured counts.
pub fn upstream_tensor(
    fragment: &Fragment,
    plan: &BasisPlan,
    data: &FragmentData,
) -> CoefficientTensor {
    assert_eq!(fragment.role, FragmentRole::Upstream);
    let joints: HashMap<u64, Joint> = plan
        .all_meas_settings()
        .iter()
        .map(|setting| {
            let key = encode_meas(setting);
            let counts = data
                .upstream
                .get(&key)
                .unwrap_or_else(|| panic!("missing upstream counts for setting {setting:?}"));
            let total = counts.total().max(1) as f64;
            let joint = sorted_joint(
                counts
                    .split(&fragment.output_locals, &fragment.cut_ports)
                    .into_iter()
                    .map(|(k, n)| (k, n as f64 / total)),
            );
            (key, joint)
        })
        .collect();
    assemble_upstream(fragment, plan, &joints)
}

/// Builds the upstream tensor exactly via state-vector simulation.
pub fn exact_upstream_tensor(fragment: &Fragment, plan: &BasisPlan) -> CoefficientTensor {
    assert_eq!(fragment.role, FragmentRole::Upstream);
    let joints: HashMap<u64, Joint> = plan
        .all_meas_settings()
        .iter()
        .map(|setting| {
            let circuit = build_upstream_circuit(fragment, setting);
            let probs = StateVector::from_circuit(&circuit).probabilities();
            let mut joint = HashMap::new();
            for (idx, &p) in probs.iter().enumerate() {
                if p <= 0.0 {
                    continue;
                }
                let b1 = extract_bits(idx as u64, &fragment.output_locals);
                let r = extract_bits(idx as u64, &fragment.cut_ports);
                *joint.entry((b1, r)).or_insert(0.0) += p;
            }
            (encode_meas(setting), sorted_joint(joint))
        })
        .collect();
    assemble_upstream(fragment, plan, &joints)
}

fn assemble_upstream(
    fragment: &Fragment,
    plan: &BasisPlan,
    joints: &HashMap<u64, Joint>,
) -> CoefficientTensor {
    let n1 = fragment.num_outputs();
    let dim = 1usize << n1;
    let mut entries = HashMap::new();
    for m in plan.all_recon_strings() {
        let setting = plan.setting_for(&m);
        let joint = &joints[&encode_meas(&setting)];
        let mut vec = vec![0.0f64; dim];
        for &(b1, rbits, p) in joint {
            let mut sign = 1.0;
            for (k, &pauli) in m.iter().enumerate() {
                if pauli != Pauli::I && (rbits >> k) & 1 == 1 {
                    sign = -sign;
                }
            }
            vec[b1 as usize] += sign * p;
        }
        entries.insert(encode_paulis(&m), vec);
    }
    CoefficientTensor {
        entries,
        num_outputs: n1,
    }
}

/// Builds the downstream tensor from measured counts.
pub fn downstream_tensor(
    fragment: &Fragment,
    plan: &BasisPlan,
    data: &FragmentData,
) -> CoefficientTensor {
    assert_eq!(fragment.role, FragmentRole::Downstream);
    let dists: HashMap<u64, Vec<f64>> = plan
        .all_prep_settings()
        .iter()
        .map(|prep| {
            let key = encode_prep(prep);
            let counts = data
                .downstream
                .get(&key)
                .unwrap_or_else(|| panic!("missing downstream counts for prep {prep:?}"));
            let d = counts.marginal(&fragment.output_locals).to_distribution();
            (key, d.values().to_vec())
        })
        .collect();
    assemble_downstream(fragment, plan, &dists)
}

/// Builds the downstream tensor exactly via state-vector simulation.
pub fn exact_downstream_tensor(fragment: &Fragment, plan: &BasisPlan) -> CoefficientTensor {
    assert_eq!(fragment.role, FragmentRole::Downstream);
    let dists: HashMap<u64, Vec<f64>> = plan
        .all_prep_settings()
        .iter()
        .map(|prep| {
            let circuit = build_downstream_circuit(fragment, prep);
            let probs = StateVector::from_circuit(&circuit).probabilities();
            // Reorder full-width probabilities into output order.
            let dim = 1usize << fragment.num_outputs();
            let mut out = vec![0.0f64; dim];
            for (idx, &p) in probs.iter().enumerate() {
                let b2 = extract_bits(idx as u64, &fragment.output_locals);
                out[b2 as usize] += p;
            }
            (encode_prep(prep), out)
        })
        .collect();
    assemble_downstream(fragment, plan, &dists)
}

fn assemble_downstream(
    fragment: &Fragment,
    plan: &BasisPlan,
    dists: &HashMap<u64, Vec<f64>>,
) -> CoefficientTensor {
    let n2 = fragment.num_outputs();
    let dim = 1usize << n2;
    let num_cuts = plan.num_cuts();
    let mut entries = HashMap::new();
    for m in plan.all_recon_strings() {
        let mut vec = vec![0.0f64; dim];
        // Enumerate the 2^K signed preparation combinations for this M.
        let pairs: Vec<[(qcut_math::PrepState, f64); 2]> =
            (0..num_cuts).map(|k| plan.prep_pair(k, m[k])).collect();
        for combo in 0..(1usize << num_cuts) {
            let mut states = Vec::with_capacity(num_cuts);
            let mut weight = 1.0f64;
            for (k, pair) in pairs.iter().enumerate() {
                let (state, w) = pair[(combo >> k) & 1];
                states.push(state);
                weight *= w;
            }
            let q = &dists[&encode_prep(&states)];
            for (slot, &p) in vec.iter_mut().zip(q) {
                *slot += weight * p;
            }
        }
        entries.insert(encode_paulis(&m), vec);
    }
    CoefficientTensor {
        entries,
        num_outputs: n2,
    }
}

/// Contracts the two tensors into the reconstructed distribution over the
/// full circuit's qubits: `p(b) = 2^{-K} Σ_M A[M][b1] D[M][b2]` with `b`
/// assembled from the fragments' global output positions.
pub fn contract(
    fragments: &Fragments,
    plan: &BasisPlan,
    upstream: &CoefficientTensor,
    downstream: &CoefficientTensor,
) -> Distribution {
    let n = fragments.total_qubits;
    let n1 = fragments.upstream.num_outputs();
    let n2 = fragments.downstream.num_outputs();
    assert_eq!(upstream.num_outputs(), n1);
    assert_eq!(downstream.num_outputs(), n2);
    assert_eq!(n1 + n2, n, "fragment outputs must cover the circuit");

    // Assembly tables: local output bitstring → its global bit positions.
    let t1 = assembly_table(n1, &fragments.upstream.output_globals);
    let t2 = assembly_table(n2, &fragments.downstream.output_globals);

    let strings = plan.all_recon_strings();
    let scale = 0.5f64.powi(plan.num_cuts() as i32);
    // Pre-resolve the tensor vectors in string order.
    let a_vecs: Vec<&[f64]> = strings
        .iter()
        .map(|m| upstream.get(m).expect("upstream tensor entry"))
        .collect();
    let d_vecs: Vec<&[f64]> = strings
        .iter()
        .map(|m| downstream.get(m).expect("downstream tensor entry"))
        .collect();

    let dim2 = 1usize << n2;
    // Parallel over b1: each b1 writes a disjoint index set, collected as
    // rows and merged.
    let rows: Vec<(u64, Vec<f64>)> = (0..(1usize << n1))
        .into_par_iter()
        .map(|b1| {
            let mut row = vec![0.0f64; dim2];
            for (a, d) in a_vecs.iter().zip(&d_vecs) {
                let coeff = a[b1];
                if coeff == 0.0 {
                    continue;
                }
                for (slot, &dv) in row.iter_mut().zip(*d) {
                    *slot += coeff * dv;
                }
            }
            (t1[b1], row)
        })
        .collect();

    let mut values = vec![0.0f64; 1 << n];
    for (base, row) in rows {
        for (b2, &v) in row.iter().enumerate() {
            values[(base | t2[b2]) as usize] = v * scale;
        }
    }
    Distribution::from_values(n, values)
}

/// Full pipeline step: tensors from data, then contraction.
pub fn reconstruct(fragments: &Fragments, plan: &BasisPlan, data: &FragmentData) -> Distribution {
    let up = upstream_tensor(&fragments.upstream, plan, data);
    let down = downstream_tensor(&fragments.downstream, plan, data);
    contract(fragments, plan, &up, &down)
}

/// Infinite-shot reconstruction via exact fragment simulation. Must equal
/// the uncut circuit's distribution to numerical precision — the
/// correctness theorem of wire cutting (tested below).
pub fn exact_reconstruct(fragments: &Fragments, plan: &BasisPlan) -> Distribution {
    let up = exact_upstream_tensor(&fragments.upstream, plan);
    let down = exact_downstream_tensor(&fragments.downstream, plan);
    contract(fragments, plan, &up, &down)
}

/// Extracts the bits of `value` at `positions` (output bit `i` = input bit
/// `positions[i]`).
#[inline]
pub fn extract_bits(value: u64, positions: &[usize]) -> u64 {
    let mut out = 0u64;
    for (i, &p) in positions.iter().enumerate() {
        out |= ((value >> p) & 1) << i;
    }
    out
}

fn assembly_table(num_bits: usize, globals: &[usize]) -> Vec<u64> {
    (0..(1u64 << num_bits))
        .map(|b| {
            let mut out = 0u64;
            for (i, &g) in globals.iter().enumerate() {
                out |= ((b >> i) & 1) << g;
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragmenter;
    use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
    use qcut_circuit::circuit::Circuit;
    use qcut_circuit::cut::CutSpec;
    use qcut_stats::distance::total_variation_distance;

    fn truth(circuit: &Circuit) -> Distribution {
        let sv = StateVector::from_circuit(circuit);
        Distribution::from_values(circuit.num_qubits(), sv.probabilities())
    }

    #[test]
    fn extract_bits_reorders() {
        assert_eq!(extract_bits(0b1010, &[1, 3]), 0b11);
        assert_eq!(extract_bits(0b1010, &[0, 2]), 0b00);
        assert_eq!(extract_bits(0b1010, &[3, 1]), 0b11);
        assert_eq!(extract_bits(0b0010, &[3, 1]), 0b10);
    }

    /// The wire-cutting identity: exact reconstruction equals the uncut
    /// distribution. This is the correctness theorem (paper Eq. 13).
    #[test]
    fn exact_reconstruction_equals_uncut_distribution() {
        for seed in 0..6 {
            let (circuit, spec) = GoldenAnsatz::new(5, seed).build();
            let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
            let recon = exact_reconstruct(&frags, &BasisPlan::standard(1));
            let t = truth(&circuit);
            let d = total_variation_distance(&recon, &t);
            assert!(d < 1e-9, "seed {seed}: exact reconstruction off by {d}");
        }
    }

    /// With the golden ansatz, *neglecting Y* must not change the exact
    /// reconstruction — the designed golden cutting point (paper Def. 1).
    #[test]
    fn golden_reconstruction_matches_on_golden_ansatz() {
        for seed in 0..6 {
            let (circuit, spec) = GoldenAnsatz::new(5, seed).build();
            let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
            let golden = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
            let recon = exact_reconstruct(&frags, &golden);
            let t = truth(&circuit);
            let d = total_variation_distance(&recon, &t);
            assert!(d < 1e-9, "seed {seed}: golden reconstruction off by {d}");
        }
    }

    /// Conversely, neglecting Y on a NON-golden circuit must produce a
    /// wrong answer — the reduction is not free in general.
    #[test]
    fn neglecting_y_on_non_golden_circuit_is_wrong() {
        // Upstream: RX rotations + RZ give the cut qubit correlated X *and*
        // Y components. Downstream: the RX(0.5) rotates Y into Z so the Y
        // coefficient reaches the diagonal observable. (Both ingredients
        // are needed — without them Y silently drops out downstream and
        // neglecting it is accidentally harmless.)
        let mut c = Circuit::new(3);
        c.rx(1.1, 0).rx(0.9, 1).cx(0, 1).rz(0.8, 1);
        c.rx(0.5, 1).cx(1, 2).h(2);
        let spec = CutSpec::single(1, 2);
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let standard = exact_reconstruct(&frags, &BasisPlan::standard(1));
        let t = truth(&c);
        assert!(total_variation_distance(&standard, &t) < 1e-9);
        let golden = exact_reconstruct(&frags, &BasisPlan::with_neglected(vec![Some(Pauli::Y)]));
        let d = total_variation_distance(&golden, &t);
        assert!(d > 1e-3, "Y was not actually informative here (d = {d})");
    }

    #[test]
    fn seven_qubit_exact_reconstruction() {
        let (circuit, spec) = GoldenAnsatz::new(7, 2).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let recon = exact_reconstruct(&frags, &BasisPlan::with_neglected(vec![Some(Pauli::Y)]));
        let d = total_variation_distance(&recon, &truth(&circuit));
        assert!(d < 1e-9, "7-qubit golden reconstruction off by {d}");
    }

    #[test]
    fn multi_cut_exact_reconstruction() {
        for k in 1..=2usize {
            let (circuit, spec) = MultiCutAnsatz::new(k, 7).build();
            let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
            let recon = exact_reconstruct(&frags, &BasisPlan::standard(k));
            let d = total_variation_distance(&recon, &truth(&circuit));
            assert!(d < 1e-9, "K={k}: exact reconstruction off by {d}");
        }
    }

    #[test]
    fn multi_cut_all_golden_reconstruction() {
        // The product-structured ansatz makes every cut independently
        // golden for Y.
        let (circuit, spec) = MultiCutAnsatz::new(2, 3).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::with_neglected(vec![Some(Pauli::Y), Some(Pauli::Y)]);
        let recon = exact_reconstruct(&frags, &plan);
        let d = total_variation_distance(&recon, &truth(&circuit));
        assert!(d < 1e-9, "all-golden 2-cut reconstruction off by {d}");
    }

    #[test]
    fn reconstructed_distribution_is_normalised() {
        let (circuit, spec) = GoldenAnsatz::new(5, 4).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let recon = exact_reconstruct(&frags, &BasisPlan::standard(1));
        assert!((recon.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn upstream_tensor_identity_string_is_marginal() {
        // A[I][b1] must be the plain output marginal (all signs +1).
        let (circuit, spec) = GoldenAnsatz::new(5, 5).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let up = exact_upstream_tensor(&frags.upstream, &plan);
        let a_i = up.get(&[Pauli::I]).unwrap();
        let total: f64 = a_i.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "identity coefficients sum to 1");
        assert!(a_i.iter().all(|&v| v >= -1e-12), "marginal is nonnegative");
    }

    #[test]
    fn golden_ansatz_y_coefficients_vanish_exactly() {
        // Direct verification of Definition 1 on the designed ansatz.
        let (circuit, spec) = GoldenAnsatz::new(5, 6).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let up = exact_upstream_tensor(&frags.upstream, &BasisPlan::standard(1));
        assert!(
            up.max_abs(&[Pauli::Y]) < 1e-10,
            "Y coefficient = {}",
            up.max_abs(&[Pauli::Y])
        );
        // X and Z generally carry information.
        assert!(up.max_abs(&[Pauli::Z]) > 1e-4 || up.max_abs(&[Pauli::X]) > 1e-4);
    }

    #[test]
    fn empirical_reconstruction_converges_to_truth() {
        use crate::allocation::{schedule_for_plan, ShotAllocation};
        use crate::execution::gather;
        use crate::pipeline::ReconstructionMethod;
        use crate::retry::RetryPolicy;
        use qcut_device::ideal::IdealBackend;

        let (circuit, spec) = GoldenAnsatz::new(5, 8).build();
        let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
        let plan = BasisPlan::standard(1);
        let schedule = schedule_for_plan(
            &plan,
            ShotAllocation::Uniform {
                shots_per_setting: 40_000,
            },
        )
        .unwrap();
        let backend = IdealBackend::new(42);
        let data = gather(
            &backend,
            &frags,
            &plan,
            ReconstructionMethod::Eigenstate,
            &schedule,
            &RetryPolicy::default(),
        )
        .unwrap();
        let recon = reconstruct(&frags, &plan, &data);
        let d = total_variation_distance(&recon.clip_renormalize(), &truth(&circuit));
        assert!(d < 0.03, "empirical reconstruction off by {d}");
    }

    #[test]
    fn z_neglect_round_trip() {
        // A circuit whose cut qubit is |+> before the cut: Z carries no
        // information (tr((Π⊗Z)ρ) = 0 when the cut qubit is X-polarised
        // and uncorrelated).
        let mut c = Circuit::new(2);
        c.h(0); // uncorrelated |+> on the cut wire
        c.h(1);
        c.cx(0, 1);
        let spec = CutSpec::single(0, 0);
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let up = exact_upstream_tensor(&frags.upstream, &BasisPlan::standard(1));
        assert!(up.max_abs(&[Pauli::Z]) < 1e-10, "Z should be negligible");
        assert!(
            up.max_abs(&[Pauli::Y]) < 1e-10,
            "Y should be negligible too"
        );
        // Neglect both: reconstruction still exact.
        let mut plan = BasisPlan::standard(1);
        plan.neglect(0, Pauli::Z);
        plan.neglect(0, Pauli::Y);
        let recon = exact_reconstruct(&frags, &plan);
        let d = total_variation_distance(&recon, &truth(&c));
        assert!(d < 1e-9, "double-neglect reconstruction off by {d}");
    }
}
