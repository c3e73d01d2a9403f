//! Tomography experiment planning: the concrete subcircuit variants that
//! realise a [`BasisPlan`] on a pair of fragments.
//!
//! * Upstream variant for setting `(b_1 … b_K)`: the fragment circuit with
//!   a basis rotation appended on each cut port, measured entirely in Z.
//! * Downstream variant for preparation `(t_1 … t_K)`: the prep circuit on
//!   each cut port prepended to the fragment circuit.
//!
//! The number of variants is the paper's headline cost:
//! `3^{K_r} 2^{K_g} + 6^{K_r} 4^{K_g}` (9 vs 6 for a single cut).

use crate::allocation::ShotSchedule;
use crate::basis::{BasisPlan, MeasBasis};
use crate::fragment::{Fragment, FragmentRole, Fragments};
use qcut_circuit::circuit::Circuit;
use qcut_math::PrepState;
use qcut_sim::basis_change::{append_basis_rotation, prep_circuit};

/// One upstream subcircuit variant.
#[derive(Debug, Clone)]
pub struct UpstreamVariant {
    /// The measurement setting per cut.
    pub setting: Vec<MeasBasis>,
    /// The executable circuit (rotations appended).
    pub circuit: Circuit,
}

/// One downstream subcircuit variant.
#[derive(Debug, Clone)]
pub struct DownstreamVariant {
    /// The preparation per cut.
    pub preparation: Vec<PrepState>,
    /// The executable circuit (preps prepended).
    pub circuit: Circuit,
}

/// The full experiment plan for one cut circuit.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    /// Upstream variants, one per measurement setting.
    pub upstream: Vec<UpstreamVariant>,
    /// Downstream variants, one per preparation combination.
    pub downstream: Vec<DownstreamVariant>,
}

impl ExperimentPlan {
    /// Builds all subcircuit variants for `fragments` under `plan`.
    pub fn build(fragments: &Fragments, plan: &BasisPlan) -> Self {
        assert_eq!(
            plan.num_cuts(),
            fragments.num_cuts,
            "basis plan cut count does not match fragments"
        );
        let upstream = plan
            .all_meas_settings()
            .into_iter()
            .map(|setting| UpstreamVariant {
                circuit: build_upstream_circuit(&fragments.upstream, &setting),
                setting,
            })
            .collect();
        let downstream = plan
            .all_prep_settings()
            .into_iter()
            .map(|preparation| DownstreamVariant {
                circuit: build_downstream_circuit(&fragments.downstream, &preparation),
                preparation,
            })
            .collect();
        ExperimentPlan {
            upstream,
            downstream,
        }
    }

    /// Total number of subcircuits (the quantity the golden method
    /// reduces by 33 % for one cut).
    pub fn num_subcircuits(&self) -> usize {
        self.upstream.len() + self.downstream.len()
    }

    /// Total shots for a per-setting budget.
    pub fn total_shots(&self, shots_per_setting: u64) -> u64 {
        self.num_subcircuits() as u64 * shots_per_setting
    }

    /// The paper's uniform protocol over this plan's variants:
    /// `shots_per_setting` for every setting.
    pub fn uniform_schedule(&self, shots_per_setting: u64) -> ShotSchedule {
        ShotSchedule::uniform(
            self.upstream.len(),
            self.downstream.len(),
            shots_per_setting,
        )
    }
}

/// The upstream fragment with basis rotations appended on its cut ports.
pub fn build_upstream_circuit(fragment: &Fragment, setting: &[MeasBasis]) -> Circuit {
    assert_eq!(fragment.role, FragmentRole::Upstream, "wrong fragment role");
    assert_eq!(setting.len(), fragment.cut_ports.len(), "setting arity");
    let mut c = fragment.circuit.clone();
    for (k, &basis) in setting.iter().enumerate() {
        append_basis_rotation(&mut c, basis.pauli(), fragment.cut_ports[k]);
    }
    c
}

/// The downstream fragment with preparation circuits prepended on its cut
/// ports.
pub fn build_downstream_circuit(fragment: &Fragment, preparation: &[PrepState]) -> Circuit {
    assert_eq!(
        fragment.role,
        FragmentRole::Downstream,
        "wrong fragment role"
    );
    assert_eq!(
        preparation.len(),
        fragment.cut_ports.len(),
        "preparation arity"
    );
    let mut c = Circuit::new(fragment.circuit.num_qubits());
    for (k, &state) in preparation.iter().enumerate() {
        let prep = prep_circuit(state, c.num_qubits(), fragment.cut_ports[k]);
        c.extend(&prep);
    }
    c.extend(&fragment.circuit);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragmenter;
    use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
    use qcut_math::Pauli;
    use qcut_sim::statevector::StateVector;

    fn fragments_for(width: usize, seed: u64) -> Fragments {
        let (c, spec) = GoldenAnsatz::new(width, seed).build();
        Fragmenter::fragment(&c, &spec).unwrap()
    }

    #[test]
    fn standard_plan_has_nine_subcircuits() {
        let frags = fragments_for(5, 0);
        let plan = ExperimentPlan::build(&frags, &BasisPlan::standard(1));
        assert_eq!(plan.upstream.len(), 3);
        assert_eq!(plan.downstream.len(), 6);
        assert_eq!(plan.num_subcircuits(), 9);
        assert_eq!(plan.total_shots(1000), 9000);
    }

    #[test]
    fn golden_plan_has_six_subcircuits() {
        let frags = fragments_for(5, 0);
        let basis = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
        let plan = ExperimentPlan::build(&frags, &basis);
        assert_eq!(plan.num_subcircuits(), 6);
        // 4.5e5 -> 3.0e5 shots at 1000 shots/setting × 50 trials (paper
        // Fig. 5 accounting): per trial it is 9000 vs 6000.
        assert_eq!(plan.total_shots(1000), 6000);
    }

    #[test]
    fn multi_cut_variant_counts() {
        let (c, spec) = MultiCutAnsatz::new(2, 1).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let standard = ExperimentPlan::build(&frags, &BasisPlan::standard(2));
        assert_eq!(standard.upstream.len(), 9);
        assert_eq!(standard.downstream.len(), 36);
        let golden = ExperimentPlan::build(
            &frags,
            &BasisPlan::with_neglected(vec![Some(Pauli::Y), Some(Pauli::Y)]),
        );
        assert_eq!(golden.upstream.len(), 4);
        assert_eq!(golden.downstream.len(), 16);
    }

    #[test]
    fn upstream_variants_differ_only_in_rotations() {
        let frags = fragments_for(5, 1);
        let plan = ExperimentPlan::build(&frags, &BasisPlan::standard(1));
        let base_len = frags.upstream.circuit.len();
        for v in &plan.upstream {
            let extra = v.circuit.len() - base_len;
            match v.setting[0] {
                MeasBasis::Z => assert_eq!(extra, 0),
                MeasBasis::X => assert_eq!(extra, 1), // H
                MeasBasis::Y => assert_eq!(extra, 2), // Sdg, H
            }
            // The prefix is the fragment itself.
            assert_eq!(
                &v.circuit.instructions()[..base_len],
                frags.upstream.circuit.instructions()
            );
        }
    }

    #[test]
    fn downstream_variants_prepare_the_right_state() {
        // For each variant, simulating just the prep prefix must put the
        // cut port into the declared state.
        let frags = fragments_for(5, 2);
        let basis = BasisPlan::standard(1);
        let plan = ExperimentPlan::build(&frags, &basis);
        let port = frags.downstream.cut_ports[0];
        for v in &plan.downstream {
            let prep_len = v.circuit.len() - frags.downstream.circuit.len();
            let mut prefix = Circuit::new(v.circuit.num_qubits());
            for inst in &v.circuit.instructions()[..prep_len] {
                prefix.push(inst.gate.clone(), &inst.qubits);
            }
            let sv = StateVector::from_circuit(&prefix);
            let rho = sv.reduced_density_matrix(&[port]);
            let want = v.preparation[0].density();
            assert!(
                rho.approx_eq(&want, 1e-10),
                "prep {:?} produced the wrong state",
                v.preparation
            );
        }
    }

    #[test]
    fn variants_keep_fragment_width() {
        let frags = fragments_for(7, 3);
        let plan = ExperimentPlan::build(&frags, &BasisPlan::standard(1));
        for v in &plan.upstream {
            assert_eq!(v.circuit.num_qubits(), frags.upstream.width());
        }
        for v in &plan.downstream {
            assert_eq!(v.circuit.num_qubits(), frags.downstream.width());
        }
    }

    #[test]
    #[should_panic(expected = "does not match fragments")]
    fn plan_arity_mismatch_panics() {
        let frags = fragments_for(5, 0);
        ExperimentPlan::build(&frags, &BasisPlan::standard(2));
    }
}
