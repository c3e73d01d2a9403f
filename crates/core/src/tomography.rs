//! Tomography subcircuit builders: the concrete subcircuit variants that
//! realise a [`crate::basis::BasisPlan`] on a pair of fragments.
//!
//! * Upstream variant for setting `(b_1 … b_K)`: the fragment circuit with
//!   a basis rotation appended on each cut port, measured entirely in Z.
//! * Downstream variant for preparation `(t_1 … t_K)`: the prep circuit on
//!   each cut port prepended to the fragment circuit.
//!
//! The number of variants is the paper's headline cost:
//! `3^{K_r} 2^{K_g} + 6^{K_r} 4^{K_g}` (9 vs 6 for a single cut). The
//! planner ([`crate::planner`]) builds one variant per setting of the plan
//! and registers it on the gather's [`crate::jobgraph::JobGraph`].

use crate::basis::MeasBasis;
use crate::fragment::{Fragment, FragmentRole};
use qcut_circuit::circuit::Circuit;
use qcut_math::PrepState;
use qcut_sim::basis_change::{append_basis_rotation, prep_circuit};

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
    use crate::allocation::ShotSchedule;
    use crate::basis::BasisPlan;
    use crate::fragment::{Fragmenter, Fragments};
    use crate::pipeline::ReconstructionMethod;
    use crate::planner::gather_graph;
    use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
    use qcut_math::Pauli;
    use qcut_sim::statevector::StateVector;

    fn fragments_for(width: usize, seed: u64) -> Fragments {
        let (c, spec) = GoldenAnsatz::new(width, seed).build();
        Fragmenter::fragment(&c, &spec).unwrap()
    }

    /// The uniform schedule over every setting of an eigenstate gather.
    fn uniform(plan: &BasisPlan, shots: u64) -> ShotSchedule {
        ShotSchedule::uniform(
            plan.all_meas_settings().len(),
            plan.all_prep_settings().len(),
            shots,
        )
    }

    #[test]
    fn standard_plan_has_nine_subcircuits() {
        let frags = fragments_for(5, 0);
        let plan = BasisPlan::standard(1);
        assert_eq!(plan.all_meas_settings().len(), 3);
        assert_eq!(plan.all_prep_settings().len(), 6);
        let sched = uniform(&plan, 1000);
        let graph = gather_graph(&frags, &plan, ReconstructionMethod::Eigenstate, &sched);
        assert_eq!(graph.jobs_planned(), 9);
        assert_eq!(graph.num_nodes(), 9);
        assert_eq!(sched.total(), 9000);
    }

    #[test]
    fn golden_plan_has_six_subcircuits() {
        let frags = fragments_for(5, 0);
        let plan = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
        let sched = uniform(&plan, 1000);
        let graph = gather_graph(&frags, &plan, ReconstructionMethod::Eigenstate, &sched);
        assert_eq!(graph.num_nodes(), 6);
        // 4.5e5 -> 3.0e5 shots at 1000 shots/setting × 50 trials (paper
        // Fig. 5 accounting): per trial it is 9000 vs 6000.
        assert_eq!(sched.total(), 6000);
    }

    #[test]
    fn multi_cut_variant_counts() {
        let (c, spec) = MultiCutAnsatz::new(2, 1).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let standard = BasisPlan::standard(2);
        assert_eq!(standard.all_meas_settings().len(), 9);
        assert_eq!(standard.all_prep_settings().len(), 36);
        let graph = gather_graph(
            &frags,
            &standard,
            ReconstructionMethod::Eigenstate,
            &uniform(&standard, 100),
        );
        assert_eq!(graph.num_nodes(), 9 + 36);
        let golden = BasisPlan::with_neglected(vec![Some(Pauli::Y), Some(Pauli::Y)]);
        assert_eq!(golden.all_meas_settings().len(), 4);
        assert_eq!(golden.all_prep_settings().len(), 16);
        let graph = gather_graph(
            &frags,
            &golden,
            ReconstructionMethod::Eigenstate,
            &uniform(&golden, 100),
        );
        assert_eq!(graph.num_nodes(), 4 + 16);
    }

    #[test]
    fn upstream_variants_differ_only_in_rotations() {
        let frags = fragments_for(5, 1);
        let base_len = frags.upstream.circuit.len();
        for setting in BasisPlan::standard(1).all_meas_settings() {
            let circuit = build_upstream_circuit(&frags.upstream, &setting);
            let extra = circuit.len() - base_len;
            match setting[0] {
                MeasBasis::Z => assert_eq!(extra, 0),
                MeasBasis::X => assert_eq!(extra, 1), // H
                MeasBasis::Y => assert_eq!(extra, 2), // Sdg, H
            }
            // The prefix is the fragment itself.
            assert_eq!(
                &circuit.instructions()[..base_len],
                frags.upstream.circuit.instructions()
            );
        }
    }

    #[test]
    fn downstream_variants_prepare_the_right_state() {
        // For each variant, simulating just the prep prefix must put the
        // cut port into the declared state.
        let frags = fragments_for(5, 2);
        let port = frags.downstream.cut_ports[0];
        for preparation in BasisPlan::standard(1).all_prep_settings() {
            let circuit = build_downstream_circuit(&frags.downstream, &preparation);
            let prep_len = circuit.len() - frags.downstream.circuit.len();
            let mut prefix = Circuit::new(circuit.num_qubits());
            for inst in &circuit.instructions()[..prep_len] {
                prefix.push(inst.gate.clone(), &inst.qubits);
            }
            let sv = StateVector::from_circuit(&prefix);
            let rho = sv.reduced_density_matrix(&[port]);
            let want = preparation[0].density();
            assert!(
                rho.approx_eq(&want, 1e-10),
                "prep {preparation:?} produced the wrong state"
            );
        }
    }

    #[test]
    fn variants_keep_fragment_width() {
        let frags = fragments_for(7, 3);
        let plan = BasisPlan::standard(1);
        for setting in plan.all_meas_settings() {
            let circuit = build_upstream_circuit(&frags.upstream, &setting);
            assert_eq!(circuit.num_qubits(), frags.upstream.width());
        }
        for preparation in plan.all_prep_settings() {
            let circuit = build_downstream_circuit(&frags.downstream, &preparation);
            assert_eq!(circuit.num_qubits(), frags.downstream.width());
        }
    }

    #[test]
    #[should_panic(expected = "does not match fragments")]
    fn plan_arity_mismatch_panics() {
        let frags = fragments_for(5, 0);
        let plan = BasisPlan::standard(2);
        gather_graph(
            &frags,
            &plan,
            ReconstructionMethod::Eigenstate,
            &uniform(&plan, 10),
        );
    }
}
