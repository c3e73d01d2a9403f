//! Graph builders: translating a [`BasisPlan`] (plus fragments and shot
//! schedule) into [`JobGraph`] jobs.
//!
//! Every gather is planned here, as a combination of graph builders over
//! the same engine:
//!
//! * eigenstate gather = upstream jobs + downstream jobs;
//! * SIC gather = upstream jobs + SIC jobs (no downstream eigenstate job is
//!   ever constructed);
//! * `gather_graph` builds either gather — the method picks the downstream
//!   builder — for the pipeline's rounds, for a plain
//!   [`crate::execution::gather`], and for static analysis, so all three
//!   plan the same graph in the same job order;
//! * online detection registers its per-round jobs inline in
//!   [`crate::pipeline`], merges each batch's delivered nodes into its
//!   reuse map, and seeds them into the gather graph;
//! * an adaptive refine round re-plans the same builders with the
//!   cumulative Neyman schedule and seeds the pilot round's delivered
//!   nodes (see [`crate::pipeline::CutExecutor::run`]).
//!
//! Every graph deduplicates: structurally identical circuits share one
//! node.
//!
//! # Example
//!
//! Planning a full eigenstate gather produces one job per tomography
//! setting, emitted in trie-locality order so a prefix-sharing backend
//! simulates each shared fragment prefix once:
//!
//! ```
//! use qcut_circuit::ansatz::GoldenAnsatz;
//! use qcut_core::basis::BasisPlan;
//! use qcut_core::fragment::Fragmenter;
//! use qcut_core::jobgraph::JobGraph;
//! use qcut_core::planner::{add_downstream_jobs, add_upstream_jobs};
//!
//! let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
//! let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
//! let plan = BasisPlan::standard(1);
//! let mut graph = JobGraph::new();
//! add_upstream_jobs(&mut graph, &frags, &plan, &[1000]);
//! add_downstream_jobs(&mut graph, &frags, &plan, &[1000]);
//! assert_eq!(graph.jobs_planned(), 9); // 3 measurements + 6 preparations
//! // Adjacent upstream variants share the fragment as a prefix.
//! assert!(graph.prefix_profile().gates_saved() > 0);
//! ```

use crate::allocation::ShotSchedule;
use crate::basis::{encode_meas, encode_prep, BasisPlan};
use crate::fragment::{Fragment, Fragments};
use crate::jobgraph::{Channel, ConsumerKey, JobGraph};
use crate::pipeline::ReconstructionMethod;
use crate::sic::{all_sic_settings, build_sic_circuit, encode_sic};
use crate::tomography::{build_downstream_circuit, build_upstream_circuit};
use qcut_circuit::circuit::Circuit;
use qcut_sim::prefix::PrefixForest;

/// Reorders `(circuit, consumer, shots)` triples into trie-locality order
/// — the DFS order of the batch's prefix forest — so jobs sharing
/// instruction prefixes are emitted adjacently and a prefix-sharing
/// backend walks each shared segment once: the upstream gather costs
/// `O(G + Σ suffix)` gate applications instead of `O(V·G)` for `V`
/// variants of a `G`-gate fragment. The cartesian setting enumerations are
/// already prefix-clustered (earlier cuts vary slowest and rotations/preps
/// are spliced in cut order), so the only moves this makes are (a)
/// regrouping interleaved batches handed in by a caller and (b) emitting a
/// job whose circuit is a strict prefix of another *before* its extensions
/// (e.g. the rotation-free Z setting ahead of X and Y) — the walk order a
/// prefix-sharing backend simulates in.
///
/// The backend rebuilds its own forest at execution time; planning does
/// not try to hand it over (the graph keeps moving circuits as jobs are
/// registered). Building a forest is one FNV pass over the instruction
/// stream plus trie insertion — noise next to simulating even one gate on
/// a realistic state, so paying it per layer keeps the seams simple.
fn trie_local_jobs(jobs: Vec<(Circuit, ConsumerKey, u64)>) -> Vec<(Circuit, ConsumerKey, u64)> {
    let refs: Vec<&Circuit> = jobs.iter().map(|(c, _, _)| c).collect();
    let order = PrefixForest::build(&refs).dfs_job_order();
    let mut slots: Vec<Option<(Circuit, ConsumerKey, u64)>> = jobs.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("DFS emits every job exactly once"))
        .collect()
}

/// Registers pre-built jobs on the graph in trie-locality order.
fn add_trie_local(graph: &mut JobGraph, jobs: Vec<(Circuit, ConsumerKey, u64)>) {
    for (circuit, consumer, budget) in trie_local_jobs(jobs) {
        graph.add_job(circuit, consumer, budget);
    }
}

/// Adds one upstream measurement job per setting of `plan`, in
/// trie-locality order with prefix metadata available via
/// [`JobGraph::prefix_profile`]. `shots[i]` pairs with the i-th setting of
/// [`BasisPlan::all_meas_settings`]; a single-element slice is broadcast
/// to every setting.
pub fn add_upstream_jobs(
    graph: &mut JobGraph,
    fragments: &Fragments,
    plan: &BasisPlan,
    shots: &[u64],
) {
    let settings = plan.all_meas_settings();
    assert!(
        shots.len() == settings.len() || shots.len() == 1,
        "shot schedule arity: {} settings, {} budgets",
        settings.len(),
        shots.len()
    );
    let jobs = settings
        .iter()
        .enumerate()
        .map(|(i, setting)| {
            let budget = if shots.len() == 1 { shots[0] } else { shots[i] };
            (
                build_upstream_circuit(&fragments.upstream, setting),
                (Channel::UpstreamMeas, encode_meas(setting)),
                budget,
            )
        })
        .collect();
    add_trie_local(graph, jobs);
}

/// Adds one downstream eigenstate-preparation job per prep combination of
/// `plan`, with the same broadcast rule and trie-locality order as
/// [`add_upstream_jobs`].
pub fn add_downstream_jobs(
    graph: &mut JobGraph,
    fragments: &Fragments,
    plan: &BasisPlan,
    shots: &[u64],
) {
    let settings = plan.all_prep_settings();
    assert!(
        shots.len() == settings.len() || shots.len() == 1,
        "shot schedule arity: {} preparations, {} budgets",
        settings.len(),
        shots.len()
    );
    let jobs = settings
        .iter()
        .enumerate()
        .map(|(i, preparation)| {
            let budget = if shots.len() == 1 { shots[0] } else { shots[i] };
            (
                build_downstream_circuit(&fragments.downstream, preparation),
                (Channel::DownstreamPrep, encode_prep(preparation)),
                budget,
            )
        })
        .collect();
    add_trie_local(graph, jobs);
}

/// Adds the `4^K` SIC downstream preparation jobs, in trie-locality order.
/// `shots[i]` pairs with the i-th combination of
/// [`all_sic_settings`]; a single-element slice is broadcast to every
/// preparation (the same schedule rule as [`add_upstream_jobs`]).
pub fn add_sic_jobs(graph: &mut JobGraph, downstream: &Fragment, num_cuts: usize, shots: &[u64]) {
    let settings = all_sic_settings(num_cuts);
    assert!(
        shots.len() == settings.len() || shots.len() == 1,
        "shot schedule arity: {} SIC preparations, {} budgets",
        settings.len(),
        shots.len()
    );
    let jobs = settings
        .into_iter()
        .enumerate()
        .map(|(i, states)| {
            let budget = if shots.len() == 1 { shots[0] } else { shots[i] };
            (
                build_sic_circuit(downstream, &states),
                (Channel::SicPrep, encode_sic(&states)),
                budget,
            )
        })
        .collect();
    add_trie_local(graph, jobs);
}

/// The graph of one gather round for `sched`: upstream measurement jobs
/// plus the downstream half `method` reads (eigenstate or SIC
/// preparations — the SIC path never builds an eigenstate downstream
/// job). The pipeline and [`crate::execution::gather`] execute this
/// graph; static analysis only inspects it.
pub(crate) fn gather_graph(
    fragments: &Fragments,
    plan: &BasisPlan,
    method: ReconstructionMethod,
    sched: &ShotSchedule,
) -> JobGraph {
    assert_eq!(
        plan.num_cuts(),
        fragments.num_cuts,
        "basis plan cut count does not match fragments"
    );
    let mut graph = JobGraph::new();
    add_upstream_jobs(&mut graph, fragments, plan, &sched.upstream);
    method.add_downstream_jobs(&mut graph, fragments, plan, &sched.downstream);
    graph
}

/// The single-job graph for an uncut reference run.
pub fn uncut_graph(circuit: &Circuit, shots: u64) -> JobGraph {
    let mut graph = JobGraph::new();
    graph.add_job(circuit.clone(), (Channel::Uncut, 0), shots);
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragmenter;
    use crate::retry::RetryPolicy;
    use qcut_circuit::ansatz::GoldenAnsatz;
    use qcut_math::Pauli;

    fn fragments_for(seed: u64) -> Fragments {
        let (c, spec) = GoldenAnsatz::new(5, seed).build();
        Fragmenter::fragment(&c, &spec).unwrap()
    }

    #[test]
    fn eigenstate_graph_covers_all_settings() {
        let frags = fragments_for(0);
        let plan = BasisPlan::standard(1);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &plan, &[1000]);
        add_downstream_jobs(&mut g, &frags, &plan, &[1000]);
        assert_eq!(g.jobs_planned(), 9);
        assert!(g.has_channel(Channel::UpstreamMeas));
        assert!(g.has_channel(Channel::DownstreamPrep));
    }

    #[test]
    fn golden_plan_shrinks_the_graph() {
        let frags = fragments_for(1);
        let plan = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &plan, &[1000]);
        add_downstream_jobs(&mut g, &frags, &plan, &[1000]);
        assert_eq!(g.jobs_planned(), 6);
    }

    #[test]
    fn sic_graph_plans_no_downstream_eigenstate_jobs() {
        // The satellite fix: the SIC path must never construct the
        // eigenstate downstream half it used to build and discard.
        let frags = fragments_for(2);
        let plan = BasisPlan::standard(1);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &plan, &[1000]);
        add_sic_jobs(&mut g, &frags.downstream, 1, &[1000]);
        assert_eq!(g.jobs_planned(), 3 + 4);
        assert!(!g.has_channel(Channel::DownstreamPrep));
        assert!(g.has_channel(Channel::SicPrep));
    }

    #[test]
    fn per_setting_schedules_are_respected() {
        let frags = fragments_for(3);
        let plan = BasisPlan::standard(1);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &plan, &[100, 200, 300]);
        let run = g
            .execute(
                &qcut_device::ideal::IdealBackend::new(0),
                &RetryPolicy::default(),
            )
            .unwrap();
        assert_eq!(run.stats.shots_executed, 600);
    }

    #[test]
    fn per_setting_sic_schedules_are_respected() {
        let frags = fragments_for(5);
        let mut g = JobGraph::new();
        add_sic_jobs(&mut g, &frags.downstream, 1, &[10, 20, 30, 40]);
        assert_eq!(g.jobs_planned(), 4);
        let run = g
            .execute(
                &qcut_device::ideal::IdealBackend::new(0),
                &RetryPolicy::default(),
            )
            .unwrap();
        assert_eq!(run.stats.shots_executed, 100);
    }

    #[test]
    #[should_panic(expected = "schedule arity")]
    fn wrong_sic_schedule_arity_panics() {
        let frags = fragments_for(5);
        let mut g = JobGraph::new();
        add_sic_jobs(&mut g, &frags.downstream, 1, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "schedule arity")]
    fn wrong_schedule_arity_panics() {
        let frags = fragments_for(4);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &BasisPlan::standard(1), &[1, 2]);
    }

    #[test]
    fn upstream_jobs_are_emitted_in_trie_locality_order() {
        use qcut_circuit::ansatz::MultiCutAnsatz;
        // K = 2: 9 upstream variants, all sharing the full fragment as an
        // instruction prefix, with earlier-cut rotations varying slowest.
        let (c, spec) = MultiCutAnsatz::new(2, 3).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &BasisPlan::standard(2), &[500]);
        let circuits: Vec<_> = g.node_circuits().collect();
        assert_eq!(circuits.len(), 9);
        let base_len = frags.upstream.circuit.len();
        for pair in circuits.windows(2) {
            assert!(
                pair[0].shared_prefix_len(pair[1]) >= base_len,
                "adjacent upstream jobs must share the fragment prefix"
            );
        }
        // The shared walk pays the fragment once: profile confirms.
        let profile = g.prefix_profile();
        assert_eq!(profile.circuits, 9);
        assert!(profile.gates_saved() >= 8 * base_len as u64);
    }

    #[test]
    fn trie_local_jobs_regroups_interleaved_batches() {
        // Two prefix families interleaved; the planner's ordering clusters
        // each family while preserving within-family order.
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut a1 = a.clone();
        a1.s(1);
        let mut b = Circuit::new(2);
        b.x(0).cz(0, 1);
        let mut b1 = b.clone();
        b1.t(1);
        let jobs = vec![
            (a.clone(), (Channel::Uncut, 0u64), 1),
            (b.clone(), (Channel::Uncut, 1), 1),
            (a1, (Channel::Uncut, 2), 1),
            (b1, (Channel::Uncut, 3), 1),
        ];
        let keys: Vec<u64> = trie_local_jobs(jobs).iter().map(|(_, k, _)| k.1).collect();
        assert_eq!(keys, vec![0, 2, 1, 3]);
    }

    #[test]
    fn planner_emits_prefixes_before_their_extensions() {
        // Single cut: the Z variant (no rotation) is a strict instruction
        // prefix of the X and Y variants, so the trie walk — and therefore
        // planner emission — visits it first; X and Y keep their relative
        // (cartesian) order.
        use crate::basis::MeasBasis;
        let frags = fragments_for(6);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &BasisPlan::standard(1), &[100]);
        let emitted: Vec<_> = g.node_circuits().cloned().collect();
        let build = |m: MeasBasis| build_upstream_circuit(&frags.upstream, &[m]);
        assert_eq!(
            emitted,
            vec![
                build(MeasBasis::Z),
                build(MeasBasis::X),
                build(MeasBasis::Y)
            ]
        );
    }

    #[test]
    fn gather_graphs_key_every_consumer_to_one_node_with_demand() {
        use crate::allocation::ShotAllocation;
        use crate::analysis::minimal_golden_plan;
        use qcut_circuit::ansatz::MultiCutAnsatz;
        use std::collections::HashSet;
        for k in 1..=2usize {
            let (c, spec) = MultiCutAnsatz::new(k, 11).build();
            let frags = Fragmenter::fragment(&c, &spec).unwrap();
            let plans = [
                BasisPlan::standard(k),
                BasisPlan::with_neglected(vec![Some(Pauli::Y); k]),
                minimal_golden_plan(k),
            ];
            for method in [ReconstructionMethod::Eigenstate, ReconstructionMethod::Sic] {
                for plan in &plans {
                    for allocation in [
                        ShotAllocation::Uniform {
                            shots_per_setting: 1000,
                        },
                        ShotAllocation::WeightedByUsage { total: 20_000 },
                    ] {
                        let sched = method.schedule(plan, allocation).unwrap();
                        let g = gather_graph(&frags, plan, method, &sched);
                        let case =
                            format!("K={k} {method:?} {:?} {allocation:?}", plan.neglected());
                        let mut keys = HashSet::new();
                        for (_, consumers) in g.node_jobs() {
                            assert!(
                                consumers.iter().any(|&(_, shots)| shots > 0),
                                "{case}: a node without demand"
                            );
                            for &(key, _) in consumers {
                                assert!(keys.insert(key), "{case}: {key:?} on two nodes");
                            }
                        }
                        assert_eq!(keys.len(), g.jobs_planned(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn uncut_graph_is_single_job() {
        let (c, _) = GoldenAnsatz::new(5, 5).build();
        let g = uncut_graph(&c, 2000);
        assert_eq!(g.jobs_planned(), 1);
        assert!(g.has_channel(Channel::Uncut));
    }
}
