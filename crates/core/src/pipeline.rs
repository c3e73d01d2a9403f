//! The high-level cutting pipeline: circuit + cut + policy → reconstructed
//! distribution + accounting.
//!
//! ```text
//! CutExecutor::run
//!   ├─ static analysis, which also fragments the circuit (once)
//!   ├─ resolve the golden policy into a BasisPlan
//!   │    (a priori / exact simulation / online sequential detection,
//!   │     detection batches executed through the JobGraph engine)
//!   ├─ resolve the shot-allocation policy into gather round(s):
//!   │    single-round policies build one schedule; Adaptive runs a
//!   │    uniform pilot round, scores per-setting variance from the
//!   │    empirical tensors, and seeds a Neyman-weighted refine round
//!   │    from the pilot's measurements
//!   ├─ per round, plan the JobGraph (eigenstate or SIC builders;
//!   │    identical subcircuits dedup into one node, detection/pilot
//!   │    nodes and warm-cache entries seed it) and execute it as one
//!   │    batched backend submission with fan-out
//!   ├─ store the final round's delivered nodes back into the warm cache
//!   ├─ reconstruct (tensor contraction, Eq. 14)
//!   └─ post-process the quasi-distribution
//! ```
//!
//! Every backend interaction — eigenstate gather, SIC gather, online
//! detection, and [`CutExecutor::run_uncut`] — flows through
//! [`crate::jobgraph::JobGraph`], so the [`RunReport`] carries unified
//! dedup accounting (`jobs_planned` / `jobs_executed` / `shots_saved`).
//! Reuse between stages and across runs reads the engine's delivered
//! nodes: one merged histogram per unique circuit.

use crate::allocation::{
    pilot_schedule, pilot_total, refine_schedule, schedule_for_plan, schedule_sic, AllocationError,
    ShotAllocation, ShotSchedule,
};
use crate::analysis::{analyze_and_fragment, AnalysisConfig, Diagnostic, LintCode, Severity};
use crate::basis::{decode_meas, decode_prep, encode_meas, encode_prep, BasisPlan};
use crate::error::{ExecutionFailure, PipelineError};
use crate::execution::FragmentData;
use crate::fragment::{Fragment, Fragmenter, Fragments};
use crate::golden::{
    resolve_static_policy, GoldenPolicy, GoldenVerdict, OnlineConfig, OnlineDetector,
};
use crate::jobgraph::{
    Channel, ConsumerKey, GraphFailure, GraphRun, GraphStats, JobGraph, NodeFailure,
};
use crate::planner::{add_downstream_jobs, add_sic_jobs, gather_graph, uncut_graph};
use crate::reconstruction::{contract, downstream_tensor, upstream_tensor, CoefficientTensor};
use crate::report::{FailureRecord, RunReport, UncutReport};
use crate::retry::{FailurePolicy, RetryPolicy};
use crate::sic::{all_sic_settings, encode_sic, sic_downstream_tensor};
use crate::tomography::build_upstream_circuit;
use crate::variance::neyman_scores;
use qcut_cache::{CacheKey, ShotDiscipline, WarmCache};
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_device::backend::{Backend, BackendError};
use qcut_sim::counts::Counts;
use qcut_stats::distribution::Distribution;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Downstream preparation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconstructionMethod {
    /// Pauli eigenstate preparations: `6^{K_r} 4^{K_g}` subcircuits
    /// (the paper's scheme; golden cuts shrink it).
    #[default]
    Eigenstate,
    /// SIC preparations: always `4^K` subcircuits, linear solve during
    /// assembly (paper §II-B's alternative).
    Sic,
}

/// Everything that depends on the preparation scheme; the rest of a gather
/// (upstream jobs, engine, accounting) is shared.
impl ReconstructionMethod {
    /// The gather schedule of `plan` under `allocation`:
    /// [`schedule_for_plan`] for eigenstate preparations, [`schedule_sic`]
    /// for SIC ones.
    pub fn schedule(
        self,
        plan: &BasisPlan,
        allocation: ShotAllocation,
    ) -> Result<ShotSchedule, AllocationError> {
        match self {
            ReconstructionMethod::Eigenstate => schedule_for_plan(plan, allocation),
            ReconstructionMethod::Sic => schedule_sic(plan, allocation),
        }
    }

    /// The engine channel the downstream half is delivered on.
    pub(crate) fn downstream_channel(self) -> Channel {
        match self {
            ReconstructionMethod::Eigenstate => Channel::DownstreamPrep,
            ReconstructionMethod::Sic => Channel::SicPrep,
        }
    }

    /// The keys of the downstream preparations a gather of `plan` runs,
    /// in schedule order: [`encode_prep`] of every surviving eigenstate
    /// preparation, or [`encode_sic`] of all `4^K` SIC combinations (the
    /// SIC frame needs every one, whatever the plan neglects).
    pub(crate) fn prep_keys(self, plan: &BasisPlan) -> Vec<u64> {
        match self {
            ReconstructionMethod::Eigenstate => plan
                .all_prep_settings()
                .iter()
                .map(|p| encode_prep(p))
                .collect(),
            ReconstructionMethod::Sic => all_sic_settings(plan.num_cuts())
                .iter()
                .map(|s| encode_sic(s))
                .collect(),
        }
    }

    /// The downstream preparation count of `plan` without enumerating the
    /// cartesian product (exponential work for large `K`).
    pub(crate) fn estimated_preps(self, plan: &BasisPlan) -> f64 {
        let num_cuts = plan.num_cuts();
        match self {
            ReconstructionMethod::Eigenstate => (0..num_cuts)
                .map(|k| plan.prep_states(k).len() as f64)
                .product(),
            ReconstructionMethod::Sic => 4f64.powi(num_cuts as i32),
        }
    }

    /// Registers the downstream jobs of a gather, `shots` aligned with
    /// [`ReconstructionMethod::prep_keys`].
    pub(crate) fn add_downstream_jobs(
        self,
        graph: &mut JobGraph,
        fragments: &Fragments,
        plan: &BasisPlan,
        shots: &[u64],
    ) {
        match self {
            ReconstructionMethod::Eigenstate => {
                add_downstream_jobs(graph, fragments, plan, shots);
            }
            ReconstructionMethod::Sic => {
                add_sic_jobs(graph, &fragments.downstream, plan.num_cuts(), shots);
            }
        }
    }

    /// The downstream coefficient tensor from gathered data.
    pub fn downstream_tensor(
        self,
        fragment: &Fragment,
        plan: &BasisPlan,
        data: &FragmentData,
    ) -> CoefficientTensor {
        match self {
            ReconstructionMethod::Eigenstate => downstream_tensor(fragment, plan, data),
            ReconstructionMethod::Sic => sic_downstream_tensor(fragment, plan, data),
        }
    }

    /// The weights of an adaptive refine round's `n_down` downstream
    /// preparations: the pilot's Neyman scores for eigenstate ones; uniform
    /// for SIC ones, which are informationally complete and read uniformly
    /// through the frame solve (the same rule as [`schedule_sic`]).
    fn refine_weights(self, scores: Vec<f64>, n_down: usize) -> Vec<f64> {
        match self {
            ReconstructionMethod::Eigenstate => scores,
            ReconstructionMethod::Sic => vec![1.0; n_down],
        }
    }
}

/// Post-processing applied to the reconstructed quasi-distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PostProcess {
    /// Return the raw quasi-distribution (may have negative entries).
    Raw,
    /// Clip negatives and renormalise.
    #[default]
    ClipRenormalize,
    /// Euclidean projection onto the probability simplex.
    SimplexProjection,
}

/// Knobs for one pipeline run.
#[derive(Debug, Clone)]
pub struct ExecutionOptions {
    /// Shots for every subcircuit setting (the paper uses 1 000 for the
    /// runtime experiments and 10 000 for the accuracy experiment). The
    /// uniform budget that [`ExecutionOptions::allocation`] falls back to.
    pub shots_per_setting: u64,
    /// Shot-allocation policy for the gather schedule. `None` (the
    /// default) is the paper's protocol —
    /// [`ShotAllocation::Uniform`] at `shots_per_setting` — and is
    /// bit-identical to the historical uniform path. `Some(policy)`
    /// overrides the budget entirely (see [`crate::allocation`]);
    /// [`ShotAllocation::WeightedByUsage`] skews a fixed total toward the
    /// settings more reconstruction terms consume.
    pub allocation: Option<ShotAllocation>,
    /// Downstream preparation scheme.
    pub method: ReconstructionMethod,
    /// Post-processing step.
    pub postprocess: PostProcess,
    /// The static-analysis gate run before anything executes (see
    /// [`crate::analysis`]): deny-level findings abort the run as
    /// [`PipelineError::Analysis`], warnings ride in
    /// [`RunReport::diagnostics`]. [`AnalysisConfig::disabled`] skips it.
    pub analysis: AnalysisConfig,
    /// Cross-run warm-start cache (see [`qcut_cache`]). `None` — the
    /// default — is bit-identical to the historical pipeline. `Some`
    /// seeds every first gather round from persisted per-node histograms
    /// (the engine executes only each node's shot *increment*, attributed
    /// to [`RunReport::cache_shots_reused`]) and, after the run, stores
    /// back the cumulative histogram of every node the final round
    /// delivered, keyed by that node's circuit.
    pub cache: Option<Arc<WarmCache>>,
    /// Retry policy honored inside every engine submission of the run
    /// (detection batches, pilot, gather rounds): transient backend
    /// faults and deterministic per-job timeouts re-submit only the
    /// failed nodes, up to [`RetryPolicy::max_attempts`] total attempts
    /// each. The default (one attempt, no backoff, no timeout) is
    /// bit-identical to the historical engine.
    pub retry: RetryPolicy,
    /// What to do when a node still fails after every retry:
    /// [`FailurePolicy::Fail`] (default) aborts with a typed
    /// [`PipelineError::Execution`] naming both the failed nodes and the
    /// consumers that succeeded; [`FailurePolicy::Degrade`] drops the
    /// affected basis settings from the plan (when the frame stays
    /// solvable), renormalizes the reconstruction over the surviving
    /// terms, and returns a [`RunReport`] with [`RunReport::degraded`]
    /// set and the damage itemised in [`RunReport::failures`].
    pub failure: FailurePolicy,
}

impl Default for ExecutionOptions {
    fn default() -> Self {
        ExecutionOptions {
            shots_per_setting: 1000,
            allocation: None,
            method: ReconstructionMethod::Eigenstate,
            postprocess: PostProcess::ClipRenormalize,
            analysis: AnalysisConfig::default(),
            cache: None,
            retry: RetryPolicy::default(),
            failure: FailurePolicy::default(),
        }
    }
}

impl ExecutionOptions {
    /// Default options running `policy` instead of the uniform protocol.
    pub fn with_allocation(policy: ShotAllocation) -> Self {
        ExecutionOptions {
            allocation: Some(policy),
            ..Default::default()
        }
    }

    /// The allocation policy this run schedules under: the explicit
    /// [`ExecutionOptions::allocation`] when set, the paper's uniform
    /// protocol at [`ExecutionOptions::shots_per_setting`] otherwise.
    pub fn resolved_allocation(&self) -> ShotAllocation {
        self.allocation.unwrap_or(ShotAllocation::Uniform {
            shots_per_setting: self.shots_per_setting,
        })
    }
}

/// Result of a pipeline run.
#[derive(Debug, Clone)]
pub struct CutRun {
    /// Reconstructed distribution over the full circuit's qubits.
    pub distribution: Distribution,
    /// Accounting (settings, shots, timings).
    pub report: RunReport,
}

/// Result of an uncut reference run.
#[derive(Debug, Clone)]
pub struct UncutRun {
    /// Measured distribution.
    pub distribution: Distribution,
    /// Accounting.
    pub report: UncutReport,
}

/// The high-level executor bound to one backend.
pub struct CutExecutor<'b, B: Backend + ?Sized> {
    backend: &'b B,
}

/// Delivered data of one gather round, plus the executed graph and its
/// run (channels drained, accounting and per-node histograms kept).
struct GatherRound {
    data: FragmentData,
    graph: JobGraph,
    run: GraphRun,
    /// Each node's cache fingerprint, in node order; computed once per
    /// round, and only when a warm cache is configured.
    fingerprints: Option<Vec<u64>>,
}

impl GatherRound {
    /// Each unique circuit of the round in node order, with the merged
    /// histogram it delivered (`None` when the node failed permanently).
    fn nodes(&self) -> impl Iterator<Item = (&Circuit, Option<&Counts>)> + '_ {
        self.graph
            .node_circuits()
            .zip(self.run.node_counts().iter().map(Option::as_ref))
    }

    /// Stores each node the round delivered back into the warm cache,
    /// keyed by `(structural hash, backend fingerprint, discipline)`. Nodes
    /// are unique circuits, so a histogram that several settings share is
    /// stored once.
    ///
    /// On a [`qcut_device::pool::BackendPool`] backend the fingerprint is
    /// the *assigned member's*, never the pool aggregate — so a later run
    /// against any one member (or a re-shuffled pool) only ever
    /// warm-starts from histograms that member's fingerprint actually
    /// measured.
    fn store_back(&self, cache: &WarmCache) {
        let fingerprints = self
            .fingerprints
            .as_deref()
            .expect("a round keeps its fingerprints whenever a cache is configured");
        for ((circuit, counts), &fingerprint) in self.nodes().zip(fingerprints) {
            if let Some(counts) = counts {
                let key = CacheKey::new(
                    circuit.structural_hash(),
                    fingerprint,
                    ShotDiscipline::Multinomial,
                );
                cache.store(&key, circuit, counts);
            }
        }
    }
}

/// Attempts to shrink `plan` so that no permanently failed consumer is
/// needed anymore: each lost measurement setting (or preparation) is
/// covered by greedily neglecting the corresponding Pauli at the first
/// cut where [`BasisPlan::try_neglect`] still allows it. Returns `None`
/// when the damage cannot be absorbed:
///
/// * a SIC preparation was lost — the SIC frame is informationally
///   complete, so losing any preparation makes the 4×4 solve singular;
/// * an uncut reference job was lost — there is nothing to renormalize;
/// * every cut position of a lost setting already neglects two bases
///   (dropping the last surviving pair would orphan the identity).
///
/// Detection-channel failures are resolved upstream (the affected cut
/// falls back to `NotGolden`) and are skipped here.
fn degrade_plan(plan: &BasisPlan, failures: &[NodeFailure]) -> Option<BasisPlan> {
    let num_cuts = plan.num_cuts();
    let mut salvaged = plan.clone();
    for failure in failures {
        for &(channel, key) in &failure.consumers {
            match channel {
                Channel::Detection => continue,
                Channel::Uncut | Channel::SicPrep => return None,
                Channel::UpstreamMeas => {
                    let setting = decode_meas(key, num_cuts);
                    // An earlier neglect may already have dropped this
                    // setting from the surviving plan.
                    let needed = setting
                        .iter()
                        .enumerate()
                        .all(|(c, b)| !salvaged.neglected()[c].contains(&b.pauli()));
                    if !needed {
                        continue;
                    }
                    if !setting
                        .iter()
                        .enumerate()
                        .any(|(c, b)| salvaged.try_neglect(c, b.pauli()))
                    {
                        return None;
                    }
                }
                Channel::DownstreamPrep => {
                    let prep = decode_prep(key, num_cuts);
                    let needed = prep
                        .iter()
                        .enumerate()
                        .all(|(c, s)| !salvaged.neglected()[c].contains(&s.pauli()));
                    if !needed {
                        continue;
                    }
                    if !prep
                        .iter()
                        .enumerate()
                        .any(|(c, s)| salvaged.try_neglect(c, s.pauli()))
                    {
                        return None;
                    }
                }
            }
        }
    }
    Some(salvaged)
}

/// Builds the typed [`PipelineError::Execution`] for a run that cannot
/// (or must not) be salvaged: every failed node plus the sorted consumer
/// keys whose data *was* delivered.
fn execution_failure(
    failures: &[NodeFailure],
    data: &FragmentData,
    method: ReconstructionMethod,
) -> PipelineError {
    let downstream = method.downstream_channel();
    let mut succeeded: Vec<ConsumerKey> = data
        .upstream
        .keys()
        .map(|&k| (Channel::UpstreamMeas, k))
        .chain(data.downstream.keys().map(|&k| (downstream, k)))
        .collect();
    succeeded.sort_unstable();
    let cause = failures
        .first()
        .map(|f| f.error.clone())
        .unwrap_or(BackendError::Unavailable);
    PipelineError::Execution(ExecutionFailure {
        failed: failures.iter().map(FailureRecord::from).collect(),
        succeeded,
        cause,
    })
}

impl<'b, B: Backend + ?Sized> CutExecutor<'b, B> {
    /// Binds an executor to a backend.
    pub fn new(backend: &'b B) -> Self {
        CutExecutor { backend }
    }

    /// Runs the full pipeline.
    // By-value `policy` keeps call sites literal-friendly
    // (`run(.., GoldenPolicy::Disabled, ..)`); the body only borrows it.
    #[allow(clippy::needless_pass_by_value)]
    pub fn run(
        &self,
        circuit: &Circuit,
        cut: &CutSpec,
        policy: GoldenPolicy,
        options: &ExecutionOptions,
    ) -> Result<CutRun, PipelineError> {
        // Static-analysis gate: lint the workload before a single shot is
        // spent. Deny-level findings abort the run; warnings are carried
        // through to the report. Analysis fragments the circuit anyway and
        // hands the result over, so the run fragments once; the circuit is
        // fragmented here only when analysis is disabled, or when malformed
        // IR stopped it first and `QA001` was configured below Deny.
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        let mut fragmented = None;
        if options.analysis.enabled {
            let diags;
            (diags, fragmented) = analyze_and_fragment(circuit, cut, options, self.backend);
            if diags.has_deny() {
                return Err(PipelineError::Analysis(diags));
            }
            diagnostics = diags.into_vec();
        }
        let fragments = fragmented.unwrap_or_else(|| Fragmenter::fragment(circuit, cut))?;

        // Resolve the golden policy. Online detection runs its sequential
        // batches through the engine and leaves its measurements in
        // `detection_cache` for the main gather to reuse.
        let detect_started = Instant::now();
        let mut detection_cache: HashMap<u64, (Circuit, Counts)> = HashMap::new();
        let mut detection_stats = GraphStats::default();
        // Permanent node failures tolerated so far (only ever non-empty
        // under FailurePolicy::Degrade — the Fail policy aborts at the
        // first failed engine submission).
        let mut failures: Vec<NodeFailure> = Vec::new();
        let plan = match resolve_static_policy(&policy, &fragments.upstream, fragments.num_cuts) {
            Some(plan) => plan,
            None => {
                let GoldenPolicy::DetectOnline(config) = &policy else {
                    unreachable!("only the online policy resolves dynamically");
                };
                self.detect_online(
                    &fragments,
                    *config,
                    options,
                    &mut detection_cache,
                    &mut detection_stats,
                    &mut failures,
                )?
            }
        };
        let detection_seconds = detect_started.elapsed().as_secs_f64();
        let detection_shots = detection_stats.shots_executed;

        // Resolve the allocation policy for the surviving plan (golden
        // detection shrinks the settings the budget divides over). Uniform
        // reproduces the paper's protocol bit-identically; weighted/total
        // policies skew or split a fixed budget, exactly (largest-
        // remainder split); the adaptive policy runs a pilot round first.
        // `normalized` resolves degenerate adaptive fractions into the
        // single-round policy they are bit-identical to.
        let allocation = options.resolved_allocation();
        let effective = allocation.normalized();

        let gather_started = Instant::now();
        let (gather, pilot_shots, rounds) = if let ShotAllocation::Adaptive {
            pilot_fraction,
            total,
        } = effective
        {
            self.gather_adaptive(
                &fragments,
                &plan,
                options,
                pilot_fraction,
                total,
                &detection_cache,
                &mut failures,
            )?
        } else {
            let sched = options.method.schedule(&plan, effective)?;
            let round = self.gather_round(
                &fragments,
                &plan,
                options,
                &sched,
                detection_cache.values().map(|(c, n)| (c, n)),
                options.cache.as_deref(),
                &mut failures,
            )?;
            (round, 0, 1)
        };
        let gather_seconds = gather_started.elapsed().as_secs_f64();

        // Store the delivered cumulative histograms back into the warm
        // cache so the next run (or sweep point) starts from them, then
        // persist. Delivered totals already include everything — cached,
        // detection-seeded, and fresh shots — and `store` replaces, so
        // re-running never duplicates samples.
        if let Some(cache) = options.cache.as_deref() {
            gather.store_back(cache);
            if cache.config().path.is_some() {
                if let Err(e) = cache.persist() {
                    let severity = options.analysis.severity(LintCode::CacheDegraded);
                    if severity != Severity::Allow {
                        diagnostics.push(Diagnostic {
                            code: LintCode::CacheDegraded,
                            severity,
                            message: format!(
                                "warm-start cache failed to persist ({e}); the next \
                                 run starts cold"
                            ),
                        });
                    }
                }
            }
        }
        let GatherRound {
            data,
            run: GraphRun {
                stats: gather_stats,
                ..
            },
            ..
        } = gather;

        // Graceful degradation: when nodes failed permanently under
        // FailurePolicy::Degrade, shrink the plan until no lost consumer
        // is needed (greedy extra neglects), then verify the surviving
        // plan is fully covered by delivered data. Runs whose damage
        // cannot be absorbed — a lost SIC preparation (informationally
        // complete frame), or a cut already at two neglects — fail with
        // the same typed error the Fail policy raises.
        let planned_terms = plan.all_recon_strings().len();
        let mut degraded = false;
        let plan = if failures.is_empty() {
            plan
        } else {
            let salvaged = degrade_plan(&plan, &failures)
                .ok_or_else(|| execution_failure(&failures, &data, options.method))?;
            let covered = salvaged
                .all_meas_settings()
                .iter()
                .all(|s| data.upstream.contains_key(&encode_meas(s)))
                && options
                    .method
                    .prep_keys(&salvaged)
                    .iter()
                    .all(|k| data.downstream.contains_key(k));
            if !covered {
                return Err(execution_failure(&failures, &data, options.method));
            }
            degraded = true;
            salvaged
        };
        let surviving_terms = plan.all_recon_strings().len();
        let variance_inflation = if degraded {
            planned_terms as f64 / surviving_terms.max(1) as f64
        } else {
            1.0
        };
        let failure_records: Vec<FailureRecord> =
            failures.iter().map(FailureRecord::from).collect();

        let upstream_settings = data.upstream.len();
        let downstream_settings = data.downstream.len();

        // Reconstruct. The realized per-setting schedule rides in the
        // fragment data (delivered histogram totals — ≥ the requested
        // schedule when detection data was reused or duplicates merged).
        let recon_started = Instant::now();
        let up = upstream_tensor(&fragments.upstream, &plan, &data);
        let down = options
            .method
            .downstream_tensor(&fragments.downstream, &plan, &data);
        let raw = contract(&fragments, &plan, &up, &down);
        let distribution = match options.postprocess {
            PostProcess::Raw => raw,
            PostProcess::ClipRenormalize => raw.clip_renormalize(),
            PostProcess::SimplexProjection => raw.project_to_simplex(),
        };
        let reconstruct_seconds = recon_started.elapsed().as_secs_f64();

        // Accounting: engine numbers unify detection and gather.
        let mut engine = detection_stats;
        engine.absorb(&gather_stats);
        let pool_parallel_ratio = engine.pool_parallel_ratio();
        let report = RunReport {
            num_cuts: fragments.num_cuts,
            neglected: plan.neglected().to_vec(),
            allocation,
            upstream_settings,
            downstream_settings,
            subcircuits_executed: upstream_settings + downstream_settings,
            // Fresh device shots for the main gather round only —
            // detection and pilot shots are reported separately, so the
            // fields never double-count a reused measurement.
            total_shots: gather_stats.shots_executed - pilot_shots,
            pilot_shots,
            rounds,
            shots_requested: engine.shots_requested,
            jobs_planned: engine.jobs_planned,
            jobs_executed: engine.jobs_executed,
            shots_saved: engine.shots_saved,
            cache_hits: engine.cache_hits,
            cache_shots_reused: engine.cache_shots_reused,
            states_reused: engine.states_reused,
            gates_applied: engine.gates_applied,
            gates_saved: engine.gates_saved,
            reconstruction_terms: surviving_terms,
            simulated_device_seconds: engine.simulated_device_time.as_secs_f64(),
            gather_seconds,
            reconstruct_seconds,
            detection_shots,
            detection_seconds,
            attempts: engine.attempts,
            jobs_retried: engine.jobs_retried,
            shots_lost: engine.shots_lost,
            backoff_seconds: engine.backoff_wait.as_secs_f64(),
            jobs_per_member: engine.jobs_per_member,
            member_makespan_seconds: engine
                .member_makespan
                .into_iter()
                .map(|d| d.as_secs_f64())
                .collect(),
            pool_parallel_ratio,
            jobs_failed_over: engine.jobs_failed_over,
            degraded,
            failures: failure_records,
            variance_inflation,
            diagnostics,
        };
        Ok(CutRun {
            distribution,
            report,
        })
    }

    /// Plans and executes one gather round through the engine: builds the
    /// graph for `sched` (eigenstate and SIC are different builder
    /// combinations over the same engine — the SIC path registers
    /// upstream + SIC jobs only, never the eigenstate downstream half),
    /// seeds it with prior measurements (online-detection batches for a
    /// first round, the pilot's delivered nodes for an adaptive refine
    /// round), then with any matching `warm` cross-run cache entries, and
    /// returns the delivered fragment data plus the executed graph and run.
    /// The engine executes only each node's missing shots, so same-run
    /// seeds count toward the round's budget as `shots_saved` and
    /// warm-cache seeds as `cache_shots_reused`.
    ///
    /// The engine honors [`ExecutionOptions::retry`]; what still fails
    /// permanently either aborts the round
    /// ([`FailurePolicy::Fail`]) or is pushed onto `failures` while the
    /// salvaged sibling data is delivered ([`FailurePolicy::Degrade`]).
    #[allow(clippy::too_many_arguments)]
    fn gather_round<'s>(
        &self,
        fragments: &Fragments,
        plan: &BasisPlan,
        options: &ExecutionOptions,
        sched: &ShotSchedule,
        seeds: impl IntoIterator<Item = (&'s Circuit, &'s Counts)>,
        warm: Option<&WarmCache>,
        failures: &mut Vec<NodeFailure>,
    ) -> Result<GatherRound, PipelineError> {
        let mut graph = gather_graph(fragments, plan, options.method, sched);
        for (circuit, counts) in seeds {
            graph.seed_counts(circuit, counts);
        }
        // On a pool backend, cache keys are per *member*: key each node by
        // the fingerprint of the member `JobGraph::placement` assigns it
        // to — the placement the engine shards by. Seeding is
        // shot-accounting only, so the placement the engine computes at
        // execute time is unaffected by what the cache serves here, and
        // the same fingerprints key the round's store-back.
        let fingerprints = options
            .cache
            .is_some()
            .then(|| self.member_fingerprints(&graph));
        if let (Some(cache), Some(fingerprints)) = (warm, &fingerprints) {
            let hits: Vec<(Circuit, Counts)> = graph
                .node_circuits()
                .zip(fingerprints.iter().copied())
                .filter_map(|(circuit, fingerprint)| {
                    let key = CacheKey::new(
                        circuit.structural_hash(),
                        fingerprint,
                        ShotDiscipline::Multinomial,
                    );
                    Some((circuit.clone(), cache.lookup(&key, circuit)?))
                })
                .collect();
            for (circuit, counts) in &hits {
                graph.seed_counts_from_cache(circuit, counts);
            }
        }
        let mut grun = match graph.execute(self.backend, &options.retry) {
            Ok(run) => run,
            Err(failure) => match options.failure {
                FailurePolicy::Fail => return Err(failure.into()),
                FailurePolicy::Degrade => {
                    let GraphFailure {
                        failures: failed,
                        salvage,
                    } = *failure;
                    failures.extend(failed);
                    salvage
                }
            },
        };
        Ok(GatherRound {
            data: FragmentData::from_run(&mut grun, options.method),
            graph,
            run: grun,
            fingerprints,
        })
    }

    /// The cache fingerprint of every node of a planned graph, in node
    /// order: the bound backend's own, or on a
    /// [`qcut_device::pool::BackendPool`] the fingerprint of the member
    /// [`JobGraph::placement`] assigns the node to — the assignment the
    /// engine shards by. Nodes the placement cannot seat (over-capacity)
    /// fall back to the pool's aggregate fingerprint; they fail before
    /// submission anyway, so no histogram is ever stored under it.
    fn member_fingerprints(&self, graph: &JobGraph) -> Vec<u64> {
        let Some(pool) = self.backend.as_pool() else {
            return vec![self.backend.cache_fingerprint(); graph.num_nodes()];
        };
        graph
            .placement(pool)
            .assignment
            .into_iter()
            .map(|member| match member {
                Some(m) => pool.member(m).cache_fingerprint(),
                None => pool.cache_fingerprint(),
            })
            .collect()
    }

    /// The two-round adaptive gather (`ShotAllocation::Adaptive` with an
    /// interior pilot fraction):
    ///
    /// 1. a uniform **pilot** round of `round(pilot_fraction · total)`
    ///    shots runs through the engine (seeded with detection data like
    ///    any gather);
    /// 2. empirical fragment tensors built from the pilot's histograms are
    ///    scored per setting ([`neyman_scores`]) and the remaining budget
    ///    is apportioned `N ∝ √score` by largest remainder;
    /// 3. a **refine** round requests the cumulative per-setting targets,
    ///    seeded with the pilot's delivered nodes — the engine executes
    ///    exactly the refine increments and every consumer receives the
    ///    merged two-round data.
    ///
    /// Returns the final round's channels (cumulative histograms), the
    /// pilot's fresh shot count, and the round count (2).
    #[allow(clippy::too_many_arguments)]
    fn gather_adaptive(
        &self,
        fragments: &Fragments,
        plan: &BasisPlan,
        options: &ExecutionOptions,
        pilot_fraction: f64,
        total: u64,
        detection_cache: &HashMap<u64, (Circuit, Counts)>,
        failures: &mut Vec<NodeFailure>,
    ) -> Result<(GatherRound, u64, usize), PipelineError> {
        let method = options.method;
        let n_up = plan.all_meas_settings().len();
        let n_down = method.prep_keys(plan).len();

        // Round 1: the uniform pilot.
        // The warm cache seeds the pilot only: its histograms become part
        // of the pilot's delivered data, which already seeds the refine
        // round below — seeding both rounds would duplicate the samples.
        // A warm pilot is a *free* pilot (the engine executes only the
        // increment beyond the cached shots).
        let pilot = pilot_total(pilot_fraction, total);
        let pilot_sched = pilot_schedule(n_up, n_down, pilot)?;
        let failures_before_pilot = failures.len();
        let pilot_run = self.gather_round(
            fragments,
            plan,
            options,
            &pilot_sched,
            detection_cache.values().map(|(c, n)| (c, n)),
            options.cache.as_deref(),
            failures,
        )?;
        let pilot_degraded = failures.len() > failures_before_pilot;

        // Empirical tensors from the pilot's delivered histograms. A
        // degraded pilot (some settings permanently undelivered under
        // FailurePolicy::Degrade) cannot be scored — the tensors would
        // read absent histograms — so the refine round falls back to the
        // uniform split; the final replan after the gather decides what
        // the reconstruction can still salvage.
        let (up_scores, down_scores) = if pilot_degraded {
            (vec![1.0; n_up], vec![1.0; n_down])
        } else {
            let up = upstream_tensor(&fragments.upstream, plan, &pilot_run.data);
            let down = method.downstream_tensor(&fragments.downstream, plan, &pilot_run.data);
            let scores = neyman_scores(fragments, plan, &up, &down);
            (
                scores.upstream,
                method.refine_weights(scores.downstream, n_down),
            )
        };

        // Round 2: the refine round requests the *cumulative* Neyman
        // targets and is seeded with the pilot's delivered nodes, so the
        // engine executes exactly the refine increments and delivers the
        // merged two-round data (the pilot reuse shows up as shots_saved).
        // A degraded pilot's failed nodes delivered nothing and so seed
        // nothing.
        let cumulative = refine_schedule(&pilot_sched, &up_scores, &down_scores, total - pilot);
        let mut refine_run = self.gather_round(
            fragments,
            plan,
            options,
            &cumulative,
            pilot_run.nodes().filter_map(|(c, n)| Some((c, n?))),
            None,
            failures,
        )?;

        let pilot_shots = pilot_run.run.stats.shots_executed;
        let mut stats = pilot_run.run.stats;
        stats.absorb(&refine_run.run.stats);
        refine_run.run.stats = stats;
        Ok((refine_run, pilot_shots, 2))
    }

    /// Runs the uncut circuit directly (the reference arm of Fig. 3),
    /// routed through the engine like every other execution under the
    /// default single-attempt [`RetryPolicy`]. There is no degraded mode
    /// for the reference arm — the single histogram either arrives or the
    /// run fails with the typed [`PipelineError::Execution`].
    pub fn run_uncut(&self, circuit: &Circuit, shots: u64) -> Result<UncutRun, PipelineError> {
        let started = Instant::now();
        let graph = uncut_graph(circuit, shots);
        let mut run = graph.execute(self.backend, &RetryPolicy::default())?;
        let counts = run
            .take_channel(Channel::Uncut)
            .remove(&0)
            .expect("uncut graph delivers one consumer");
        Ok(UncutRun {
            distribution: counts.to_distribution(),
            report: UncutReport {
                shots,
                simulated_device_seconds: run.stats.simulated_device_time.as_secs_f64(),
                host_seconds: started.elapsed().as_secs_f64(),
            },
        })
    }

    /// Online golden detection: batches of upstream measurements per cut
    /// until every cut reaches a verdict (paper §IV). Each round's settings
    /// are executed as one engine batch; every delivered node accumulates
    /// in `cache` (keyed by circuit structural hash) so the main gather can
    /// reuse it, and `stats` absorbs the engine accounting.
    /// Under [`FailurePolicy::Degrade`], a detection batch that fails
    /// permanently (after retries) downgrades the affected cut to
    /// `NotGolden` — the safe verdict: the full basis set stays scheduled
    /// and the failure is itemised in the report — instead of aborting.
    fn detect_online(
        &self,
        fragments: &Fragments,
        config: OnlineConfig,
        options: &ExecutionOptions,
        cache: &mut HashMap<u64, (Circuit, Counts)>,
        stats: &mut GraphStats,
        failures: &mut Vec<NodeFailure>,
    ) -> Result<BasisPlan, PipelineError> {
        let num_cuts = fragments.num_cuts;
        let mut plan = BasisPlan::standard(num_cuts);
        for cut in 0..num_cuts {
            let mut detector = OnlineDetector::new(&fragments.upstream, cut, num_cuts, config);
            loop {
                match detector.verdict() {
                    GoldenVerdict::Golden => {
                        plan.neglect(cut, config.candidate);
                        break;
                    }
                    GoldenVerdict::NotGolden => break,
                    GoldenVerdict::Undecided => {
                        if detector.exhausted() {
                            return Err(PipelineError::DetectionUndecided {
                                cut,
                                shots_spent: detector.min_shots(),
                            });
                        }
                        let settings = detector.required_settings();
                        let mut graph = JobGraph::new();
                        for setting in &settings {
                            graph.add_job(
                                build_upstream_circuit(&fragments.upstream, setting),
                                (Channel::Detection, encode_meas(setting)),
                                config.batch_shots,
                            );
                        }
                        let grun = match graph.execute(self.backend, &options.retry) {
                            Ok(run) => run,
                            Err(failure) => match options.failure {
                                FailurePolicy::Fail => return Err(failure.into()),
                                FailurePolicy::Degrade => {
                                    let GraphFailure {
                                        failures: failed,
                                        salvage,
                                    } = *failure;
                                    failures.extend(failed);
                                    stats.absorb(&salvage.stats);
                                    // NotGolden fallback: keep the full
                                    // basis set for this cut.
                                    break;
                                }
                            },
                        };
                        stats.absorb(&grun.stats);
                        for setting in &settings {
                            let counts = grun
                                .counts(&(Channel::Detection, encode_meas(setting)))
                                .expect("detection counts per required setting");
                            detector.feed(setting, counts);
                        }
                        for (circuit, counts) in graph.node_circuits().zip(grun.node_counts()) {
                            let Some(counts) = counts else { continue };
                            match cache.entry(circuit.structural_hash()) {
                                Entry::Occupied(mut e) => {
                                    let (stored, merged) = e.get_mut();
                                    // Merge only on true structural equality —
                                    // a 64-bit hash collision must not mix
                                    // another circuit's histogram in.
                                    if stored == circuit {
                                        merged.merge(counts);
                                    }
                                }
                                Entry::Vacant(e) => {
                                    e.insert((circuit.clone(), counts.clone()));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcut_circuit::ansatz::GoldenAnsatz;
    use qcut_device::ideal::IdealBackend;
    use qcut_math::Pauli;
    use qcut_sim::statevector::StateVector;
    use qcut_stats::distance::total_variation_distance;
    use std::time::Duration;

    fn truth(circuit: &Circuit) -> Distribution {
        let sv = StateVector::from_circuit(circuit);
        Distribution::from_values(circuit.num_qubits(), sv.probabilities())
    }

    fn options(shots: u64) -> ExecutionOptions {
        ExecutionOptions {
            shots_per_setting: shots,
            ..Default::default()
        }
    }

    #[test]
    fn standard_run_reconstructs_the_circuit() {
        let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
        let backend = IdealBackend::new(3);
        let exec = CutExecutor::new(&backend);
        let run = exec
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options(20_000))
            .unwrap();
        assert_eq!(run.report.subcircuits_executed, 9);
        assert_eq!(run.report.reconstruction_terms, 4);
        let d = total_variation_distance(&run.distribution, &truth(&circuit));
        assert!(d < 0.05, "reconstruction off by {d}");
    }

    #[test]
    fn golden_run_matches_standard_with_fewer_subcircuits() {
        let (circuit, cut) = GoldenAnsatz::new(5, 2).build();
        let backend = IdealBackend::new(4);
        let exec = CutExecutor::new(&backend);
        let golden = exec
            .run(
                &circuit,
                &cut,
                GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
                &options(20_000),
            )
            .unwrap();
        assert_eq!(golden.report.subcircuits_executed, 6);
        assert_eq!(golden.report.reconstruction_terms, 3);
        assert_eq!(golden.report.total_shots, 6 * 20_000);
        let d = total_variation_distance(&golden.distribution, &truth(&circuit));
        assert!(d < 0.05, "golden reconstruction off by {d}");
    }

    #[test]
    fn exact_detection_policy_discovers_y() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let backend = IdealBackend::new(5);
        let exec = CutExecutor::new(&backend);
        let run = exec
            .run(
                &circuit,
                &cut,
                GoldenPolicy::detect_exact(),
                &options(10_000),
            )
            .unwrap();
        assert!(run.report.neglected[0].contains(&Pauli::Y));
        assert_eq!(run.report.subcircuits_executed, 6);
    }

    #[test]
    fn online_detection_policy_works_end_to_end() {
        let (circuit, cut) = GoldenAnsatz::new(5, 4).build();
        let backend = IdealBackend::new(6);
        let exec = CutExecutor::new(&backend);
        let config = OnlineConfig {
            epsilon: 0.08,
            batch_shots: 3000,
            ..OnlineConfig::default()
        };
        let run = exec
            .run(
                &circuit,
                &cut,
                GoldenPolicy::DetectOnline(config),
                &options(10_000),
            )
            .unwrap();
        assert!(run.report.neglected[0].contains(&Pauli::Y));
        assert!(run.report.detection_shots > 0);
        let d = total_variation_distance(&run.distribution, &truth(&circuit));
        assert!(d < 0.06, "online-detected reconstruction off by {d}");
    }

    #[test]
    fn sic_method_reconstructs() {
        let (circuit, cut) = GoldenAnsatz::new(5, 5).build();
        let backend = IdealBackend::new(7);
        let exec = CutExecutor::new(&backend);
        let opts = ExecutionOptions {
            shots_per_setting: 40_000,
            method: ReconstructionMethod::Sic,
            ..Default::default()
        };
        let run = exec
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap();
        // 3 upstream + 4 SIC preparations.
        assert_eq!(run.report.subcircuits_executed, 7);
        let d = total_variation_distance(&run.distribution, &truth(&circuit));
        assert!(d < 0.06, "SIC reconstruction off by {d}");
    }

    #[test]
    fn postprocess_raw_preserves_quasi_character() {
        let (circuit, cut) = GoldenAnsatz::new(5, 6).build();
        let backend = IdealBackend::new(8);
        let exec = CutExecutor::new(&backend);
        let opts = ExecutionOptions {
            shots_per_setting: 500, // deliberately noisy
            postprocess: PostProcess::Raw,
            ..Default::default()
        };
        let run = exec
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap();
        // Mass ≈ 1 but entries may dip negative; clipping fixes it.
        assert!((run.distribution.total_mass() - 1.0).abs() < 0.05);
        let clipped = run.distribution.clip_renormalize();
        assert!(clipped.is_proper(1e-9));
    }

    #[test]
    fn uncut_reference_run() {
        let (circuit, _) = GoldenAnsatz::new(5, 7).build();
        let backend = IdealBackend::new(9);
        let exec = CutExecutor::new(&backend);
        let run = exec.run_uncut(&circuit, 30_000).unwrap();
        let d = total_variation_distance(&run.distribution, &truth(&circuit));
        assert!(d < 0.03);
        assert_eq!(run.report.shots, 30_000);
    }

    #[test]
    fn invalid_cut_is_reported() {
        let (circuit, _) = GoldenAnsatz::new(5, 0).build();
        let backend = IdealBackend::new(0);
        let exec = CutExecutor::new(&backend);
        let bad = CutSpec::single(0, 99);
        let err = exec
            .run(&circuit, &bad, GoldenPolicy::Disabled, &options(100))
            .unwrap_err();
        // The static-analysis gate catches the invalid cut (QA101) before
        // fragmenting even starts.
        let PipelineError::Analysis(diags) = err else {
            panic!("expected analysis rejection, got {err:?}");
        };
        assert!(diags.contains(crate::analysis::LintCode::InvalidCut));
    }

    #[test]
    fn invalid_cut_is_reported_as_fragment_error_when_analysis_is_off() {
        let (circuit, _) = GoldenAnsatz::new(5, 0).build();
        let backend = IdealBackend::new(0);
        let exec = CutExecutor::new(&backend);
        let bad = CutSpec::single(0, 99);
        let opts = ExecutionOptions {
            shots_per_setting: 100,
            analysis: AnalysisConfig::disabled(),
            ..Default::default()
        };
        let err = exec
            .run(&circuit, &bad, GoldenPolicy::Disabled, &opts)
            .unwrap_err();
        assert!(matches!(err, PipelineError::Fragment(_)));
    }

    #[test]
    fn invalid_cut_is_reported_as_fragment_error_when_qa101_is_allowed() {
        // Analysis runs and fragments, but an Allow-level QA101 reports
        // nothing; the run surfaces analysis's own fragmenting error.
        let (circuit, _) = GoldenAnsatz::new(5, 0).build();
        let backend = IdealBackend::new(0);
        let bad = CutSpec::single(0, 99);
        let opts = ExecutionOptions {
            shots_per_setting: 100,
            analysis: AnalysisConfig::default()
                .with_override(LintCode::InvalidCut, Severity::Allow),
            ..Default::default()
        };
        let err = CutExecutor::new(&backend)
            .run(&circuit, &bad, GoldenPolicy::Disabled, &opts)
            .unwrap_err();
        assert!(matches!(err, PipelineError::Fragment(_)), "{err:?}");
    }

    #[test]
    fn malformed_ir_is_rejected_by_analysis_not_a_panic() {
        // An out-of-range operand stops analysis before it fragments; the
        // Deny-level QA001 must end the run before anything indexes the
        // bad wire.
        use qcut_circuit::circuit::Instruction;
        use qcut_circuit::gate::Gate;
        let circuit = Circuit::from_instructions_unchecked(
            2,
            vec![Instruction {
                gate: Gate::H,
                qubits: vec![7],
            }],
        );
        let backend = IdealBackend::new(0);
        let err = CutExecutor::new(&backend)
            .run(
                &circuit,
                &CutSpec::single(0, 0),
                GoldenPolicy::Disabled,
                &options(100),
            )
            .unwrap_err();
        let PipelineError::Analysis(diags) = err else {
            panic!("expected analysis rejection, got {err:?}");
        };
        assert!(diags.contains(LintCode::OutOfRangeOperand));
    }

    #[test]
    fn fault_free_default_run_has_clean_fault_accounting() {
        let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
        let backend = IdealBackend::new(3);
        let run = CutExecutor::new(&backend)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options(2000))
            .unwrap();
        assert_eq!(run.report.attempts, run.report.jobs_executed as u64);
        assert_eq!(run.report.jobs_retried, 0);
        assert_eq!(run.report.shots_lost, 0);
        assert_eq!(run.report.backoff_seconds, 0.0);
        assert!(!run.report.degraded);
        assert!(run.report.failures.is_empty());
        assert_eq!(run.report.variance_inflation, 1.0);
    }

    #[test]
    fn transient_faults_retry_to_a_bit_identical_run() {
        use crate::retry::Backoff;
        use qcut_device::fault::FaultInjectingBackend;
        let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
        // Every subcircuit fails its first two submissions, then recovers.
        let flaky = FaultInjectingBackend::new(IdealBackend::new(3)).fail_first(2);
        let opts = ExecutionOptions {
            shots_per_setting: 5000,
            retry: RetryPolicy {
                max_attempts: 4,
                backoff: Backoff::Fixed(Duration::from_millis(10)),
                per_job_timeout: None,
            },
            ..Default::default()
        };
        let run = CutExecutor::new(&flaky)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap();

        let clean = IdealBackend::new(3);
        let reference = CutExecutor::new(&clean)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options(5000))
            .unwrap();
        let d = total_variation_distance(&run.distribution, &reference.distribution);
        assert_eq!(d, 0.0, "recovered run must be bit-identical, off by {d}");

        assert!(!run.report.degraded);
        assert!(run.report.failures.is_empty());
        assert_eq!(run.report.variance_inflation, 1.0);
        // 9 nodes × (2 failures + 1 success): 27 attempts, 18 of them retries.
        assert_eq!(run.report.jobs_retried, 18);
        assert_eq!(run.report.attempts, 27);
        assert_eq!(run.report.shots_lost, 0);
        // Backoff is accounting, never slept: two retry rounds × 10 ms
        // (failed nodes re-submit together, one delay per round).
        assert!((run.report.backoff_seconds - 0.02).abs() < 1e-12);
    }

    #[test]
    fn degrade_salvages_a_permanently_failed_meas_setting() {
        use crate::basis::MeasBasis;
        use crate::tomography::build_upstream_circuit;
        use qcut_device::fault::FaultInjectingBackend;
        let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        let y_circuit = build_upstream_circuit(&frags.upstream, &[MeasBasis::Y]);
        // The Y-measurement subcircuit fails on every attempt.
        let backend =
            FaultInjectingBackend::new(IdealBackend::new(3)).fail_circuit(&y_circuit, u32::MAX);
        let opts = ExecutionOptions {
            shots_per_setting: 20_000,
            retry: RetryPolicy::with_attempts(2),
            failure: FailurePolicy::Degrade,
            ..Default::default()
        };
        let run = CutExecutor::new(&backend)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap();

        assert!(run.report.degraded);
        assert_eq!(run.report.failures.len(), 1);
        assert_eq!(run.report.failures[0].attempts, 2);
        assert!(run.report.shots_lost > 0);
        // The lost setting was neglected and the reconstruction
        // renormalized over the survivors: 4 → 3 terms, variance ×4/3.
        assert!(run.report.neglected[0].contains(&Pauli::Y));
        assert_eq!(run.report.reconstruction_terms, 3);
        assert!((run.report.variance_inflation - 4.0 / 3.0).abs() < 1e-12);
        // The ansatz is golden at Y, so dropping it is exact in the limit.
        let d = total_variation_distance(&run.distribution, &truth(&circuit));
        assert!(d < 0.05, "degraded reconstruction off by {d}");
    }

    #[test]
    fn fail_policy_raises_a_typed_execution_error() {
        use crate::basis::MeasBasis;
        use crate::tomography::build_upstream_circuit;
        use qcut_device::fault::FaultInjectingBackend;
        let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
        let frags = Fragmenter::fragment(&circuit, &cut).unwrap();
        let y_circuit = build_upstream_circuit(&frags.upstream, &[MeasBasis::Y]);
        let backend =
            FaultInjectingBackend::new(IdealBackend::new(3)).fail_circuit(&y_circuit, u32::MAX);
        let opts = ExecutionOptions {
            shots_per_setting: 2000,
            retry: RetryPolicy::with_attempts(3),
            ..Default::default()
        };
        let err = CutExecutor::new(&backend)
            .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
            .unwrap_err();
        let PipelineError::Execution(failure) = err else {
            panic!("expected a typed execution failure, got {err:?}");
        };
        assert_eq!(failure.failed.len(), 1);
        assert_eq!(failure.failed[0].attempts, 3);
        // The 8 surviving subcircuits are named as salvaged consumers.
        assert_eq!(failure.succeeded.len(), 8);
        assert!(matches!(failure.cause, BackendError::Transient { .. }));
    }

    #[test]
    fn report_timing_fields_are_populated() {
        let (circuit, cut) = GoldenAnsatz::new(5, 8).build();
        let backend = IdealBackend::new(10);
        let exec = CutExecutor::new(&backend);
        let run = exec
            .run(&circuit, &cut, GoldenPolicy::Disabled, &options(1000))
            .unwrap();
        assert!(run.report.gather_seconds > 0.0);
        assert!(run.report.reconstruct_seconds >= 0.0);
        assert!(run.report.total_host_seconds() > 0.0);
    }
}
