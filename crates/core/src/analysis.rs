//! Static analysis of cutting workloads: coded lints over the circuit,
//! the cut, the predicted shot schedule, the planned job graph, the cache
//! and fault-tolerance configuration, and the backend pool.
//!
//! The paper trades a provably-bounded bias for shot savings, which makes
//! correctness rest on a web of invariants — budget exactness, neglect
//! coverage, cut validity — that the rest of the workspace only checks
//! *during* execution. [`analyze`] checks them **before any shot is
//! spent**. It is pure: no backend calls and no file IO. It computes each
//! input once (the fragments, the predicted schedules, the planned graph),
//! runs one table of checks over them layer by layer, and returns typed
//! [`Diagnostics`]. [`crate::pipeline::CutExecutor::run`] gates on it —
//! deny-level findings become [`crate::error::PipelineError::Analysis`]
//! and warnings ride along in
//! [`crate::report::RunReport::diagnostics`].
//!
//! Severity semantics:
//!
//! * [`Severity::Deny`] — the workload cannot produce a sound result
//!   (malformed IR, invalid bipartition, a budget no reachable plan fits);
//!   the pipeline refuses to execute it.
//! * [`Severity::Warn`] — the workload runs but something is off
//!   (wasteful, fragile, or predicted to fail at a later stage unless a
//!   dynamic step rescues it); surfaced in the run report.
//! * [`Severity::Allow`] — the finding is informational (structure hints,
//!   coverage reports) and its check does not run by default; promote it
//!   via [`AnalysisConfig::with_override`] to see it.
//!
//! ```
//! use qcut_circuit::ansatz::GoldenAnsatz;
//! use qcut_core::analysis::analyze;
//! use qcut_core::pipeline::ExecutionOptions;
//!
//! let (circuit, cut) = GoldenAnsatz::new(5, 7).build();
//! let diags = analyze(&circuit, &cut, &ExecutionOptions::default());
//! assert!(diags.is_clean(), "example workloads lint clean: {diags}");
//! ```

use crate::allocation::{
    schedule_for_plan, schedule_sic, AllocationError, ShotAllocation, ShotSchedule,
};
use crate::basis::BasisPlan;
use crate::fragment::{FragmentError, Fragmenter, Fragments};
use crate::jobgraph::{ConsumerKey, JobGraph};
use crate::pipeline::{ExecutionOptions, ReconstructionMethod};
use crate::planner::gather_graph;
use crate::retry::FailurePolicy;
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_circuit::gate::Gate;
use qcut_device::backend::Backend;
use qcut_device::pool::MemberInfo;
use qcut_device::timing::TimingModel;
use qcut_math::Pauli;
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::fmt;

pub use crate::dataflow::{cut_report, CutCandidate, CutReport};

/// How a finding is acted on (see the module docs for the semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational; suppressed unless promoted by an override.
    Allow,
    /// Surfaced in [`crate::report::RunReport::diagnostics`]; the run
    /// proceeds.
    Warn,
    /// The pipeline rejects the workload
    /// ([`crate::error::PipelineError::Analysis`]).
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// The diagnostic codes, grouped by layer: `QA0xx` circuit, `QA1xx` cut,
/// `QA2xx` schedule, `QA4xx` warm-start cache, `QA5xx` fault tolerance,
/// `QA6xx` dataflow, `QA7xx` backend pool. Each variant's `QAxxx` string
/// ([`LintCode::as_str`]) and default severity
/// ([`LintCode::default_severity`]) come from the lint table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LintCode {
    /// Instruction operands out of range, wrong arity, or duplicated
    /// (malformed IR; deeper layers would panic on it).
    OutOfRangeOperand,
    /// A qubit with no instructions (its fragment membership is undefined,
    /// so fragmenting will reject the workload).
    IdleQubit,
    /// A gate that is the identity up to global phase (dead weight in
    /// every tomography variant).
    IdentityGate,
    /// Adjacent gates on the same operands that a transpiler would fuse or
    /// cancel (adjoint pairs, same-axis rotations).
    FusibleAdjacent,
    /// The cut specification does not bipartition the circuit (lifted
    /// from `CutSpec::validate` / fragment extraction).
    InvalidCut,
    /// The `4^K` wire-cut sampling overhead exceeds
    /// [`AnalysisConfig::max_sampling_overhead`].
    SamplingOverhead,
    /// The upstream fragment applies only real gates: every cut is a
    /// golden-Y candidate the configured policy is not exploiting.
    GoldenStructure,
    /// The shot budget cannot cover even the fully-golden minimal plan, so
    /// no execution path can succeed.
    BudgetBelowFloor,
    /// A setting is scheduled at zero shots (its histogram would be empty
    /// and the contraction reads garbage).
    ZeroShotSetting,
    /// Neglect-coverage report: standard vs fully-golden setting counts
    /// and whether static golden structure exists.
    NeglectCoverage,
    /// The budget starves the *standard* plan; only a golden shrink
    /// (detection) can let this run succeed.
    StandardPlanStarved,
    /// The warm-start cache is enabled but the backend does not guarantee
    /// deterministic seeding, so cached histograms will not be
    /// bit-reproducible across processes.
    CacheNondeterministicSeeding,
    /// The cache byte budget is below a single planned node's histogram
    /// entry: every store immediately evicts (thrash) and the cache can
    /// never serve a warm hit.
    CacheByteBudgetThrash,
    /// The warm-start cache could not load its configured file (or,
    /// reported by the pipeline, failed to persist it), so the run
    /// degrades to a cold start.
    CacheDegraded,
    /// The backend injects faults but retries are disabled
    /// (`max_attempts ≤ 1`): every transient fault is immediately
    /// permanent.
    FaultProneNoRetry,
    /// The per-job timeout is below a planned node's predicted device
    /// duration: that node can never deliver in time and every attempt is
    /// wasted device occupation.
    TimeoutBelowJobDuration,
    /// `FailurePolicy::Degrade` is configured where losing any one setting
    /// already makes reconstruction impossible (SIC preparations are
    /// informationally complete; a cut at two neglects has no basis left
    /// to drop), so degradation can never salvage.
    DegradeUnsalvageable,
    /// The chosen cut is Pareto-dominated by another wire edge under the
    /// dataflow cost model (at least as many proven-golden bases, no more
    /// settings, no more entangling crossings, better somewhere).
    DominatedCutPlacement,
    /// A whole-circuit dead gate the light-cone domain proves cannot
    /// affect the final distribution (prep-dead or measure-dead);
    /// single-gate effective identities stay [`LintCode::IdentityGate`]'s
    /// turf.
    OutOfConeDeadGate,
    /// The stabilizer prover certifies golden bases the configured plan is
    /// not neglecting; `GoldenPolicy::ProveStatic` would bank them with
    /// zero detection shots.
    ProvableGoldenUndetected,
    /// A planned node's circuit is wider than every pool member's qubit
    /// capacity: no placement can seat it and it fails before a single
    /// shot is submitted.
    PoolCapacityInfeasible,
    /// A warm-start cache is attached to a pool whose members carry
    /// distinct cache fingerprints: the reconstruction merges histograms
    /// measured under different fingerprints, and a failed-over node's
    /// histogram is stored under its *assigned* member's key even though a
    /// sibling measured it.
    PoolFingerprintMixing,
    /// The pool has more members than the planned graph has unique nodes,
    /// so some members necessarily sit idle every round.
    PoolIdleMember,
}

impl LintCode {
    /// Every code, in code order.
    pub const ALL: [LintCode; 23] = {
        let mut all = [LintCode::OutOfRangeOperand; 23];
        let mut i = 0;
        while i < all.len() {
            all[i] = RULES[i].code;
            i += 1;
        }
        all
    };

    /// The stable `QAxxx` code string.
    pub fn as_str(self) -> &'static str {
        self.rule().id
    }

    /// The severity a finding carries unless overridden in
    /// [`AnalysisConfig::overrides`].
    pub fn default_severity(self) -> Severity {
        self.rule().severity
    }

    /// This code's row of the lint table (rows are in variant order).
    fn rule(self) -> &'static Rule {
        &RULES[self as usize]
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of one lint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// The code of the lint that fired.
    pub code: LintCode,
    /// The effective severity (after [`AnalysisConfig`] overrides).
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.code, self.severity, self.message)
    }
}

/// The findings of one [`analyze`] pass (allow-level findings are already
/// filtered out; only warnings and denials remain).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// No findings at warn level or above.
    pub fn is_clean(&self) -> bool {
        self.items.is_empty()
    }

    /// True when any finding is deny-level (the pipeline refuses to run).
    pub fn has_deny(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Deny)
    }

    /// The deny-level findings.
    pub fn deny(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.items.iter().filter(|d| d.severity == Severity::Deny)
    }

    /// The warn-level findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.items.iter().filter(|d| d.severity == Severity::Warn)
    }

    /// All findings, in emission (layer) order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.items.iter()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there are no findings.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when some finding carries `code`.
    pub fn contains(&self, code: LintCode) -> bool {
        self.items.iter().any(|d| d.code == code)
    }

    /// Consumes the findings as a vector (what the run report stores).
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.items
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.items.is_empty() {
            return f.write_str("no findings");
        }
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Configuration of the static-analysis gate, carried on
/// [`ExecutionOptions::analysis`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Run [`analyze`] inside [`crate::pipeline::CutExecutor::run`]
    /// (default `true`). Off skips the gate entirely — no diagnostics are
    /// computed or reported.
    pub enabled: bool,
    /// [`LintCode::SamplingOverhead`] fires when the `4^K` wire-cut
    /// sampling overhead exceeds this bound (default `4^6 = 4096`).
    pub max_sampling_overhead: f64,
    /// Schedule and graph lints are skipped when the standard plan's
    /// setting count exceeds this bound, keeping [`analyze`] cheap at
    /// large `K` (default `10_000`).
    pub max_planned_jobs: usize,
    /// Per-code severity overrides, later entries winning. Demote a noisy
    /// warn to [`Severity::Allow`] or promote an informational lint to
    /// [`Severity::Warn`] to surface its report.
    pub overrides: Vec<(LintCode, Severity)>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            enabled: true,
            max_sampling_overhead: 4096.0,
            max_planned_jobs: 10_000,
            overrides: Vec::new(),
        }
    }
}

impl AnalysisConfig {
    /// The configuration that skips the gate entirely.
    pub fn disabled() -> Self {
        AnalysisConfig {
            enabled: false,
            ..Self::default()
        }
    }

    /// Returns the configuration with one more severity override.
    pub fn with_override(mut self, code: LintCode, severity: Severity) -> Self {
        self.overrides.push((code, severity));
        self
    }

    /// The effective severity of `code` under this configuration.
    pub fn severity(&self, code: LintCode) -> Severity {
        self.overrides
            .iter()
            .rev()
            .find(|(c, _)| *c == code)
            .map(|&(_, s)| s)
            .unwrap_or_else(|| code.default_severity())
    }
}

/// The pipeline layer a check reads. [`analyze`] runs layers in order and
/// stops descending when a layer's soundness premise is broken (malformed
/// IR stops before fragmenting; an invalid cut stops before scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// The workload circuit itself.
    Circuit,
    /// The cut specification against the circuit.
    Cut,
    /// The predicted shot schedule for the standard plan.
    Schedule,
    /// The planned (unexecuted) job graph.
    Graph,
    /// The warm-start cache configuration.
    Cache,
    /// The fault-tolerance configuration: retry and failure policy.
    Execution,
    /// The dataflow facts: stabilizer-domain golden proofs, light-cone
    /// dead gates, and the wire-edge cut cost model.
    Dataflow,
}

/// A check appends one message per finding; `run_layer` stamps each with
/// the row's code and effective severity.
type Check = fn(&AnalysisContext<'_>, &mut Vec<String>);

/// One row of the lint table: everything the analysis knows about a code.
struct Rule {
    code: LintCode,
    id: &'static str,
    severity: Severity,
    layer: Layer,
    check: Check,
}

/// The lint table, one row per [`LintCode`], in code order.
#[rustfmt::skip]
static RULES: [Rule; 23] = {
    use LintCode as C;
    use Severity::{Allow, Deny, Warn};
    const fn row(code: C, id: &'static str, severity: Severity, layer: Layer, check: Check) -> Rule {
        Rule { code, id, severity, layer, check }
    }
    [
        row(C::OutOfRangeOperand, "QA001", Deny, Layer::Circuit, out_of_range_operand),
        row(C::IdleQubit, "QA002", Warn, Layer::Circuit, idle_qubit),
        row(C::IdentityGate, "QA003", Warn, Layer::Circuit, identity_gate),
        row(C::FusibleAdjacent, "QA004", Allow, Layer::Circuit, fusible_adjacent),
        row(C::InvalidCut, "QA101", Deny, Layer::Cut, invalid_cut),
        row(C::SamplingOverhead, "QA102", Warn, Layer::Cut, sampling_overhead),
        row(C::GoldenStructure, "QA103", Allow, Layer::Cut, golden_structure),
        row(C::BudgetBelowFloor, "QA201", Deny, Layer::Schedule, budget_below_floor),
        row(C::ZeroShotSetting, "QA202", Deny, Layer::Schedule, zero_shot_setting),
        row(C::NeglectCoverage, "QA203", Allow, Layer::Schedule, neglect_coverage),
        row(C::StandardPlanStarved, "QA204", Warn, Layer::Schedule, standard_plan_starved),
        row(C::CacheNondeterministicSeeding, "QA401", Warn, Layer::Cache, cache_nondeterministic_seeding),
        row(C::CacheByteBudgetThrash, "QA402", Warn, Layer::Graph, cache_byte_budget_thrash),
        row(C::CacheDegraded, "QA403", Warn, Layer::Cache, cache_degraded),
        row(C::FaultProneNoRetry, "QA501", Warn, Layer::Execution, fault_prone_no_retry),
        row(C::TimeoutBelowJobDuration, "QA502", Warn, Layer::Graph, timeout_below_job_duration),
        row(C::DegradeUnsalvageable, "QA503", Warn, Layer::Execution, degrade_unsalvageable),
        row(C::DominatedCutPlacement, "QA601", Allow, Layer::Dataflow, dominated_cut_placement),
        row(C::OutOfConeDeadGate, "QA602", Allow, Layer::Dataflow, out_of_cone_dead_gate),
        row(C::ProvableGoldenUndetected, "QA603", Allow, Layer::Dataflow, provable_golden_undetected),
        row(C::PoolCapacityInfeasible, "QA701", Deny, Layer::Graph, pool_capacity_infeasible),
        row(C::PoolFingerprintMixing, "QA702", Warn, Layer::Cache, pool_fingerprint_mixing),
        row(C::PoolIdleMember, "QA703", Allow, Layer::Graph, pool_idle_member),
    ]
};

/// What the backend reports about itself (known only on the
/// [`analyze_with_backend`] path).
struct BackendFacts<'a> {
    deterministic_seeding: bool,
    fault_prone: bool,
    timing: &'a TimingModel,
    /// The members of a [`qcut_device::pool::BackendPool`] backend; `None`
    /// on a bare backend.
    pool: Option<Vec<MemberInfo>>,
}

impl<'a> BackendFacts<'a> {
    /// What the backend-dependent checks may query, without running it.
    fn of<B: Backend + ?Sized>(backend: &'a B) -> Self {
        BackendFacts {
            deterministic_seeding: backend.deterministic_seeding(),
            fault_prone: backend.is_fault_prone(),
            timing: backend.timing(),
            pool: backend.as_pool().map(|p| p.member_info()),
        }
    }
}

/// Everything a check may read. The `Option` fields are filled layer by
/// layer, each computed once; a check skips (never fires) when its inputs
/// are absent.
struct AnalysisContext<'a> {
    circuit: &'a Circuit,
    cut: &'a CutSpec,
    options: &'a ExecutionOptions,
    /// The resolved, normalized shot-allocation policy.
    allocation: ShotAllocation,
    /// `(index, description)` per malformed instruction.
    malformed: Vec<(usize, String)>,
    /// `None` on the backend-free [`analyze`] path, where the
    /// backend-dependent checks skip rather than guess.
    backend: Option<BackendFacts<'a>>,
    /// The fragmenting result (present once the IR is well-formed).
    fragmented: Option<&'a Result<Fragments, FragmentError>>,
    /// The standard (pre-detection) basis plan (present once the cut
    /// validated).
    plan: Option<&'a BasisPlan>,
    /// The predicted schedules of the standard plan and of the
    /// fully-golden floor (present for the schedule and graph layers).
    standard: Option<&'a Result<ShotSchedule, AllocationError>>,
    floor: Option<&'a Result<ShotSchedule, AllocationError>>,
    /// The planned gather graph, built on first use by a graph check.
    graph: OnceCell<Option<JobGraph>>,
}

impl<'a> AnalysisContext<'a> {
    fn new(
        circuit: &'a Circuit,
        cut: &'a CutSpec,
        options: &'a ExecutionOptions,
        backend: Option<BackendFacts<'a>>,
    ) -> Self {
        AnalysisContext {
            circuit,
            cut,
            options,
            allocation: options.resolved_allocation().normalized(),
            malformed: invalid_instructions(circuit),
            backend,
            fragmented: None,
            plan: None,
            standard: None,
            floor: None,
            graph: OnceCell::new(),
        }
    }

    fn fragments(&self) -> Option<&'a Fragments> {
        self.fragmented.and_then(|f| f.as_ref().ok())
    }

    fn pool(&self) -> Option<&[MemberInfo]> {
        self.backend.as_ref().and_then(|b| b.pool.as_deref())
    }

    /// The gather graph the pipeline would plan for the standard schedule
    /// (never executed by analysis).
    fn graph(&self) -> Option<&JobGraph> {
        self.graph
            .get_or_init(|| {
                let (Some(fragments), Some(plan), Some(Ok(sched))) =
                    (self.fragments(), self.plan, self.standard)
                else {
                    return None;
                };
                Some(gather_graph(fragments, plan, self.options.method, sched))
            })
            .as_ref()
    }
}

/// Runs every row of `layer` whose effective severity is not
/// [`Severity::Allow`] (an Allow-level check is never run).
fn run_layer(layer: Layer, ctx: &AnalysisContext<'_>, items: &mut Vec<Diagnostic>) {
    for rule in RULES.iter().filter(|r| r.layer == layer) {
        let severity = ctx.options.analysis.severity(rule.code);
        if severity == Severity::Allow {
            continue;
        }
        let mut messages = Vec::new();
        (rule.check)(ctx, &mut messages);
        items.extend(messages.into_iter().map(|message| Diagnostic {
            code: rule.code,
            severity,
            message,
        }));
    }
}

// ---------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------

/// Structural problems of an instruction stream: `(index, description)`
/// per malformed instruction. Empty for every circuit built through the
/// validating [`Circuit::push`] API; non-empty only for circuits imported
/// via [`Circuit::from_instructions_unchecked`].
fn invalid_instructions(circuit: &Circuit) -> Vec<(usize, String)> {
    let n = circuit.num_qubits();
    let mut bad = Vec::new();
    for (i, inst) in circuit.instructions().iter().enumerate() {
        if inst.qubits.len() != inst.gate.arity() {
            bad.push((
                i,
                format!(
                    "gate {} has {} operands, expects {}",
                    inst.gate,
                    inst.qubits.len(),
                    inst.gate.arity()
                ),
            ));
            continue;
        }
        if let Some(&q) = inst.qubits.iter().find(|&&q| q >= n) {
            bad.push((
                i,
                format!("operand qubit {q} outside the {n}-qubit register"),
            ));
            continue;
        }
        if inst.qubits.len() == 2 && inst.qubits[0] == inst.qubits[1] {
            bad.push((
                i,
                format!("two-qubit gate {} applied to one qubit twice", inst.gate),
            ));
        }
    }
    bad
}

/// The fully-golden floor: the smallest plan any detection outcome could
/// shrink the standard plan to — two neglected bases per cut, leaving one
/// measurement basis and one eigenstate pair. What a budget must at least
/// cover for *any* execution path to exist (lint `QA201`).
pub fn minimal_golden_plan(num_cuts: usize) -> BasisPlan {
    let mut plan = BasisPlan::standard(num_cuts);
    for k in 0..num_cuts {
        plan.neglect(k, Pauli::X);
        plan.neglect(k, Pauli::Y);
    }
    plan
}

/// Setting count of `plan` without enumerating the cartesian products
/// (which would be exponential work for large `K`).
fn estimated_settings(plan: &BasisPlan, method: ReconstructionMethod) -> f64 {
    let num_cuts = plan.num_cuts();
    let up: f64 = (0..num_cuts)
        .map(|k| plan.meas_bases(k).len() as f64)
        .product();
    let down: f64 = match method {
        ReconstructionMethod::Eigenstate => (0..num_cuts)
            .map(|k| plan.prep_states(k).len() as f64)
            .product(),
        ReconstructionMethod::Sic => 4f64.powi(num_cuts as i32),
    };
    up + down
}

/// Whether `a` then `b` on identical operands is a pair a transpiler
/// would merge (same-axis rotations) or cancel (adjoint pairs).
fn fusible_pair(a: &Gate, b: &Gate) -> bool {
    let same_family = matches!(
        (a, b),
        (Gate::Rx(_), Gate::Rx(_))
            | (Gate::Ry(_), Gate::Ry(_))
            | (Gate::Rz(_), Gate::Rz(_))
            | (Gate::Phase(_), Gate::Phase(_))
            | (Gate::Crx(_), Gate::Crx(_))
            | (Gate::Cry(_), Gate::Cry(_))
            | (Gate::Crz(_), Gate::Crz(_))
            | (Gate::CPhase(_), Gate::CPhase(_))
    );
    same_family || *b == a.adjoint()
}

/// Predicted schedule of `plan` under `allocation` — the same typed
/// scheduling functions the pipeline runs, called statically.
fn predicted_schedule(
    plan: &BasisPlan,
    method: ReconstructionMethod,
    allocation: ShotAllocation,
) -> Result<ShotSchedule, AllocationError> {
    match method {
        ReconstructionMethod::Eigenstate => schedule_for_plan(plan, allocation),
        ReconstructionMethod::Sic => schedule_sic(plan, allocation),
    }
}

/// The largest consumer demand of one planned node.
fn node_shots(consumers: &[(ConsumerKey, u64)]) -> u64 {
    consumers.iter().map(|&(_, s)| s).max().unwrap_or(0)
}

// ---------------------------------------------------------------------
// Circuit-layer checks (QA0xx).
// ---------------------------------------------------------------------

fn out_of_range_operand(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    for (i, what) in &ctx.malformed {
        out.push(format!("instruction #{i}: {what}"));
    }
}

fn idle_qubit(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let idle = ctx.circuit.idle_qubits();
    if !idle.is_empty() {
        out.push(format!(
            "{} qubit(s) have no instructions ({idle:?}); fragmenting \
             cannot assign them to a side of the cut",
            idle.len()
        ));
    }
}

fn identity_gate(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    for (i, inst) in ctx.circuit.instructions().iter().enumerate() {
        if inst.gate.is_effective_identity() {
            out.push(format!(
                "instruction #{i} ({inst}) is the identity up to global \
                 phase; it costs simulation work in every tomography \
                 variant and changes nothing"
            ));
        }
    }
}

fn fusible_adjacent(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let instructions = ctx.circuit.instructions();
    for (i, inst) in instructions.iter().enumerate() {
        // The next instruction touching any of this one's qubits: if it
        // uses exactly the same operands, nothing can act between them
        // on those wires, so the pair is genuinely adjacent.
        let Some((j, next)) = instructions
            .iter()
            .enumerate()
            .skip(i + 1)
            .find(|(_, n)| n.qubits.iter().any(|q| inst.qubits.contains(q)))
        else {
            continue;
        };
        if next.qubits == inst.qubits && fusible_pair(&inst.gate, &next.gate) {
            out.push(format!(
                "instructions #{i} ({inst}) and #{j} ({next}) are \
                 adjacent on the same operands and would fuse to one \
                 gate (or cancel)"
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Cut-layer checks (QA1xx).
// ---------------------------------------------------------------------

fn invalid_cut(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    if let Some(Err(e)) = ctx.fragmented {
        out.push(format!("cut does not fragment: {e}"));
    }
}

fn sampling_overhead(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let k = ctx.cut.num_cuts();
    let overhead = 4f64.powi(k as i32);
    let bound = ctx.options.analysis.max_sampling_overhead;
    if overhead > bound {
        out.push(format!(
            "{k} wire cuts carry a 4^{k} = {overhead:.0} sampling \
             overhead, above the configured bound of {bound:.0}; shot \
             requirements grow by that factor for the same accuracy"
        ));
    }
}

fn golden_structure(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let Some(fragments) = ctx.fragments() else {
        return;
    };
    if fragments.upstream.circuit.is_real() {
        out.push(format!(
            "the upstream fragment applies only real gates, so every \
             state at the {} cut port(s) is real and its Y expectation \
             vanishes identically — each cut is a golden-Y candidate; \
             GoldenPolicy::detect_exact() or DetectOnline would shrink \
             the plan",
            fragments.num_cuts
        ));
    }
}

// ---------------------------------------------------------------------
// Schedule-layer checks (QA2xx).
// ---------------------------------------------------------------------

fn budget_below_floor(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    if let Some(Err(e)) = ctx.floor {
        out.push(format!(
            "the budget cannot cover even the fully-golden minimal \
             plan, so no detection outcome can make this run \
             schedulable: {e}"
        ));
    }
}

fn zero_shot_setting(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let Some(standard) = ctx.standard else {
        return;
    };
    if let ShotAllocation::Uniform {
        shots_per_setting: 0,
    } = ctx.allocation
    {
        out.push(
            "the uniform policy schedules zero shots per setting; every \
             histogram would be empty and the contraction reads garbage"
                .to_string(),
        );
        return;
    }
    if let Ok(sched) = standard {
        if sched.num_settings() > 0 && sched.min_shots() == 0 {
            out.push(
                "the predicted schedule leaves at least one setting at \
                 zero shots; its empty histogram would poison the \
                 contraction"
                    .to_string(),
            );
        }
    }
}

fn neglect_coverage(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let (Some(plan), Some(fragments)) = (ctx.plan, ctx.fragments()) else {
        return;
    };
    let method = ctx.options.method;
    let standard = estimated_settings(plan, method);
    let floor = estimated_settings(&minimal_golden_plan(plan.num_cuts()), method);
    let golden = if fragments.upstream.circuit.is_real() {
        "static golden-Y structure present"
    } else {
        "no static golden structure detected"
    };
    out.push(format!(
        "plan coverage over {} cut(s): {standard:.0} settings standard, \
         {floor:.0} at the fully-golden floor; {golden}",
        plan.num_cuts()
    ));
}

fn standard_plan_starved(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    // Only meaningful when some plan fits (otherwise QA201 already denies
    // the workload outright).
    if let (Some(Ok(_)), Some(Err(e))) = (ctx.floor, ctx.standard) {
        out.push(format!(
            "the budget starves the standard (no-neglect) plan — the \
             run fails at allocation time unless golden detection \
             shrinks the plan first: {e}"
        ));
    }
}

// ---------------------------------------------------------------------
// Cache-layer checks (QA4xx).
// ---------------------------------------------------------------------

fn cache_nondeterministic_seeding(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    // Backend-free analyze() leaves the discipline unknown: skip, don't
    // guess.
    let Some(backend) = &ctx.backend else { return };
    if ctx.options.cache.is_some() && !backend.deterministic_seeding {
        out.push(
            "the warm-start cache is enabled but the backend does not \
             guarantee deterministic seeding; cached histograms remain \
             statistically valid samples, but warm reruns will not be \
             bit-reproducible across processes"
                .to_string(),
        );
    }
}

fn cache_byte_budget_thrash(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let Some(cache) = ctx.options.cache.as_deref() else {
        return;
    };
    let Some(graph) = ctx.graph() else { return };
    // The worst single entry the planned graph could store: if even one
    // node's histogram cannot fit, storing it evicts everything and the
    // cache thrashes without ever serving a warm hit.
    let worst = graph
        .node_jobs()
        .map(|(circuit, consumers)| {
            qcut_cache::estimated_entry_bytes(circuit, node_shots(consumers))
        })
        .max();
    let budget = cache.config().byte_budget;
    if let Some(worst) = worst.filter(|&w| w > budget) {
        out.push(format!(
            "the cache byte budget ({budget} B) is below the largest \
             planned node's estimated histogram entry ({worst} B); \
             every store of that node immediately evicts it and \
             warm runs stay cold"
        ));
    }
}

fn cache_degraded(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    // The notice `WarmCache::open` left when the configured file would
    // not load; a missing file is a normal first run, not a finding.
    let Some(cache) = ctx.options.cache.as_deref() else {
        return;
    };
    if let Some(why) = cache.degradation() {
        out.push(format!("warm-start cache degraded to a cold start: {why}"));
    }
}

// ---------------------------------------------------------------------
// Execution-layer checks (QA5xx): fault tolerance.
// ---------------------------------------------------------------------

fn fault_prone_no_retry(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    // Backend-free analyze() leaves the fault discipline unknown: skip,
    // don't guess.
    let Some(backend) = &ctx.backend else { return };
    if backend.fault_prone && ctx.options.retry.max_attempts <= 1 {
        out.push(
            "the backend reports itself fault-prone but retries are \
             disabled (max_attempts ≤ 1): every transient fault is \
             immediately permanent; set RetryPolicy::max_attempts > 1 \
             to ride out the fault schedule"
                .to_string(),
        );
    }
}

fn timeout_below_job_duration(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let (Some(backend), Some(timeout)) = (&ctx.backend, ctx.options.retry.per_job_timeout) else {
        return;
    };
    let Some(graph) = ctx.graph() else { return };
    let doomed: Vec<(usize, f64)> = graph
        .node_jobs()
        .enumerate()
        .filter_map(|(i, (circuit, consumers))| {
            let predicted = backend.timing.job_duration(circuit, node_shots(consumers));
            (predicted > timeout.as_secs_f64()).then_some((i, predicted))
        })
        .collect();
    if let Some(&(node, predicted)) = doomed.first() {
        out.push(format!(
            "{} of {} planned node(s) predict a device duration above \
             the {:.3} s per-job timeout (e.g. node {node} at \
             {predicted:.3} s); those jobs time out on every attempt \
             and each attempt still wastes the full device occupation",
            doomed.len(),
            graph.num_nodes(),
            timeout.as_secs_f64(),
        ));
    }
}

fn degrade_unsalvageable(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    if ctx.options.failure != FailurePolicy::Degrade {
        return;
    }
    if ctx.options.method == ReconstructionMethod::Sic {
        out.push(
            "FailurePolicy::Degrade is configured with SIC preparations, \
             but the SIC frame is informationally complete: losing any \
             one preparation makes the 4×4 solve singular, so a \
             downstream failure can never degrade gracefully — it fails \
             exactly like FailurePolicy::Fail"
                .to_string(),
        );
        return;
    }
    let Some(plan) = ctx.plan else { return };
    let saturated: Vec<usize> = (0..plan.num_cuts())
        .filter(|&k| plan.neglected()[k].len() >= 2)
        .collect();
    if !saturated.is_empty() {
        out.push(format!(
            "FailurePolicy::Degrade is configured but cut(s) \
             {saturated:?} already neglect two bases — no further \
             basis can be dropped there, so losing one of their \
             settings cannot degrade gracefully"
        ));
    }
}

// ---------------------------------------------------------------------
// Dataflow-layer checks (QA6xx).
// ---------------------------------------------------------------------

fn dominated_cut_placement(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    if ctx.cut.num_cuts() != 1 {
        return;
    }
    let loc = ctx.cut.cuts()[0];
    // Static facts only (no statevector simulation inside a check).
    let report = crate::dataflow::cut_report(ctx.circuit, &AnalysisConfig::disabled());
    let Some(chosen) = report
        .candidates
        .iter()
        .find(|c| c.qubit == loc.qubit && c.position == loc.after_op)
    else {
        return;
    };
    let dominating = report.candidates.iter().find(|d| {
        d.feasible
            && (d.qubit, d.position) != (chosen.qubit, chosen.position)
            && d.proven_golden.len() >= chosen.proven_golden.len()
            && d.settings <= chosen.settings
            && d.entangling_crossings <= chosen.entangling_crossings
            && (d.proven_golden.len() > chosen.proven_golden.len()
                || d.settings < chosen.settings
                || d.entangling_crossings < chosen.entangling_crossings)
    });
    if let Some(d) = dominating {
        out.push(format!(
            "the cut at qubit {} position {} is dominated by the wire \
             edge at qubit {} position {}: {} vs {} proven-golden \
             bases, {} vs {} settings, {} vs {} entangling crossings",
            loc.qubit,
            loc.after_op,
            d.qubit,
            d.position,
            d.proven_golden.len(),
            chosen.proven_golden.len(),
            d.settings,
            chosen.settings,
            d.entangling_crossings,
            chosen.entangling_crossings,
        ));
    }
}

fn out_of_cone_dead_gate(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let insts = ctx.circuit.instructions();
    for dead in qcut_circuit::cone::dead_instructions(ctx.circuit) {
        let inst = &insts[dead.index];
        // Single-gate effective identities are QA003's finding.
        if inst.gate.is_effective_identity() {
            continue;
        }
        let why = match dead.kind {
            qcut_circuit::cone::DeadGateKind::PrepDead => {
                "acts by a global phase on the still-|0> operands"
            }
            qcut_circuit::cone::DeadGateKind::MeasureDead => {
                "its forward light cone is all diagonal, so it commutes \
                 to the final measurement it cannot affect"
            }
        };
        out.push(format!(
            "instruction #{} ({inst}) cannot affect the final \
             distribution: {why}",
            dead.index
        ));
    }
}

fn provable_golden_undetected(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let (Some(fragments), Some(plan)) = (ctx.fragments(), ctx.plan) else {
        return;
    };
    let proofs = crate::dataflow::prove_golden_bases(&fragments.upstream, fragments.num_cuts);
    for (cut, proven) in proofs.iter().enumerate() {
        let missed: Vec<Pauli> = proven
            .iter()
            .copied()
            .filter(|p| !plan.neglected()[cut].contains(p))
            .collect();
        if !missed.is_empty() {
            out.push(format!(
                "cut {cut}: the stabilizer prover certifies {missed:?} \
                 golden but the plan still measures them; \
                 GoldenPolicy::ProveStatic would neglect them with \
                 zero detection shots"
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Pool-layer checks (QA7xx): multi-backend sharding.
// ---------------------------------------------------------------------

fn pool_capacity_infeasible(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let Some(members) = ctx.pool() else { return };
    let Some(graph) = ctx.graph() else { return };
    let ceiling = members.iter().map(|m| m.capacity).max().unwrap_or(0);
    let doomed: Vec<(usize, usize)> = graph
        .node_circuits()
        .enumerate()
        .filter_map(|(i, circuit)| {
            let width = circuit.num_qubits();
            (width > ceiling).then_some((i, width))
        })
        .collect();
    if let Some(&(node, width)) = doomed.first() {
        out.push(format!(
            "{} of {} planned node(s) exceed every pool member's \
             capacity (e.g. node {node} at {width} qubits vs a \
             {ceiling}-qubit ceiling across {} member(s)); no \
             placement can seat them and they fail before submission",
            doomed.len(),
            graph.num_nodes(),
            members.len(),
        ));
    }
}

fn pool_fingerprint_mixing(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let (Some(_), Some(members)) = (&ctx.options.cache, ctx.pool()) else {
        return;
    };
    let distinct: std::collections::HashSet<u64> = members.iter().map(|m| m.fingerprint).collect();
    if distinct.len() > 1 {
        out.push(format!(
            "the warm-start cache is enabled on a pool whose {} \
             members carry {} distinct cache fingerprints; the \
             reconstruction merges histograms measured under \
             different fingerprints, and a failed-over node's \
             histogram is stored under its assigned member's key \
             even though a sibling measured it",
            members.len(),
            distinct.len(),
        ));
    }
}

fn pool_idle_member(ctx: &AnalysisContext<'_>, out: &mut Vec<String>) {
    let Some(members) = ctx.pool() else { return };
    let Some(graph) = ctx.graph() else { return };
    let nodes = graph.num_nodes();
    if nodes > 0 && members.len() > nodes {
        out.push(format!(
            "the pool has {} members but the planned graph holds only \
             {nodes} unique node(s); at least {} member(s) sit idle \
             every round regardless of the placement policy",
            members.len(),
            members.len() - nodes,
        ));
    }
}

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

/// Statically analyzes a workload: the circuit, the cut against it, the
/// predicted shot schedule, the planned job graph, and the warm-start
/// cache and fault-tolerance configuration. Pure — nothing executes, no
/// backend is touched, no file is read, and the planned graph is built
/// with the same planner function the pipeline uses and then only
/// *inspected*.
///
/// Layers run in order and stop descending when a premise is broken:
/// malformed IR (`QA001`) stops before fragmenting, an invalid cut
/// (`QA101`) stops before scheduling, and an over-budget setting count
/// ([`AnalysisConfig::max_planned_jobs`]) skips the schedule/graph layers
/// so analysis stays cheap at large `K`.
pub fn analyze(circuit: &Circuit, cut: &CutSpec, options: &ExecutionOptions) -> Diagnostics {
    analyze_inner(circuit, cut, options, None).0
}

/// [`analyze`] plus the backend-dependent lints: knowing the backend
/// lets `QA401` check its seeding discipline, `QA501` its fault
/// discipline, `QA502` predict per-job device durations from its
/// timing model, and the `QA70x` pool lints read its member roster when
/// it is a [`qcut_device::pool::BackendPool`]. Still static — the
/// backend is only *queried* ([`Backend::deterministic_seeding`],
/// [`Backend::is_fault_prone`], [`Backend::timing`],
/// [`Backend::as_pool`]), never run. This is the check set
/// [`crate::pipeline::CutExecutor::run`] gates on.
pub fn analyze_with_backend<B: Backend + ?Sized>(
    circuit: &Circuit,
    cut: &CutSpec,
    options: &ExecutionOptions,
    backend: &B,
) -> Diagnostics {
    analyze_inner(circuit, cut, options, Some(BackendFacts::of(backend))).0
}

/// [`analyze_with_backend`] for the pipeline gate, which also needs the
/// fragments: hands back analysis's own fragmenting result so the run
/// fragments once. The result is `None` when malformed IR stopped
/// analysis before it fragmented — the caller must check the findings
/// for Deny (`QA001`) before it fragments the circuit itself.
pub(crate) fn analyze_and_fragment<B: Backend + ?Sized>(
    circuit: &Circuit,
    cut: &CutSpec,
    options: &ExecutionOptions,
    backend: &B,
) -> (Diagnostics, Option<Result<Fragments, FragmentError>>) {
    analyze_inner(circuit, cut, options, Some(BackendFacts::of(backend)))
}

/// Runs the layers and returns the findings plus the fragmenting result
/// (`None` when malformed IR stopped the descent before fragmenting).
fn analyze_inner(
    circuit: &Circuit,
    cut: &CutSpec,
    options: &ExecutionOptions,
    backend: Option<BackendFacts<'_>>,
) -> (Diagnostics, Option<Result<Fragments, FragmentError>>) {
    let mut ctx = AnalysisContext::new(circuit, cut, options, backend);
    let mut items = Vec::new();
    // Cache-configuration and execution-policy checks read no circuit
    // state, so they run first and always — a malformed workload stopping
    // the descent below must not hide a misconfigured cache or a doomed
    // retry/degrade configuration.
    run_layer(Layer::Cache, &ctx, &mut items);
    run_layer(Layer::Execution, &ctx, &mut items);
    run_layer(Layer::Circuit, &ctx, &mut items);

    // Malformed IR makes every deeper inspection meaningless (and unsafe
    // to index) regardless of how QA001's severity is configured.
    if !ctx.malformed.is_empty() {
        return (Diagnostics { items }, None);
    }

    let fragmented = Fragmenter::fragment(circuit, cut);
    ctx.fragmented = Some(&fragmented);
    run_layer(Layer::Cut, &ctx, &mut items);
    // Past an invalid cut (QA101) nothing deeper is well-defined.
    if let Ok(fragments) = &fragmented {
        let plan = BasisPlan::standard(fragments.num_cuts);
        ctx.plan = Some(&plan);
        // Dataflow checks read the circuit, the cut, the fragments and the
        // standard plan — all present once the cut validated.
        run_layer(Layer::Dataflow, &ctx, &mut items);
        let method = options.method;
        // Schedule and graph checks enumerate the settings; past the
        // budget they are skipped to keep analysis cheap (QA102 has
        // already flagged the blowup).
        if estimated_settings(&plan, method) <= options.analysis.max_planned_jobs as f64 {
            let standard = predicted_schedule(&plan, method, ctx.allocation);
            let floor = predicted_schedule(
                &minimal_golden_plan(plan.num_cuts()),
                method,
                ctx.allocation,
            );
            ctx.standard = Some(&standard);
            ctx.floor = Some(&floor);
            run_layer(Layer::Schedule, &ctx, &mut items);
            run_layer(Layer::Graph, &ctx, &mut items);
        }
    }
    (Diagnostics { items }, Some(fragmented))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use qcut_cache::CacheConfig;
    use qcut_circuit::ansatz::GoldenAnsatz;
    use qcut_circuit::circuit::Instruction;

    #[test]
    fn registry_covers_every_code_once() {
        assert_eq!(RULES.len(), LintCode::ALL.len());
        for code in LintCode::ALL {
            assert_eq!(
                RULES.iter().filter(|r| r.code == code).count(),
                1,
                "{code} must have exactly one row"
            );
            assert_eq!(code.rule().code, code, "{code} indexes another row");
        }
    }

    #[test]
    fn lint_table_has_one_row_per_code_in_code_order() {
        assert_eq!(RULES.len(), LintCode::ALL.len());
        for (i, rule) in RULES.iter().enumerate() {
            // `LintCode::rule` indexes the table by variant.
            assert_eq!(rule.code as usize, i, "{} is out of variant order", rule.id);
            assert_eq!(LintCode::ALL[i], rule.code);
            assert_eq!(rule.code.as_str(), rule.id);
            assert_eq!(rule.code.default_severity(), rule.severity);
            assert!(
                rule.id.len() == 5
                    && rule.id.starts_with("QA")
                    && rule.id[2..].bytes().all(|b| b.is_ascii_digit()),
                "{} is not a QAxxx code",
                rule.id
            );
        }
        // Strictly increasing ids: unique and in code order.
        for pair in RULES.windows(2) {
            assert!(
                pair[0].id < pair[1].id,
                "{} before {}",
                pair[0].id,
                pair[1].id
            );
        }
    }

    #[test]
    fn codes_display_stably() {
        assert_eq!(LintCode::OutOfRangeOperand.to_string(), "QA001");
        assert_eq!(LintCode::CacheNondeterministicSeeding.to_string(), "QA401");
        assert_eq!(LintCode::CacheByteBudgetThrash.to_string(), "QA402");
        assert_eq!(LintCode::CacheDegraded.to_string(), "QA403");
        assert_eq!(LintCode::FaultProneNoRetry.to_string(), "QA501");
        assert_eq!(LintCode::TimeoutBelowJobDuration.to_string(), "QA502");
        assert_eq!(LintCode::DegradeUnsalvageable.to_string(), "QA503");
        assert_eq!(LintCode::DominatedCutPlacement.to_string(), "QA601");
        assert_eq!(LintCode::OutOfConeDeadGate.to_string(), "QA602");
        assert_eq!(LintCode::ProvableGoldenUndetected.to_string(), "QA603");
        assert_eq!(LintCode::PoolCapacityInfeasible.to_string(), "QA701");
        assert_eq!(LintCode::PoolFingerprintMixing.to_string(), "QA702");
        assert_eq!(LintCode::PoolIdleMember.to_string(), "QA703");
    }

    #[test]
    fn overrides_replace_default_severity() {
        let config = AnalysisConfig::default()
            .with_override(LintCode::FusibleAdjacent, Severity::Warn)
            .with_override(LintCode::IdleQubit, Severity::Allow);
        assert_eq!(config.severity(LintCode::FusibleAdjacent), Severity::Warn);
        assert_eq!(config.severity(LintCode::IdleQubit), Severity::Allow);
        assert_eq!(config.severity(LintCode::OutOfRangeOperand), Severity::Deny);
        // Later overrides win.
        let config = config.with_override(LintCode::IdleQubit, Severity::Deny);
        assert_eq!(config.severity(LintCode::IdleQubit), Severity::Deny);
    }

    #[test]
    fn invalid_instructions_catches_all_three_shapes() {
        let c = Circuit::from_instructions_unchecked(
            2,
            vec![
                Instruction {
                    gate: Gate::H,
                    qubits: vec![5],
                },
                Instruction {
                    gate: Gate::Cx,
                    qubits: vec![0],
                },
                Instruction {
                    gate: Gate::Cx,
                    qubits: vec![1, 1],
                },
            ],
        );
        let bad = invalid_instructions(&c);
        assert_eq!(bad.len(), 3);
        assert!(bad[0].1.contains("outside"));
        assert!(bad[1].1.contains("expects 2"));
        assert!(bad[2].1.contains("twice"));
    }

    #[test]
    fn minimal_golden_plan_is_one_meas_basis_per_cut() {
        let plan = minimal_golden_plan(2);
        assert_eq!(plan.all_meas_settings().len(), 1);
        assert_eq!(plan.all_prep_settings().len(), 4);
        assert_eq!(
            estimated_settings(&plan, ReconstructionMethod::Eigenstate),
            5.0
        );
    }

    #[test]
    fn estimated_settings_matches_enumeration_on_small_plans() {
        for k in 1..=3usize {
            let plan = BasisPlan::standard(k);
            assert_eq!(
                estimated_settings(&plan, ReconstructionMethod::Eigenstate),
                plan.total_settings() as f64,
                "K={k}"
            );
        }
    }

    #[test]
    fn analyze_is_clean_on_the_golden_ansatz() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let diags = analyze(&circuit, &cut, &ExecutionOptions::default());
        assert!(diags.is_clean(), "unexpected findings: {diags}");
    }

    /// An ideal backend whose seeding discipline is disavowed — stands in
    /// for a third-party backend sampling from an OS entropy source.
    struct NondeterministicBackend(qcut_device::ideal::IdealBackend);

    impl Backend for NondeterministicBackend {
        fn name(&self) -> &str {
            "nondet"
        }
        fn num_qubits(&self) -> usize {
            self.0.num_qubits()
        }
        fn timing(&self) -> &qcut_device::timing::TimingModel {
            self.0.timing()
        }
        fn run(
            &self,
            circuit: &Circuit,
            shots: u64,
        ) -> Result<qcut_device::backend::ExecutionResult, qcut_device::backend::BackendError>
        {
            self.0.run(circuit, shots)
        }
        fn deterministic_seeding(&self) -> bool {
            false
        }
    }

    fn cached_options() -> ExecutionOptions {
        ExecutionOptions {
            cache: Some(std::sync::Arc::new(qcut_cache::WarmCache::open(
                CacheConfig::in_memory(),
            ))),
            ..Default::default()
        }
    }

    #[test]
    fn qa401_fires_only_with_cache_on_a_nondeterministic_backend() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let nondet = NondeterministicBackend(qcut_device::ideal::IdealBackend::new(1));
        let options = cached_options();

        let diags = analyze_with_backend(&circuit, &cut, &options, &nondet);
        assert!(
            diags.contains(LintCode::CacheNondeterministicSeeding),
            "cache + nondeterministic backend must warn: {diags}"
        );

        // Deterministic backend: clean.
        let ideal = qcut_device::ideal::IdealBackend::new(1);
        assert!(!analyze_with_backend(&circuit, &cut, &options, &ideal)
            .contains(LintCode::CacheNondeterministicSeeding));
        // No cache: clean even on the nondeterministic backend.
        assert!(
            !analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &nondet)
                .contains(LintCode::CacheNondeterministicSeeding)
        );
        // Backend-free analyze: the discipline is unknown, so skip.
        assert!(!analyze(&circuit, &cut, &options).contains(LintCode::CacheNondeterministicSeeding));
    }

    #[test]
    fn qa402_fires_when_one_entry_cannot_fit_the_byte_budget() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let starved = ExecutionOptions {
            cache: Some(std::sync::Arc::new(qcut_cache::WarmCache::open(
                CacheConfig::in_memory().with_byte_budget(8),
            ))),
            ..Default::default()
        };
        let diags = analyze(&circuit, &cut, &starved);
        assert!(
            diags.contains(LintCode::CacheByteBudgetThrash),
            "an 8-byte budget cannot hold any histogram entry: {diags}"
        );
        // The default budget comfortably fits the planned entries.
        assert!(
            !analyze(&circuit, &cut, &cached_options()).contains(LintCode::CacheByteBudgetThrash)
        );
    }

    #[test]
    fn qa403_static_header_check_flags_foreign_and_accepts_valid_files() {
        // QA403 reads the notice `WarmCache::open` leaves for a file it
        // could not load; analysis itself reads no file.
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let path = std::env::temp_dir().join(format!("qcut-qa403-{}.qwc", std::process::id()));
        let opts_at = |path: &std::path::Path| ExecutionOptions {
            cache: Some(std::sync::Arc::new(qcut_cache::WarmCache::open(
                CacheConfig::at_path(path),
            ))),
            ..Default::default()
        };

        // Missing file: a cold start is the normal first run, not a finding.
        std::fs::remove_file(&path).ok();
        assert!(!analyze(&circuit, &cut, &opts_at(&path)).contains(LintCode::CacheDegraded));

        // Foreign bytes: flagged.
        std::fs::write(&path, b"PNG\x89 or whatever this is").expect("write temp file");
        assert!(analyze(&circuit, &cut, &opts_at(&path)).contains(LintCode::CacheDegraded));

        // A successful persist replaces the file and retires the notice.
        let writer = opts_at(&path);
        let cache = writer.cache.as_deref().expect("cache configured");
        assert!(analyze(&circuit, &cut, &writer).contains(LintCode::CacheDegraded));
        cache.persist().expect("persist empty cache");
        assert!(!analyze(&circuit, &cut, &writer).contains(LintCode::CacheDegraded));

        // A genuinely persisted cache: clean.
        assert!(!analyze(&circuit, &cut, &opts_at(&path)).contains(LintCode::CacheDegraded));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn qa501_fires_for_a_fault_prone_backend_without_retries() {
        use qcut_device::fault::FaultInjectingBackend;
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let flaky = FaultInjectingBackend::new(qcut_device::ideal::IdealBackend::new(1))
            .with_fault_probability(0.2, 7);

        // Default RetryPolicy is a single attempt: warn.
        let diags = analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &flaky);
        assert!(
            diags.contains(LintCode::FaultProneNoRetry),
            "fault-prone backend + no retries must warn: {diags}"
        );

        // Retries enabled: clean.
        let retrying = ExecutionOptions {
            retry: RetryPolicy::with_attempts(3),
            ..Default::default()
        };
        assert!(!analyze_with_backend(&circuit, &cut, &retrying, &flaky)
            .contains(LintCode::FaultProneNoRetry));

        // A transparent wrapper (no fault schedule) is not fault-prone.
        let plain = FaultInjectingBackend::new(qcut_device::ideal::IdealBackend::new(1));
        assert!(
            !analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &plain)
                .contains(LintCode::FaultProneNoRetry)
        );

        // Backend-free analyze: the fault discipline is unknown, so skip.
        assert!(!analyze(&circuit, &cut, &ExecutionOptions::default())
            .contains(LintCode::FaultProneNoRetry));
    }

    #[test]
    fn qa502_fires_when_the_timeout_undercuts_predicted_job_durations() {
        use qcut_device::timing::TimingModel;
        use std::time::Duration;
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let timed = qcut_device::ideal::IdealBackend::new(1).with_timing(TimingModel::ibm_like());
        let with_timeout = |timeout| ExecutionOptions {
            retry: RetryPolicy {
                per_job_timeout: Some(timeout),
                ..RetryPolicy::with_attempts(2)
            },
            ..Default::default()
        };

        // 1 ns cannot fit any ibm-like job: every planned node is doomed.
        let diags = analyze_with_backend(
            &circuit,
            &cut,
            &with_timeout(Duration::from_nanos(1)),
            &timed,
        );
        assert!(
            diags.contains(LintCode::TimeoutBelowJobDuration),
            "1 ns timeout must flag every planned node: {diags}"
        );

        // A generous deadline: clean.
        assert!(!analyze_with_backend(
            &circuit,
            &cut,
            &with_timeout(Duration::from_secs(3600)),
            &timed
        )
        .contains(LintCode::TimeoutBelowJobDuration));
        // No deadline at all: clean.
        assert!(
            !analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &timed)
                .contains(LintCode::TimeoutBelowJobDuration)
        );
        // Instantaneous timing model: nothing can exceed the deadline.
        let instant = qcut_device::ideal::IdealBackend::new(1);
        assert!(!analyze_with_backend(
            &circuit,
            &cut,
            &with_timeout(Duration::from_nanos(1)),
            &instant
        )
        .contains(LintCode::TimeoutBelowJobDuration));
        // Backend-free analyze: no timing model, so skip.
        assert!(
            !analyze(&circuit, &cut, &with_timeout(Duration::from_nanos(1)))
                .contains(LintCode::TimeoutBelowJobDuration)
        );
    }

    #[test]
    fn qa503_fires_for_degrade_with_sic_preparations() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let sic_degrade = ExecutionOptions {
            method: ReconstructionMethod::Sic,
            failure: FailurePolicy::Degrade,
            ..Default::default()
        };
        let diags = analyze(&circuit, &cut, &sic_degrade);
        assert!(
            diags.contains(LintCode::DegradeUnsalvageable),
            "SIC + Degrade must warn: {diags}"
        );

        // SIC with the default Fail policy: clean.
        let sic_fail = ExecutionOptions {
            method: ReconstructionMethod::Sic,
            ..Default::default()
        };
        assert!(!analyze(&circuit, &cut, &sic_fail).contains(LintCode::DegradeUnsalvageable));
        // Eigenstate + Degrade on the standard plan: salvageable, clean.
        let eig_degrade = ExecutionOptions {
            failure: FailurePolicy::Degrade,
            ..Default::default()
        };
        assert!(!analyze(&circuit, &cut, &eig_degrade).contains(LintCode::DegradeUnsalvageable));
    }

    #[test]
    fn qa503_fires_when_a_cut_already_neglects_two_bases() {
        // The pipeline always analyzes the standard plan, so the saturated
        // arm is exercised by running the check against a context carrying
        // a hand-built plan.
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let degrade = ExecutionOptions {
            failure: FailurePolicy::Degrade,
            ..Default::default()
        };
        let check = |plan: &BasisPlan| {
            let mut ctx = AnalysisContext::new(&circuit, &cut, &degrade, None);
            ctx.plan = Some(plan);
            let mut found = Vec::new();
            degrade_unsalvageable(&ctx, &mut found);
            found
        };
        let mut plan = BasisPlan::standard(2);
        assert!(plan.try_neglect(1, qcut_math::Pauli::X));
        assert!(plan.try_neglect(1, qcut_math::Pauli::Y));
        let found = check(&plan);
        assert_eq!(
            found.len(),
            1,
            "a cut at two neglects cannot degrade further"
        );
        assert!(found[0].contains("[1]"), "names the cut: {}", found[0]);

        // One neglect per cut still leaves room: clean.
        let roomy = BasisPlan::with_neglected(vec![Some(qcut_math::Pauli::Y), None]);
        assert!(check(&roomy).is_empty());
    }

    #[test]
    fn qa601_flags_a_dominated_cut_and_accepts_the_dominant_one() {
        // Cutting after the T leaves a widened (proof-free) 9-setting cut;
        // cutting qubit 1 after the CX is provably golden in two bases with
        // zero remaining entangling crossings — strictly better everywhere.
        let mut c = Circuit::new(2);
        c.h(0);
        c.t(0);
        c.cx(0, 1);
        c.h(1);
        let promoted = ExecutionOptions {
            analysis: AnalysisConfig::default()
                .with_override(LintCode::DominatedCutPlacement, Severity::Warn),
            ..Default::default()
        };
        let diags = analyze(&c, &CutSpec::single(0, 1), &promoted);
        assert!(
            diags.contains(LintCode::DominatedCutPlacement),
            "the post-T cut is dominated: {diags}"
        );
        assert!(
            !analyze(&c, &CutSpec::single(1, 0), &promoted)
                .contains(LintCode::DominatedCutPlacement),
            "nothing dominates the proven-golden zero-crossing cut"
        );
        // Default severity is allow: the finding is suppressed (and the
        // check never runs).
        assert!(
            !analyze(&c, &CutSpec::single(0, 1), &ExecutionOptions::default())
                .contains(LintCode::DominatedCutPlacement)
        );
    }

    #[test]
    fn qa602_reports_cone_dead_gates_but_not_effective_identities() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        c.s(0); // measure-dead: nothing after it on any wire
        c.rz(0.0, 1); // dead too, but as a single-gate identity (QA003)
        let options = ExecutionOptions::default();
        let cut = CutSpec::single(0, 0);
        let ctx = AnalysisContext::new(&c, &cut, &options, None);
        let mut found = Vec::new();
        out_of_cone_dead_gate(&ctx, &mut found);
        let rendered = found.join("\n");
        assert!(rendered.contains("instruction #2"), "{rendered}");
        assert!(
            !rendered.contains("instruction #3"),
            "effective identities stay QA003's turf: {rendered}"
        );
    }

    #[test]
    fn qa603_recommends_prove_static_for_provable_golden_bases() {
        // The golden ansatz is real (not Clifford): the real-component
        // argument proves Y, which the standard plan measures anyway.
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let promoted = ExecutionOptions {
            analysis: AnalysisConfig::default()
                .with_override(LintCode::ProvableGoldenUndetected, Severity::Warn),
            ..Default::default()
        };
        let diags = analyze(&circuit, &cut, &promoted);
        assert!(
            diags.contains(LintCode::ProvableGoldenUndetected),
            "provable Y left undetected must surface: {diags}"
        );
        assert!(
            diags.to_string().contains("ProveStatic"),
            "the finding names the fix: {diags}"
        );
    }

    fn pool_of(members: usize, capacity: usize) -> qcut_device::pool::BackendPool {
        use qcut_device::pool::{BackendPool, PlacementPolicy};
        let mut pool = BackendPool::new(PlacementPolicy::RoundRobin);
        for i in 0..members {
            pool = pool.with_backend(
                qcut_device::ideal::IdealBackend::new(i as u64 + 1).with_capacity(capacity),
            );
        }
        pool
    }

    #[test]
    fn qa701_denies_nodes_wider_than_every_pool_member() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let cramped = pool_of(2, 2);
        let diags = analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &cramped);
        assert!(
            diags.contains(LintCode::PoolCapacityInfeasible),
            "2-qubit members cannot seat the planned fragments: {diags}"
        );
        assert!(diags.has_deny(), "QA701 denies by default: {diags}");

        // Roomy members: clean.
        assert!(!analyze_with_backend(
            &circuit,
            &cut,
            &ExecutionOptions::default(),
            &pool_of(2, 32)
        )
        .contains(LintCode::PoolCapacityInfeasible));
        // A bare backend has no member roster: skip, even when cramped.
        let bare = qcut_device::ideal::IdealBackend::new(1).with_capacity(2);
        assert!(
            !analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &bare)
                .contains(LintCode::PoolCapacityInfeasible)
        );
    }

    #[test]
    fn qa702_warns_for_a_cached_pool_with_distinct_fingerprints() {
        use qcut_device::pool::{BackendPool, PlacementPolicy};
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        // Different capacities → different default fingerprints.
        let hetero = BackendPool::new(PlacementPolicy::RoundRobin)
            .with_backend(qcut_device::ideal::IdealBackend::new(1))
            .with_backend(qcut_device::ideal::IdealBackend::new(2).with_capacity(16));
        let diags = analyze_with_backend(&circuit, &cut, &cached_options(), &hetero);
        assert!(
            diags.contains(LintCode::PoolFingerprintMixing),
            "cache + mixed fingerprints must warn: {diags}"
        );

        // Homogeneous members share one fingerprint: clean.
        assert!(
            !analyze_with_backend(&circuit, &cut, &cached_options(), &pool_of(2, 32))
                .contains(LintCode::PoolFingerprintMixing)
        );
        // No cache: nothing to mix.
        let hetero = BackendPool::new(PlacementPolicy::RoundRobin)
            .with_backend(qcut_device::ideal::IdealBackend::new(1))
            .with_backend(qcut_device::ideal::IdealBackend::new(2).with_capacity(16));
        assert!(
            !analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &hetero)
                .contains(LintCode::PoolFingerprintMixing)
        );
    }

    #[test]
    fn qa703_reports_idle_members_when_promoted() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let promoted = ExecutionOptions {
            analysis: AnalysisConfig::default()
                .with_override(LintCode::PoolIdleMember, Severity::Warn),
            ..Default::default()
        };
        let crowded = pool_of(16, 32);
        let diags = analyze_with_backend(&circuit, &cut, &promoted, &crowded);
        assert!(
            diags.contains(LintCode::PoolIdleMember),
            "16 members over a handful of nodes must report idleness: {diags}"
        );

        // Two members over the standard plan's nodes: everyone works.
        assert!(
            !analyze_with_backend(&circuit, &cut, &promoted, &pool_of(2, 32))
                .contains(LintCode::PoolIdleMember)
        );
        // Default severity is allow: suppressed.
        assert!(
            !analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &crowded)
                .contains(LintCode::PoolIdleMember)
        );
    }

    #[test]
    fn diagnostics_display_is_line_per_finding() {
        let d = Diagnostics {
            items: vec![
                Diagnostic {
                    code: LintCode::IdleQubit,
                    severity: Severity::Warn,
                    message: "one".into(),
                },
                Diagnostic {
                    code: LintCode::InvalidCut,
                    severity: Severity::Deny,
                    message: "two".into(),
                },
            ],
        };
        let s = d.to_string();
        assert!(s.contains("QA002 [warn] one"));
        assert!(s.contains("QA101 [deny] two"));
        assert!(d.has_deny());
        assert_eq!(d.warnings().count(), 1);
        assert_eq!(Diagnostics::default().to_string(), "no findings");
    }
}
