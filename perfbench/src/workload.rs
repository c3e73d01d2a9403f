//! The four workloads: inputs generated from the workload seed, the exact
//! truths the output check compares against, and the backends.
//!
//! A workload is a fixed *cycle* of requests that the client repeats.
//! Every cycle issues the same requests in the same order, so per-run
//! counts (shots, jobs, simulated device time) averaged over whole cycles
//! repeat exactly for a given seed.

use crate::record::{DeviceLog, Recording};
use qcut_cache::{CacheConfig, WarmCache};
use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_core::golden::GoldenPolicy;
use qcut_core::pipeline::ExecutionOptions;
use qcut_device::backend::{mix_seed, Backend};
use qcut_device::ideal::IdealBackend;
use qcut_device::pool::{BackendPool, PlacementPolicy};
use qcut_device::presets;
use qcut_device::timing::TimingModel;
use qcut_sim::statevector::StateVector;
use qcut_stats::distribution::Distribution;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Fig. 4 runtime experiment: 5-qubit golden ansatz, one
    /// cut, alternating the standard and the statically proven golden
    /// method.
    Fig4W5,
    /// The same protocol at 17 qubits, where contraction dominates.
    WideW17,
    /// A parameter sweep over a file-backed warm-start cache.
    SweepCache,
    /// Two cuts on a noise-aware two-member pool of noisy devices.
    PoolK2Noisy,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::Fig4W5,
        Kind::WideW17,
        Kind::SweepCache,
        Kind::PoolK2Noisy,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig4W5 => "fig4_w5",
            Kind::WideW17 => "wide_w17",
            Kind::SweepCache => "sweep_cache",
            Kind::PoolK2Noisy => "pool_k2_noisy",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Largest total variation distance from a reconstruction to the
    /// noiseless truth that the output check accepts: about 1.5 times the
    /// largest seen over many seeds. The ideal workloads only carry
    /// sampling error, which grows with the number of outcomes; the noisy
    /// pool also carries device noise, which the truth does not model.
    pub fn tolerance(self) -> f64 {
        match self {
            Kind::Fig4W5 => 0.2,
            Kind::WideW17 => 0.45,
            Kind::SweepCache => 0.3,
            Kind::PoolK2Noisy => 0.55,
        }
    }
}

/// Distinct circuits per cycle of the Fig. 4 style workloads.
const ANSATZ_CIRCUITS: u64 = 32;
/// Distinct circuits per cycle of the pool workload.
const POOL_CIRCUITS: u64 = 16;
/// Generator seed of the pool workload's first circuit. The pool's
/// circuits do not depend on the workload seed: under device noise the
/// weighted distance of a random circuit spans six orders of magnitude
/// (0.3 to 2.6e5 over 480 circuits), so a seed-drawn set would make the
/// accuracy metric track the draw, not the program. The workload seed
/// drives the members' sampling streams instead.
const POOL_CIRCUIT_SEED: u64 = 0x9001;
/// Independent sweeps per cycle of `sweep_cache`, each over its own
/// circuit family and starting from an empty cache.
const SWEEP_FAMILIES: u64 = 16;
/// Sweep points visited by every pass of a sweep.
const SWEEP_POINTS: usize = 8;
/// Passes per sweep: one cold pass that writes the cache, then warm
/// passes that only read it.
const SWEEP_PASSES: usize = 4;
/// Width of the sweep circuit.
const SWEEP_WIDTH: usize = 11;

/// Where a sweep request sits in its sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepVisit {
    /// Sweep point index within the sweep.
    pub point: usize,
    /// Pass index; pass 0 is the cold pass.
    pub pass: usize,
}

impl SweepVisit {
    /// The first visit of a sweep, which starts from an empty cache.
    pub fn starts_sweep(self) -> bool {
        self.pass == 0 && self.point == 0
    }
}

/// One pipeline call of the cycle.
#[derive(Debug, Clone)]
pub struct Request {
    /// Circuit to cut.
    pub circuit: Circuit,
    /// Where to cut it.
    pub cut: CutSpec,
    /// Golden policy of this call.
    pub policy: GoldenPolicy,
    /// Index into [`Workload::truths`].
    pub truth: usize,
    /// Set on `sweep_cache` requests.
    pub sweep: Option<SweepVisit>,
}

/// Everything a run needs before its first timed call.
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// The requests of one cycle, in issue order.
    pub cycle: Vec<Request>,
    /// Noiseless output distributions, one per distinct circuit.
    pub truths: Vec<Distribution>,
    /// The backend every request runs on.
    pub backend: Box<dyn Backend>,
    /// Execution options shared by every request (the cache handle is
    /// replaced at the start of each sweep on `sweep_cache`).
    pub options: ExecutionOptions,
    /// The device log when the backend records (the traced run).
    pub log: Option<Arc<DeviceLog>>,
    cache_file: Option<PathBuf>,
}

/// A workload circuit and its exact output distribution.
fn with_truth(circuit: Circuit, cut: CutSpec) -> ((Circuit, CutSpec), Distribution) {
    let probs = StateVector::from_circuit(&circuit).probabilities();
    let truth = Distribution::from_values(circuit.num_qubits(), probs);
    ((circuit, cut), truth)
}

/// The sweep circuit at angle `theta`: a golden ansatz whose last
/// downstream wire gets θ-dependent rotations, so the upstream fragment
/// and the downstream prefix are the same at every point.
fn sweep_circuit(seed: u64, theta: f64) -> (Circuit, CutSpec) {
    let (mut circuit, cut) = GoldenAnsatz::new(SWEEP_WIDTH, seed).build();
    circuit.rz(theta, SWEEP_WIDTH - 1);
    circuit.rx(0.5 * theta, SWEEP_WIDTH - 1);
    (circuit, cut)
}

/// An ideal backend that reports device-like simulated durations.
fn ideal(seed: u64) -> IdealBackend {
    IdealBackend::new(seed).with_timing(TimingModel::ibm_like())
}

/// Wraps `backend` in a recorder when `log` is set.
fn maybe_record<B: Backend + 'static>(
    backend: B,
    log: &Option<Arc<DeviceLog>>,
) -> Box<dyn Backend> {
    match log {
        Some(log) => Box::new(Recording::new(backend, log.clone())),
        None => Box::new(backend),
    }
}

impl Workload {
    /// Builds the workload for `seed`. With `record`, every device call is
    /// logged (on a pool, each member is wrapped, never the pool itself).
    /// `scratch` holds the cache file of `sweep_cache`.
    pub fn build(kind: Kind, seed: u64, record: bool, scratch: &Path) -> Workload {
        let log = record.then(|| Arc::new(DeviceLog::default()));
        let mut inputs: Vec<((Circuit, CutSpec), Distribution)> = Vec::new();
        let mut cycle = Vec::new();
        let mut options = ExecutionOptions {
            shots_per_setting: 1000,
            ..Default::default()
        };
        let mut cache_file = None;
        let backend_seed = mix_seed(seed, 0xB4C4);
        let backend = match kind {
            Kind::Fig4W5 | Kind::WideW17 => {
                let width = if kind == Kind::Fig4W5 { 5 } else { 17 };
                for i in 0..ANSATZ_CIRCUITS {
                    let (c, cut) = GoldenAnsatz::new(width, mix_seed(seed, i)).build();
                    inputs.push(with_truth(c, cut));
                    for policy in [GoldenPolicy::Disabled, GoldenPolicy::ProveStatic] {
                        cycle.push((i as usize, policy, None));
                    }
                }
                maybe_record(ideal(backend_seed), &log)
            }
            Kind::SweepCache => {
                for family in 0..SWEEP_FAMILIES {
                    let first = inputs.len();
                    for point in 0..SWEEP_POINTS {
                        let theta =
                            0.35 + point as f64 * std::f64::consts::TAU / SWEEP_POINTS as f64;
                        let (c, cut) = sweep_circuit(mix_seed(seed, family), theta);
                        inputs.push(with_truth(c, cut));
                    }
                    for pass in 0..SWEEP_PASSES {
                        for point in 0..SWEEP_POINTS {
                            let visit = SweepVisit { point, pass };
                            cycle.push((first + point, GoldenPolicy::Disabled, Some(visit)));
                        }
                    }
                }
                cache_file = Some(scratch.join(format!("sweep-{seed}-{}.qwc", u8::from(record))));
                maybe_record(ideal(backend_seed), &log)
            }
            Kind::PoolK2Noisy => {
                options.shots_per_setting = 10_000;
                for i in 0..POOL_CIRCUITS {
                    let ansatz = MultiCutAnsatz {
                        block_width: 3,
                        downstream_extra: 2,
                        ..MultiCutAnsatz::new(2, POOL_CIRCUIT_SEED + i)
                    };
                    let (c, cut) = ansatz.build();
                    inputs.push(with_truth(c, cut));
                    cycle.push((i as usize, GoldenPolicy::ProveStatic, None));
                }
                let pool = BackendPool::new(PlacementPolicy::NoiseAware)
                    .with_member(maybe_record(presets::ibm_7q(backend_seed), &log))
                    .with_member(maybe_record(presets::very_noisy(backend_seed ^ 1), &log));
                Box::new(pool)
            }
        };
        let (circuits, truths): (Vec<_>, Vec<_>) = inputs.into_iter().unzip();
        let cycle = cycle
            .into_iter()
            .map(|(i, policy, sweep)| {
                let (circuit, cut): &(Circuit, CutSpec) = &circuits[i];
                Request {
                    circuit: circuit.clone(),
                    cut: cut.clone(),
                    policy,
                    truth: i,
                    sweep,
                }
            })
            .collect();
        Workload {
            kind,
            cycle,
            truths,
            backend,
            options,
            log,
            cache_file,
        }
    }

    /// Prepares request `idx`: on `sweep_cache` every sweep starts from an
    /// empty cache file, so its first pass is cold.
    pub fn prepare(&mut self, idx: usize) {
        let starts_sweep = self.cycle[idx].sweep.is_some_and(SweepVisit::starts_sweep);
        if let (true, Some(path)) = (starts_sweep, &self.cache_file) {
            // A missing file is the expected state before the first sweep.
            let _ = std::fs::remove_file(path);
            let cache = WarmCache::open(CacheConfig::at_path(path));
            self.options.cache = Some(Arc::new(cache));
        }
    }

    /// Removes the files the workload wrote.
    pub fn cleanup(&self) {
        if let Some(path) = &self.cache_file {
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_file(path.with_extension("tmp"));
        }
    }
}
