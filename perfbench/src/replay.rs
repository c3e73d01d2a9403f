//! The traced run: per-layer metrics from spans recorded in the
//! benchmark's own code.
//!
//! For each request it records two root spans with one request id:
//!
//! * `pipeline.run` around the real `CutExecutor::run`, with one child
//!   `device` span per call into a recording backend;
//! * `replay`, whose children time calls into each layer's public
//!   functions on the same inputs — analysis, fragmenting, golden-policy
//!   resolution, planning, placement, cache I/O, gate simulation and
//!   sampling of the executed node circuits, and reconstruction.
//!
//! The replay rebuilds the run's fragment data from the histograms the
//! device delivered and the replay cache served, and must reproduce the
//! run's distribution; a mismatch counts as a failed run.

use crate::measure::{call, median, run_cycles, Checker};
use crate::record::{DeviceCall, Trace};
use crate::workload::{Kind, SweepVisit, Workload};
use qcut_cache::{CacheConfig, CacheKey, ShotDiscipline, WarmCache};
use qcut_core::allocation::schedule_for_plan;
use qcut_core::analysis::analyze_with_backend;
use qcut_core::execution::FragmentData;
use qcut_core::fragment::Fragmenter;
use qcut_core::golden::resolve_static_policy;
use qcut_core::jobgraph::{Channel, JobGraph};
use qcut_core::pipeline::CutRun;
use qcut_core::planner::{add_downstream_jobs, add_upstream_jobs};
use qcut_core::reconstruction::{contract, downstream_tensor, upstream_tensor};
use qcut_device::backend::{mix_seed, Backend, JobSpec};
use qcut_device::ideal::IdealBackend;
use qcut_device::pool::{BackendPool, PlacementPolicy};
use qcut_device::timing::TimingModel;
use qcut_sim::counts::Counts;
use qcut_sim::statevector::StateVector;
use qcut_stats::distribution::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Largest per-outcome difference between the replayed and the real
/// reconstruction that still counts as the same result (the two sum the
/// same histograms in different orders).
const REPLAY_TOLERANCE: f64 = 1e-9;

/// Per-request sums over the traced requests.
#[derive(Debug, Default)]
struct Sums {
    requests: u64,
    pipeline_ns: Vec<f64>,
    pipeline_self_ns: u64,
    analysis_ns: u64,
    diagnostics: u64,
    fragment_ns: u64,
    golden_ns: u64,
    bases_neglected: u64,
    planner_ns: u64,
    jobs_planned: u64,
    nodes: u64,
    place_ns: u64,
    max_member_jobs: u64,
    placed_jobs: u64,
    members: u64,
    device_ns: u64,
    device_calls: u64,
    device_jobs: u64,
    device_shots: u64,
    gates_applied: u64,
    gates_naive: u64,
    states_reused: u64,
    statevector_ns: u64,
    amp_gate_ops: u64,
    sample_ns: u64,
    sampled_shots: u64,
    assemble_ns: u64,
    contract_ns: u64,
    terms: u64,
    contract_madds: u64,
    postprocess_ns: u64,
    lookup_ns: u64,
    store_ns: u64,
    persist_ns: u64,
    lookups: u64,
    hits: u64,
    shots_reused: u64,
    entries: u64,
    bytes: u64,
}

/// Result of a traced run.
pub struct Traced {
    /// Per-layer metrics in `BENCHMARK.json` order: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Traced runs attempted, the warm-up cycle included.
    pub attempted: u64,
    /// Traced runs that returned `Err`, failed a check, or whose replay
    /// did not reproduce the run.
    pub failed: u64,
    /// The spans, for writing out.
    pub trace: Trace,
}

/// The cache the replay reads and writes. On `sweep_cache` it mirrors
/// the timed runs' cache (same stores, emptied at the start of each
/// sweep); the other workloads run without a cache, so their replay
/// measures a cold cache that starts empty for every request.
struct ReplayCache {
    path: PathBuf,
    cache: WarmCache,
}

impl ReplayCache {
    fn reset(&mut self) {
        // A missing file is the expected state of an empty cache.
        let _ = std::fs::remove_file(&self.path);
        self.cache = WarmCache::open(CacheConfig::at_path(&self.path));
    }
}

/// The `replay` span of one request, whose children are the stages.
struct Stages<'t> {
    trace: &'t mut Trace,
    request: u64,
    root: usize,
}

impl Stages<'_> {
    /// Runs `f` as a child span named `name`; returns its result and
    /// duration in nanoseconds.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let started = Instant::now();
        let out = f();
        let ended = Instant::now();
        self.trace
            .push(self.request, Some(self.root), name, started, ended);
        (out, (ended - started).as_nanos() as u64)
    }
}

/// Runs traced requests for `seconds` after a warm-up cycle. `untraced_p50`
/// is the untraced run's wall-clock median in milliseconds, the base of
/// `trace.overhead_ratio`.
pub fn traced_loop(
    workload: &mut Workload,
    seconds: f64,
    untraced_p50: f64,
    scratch: &Path,
) -> Traced {
    let log = workload
        .log
        .clone()
        .expect("the traced workload records device calls");
    // On a bare backend, placement runs on a one-member pool of an equal
    // backend: the placement a bare backend would get as a pool of one.
    let one_member = BackendPool::new(PlacementPolicy::NoiseAware)
        .with_backend(IdealBackend::new(0).with_timing(TimingModel::ibm_like()));
    let path = scratch.join(format!("replay-{}.qwc", workload.kind.name()));
    let mut replay_cache = ReplayCache {
        cache: WarmCache::open(CacheConfig::in_memory()),
        path,
    };
    let mut checker = Checker::new(workload);
    // The warm-up cycle is checked like every other but not measured.
    let mut warmup = Sums::default();
    let mut sums = Sums::default();
    let mut trace = Trace::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (budget, timed) in [(0.0, false), (seconds, true)] {
        let target = if timed { &mut sums } else { &mut warmup };
        run_cycles(workload, budget, |w, idx| {
            if w.cycle[idx].sweep.is_none_or(SweepVisit::starts_sweep) {
                replay_cache.reset();
            }
            let request = attempted;
            let t0 = Instant::now();
            let (_, result) = call(w, idx);
            let t1 = Instant::now();
            let calls = log.take();
            let mut ok = checker.check(w, idx, &result).ok;
            let pipeline = trace.push(request, None, "pipeline.run", t0, t1);
            for c in &calls {
                trace.push(request, Some(pipeline), "device", c.start, c.end);
            }
            if let Ok(run) = &result {
                let pool = w.backend.as_pool().unwrap_or(&one_member);
                let root = trace.open(request, None, "replay");
                let mut stages = Stages {
                    trace: &mut trace,
                    request,
                    root,
                };
                let replayed = replay(
                    w,
                    idx,
                    run,
                    &calls,
                    pool,
                    &replay_cache.cache,
                    &mut stages,
                    target,
                );
                trace.close(root);
                ok &= replayed == Some(true);
                target.requests += 1;
                target.pipeline_ns.push((t1 - t0).as_nanos() as f64);
                target.pipeline_self_ns += trace.self_ns_of(pipeline);
            }
            attempted += 1;
            failed += u64::from(!ok);
        });
    }
    let _ = std::fs::remove_file(&replay_cache.path);
    let _ = std::fs::remove_file(replay_cache.path.with_extension("tmp"));
    let metrics = sums.metrics(workload.kind, untraced_p50);
    Traced {
        metrics,
        attempted,
        failed,
        trace,
    }
}

/// Replays one request's layers and accumulates their figures into
/// `sums`. Returns whether the replayed reconstruction equals the run's,
/// `None` when a stage could not run.
#[allow(clippy::too_many_arguments)]
fn replay(
    w: &Workload,
    idx: usize,
    run: &CutRun,
    calls: &[DeviceCall],
    pool: &BackendPool,
    cache: &WarmCache,
    stages: &mut Stages<'_>,
    sums: &mut Sums,
) -> Option<bool> {
    let req = &w.cycle[idx];
    for c in calls {
        sums.device_ns += (c.end - c.start).as_nanos() as u64;
        sums.device_calls += 1;
        sums.device_jobs += c.jobs;
        sums.device_shots += c.shots;
        sums.gates_applied += c.stats.gates_applied;
        sums.gates_naive += c.stats.gates_naive;
        sums.states_reused += c.stats.states_reused;
    }

    let (diagnostics, ns) = stages.time("analysis", || {
        analyze_with_backend(&req.circuit, &req.cut, &w.options, &*w.backend)
    });
    sums.analysis_ns += ns;
    sums.diagnostics += diagnostics.len() as u64;

    let (fragments, ns) = stages.time("fragment", || Fragmenter::fragment(&req.circuit, &req.cut));
    sums.fragment_ns += ns;
    let fragments = fragments.ok()?;

    let (plan, ns) = stages.time("golden", || {
        resolve_static_policy(&req.policy, &fragments.upstream, fragments.num_cuts)
    });
    sums.golden_ns += ns;
    let plan = plan?;
    sums.bases_neglected += plan.neglected().iter().map(|n| n.len() as u64).sum::<u64>();

    let (graph, ns) = stages.time("planner", || {
        let schedule = schedule_for_plan(&plan, w.options.resolved_allocation()).ok()?;
        let mut graph = JobGraph::new();
        add_upstream_jobs(&mut graph, &fragments, &plan, &schedule.upstream);
        add_downstream_jobs(&mut graph, &fragments, &plan, &schedule.downstream);
        Some(graph)
    });
    sums.planner_ns += ns;
    let graph = graph?;
    sums.jobs_planned += graph.jobs_planned() as u64;
    sums.nodes += graph.num_nodes() as u64;

    let nodes: Vec<_> = graph.node_jobs().collect();
    let (placement, ns) = stages.time("pool", || {
        let specs: Vec<JobSpec<'_>> = nodes
            .iter()
            .map(|(circuit, consumers)| {
                let shots = consumers.iter().map(|&(_, s)| s).max().unwrap_or(0);
                JobSpec::new(circuit, shots)
            })
            .collect();
        pool.place(&specs)
    });
    sums.place_ns += ns;
    let per_member = placement.jobs_per_member(pool.len());
    sums.max_member_jobs += per_member.iter().copied().max().unwrap_or(0);
    sums.placed_jobs += per_member.iter().sum::<u64>();
    sums.members = pool.len() as u64;

    // Cache keys name the member a node is placed on, as the pipeline's.
    let fingerprints: Vec<u64> = placement
        .assignment
        .iter()
        .map(|m| match (w.backend.as_pool(), m) {
            (Some(p), Some(m)) => p.member(*m).cache_fingerprint(),
            _ => w.backend.cache_fingerprint(),
        })
        .collect();
    let keys: Vec<CacheKey> = nodes
        .iter()
        .zip(&fingerprints)
        .map(|((c, _), &fp)| CacheKey::new(c.structural_hash(), fp, ShotDiscipline::Multinomial))
        .collect();
    let (cached, ns) = stages.time("cache.lookup", || {
        nodes
            .iter()
            .zip(&keys)
            .map(|((c, _), key)| cache.lookup(key, c))
            .collect::<Vec<Option<Counts>>>()
    });
    sums.lookup_ns += ns;
    sums.lookups += nodes.len() as u64;
    for counts in cached.iter().flatten() {
        sums.hits += 1;
        sums.shots_reused += counts.total();
    }

    // Gate simulation and sampling of the nodes the device executed.
    let fresh: HashMap<u64, (u64, &Counts)> = calls
        .iter()
        .flat_map(|c| &c.delivered)
        .map(|d| (d.hash, (d.shots, &d.counts)))
        .collect();
    let mut rng = StdRng::seed_from_u64(mix_seed(stages.request, 0x5A3D));
    for (circuit, _) in &nodes {
        let Some(&(shots, _)) = fresh.get(&circuit.structural_hash()) else {
            continue;
        };
        let (state, ns) = stages.time("sim.statevector", || StateVector::from_circuit(circuit));
        sums.statevector_ns += ns;
        sums.amp_gate_ops += (1u64 << circuit.num_qubits()) * circuit.len() as u64;
        let (sample, ns) = stages.time("sim.sample", || state.sample(shots, &mut rng));
        sums.sample_ns += ns;
        sums.sampled_shots += sample.total();
    }

    // Delivered histogram per node: cached shots plus what the device ran.
    let mut delivered: Vec<Option<Counts>> = Vec::with_capacity(nodes.len());
    for ((circuit, _), cached) in nodes.iter().zip(cached) {
        let ran = fresh.get(&circuit.structural_hash()).map(|&(_, c)| c);
        delivered.push(match (cached, ran) {
            (Some(mut c), Some(r)) => {
                c.merge(r);
                Some(c)
            }
            (Some(c), None) => Some(c),
            (None, Some(r)) => Some(r.clone()),
            (None, None) => None,
        });
    }
    let (_, ns) = stages.time("cache.store", || {
        for (((circuit, _), key), counts) in nodes.iter().zip(&keys).zip(&delivered) {
            if let Some(counts) = counts {
                cache.store(key, circuit, counts);
            }
        }
    });
    sums.store_ns += ns;
    let (persisted, ns) = stages.time("cache.persist", || cache.persist());
    sums.persist_ns += ns;
    sums.entries += cache.entries() as u64;
    sums.bytes += cache.bytes_used();

    let mut upstream = HashMap::new();
    let mut downstream = HashMap::new();
    for ((_, consumers), counts) in nodes.iter().zip(&delivered) {
        let counts = counts.as_ref()?;
        for &((channel, key), _) in consumers.iter() {
            match channel {
                Channel::UpstreamMeas => upstream.insert(key, counts.clone()),
                Channel::DownstreamPrep => downstream.insert(key, counts.clone()),
                _ => None,
            };
        }
    }
    let data = FragmentData::from_counts(upstream, downstream, Duration::ZERO, Duration::ZERO);
    let ((up, down), ns) = stages.time("reconstruction.assemble", || {
        (
            upstream_tensor(&fragments.upstream, &plan, &data),
            downstream_tensor(&fragments.downstream, &plan, &data),
        )
    });
    sums.assemble_ns += ns;
    let (raw, ns) = stages.time("reconstruction.contract", || {
        contract(&fragments, &plan, &up, &down)
    });
    sums.contract_ns += ns;
    let terms = plan.all_recon_strings().len() as u64;
    sums.terms += terms;
    sums.contract_madds +=
        terms << (fragments.upstream.num_outputs() + fragments.downstream.num_outputs());
    let (distribution, ns) = stages.time("reconstruction.postprocess", || raw.clip_renormalize());
    sums.postprocess_ns += ns;
    Some(persisted.is_ok() && same_distribution(&distribution, &run.distribution))
}

fn same_distribution(a: &Distribution, b: &Distribution) -> bool {
    a.num_bits() == b.num_bits()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| (x - y).abs() <= REPLAY_TOLERANCE)
}

impl Sums {
    fn metrics(mut self, kind: Kind, untraced_p50: f64) -> Vec<(&'static str, f64, &'static str)> {
        let n = self.requests.max(1) as f64;
        let us = |ns: u64| ns as f64 / 1e3 / n;
        let per = |count: u64| count as f64 / n;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        // The pipeline's own stages among the replayed ones: placement
        // only runs inside a pool run, cache I/O only with a cache.
        let mut replayed = self.analysis_ns
            + self.fragment_ns
            + self.golden_ns
            + self.planner_ns
            + self.assemble_ns
            + self.contract_ns
            + self.postprocess_ns;
        if kind == Kind::PoolK2Noisy {
            replayed += self.place_ns;
        }
        if kind == Kind::SweepCache {
            replayed += self.lookup_ns + self.store_ns + self.persist_ns;
        }
        let pipeline_self = us(self.pipeline_self_ns);
        let traced_ms = median(&mut self.pipeline_ns) / 1e6;
        vec![
            ("analysis.self_us", us(self.analysis_ns), "us"),
            ("analysis.diagnostics", per(self.diagnostics), "count"),
            ("fragment.self_us", us(self.fragment_ns), "us"),
            ("golden.self_us", us(self.golden_ns), "us"),
            ("golden.bases_neglected", per(self.bases_neglected), "count"),
            ("planner.self_us", us(self.planner_ns), "us"),
            ("planner.jobs_planned", per(self.jobs_planned), "count"),
            ("planner.nodes", per(self.nodes), "count"),
            (
                "planner.dedup_ratio",
                1.0 - ratio(self.nodes, self.jobs_planned),
                "ratio",
            ),
            ("pool.place_us", us(self.place_ns), "us"),
            ("pool.max_member_jobs", per(self.max_member_jobs), "count"),
            // Busiest member's jobs over the mean member's.
            (
                "pool.load_imbalance",
                ratio(self.max_member_jobs * self.members, self.placed_jobs),
                "ratio",
            ),
            ("device.busy_us", us(self.device_ns), "us"),
            ("device.calls", per(self.device_calls), "count"),
            ("device.jobs", per(self.device_jobs), "count"),
            ("device.shots", per(self.device_shots), "count"),
            ("device.gates_applied", per(self.gates_applied), "count"),
            (
                "device.gates_saved",
                per(self.gates_naive - self.gates_applied),
                "count",
            ),
            ("device.states_reused", per(self.states_reused), "count"),
            (
                "device.prefix_share",
                ratio(self.gates_naive - self.gates_applied, self.gates_naive),
                "ratio",
            ),
            ("sim.statevector_us", us(self.statevector_ns), "us"),
            ("sim.amp_gate_ops", per(self.amp_gate_ops), "count"),
            ("sim.sample_us", us(self.sample_ns), "us"),
            (
                "sim.sample_ns_per_shot",
                ratio(self.sample_ns, self.sampled_shots),
                "ns",
            ),
            ("reconstruction.assemble_us", us(self.assemble_ns), "us"),
            ("reconstruction.contract_us", us(self.contract_ns), "us"),
            ("reconstruction.terms", per(self.terms), "count"),
            (
                "reconstruction.contract_madds",
                per(self.contract_madds),
                "count",
            ),
            (
                "reconstruction.postprocess_us",
                us(self.postprocess_ns),
                "us",
            ),
            ("cache.lookup_us", us(self.lookup_ns), "us"),
            ("cache.store_us", us(self.store_ns), "us"),
            ("cache.persist_us", us(self.persist_ns), "us"),
            ("cache.hit_ratio", ratio(self.hits, self.lookups), "ratio"),
            ("cache.shots_reused", per(self.shots_reused), "count"),
            ("cache.entries", per(self.entries), "count"),
            ("cache.bytes", per(self.bytes), "bytes"),
            ("pipeline.self_us", pipeline_self, "us"),
            (
                "trace.replay_gap_us",
                (pipeline_self - us(replayed)).abs(),
                "us",
            ),
            ("trace.overhead_ratio", traced_ms / untraced_p50, "ratio"),
        ]
    }
}
