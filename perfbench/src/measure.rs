//! The closed-loop client, the output checks, and the end-to-end metrics.
//!
//! One client issues one `CutExecutor::run` at a time: the next call
//! starts only after the previous one returned, and the client spawns no
//! threads of its own. It repeats whole cycles of the workload until the
//! run's time is up.
//!
//! The timing metrics read the process's CPU time, not the wall clock: on
//! the benchmark's shared two-processor host, the wall time of a run
//! includes every millisecond the host spends running other tenants on
//! either processor, and ten seeds of the same code spread by up to twice
//! their median. The CPU time of every thread of the library, scaled to a
//! reference speed (see [`crate::reference`]), is the work the run costs.

use crate::workload::{Kind, Workload};
use crate::{clock, reference};
use qcut_core::error::PipelineError;
use qcut_core::pipeline::{CutExecutor, CutRun};
use qcut_core::report::RunReport;
use qcut_stats::distance::{total_variation_distance, weighted_distance};
use std::path::Path;
use std::time::Instant;

/// Set-ups one run times; `setup_s` is their median. Kept small: building
/// and dropping thousands of workloads fragments the heap and slows the
/// timed runs that follow.
const SETUP_REPS: usize = 9;

/// Sets up the workload `SETUP_REPS` times between runs of the
/// reference computation. Returns the last workload with the median
/// set-up CPU time in seconds, raw and scaled to the reference speed by
/// the two reference runs around each set-up: `(workload, raw, scaled)`.
pub fn timed_setup(kind: Kind, seed: u64, scratch: &Path) -> (Workload, f64, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut refs = vec![reference::run_us()];
    loop {
        let started = clock::process_s();
        let workload = Workload::build(kind, seed, false, scratch);
        times.push(clock::process_s() - started);
        refs.push(reference::run_us());
        if times.len() == SETUP_REPS {
            let mut scaled: Vec<f64> = times
                .iter()
                .zip(refs.windows(2))
                .map(|(t, around)| t * reference::scale(around))
                .collect();
            return (workload, median(&mut times), median(&mut scaled));
        }
        workload.cleanup();
    }
}

/// The per-run figures the benchmark reads from a [`RunReport`]. This is
/// the only function that reads the report's fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observed {
    /// Device shots executed: detection, pilot and gather shots.
    pub shots: u64,
    /// Jobs executed after dedup and cache.
    pub subcircuits: u64,
    /// Simulated device seconds (the timing model's clock).
    pub device_s: f64,
    /// `shots_requested = detection + pilot + total + saved + cache_reused + lost`.
    pub ledger_holds: bool,
}

/// Reads the benchmark's figures out of a run report.
pub fn observe(report: &RunReport) -> Observed {
    let executed = report.detection_shots + report.pilot_shots + report.total_shots;
    let accounted = executed + report.shots_saved + report.cache_shots_reused + report.shots_lost;
    Observed {
        shots: executed,
        subcircuits: report.jobs_executed as u64,
        device_s: report.simulated_device_seconds,
        ledger_holds: report.shots_requested == accounted,
    }
}

/// What the output checks made of one run.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Every check passed.
    pub ok: bool,
    /// Weighted distance to the exact truth, when the run returned `Ok`.
    pub distance: Option<f64>,
    /// Total variation distance to the exact truth, when the run returned `Ok`.
    pub tvd: Option<f64>,
}

/// The output checks. Besides the distance, ledger and warm-point checks,
/// it holds every request's figures from the first cycle it saw and
/// requires later cycles to repeat them exactly.
pub struct Checker {
    reference: Vec<Option<Observed>>,
    first_visit: Vec<Option<Vec<f64>>>,
}

impl Checker {
    /// A checker for `workload`'s cycle.
    pub fn new(workload: &Workload) -> Self {
        Checker {
            reference: vec![None; workload.cycle.len()],
            first_visit: vec![None; workload.truths.len()],
        }
    }

    /// Checks the result of request `idx` of the cycle.
    pub fn check(
        &mut self,
        workload: &Workload,
        idx: usize,
        result: &Result<CutRun, PipelineError>,
    ) -> Outcome {
        if idx == 0 {
            self.first_visit.iter_mut().for_each(|v| *v = None);
        }
        let Ok(run) = result else {
            return Outcome {
                ok: false,
                distance: None,
                tvd: None,
            };
        };
        let request = &workload.cycle[idx];
        let observed = observe(&run.report);
        let truth = &workload.truths[request.truth];
        let distance = weighted_distance(&run.distribution, truth);
        let tvd = total_variation_distance(&run.distribution, truth);
        let mut ok = observed.ledger_holds && tvd <= workload.kind.tolerance();
        if let Some(visit) = request.sweep {
            let values = run.distribution.values();
            match &self.first_visit[request.truth] {
                None if visit.pass == 0 => self.first_visit[request.truth] = Some(values.to_vec()),
                None => ok = false,
                Some(first) => {
                    ok &= first.len() == values.len()
                        && first
                            .iter()
                            .zip(values)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                }
            }
        }
        match &self.reference[idx] {
            None => self.reference[idx] = Some(observed),
            Some(reference) => ok &= *reference == observed,
        }
        Outcome {
            ok,
            distance: Some(distance),
            tvd: Some(tvd),
        }
    }

    /// Per-run means of the count figures over one cycle, from the first
    /// cycle the checker saw: `(shots, subcircuits, device seconds)`.
    pub fn cycle_means(&self) -> (f64, f64, f64) {
        let seen: Vec<&Observed> = self.reference.iter().flatten().collect();
        let n = seen.len().max(1) as f64;
        let shots: u64 = seen.iter().map(|o| o.shots).sum();
        let subcircuits: u64 = seen.iter().map(|o| o.subcircuits).sum();
        let device_s: f64 = seen.iter().map(|o| o.device_s).sum();
        (shots as f64 / n, subcircuits as f64 / n, device_s / n)
    }
}

/// Issues request `idx` of the cycle and returns its host wall time in
/// seconds with the result.
pub fn call(workload: &Workload, idx: usize) -> (f64, Result<CutRun, PipelineError>) {
    let request = &workload.cycle[idx];
    let executor = CutExecutor::new(&*workload.backend);
    let started = Instant::now();
    let result = executor.run(
        &request.circuit,
        &request.cut,
        request.policy.clone(),
        &workload.options,
    );
    (started.elapsed().as_secs_f64(), result)
}

/// Repeats whole cycles until `seconds` have passed, calling `step` for
/// every request index. Returns the loop's wall time in seconds.
pub fn run_cycles(
    workload: &mut Workload,
    seconds: f64,
    mut step: impl FnMut(&Workload, usize),
) -> f64 {
    let started = Instant::now();
    loop {
        for idx in 0..workload.cycle.len() {
            workload.prepare(idx);
            step(workload, idx);
        }
        if started.elapsed().as_secs_f64() >= seconds {
            return started.elapsed().as_secs_f64();
        }
    }
}

/// Run counts and per-run wall times of an untraced timed loop.
#[derive(Debug, Default)]
pub struct Tally {
    /// CPU time of every run, all threads, milliseconds.
    pub run_ms: Vec<f64>,
    /// Host wall time of every run, milliseconds.
    pub wall_ms: Vec<f64>,
    /// CPU time of the loop each run accounts for, seconds: the run, its
    /// checks and the preparation before it, without the reference
    /// computation.
    pub step_s: Vec<f64>,
    /// When each run ended, seconds since its loop started.
    pub ended_s: Vec<f64>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that returned `Err` or failed a check.
    pub failed: u64,
    /// Weighted distance of every run that returned `Ok`.
    pub distances: Vec<f64>,
    /// Largest total variation distance to the truth seen.
    pub tvd_max: f64,
    /// Wall time of the whole loop, seconds.
    pub loop_s: f64,
    /// CPU time of the reference computation run right before each run,
    /// and once after the last, microseconds.
    pub ref_us: Vec<f64>,
}

impl Tally {
    /// Records one run that took `cpu_s` of CPU time and `wall_s` of wall
    /// time and ended `ended_s` after its loop started.
    pub fn add(&mut self, cpu_s: f64, wall_s: f64, ended_s: f64, outcome: &Outcome) {
        self.run_ms.push(cpu_s * 1e3);
        self.wall_ms.push(wall_s * 1e3);
        self.ended_s.push(ended_s);
        self.attempted += 1;
        self.failed += u64::from(!outcome.ok);
        if let Some(d) = outcome.distance {
            self.distances.push(d);
        }
        if let Some(tvd) = outcome.tvd {
            self.tvd_max = self.tvd_max.max(tvd);
        }
    }
}

/// One warm-up cycle (untimed, still checked) and then the timed
/// closed loop for `seconds`, tracing off. The reference computation runs
/// before every request and once after the last.
pub fn untraced_loop(workload: &mut Workload, checker: &mut Checker, seconds: f64) -> Tally {
    let mut tally = Tally::default();
    for (budget, timed) in [(0.0, false), (seconds, true)] {
        if timed {
            // The warm-up runs count as attempted, not in the figures.
            tally.run_ms.clear();
            tally.wall_ms.clear();
            tally.step_s.clear();
            tally.ended_s.clear();
            tally.distances.clear();
            tally.ref_us.clear();
        }
        let origin = Instant::now();
        let mut step_end = clock::process_s();
        tally.loop_s = run_cycles(workload, budget, |w, idx| {
            let preparing = clock::process_s() - step_end;
            tally.ref_us.push(reference::run_us());
            let step_start = clock::process_s();
            let (wall_s, result) = call(w, idx);
            let cpu_s = clock::process_s() - step_start;
            let outcome = checker.check(w, idx, &result);
            tally.add(cpu_s, wall_s, origin.elapsed().as_secs_f64(), &outcome);
            step_end = clock::process_s();
            tally.step_s.push(preparing + (step_end - step_start));
        });
        tally.ref_us.push(reference::run_us());
    }
    tally
}

/// Equal time windows a timed loop is split into. Each timing metric is
/// the median over the windows of that window's own figure, so a burst of
/// load from other tenants of the host that covers fewer than half of the
/// windows does not move it. Four windows of a 20-second run hold at least
/// 100 runs each on every workload, so each window's 90th percentile has
/// ten samples beyond it.
const WINDOWS: usize = 4;

/// The timing figures of a timed loop: median and 90th percentile run
/// CPU time (milliseconds) and runs per second of the loop's CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median run CPU time, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile run CPU time, milliseconds.
    pub p90_ms: f64,
    /// Completed runs per second of the loop's CPU time, the reference
    /// computation excluded.
    pub runs_per_s: f64,
}

/// Timing figures of one set of runs: `(run ms, step s)` per run.
fn timing(runs: Vec<(f64, f64)>) -> Timing {
    let steps: f64 = runs.iter().map(|r| r.1).sum();
    let mut ms: Vec<f64> = runs.iter().map(|r| r.0).collect();
    Timing {
        p50_ms: median(&mut ms),
        p90_ms: percentile(&mut ms, 0.9),
        runs_per_s: if steps > 0.0 {
            ms.len() as f64 / steps
        } else {
            0.0
        },
    }
}

/// Median over the windows of each window's timing figures, raw and
/// scaled to the reference speed: `(raw, scaled)`. Each run is scaled by
/// the reference runs next to it, [`reference::NEIGHBOURS`] on each side.
pub fn windowed(tally: &Tally) -> (Timing, Timing) {
    let width = tally.loop_s / WINDOWS as f64;
    let mut raw: Vec<Vec<(f64, f64)>> = vec![Vec::new(); WINDOWS];
    let mut scaled = raw.clone();
    for (i, ((&ms, &step), &at)) in tally
        .run_ms
        .iter()
        .zip(&tally.step_s)
        .zip(&tally.ended_s)
        .enumerate()
    {
        // Reference run `i` ran right before run `i`, `i + 1` right after.
        let lo = (i + 1).saturating_sub(reference::NEIGHBOURS);
        let hi = (i + 1 + reference::NEIGHBOURS).min(tally.ref_us.len());
        let scale = reference::scale(&tally.ref_us[lo..hi]);
        let window = ((at / width) as usize).min(WINDOWS - 1);
        raw[window].push((ms, step));
        scaled[window].push((ms * scale, step * scale));
    }
    let over_windows = |windows: Vec<Vec<(f64, f64)>>| {
        let figures: Vec<Timing> = windows.into_iter().map(timing).collect();
        let pick = |f: fn(&Timing) -> f64| median(&mut figures.iter().map(f).collect::<Vec<_>>());
        Timing {
            p50_ms: pick(|t| t.p50_ms),
            p90_ms: pick(|t| t.p90_ms),
            runs_per_s: pick(|t| t.runs_per_s),
        }
    };
    (over_windows(raw), over_windows(scaled))
}

/// The end-to-end metrics of one untraced run, in `BENCHMARK.json` order.
/// `setup_s` and the timing figures are scaled to the reference speed.
pub fn end_to_end(
    setup_s: f64,
    timing: &Timing,
    tally: &Tally,
    checker: &Checker,
) -> Vec<(&'static str, f64, &'static str)> {
    let Timing {
        p50_ms: p50,
        p90_ms: p90,
        runs_per_s: rate,
    } = *timing;
    let (shots, subcircuits, device_s) = checker.cycle_means();
    vec![
        ("setup_s", setup_s, "s"),
        ("run_ms_p50", p50, "ms"),
        ("run_ms_p90", p90, "ms"),
        ("runs_per_s", rate, "1/s"),
        ("shots_per_run", shots, "count"),
        ("subcircuits_per_run", subcircuits, "count"),
        ("device_s_per_run", device_s, "sim_s"),
        (
            "weighted_distance_p50",
            median(&mut tally.distances.clone()),
            "dw",
        ),
        (
            "success_rate",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Nearest-rank percentile, `q` in `(0, 1]`.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
