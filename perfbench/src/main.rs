//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of the metrics on standard error and, as the last line
//! of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the per-layer ones, and the spans
//! are written to `trace-<workload>-<seed>.jsonl` in the output directory.
//!
//! The output directory is `$PERFBENCH_OUT` when set, otherwise
//! `.perfbench_out` under the current directory. It is resolved when the
//! program runs, never at build time.

use qcut_perfbench::measure::{end_to_end, median, timed_setup, untraced_loop, windowed, Checker};
use qcut_perfbench::replay::traced_loop;
use qcut_perfbench::workload::{Kind, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <fig4_w5|wide_w17|sweep_cache|pool_k2_noisy> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match key.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {key}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The output directory, resolved at run time.
fn output_dir() -> std::io::Result<PathBuf> {
    match std::env::var_os("PERFBENCH_OUT") {
        Some(dir) => Ok(PathBuf::from(dir)),
        None => Ok(std::env::current_dir()?.join(".perfbench_out")),
    }
}

/// A finished run: counts and metrics in output order.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn untraced(args: &Args, scratch: &Path) -> Report {
    let (mut workload, setup_raw_s, setup_s) = timed_setup(args.kind, args.seed, scratch);
    let mut checker = Checker::new(&workload);
    let tally = untraced_loop(&mut workload, &mut checker, args.seconds);
    workload.cleanup();
    let (raw, scaled) = windowed(&tally);
    eprintln!(
        "{}: unscaled CPU figures: setup {:.6} s, p50 {:.4} ms, p90 {:.4} ms, {:.2} runs/s; \
         wall p50 {:.4} ms; reference median {:.2} us over {} runs",
        args.kind.name(),
        setup_raw_s,
        raw.p50_ms,
        raw.p90_ms,
        raw.runs_per_s,
        median(&mut tally.wall_ms.clone()),
        median(&mut tally.ref_us.clone()),
        tally.ref_us.len()
    );
    eprintln!(
        "{}: {} runs, {} failed (error_rate {:.6}), {} timed samples, largest tvd {:.4} (tolerance {})",
        args.kind.name(),
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.run_ms.len(),
        tally.tvd_max,
        args.kind.tolerance()
    );
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: end_to_end(setup_s, &scaled, &tally, &checker),
    }
}

fn traced(args: &Args, scratch: &Path, out: &Path) -> std::io::Result<Report> {
    let half = args.seconds / 2.0;
    let mut plain = Workload::build(args.kind, args.seed, false, scratch);
    let mut checker = Checker::new(&plain);
    let tally = untraced_loop(&mut plain, &mut checker, half);
    plain.cleanup();
    let untraced_p50 = median(&mut tally.wall_ms.clone());
    let mut recorded = Workload::build(args.kind, args.seed, true, scratch);
    let traced = traced_loop(&mut recorded, half, untraced_p50, scratch);
    recorded.cleanup();
    let path = out.join(format!("trace-{}-{}.jsonl", args.kind.name(), args.seed));
    traced.trace.write_jsonl(&path)?;
    eprintln!(
        "{}: {} spans written to {}",
        args.kind.name(),
        traced.trace.spans().len(),
        path.display()
    );
    Ok(Report {
        attempted: tally.attempted + traced.attempted,
        failed: tally.failed + traced.failed,
        metrics: traced.metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match output_dir() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: no output directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scratch = out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let report = if args.trace {
        traced(&args, &scratch, &out)
    } else {
        Ok(untraced(&args, &scratch))
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: cannot write the trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
