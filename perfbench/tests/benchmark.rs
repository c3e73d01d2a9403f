//! The benchmark's own tests. Run them optimized; the 17-qubit workload
//! is slow unoptimized:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use qcut_perfbench::measure::{call, observe, untraced_loop, windowed, Checker, Tally};
use qcut_perfbench::record::Trace;
use qcut_perfbench::replay::traced_loop;
use qcut_perfbench::workload::{Kind, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SEED: u64 = 17;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create the test's scratch directory");
    dir
}

#[test]
fn recording_wrapper_changes_no_result() {
    let dir = scratch("identity");
    for kind in Kind::ALL {
        let mut plain = Workload::build(kind, SEED, false, &dir);
        let mut recorded = Workload::build(kind, SEED, true, &dir);
        plain.prepare(0);
        recorded.prepare(0);
        let (_, a) = call(&plain, 0);
        let (_, b) = call(&recorded, 0);
        let (a, b) = (a.expect("plain run"), b.expect("recorded run"));
        // Histograms iterate in hasher order, which differs between map
        // instances, so equal counts may be summed in another order.
        let diff = a
            .distribution
            .values()
            .iter()
            .zip(b.distribution.values())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        assert!(
            diff <= 1e-12,
            "{}: distributions differ by {diff:e}",
            kind.name()
        );
        assert_eq!(observe(&a.report), observe(&b.report), "{}", kind.name());
        let calls = recorded.log.as_ref().expect("recording workload").take();
        assert!(
            !calls.is_empty(),
            "{}: no device call recorded",
            kind.name()
        );
        plain.cleanup();
        recorded.cleanup();
    }
}

#[test]
fn count_metrics_repeat_exactly_for_a_seed() {
    let dir = scratch("repeat");
    for kind in Kind::ALL {
        let run = || {
            let mut w = Workload::build(kind, SEED, false, &dir);
            let mut checker = Checker::new(&w);
            let tally = untraced_loop(&mut w, &mut checker, 0.0);
            w.cleanup();
            assert_eq!(tally.failed, 0, "{}", kind.name());
            checker.cycle_means()
        };
        let (first, second) = (run(), run());
        assert_eq!(
            first.0.to_bits(),
            second.0.to_bits(),
            "{} shots",
            kind.name()
        );
        assert_eq!(
            first.1.to_bits(),
            second.1.to_bits(),
            "{} subcircuits",
            kind.name()
        );
        assert_eq!(
            first.2.to_bits(),
            second.2.to_bits(),
            "{} device s",
            kind.name()
        );

        let traced = || {
            let mut w = Workload::build(kind, SEED, true, &dir);
            let t = traced_loop(&mut w, 0.0, 1.0, &dir);
            w.cleanup();
            assert_eq!(t.failed, 0, "{}: a traced run failed", kind.name());
            t.metrics
        };
        let (first, second) = (traced(), traced());
        for ((name, a, unit), (_, b, _)) in first.iter().zip(&second) {
            let layer_count =
                (name.starts_with("planner.") || name.starts_with("device.")) && *unit != "us";
            if layer_count {
                assert_eq!(a.to_bits(), b.to_bits(), "{}: {name}", kind.name());
            }
        }
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let mut trace = Trace::new();
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);
    let root = trace.push(0, None, "pipeline.run", at(0), at(10));
    trace.push(0, Some(root), "device", at(1), at(4));
    trace.push(0, Some(root), "device", at(3), at(6));
    trace.push(0, Some(root), "device", at(8), at(12));
    trace.push(1, None, "pipeline.run", at(12), at(13));
    // Covered: [1, 6) and [8, 10) = 7 ms of 10.
    assert_eq!(trace.self_ns_of(root), 3_000_000);
}

#[test]
fn reference_scaling_cancels_a_change_of_host_speed() {
    // The same runs on a host twice as slow: every run and every
    // reference run takes twice as long.
    let tally = |slowdown: f64| Tally {
        run_ms: (0..400)
            .map(|i| slowdown * (1.0 + (i % 7) as f64 / 10.0))
            .collect(),
        step_s: (0..400).map(|_| slowdown * 2e-3).collect(),
        ended_s: (0..400).map(|i| f64::from(i) * 0.01).collect(),
        ref_us: (0..401)
            .map(|i| slowdown * (40.0 + (i % 3) as f64))
            .collect(),
        loop_s: 4.0,
        ..Tally::default()
    };
    let (raw_fast, fast) = windowed(&tally(1.0));
    let (raw_slow, slow) = windowed(&tally(2.0));
    assert!((raw_slow.p50_ms / raw_fast.p50_ms - 2.0).abs() < 1e-12);
    for (a, b) in [
        (fast.p50_ms, slow.p50_ms),
        (fast.p90_ms, slow.p90_ms),
        (fast.runs_per_s, slow.runs_per_s),
    ] {
        assert!((a / b - 1.0).abs() < 1e-12, "{a} vs {b}");
    }
}
