//! # qcut-bench
//!
//! Benchmark harness regenerating every figure of the paper's evaluation
//! (§III) plus the ablations listed in DESIGN.md. Binaries:
//!
//! * `fig3_accuracy` — weighted distance of uncut-on-device vs
//!   golden-cut-on-device against the noiseless ground truth (Fig. 3);
//! * `fig4_runtime` — simulator wall time with vs without the golden
//!   optimisation (Fig. 4);
//! * `fig5_hardware` — simulated device wall time and shot counts,
//!   standard vs golden (Fig. 5);
//! * `scaling_table` — multi-cut scaling of settings/terms (§II-B claims).
//!
//! Criterion benches live under `benches/`. All binaries take
//! `--trials N --shots N` style flags; defaults reproduce the paper's
//! parameters.

#![forbid(unsafe_code)]

use qcut_stats::ci::{ci95_of, ConfidenceInterval};
use std::collections::HashMap;

/// Minimal command-line flag parser: `--key value` pairs after the binary
/// name. Unknown keys are rejected so typos fail loudly.
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args`, allowing only the given keys.
    pub fn parse(allowed: &[&str]) -> Args {
        let mut values = HashMap::new();
        let mut argv = std::env::args().skip(1);
        while let Some(key) = argv.next() {
            let name = key
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --flag, got {key}"));
            assert!(
                allowed.contains(&name),
                "unknown flag --{name}; allowed: {allowed:?}"
            );
            let value = argv
                .next()
                .unwrap_or_else(|| panic!("flag --{name} needs a value"));
            values.insert(name.to_string(), value);
        }
        Args { values }
    }

    /// Integer flag with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be an integer"))
            })
            .unwrap_or(default)
    }

    /// Float flag with default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be a number"))
            })
            .unwrap_or(default)
    }
}

/// Formats a confidence interval the way the figures label bars.
pub fn fmt_ci(ci: &ConfidenceInterval) -> String {
    if ci.half_width.is_finite() {
        format!("{:>10.4} ± {:<8.4}", ci.mean, ci.half_width)
    } else {
        format!("{:>10.4} ± inf     ", ci.mean)
    }
}

/// Mean ± 95 % CI of a sample vector, formatted.
pub fn summarize(samples: &[f64]) -> (ConfidenceInterval, String) {
    let ci = ci95_of(samples);
    let s = fmt_ci(&ci);
    (ci, s)
}

/// Prints a horizontal rule sized to a header line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Workspace-root path for a `BENCH_*.json` artifact. Cargo runs bench
/// binaries with the *package* directory as cwd, so a bare relative write
/// would land in `crates/bench/` — CI's schema checks (and the README's
/// "written to the repo root" contract) expect the workspace root.
///
/// The package directory is read from `CARGO_MANIFEST_DIR` at run time
/// (cargo sets it for `bench`, `run` and `test`), so a binary built in a
/// shared target directory writes into the tree it runs from, not the one
/// that compiled it. Without the variable the artifact goes to the current
/// directory.
pub fn artifact_path(name: &str) -> std::path::PathBuf {
    artifact_path_in(std::env::var_os("CARGO_MANIFEST_DIR"), name)
}

fn artifact_path_in(manifest_dir: Option<std::ffi::OsString>, name: &str) -> std::path::PathBuf {
    match manifest_dir {
        Some(dir) => std::path::Path::new(&dir).join("../..").join(name),
        None => std::path::PathBuf::from(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ci_handles_finite_and_infinite() {
        let (_, s) = summarize(&[1.0, 2.0, 3.0]);
        assert!(s.contains('±'));
        let (ci, s1) = summarize(&[5.0]);
        assert!(ci.half_width.is_infinite());
        assert!(s1.contains("inf"));
    }

    #[test]
    fn artifact_path_follows_the_runtime_manifest_dir() {
        let dir = std::ffi::OsString::from("/some/checkout/crates/bench");
        assert_eq!(
            artifact_path_in(Some(dir), "BENCH_x.json"),
            std::path::Path::new("/some/checkout/crates/bench/../../BENCH_x.json")
        );
        assert_eq!(
            artifact_path_in(None, "BENCH_x.json"),
            std::path::Path::new("BENCH_x.json")
        );
        // Under cargo the variable is set, and names this package.
        let here = artifact_path("BENCH_x.json");
        assert!(
            here.starts_with(env!("CARGO_MANIFEST_DIR")),
            "{}",
            here.display()
        );
    }
}
