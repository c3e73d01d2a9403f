//! End-to-end and per-layer benchmark of the qcut cutting pipeline.
//!
//! * [`workload`] — the four workloads, generated from a seed.
//! * [`clock`] — the CPU-time clocks the timings are read from.
//! * [`measure`] — the closed-loop client, output checks and end-to-end
//!   metrics (tracing off).
//! * [`reference`](mod@reference) — the computation the timings are
//!   scaled by.
//! * [`record`] — the recording backend wrapper and the span store.
//! * [`replay`] — the traced run and its per-layer metrics.
//!
//! `src/main.rs` is the command line; `README.md` lists every metric with
//! its unit, clock, and the end-to-end metric it should move.

// Only `clock` calls foreign code.
#![deny(unsafe_code)]

pub mod clock;
pub mod measure;
pub mod record;
pub mod reference;
pub mod replay;
pub mod workload;
