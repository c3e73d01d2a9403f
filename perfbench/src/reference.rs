//! The reference computation that the timings are scaled by.
//!
//! The benchmark's host is a shared virtual machine. The client reads CPU
//! time (see [`crate::clock`]), which ignores the time the host gives to
//! other tenants, but the speed of the processor itself still follows
//! their load: over seven minutes the same code ran twice as fast at the
//! end as at the start, and within a run the speed moves in less than a
//! second. So the client also times a fixed piece of code that belongs to
//! the benchmark, not to the program, right before every request, and
//! reports each time as it would read on a processor where that piece
//! takes [`NOMINAL_US`]: the time times `NOMINAL_US` over the median of
//! the reference runs next to it. A change to the program leaves the
//! reference as it is and moves the scaled figures as much as the raw
//! ones; a change in the processor's speed moves both and largely
//! cancels. The unscaled figures are printed on standard error.
//!
//! The reference mimics the work the program does most: complex rotations
//! over an amplitude vector, as the simulators apply gates, then sampling
//! from its cumulative distribution, as the devices draw shots. It is
//! single-threaded and allocates nothing.

use crate::clock;
use std::hint::black_box;

/// CPU microseconds one [`run_us`] takes on the host the baseline was
/// measured on (2-vCPU Intel Xeon virtual machine, release profile). It
/// only fixes the scale of the reported figures.
pub const NOMINAL_US: f64 = 50.0;

/// Reference runs on each side of a request that its time is scaled by.
pub const NEIGHBOURS: usize = 4;

/// Amplitudes of the reference state (nine qubits).
const AMPS: usize = 1 << 9;
/// Layers of single-qubit rotations applied to every qubit.
const LAYERS: usize = 4;
/// Shots drawn from the final distribution.
const SHOTS: usize = 1000;

/// Runs the reference computation once and returns its CPU time in
/// microseconds.
pub fn run_us() -> f64 {
    let started = clock::thread_s();
    let mut re = [0.0f64; AMPS];
    let mut im = [0.0f64; AMPS];
    re[0] = black_box(1.0);
    for layer in 0..LAYERS {
        for q in 0..AMPS.trailing_zeros() as usize {
            let angle = black_box(0.3 + 0.1 * layer as f64 + 0.07 * q as f64);
            let (s, c) = angle.sin_cos();
            let bit = 1 << q;
            for i in (0..AMPS).filter(|i| i & bit == 0) {
                let j = i | bit;
                let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
                re[i] = c * ar - s * bi;
                im[i] = c * ai + s * br;
                re[j] = c * br - s * ai;
                im[j] = c * bi + s * ar;
            }
        }
    }
    let mut cdf = [0.0f64; AMPS];
    let mut total = 0.0;
    for (p, (r, i)) in cdf.iter_mut().zip(re.iter().zip(&im)) {
        total += r * r + i * i;
        *p = total;
    }
    let mut state = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut outcomes = 0usize;
    for _ in 0..SHOTS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
        outcomes = outcomes.wrapping_add(cdf.partition_point(|&p| p < u));
    }
    black_box(outcomes);
    (clock::thread_s() - started) * 1e6
}

/// Factor that turns a host time measured while the reference took
/// `samples` (microseconds) into the time at [`NOMINAL_US`]: the nominal
/// time over the samples' median.
pub fn scale(samples: &[f64]) -> f64 {
    NOMINAL_US / crate::measure::median(&mut samples.to_vec())
}
