//! The host's speed at the moment a call is timed.
//!
//! The reference box is a two-thread guest on a shared host, and its
//! speed for the same instructions changes under the benchmark: for
//! seconds at a time — sometimes minutes — everything runs up to 1.6
//! times slower, with process CPU time rising as wall time does (the
//! guest is not descheduled, it runs slower). A run of half a minute
//! sits inside such a stretch or outside it, so no statistic over the
//! run's own repetitions removes it: over 36 runs of one workload with
//! one seed, the run at each slice's median over the repetitions read
//! from 7 % below to 46 % above its own median.
//!
//! So every call the harness times is bracketed by two probes: a fixed
//! chain of integer and floating-point operations that touches no
//! memory and takes [`NOMINAL`] when the box runs undisturbed. The
//! call's duration is scaled by `NOMINAL / mean of the two probes`,
//! which states it at the host's nominal speed. Over the same 36 runs
//! the scaled figure read from 5 % below to 7 % above its median
//! (`urban_robc`; `metro_20k`, which waits on memory more than the
//! chain does, −11 % to +8 %).
//!
//! The chain belongs to the harness and never changes with the
//! simulator, so a change to the simulator moves the scaled figures
//! exactly as it moves the raw ones. On another machine the figures
//! are scaled to the reference box's speed for this chain; ratios
//! between two commits are unaffected.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What [`probe`] takes on the undisturbed reference box (its median
/// over quiet runs).
pub const NOMINAL: Duration = Duration::from_micros(48);

/// Steps of the chain.
const CHAIN: u32 = 10_000;

/// Times the chain: a xorshift generator feeding a logarithm, each
/// step depending on the one before.
pub fn probe() -> Duration {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0_f64;
    for _ in 0..CHAIN {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64 + 1.0).ln();
    }
    black_box(acc);
    start.elapsed()
}

/// `took`, measured between probes `before` and `after`, at the host's
/// nominal speed.
pub fn at_nominal_speed(took: Duration, before: Duration, after: Duration) -> Duration {
    let probed = (before + after).as_secs_f64() / 2.0;
    took.mul_f64(NOMINAL.as_secs_f64() / probed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_the_ratio_of_nominal_to_probed_speed() {
        let took = Duration::from_millis(30);
        // Probes at nominal leave the duration alone.
        assert_eq!(at_nominal_speed(took, NOMINAL, NOMINAL), took);
        // A host running at two thirds of its speed took half as long
        // again as it would have.
        let slow = NOMINAL.mul_f64(1.5);
        let scaled = at_nominal_speed(took, slow, slow);
        assert!((scaled.as_secs_f64() - 0.020).abs() < 1e-9, "{scaled:?}");
        // Speed changing under the call: the mean of the two probes.
        let scaled = at_nominal_speed(took, NOMINAL, NOMINAL * 2);
        assert!((scaled.as_secs_f64() - 0.020).abs() < 1e-9, "{scaled:?}");
    }

    #[test]
    fn the_probe_does_its_work() {
        // Folded away, the chain would read as nothing.
        assert!(probe() > Duration::from_micros(5));
    }
}
