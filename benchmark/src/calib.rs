//! The yardstick: a fixed ALU + memory kernel timed right before and after
//! every repetition. Host time on a shared box drifts by tens of percent
//! between runs; this loop drifts with it, so dividing a repetition by the
//! calibrations that bracket it cancels most of the drift.
//!
//! The kernel uses `std` only and must never call into the repository's
//! crates: no later change to the system can then speed up the yardstick.
//!
//! One calibration is [`SLICES`] slices; a slice is an xorshift chain (bound
//! by ALU throughput, which a busy sibling hyperthread takes away) followed
//! by a dependent random walk over 8 MiB (bound by memory latency, which a
//! neighbour's cache and memory traffic takes away), each about half of the
//! slice's time. The simulator's workloads sit between those two extremes —
//! the Byzantine pipeline nearer the first, the batch-32 log nearer the
//! second — and the noise study (`noise/README.md`) found the even blend the
//! steadiest single yardstick for all of them. The calibration's value is
//! the lower quartile of its slice times: a slice the hypervisor preempted
//! (a ~4 ms stall on this box) falls out instead of inflating the yardstick.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::quartiles;

/// A slice's time on a quiet run of the box the bounds were set on.
/// Reference seconds are observed seconds scaled by `REF_CALIB_NS / observed
/// calibration`: "seconds on a machine on which a slice takes this long".
pub const REF_CALIB_NS: f64 = 1_500_000.0;

/// 8 MiB of `u64`: beyond this box's L2 and TLB reach, so each step of the
/// walk pays a real memory access like the simulator's event loop does.
const WORDS: usize = 1 << 20;
const SLICES: usize = 16;
const ALU_ROUNDS: usize = 400_000;
const WALK_STEPS: usize = 6_000;

/// Owns the walk buffer, allocated once before anything is measured.
pub struct Calibrator {
    buf: Vec<u64>,
    state: u64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf = (0..WORDS)
            .map(|_| {
                state = xorshift(state);
                state
            })
            .collect();
        Calibrator { buf, state }
    }

    /// One calibration, in nanoseconds per slice.
    pub fn run(&mut self) -> f64 {
        let times: Vec<f64> = (0..SLICES).map(|_| self.slice()).collect();
        quartiles(&times)[0]
    }

    fn slice(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..ALU_ROUNDS {
            x = xorshift(x);
            acc = acc.wrapping_add(x.rotate_left(11) ^ (x >> 3));
        }
        let mut i = acc as usize & (WORDS - 1);
        for _ in 0..WALK_STEPS {
            x = xorshift(x);
            i = (i ^ x as usize ^ self.buf[i] as usize) & (WORDS - 1);
            self.buf[i] = self.buf[i].rotate_left(7).wrapping_add(x);
        }
        self.state = black_box(x ^ acc);
        start.elapsed().as_nanos() as f64
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Observed time → reference time, given the calibration (ns) taken around
/// the observation.
pub fn to_ref(observed: f64, calib_ns: f64) -> f64 {
    observed * REF_CALIB_NS / calib_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_conversion_scales_by_the_yardstick() {
        // On the reference machine nothing changes.
        assert_eq!(to_ref(2.0, REF_CALIB_NS), 2.0);
        // A box running everything 2x slower reports the same reference time.
        assert_eq!(to_ref(4.0, 2.0 * REF_CALIB_NS), 2.0);
        assert_eq!(to_ref(1.0, 0.5 * REF_CALIB_NS), 2.0);
    }

    #[test]
    fn calibration_advances_its_state() {
        let mut c = Calibrator::new();
        assert!(c.run() > 0.0);
        let before = c.state;
        c.run();
        assert_ne!(before, c.state, "the walk must advance, not replay");
    }
}
