//! A reference of the machine's speed, measured beside every pass.
//!
//! On a shared VM the same binary on the same input runs up to a third
//! faster or slower from one minute to the next, as neighbours load the
//! host; no length of run averages that out. A fixed kernel that does not
//! touch the program — dependent random reads and writes over a 16 MiB
//! table, and a chain of square roots — is timed just before each pass
//! and each set-up.
//! Scaling the pass's throughput by the kernel's speed against
//! [`REFERENCE_MOPS`] gives the throughput the pass would have had on the
//! machine at its reference speed: a slower program still reads slower,
//! a slower host does not. Set-up times are scaled the same way.

use std::time::Instant;

/// The kernel's speed, in million steps per second, that normalised
/// figures are scaled to: about what it reaches on a quiet 2-core VM.
pub const REFERENCE_MOPS: f64 = 80.0;

/// Steps per measurement: about 50 ms at the reference speed.
const STEPS: usize = 4_000_000;

pub struct Calibration {
    table: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Self {
        Self {
            table: (0..1u64 << 21).collect(),
        }
    }

    /// Runs the kernel once; returns its speed in million steps per second.
    pub fn measure(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        let mut f = 1.0f64;
        let start = Instant::now();
        for step in 0..STEPS as u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let at = (x >> 20) as usize & mask;
            acc = acc.wrapping_add(self.table[at]);
            self.table[at] = acc ^ step;
            f = (f * 1.000_001 + (acc & 7) as f64).sqrt() + 1.0;
        }
        std::hint::black_box((acc, f));
        STEPS as f64 / start.elapsed().as_secs_f64() / 1e6
    }

    /// `tasks_per_s` scaled from a machine running the kernel at `mops`
    /// to one running it at the reference speed.
    pub fn normalise(tasks_per_s: f64, mops: f64) -> f64 {
        tasks_per_s * REFERENCE_MOPS / mops
    }

    /// A duration scaled the same way.
    pub fn normalise_time(secs: f64, mops: f64) -> f64 {
        secs * mops / REFERENCE_MOPS
    }
}
