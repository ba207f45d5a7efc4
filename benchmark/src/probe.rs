//! Host speed probe.
//!
//! Small shared hosts drift in single-thread speed by up to 1.7× over tens
//! of seconds, with no steal time or run-queue wait to show for it. A run
//! therefore interleaves a fixed probe — benchmark-owned code, so no change
//! to the library can move it — between its rounds or ticks, and the
//! gated timing metrics are scaled by the probe's mean time against
//! [`REF_US`]: they read as if the host ran at the reference speed. The
//! probe does the kind of work the workloads do: a skinny f64 matrix
//! product the shape of the served conv's GEMM, and a 4 KiB f64 encode and
//! decode with fresh allocations.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's mean time on the reference host at full speed (µs).
pub const REF_US: f64 = 1100.0;

/// Probe times of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe {
    total: Duration,
    runs: u32,
}

impl Probe {
    /// Run the probe once; returns how long it took, so the caller can
    /// leave it out of its own timing.
    pub fn run(&mut self) -> Duration {
        let t0 = Instant::now();
        let a: Vec<f64> = (0..4 * 27).map(|i| (i % 7) as f64 * 0.125).collect();
        let b: Vec<f64> = (0..27 * 64).map(|i| (i % 5) as f64 * 0.25).collect();
        let src: Vec<f64> = (0..512).map(|i| i as f64).collect();
        let mut c = vec![0.0f64; 4 * 64];
        for _ in 0..100 {
            for i in 0..4 {
                for j in 0..64 {
                    let mut acc = 0.0;
                    for k in 0..27 {
                        acc += a[i * 27 + k] * black_box(b[k * 64 + j]);
                    }
                    c[i * 64 + j] = acc;
                }
            }
            let mut bytes: Vec<u8> = Vec::with_capacity(8 * src.len());
            for v in &src {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            let back: Vec<f64> = bytes
                .chunks_exact(8)
                .map(|w| f64::from_le_bytes(w.try_into().expect("8-byte chunk")))
                .collect();
            black_box((&c, back));
        }
        let took = t0.elapsed();
        self.total += took;
        self.runs += 1;
        took
    }

    /// Mean probe time (µs); runs one probe first if none ran.
    pub fn mean_us(&mut self) -> f64 {
        if self.runs == 0 {
            self.run();
        }
        self.total.as_secs_f64() * 1e6 / self.runs as f64
    }

    /// How much slower than the reference the host ran (> 1 is slower).
    pub fn slowdown(&mut self) -> f64 {
        self.mean_us() / REF_US
    }
}
