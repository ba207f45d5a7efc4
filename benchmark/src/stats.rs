//! Seeds, hashes, percentiles and failure accounting shared by the
//! workloads.

use std::time::{Duration, Instant};

/// SplitMix64-style mixer: derives independent sub-seeds from one seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold one word into an order-sensitive stream hash.
pub fn fold(h: &mut u64, w: u64) {
    *h = mix(*h ^ w, 0x0C7_5EED);
}

/// Nearest-rank percentile of `v` (sorted in place); NaN when empty.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Streaming latency windows: time-ordered samples are cut into
/// consecutive windows of `size` samples; each closed window keeps its
/// throughput (samples per wall second), p50 and p99. Reported figures are
/// medians over windows, so a burst of host interference moves one window
/// rather than the run, and memory stays fixed however long the run.
#[derive(Debug)]
pub struct Windows {
    size: usize,
    cur: Vec<f64>,
    start: Instant,
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    samples: u64,
}

/// Medians over the closed windows.
#[derive(Debug, Default, Clone, Copy)]
pub struct Summary {
    pub rate: f64,
    pub p50: f64,
    pub p99: f64,
    pub samples: u64,
    pub windows: usize,
}

/// Fewest samples in a window: its p99 then has ≥ 10 samples beyond it.
pub const WINDOW_MIN: usize = 1000;

impl Windows {
    /// Windows of `size` samples (at least [`WINDOW_MIN`]); the clock of
    /// the first window starts now.
    pub fn new(size: usize) -> Windows {
        let size = size.max(WINDOW_MIN);
        Windows {
            size,
            cur: Vec::with_capacity(size.min(1 << 16)),
            start: Instant::now(),
            rates: Vec::new(),
            p50s: Vec::new(),
            p99s: Vec::new(),
            samples: 0,
        }
    }

    pub fn push(&mut self, lat_us: f64) {
        self.cur.push(lat_us);
        self.samples += 1;
        if self.cur.len() == self.size {
            self.close();
        }
    }

    fn close(&mut self) {
        let now = Instant::now();
        self.rates
            .push(self.cur.len() as f64 / now.duration_since(self.start).as_secs_f64());
        self.p50s.push(percentile(&mut self.cur, 0.50));
        self.p99s.push(percentile(&mut self.cur, 0.99));
        self.cur.clear();
        self.start = now;
    }

    /// Leave `d` (time spent outside the measured work) out of the current
    /// window's wall time.
    pub fn exclude(&mut self, d: Duration) {
        self.start += d;
    }

    /// End the measurement: close the partial window when it is big
    /// enough, or when no window closed at all.
    pub fn finish(&mut self) {
        if self.cur.len() >= WINDOW_MIN || (self.p50s.is_empty() && !self.cur.is_empty()) {
            self.close();
        }
        self.cur = Vec::new();
    }

    /// Medians over the closed windows.
    pub fn summary(&self) -> Summary {
        Summary {
            rate: median(&mut self.rates.clone()),
            p50: median(&mut self.p50s.clone()),
            p99: median(&mut self.p99s.clone()),
            samples: self.samples,
            windows: self.p50s.len(),
        }
    }
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Per-workload failure and validity accounting. Every attempted
/// operation ends as exactly one of served, shed, errored or missing;
/// `late` counts served operations past the latency limit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    pub attempted: u64,
    pub served: u64,
    pub shed: u64,
    pub errored: u64,
    pub missing: u64,
    pub late: u64,
}

impl Accounting {
    /// Record one served operation that took `lat_s` against `limit_s`.
    pub fn served(&mut self, lat_s: f64, limit_s: f64) {
        self.served += 1;
        if lat_s > limit_s {
            self.late += 1;
        }
    }

    /// Served within the limit.
    pub fn ok(&self) -> u64 {
        self.served - self.late
    }

    /// Attempted but not served.
    pub fn failed(&self) -> u64 {
        self.attempted - self.served
    }

    pub fn add(&mut self, o: &Accounting) {
        self.attempted += o.attempted;
        self.served += o.served;
        self.shed += o.shed;
        self.errored += o.errored;
        self.missing += o.missing;
        self.late += o.late;
    }

    pub fn line(&self) -> String {
        format!(
            "attempted={} served={} shed={} errored={} missing={} late={}",
            self.attempted, self.served, self.shed, self.errored, self.missing, self.late
        )
    }
}
