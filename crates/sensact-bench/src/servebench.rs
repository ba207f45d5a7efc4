//! Shared serving-throughput workload: mixed lidar + cartpole traffic
//! through the [`Loopback`] transport, batched vs. per-loop dispatch.
//!
//! Used by both `bench_serve` (records `BENCH_serve.json`) and
//! `bench_gate` (re-measures the serving p99 headline against the
//! committed baseline), so the two always measure the exact same workload.
//!
//! The traffic is full protocol traffic — every observation is wire-encoded
//! by the client, sniffed/decoded by the engine, executed (or shed), and
//! the action frame decoded back — on the deterministic in-process
//! loopback, so the numbers isolate the serving stack from kernel noise
//! without real sockets.

use sensact_serve::wire::{self, Frame};
use sensact_serve::{ConnId, Loopback, ModelKind, PoolConfig, ServeConfig};
use std::time::Instant;

/// Measured serving numbers for one (fleet size, mode) cell.
#[derive(Debug, Clone, Copy)]
pub struct ServeMeasure {
    /// Leased loops driven concurrently.
    pub fleet: usize,
    /// Cross-loop batching on?
    pub batched: bool,
    /// Observations served (acts received).
    pub served: u64,
    /// Observations shed.
    pub shed: u64,
    /// Sustained serving throughput (ticks per second of serving time —
    /// the send-through-flush window, excluding client-side reply decode).
    pub ticks_per_s: f64,
    /// p99 per-tick wall latency (microseconds): per round, the round's
    /// wall time divided by its ticks; p99 over rounds.
    pub p99_tick_us: f64,
}

/// One leased serving fleet on a loopback server, ready to be driven one
/// round (one observation per lease) at a time. Every round performs
/// identical work — the same pre-encoded frames against a steady-state pool
/// — so round wall times are repeated samples of the same serving cost.
struct ServeRig {
    lb: Loopback,
    conns: Vec<ConnId>,
    obs_bytes: Vec<Vec<u8>>,
    round: usize,
    served: u64,
    shed: u64,
    period_s: f64,
}

impl ServeRig {
    fn new(fleet: usize, batched: bool) -> ServeRig {
        let cfg = ServeConfig {
            pool: PoolConfig {
                // Size the admission budget to the requested fleet: the
                // bench measures throughput, not admission control.
                workers: fleet.max(4) * 2,
                ..PoolConfig::default()
            },
            batched,
        };
        let mut lb = Loopback::new(cfg);
        let kind_of = |i: usize| {
            if i.is_multiple_of(2) {
                ModelKind::LidarConv
            } else {
                ModelKind::Cartpole
            }
        };
        let mut conns = Vec::with_capacity(fleet);
        let mut obs_bytes = Vec::with_capacity(fleet);
        for i in 0..fleet {
            let conn = lb.connect();
            let (lease, obs_len, _) = lb
                .request_lease(conn, kind_of(i).wire(), i as u64, 0.0)
                .expect("bench pool is sized to admit the whole fleet");
            conns.push(conn);
            // Pre-encoded observation frame: payload construction and wire
            // encoding are client work, not serving cost, so they happen
            // once up front (a fixed seq per lease is fine — the server
            // only echoes it).
            let values = (0..obs_len)
                .map(|j| ((j * 7 + 3) % 16) as f64 / 16.0 - 0.5)
                .collect();
            obs_bytes.push(wire::encode_to_vec(&Frame::Obs {
                lease,
                seq: i as u64,
                values,
            }));
        }
        ServeRig {
            lb,
            conns,
            obs_bytes,
            round: 0,
            served: 0,
            shed: 0,
            period_s: ModelKind::LidarConv.spec().period_s,
        }
    }

    /// Serve one observation per lease; returns the round's wall time in
    /// seconds (send through flush — the serving cost). Reply pickup and
    /// accounting happen outside the timed window. The virtual arrival
    /// clock advances one lidar period per round so the pool's shed
    /// arithmetic stays quiet — the measurement isolates serving overhead,
    /// not backpressure.
    fn run_round(&mut self) -> f64 {
        self.round += 1;
        let now_s = self.period_s * self.round as f64;
        let round_start = Instant::now();
        for (i, &conn) in self.conns.iter().enumerate() {
            self.lb.send_bytes(conn, &self.obs_bytes[i], now_s);
        }
        self.lb.flush(now_s);
        let elapsed = round_start.elapsed().as_secs_f64();
        for &conn in &self.conns {
            for frame in self.lb.take_frames(conn) {
                match frame {
                    Frame::Act { .. } => self.served += 1,
                    Frame::Shed { .. } => self.shed += 1,
                    other => panic!("unexpected frame in bench: {other:?}"),
                }
            }
        }
        elapsed
    }
}

/// Untimed warmup rounds for `rounds` timed ones: fault in scratch buffers,
/// settle branch predictors and CPU frequency before measuring.
fn warmup_rounds(rounds: usize) -> usize {
    (rounds / 10).clamp(10, 200)
}

/// p99 over per-round tick latencies (microseconds per tick).
fn p99_tick_us(mut round_tick_us: Vec<f64>) -> f64 {
    round_tick_us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let p99_idx =
        ((round_tick_us.len() as f64 * 0.99).ceil() as usize).clamp(1, round_tick_us.len()) - 1;
    round_tick_us[p99_idx]
}

/// One interleaved measurement pass: a per-loop rig and a batched rig,
/// both warmed, then driven round-for-round in the same wall-clock epoch.
/// Returns each mode's per-round tick latencies (µs) and (served, shed)
/// counters.
///
/// Interleaving is the noise discipline that makes the comparison honest
/// on a shared host: every round of either rig performs identical work, so
/// a machine-load epoch (the dominant error source) inflates both
/// distributions roughly equally and cancels out of any paired quotient —
/// unlike sequential runs, where a noise burst lands entirely on whichever
/// mode happened to be measuring.
/// One mode's pass result: per-round tick latencies (µs) and the
/// (served, shed) counters accumulated over the timed rounds.
type PassSide = (Vec<f64>, u64, u64);

fn interleaved_pass(fleet: usize, rounds: usize) -> (PassSide, PassSide) {
    let mut per_loop = ServeRig::new(fleet, false);
    let mut batched = ServeRig::new(fleet, true);
    for _ in 0..warmup_rounds(rounds) {
        per_loop.run_round();
        batched.run_round();
    }
    per_loop.served = 0;
    per_loop.shed = 0;
    batched.served = 0;
    batched.shed = 0;
    let mut u = Vec::with_capacity(rounds);
    let mut b = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        u.push(per_loop.run_round() * 1e6 / fleet as f64);
        b.push(batched.run_round() * 1e6 / fleet as f64);
    }
    (
        (u, per_loop.served, per_loop.shed),
        (b, batched.served, batched.shed),
    )
}

/// Median of per-round tick latencies (µs).
fn median_tick_us(mut round_tick_us: Vec<f64>) -> f64 {
    round_tick_us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    round_tick_us[round_tick_us.len() / 2]
}

/// A paired batched-vs-per-loop measurement at one fleet size.
#[derive(Debug, Clone, Copy)]
pub struct ServePair {
    /// Per-loop dispatch numbers.
    pub unbatched: ServeMeasure,
    /// Cross-loop batched numbers.
    pub batched: ServeMeasure,
    /// Batched median round cost as a percentage of per-loop (< 100 means
    /// batching wins). The median is the robust serving-cost comparison:
    /// unlike the p99 (which ranks the preemption spikes a shared host
    /// injects into both modes at random), it is repeatable to ~±1 pp.
    pub median_cost_ratio_pct: f64,
}

/// Drive `fleet` leases (half lidar-conv, half cartpole) for `rounds`
/// rounds of one observation each through TWO loopback servers — per-loop
/// and batched dispatch — interleaved in the same wall-clock epoch, and
/// measure each mode's serving cost. The paired epochs make the
/// batched-vs-unbatched comparison robust to machine-load noise.
pub fn serve_pair(fleet: usize, rounds: usize) -> ServePair {
    let ((u, us, ush), (b, bs, bsh)) = interleaved_pass(fleet, rounds);
    let median_cost_ratio_pct = 100.0 * median_tick_us(b.clone()) / median_tick_us(u.clone());
    let measure = |batched: bool, ticks_us: Vec<f64>, served: u64, shed: u64| {
        let total_s = ticks_us.iter().sum::<f64>() * fleet as f64 / 1e6;
        ServeMeasure {
            fleet,
            batched,
            served,
            shed,
            ticks_per_s: (served + shed) as f64 / total_s,
            p99_tick_us: p99_tick_us(ticks_us),
        }
    };
    ServePair {
        unbatched: measure(false, u, us, ush),
        batched: measure(true, b, bs, bsh),
        median_cost_ratio_pct,
    }
}

/// The gate headlines: batched as a percentage of per-loop at the given
/// fleet size (< 100 means batching wins) — `(p99 ratio, median cost
/// ratio)` — measured by round-interleaved paired passes
/// (`interleaved_pass`). Each headline is the median over `repeats`
/// passes: robust against one contaminated pass in either direction, while
/// a genuine batching regression raises every pass. The p99 ratio is the
/// tail headline (noisy on a shared host, ±5 pp); the median cost ratio is
/// the tight one (±1 pp) that pins the sustained serving-cost win.
pub fn serve_gate_headline(fleet: usize, rounds: usize, repeats: usize) -> (f64, f64) {
    let mut p99s = Vec::with_capacity(repeats);
    let mut meds = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let ((u, ..), (b, ..)) = interleaved_pass(fleet, rounds);
        p99s.push(100.0 * p99_tick_us(b.clone()) / p99_tick_us(u.clone()));
        meds.push(100.0 * median_tick_us(b) / median_tick_us(u));
    }
    let med_of = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        v[v.len() / 2]
    };
    (med_of(p99s), med_of(meds))
}

/// The served lidar conv (1→4 channels, k3 s2 over 8³) timed per row.
#[derive(Debug, Clone, Copy)]
pub struct ConvRowTiming {
    /// Median ns per row of the production forward (`forward_batch` on one
    /// row — the serving `forward_one` path).
    pub direct_ns: f64,
    /// Median ns per row of the gather-formulation `forward_reference`.
    pub reference_ns: f64,
    /// Largest |Δ| between the two over the timed rows.
    pub max_abs_diff: f64,
}

impl ConvRowTiming {
    /// Production cost as a percentage of the reference. Both sides run in
    /// the same epoch, so host speed cancels out of the quotient.
    pub fn ratio_pct(&self) -> f64 {
        100.0 * self.direct_ns / self.reference_ns
    }
}

/// Time the served conv's production forward against its reference on 16
/// seeded occupancy grids (20% occupied, like the served traffic),
/// alternating the two sides for `rounds` rounds; each side's figure is the
/// median round.
pub fn serve_conv_row(rounds: usize) -> ConvRowTiming {
    use sensact_math::rng::StdRng;
    use sensact_nn::conv::{Conv3d, Dims3};
    use sensact_nn::init::Initializer;
    use sensact_nn::Tensor;
    use std::hint::black_box;

    let mut conv = Conv3d::new(1, 4, 3, 2, 1, Dims3::new(8, 8, 8), &mut Initializer::new(5));
    let mut rng = StdRng::seed_from_u64(0x5E2C);
    let rows: Vec<Tensor> = (0..16)
        .map(|_| {
            let grid = (0..512).map(|_| f64::from(u8::from(rng.gen_f64() < 0.2)));
            Tensor::from_vec(vec![1, 512], grid.collect())
        })
        .collect();
    let mut out = vec![0.0; conv.out_features()];
    let mut max_abs_diff = 0.0f64;
    for row in &rows {
        conv.forward_batch(&[row.as_slice()], &mut out);
        let reference = conv.forward_reference(row);
        for (a, b) in out.iter().zip(reference.as_slice()) {
            max_abs_diff = max_abs_diff.max((a - b).abs());
        }
    }
    // Per round, each row is timed on both sides back to back, so a burst
    // of host load lands on both sides of the round's ratio.
    let (mut direct, mut reference) = (Vec::new(), Vec::new());
    for _ in 0..rounds.max(1) {
        let (mut d_ns, mut r_ns) = (0.0, 0.0);
        for row in &rows {
            let t = Instant::now();
            for _ in 0..8 {
                conv.forward_batch(&[black_box(row.as_slice())], &mut out);
            }
            d_ns += t.elapsed().as_nanos() as f64 / 8.0;
            let t = Instant::now();
            black_box(conv.forward_reference(black_box(row)));
            r_ns += t.elapsed().as_nanos() as f64;
        }
        direct.push(d_ns / rows.len() as f64);
        reference.push(r_ns / rows.len() as f64);
    }
    ConvRowTiming {
        direct_ns: median_tick_us(direct),
        reference_ns: median_tick_us(reference),
        max_abs_diff,
    }
}
