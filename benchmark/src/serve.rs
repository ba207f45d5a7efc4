//! The served traffic mix and the `serve-loopback` workload.
//!
//! 64 leases — 32 `LidarConv`, 32 `Cartpole`, order shuffled by the seed —
//! each with a small pool of seeded payloads. Observation `k` of lease `i`
//! uses payload `pick(seed, i, k)`, so any replay regenerates the exact
//! stream from the seed alone.
//!
//! `serve-loopback` is closed rounds on the in-process [`Loopback`] with
//! the batched engine: every lease sends its next observation once the
//! previous round's flush has answered it, and the virtual clock advances
//! one lidar period per round, so nothing is shed.

use crate::ledger;
use crate::probe::Probe;
use crate::stats::{fold, median, mix, Accounting, Windows};
use crate::{timed_setup, Report, RECONCILE_TOL};
use sensact_math::rng::StdRng;
use sensact_serve::lease::{Admitted, LeasePool, ObsOutcome, PoolConfig};
use sensact_serve::wire::{self, Frame};
use sensact_serve::{BatchPlanner, ConnId, Loopback, ModelKind, ServeConfig, SharedPerceptor};
use std::time::{Duration, Instant};

/// Leases in the served mix.
pub const LEASES: usize = 64;
/// Distinct payloads per lease.
const PAYLOADS: usize = 8;
/// One lidar period: the virtual clock step per round, and the serve
/// workloads' latency limit.
pub const LIDAR_PERIOD_S: f64 = 1e-3;

/// The seeded 64-lease traffic mix.
pub struct Traffic {
    seed: u64,
    pub kinds: Vec<ModelKind>,
    pub lease_seeds: Vec<u64>,
    payloads: Vec<Vec<Vec<f64>>>,
}

impl Traffic {
    pub fn new(seed: u64) -> Traffic {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x7AF1C));
        let mut kinds: Vec<ModelKind> = (0..LEASES)
            .map(|i| {
                if i < LEASES / 2 {
                    ModelKind::LidarConv
                } else {
                    ModelKind::Cartpole
                }
            })
            .collect();
        rng.shuffle(&mut kinds);
        let lease_seeds = (0..LEASES).map(|_| rng.next_u64()).collect();
        let payloads = kinds
            .iter()
            .map(|&kind| (0..PAYLOADS).map(|_| payload(kind, &mut rng)).collect())
            .collect();
        Traffic {
            seed,
            kinds,
            lease_seeds,
            payloads,
        }
    }

    /// Which payload observation `k` of lease `lease` carries.
    pub fn pick(&self, lease: usize, k: u64) -> usize {
        (mix(mix(self.seed, lease as u64), k) % PAYLOADS as u64) as usize
    }

    pub fn payload(&self, lease: usize, idx: usize) -> &[f64] {
        &self.payloads[lease][idx]
    }

    /// Server config: pool defaults with a seeded weight/scheduler seed.
    pub fn serve_config(&self, batched: bool) -> ServeConfig {
        ServeConfig {
            pool: PoolConfig {
                seed: mix(self.seed, 0x5E4E),
                ..PoolConfig::default()
            },
            batched,
        }
    }

    /// Prebuilt observation frames per (lease slot, payload); the sender
    /// only [`stamp`]s lease and seq before encoding.
    pub fn obs_frames(&self) -> Vec<Vec<Frame>> {
        self.payloads
            .iter()
            .map(|pool| {
                pool.iter()
                    .map(|values| Frame::Obs {
                        lease: 0,
                        seq: 0,
                        values: values.clone(),
                    })
                    .collect()
            })
            .collect()
    }
}

/// A seeded observation: a sparse 8³ occupancy grid for lidar, a small
/// cart-pole state for cartpole.
fn payload(kind: ModelKind, rng: &mut StdRng) -> Vec<f64> {
    match kind {
        ModelKind::LidarConv => {
            let density = 0.05 + 0.25 * rng.gen_f64();
            (0..kind.spec().obs_len)
                .map(|_| if rng.gen_f64() < density { 1.0 } else { 0.0 })
                .collect()
        }
        ModelKind::Cartpole => (0..kind.spec().obs_len)
            .map(|_| rng.normal(0.0, 0.2))
            .collect(),
    }
}

/// Address a prebuilt observation frame to `lease` with sequence `s`.
pub fn stamp(frame: &mut Frame, to: u64, s: u64) -> &Frame {
    if let Frame::Obs { lease, seq, .. } = frame {
        *lease = to;
        *seq = s;
    }
    frame
}

/// Fold one Act into the output hash: lease slot, seq, charged latency and
/// energy, and every action value, all as raw bits.
pub fn fold_act(h: &mut u64, slot: usize, seq: u64, latency_s: f64, energy_j: f64, values: &[f64]) {
    fold(h, slot as u64);
    fold(h, seq);
    fold(h, latency_s.to_bits());
    fold(h, energy_j.to_bits());
    for v in values {
        fold(h, v.to_bits());
    }
}

/// A loopback server with the 64 leases granted, one connection each.
pub struct LoopbackRig {
    lb: Loopback,
    conns: Vec<ConnId>,
    ids: Vec<u64>,
    frames: Vec<Vec<Frame>>,
    buf: Vec<u8>,
    sent: Vec<Instant>,
}

/// Latency window: 1000 rounds.
const WINDOW: usize = 1000 * LEASES;
/// A timed run probes host speed every this many rounds.
const PROBE_EVERY: u64 = 500;

/// What a run of closed rounds produced.
#[derive(Debug)]
pub struct LoopbackRun {
    pub rounds: u64,
    pub wall_s: f64,
    pub lat: Windows,
    pub acct: Accounting,
    pub energy_j: f64,
    pub hash: u64,
    pub probe: Probe,
}

impl LoopbackRun {
    pub fn new() -> LoopbackRun {
        LoopbackRun {
            rounds: 0,
            wall_s: 0.0,
            lat: Windows::new(WINDOW),
            acct: Accounting::default(),
            energy_j: 0.0,
            hash: 0,
            probe: Probe::default(),
        }
    }
}

impl LoopbackRig {
    pub fn new(t: &Traffic, batched: bool) -> LoopbackRig {
        let mut lb = Loopback::new(t.serve_config(batched));
        let mut conns = Vec::with_capacity(LEASES);
        let mut ids = Vec::with_capacity(LEASES);
        for i in 0..LEASES {
            let conn = lb.connect();
            let (id, _, _) = lb
                .request_lease(conn, t.kinds[i].wire(), t.lease_seeds[i], 0.0)
                .expect("the 64-lease mix fits admission control");
            conns.push(conn);
            ids.push(id);
        }
        LoopbackRig {
            lb,
            conns,
            ids,
            frames: t.obs_frames(),
            buf: Vec::with_capacity(8 << 10),
            sent: vec![Instant::now(); LEASES],
        }
    }

    /// One closed round `r`: every lease sends, one flush, every lease
    /// takes its Act. Spans (transport level) are recorded when the ledger
    /// is on.
    pub fn round(&mut self, t: &Traffic, r: u64, run: &mut LoopbackRun) {
        let now_v = (r + 1) as f64 * LIDAR_PERIOD_S;
        for i in 0..LEASES {
            let id = r * LEASES as u64 + i as u64;
            let frame = stamp(&mut self.frames[i][t.pick(i, r)], self.ids[i], r);
            let buf = &mut self.buf;
            ledger::span("client.encode", id, || {
                buf.clear();
                wire::encode(frame, buf)
            });
            self.sent[i] = Instant::now();
            let (lb, conn) = (&mut self.lb, self.conns[i]);
            ledger::span("loopback.ingest", id, || lb.send_bytes(conn, buf, now_v));
        }
        ledger::span("loopback.flush", r, || self.lb.flush(now_v));
        let done = Instant::now();
        for i in 0..LEASES {
            let id = r * LEASES as u64 + i as u64;
            run.acct.attempted += 1;
            let (lb, conn) = (&mut self.lb, self.conns[i]);
            match ledger::span("client.take", id, || lb.take_frames(conn)).as_slice() {
                [Frame::Act {
                    seq,
                    latency_s,
                    energy_j,
                    values,
                    ..
                }] if *seq == r => {
                    let lat = done.duration_since(self.sent[i]).as_secs_f64();
                    run.acct.served(lat, LIDAR_PERIOD_S);
                    run.lat.push(lat * 1e6);
                    run.energy_j += energy_j;
                    fold_act(&mut run.hash, i, r, *latency_s, *energy_j, values);
                }
                [Frame::Shed { .. }] => run.acct.shed += 1,
                [] => run.acct.missing += 1,
                _ => run.acct.errored += 1,
            }
        }
        run.rounds += 1;
    }
}

/// Closed rounds until `secs` of wall time have passed (probing host
/// speed along the way, off the clock), or exactly `rounds` untimed rounds
/// when given.
pub fn run_rounds(
    t: &Traffic,
    rig: &mut LoopbackRig,
    secs: f64,
    rounds: Option<u64>,
) -> LoopbackRun {
    let mut run = LoopbackRun::new();
    let t0 = Instant::now();
    let mut probing = Duration::ZERO;
    loop {
        match rounds {
            Some(n) if run.rounds >= n => break,
            None if (t0.elapsed() - probing).as_secs_f64() >= secs => break,
            None if run.rounds.is_multiple_of(PROBE_EVERY) => {
                let d = run.probe.run();
                run.lat.exclude(d);
                probing += d;
            }
            _ => {}
        }
        rig.round(t, run.rounds, &mut run);
    }
    run.wall_s = (t0.elapsed() - probing).as_secs_f64();
    run.lat.finish();
    run
}

/// The same rounds driven through the serving layers' public functions
/// instead of through [`Loopback`], one span per call: client encode, wire
/// decode, lease admission, batch flush, reply encode and decode.
///
/// `BatchPlanner::flush` runs perception and control inside the library,
/// so a twin [`SharedPerceptor`] (same weights) and twin controller states
/// redo that work in their own `model.*` spans just before each flush. The
/// twin's actions must equal the served ones bit for bit; the batch layer's
/// own time is the flush minus the twin's.
pub struct LayerRig {
    pool: LeasePool,
    planner: BatchPlanner,
    ids: Vec<u64>,
    frames: Vec<Vec<Frame>>,
    twin: SharedPerceptor,
    states: Vec<Vec<f64>>,
    feats: Vec<Vec<f64>>,
    acts: Vec<Vec<f64>>,
    lidar: Vec<usize>,
    buf: Vec<u8>,
    pub hash: u64,
    pub acts_out: u64,
    pub twin_mismatches: u64,
    pub lidar_rows: u64,
    pub stacked_rows: u64,
    pub occupancies: Vec<usize>,
}

impl LayerRig {
    pub fn new(t: &Traffic) -> LayerRig {
        let cfg = t.serve_config(true);
        let mut pool = LeasePool::new(cfg.pool);
        let ids = (0..LEASES)
            .map(|i| {
                ledger::span("lease.grant", i as u64, || {
                    pool.grant(t.kinds[i], t.lease_seeds[i], 0.0)
                })
                .expect("the 64-lease mix fits admission control")
                .0
            })
            .collect();
        LayerRig {
            pool,
            planner: BatchPlanner::new(),
            ids,
            frames: t.obs_frames(),
            twin: SharedPerceptor::new(ModelKind::LidarConv, cfg.pool.seed),
            states: (0..LEASES)
                .map(|i| t.kinds[i].init_state(t.lease_seeds[i]))
                .collect(),
            feats: t.kinds.iter().map(|k| vec![0.0; k.feat_len()]).collect(),
            acts: t
                .kinds
                .iter()
                .map(|k| vec![0.0; k.spec().act_len])
                .collect(),
            lidar: (0..LEASES)
                .filter(|&i| t.kinds[i] == ModelKind::LidarConv)
                .collect(),
            buf: Vec::with_capacity(8 << 10),
            hash: 0,
            acts_out: 0,
            twin_mismatches: 0,
            lidar_rows: 0,
            stacked_rows: 0,
            occupancies: Vec::new(),
        }
    }

    pub fn round(&mut self, t: &Traffic, r: u64) {
        let now_v = (r + 1) as f64 * LIDAR_PERIOD_S;
        let buf = &mut self.buf;
        for i in 0..LEASES {
            let id = r * LEASES as u64 + i as u64;
            let frame = stamp(&mut self.frames[i][t.pick(i, r)], self.ids[i], r);
            ledger::span("wire.encode", id, || {
                buf.clear();
                wire::encode(frame, buf)
            });
            let (frame, _) = ledger::span("wire.decode", id, || wire::decode(buf))
                .expect("client frames are well formed")
                .expect("one whole frame");
            let Frame::Obs { lease, seq, values } = frame else {
                unreachable!("the client sends observations")
            };
            let pool = &mut self.pool;
            let admitted = ledger::span("lease.admit", id, || {
                pool.admit_deferred(lease, values.len(), now_v)
            });
            match admitted {
                Ok(Admitted::Queued(ticket)) => self.planner.enqueue(ticket, seq, values, now_v),
                _ => unreachable!("closed rounds one period apart are never shed"),
            }
        }
        let rows: Vec<&[f64]> = self
            .lidar
            .iter()
            .map(|&i| t.payload(i, t.pick(i, r)))
            .collect();
        let mut outs: Vec<&mut [f64]> = self
            .feats
            .iter_mut()
            .zip(&t.kinds)
            .filter(|(_, k)| **k == ModelKind::LidarConv)
            .map(|(f, _)| f.as_mut_slice())
            .collect();
        let twin = &mut self.twin;
        ledger::span("model.lidar", r, || {
            twin.forward_many_into(&rows, &mut outs)
        });
        for i in 0..LEASES {
            let id = r * LEASES as u64 + i as u64;
            let kind = t.kinds[i];
            if kind == ModelKind::Cartpole {
                self.feats[i].copy_from_slice(t.payload(i, t.pick(i, r)));
            }
            let (state, feats, act) = (&mut self.states[i], &self.feats[i], &mut self.acts[i]);
            ledger::span("model.control", id, || kind.control(state, feats, act));
        }
        let (planner, pool) = (&mut self.planner, &mut self.pool);
        let (flushed, _stats, occ) = ledger::span("batch.flush", r, || planner.flush(pool));
        self.lidar_rows += self.lidar.len() as u64;
        self.stacked_rows += occ.iter().sum::<usize>() as u64;
        self.occupancies.extend_from_slice(&occ);
        for f in flushed {
            let i = self
                .ids
                .iter()
                .position(|&id| id == f.lease)
                .expect("flushed lease is one of ours");
            let id = r * LEASES as u64 + i as u64;
            let ObsOutcome::Act {
                response_s,
                energy_j,
                values,
                ..
            } = f.outcome
            else {
                unreachable!("closed rounds one period apart are never shed")
            };
            if !bits_eq(&values, &self.acts[i]) {
                self.twin_mismatches += 1;
            }
            let reply = Frame::Act {
                lease: f.lease,
                seq: f.seq,
                latency_s: response_s,
                energy_j,
                values,
            };
            ledger::span("wire.encode", id, || {
                buf.clear();
                wire::encode(&reply, buf)
            });
            let (back, _) = ledger::span("wire.decode", id, || wire::decode(buf))
                .expect("server frames are well formed")
                .expect("one whole frame");
            if let Frame::Act {
                seq,
                latency_s,
                energy_j,
                values,
                ..
            } = back
            {
                fold_act(&mut self.hash, i, seq, latency_s, energy_j, &values);
                self.acts_out += 1;
            }
        }
    }

    /// Release every lease (recorded as `lease.release` spans).
    pub fn release_all(&mut self) {
        for (i, &id) in self.ids.iter().enumerate() {
            let pool = &mut self.pool;
            ledger::span("lease.release", i as u64, || pool.release(id)).expect("lease is live");
        }
    }
}

pub fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn end_to_end(r: &mut Report, seed: u64, secs: f64) {
    let ((t, mut rig), setup_s) = timed_setup(|| {
        let t = Traffic::new(seed);
        let rig = LoopbackRig::new(&t, true);
        (t, rig)
    });
    let mut run = run_rounds(&t, &mut rig, secs, None);
    drop(rig);
    let replay = run_rounds(&t, &mut LoopbackRig::new(&t, false), 0.0, Some(run.rounds));
    r.check(
        "serve-loopback: every Act bitwise equal to the per-loop replay",
        replay.hash == run.hash && replay.acct.served == run.acct.served,
    );
    r.acct = run.acct;
    let energy = run.energy_j * 1e6 / run.acct.served.max(1) as f64;
    let lat = run.lat.summary();
    let slowdown = run.probe.slowdown();
    r.end_to_end(lat.rate, lat, energy, setup_s, slowdown);
    r.note(format!(
        "serve-loopback: {} rounds of {LEASES} leases in {:.3} s",
        run.rounds, run.wall_s
    ));
}

/// The traced pass. Three rigs run the same rounds in lockstep, so host
/// speed drifts hit all three alike: an untraced [`Loopback`] (the
/// reference time per tick), a traced one (transport-level spans, which
/// must add up to the reference within [`RECONCILE_TOL`]), and the
/// [`LayerRig`] (per-layer spans through the public functions). Returns the
/// observed stacked-batch occupancy (p50).
pub fn trace(r: &mut Report, seed: u64, secs: f64) -> usize {
    let t = Traffic::new(seed);
    let mut plain = LoopbackRig::new(&t, true);
    let mut spanned = LoopbackRig::new(&t, true);
    let (mut untraced, mut traced) = (LoopbackRun::new(), LoopbackRun::new());
    ledger::start();
    let mut layers = LayerRig::new(&t);
    let (mut plain_ns, mut spanned_ns) = (0.0, 0.0);
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        ledger::suspended(|| plain.round(&t, round, &mut untraced));
        let t1 = Instant::now();
        spanned.round(&t, round, &mut traced);
        spanned_ns += t1.elapsed().as_nanos() as f64;
        plain_ns += (t1 - t0).as_nanos() as f64;
        layers.round(&t, round);
        round += 1;
    }
    layers.release_all();
    let l = ledger::finish();
    let replay = run_rounds(&t, &mut LoopbackRig::new(&t, false), 0.0, Some(round));
    r.check(
        "serve-loopback: every Act bitwise equal to the per-loop replay",
        replay.hash == untraced.hash && replay.acct.served == untraced.acct.served,
    );
    r.check(
        "serve-loopback: traced outputs equal untraced outputs",
        traced.hash == untraced.hash && layers.hash == untraced.hash,
    );
    r.check(
        "serve-loopback: twin perception+control equals served actions",
        layers.twin_mismatches == 0,
    );
    r.acct.add(&untraced.acct);

    let ticks = untraced.acct.served.max(1) as f64;
    let per_tick = |name: &str| l.agg(name).self_ns as f64 / ticks;
    let rows = layers.lidar_rows.max(1) as f64;
    r.metric("wire.decode_ns", "ns", per_tick("wire.decode"));
    r.metric("wire.encode_ns", "ns", per_tick("wire.encode"));
    r.metric("lease.admit_ns", "ns", l.agg("lease.admit").mean_ns());
    r.metric("batch.flush_us", "us", l.agg("batch.flush").mean_ns() / 1e3);
    let mut occ: Vec<f64> = layers.occupancies.iter().map(|&o| o as f64).collect();
    let occupancy = median(&mut occ);
    r.metric("batch.occupancy_p50", "count", occupancy);
    r.metric(
        "batch.stacked_ratio",
        "ratio",
        layers.stacked_rows as f64 / rows,
    );
    r.metric(
        "model.lidar_ns_per_row",
        "ns",
        l.agg("model.lidar").total_ns as f64 / rows,
    );
    r.metric("model.control_ns", "ns", l.agg("model.control").mean_ns());

    // Transport level: Σ span self time against the interleaved untraced
    // time per tick.
    let transport: f64 = [
        "client.encode",
        "loopback.ingest",
        "loopback.flush",
        "client.take",
    ]
    .iter()
    .map(|n| per_tick(n))
    .sum();
    let untraced_per_tick = plain_ns / ticks;
    let residual = untraced_per_tick - transport;
    r.metric("ledger.loopback.residual_ns", "ns", residual);
    r.metric(
        "ledger.loopback.overhead_ns",
        "ns",
        spanned_ns / ticks - untraced_per_tick,
    );
    r.check(
        format!(
            "serve-loopback: Σ layer self time {transport:.0} ns/tick within {:.0}% of untraced {untraced_per_tick:.0} ns/tick",
            RECONCILE_TOL * 100.0
        ),
        residual.abs() <= RECONCILE_TOL * untraced_per_tick,
    );
    // Layer level: what the public functions account for inside the
    // engine; the rest is engine glue (connection buffering, the metrics
    // registry, reply routing) that no public function isolates.
    let twin = per_tick("model.lidar") + per_tick("model.control");
    let flush = per_tick("batch.flush");
    let layer_sum =
        per_tick("wire.encode") + per_tick("wire.decode") + per_tick("lease.admit") + flush;
    let glue = transport - per_tick("client.take") - layer_sum;
    r.metric("ledger.loopback.glue_ns", "ns", glue);
    r.note(format!(
        "serve-loopback ns/tick: untraced {untraced_per_tick:.0} = client.encode {:.0} + loopback.ingest {:.0} + loopback.flush {:.0} + client.take {:.0} + residual {residual:.0}",
        per_tick("client.encode"),
        per_tick("loopback.ingest"),
        per_tick("loopback.flush"),
        per_tick("client.take"),
    ));
    r.note(format!(
        "serve-loopback layers ns/tick: wire.encode {:.0}, wire.decode {:.0}, lease.admit {:.0}, batch.flush {flush:.0} (of which model.lidar {:.0} + model.control {:.0} by twin, batch {:.0}), engine glue {glue:.0}",
        per_tick("wire.encode"),
        per_tick("wire.decode"),
        per_tick("lease.admit"),
        per_tick("model.lidar"),
        per_tick("model.control"),
        flush - twin,
    ));
    r.keep_ledger("serve-loopback", l);
    occupancy as usize
}
