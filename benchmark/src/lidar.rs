//! The `edge-lidar` workload: the paper's §III + §V loop on one robot.
//!
//! A [`FallibleLoop`] whose sensor is a [`FaultInjector`] over a radially
//! masked [`Lidar`] scan (~10% of pulses) of a seeded scene sequence, whose
//! perceptor runs voxelize → R-MAE reconstruct → detector, and whose
//! monitor is STARNet. A fog window every [`FOG_PERIOD`] ticks flips the
//! trust verdict; the cruise controller stops on distrust and fails safe to
//! a stop when perception is lost. Ticks run back to back (closed loop);
//! every [`SNAPSHOT_EVERY`]th tick the loop is snapshotted and serialized,
//! as a robot does before a risky manoeuvre. R-MAE is pretrained and
//! STARNet calibrated during set-up.

use crate::ledger;
use crate::probe::Probe;
use crate::stats::{fold, mix, Accounting, Windows};
use crate::{timed_setup, Report, RECONCILE_TOL};
use sensact_core::adapt::NoAdaptation;
use sensact_core::checkpoint::{Checkpoint, CheckpointError, StageState};
use sensact_core::fault::{
    FallibleLoop, FaultInjector, FaultProfile, RecoveryPolicy, StageError, TickResolution,
    TryPerceptor, WithFallback,
};
use sensact_core::stage::{Controller, Monitor, Sensor, StageContext, Trust};
use sensact_lidar::corrupt::{Corruption, CorruptionKind};
use sensact_lidar::energy::EnergyModel;
use sensact_lidar::mask::{RadialMask, RadialMaskConfig};
use sensact_lidar::raycast::{Lidar, LidarConfig};
use sensact_lidar::scene::{Scene, SceneGenerator};
use sensact_lidar::voxel::{VoxelGrid, VoxelizerConfig};
use sensact_lidar::{Point, PointCloud};
use sensact_rmae::detect::Detector;
use sensact_rmae::model::{RmaeConfig, RmaeModel};
use sensact_rmae::pretrain::{Pretrainer, Strategy};
use sensact_starnet::features::{extract_features, FEATURE_DIM};
use sensact_starnet::monitor::{Starnet, StarnetConfig};
use std::time::{Duration, Instant};

/// The 10 Hz scan period: the workload's latency limit.
pub const SCAN_PERIOD_S: f64 = 0.1;
/// Every this many ticks the loop is snapshotted and serialized.
pub const SNAPSHOT_EVERY: u64 = 32;
/// Per-tick telemetry records the robot keeps (a bounded flight-recorder
/// ring), so snapshot size, and with it the tick tail, stops growing with
/// run length.
const TELEMETRY_TICKS: usize = 256;
/// Fog covers the last [`FOG_TICKS`] ticks of every [`FOG_PERIOD`].
pub const FOG_PERIOD: u64 = 96;
pub const FOG_TICKS: u64 = 16;
/// Scenes in the deployment sequence (the loop cycles through them).
const SEQ_SCENES: usize = 16;
/// R-MAE pretraining scenes and epochs.
const TRAIN_SCENES: usize = 8;
const TRAIN_EPOCHS: usize = 2;
/// Masked scans per training scene used to calibrate STARNet.
const CALIB_MASKS: u64 = 3;
/// Point-cloud flattening: x, y, z, range, beam, azimuth.
const POINT_WORDS: usize = 6;
/// Driving corridor half-width and the "nothing ahead" gap (m).
const CORRIDOR_M: f64 = 2.0;
const FAR_M: f64 = 48.0;
/// Charged virtual costs (the energy ledger is deterministic).
const SENSE_LATENCY_S: f64 = 5e-3;
const PERCEIVE_LATENCY_S: f64 = 1e-2;
const J_PER_MAC: f64 = 1e-12;

/// What the sensor sees on one tick.
pub struct Env<'a> {
    scene: &'a Scene,
    expected_range: f64,
    fog: bool,
    tick: u64,
}

/// Radially masked lidar: a fresh seeded mask per tick, fog applied to the
/// returns inside the fog window. Readings are flattened point clouds so the
/// fault injector can hold, poison and checkpoint them.
pub struct MaskedLidar {
    lidar: Lidar,
    mask: RadialMaskConfig,
    energy: EnergyModel,
    seed: u64,
}

impl<'a> Sensor<Env<'a>> for MaskedLidar {
    type Reading = Vec<f64>;
    fn sense(&mut self, env: &Env<'a>, ctx: &mut StageContext) -> Vec<f64> {
        let steps = self.lidar.config().azimuth_steps;
        let mut mask = RadialMask::sample(self.mask, steps, mix(self.seed, env.tick));
        let (cloud, fired) = ledger::child("lidar.scan", || {
            self.lidar
                .scan_masked(env.scene, |_, az| mask.fire(az, env.expected_range))
        });
        ledger::add("lidar.fired", fired as u64);
        ledger::add("lidar.pulses", self.lidar.config().pulses_per_scan() as u64);
        let cloud = if env.fog {
            ledger::child("env.fog", || {
                Corruption::new(CorruptionKind::Fog, 5).apply(&cloud, env.tick)
            })
        } else {
            cloud
        };
        let report = self
            .energy
            .adaptive_scan_energy(&cloud, fired, self.energy.min_pulse_energy);
        ctx.charge(report.total_energy_j, SENSE_LATENCY_S);
        ledger::child("bench.glue", || flatten(&cloud))
    }
}

impl StageState for MaskedLidar {}

fn flatten(cloud: &PointCloud) -> Vec<f64> {
    let mut v = Vec::with_capacity(cloud.len() * POINT_WORDS);
    for p in cloud {
        v.extend_from_slice(&[p.x, p.y, p.z, p.range, p.beam as f64, p.azimuth as f64]);
    }
    v
}

fn unflatten(v: &[f64]) -> PointCloud {
    PointCloud::from_points(
        v.chunks_exact(POINT_WORDS)
            .map(|w| Point {
                x: w[0],
                y: w[1],
                z: w[2],
                range: w[3],
                beam: w[4] as u16,
                azimuth: w[5] as u16,
            })
            .collect(),
    )
}

/// voxelize → R-MAE reconstruct → detect, plus the STARNet descriptor.
/// Features: the [`FEATURE_DIM`] descriptor, then the nearest detection's
/// gap ahead in the corridor, then the detection count.
pub struct RmaePerceptor {
    model: RmaeModel,
    detector: Detector,
    grid: VoxelizerConfig,
    macs: f64,
}

impl TryPerceptor<Vec<f64>> for RmaePerceptor {
    type Features = Vec<f64>;
    fn try_perceive(
        &mut self,
        reading: &Vec<f64>,
        ctx: &mut StageContext,
    ) -> Result<Vec<f64>, StageError> {
        // No input validation: like a real perception stage, a poisoned
        // reading runs the whole pipeline and the loop's finite check on
        // the features rejects it, so a poisoned attempt costs a full
        // perceive before the retry.
        let cloud = ledger::child("bench.glue", || unflatten(reading));
        let observed = ledger::child("voxel.voxelize", || {
            VoxelGrid::from_cloud(self.grid, &cloud)
        });
        let occupancy = observed.occupancy_flat();
        let mut probs = ledger::child("rmae.reconstruct", || self.model.reconstruct(&occupancy));
        for (p, o) in probs.iter_mut().zip(&occupancy) {
            *p = p.max(*o);
        }
        let recon = VoxelGrid::from_occupancy_flat(self.grid, &probs, 0.5);
        let detections =
            ledger::child("rmae.detect", || self.detector.detect(&recon, Some(&cloud)));
        let mut feats = ledger::child("starnet.features", || extract_features(&cloud));
        let gap = detections
            .iter()
            .filter(|d| d.aabb.center()[1].abs() < CORRIDOR_M && d.aabb.max[0] > 0.0)
            .map(|d| d.aabb.min[0].max(0.0))
            .fold(FAR_M, f64::min);
        feats.push(gap);
        feats.push(detections.len() as f64);
        ctx.charge(self.macs * J_PER_MAC, PERCEIVE_LATENCY_S);
        Ok(feats)
    }
}

// Inference never changes the weights: nothing to checkpoint.
impl StageState for RmaePerceptor {}

/// STARNet over the descriptor part of the features.
pub struct StarnetMonitor {
    starnet: Starnet,
    evals: f64,
}

impl Monitor<Vec<f64>> for StarnetMonitor {
    fn assess(&mut self, features: &Vec<f64>, ctx: &mut StageContext) -> Trust {
        // The same cost model as STARNet's own `Monitor` impl.
        ctx.charge(self.evals * 2e-6, self.evals * 2e-5);
        let trust = ledger::child("starnet.score", || {
            self.starnet.assess_features(&features[..FEATURE_DIM])
        });
        ledger::add("starnet.assessed", 1);
        if trust != Trust::Trusted {
            ledger::add("starnet.suspect", 1);
        }
        trust
    }
}

impl StageState for StarnetMonitor {
    fn save_state(&self, ckpt: &mut Checkpoint, ns: &str) {
        self.starnet.save_state(ckpt, ns);
    }
    fn restore_state(&mut self, ckpt: &Checkpoint, ns: &str) -> Result<(), CheckpointError> {
        self.starnet.restore_state(ckpt, ns)
    }
}

/// Speed command from the gap ahead, scaled down by suspicion; stop when
/// the verdict is not actionable.
pub struct Cruise;

impl Controller<Vec<f64>> for Cruise {
    type Action = f64;
    fn decide(&mut self, features: &Vec<f64>, trust: Trust, ctx: &mut StageContext) -> f64 {
        ctx.charge(1e-6, 1e-4);
        if !trust.is_actionable() {
            return 0.0;
        }
        let gap = features[FEATURE_DIM];
        ((gap - 6.0) * 0.5).clamp(0.0, 12.0) * (1.0 - trust.suspicion())
    }
}

impl StageState for Cruise {}

type EdgeLoop = FallibleLoop<
    FaultInjector<MaskedLidar, Vec<f64>>,
    RmaePerceptor,
    StarnetMonitor,
    WithFallback<Cruise, f64>,
    NoAdaptation,
    Vec<f64>,
>;

/// A set-up robot: trained loop plus its scene sequence.
pub struct Edge {
    looop: EdgeLoop,
    scenes: Vec<Scene>,
    ranges: Vec<f64>,
}

/// Build the robot from `seed`: pretrain R-MAE, calibrate STARNet on clean
/// masked scans, pre-scan the deployment scenes' expected ranges.
pub fn setup(seed: u64) -> Edge {
    let lidar = Lidar::new(LidarConfig::default());
    let config = RmaeConfig::full();
    let train = SceneGenerator::new(mix(seed, 1)).generate_many(TRAIN_SCENES);
    let mut trainer = Pretrainer::new(
        RmaeModel::new(config, mix(seed, 2)),
        Strategy::RadialMae,
        mix(seed, 3),
    );
    trainer.train(&train, TRAIN_EPOCHS);
    let model = trainer.into_model();
    let macs = model.stats().macs as f64;

    let mask = RadialMaskConfig::default();
    let steps = lidar.config().azimuth_steps;
    let mut clean = Vec::new();
    for (k, scene) in train.iter().enumerate() {
        let range = lidar.scan(scene).mean_range();
        for m in 0..CALIB_MASKS {
            let mut rm = RadialMask::sample(mask, steps, mix(seed, 100 + k as u64 * 8 + m));
            let (cloud, _) = lidar.scan_masked(scene, |_, az| rm.fire(az, range));
            clean.push(extract_features(&cloud));
        }
    }
    let starnet_cfg = StarnetConfig::default();
    let evals = (starnet_cfg.regret.spsa.iterations * 2 + 1) as f64;
    let starnet = Starnet::train(&clean, starnet_cfg, mix(seed, 5));

    let scenes = SceneGenerator::new(mix(seed, 4)).generate_many(SEQ_SCENES);
    let ranges = scenes.iter().map(|s| lidar.scan(s).mean_range()).collect();

    let sensor = FaultInjector::new(
        MaskedLidar {
            lidar,
            mask,
            energy: EnergyModel::default(),
            seed: mix(seed, 6),
        },
        FaultProfile {
            dropout: 0.04,
            stuck: 0.0,
            latency_spike: 0.02,
            spike_latency_s: 0.05,
            nan: 0.03,
        },
        mix(seed, 7),
    );
    let perceptor = RmaePerceptor {
        model,
        detector: Detector::pvrcnn_like(),
        grid: config.grid,
        macs,
    };
    let looop = FallibleLoop::new(
        "edge-lidar",
        sensor,
        perceptor,
        StarnetMonitor { starnet, evals },
        WithFallback::new(Cruise, 0.0),
    )
    .with_recovery(RecoveryPolicy {
        latency_budget_s: Some(0.04),
        ..RecoveryPolicy::default()
    })
    .with_telemetry_capacity(TELEMETRY_TICKS);
    Edge {
        looop,
        scenes,
        ranges,
    }
}

/// Latency window: the whole run (a few thousand ticks), so the p99 rests
/// on dozens of samples beyond it.
const WINDOW: usize = usize::MAX;
/// A timed run probes host speed every this many ticks.
const PROBE_EVERY: u64 = 32;

/// What one pass of back-to-back ticks produced.
#[derive(Debug)]
pub struct EdgeRun {
    pub ticks: u64,
    pub wall_s: f64,
    pub lat: Windows,
    pub lat_sum_us: f64,
    pub acct: Accounting,
    pub energy_j: f64,
    pub hash: u64,
    pub retries: u64,
    pub fallbacks: u64,
    pub snapshots: u64,
    pub ckpt_bytes: u64,
    pub probe: Probe,
}

impl EdgeRun {
    pub fn new() -> EdgeRun {
        EdgeRun {
            ticks: 0,
            wall_s: 0.0,
            lat: Windows::new(WINDOW),
            lat_sum_us: 0.0,
            acct: Accounting::default(),
            energy_j: 0.0,
            hash: 0,
            retries: 0,
            fallbacks: 0,
            snapshots: 0,
            ckpt_bytes: 0,
            probe: Probe::default(),
        }
    }
}

impl Edge {
    /// Tick `t` (snapshotting on every [`SNAPSHOT_EVERY`]th), timed from
    /// sensor read to actuator command, folded into `out`.
    pub fn tick(&mut self, t: u64, out: &mut EdgeRun) {
        let k = t as usize % self.scenes.len();
        let env = Env {
            scene: &self.scenes[k],
            expected_range: self.ranges[k],
            fog: t % FOG_PERIOD >= FOG_PERIOD - FOG_TICKS,
            tick: t,
        };
        let looop = &mut self.looop;
        let start = Instant::now();
        let tick = ledger::span("edge.tick", t, || {
            let tick = ledger::child("loop.tick", || looop.tick(&env));
            if t % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1 {
                let bytes =
                    ledger::child("checkpoint.snapshot", || looop.snapshot().to_jsonl().len());
                out.snapshots += 1;
                out.ckpt_bytes += bytes as u64;
            }
            tick
        });
        let lat = start.elapsed().as_secs_f64();
        out.ticks += 1;
        out.acct.attempted += 1;
        out.acct.served(lat, SCAN_PERIOD_S);
        out.lat.push(lat * 1e6);
        out.lat_sum_us += lat * 1e6;
        out.energy_j += tick.energy_j;
        out.retries += tick.retries as u64;
        fold(&mut out.hash, tick.action.to_bits());
        fold(&mut out.hash, tick.trust.suspicion().to_bits());
        fold(
            &mut out.hash,
            match tick.resolution {
                TickResolution::Fresh => 0,
                TickResolution::Held { staleness } => staleness as u64,
                TickResolution::Fallback => {
                    out.fallbacks += 1;
                    u64::MAX
                }
            },
        );
    }
}

/// Back-to-back ticks until `secs` have passed (probing host speed along
/// the way, off the clock), or exactly `ticks` untimed ticks.
pub fn run(edge: &mut Edge, secs: f64, ticks: Option<u64>) -> EdgeRun {
    let mut out = EdgeRun::new();
    let t0 = Instant::now();
    let mut probing = Duration::ZERO;
    loop {
        match ticks {
            Some(n) if out.ticks >= n => break,
            None if (t0.elapsed() - probing).as_secs_f64() >= secs => break,
            None if out.ticks.is_multiple_of(PROBE_EVERY) => {
                let d = out.probe.run();
                out.lat.exclude(d);
                probing += d;
            }
            _ => {}
        }
        edge.tick(out.ticks, &mut out);
    }
    out.wall_s = (t0.elapsed() - probing).as_secs_f64();
    out.lat.finish();
    out
}

pub fn end_to_end(r: &mut Report, seed: u64, secs: f64) {
    let (mut edge, setup_s) = timed_setup(|| setup(seed));
    let mut run = run(&mut edge, secs, None);
    drop(edge);
    let reference = self::run(&mut setup(seed), 0.0, Some(run.ticks));
    r.check(
        "edge-lidar: action/trust stream hash equals an untimed reference run",
        reference.hash == run.hash,
    );
    r.acct = run.acct;
    let energy = run.energy_j * 1e6 / run.ticks.max(1) as f64;
    let lat = run.lat.summary();
    let slowdown = run.probe.slowdown();
    r.end_to_end(lat.rate, lat, energy, setup_s, slowdown);
    r.note(format!(
        "edge-lidar: {} ticks in {:.3} s, {} snapshots",
        run.ticks, run.wall_s, run.snapshots
    ));
}

/// The traced pass: an untraced and a traced robot, built alike, tick in
/// lockstep so host speed drifts hit both alike; Σ span self time per tick
/// must land within [`RECONCILE_TOL`] of the untraced tick time.
pub fn trace(r: &mut Report, seed: u64, secs: f64) {
    let mut plain = setup(seed);
    let mut spanned = setup(seed);
    let (mut untraced, mut traced) = (EdgeRun::new(), EdgeRun::new());
    ledger::start();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs {
        let t = untraced.ticks;
        ledger::suspended(|| plain.tick(t, &mut untraced));
        spanned.tick(t, &mut traced);
    }
    let l = ledger::finish();
    untraced.lat.finish();
    traced.lat.finish();
    r.check(
        "edge-lidar: traced outputs equal untraced outputs",
        traced.hash == untraced.hash,
    );
    r.acct.add(&untraced.acct);
    let ticks = traced.ticks.max(1) as f64;
    let us = |name: &str| l.agg(name).mean_ns() / 1e3;
    r.metric("lidar.scan_us", "us", us("lidar.scan"));
    r.metric(
        "lidar.fired_ratio",
        "ratio",
        l.count("lidar.fired") as f64 / l.count("lidar.pulses").max(1) as f64,
    );
    r.metric("voxel.voxelize_us", "us", us("voxel.voxelize"));
    r.metric("rmae.reconstruct_us", "us", us("rmae.reconstruct"));
    r.metric("rmae.detect_us", "us", us("rmae.detect"));
    r.metric("starnet.features_us", "us", us("starnet.features"));
    r.metric("starnet.score_us", "us", us("starnet.score"));
    r.metric(
        "starnet.suspect_ratio",
        "ratio",
        l.count("starnet.suspect") as f64 / l.count("starnet.assessed").max(1) as f64,
    );
    r.metric(
        "loop.runner_us",
        "us",
        l.agg("loop.tick").self_ns as f64 / ticks / 1e3,
    );
    r.metric("fault.retry_ratio", "ratio", traced.retries as f64 / ticks);
    r.metric(
        "fault.fallback_ratio",
        "ratio",
        traced.fallbacks as f64 / ticks,
    );
    r.metric("checkpoint.snapshot_us", "us", us("checkpoint.snapshot"));
    r.metric(
        "checkpoint.bytes",
        "B",
        traced.ckpt_bytes as f64 / traced.snapshots.max(1) as f64,
    );
    let self_per_tick = l.self_total_ns() as f64 / ticks / 1e3;
    let untraced_per_tick = untraced.lat_sum_us / ticks;
    let residual = untraced_per_tick - self_per_tick;
    r.metric("ledger.lidar.residual_us", "us", residual);
    r.metric(
        "ledger.lidar.overhead_us",
        "us",
        traced.lat_sum_us / ticks - untraced_per_tick,
    );
    r.check(
        format!(
            "edge-lidar: Σ layer self time {self_per_tick:.0} us/tick within {:.0}% of untraced {untraced_per_tick:.0} us/tick",
            RECONCILE_TOL * 100.0
        ),
        residual.abs() <= RECONCILE_TOL * untraced_per_tick,
    );
    let per_tick = |name: &str| l.agg(name).self_ns as f64 / ticks / 1e3;
    r.note(format!(
        "edge-lidar: {} ticks per robot; tick p50 untraced {:.0} us, traced {:.0} us",
        untraced.ticks,
        untraced.lat.summary().p50,
        traced.lat.summary().p50
    ));
    r.note(format!(
        "edge-lidar self us/tick: scan {:.0}, fog {:.0}, glue {:.0}, voxelize {:.0}, reconstruct {:.0}, detect {:.0}, features {:.0}, score {:.0}, runner {:.0}, snapshot {:.0}, tick root {:.0}",
        per_tick("lidar.scan"),
        per_tick("env.fog"),
        per_tick("bench.glue"),
        per_tick("voxel.voxelize"),
        per_tick("rmae.reconstruct"),
        per_tick("rmae.detect"),
        per_tick("starnet.features"),
        per_tick("starnet.score"),
        per_tick("loop.tick"),
        per_tick("checkpoint.snapshot"),
        per_tick("edge.tick"),
    ));
    r.keep_ledger("edge-lidar", l);
}
