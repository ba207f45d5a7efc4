//! Kernel shape table: every GEMM/conv shape the workloads execute, timed
//! through the public layer functions at the shape the pipeline runs it,
//! with its multiply-accumulate count and computed bytes moved, plus the
//! 256³ GEMM as a context row.
//!
//! Bytes are computed, not measured: 8 bytes per f64 of input, weights,
//! lowered im2col/col2im panel and output, each counted once.

use crate::stats::{median, mix};
use crate::Report;
use sensact_math::rng::StdRng;
use sensact_math::{kernels, simd};
use sensact_nn::conv::{Conv3d, Deconv3d, Dims3};
use sensact_nn::layers::{Dense, Layer};
use sensact_nn::{Initializer, Tensor};
use sensact_rmae::model::RmaeConfig;
use sensact_serve::{ModelKind, SharedPerceptor};
use sensact_starnet::features::FEATURE_DIM;
use sensact_starnet::monitor::StarnetConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-time budget per shape.
const BUDGET: Duration = Duration::from_millis(150);

/// Median ns per call of `f`, timed in groups of calls long enough to
/// swamp the clock read.
fn time_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let t = Instant::now();
    f();
    let one = t.elapsed().as_nanos().max(1) as u64;
    let reps = (50_000 / one).clamp(1, 10_000);
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 9 || (start.elapsed() < BUDGET && per_call.len() < 1000) {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    median(&mut per_call)
}

fn report(r: &mut Report, shape: &str, ns: f64, macs: u64, bytes: u64) {
    r.metric(format!("kernels.{shape}.ns"), "ns", ns);
    r.metric(
        format!("kernels.{shape}.gmac_per_s"),
        "GMAC/s",
        macs as f64 / ns,
    );
    r.metric(format!("kernels.{shape}.bytes"), "B", bytes as f64);
    r.note(format!(
        "kernel {shape:<17} {ns:>12.0} ns {macs:>10} MAC {:>7.3} GMAC/s {bytes:>9} B",
        macs as f64 / ns
    ));
}

fn conv_bytes(
    cin: usize,
    cout: usize,
    k: usize,
    in_vol: usize,
    out_vol: usize,
    batch: usize,
) -> u64 {
    let k3 = k * k * k;
    let per_item = cin * in_vol + k3 * cin * out_vol + cout * out_vol;
    (8 * (batch * per_item + cout * cin * k3 + cout)) as u64
}

fn deconv_bytes(cin: usize, cout: usize, k: usize, in_vol: usize, out_vol: usize) -> u64 {
    let k3 = k * k * k;
    (8 * (cin * in_vol + k3 * cout * in_vol + cout * out_vol + cout * cin * k3 + cout)) as u64
}

fn random(len: usize, rng: &mut StdRng, density: f64) -> Vec<f64> {
    (0..len)
        .map(|_| if rng.gen_f64() < density { 1.0 } else { 0.0 })
        .collect()
}

/// Time every shape; `occupancy` is the stacked batch the serve-loopback
/// traced pass observed.
pub fn table(r: &mut Report, seed: u64, occupancy: usize) {
    r.note(format!("kernels: isa {}", simd::isa_name()));
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xCE41));

    // Served lidar conv: 1→4 channels, k3 s2 over 8³, through the shared
    // perceptor the serving layer calls. The twin Conv3d supplies the MAC
    // count of the same shape.
    let kind = ModelKind::LidarConv;
    let mut perceptor = SharedPerceptor::new(kind, seed);
    let twin = Conv3d::new(
        1,
        4,
        3,
        2,
        1,
        Dims3::new(8, 8, 8),
        &mut Initializer::new(seed),
    );
    let (in_vol, out_vol) = (512, twin.out_dims().volume());
    let rows: Vec<Vec<f64>> = (0..occupancy.max(1))
        .map(|_| random(kind.spec().obs_len, &mut rng, 0.2))
        .collect();
    let mut feats: Vec<Vec<f64>> = vec![vec![0.0; kind.feat_len()]; rows.len()];
    let ns = time_ns(|| perceptor.forward_one(black_box(&rows[0]), &mut feats[0]));
    report(
        r,
        "serve_conv_row",
        ns,
        twin.macs(1),
        conv_bytes(1, 4, 3, in_vol, out_vol, 1),
    );
    let refs: Vec<&[f64]> = rows.iter().map(|v| v.as_slice()).collect();
    let ns = time_ns(|| {
        let mut outs: Vec<&mut [f64]> = feats.iter_mut().map(|v| v.as_mut_slice()).collect();
        perceptor.forward_many_into(black_box(&refs), &mut outs)
    });
    report(
        r,
        "serve_conv_batch",
        ns,
        twin.macs(rows.len()),
        conv_bytes(1, 4, 3, in_vol, out_vol, rows.len()),
    );

    // R-MAE encoder/decoder, built like `RmaeModel::new` at the full grid.
    let cfg = RmaeConfig::full();
    let dims = cfg.dims3();
    let (c1, c2) = cfg.channels;
    let mut init = Initializer::new(mix(seed, 2));
    let mut conv1 = Conv3d::new(1, c1, 3, 2, 1, dims, &mut init);
    let mid = conv1.out_dims();
    let mut conv2 = Conv3d::new(c1, c2, 3, 1, 1, mid, &mut init);
    let mut deconv1 = Deconv3d::new(c2, c1, 3, 1, 1, mid, &mut init);
    let mut deconv2 = Deconv3d::new(c1, 1, 4, 2, 1, mid, &mut init);
    let (vol, mvol) = (dims.volume(), mid.volume());
    let x = Tensor::from_vec(vec![1, vol], random(vol, &mut rng, 0.1));
    let h1 = conv1.forward(&x, false);
    let h2 = conv2.forward(&h1, false);
    let h3 = deconv1.forward(&h2, false);
    let layers: [(&str, &mut dyn Layer, &Tensor, u64); 4] = [
        (
            "rmae_conv1",
            &mut conv1,
            &x,
            conv_bytes(1, c1, 3, vol, mvol, 1),
        ),
        (
            "rmae_conv2",
            &mut conv2,
            &h1,
            conv_bytes(c1, c2, 3, mvol, mvol, 1),
        ),
        (
            "rmae_deconv1",
            &mut deconv1,
            &h2,
            deconv_bytes(c2, c1, 3, mvol, mvol),
        ),
        (
            "rmae_deconv2",
            &mut deconv2,
            &h3,
            deconv_bytes(c1, 1, 4, mvol, vol),
        ),
    ];
    for (name, layer, input, bytes) in layers {
        let macs = layer.macs(1);
        let ns = time_ns(|| {
            black_box(layer.forward(black_box(input), false));
        });
        report(r, name, ns, macs, bytes);
    }

    // STARNet VAE: one deterministic pass through its five dense layers.
    let sc = StarnetConfig::default();
    let (h, z) = (sc.hidden_dim, sc.latent_dim);
    let mut init = Initializer::new(mix(seed, 5));
    let dense = [
        Dense::new(FEATURE_DIM, h, &mut init),
        Dense::new(h, z, &mut init),
        Dense::new(h, z, &mut init),
        Dense::new(z, h, &mut init),
        Dense::new(h, FEATURE_DIM, &mut init),
    ];
    let macs: u64 = dense.iter().map(|d| d.macs(1)).sum();
    let bytes: u64 = dense
        .iter()
        .map(|d| 8 * (d.in_dim() + d.in_dim() * d.out_dim() + 2 * d.out_dim()) as u64)
        .sum();
    let f = Tensor::from_vec(vec![1, FEATURE_DIM], random(FEATURE_DIM, &mut rng, 0.5));
    let ns = time_ns(|| {
        let hid = dense[0].apply(black_box(&f));
        black_box(dense[1].apply(&hid));
        let lat = dense[2].apply(&hid);
        let up = dense[3].apply(&lat);
        black_box(dense[4].apply(&up));
    });
    report(r, "starnet_vae", ns, macs, bytes);

    // Context row: the 256³ GEMM through the dispatching front door.
    let n = 256;
    let a: Vec<f64> = (0..n * n).map(|_| rng.gen_f64() - 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.gen_f64() - 0.5).collect();
    let mut c = vec![0.0; n * n];
    let ns = time_ns(|| kernels::gemm(n, n, n, 1.0, black_box(&a), &b, 0.0, &mut c));
    report(
        r,
        "gemm_256",
        ns,
        (n * n * n) as u64,
        (8 * 3 * n * n) as u64,
    );
}
