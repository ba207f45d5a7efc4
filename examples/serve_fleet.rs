//! The serving front-end (ISSUE 10): fleets as a service. Clients lease
//! sensing-to-action loops out of a `FleetScheduler`-backed pool, stream
//! observations over the wire protocol, and get actions back — with
//! cross-loop batched inference, admission control, load shedding, and
//! checkpoint-based crash recovery. Everything below runs on the
//! deterministic in-process loopback under virtual time, so every number
//! printed is bit-for-bit reproducible.
//!
//! Run: `cargo run --release --example serve_fleet`

use sensact::core::checkpoint::Checkpoint;
use sensact::serve::wire::Frame;
use sensact::serve::{Loopback, ModelKind, PoolConfig, ServeConfig};

/// Deterministic observation payload for (lease, round).
fn obs(len: usize, lease: u64, round: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let x = (i as u64) * 31 + lease * 7 + round * 13;
            (x % 23) as f64 / 11.0 - 1.0
        })
        .collect()
}

fn main() {
    // A batched server: observations admitted during one ingress drain are
    // executed together at the flush, where leases sharing a perceptor
    // run as one batched conv call.
    let mut lb = Loopback::new(ServeConfig {
        pool: PoolConfig {
            workers: 16,
            ..PoolConfig::default()
        },
        batched: true,
    });

    // Lease a mixed fleet: 4 lidar-conv loops (shared Conv3d perceptor,
    // batchable) and 2 cartpole loops (identity perception).
    let kinds = [
        ModelKind::LidarConv,
        ModelKind::LidarConv,
        ModelKind::LidarConv,
        ModelKind::LidarConv,
        ModelKind::Cartpole,
        ModelKind::Cartpole,
    ];
    let mut fleet = Vec::new();
    for (slot, kind) in kinds.iter().enumerate() {
        let conn = lb.connect();
        let (lease, obs_len, act_len) = lb
            .request_lease(conn, kind.wire(), slot as u64, 0.0)
            .expect("pool sized for the whole fleet");
        println!(
            "leased {:<10} lease={lease}  obs_len={obs_len:<3}  act_len={act_len}",
            kind.name()
        );
        fleet.push((conn, lease, obs_len));
    }
    println!("pool utilization: {:.1} %", {
        let m = lb.engine();
        100.0 * m.pool().utilization()
    });

    // Drive 20 rounds of one observation per lease. Each round: send all,
    // flush once (the batching window), pick up the routed replies.
    let period = ModelKind::LidarConv.spec().period_s;
    let mut served = 0u64;
    let mut last_energy = 0.0f64;
    for round in 0..20u64 {
        let now = period * (round + 1) as f64;
        for &(conn, lease, obs_len) in &fleet {
            lb.send_frame(
                conn,
                &Frame::Obs {
                    lease,
                    seq: round,
                    values: obs(obs_len, lease, round),
                },
                now,
            );
        }
        lb.flush(now);
        for &(conn, ..) in &fleet {
            for frame in lb.take_frames(conn) {
                if let Frame::Act { energy_j, .. } = frame {
                    served += 1;
                    last_energy = energy_j;
                }
            }
        }
    }
    println!("\nserved {served} observations over 20 rounds");
    println!("last tick energy: {last_energy:.9} J");
    let metrics = lb.engine().metrics();
    if let Some(occ) = metrics.histogram("serve.batch.occupancy") {
        println!(
            "batched groups: {} (occupancy mean {:.1}, max {:.0})",
            occ.count(),
            occ.mean(),
            occ.max()
        );
    }

    // The observability plane scrapes the same engine over HTTP/1.1 on the
    // very same connections (first byte disambiguates the protocol).
    let scrape = lb.connect();
    lb.send_bytes(scrape, b"GET /metrics HTTP/1.1\r\nHost: edge\r\n\r\n", 0.1);
    let text = String::from_utf8(lb.take_http(scrape)).unwrap();
    let served_line = text
        .lines()
        .find(|l| l.starts_with("serve_obs_served"))
        .unwrap_or("serve_obs_served <missing>");
    println!("GET /metrics → {served_line}");

    // Crash recovery: snapshot one lidar lease between rounds, "crash" the
    // server, restore the checkpoint (via its JSONL wire form) onto a
    // fresh server with the same seed, and keep serving. The controller
    // state, telemetry ledger, and scheduler accounting all resume
    // bit-exactly — the replay differ in `tests/serve_integration.rs`
    // proves zero divergence.
    let (_, victim_lease, obs_len) = fleet[0];
    let wire_ckpt = lb
        .engine()
        .pool()
        .snapshot_lease(victim_lease)
        .unwrap()
        .to_jsonl();
    println!(
        "\nsnapshot of lease {victim_lease}: {} bytes of JSONL",
        wire_ckpt.len()
    );
    drop(lb); // the crash

    let mut recovered = Loopback::new(ServeConfig {
        pool: PoolConfig {
            workers: 16,
            ..PoolConfig::default()
        },
        batched: true,
    });
    let conn = recovered.connect();
    let now = period * 21.0;
    let ckpt = Checkpoint::from_jsonl(&wire_ckpt).unwrap();
    let adopted = recovered.restore_lease(conn, &ckpt, now).unwrap();
    recovered.send_frame(
        conn,
        &Frame::Obs {
            lease: adopted,
            seq: 20,
            values: obs(obs_len, adopted, 20),
        },
        now,
    );
    recovered.flush(now);
    for frame in recovered.take_frames(conn) {
        if let Frame::Act {
            energy_j, values, ..
        } = frame
        {
            println!(
                "restored lease {adopted} keeps serving: act[0]={:.6}, energy {energy_j:.9} J",
                values[0]
            );
        }
    }
}
