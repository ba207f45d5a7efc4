//! The `serve-tcp` workload: an open loop against a real [`ServeServer`]
//! with one worker thread on 127.0.0.1.
//!
//! One generator thread holds two connections. The data connection carries
//! the 64-lease mix on a seeded, jittered per-lease schedule at a fixed
//! aggregate rate, plus lease churn: every [`CHURN_EVERY_S`] one seeded
//! lease is released and re-granted under a fresh seed once its in-flight
//! observations are answered (a well-behaved client never releases a lease
//! with replies pending). The second connection scrapes `/metrics` every
//! [`SCRAPE_EVERY_S`]. Latency is timed from each observation's due time,
//! and the generator's own lateness is reported and bounded.

use crate::serve::{bits_eq, stamp, Traffic, LEASES, LIDAR_PERIOD_S};
use crate::stats::{mix, percentile, Accounting, Summary, Windows};
use crate::{timed_setup_result, Report};
use sensact_math::rng::StdRng;
use sensact_serve::wire::{self, Frame};
use sensact_serve::{Loopback, ServeServer};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Offered aggregate rate (observations/s): about half the rate at which
/// the single-worker server starts shedding on a 2-core host.
pub const RATE: f64 = 20_000.0;
pub const SCRAPE_EVERY_S: f64 = 0.1;
pub const CHURN_EVERY_S: f64 = 0.25;
/// The generator sleeps only when its next send is further away than
/// this, and otherwise yields: a sleeping vCPU on a small shared host can
/// take 1–5 ms to wake, which would make the generator, not the server,
/// set the latency. Yielding holds one core and leaves the other to the
/// server's single worker.
const SLEEP_ABOVE: Duration = Duration::from_millis(2);
/// Latency window: one second of traffic.
const WINDOW: usize = 20_000;
/// How long to wait for outstanding replies after the schedule ends.
const DRAIN_S: f64 = 2.0;
/// A run whose generator sent its observations later than this at p99 is
/// invalid: the latency it reports would be the generator's, not the
/// server's.
pub const MAX_LATENESS_P99_S: f64 = 1e-3;
const SCRAPE_REQUEST: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n";

/// A running server with both connections open and the 64 leases granted.
pub struct TcpRig {
    server: ServeServer,
    data: TcpStream,
    scrape: TcpStream,
    ids: Vec<u64>,
}

impl TcpRig {
    pub fn new(t: &Traffic) -> Result<TcpRig, String> {
        let server = ServeServer::start("127.0.0.1:0", t.serve_config(true), 1)
            .map_err(|e| format!("binding 127.0.0.1 failed: {e}"))?;
        let addr = server.local_addr();
        let connect = || -> std::io::Result<TcpStream> {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        };
        let mut data = connect().map_err(|e| format!("connecting to {addr}: {e}"))?;
        let scrape = connect().map_err(|e| format!("connecting to {addr}: {e}"))?;
        let mut req = Vec::new();
        for i in 0..LEASES {
            wire::encode(
                &Frame::LeaseReq {
                    model: t.kinds[i].wire(),
                    seed: t.lease_seeds[i],
                },
                &mut req,
            );
        }
        let io = |e: std::io::Error| format!("lease handshake: {e}");
        data.set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(io)?;
        data.write_all(&req).map_err(io)?;
        let mut ids = Vec::with_capacity(LEASES);
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        while ids.len() < LEASES {
            let n = data.read(&mut chunk).map_err(io)?;
            if n == 0 {
                return Err("server closed during the lease handshake".into());
            }
            buf.extend_from_slice(&chunk[..n]);
            while let Some((frame, used)) = wire::decode(&buf).map_err(|e| e.to_string())? {
                buf.drain(..used);
                match frame {
                    Frame::LeaseGrant { lease, .. } => ids.push(lease),
                    other => return Err(format!("lease handshake got {other:?}")),
                }
            }
        }
        data.set_nonblocking(true).map_err(io)?;
        scrape.set_nonblocking(true).map_err(io)?;
        Ok(TcpRig {
            server,
            data,
            scrape,
            ids,
        })
    }
}

/// One scheduled observation.
#[derive(Debug, Clone, Copy)]
struct Obs {
    due_ns: u64,
    slot: usize,
    payload: usize,
    /// Lease incarnation it was sent under.
    inc: usize,
}

/// One grant of a lease slot: the first 64, then one per churn.
#[derive(Debug, Clone)]
struct Incarnation {
    slot: usize,
    seed: u64,
    lease: u64,
    /// Observations it served, in service order.
    served: Vec<usize>,
}

/// What the generator sent, in order; `Wake` closes one generator
/// wake-up (the traced replay flushes there).
#[derive(Debug, Clone, Copy)]
enum Event {
    Obs(usize),
    Release(usize),
    Grant(usize),
    Wake,
}

struct Slot {
    lease: Option<u64>,
    inc: usize,
    in_flight: u32,
    churn_due: bool,
    churn_sent_ns: u64,
    deferred: Vec<usize>,
}

/// Everything one open-loop run produced.
#[derive(Debug, Default)]
pub struct TcpRun {
    wall_s: f64,
    acct: Accounting,
    lat: Summary,
    lateness_us: Vec<f64>,
    churn_us: Vec<f64>,
    scrape_us: Vec<f64>,
    scrapes_bad: u64,
    energy_j: f64,
    obs: Vec<Obs>,
    incs: Vec<Incarnation>,
    events: Vec<Event>,
    /// Per observation: the served action values and charged energy.
    acts: Vec<Option<(Vec<f64>, f64)>>,
}

/// The seeded schedule: per-lease periodic at [`RATE`]` / 64` with ±¼-period
/// jitter and a random phase, merged and sorted by due time.
fn schedule(t: &Traffic, seed: u64, secs: f64) -> Vec<Obs> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5C4E));
    let period = LEASES as f64 / RATE;
    let mut obs = Vec::new();
    for slot in 0..LEASES {
        let phase = rng.gen_f64() * period;
        let mut k = 0u64;
        loop {
            let due = phase + k as f64 * period + (rng.gen_f64() - 0.5) * period / 2.0;
            if due >= secs {
                break;
            }
            obs.push(Obs {
                due_ns: (due.max(0.0) * 1e9) as u64,
                slot,
                payload: t.pick(slot, k),
                inc: 0,
            });
            k += 1;
        }
    }
    obs.sort_by_key(|o| (o.due_ns, o.slot));
    obs
}

fn write_some(s: &mut TcpStream, buf: &mut Vec<u8>) -> Result<bool, String> {
    let mut wrote = false;
    while !buf.is_empty() {
        match s.write(buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                buf.drain(..n);
                wrote = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(wrote)
}

fn read_some(s: &mut TcpStream, buf: &mut Vec<u8>, chunk: &mut [u8]) -> Result<bool, String> {
    let mut got = false;
    loop {
        match s.read(chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                got = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(got),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

/// A complete HTTP response at the front of `buf`: (length, body).
fn http_response(buf: &[u8]) -> Option<(usize, &[u8])> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))?
        .trim()
        .parse()
        .ok()?;
    (buf.len() >= head_end + len).then(|| (head_end + len, &buf[head_end..head_end + len]))
}

/// Encode observation `seq` on `slot`'s current lease into `wbuf`,
/// recording the send and the generator's lateness.
fn send_obs(
    seq: usize,
    slot: &mut Slot,
    obs: &mut [Obs],
    frames: &mut [Vec<Frame>],
    wbuf: &mut Vec<u8>,
    out: &mut TcpRun,
    now: u64,
) {
    let o = &mut obs[seq];
    o.inc = slot.inc;
    let lease = slot.lease.expect("sent only on a granted lease");
    wire::encode(
        stamp(&mut frames[o.slot][o.payload], lease, seq as u64),
        wbuf,
    );
    slot.in_flight += 1;
    out.events.push(Event::Obs(seq));
    out.lateness_us
        .push(now.saturating_sub(o.due_ns) as f64 / 1e3);
}

/// Drive the open loop for `secs` of schedule, then drain.
fn run(t: &Traffic, rig: &mut TcpRig, seed: u64, secs: f64) -> Result<TcpRun, String> {
    let mut obs = schedule(t, seed, secs);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xC4C4));
    let churns: Vec<(u64, usize)> = (1..)
        .map(|j| j as f64 * CHURN_EVERY_S)
        .take_while(|&c| c < secs)
        .map(|c| ((c * 1e9) as u64, rng.gen_range(0..LEASES)))
        .collect();
    let mut out = TcpRun {
        incs: (0..LEASES)
            .map(|slot| Incarnation {
                slot,
                seed: t.lease_seeds[slot],
                lease: rig.ids[slot],
                served: Vec::new(),
            })
            .collect(),
        acts: vec![None; obs.len()],
        ..TcpRun::default()
    };
    let mut slots: Vec<Slot> = (0..LEASES)
        .map(|slot| Slot {
            lease: Some(rig.ids[slot]),
            inc: slot,
            in_flight: 0,
            churn_due: false,
            churn_sent_ns: 0,
            deferred: Vec::new(),
        })
        .collect();
    let mut frames = t.obs_frames();
    let mut awaiting_grant: VecDeque<usize> = VecDeque::new();
    let (mut wbuf, mut rbuf, mut sbuf) = (Vec::new(), Vec::new(), Vec::new());
    let mut chunk = vec![0u8; 64 << 10];
    let mut draining = 0usize;
    let (mut next, mut next_churn) = (0usize, 0usize);
    let mut next_scrape_ns = 0u64;
    let mut scrape_sent: Option<u64> = None;
    let mut answered = 0usize;
    let horizon_ns = (secs * 1e9) as u64;
    let deadline_ns = ((secs + DRAIN_S) * 1e9) as u64;
    let mut lat_windows = Windows::new(WINDOW);
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;

    loop {
        let mut busy = false;
        let now = now_ns();
        // Churn: mark the slot; release once its replies are in.
        while next_churn < churns.len() && churns[next_churn].0 <= now {
            let slot = &mut slots[churns[next_churn].1];
            if !slot.churn_due {
                slot.churn_due = true;
                draining += 1;
            }
            next_churn += 1;
        }
        let churning = draining > 0;
        for (i, slot) in slots.iter_mut().enumerate().filter(|_| churning) {
            if slot.churn_due && slot.in_flight == 0 {
                if let Some(lease) = slot.lease.take() {
                    slot.churn_due = false;
                    draining -= 1;
                    slot.churn_sent_ns = now;
                    let seed = mix(t.lease_seeds[i], out.incs.len() as u64);
                    wire::encode(&Frame::Release { lease }, &mut wbuf);
                    wire::encode(
                        &Frame::LeaseReq {
                            model: t.kinds[i].wire(),
                            seed,
                        },
                        &mut wbuf,
                    );
                    out.incs.push(Incarnation {
                        slot: i,
                        seed,
                        lease: 0,
                        served: Vec::new(),
                    });
                    slot.inc = out.incs.len() - 1;
                    awaiting_grant.push_back(i);
                    out.events.push(Event::Release(i));
                    busy = true;
                }
            }
        }
        // Due observations; a draining or re-granting lease defers them.
        while next < obs.len() && obs[next].due_ns <= now {
            let slot = &mut slots[obs[next].slot];
            if slot.lease.is_some() && !slot.churn_due {
                send_obs(next, slot, &mut obs, &mut frames, &mut wbuf, &mut out, now);
            } else {
                slot.deferred.push(next);
            }
            next += 1;
            busy = true;
        }
        if now >= next_scrape_ns && scrape_sent.is_none() && now < horizon_ns {
            let mut req = SCRAPE_REQUEST.to_vec();
            write_some(&mut rig.scrape, &mut req)?;
            if !req.is_empty() {
                return Err("scrape request did not fit the socket buffer".into());
            }
            scrape_sent = Some(now);
            next_scrape_ns += (SCRAPE_EVERY_S * 1e9) as u64;
        }
        if busy {
            out.events.push(Event::Wake);
        }
        busy |= write_some(&mut rig.data, &mut wbuf)?;

        if read_some(&mut rig.data, &mut rbuf, &mut chunk)? {
            busy = true;
            let now = now_ns();
            let mut used_total = 0;
            while let Some((frame, used)) =
                wire::decode(&rbuf[used_total..]).map_err(|e| format!("server frame: {e}"))?
            {
                used_total += used;
                match frame {
                    Frame::Act {
                        lease,
                        seq,
                        energy_j,
                        values,
                        ..
                    } => {
                        let seq = seq as usize;
                        let o = obs[seq];
                        let slot = &mut slots[o.slot];
                        slot.in_flight -= 1;
                        answered += 1;
                        if out.incs[o.inc].lease != lease || out.acts[seq].is_some() {
                            out.acct.errored += 1;
                            continue;
                        }
                        let lat = now.saturating_sub(o.due_ns) as f64 / 1e9;
                        out.acct.served(lat, LIDAR_PERIOD_S);
                        lat_windows.push(lat * 1e6);
                        out.energy_j += energy_j;
                        out.incs[o.inc].served.push(seq);
                        out.acts[seq] = Some((values, energy_j));
                    }
                    Frame::Shed { seq, .. } => {
                        slots[obs[seq as usize].slot].in_flight -= 1;
                        answered += 1;
                        out.acct.shed += 1;
                    }
                    Frame::LeaseGrant { lease, .. } => {
                        let i = awaiting_grant.pop_front().ok_or("grant nobody asked for")?;
                        let slot = &mut slots[i];
                        slot.lease = Some(lease);
                        out.incs[slot.inc].lease = lease;
                        out.churn_us
                            .push(now.saturating_sub(slot.churn_sent_ns) as f64 / 1e3);
                        out.events.push(Event::Grant(i));
                        for seq in std::mem::take(&mut slot.deferred) {
                            send_obs(seq, slot, &mut obs, &mut frames, &mut wbuf, &mut out, now);
                        }
                        out.events.push(Event::Wake);
                    }
                    Frame::Released { .. } => {}
                    other => return Err(format!("unexpected frame from server: {other:?}")),
                }
            }
            rbuf.drain(..used_total);
        }
        if let Some(sent) = scrape_sent {
            if read_some(&mut rig.scrape, &mut sbuf, &mut chunk)? {
                busy = true;
                if let Some((len, body)) = http_response(&sbuf) {
                    if !body.starts_with(b"#") || !sbuf.starts_with(b"HTTP/1.1 200") {
                        out.scrapes_bad += 1;
                    }
                    sbuf.drain(..len);
                    out.scrape_us
                        .push(now_ns().saturating_sub(sent) as f64 / 1e3);
                    scrape_sent = None;
                }
            }
        }
        let now = now_ns();
        let sent_all = next == obs.len() && slots.iter().all(|s| s.deferred.is_empty());
        if (sent_all && answered == out.lateness_us.len() && wbuf.is_empty()) || now > deadline_ns {
            break;
        }
        if !busy {
            let until_due = obs
                .get(next)
                .map_or(u64::MAX, |o| o.due_ns.saturating_sub(now));
            if until_due > SLEEP_ABOVE.as_nanos() as u64 {
                std::thread::sleep(SLEEP_ABOVE / 2);
            } else {
                std::thread::yield_now();
            }
        }
    }
    lat_windows.finish();
    out.lat = lat_windows.summary();
    out.wall_s = secs;
    out.acct.attempted = obs.len() as u64;
    out.acct.missing = out.acct.attempted - out.acct.served - out.acct.shed - out.acct.errored;
    out.obs = obs;
    Ok(out)
}

/// Untimed per-loop replay: each lease incarnation's served observations,
/// in service order, through a `batched: false` [`Loopback`] one lidar
/// period apart. Returns the number of Acts that differ from the served
/// ones.
fn per_loop_mismatches(t: &Traffic, run: &TcpRun) -> u64 {
    let mut lb = Loopback::new(t.serve_config(false));
    let conn = lb.connect();
    let mut frames = t.obs_frames();
    let mut now = 0.0;
    let mut bad = 0;
    for inc in &run.incs {
        now += LIDAR_PERIOD_S;
        let (lease, _, _) = lb
            .request_lease(conn, t.kinds[inc.slot].wire(), inc.seed, now)
            .expect("one lease at a time fits admission control");
        for &seq in &inc.served {
            now += LIDAR_PERIOD_S;
            let o = run.obs[seq];
            let frame = stamp(&mut frames[o.slot][o.payload], lease, seq as u64);
            lb.send_frame(conn, frame, now);
            let (want, want_e) = run.acts[seq].as_ref().expect("served obs has an Act");
            match lb.take_frames(conn).as_slice() {
                [Frame::Act {
                    values, energy_j, ..
                }] if bits_eq(values, want) && energy_j.to_bits() == want_e.to_bits() => {}
                _ => bad += 1,
            }
        }
        lb.send_frame(conn, &Frame::Release { lease }, now);
        let _ = lb.take_frames(conn);
    }
    bad
}

/// The same traffic replayed through a batched [`Loopback`] — shed
/// observations left out, one flush per generator wake-up — timing the
/// engine's share of each observation. Returns (per-observation engine
/// µs, Acts that differ from the served ones).
fn engine_replay(t: &Traffic, run: &TcpRun) -> (Vec<f64>, u64) {
    let mut lb = Loopback::new(t.serve_config(true));
    let conn = lb.connect();
    let mut frames = t.obs_frames();
    let mut ids: Vec<Option<u64>> = vec![None; run.incs.len()];
    for (inc, id) in run.incs.iter().zip(ids.iter_mut()).take(LEASES) {
        *id = Some(
            lb.request_lease(conn, t.kinds[inc.slot].wire(), inc.seed, 0.0)
                .expect("the 64-lease mix fits admission control")
                .0,
        );
    }
    let mut cur_inc: Vec<usize> = (0..LEASES).collect();
    let mut next_inc = LEASES;
    let mut engine_us = Vec::with_capacity(run.obs.len());
    let mut bad = 0;
    let mut group = 0usize;
    let mut now = 0.0;
    let mut t0 = Instant::now();
    for ev in &run.events {
        match *ev {
            Event::Obs(seq) => {
                let o = run.obs[seq];
                if run.acts[seq].is_none() {
                    continue;
                }
                // Deferred sends go out after later-due ones: keep the
                // virtual clock monotone.
                now = f64::max(now, o.due_ns as f64 / 1e9);
                let lease = ids[o.inc].expect("incarnation granted before use");
                lb.send_frame(
                    conn,
                    stamp(&mut frames[o.slot][o.payload], lease, seq as u64),
                    now,
                );
                group += 1;
            }
            Event::Release(slot) => {
                let lease = ids[cur_inc[slot]].expect("released lease was granted");
                lb.send_frame(conn, &Frame::Release { lease }, now);
            }
            Event::Grant(slot) => {
                let inc = &run.incs[next_inc];
                debug_assert_eq!(inc.slot, slot);
                ids[next_inc] = Some(
                    lb.request_lease(conn, t.kinds[slot].wire(), inc.seed, now)
                        .expect("re-grant fits admission control")
                        .0,
                );
                cur_inc[slot] = next_inc;
                next_inc += 1;
            }
            Event::Wake => {
                lb.flush(now);
                let per_obs = t0.elapsed().as_secs_f64() * 1e6 / group.max(1) as f64;
                engine_us.extend(std::iter::repeat_n(per_obs, group));
                for f in lb.take_frames(conn) {
                    if let Frame::Act {
                        seq,
                        values,
                        energy_j,
                        ..
                    } = f
                    {
                        match &run.acts[seq as usize] {
                            Some((want, want_e))
                                if bits_eq(&values, want)
                                    && energy_j.to_bits() == want_e.to_bits() => {}
                            _ => bad += 1,
                        }
                    }
                }
                group = 0;
                t0 = Instant::now();
            }
        }
    }
    (engine_us, bad)
}

fn check_run(r: &mut Report, t: &Traffic, run: &TcpRun) {
    let mut lateness = run.lateness_us.clone();
    let late_p99 = percentile(&mut lateness, 0.99);
    r.note(format!(
        "serve-tcp: {} obs scheduled over {:.1} s, {} churns, {} scrapes; generator lateness p99 {late_p99:.0} us",
        run.obs.len(),
        run.wall_s,
        run.incs.len() - LEASES,
        run.scrape_us.len()
    ));
    r.check(
        format!(
            "serve-tcp: run valid (generator lateness p99 {late_p99:.0} us <= {:.0} us)",
            MAX_LATENESS_P99_S * 1e6
        ),
        late_p99 <= MAX_LATENESS_P99_S * 1e6,
    );
    r.check(
        "serve-tcp: every Act equals the per-loop replay of its lease's served observations",
        per_loop_mismatches(t, run) == 0,
    );
    r.check(
        "serve-tcp: every /metrics scrape answered 200 with exposition text",
        run.scrapes_bad == 0 && !run.scrape_us.is_empty(),
    );
    r.check(
        "serve-tcp: no churn lost (every release re-granted)",
        run.churn_us.len() == run.incs.len() - LEASES,
    );
}

pub fn end_to_end(r: &mut Report, seed: u64, secs: f64) -> Result<(), String> {
    let t = Traffic::new(seed);
    let (mut rig, setup_s) = timed_setup_result(|| TcpRig::new(&t))?;
    let run = run(&t, &mut rig, seed, secs)?;
    rig.server.stop();
    check_run(r, &t, &run);
    r.acct = run.acct;
    let energy = run.energy_j * 1e6 / run.acct.served.max(1) as f64;
    // Not scaled by host speed: serve-tcp latency is set by sleeps and
    // wake-ups, not by compute.
    r.end_to_end(
        run.acct.ok() as f64 / run.wall_s,
        run.lat,
        energy,
        setup_s,
        1.0,
    );
    Ok(())
}

pub fn trace(r: &mut Report, seed: u64, secs: f64) -> Result<(), String> {
    let t = Traffic::new(seed);
    let mut rig = TcpRig::new(&t)?;
    let mut run = run(&t, &mut rig, seed, secs)?;
    rig.server.stop();
    check_run(r, &t, &run);
    r.acct.add(&run.acct);
    let (mut engine_us, bad) = engine_replay(&t, &run);
    r.check(
        "serve-tcp: traced Loopback replay outputs equal the served outputs",
        bad == 0,
    );
    let lat_p50 = run.lat.p50;
    let engine_p50 = percentile(&mut engine_us, 0.5);
    r.metric(
        "lease.shed_ratio",
        "ratio",
        run.acct.shed as f64 / run.acct.attempted.max(1) as f64,
    );
    let churn = run.churn_us.iter().sum::<f64>() / run.churn_us.len().max(1) as f64;
    r.metric("lease.churn_us", "us", churn);
    r.metric(
        "http.scrape_us_p50",
        "us",
        percentile(&mut run.scrape_us, 0.5),
    );
    r.metric("server.residual_us_p50", "us", lat_p50 - engine_p50);
    r.metric(
        "generator.lateness_us_p99",
        "us",
        percentile(&mut run.lateness_us, 0.99),
    );
    r.note(format!(
        "serve-tcp: latency p50 {lat_p50:.1} us = engine {engine_p50:.1} us + residual (socket, mutex, poll sleep) {:.1} us",
        lat_p50 - engine_p50
    ));
    Ok(())
}
