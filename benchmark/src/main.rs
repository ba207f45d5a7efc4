//! The repository benchmark: served ticks over `Loopback` and real TCP, and
//! the paper's on-device lidar loop, with a traced per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve-loopback|serve-tcp|edge-lidar> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the named workload untraced and prints its
//! end-to-end metrics. `--trace 1` builds the per-layer ledger of every
//! layer — each workload's traced pass plus the kernel shape table —
//! whichever workload is named. Either way the outputs are checked; the
//! last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` and the exit code is
//! non-zero on any failed check. A serve-tcp run that cannot bind
//! 127.0.0.1 reports the workload as skipped and exits non-zero.
//! See `benchmark/DESIGN.md` for workloads, metrics and tolerances.

mod kernels;
mod ledger;
mod lidar;
mod probe;
mod serve;
mod stats;
mod tcp;

use stats::{median, Accounting, Summary};
use std::io::Write;
use std::time::Instant;

/// Set-ups per run: at least [`SETUP_REPS`], and more while the total stays
/// under [`SETUP_BUDGET_S`] (so millisecond set-ups are sampled many
/// times); `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_BUDGET_S: f64 = 0.25;
const SETUP_MAX_REPS: usize = 200;
/// Σ layer self time must land within this share of the untraced
/// end-to-end time per tick.
pub const RECONCILE_TOL: f64 = 0.15;

pub const WORKLOADS: [&str; 3] = ["serve-loopback", "serve-tcp", "edge-lidar"];

/// Metrics, accounting and correctness checks of one invocation.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, &'static str, f64)>,
    pub acct: Accounting,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
    ledgers: Vec<(&'static str, ledger::Ledger)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn keep_ledger(&mut self, pass: &'static str, l: ledger::Ledger) {
        self.ledgers.push((pass, l));
    }

    /// The end-to-end metrics shared by every workload: `throughput` in
    /// ticks per second, latency from the run's windows. Throughput and p50
    /// are scaled to the reference host speed: `slowdown` is how much slower
    /// than the reference the host ran during the measurement ([`probe`]).
    /// The p99 is not: scaling it widened its run-to-run spread. Nor is
    /// set-up, which runs before the probed measurement.
    pub fn end_to_end(
        &mut self,
        throughput: f64,
        lat: Summary,
        energy_uj_per_tick: f64,
        setup_s: f64,
        slowdown: f64,
    ) {
        let acct = self.acct;
        self.metric("throughput_per_s", "1/s", throughput * slowdown);
        self.metric("latency_us_p50", "us", lat.p50 / slowdown);
        self.metric("latency_us_p99", "us", lat.p99);
        self.metric(
            "ok_ratio",
            "ratio",
            acct.ok() as f64 / acct.attempted.max(1) as f64,
        );
        self.metric("energy_uj_per_tick", "uJ", energy_uj_per_tick);
        self.metric("setup_s", "s", setup_s);
        self.metric("peak_rss_mb", "MB", stats::peak_rss_mb());
        self.note(format!(
            "latency: {} samples in {} windows; p50 and p99 are medians over windows",
            lat.samples, lat.windows
        ));
        self.note(format!(
            "host ran {slowdown:.3}x the reference probe time; raw: {throughput:.1} ticks/s, p50 {:.1} us",
            lat.p50
        ));
    }
}

/// Run `build` repeatedly (see [`SETUP_REPS`]); return the last result
/// and the median set-up time (s).
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPS)
    {
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        // Drop the previous build outside the timed window.
        drop(last.replace(built));
    }
    (last.expect("at least one set-up"), median(&mut times))
}

/// [`timed_setup`] for a set-up that can fail; the first failure wins.
pub fn timed_setup_result<T, E>(mut build: impl FnMut() -> Result<T, E>) -> Result<(T, f64), E> {
    let mut err = None;
    let (built, secs) = timed_setup(|| match build() {
        Ok(v) => Some(v),
        Err(e) => {
            err.get_or_insert(e);
            None
        }
    });
    match (built, err) {
        (Some(v), None) => Ok((v, secs)),
        (_, Some(e)) => Err(e),
        (None, None) => unreachable!("a failed build records its error"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The traced run: every layer's ledger, whichever workload is named.
fn trace_all(args: &Args, r: &mut Report) -> Result<(), String> {
    let share = args.seconds / 4.0;
    let mut probe = probe::Probe::default();
    probe.run();
    let occupancy = serve::trace(r, args.seed, share);
    probe.run();
    tcp::trace(r, args.seed, share)?;
    probe.run();
    lidar::trace(r, args.seed, share);
    probe.run();
    kernels::table(r, args.seed, occupancy);
    probe.run();
    // Per-layer times are raw; the probe lets a reader scale them.
    r.metric("host.probe_us", "us", probe.mean_us());
    Ok(())
}

fn write_spans(r: &Report, args: &Args) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let (mut kept, mut dropped) = (0, 0);
    for (pass, l) in &r.ledgers {
        l.write_jsonl(pass, &mut out)?;
        kept += l.spans.len();
        dropped += l.dropped;
    }
    out.flush()?;
    Ok(format!(
        "{} ({kept} spans; {dropped} more aggregated only)",
        path.display()
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut r = Report::default();
    let outcome = if args.trace {
        trace_all(&args, &mut r)
    } else {
        match args.workload.as_str() {
            "serve-loopback" => {
                serve::end_to_end(&mut r, args.seed, args.seconds);
                Ok(())
            }
            "serve-tcp" => tcp::end_to_end(&mut r, args.seed, args.seconds),
            "edge-lidar" => {
                lidar::end_to_end(&mut r, args.seed, args.seconds);
                Ok(())
            }
            _ => unreachable!("validated in parse_args"),
        }
    };
    if let Err(skip) = outcome {
        eprintln!("{}: SKIPPED — {skip}", args.workload);
        std::process::exit(3);
    }
    if args.trace {
        match write_spans(&r, &args) {
            Ok(path) => r.note(format!("spans written to {path}")),
            Err(e) => r.check(format!("writing spans: {e}"), false),
        }
    }
    for (name, _, v) in &r.metrics {
        r.checks.push((format!("{name} is finite"), v.is_finite()));
    }
    let correct = r.checks.iter().all(|(_, ok)| *ok);

    let mut err = std::io::stderr().lock();
    let _ = writeln!(
        err,
        "== {} seed {} trace {}",
        args.workload, args.seed, args.trace as u8
    );
    for line in &r.notes {
        let _ = writeln!(err, "{line}");
    }
    let _ = writeln!(err, "accounting: {}", r.acct.line());
    for (name, unit, v) in &r.metrics {
        let _ = writeln!(err, "  {name:<34} {v:>16.4} {unit}");
    }
    for (what, ok) in &r.checks {
        let _ = writeln!(err, "  [{}] {what}", if *ok { "ok" } else { "FAIL" });
    }
    drop(err);

    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.acct.attempted.max(1),
        r.acct.failed(),
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
