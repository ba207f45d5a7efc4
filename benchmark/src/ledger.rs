//! In-memory span ledger for the traced run.
//!
//! Spans are opened and closed only in the benchmark's own code, around
//! calls into the library's public functions. Each span carries a name, a
//! start and end (ns since the ledger started), its parent span and the id
//! of the observation or tick it belongs to. A closed span's self time is
//! its duration minus the time its direct children cover; self times are
//! summed per name as spans close, so the aggregate covers every span even
//! when only the first [`SPAN_CAP`] spans are kept for the JSONL dump.
//!
//! The ledger is thread-local and off by default: [`span`] then costs one
//! thread-local flag read, and untraced runs never record anything.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept in memory for the JSONL dump (aggregates cover all spans).
pub const SPAN_CAP: usize = 50_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub seq: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `seq` of the enclosing span, `u64::MAX` for a root.
    pub parent: u64,
    /// Shared id of the observation or tick the span belongs to.
    pub id: u64,
}

/// Per-name totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean wall time per span (ns).
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

struct Open {
    seq: u64,
    name: &'static str,
    start_ns: u64,
    parent: u64,
    id: u64,
    child_ns: u64,
}

/// A finished ledger: kept spans, per-name aggregates and counters.
#[derive(Debug, Default)]
pub struct Ledger {
    pub spans: Vec<Span>,
    pub dropped: u64,
    pub aggs: BTreeMap<&'static str, Agg>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Totals of `name` (zero if it never ran).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }
    /// Counter `name` (zero if never bumped).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
    /// Σ self time over every span name (ns).
    pub fn self_total_ns(&self) -> u64 {
        self.aggs.values().map(|a| a.self_ns).sum()
    }

    /// Append the kept spans as JSONL, one object per span, each tagged with
    /// the traced pass it came from.
    pub fn write_jsonl(&self, pass: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == u64::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"seq\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.seq, s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        Ok(())
    }
}

struct Recorder {
    epoch: Instant,
    next_seq: u64,
    stack: Vec<Open>,
    ledger: Ledger,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (discarding any previous recording).
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            next_seq: 0,
            stack: Vec::new(),
            ledger: Ledger::default(),
        })
    });
}

/// Stop recording and hand back what was recorded.
pub fn finish() -> Ledger {
    REC.with(|r| r.borrow_mut().take())
        .map(|rec| {
            assert!(rec.stack.is_empty(), "span left open at finish");
            rec.ledger
        })
        .unwrap_or_default()
}

/// Whether this thread is recording.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().is_some())
}

/// Add `v` to counter `name` (no-op when not recording).
pub fn add(name: &'static str, v: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.ledger.counts.entry(name).or_insert(0) += v;
        }
    });
}

fn enter(name: &'static str, id: Option<u64>) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("enter while recording");
        let parent = rec.stack.last().map_or(u64::MAX, |o| o.seq);
        let id = id.unwrap_or_else(|| rec.stack.last().map_or(u64::MAX, |o| o.id));
        let seq = rec.next_seq;
        rec.next_seq += 1;
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.stack.push(Open {
            seq,
            name,
            start_ns,
            parent,
            id,
            child_ns: 0,
        });
    });
}

fn exit() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("exit while recording");
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        let open = rec.stack.pop().expect("exit without enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = rec.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = rec.ledger.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if rec.ledger.spans.len() < SPAN_CAP {
            rec.ledger.spans.push(Span {
                seq: open.seq,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent: open.parent,
                id: open.id,
            });
        } else {
            rec.ledger.dropped += 1;
        }
    });
}

/// Run `f` with recording suspended on this thread (for untraced work
/// interleaved with traced work).
pub fn suspended<T>(f: impl FnOnce() -> T) -> T {
    let saved = REC.with(|r| r.borrow_mut().take());
    let out = f();
    REC.with(|r| *r.borrow_mut() = saved);
    out
}

/// Run `f` inside span `name` of observation/tick `id` when recording;
/// otherwise just run `f`.
#[inline]
pub fn span<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    enter(name, Some(id));
    let out = f();
    exit();
    out
}

/// Like [`span`], with the id of the enclosing span — for calls made deep
/// inside a tick that do not know which tick they serve.
#[inline]
pub fn child<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    enter(name, None);
    let out = f();
    exit();
    out
}
