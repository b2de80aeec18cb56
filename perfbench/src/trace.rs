//! Tracing from the benchmark's own side of each crate boundary.
//!
//! Spans are recorded around the benchmark's calls into the simulator's
//! public functions and kept in memory until the run ends. The
//! per-reference `Processor::next_op` boundary is too fine for one span
//! per call, so [`Timed`] aggregates it into a count and a total per case,
//! estimated from a fixed sample of the calls.

use decache_machine::{OpResult, Poll, Processor};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// The id of the `case` span this belongs to (0 for `analysis.pool`).
    pub case: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
}

/// A fresh span id (never 0).
pub fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A small per-thread number for the trace's thread tracks.
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: Cell<u64> = const { Cell::new(0) });
    ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// Every `SAMPLE_EVERY`-th `next_op` call is timed; timing every call
/// would cost more than the calls themselves.
const SAMPLE_EVERY: u64 = 16;

/// `Processor::next_op` calls of one case, and the time of the sampled
/// ones, merged in as each PE's [`Timed`] wrapper is dropped.
#[derive(Debug, Default)]
pub struct NextOpTally {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

impl NextOpTally {
    /// `(calls, estimated total ns)`: the mean sampled call, less the
    /// clock's own share ([`clock_ns`]), times every call.
    pub fn read(&self) -> (u64, u64) {
        let calls = self.calls.load(Ordering::Relaxed);
        let sampled = self.sampled.load(Ordering::Relaxed);
        if sampled == 0 {
            return (calls, 0);
        }
        let mean = self.sampled_ns.load(Ordering::Relaxed) as f64 / sampled as f64;
        (calls, ((mean - clock_ns()).max(0.0) * calls as f64) as u64)
    }
}

/// A `Processor` that counts every `next_op` of the program it wraps and
/// times every [`SAMPLE_EVERY`]-th one.
pub struct Timed {
    inner: Box<dyn Processor + Send>,
    calls: u64,
    sampled_ns: u64,
    tally: Arc<NextOpTally>,
}

impl Timed {
    pub fn wrap(inner: Box<dyn Processor + Send>, tally: &Arc<NextOpTally>) -> Box<Self> {
        Box::new(Timed {
            inner,
            calls: 0,
            sampled_ns: 0,
            tally: Arc::clone(tally),
        })
    }
}

impl Processor for Timed {
    fn next_op(&mut self, last: Option<&OpResult>) -> Poll {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.next_op(last);
        }
        let start = Instant::now();
        let poll = self.inner.next_op(last);
        self.sampled_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        poll
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        let t = &self.tally;
        t.calls.fetch_add(self.calls, Ordering::Relaxed);
        t.sampled
            .fetch_add(self.calls / SAMPLE_EVERY, Ordering::Relaxed);
        t.sampled_ns.fetch_add(self.sampled_ns, Ordering::Relaxed);
    }
}

/// What [`Timed`] reads for an empty call, in ns: the clock's own share
/// of every sample. Measured once per process.
pub fn clock_ns() -> f64 {
    static CLOCK_NS: OnceLock<f64> = OnceLock::new();
    *CLOCK_NS.get_or_init(empty_interval_ns)
}

/// The median over batches of the mean empty interval, so a preemption
/// during calibration does not skew it.
fn empty_interval_ns() -> f64 {
    const BATCHES: usize = 63;
    const CALLS: u32 = 1024;
    let mut means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..CALLS {
                let start = Instant::now();
                total += std::hint::black_box(start).elapsed().as_nanos();
            }
            total as f64 / f64::from(CALLS)
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[BATCHES / 2]
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Renders spans as Chrome trace-event JSON (loadable in Perfetto);
/// `next_op` totals ride on their `machine.run` span as arguments.
pub fn chrome_json(spans: &[Span], next_op: &[(u64, (u64, u64))]) -> String {
    let tally: std::collections::HashMap<u64, (u64, u64)> = next_op.iter().copied().collect();
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"case\":{}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.case
        );
        if let Some((calls, ns)) = tally.get(&s.id) {
            let _ = write!(out, ",\"next_op_calls\":{calls},\"next_op_ns\":{ns}");
        }
        let _ = writeln!(out, "}}}}{sep}");
    }
    out.push_str("]}\n");
    out
}
