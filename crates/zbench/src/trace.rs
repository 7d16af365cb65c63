//! Spans recorded from outside the program, around zbench's calls into
//! each layer.
//!
//! Every worker thread owns one [`Tracer`]. Its root span covers the
//! thread's whole measured loop; child spans tile that interval: a call
//! into the queue, zbench's own application work, or waiting. A layer's
//! self time is its span's duration minus the part its child spans
//! cover, so the root's self time is whatever no child accounted for,
//! and queue + app + idle + park + unattributed equals the worker's wall
//! time exactly. [`Tracer::switch`] closes one child and opens the next at a
//! single clock reading, so the tiling leaves no gaps.
//!
//! Spans are kept in a buffer preallocated before the traced phase; the
//! first [`SPAN_CAP`] of each thread are kept for export, and every span
//! is folded into per-name self-time totals as it closes.

use std::time::Instant;

/// Spans the tracer distinguishes. The first name is the root.
pub const NAMES: [&str; 6] = [
    "worker",
    "queue.insert",
    "queue.extract",
    "app",
    "idle",
    "park",
];
/// The root span covering a worker's measured loop.
pub const WORKER: u8 = 0;
/// A call into the queue's insert path.
pub const INSERT: u8 = 1;
/// A call into the queue's extract path (including blocking extraction
/// that found the queue nonempty on its first attempt).
pub const EXTRACT: u8 = 2;
/// zbench's own work: key generation, SSSP relaxation, job service.
pub const APP: u8 = 3;
/// Waiting outside the queue: a generator ahead of its schedule, an SSSP
/// worker that found the queue momentarily empty or waits for the next
/// solve.
pub const IDLE: u8 = 4;
/// A blocking extraction that had to wait for work: the consumer parked
/// on the queue's futexes (the `sync` layer).
pub const PARK: u8 = 5;

/// Spans kept per thread for export.
pub const SPAN_CAP: usize = 1 << 16;
/// Every this-many-th queue call's duration is kept for percentiles.
const DURATION_SAMPLE: u64 = 16;
const DURATION_CAP: usize = 1 << 20;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`NAMES`].
    pub name: u8,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the parent span in the thread's kept spans, or `u32::MAX`
    /// for a root (or a parent that was not kept).
    pub parent: u32,
    /// Request id shared by the spans of one pop, pair or job.
    pub req: u64,
}

#[derive(Clone, Copy)]
struct Open {
    name: u8,
    start: u64,
    child_ns: u64,
    kept: u32,
}

/// Per-thread span recorder. A disabled tracer records nothing and costs
/// one predictable branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    req: u64,
    spans: Vec<Span>,
    /// Self time per name, summed over every closed span.
    pub self_ns: [u64; NAMES.len()],
    /// Closed spans per name.
    count: [u64; NAMES.len()],
    /// Sampled durations of insert calls, in ns.
    pub insert_ns: Vec<u32>,
    /// Sampled durations of extract calls, in ns.
    pub extract_ns: Vec<u32>,
}

impl Tracer {
    /// A tracer that records only when `on`. Buffers are allocated here,
    /// before any measured phase.
    pub fn new(on: bool, epoch: Instant) -> Self {
        let cap = |n: usize| if on { n } else { 0 };
        Tracer {
            on,
            epoch,
            stack: Vec::with_capacity(8),
            req: 0,
            spans: Vec::with_capacity(cap(SPAN_CAP)),
            self_ns: [0; NAMES.len()],
            count: [0; NAMES.len()],
            insert_ns: Vec::with_capacity(cap(DURATION_CAP)),
            extract_ns: Vec::with_capacity(cap(DURATION_CAP)),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new request: later spans carry the next id.
    #[inline]
    pub fn next_request(&mut self) {
        self.req += 1;
    }

    /// Open span `name` as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: u8) {
        if self.on {
            let t = self.now();
            self.enter_at(name, t);
        }
    }

    /// Close the innermost open span and open `name` in its place, both
    /// at one clock reading.
    #[inline]
    pub fn switch(&mut self, name: u8) {
        if self.on {
            let t = self.now();
            self.exit_at(t);
            self.enter_at(name, t);
        }
    }

    /// [`enter`](Self::enter) at an explicit time.
    pub fn enter_at(&mut self, name: u8, t: u64) {
        let kept = if self.spans.len() < self.spans.capacity() {
            let parent = self.stack.last().map_or(u32::MAX, |o| o.kept);
            self.spans.push(Span {
                name,
                start: t,
                end: t,
                parent,
                req: self.req,
            });
            (self.spans.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.stack.push(Open {
            name,
            start: t,
            child_ns: 0,
            kept,
        });
    }

    /// Close the innermost open span at time `t`: its self time is
    /// its duration minus its children's, and its whole duration counts
    /// against its parent.
    pub fn exit_at(&mut self, t: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = t.saturating_sub(open.start);
        let name = open.name as usize;
        self.self_ns[name] += dur.saturating_sub(open.child_ns);
        self.count[name] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(span) = self.spans.get_mut(open.kept as usize) {
            span.end = t;
        }
        let sampled = match open.name {
            INSERT => Some(&mut self.insert_ns),
            EXTRACT => Some(&mut self.extract_ns),
            _ => None,
        };
        if let Some(v) = sampled {
            if self.count[name].is_multiple_of(DURATION_SAMPLE) && v.len() < v.capacity() {
                v.push(dur.min(u32::MAX as u64) as u32);
            }
        }
    }

    /// Close every open span (the root last).
    pub fn finish(&mut self) {
        if self.on {
            let t = self.now();
            while !self.stack.is_empty() {
                self.exit_at(t);
            }
        }
    }

    /// The spans kept for export.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of all self times, which equals the root spans' total
    /// duration: the worker's wall time.
    pub fn tiled_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// Per-layer self time summed over several threads' tracers, in ns.
pub fn layer_totals(tracers: &[Tracer]) -> LayerTotals {
    let mut t = LayerTotals::default();
    for tr in tracers {
        t.queue += tr.self_ns[INSERT as usize] + tr.self_ns[EXTRACT as usize];
        t.app += tr.self_ns[APP as usize];
        t.idle += tr.self_ns[IDLE as usize];
        t.park += tr.self_ns[PARK as usize];
        t.unattributed += tr.self_ns[WORKER as usize];
        t.wall += tr.tiled_ns();
    }
    t
}

/// See [`layer_totals`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Self time inside queue calls.
    pub queue: u64,
    /// Self time in zbench's own work.
    pub app: u64,
    /// Self time waiting outside the queue.
    pub idle: u64,
    /// Self time parked in blocking extraction.
    pub park: u64,
    /// Root self time no child span covered.
    pub unattributed: u64,
    /// Worker wall time.
    pub wall: u64,
}

impl LayerTotals {
    /// `part` as a share of the wall time.
    pub fn share(&self, part: u64) -> f64 {
        if self.wall == 0 {
            0.0
        } else {
            part as f64 / self.wall as f64
        }
    }
}

/// Write the kept spans of each thread as one JSON document.
pub fn spans_json(tracers: &[Tracer]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"names\":[");
    for (i, n) in NAMES.iter().enumerate() {
        let _ = write!(out, "{}\"{n}\"", if i > 0 { "," } else { "" });
    }
    out.push_str("],\"threads\":[");
    for (ti, tr) in tracers.iter().enumerate() {
        out.push_str(if ti > 0 { ",[" } else { "[" });
        for (si, s) in tr.spans().iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "{}{{\"name\":{},\"start\":{},\"end\":{},\"parent\":{},\"req\":{}}}",
                if si > 0 { "," } else { "" },
                s.name,
                s.start,
                s.end,
                parent,
                s.req
            );
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new(true, Instant::now())
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = tracer();
        t.enter_at(WORKER, 0);
        t.enter_at(APP, 10);
        t.enter_at(INSERT, 15); // nested child of APP
        t.exit_at(25);
        t.exit_at(40); // APP: 30 long, 10 of it in INSERT
        t.enter_at(IDLE, 40);
        t.exit_at(90);
        t.exit_at(100); // WORKER: 100 long, children cover 30 + 50
        assert_eq!(t.self_ns[INSERT as usize], 10);
        assert_eq!(t.self_ns[APP as usize], 20);
        assert_eq!(t.self_ns[IDLE as usize], 50);
        assert_eq!(t.self_ns[WORKER as usize], 20);
        assert_eq!(t.tiled_ns(), 100, "self times add up to the root");
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, 1, "INSERT's parent is APP");
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, u32::MAX);
        assert_eq!((spans[3].start, spans[3].end), (40, 90));
    }

    #[test]
    fn layer_totals_sum_threads_and_share_requests() {
        let mut a = tracer();
        a.enter_at(WORKER, 0);
        a.next_request();
        a.enter_at(INSERT, 0);
        a.exit_at(30);
        a.enter_at(EXTRACT, 30);
        a.exit_at(50);
        a.exit_at(60);
        let mut b = tracer();
        b.enter_at(WORKER, 0);
        b.enter_at(APP, 5);
        b.exit_at(35);
        b.exit_at(40);
        let t = layer_totals(&[a, b]);
        assert_eq!(
            t,
            LayerTotals {
                queue: 50,
                app: 30,
                idle: 0,
                park: 0,
                unattributed: 10 + 10,
                wall: 100,
            }
        );
        assert_eq!(t.share(t.queue), 0.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.enter(WORKER);
        t.switch(APP);
        t.finish();
        assert_eq!(t.tiled_ns(), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_json_parses() {
        let mut t = tracer();
        t.enter_at(WORKER, 0);
        t.enter_at(APP, 1);
        t.exit_at(2);
        t.exit_at(3);
        let doc = obs::json::parse(&spans_json(&[t])).expect("valid json");
        let threads = doc
            .get("threads")
            .and_then(|v| v.as_arr())
            .expect("threads");
        assert_eq!(threads[0].as_arr().expect("spans").len(), 2);
    }
}
