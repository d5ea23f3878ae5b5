//! The harness's own in-memory span recorder.
//!
//! Spans are recorded *from outside* the program under test: around the
//! calls this crate makes into each layer's public functions. Each span
//! carries a name, start, end, the span that caused it and a request
//! id; they stay in memory during the run and are written as Chrome
//! trace-event JSON (load at <https://ui.perfetto.dev>) when it ends.
//!
//! Recording is per thread ([`ThreadTrace`]) — a `Vec` push, no lock —
//! and the per-thread buffers are merged into the [`Tracer`] when a
//! window ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Identifies a recorded span; unique within one [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// This span's id.
    pub id: SpanId,
    /// The recording thread's number (the Chrome trace `tid`).
    pub tid: u32,
    /// Layer-qualified name, e.g. `serve.submit_with`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by every span of one request.
    pub request: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run-wide span store.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(0), spans: Mutex::new(Vec::new()) }
    }

    /// A recording buffer for thread number `tid` (the Chrome trace row).
    pub fn thread(&self, tid: u32) -> ThreadTrace<'_> {
        ThreadTrace { tracer: self, tid, spans: Vec::new() }
    }

    /// Number of spans merged so far.
    pub fn len(&self) -> usize {
        self.spans.lock().map_or(0, |s| s.len())
    }

    /// Whether no span has been merged yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every span merged so far, in merge order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("tracer lock: recording threads do not panic holding it").clone()
    }

    /// Chrome trace-event JSON of every merged span (`ph: "X"` complete
    /// events; the request id and parent ride in `args`).
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans()
            .iter()
            .map(|s| {
                let mut args = vec![("request".to_string(), Json::Int(s.request as i64))];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Json::Int(p.0 as i64)));
                }
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(i64::from(s.tid))),
                    ("ts", Json::Num(s.start_ns as f64 / 1000.0)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1000.0)),
                    ("id", Json::Int(s.id.0 as i64)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
    }
}

/// One thread's span buffer; merged into its [`Tracer`] on drop.
pub struct ThreadTrace<'t> {
    tracer: &'t Tracer,
    tid: u32,
    spans: Vec<SpanRec>,
}

impl ThreadTrace<'_> {
    /// Reserves an id, so that children recorded before their parent
    /// ends can already name it.
    pub fn reserve(&self) -> SpanId {
        // Relaxed: the counter only has to hand out distinct numbers.
        SpanId(self.tracer.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Records a finished span under a [reserved](ThreadTrace::reserve)
    /// id, from two instants the caller took anyway.
    pub fn record(
        &mut self,
        id: SpanId,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.tracer.epoch).as_nanos() as u64;
        self.spans.push(SpanRec {
            id,
            tid: self.tid,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
    }

    /// [`reserve`](ThreadTrace::reserve) + [`record`](ThreadTrace::record)
    /// for a span nothing needs to name in advance.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.reserve();
        self.record(id, name, parent, request, start, end);
        id
    }
}

impl Drop for ThreadTrace<'_> {
    fn drop(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        // A poisoned lock means a recording thread panicked; the run is
        // already failing, so dropping these spans loses nothing.
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted
/// twice).
pub fn self_time_ns(spans: &[SpanRec], id: SpanId) -> u64 {
    let Some(parent) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.dur_ns() - covered
}
