//! Spans recorded by the benchmark around each call it makes into a layer.
//!
//! A span has a name (`<layer>.<operation>`), a start, an end, the span
//! that caused it and a request id. Spans are kept in memory and written
//! out when the benchmark ends. With tracing off, [`Tracer::span`] just runs
//! the closure.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (ids start at 1).
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root span.
    pub parent: u32,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Request id shared by the spans of one request.
    pub request: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder, shared by reference between client threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; with `enabled == false` nothing is recorded.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent child
    /// spans on (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .push(Span {
                id,
                parent,
                name,
                request,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock poisoned").len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )
            .expect("write to string");
        }
        out.push(']');
        out
    }
}

/// Mean cost of recording one span, in seconds, measured on a scratch
/// tracer: the tracing overhead of a run is this times its span count.
pub fn span_cost_seconds() -> f64 {
    const SPANS: u32 = 100_000;
    let tracer = Tracer::new(true);
    let start = Instant::now();
    for i in 0..SPANS {
        tracer.span("bench.calibrate", 0, u64::from(i), std::hint::black_box);
    }
    start.elapsed().as_secs_f64() / f64::from(SPANS)
}
