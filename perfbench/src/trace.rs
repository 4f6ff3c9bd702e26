//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded around the benchmark's calls into each layer (the
//! program gets no spans from here). Each span has a name, start, end,
//! parent and request id; all are kept in memory and written as one JSON
//! document when the run ends. A span's self time is its duration minus
//! the time its child spans cover.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store. A disabled tracer records nothing, so untraced
/// runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty tracer on the same clock for another thread; its request
    /// ids start above `base` so they stay distinct after [`Tracer::absorb`].
    pub fn fork(&self, base: u64) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
            req: base,
        }
    }

    /// Appends another tracer's spans (from [`Tracer::fork`]).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Starts a new request id; spans opened from now on carry it.
    pub fn next_request(&mut self) -> u64 {
        self.req += 1;
        self.req
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one; returns its
    /// index.
    pub fn open(&mut self, name: &str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.ns(Instant::now());
        self.push(name, start_ns, start_ns);
        self.spans.len() - 1
    }

    /// Makes the closed span `idx` the parent of spans opened until the
    /// matching [`Tracer::leave`], without changing its interval. A
    /// replay's stages hang under the round trip they explain this way.
    pub fn enter(&mut self, idx: usize) {
        if self.enabled {
            self.open.push(idx);
        }
    }

    pub fn leave(&mut self) {
        if self.enabled {
            self.open.pop();
        }
    }

    fn push(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let idx = self.open.pop().expect("close matches an open span");
        self.spans[idx].end_ns = now;
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (for spans read from the program's own telemetry).
    pub fn record(&mut self, name: &str, start: Instant, dur: Duration) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns(start);
        let end_ns = start_ns + dur.as_nanos() as u64;
        self.push(name, start_ns, end_ns);
        self.open.pop();
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds: duration minus the time
    /// covered by its direct children (children never overlap, since one
    /// thread records them in sequence).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The whole trace as JSON: one object per span plus its self time.
    pub fn to_json(&self) -> String {
        let selfs = self.self_ns();
        let mut out = String::from("{\"spans\":[\n");
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
