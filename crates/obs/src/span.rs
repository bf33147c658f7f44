//! Hierarchical timed phases: spans and timelines.

use std::time::Instant;

use crate::json::JsonWriter;

/// One finished timed phase, with its nesting depth in the span tree.
///
/// Times are nanosecond offsets from the owning [`Timeline`]'s origin, so
/// a trace serialized on one machine stays meaningful on another (no
/// absolute clocks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (e.g. `"setup"`, `"kkt_solve"`).
    pub name: String,
    /// 0 for root phases, +1 per enclosing open span.
    pub depth: u32,
    /// Start offset from the timeline origin, in nanoseconds.
    pub start_ns: u64,
    /// End offset from the timeline origin, in nanoseconds.
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Serializes this span as one JSON object member of an open array.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object(None);
        w.string("name", &self.name);
        w.u64("depth", u64::from(self.depth));
        w.u64("start_ns", self.start_ns);
        w.u64("end_ns", self.end_ns);
        w.end_object();
    }
}

/// An identifier for an open span, returned by [`Timeline::start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
struct OpenSpan {
    name: String,
    depth: u32,
    start_ns: u64,
}

/// Builds a tree of timed spans against one clock origin.
///
/// Spans nest by call order: `start` pushes onto an open stack (depth =
/// stack height), `end` pops back to — and closes — the given span, so a
/// forgotten inner `end` cannot leave the stack unbalanced. Finished
/// spans are emitted in completion order.
#[derive(Debug)]
pub struct Timeline {
    origin: Instant,
    open: Vec<OpenSpan>,
    finished: Vec<SpanRecord>,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    /// A timeline whose origin is now.
    pub fn new() -> Self {
        Timeline { origin: Instant::now(), open: Vec::new(), finished: Vec::new() }
    }

    /// Nanoseconds elapsed since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` starting now.
    pub fn start(&mut self, name: &str) -> SpanId {
        let start_ns = self.now_ns();
        self.open.push(OpenSpan {
            name: name.to_string(),
            depth: self.open.len() as u32,
            start_ns,
        });
        SpanId(self.open.len() - 1)
    }

    /// Closes `span` (and any still-open spans nested inside it) at the
    /// current time.
    pub fn end(&mut self, span: SpanId) {
        let end_ns = self.now_ns();
        while self.open.len() > span.0 {
            let s = self.open.pop().expect("stack length checked");
            self.finished.push(SpanRecord {
                name: s.name,
                depth: s.depth,
                start_ns: s.start_ns,
                end_ns,
            });
        }
    }

    /// Closes any still-open spans and returns all finished spans.
    pub fn finish(mut self) -> Vec<SpanRecord> {
        self.end(SpanId(0));
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut t = Timeline::new();
        let outer = t.start("solve");
        let inner = t.start("kkt");
        t.end(inner);
        t.end(outer);
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "kkt");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].name, "solve");
        assert_eq!(spans[1].depth, 0);
        assert!(spans[1].start_ns <= spans[0].start_ns);
        assert!(spans[1].end_ns >= spans[0].end_ns);
    }

    #[test]
    fn ending_an_outer_span_closes_inner_ones() {
        let mut t = Timeline::new();
        let outer = t.start("outer");
        let _inner = t.start("inner");
        t.end(outer);
        let spans = t.finish();
        assert_eq!(spans.len(), 2, "inner span must be force-closed");
    }
}
