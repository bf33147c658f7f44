//! In-memory spans recorded around the benchmark's calls into the program.
//!
//! A span has a name, a start and an end (nanoseconds from the run's
//! origin), the index of the span that caused it, and the id of the
//! operation it belongs to. Spans are kept in memory and written out when
//! the run ends; a layer's self time is its duration minus the part of
//! that interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"solver.solve"`.
    pub name: &'static str,
    /// Start, in nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds from the recorder's origin.
    pub end_ns: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    /// Operation (job / solve / step / problem) the span belongs to.
    pub op: u64,
}

/// Collects the spans of one run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans { origin, spans: Vec::new() }
    }

    /// Nanoseconds from the origin to `t`.
    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span between two instants and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.push(Span { name, start_ns, end_ns, parent, op })
    }

    /// Records a span from raw offsets and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a child of `parent` that ends where the parent ends and
    /// lasts `dur_ns` (clipped to the parent). Used for work the program
    /// reports a duration for but whose start is not visible from outside.
    pub fn push_tail(&mut self, name: &'static str, parent: usize, dur_ns: u64) -> usize {
        let p = &self.spans[parent];
        let end_ns = p.end_ns;
        let start_ns = end_ns.saturating_sub(dur_ns).max(p.start_ns);
        let op = p.op;
        self.push(Span { name, start_ns, end_ns, parent: Some(parent), op })
    }

    /// All spans, in recording order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| {
                let covered = covered_ns(s.start_ns, s.end_ns, kids);
                (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered)
            })
            .collect()
    }

    /// Σ self time and Σ duration per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += self_ns;
            e.1 += s.end_ns.saturating_sub(s.start_ns);
        }
        out
    }

    /// Tab-separated dump, one span per line:
    /// `span <index> <parent|-> <op> <name> <start_ns> <end_ns>`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let mut t = Spans::new(Instant::now());
        let root = t.push(span("op", 0, 100, None));
        // Overlapping children [10,30) and [20,50) cover 40; the third
        // sticks out past the parent and counts only up to 100.
        t.push(span("a", 10, 30, Some(root)));
        let b = t.push(span("b", 20, 50, Some(root)));
        t.push(span("c", 90, 120, Some(root)));
        // A grandchild is charged to its own parent, not to the root.
        t.push(span("d", 25, 45, Some(b)));
        let self_ns = t.self_times_ns();
        assert_eq!(self_ns, vec![100 - 40 - 10, 20, 30 - 20, 30, 20]);
    }

    #[test]
    fn tail_child_ends_with_its_parent_and_is_clipped() {
        let mut t = Spans::new(Instant::now());
        let root = t.push(span("op", 100, 200, None));
        let c = t.push_tail("solve", root, 30);
        assert_eq!((t.all()[c].start_ns, t.all()[c].end_ns), (170, 200));
        let d = t.push_tail("long", root, 500);
        assert_eq!(t.all()[d].start_ns, 100);
        assert_eq!(t.self_times_ns()[root], 0);
    }

    #[test]
    fn by_name_sums_self_and_total_time() {
        let mut t = Spans::new(Instant::now());
        t.push(span("op", 0, 10, None));
        let r = t.push(span("op", 0, 50, None));
        t.push(span("solver.solve", 10, 40, Some(r)));
        let by = t.by_name();
        assert_eq!(by["op"], (10 + 20, 60));
        assert_eq!(by["solver.solve"], (30, 30));
    }
}
