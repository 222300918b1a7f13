//! In-memory span recorder for the traced pass.
//!
//! Each span has a name, a start, an end and a parent. Spans are kept in
//! memory and written out once, when the run ends. A span may also carry
//! *charged* time: work measured inside it by an aggregate instrument
//! (the simulator's phase profiler) rather than as child intervals.
//! Self time is a span's duration minus the part of it that its child
//! spans cover, minus its charged time.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub charged_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            charged_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a finished span from explicit instants.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(0);
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            charged_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Charges `ns` of aggregate-instrument time to span `id`.
    pub fn charge(&mut self, id: SpanId, ns: u64) {
        self.spans[id].charged_ns += ns;
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span, indexed like the spans.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Spans as JSON lines: `id`, `name`, `start_ns`, `end_ns`, `parent`,
    /// `charged_ns`, `self_ns`.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"charged_ns\": {}, \"self_ns\": {}}}",
                s.name, s.start_ns, s.end_ns, s.charged_ns, self_ns[id]
            );
        }
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of each span: its duration minus the union of its children's
/// intervals (clipped to the span) minus its charged time, never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            s.duration_ns()
                .saturating_sub(covered_ns(kids, s.start_ns, s.end_ns))
                .saturating_sub(s.charged_ns)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            charged_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
            span(12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(40, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span(10, 20, None),
            span(0, 15, Some(0)),
            span(18, 40, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 3);
    }

    #[test]
    fn charged_time_is_subtracted_and_floors_at_zero() {
        let mut spans = vec![span(0, 100, None), span(0, 40, Some(0))];
        spans[0].charged_ns = 25;
        assert_eq!(self_times_ns(&spans)[0], 35);
        spans[0].charged_ns = 500;
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn recorder_keeps_parent_links() {
        let mut trace = Trace::new();
        let root = trace.open("root", None);
        let child = trace.open("child", Some(root));
        trace.close(child);
        trace.close(root);
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().nth(1).unwrap().contains("\"parent\": 0"));
        assert!(trace.self_times_ns()[0] <= trace.spans[0].duration_ns());
    }
}
