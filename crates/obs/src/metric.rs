//! Metrics registry: one `MetricSource` trait unifying every stats struct in
//! the simulator, plus `Snapshot`/`Delta` with JSON and CSV export.
//!
//! A source emits flat `name → value` pairs; the registry namespaces them
//! with a per-source group prefix (`"guest_buddy.splits"`), collects them
//! into an owned, sorted [`Snapshot`] stamped with the simulated-op clock,
//! and supports `delta(a, b)` between two snapshots of the same machine.

use crate::json;

/// A metric value: monotonic/gauge counters are `U64`, derived ratios `F64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    U64(u64),
    F64(f64),
}

impl Value {
    pub fn as_f64(self) -> f64 {
        match self {
            Value::U64(v) => v as f64,
            Value::F64(v) => v,
        }
    }

    pub fn as_u64(self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(v),
            Value::F64(_) => None,
        }
    }

    fn write_json(self, out: &mut String) {
        match self {
            Value::U64(v) => {
                use std::fmt::Write as _;
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => json::write_f64(out, v),
        }
    }
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: Value,
}

impl Metric {
    pub fn u64(name: impl Into<String>, value: u64) -> Self {
        Metric {
            name: name.into(),
            value: Value::U64(value),
        }
    }

    pub fn f64(name: impl Into<String>, value: f64) -> Self {
        Metric {
            name: name.into(),
            value: Value::F64(value),
        }
    }
}

/// Anything that can report itself as labelled metric kv-pairs.
///
/// Implemented by every stats struct in the simulator (`MemCounters`,
/// `PtStats`, `BuddyStats`, `ReservationStats`, `PartStats`, `HostStats`,
/// `GuestStats`, plus `Histogram` summaries). Names are flat and local to
/// the source; the registry prefixes them with a group name.
pub trait MetricSource {
    /// Default group prefix for this source (a registry may override it).
    fn source_name(&self) -> &'static str;

    /// Emit `(name, value)` pairs. Names must be unique within one source.
    fn emit(&self, out: &mut Vec<Metric>);
}

/// Collects metrics from sources into a [`Snapshot`].
#[derive(Default)]
pub struct Registry {
    metrics: Vec<Metric>,
    scratch: Vec<Metric>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a source under its default group prefix.
    pub fn record(&mut self, source: &dyn MetricSource) {
        self.record_as(source.source_name(), source);
    }

    /// Record a source under an explicit group prefix (needed when the same
    /// struct type appears twice, e.g. guest and host buddy allocators).
    pub fn record_as(&mut self, group: &str, source: &dyn MetricSource) {
        self.scratch.clear();
        source.emit(&mut self.scratch);
        for m in self.scratch.drain(..) {
            self.metrics.push(Metric {
                name: format!("{group}.{}", m.name),
                value: m.value,
            });
        }
    }

    /// Record a single free-standing u64 gauge.
    pub fn gauge_u64(&mut self, name: impl Into<String>, value: u64) {
        self.metrics.push(Metric::u64(name, value));
    }

    /// Record a single free-standing f64 gauge.
    pub fn gauge_f64(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push(Metric::f64(name, value));
    }

    /// Finish collection and diff against an earlier snapshot of the
    /// same machine in one step: `reg.delta_since(op, &base)` is
    /// `reg.snapshot(op).delta(&base)` without naming the intermediate.
    pub fn delta_since(self, op: u64, base: &Snapshot) -> Delta {
        self.snapshot(op).delta(base)
    }

    /// Finish collection: sort by name and stamp with the sim-op clock.
    pub fn snapshot(mut self, op: u64) -> Snapshot {
        self.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        debug_assert!(
            self.metrics.windows(2).all(|w| w[0].name != w[1].name),
            "duplicate metric name in registry"
        );
        Snapshot {
            op,
            metrics: self.metrics,
        }
    }
}

/// An owned, name-sorted set of metrics at one point in simulated time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Simulated-op clock at capture time (monotonic within a run).
    pub op: u64,
    /// Metrics sorted by name.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// Look up a metric by full name (binary search over the sorted vec).
    pub fn get(&self, name: &str) -> Option<Value> {
        self.metrics
            .binary_search_by(|m| m.name.as_str().cmp(name))
            .ok()
            .map(|i| self.metrics[i].value)
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|m| m.name.as_str())
    }

    /// Metric names matching a `group.` prefix.
    pub fn group(&self, prefix: &str) -> impl Iterator<Item = &Metric> + '_ {
        let want = format!("{prefix}.");
        self.metrics
            .iter()
            .filter(move |m| m.name.starts_with(&want))
    }

    /// Per-metric difference `self − earlier` (union of names, absent
    /// metrics treated as 0; all deltas are f64 so gauges may go negative).
    pub fn delta(&self, earlier: &Snapshot) -> Delta {
        delta(earlier, self)
    }

    /// Serialize as a single-line JSON object:
    /// `{"op": N, "metrics": {"name": value, ...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.metrics.len() * 24);
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"op\":{},\"metrics\":{{", self.op);
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, &m.name);
            out.push(':');
            m.value.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }

    /// Render one `group.`-prefixed gauge group as a flat JSON object
    /// with the prefix stripped: `{"accepted": 3, "queue_depth": 1}`.
    /// Lets a hand-built JSON line embed a single group (the serve
    /// health probe reports the `serve.*` gauges this way).
    pub fn group_json(&self, prefix: &str) -> String {
        let mut out = String::from("{");
        for (i, m) in self.group(prefix).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, &m.name[prefix.len() + 1..]);
            out.push_str(": ");
            m.value.write_json(&mut out);
        }
        out.push('}');
        out
    }

    /// CSV header (`op` first, then metric names in sorted order).
    pub fn csv_header(&self) -> String {
        let mut out = String::from("op");
        for m in &self.metrics {
            out.push(',');
            out.push_str(&m.name);
        }
        out
    }

    /// CSV row matching [`Snapshot::csv_header`].
    pub fn csv_row(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{}", self.op);
        for m in &self.metrics {
            out.push(',');
            match m.value {
                Value::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::F64(v) => {
                    let _ = write!(out, "{v}");
                }
            }
        }
        out
    }
}

/// A per-metric difference between two snapshots of the same machine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Delta {
    /// Ops elapsed between the two snapshots.
    pub ops: u64,
    /// `(name, later − earlier)` sorted by name.
    pub changes: Vec<(String, f64)>,
}

impl Delta {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.changes
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.changes[i].1)
    }

    /// Only the metrics whose value actually changed.
    pub fn nonzero(&self) -> impl Iterator<Item = (&str, f64)> {
        self.changes
            .iter()
            .filter(|(_, d)| *d != 0.0)
            .map(|(n, d)| (n.as_str(), *d))
    }
}

/// Difference `b − a` over the union of metric names (absent names count
/// as 0 on the missing side).
pub fn delta(a: &Snapshot, b: &Snapshot) -> Delta {
    let mut changes = Vec::with_capacity(b.metrics.len());
    let (mut i, mut j) = (0, 0);
    while i < a.metrics.len() || j < b.metrics.len() {
        let order = match (a.metrics.get(i), b.metrics.get(j)) {
            (Some(ma), Some(mb)) => ma.name.as_str().cmp(mb.name.as_str()),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => break,
        };
        match order {
            std::cmp::Ordering::Less => {
                let ma = &a.metrics[i];
                changes.push((ma.name.clone(), -ma.value.as_f64()));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                let mb = &b.metrics[j];
                changes.push((mb.name.clone(), mb.value.as_f64()));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let (ma, mb) = (&a.metrics[i], &b.metrics[j]);
                changes.push((mb.name.clone(), mb.value.as_f64() - ma.value.as_f64()));
                i += 1;
                j += 1;
            }
        }
    }
    Delta {
        ops: b.op.saturating_sub(a.op),
        changes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake(u64);
    impl MetricSource for Fake {
        fn source_name(&self) -> &'static str {
            "fake"
        }
        fn emit(&self, out: &mut Vec<Metric>) {
            out.push(Metric::u64("count", self.0));
            out.push(Metric::f64("rate", self.0 as f64 / 2.0));
        }
    }

    fn snap(v: u64, op: u64) -> Snapshot {
        let mut reg = Registry::new();
        reg.record(&Fake(v));
        reg.snapshot(op)
    }

    #[test]
    fn registry_prefixes_and_sorts() {
        let mut reg = Registry::new();
        reg.record(&Fake(3));
        reg.record_as("other", &Fake(9));
        reg.gauge_u64("zz.last", 1);
        let s = reg.snapshot(100);
        assert_eq!(s.op, 100);
        assert_eq!(s.get("fake.count"), Some(Value::U64(3)));
        assert_eq!(s.get("other.count"), Some(Value::U64(9)));
        assert_eq!(s.get("zz.last"), Some(Value::U64(1)));
        assert!(s.names().zip(s.names().skip(1)).all(|(a, b)| a < b));
        assert_eq!(s.group("fake").count(), 2);
    }

    #[test]
    fn delta_diffs_matching_names() {
        let d = snap(10, 500).delta(&snap(4, 100));
        assert_eq!(d.ops, 400);
        assert_eq!(d.get("fake.count"), Some(6.0));
        assert_eq!(d.get("fake.rate"), Some(3.0));
        assert_eq!(d.nonzero().count(), 2);
    }

    #[test]
    fn delta_since_matches_snapshot_then_delta() {
        let base = snap(4, 100);
        let mut reg = Registry::new();
        reg.record(&Fake(10));
        let d = reg.delta_since(500, &base);
        assert_eq!(d, snap(10, 500).delta(&base));
        assert_eq!(d.ops, 400);
        assert_eq!(d.get("fake.count"), Some(6.0));
    }

    #[test]
    fn delta_unions_disjoint_names() {
        let mut ra = Registry::new();
        ra.gauge_u64("only_a", 5);
        let mut rb = Registry::new();
        rb.gauge_u64("only_b", 7);
        let d = delta(&ra.snapshot(0), &rb.snapshot(10));
        assert_eq!(d.get("only_a"), Some(-5.0));
        assert_eq!(d.get("only_b"), Some(7.0));
    }

    #[test]
    fn snapshot_json_round_trips() {
        let s = snap(3, 42);
        let doc = crate::json::parse(&s.to_json()).unwrap();
        assert_eq!(doc.get("op").unwrap().as_u64(), Some(42));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get("fake.count").unwrap().as_u64(), Some(3));
        assert_eq!(metrics.get("fake.rate").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn csv_header_and_row_align() {
        let s = snap(3, 42);
        assert_eq!(s.csv_header(), "op,fake.count,fake.rate");
        assert_eq!(s.csv_row(), "42,3,1.5");
    }
}
