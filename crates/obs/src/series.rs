//! Epoch time series: an ordered collection of registry snapshots.
//!
//! The engine captures a snapshot every N measured ops, turning end-of-run
//! aggregates into trajectories (fragmentation over time, reservation hit
//! rate over time, walk latency over time).

use crate::metric::{Delta, Snapshot, Value};

/// Snapshots in capture order (ops monotonically non-decreasing).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    pub samples: Vec<Snapshot>,
}

impl TimeSeries {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, sample: Snapshot) {
        debug_assert!(
            self.samples.last().is_none_or(|s| s.op <= sample.op),
            "time series ops must be monotonic"
        );
        self.samples.push(sample);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn first(&self) -> Option<&Snapshot> {
        self.samples.first()
    }

    pub fn last(&self) -> Option<&Snapshot> {
        self.samples.last()
    }

    /// The trajectory of one metric as `(op, value)` points (samples missing
    /// the metric are skipped).
    pub fn track(&self, name: &str) -> Vec<(u64, f64)> {
        self.samples
            .iter()
            .filter_map(|s| s.get(name).map(|v| (s.op, v.as_f64())))
            .collect()
    }

    /// Delta between first and last sample (`None` with < 2 samples).
    pub fn overall_delta(&self) -> Option<Delta> {
        match (self.samples.first(), self.samples.last()) {
            (Some(first), Some(last)) if self.samples.len() >= 2 => Some(last.delta(first)),
            _ => None,
        }
    }

    /// CSV with `op` first and the union of metric names (sorted) as
    /// columns; samples missing a metric leave the cell empty.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut names: Vec<&str> = Vec::new();
        for s in &self.samples {
            for n in s.names() {
                if let Err(i) = names.binary_search(&n) {
                    names.insert(i, n);
                }
            }
        }
        let mut out = String::from("op");
        for n in &names {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        for s in &self.samples {
            let _ = write!(out, "{}", s.op);
            for n in &names {
                out.push(',');
                match s.get(n) {
                    Some(Value::U64(v)) => {
                        let _ = write!(out, "{v}");
                    }
                    Some(Value::F64(v)) => {
                        let _ = write!(out, "{v}");
                    }
                    None => {}
                }
            }
            out.push('\n');
        }
        out
    }

    /// JSON array of per-sample objects (see [`Snapshot::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Registry;

    fn snap(op: u64, v: u64) -> Snapshot {
        let mut reg = Registry::new();
        reg.gauge_u64("x.count", v);
        reg.gauge_f64("x.rate", v as f64 * 0.5);
        reg.snapshot(op)
    }

    #[test]
    fn track_extracts_trajectory() {
        let mut ts = TimeSeries::new();
        ts.push(snap(0, 1));
        ts.push(snap(100, 4));
        ts.push(snap(200, 9));
        assert_eq!(ts.track("x.count"), vec![(0, 1.0), (100, 4.0), (200, 9.0)]);
        assert!(ts.track("missing").is_empty());
    }

    #[test]
    fn overall_delta_spans_the_run() {
        let mut ts = TimeSeries::new();
        assert!(ts.overall_delta().is_none());
        ts.push(snap(0, 1));
        assert!(ts.overall_delta().is_none());
        ts.push(snap(300, 7));
        let d = ts.overall_delta().unwrap();
        assert_eq!(d.ops, 300);
        assert_eq!(d.get("x.count"), Some(6.0));
    }

    #[test]
    fn csv_has_header_plus_one_row_per_sample() {
        let mut ts = TimeSeries::new();
        ts.push(snap(0, 1));
        ts.push(snap(50, 2));
        let csv = ts.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "op,x.count,x.rate");
        assert_eq!(lines[1], "0,1,0.5");
        assert_eq!(lines[2], "50,2,1");
    }

    #[test]
    fn json_is_a_parseable_array() {
        let mut ts = TimeSeries::new();
        ts.push(snap(0, 1));
        ts.push(snap(10, 2));
        let doc = crate::json::parse(&ts.to_json()).unwrap();
        assert_eq!(doc.as_arr().unwrap().len(), 2);
    }
}
