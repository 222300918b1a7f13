//! Named metrics, failure accounting and the result line.

use std::fmt::Write as _;

use crate::stats::{self, Summary};

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single count or ratio).
    pub n: usize,
}

/// Metrics in the order they were added.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Adds one metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name: both are bugs in this
    /// program, never input-dependent.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(self.get(name).is_none(), "metric {name} added twice");
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            n,
        });
    }

    /// Adds `<base>.p50` and, when the tail rule allows one, the tail
    /// percentile of a timing.
    pub fn add_timing(&mut self, base: &str, summary: &Summary, unit: &'static str) {
        self.add(&format!("{base}.p50"), summary.p50, unit, summary.n);
        if let Some((pm, value)) = summary.tail {
            self.add(
                &format!("{base}.{}", stats::label(pm)),
                value,
                unit,
                summary.n,
            );
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }
}

/// Attempted and failed units of work: cells, chunks, jobs and output
/// checks. Every failure keeps a one-line reason.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one attempted unit, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.reasons.push(what());
        }
    }

    /// Counts `n` attempted units that all succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Failed units over attempted ones (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The machine-read result line: the named metrics of `report`, in the
/// order of `names`. A name the report lacks is written as 0.
pub fn result_json(tally: &Tally, report: &Report, names: &[(&str, &'static str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, &(name, unit)) in names.iter().enumerate() {
        let value = report.get(name).map_or(0.0, |m| m.value);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "chunk_ms.p99",
            "sim.exec_gain_err_pp",
            "a-b",
            "9x",
            "p99.9",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "ms%", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn report_refuses_bad_names() {
        Report::default().add("bad name", 1.0, "s", 1);
    }

    #[test]
    fn failure_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.passed(6);
        t.check(true, || unreachable!("passing checks build no reason"));
        t.check(false, || "chunk 3 errored".into());
        assert_eq!((t.attempted, t.failed), (8, 1));
        assert_eq!(t.failed_frac(), 0.125);
        assert_eq!(t.reasons, vec!["chunk 3 errored".to_string()]);
    }

    #[test]
    fn result_line_lists_requested_metrics() {
        let mut r = Report::default();
        r.add("wall_s", 1.5, "s", 3);
        r.add_timing("chunk_ms", &stats::summarize(&[1.0, 2.0, 3.0]), "ms");
        let mut t = Tally::default();
        t.passed(2);
        let line = result_json(
            &t,
            &r,
            &[("wall_s", "s"), ("chunk_ms.p50", "ms"), ("x", "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"chunk_ms.p50\": {\"value\": 2, \"unit\": \"ms\"}, \
             \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        t.check(false, || "bad".into());
        assert!(result_json(&t, &r, &[]).starts_with("{\"correct\": false"));
    }
}
