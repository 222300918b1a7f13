//! Phase-attributed self-profiler: hierarchical spans with static phase
//! IDs and array-indexed accumulators.
//!
//! The profiler answers "where did the cycles — simulated *and*
//! wall-clock — go?" for one run. Hot paths hold an `Option<Profiler>`
//! exactly like the event tracer: the disabled path is a single branch,
//! so a profiled run's `RunMetrics` stay bit-identical to an unprofiled
//! one. Phases form a static tree ([`Phase::parent`]); `begin`/`end`
//! accrue *self time* — the elapsed wall clock since the previous
//! transition is charged to whichever phase was on top of the stack —
//! so nested spans never double-count. Simulated cycles are charged
//! explicitly at the site that computes them ([`Profiler::add_cycles`]),
//! keeping the deterministic and wall-clock ledgers independent.
//!
//! A finished run exports a [`PhaseProfile`]: JSON for machines and a
//! flamegraph-style folded-stacks text file (`path;to;phase value`) for
//! humans. Wall numbers are informational (they vary run to run); the
//! `cycles` and `enters` columns are deterministic and safe to diff.

use crate::json;
use std::fmt::Write as _;
use std::time::Instant;

/// A static phase ID. The discriminant indexes the accumulator arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// TLB lookup on the translation fast path.
    TlbLookup = 0,
    /// Memo-table probe (fingerprint check + replay).
    MemoProbe = 1,
    /// Page-walk-cache lookups (guest and host PWC).
    Pwc = 2,
    /// The guest dimension of the 2D nested walk.
    GuestWalk = 3,
    /// Host walks resolving guest-PT and data frames (child of guest_walk).
    HostWalk = 4,
    /// Fill work after a slow walk: memo fill, TLB/PWC inserts.
    Fill = 5,
    /// Page-fault service: buddy allocation, reservations, COW breaks.
    Alloc = 6,
    /// The injected-fault driver (shocks, storms, swap-outs, daemon).
    FaultDriver = 7,
    /// Engine-side work: op generation and dispatch between touches.
    Workload = 8,
    /// Epoch sampling (registry snapshots) in the measured loop.
    Sample = 9,
}

/// Number of phases (size of the accumulator arrays).
pub const PHASE_COUNT: usize = 10;

impl Phase {
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::TlbLookup,
        Phase::MemoProbe,
        Phase::Pwc,
        Phase::GuestWalk,
        Phase::HostWalk,
        Phase::Fill,
        Phase::Alloc,
        Phase::FaultDriver,
        Phase::Workload,
        Phase::Sample,
    ];

    /// Stable schema name (JSON key and folded-stack frame).
    pub fn name(self) -> &'static str {
        match self {
            Phase::TlbLookup => "tlb_lookup",
            Phase::MemoProbe => "memo_probe",
            Phase::Pwc => "pwc",
            Phase::GuestWalk => "guest_walk",
            Phase::HostWalk => "host_walk",
            Phase::Fill => "fill",
            Phase::Alloc => "alloc",
            Phase::FaultDriver => "fault_driver",
            Phase::Workload => "workload",
            Phase::Sample => "sample",
        }
    }

    /// Static hierarchy for folded-stack export. PWC probes and host
    /// walks happen inside the guest walk; everything else is a root.
    pub fn parent(self) -> Option<Phase> {
        match self {
            Phase::Pwc | Phase::HostWalk => Some(Phase::GuestWalk),
            _ => None,
        }
    }

    /// Semicolon-joined path from the root to this phase
    /// (`"guest_walk;pwc"`), the folded-stacks line prefix.
    pub fn path(self) -> String {
        match self.parent() {
            Some(p) => format!("{};{}", p.path(), self.name()),
            None => self.name().to_string(),
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulating span profiler for one run.
///
/// Install on a machine before the measured phase, drive it via
/// `begin`/`end`/`add_cycles` from instrumented sites, then consume it
/// with [`Profiler::finish`] to obtain the exported [`PhaseProfile`].
#[derive(Clone, Debug)]
pub struct Profiler {
    wall_ns: [u64; PHASE_COUNT],
    cycles: [u64; PHASE_COUNT],
    enters: [u64; PHASE_COUNT],
    stack: Vec<Phase>,
    last: Instant,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    pub fn new() -> Self {
        Profiler {
            wall_ns: [0; PHASE_COUNT],
            cycles: [0; PHASE_COUNT],
            enters: [0; PHASE_COUNT],
            stack: Vec::with_capacity(8),
            last: Instant::now(),
        }
    }

    /// Charge elapsed wall time to the phase currently on top (if any)
    /// and reset the accrual clock.
    #[inline]
    fn accrue(&mut self) {
        let now = Instant::now();
        if let Some(&top) = self.stack.last() {
            self.wall_ns[top.index()] +=
                u64::try_from(now.duration_since(self.last).as_nanos()).unwrap_or(u64::MAX);
        }
        self.last = now;
    }

    /// Enter a phase span. Elapsed time since the previous transition is
    /// charged to the enclosing span (self-time semantics).
    #[inline]
    pub fn begin(&mut self, phase: Phase) {
        self.accrue();
        self.enters[phase.index()] += 1;
        self.stack.push(phase);
    }

    /// Leave the innermost span, charging its trailing self-time.
    #[inline]
    pub fn end(&mut self) {
        self.accrue();
        debug_assert!(!self.stack.is_empty(), "Profiler::end without begin");
        self.stack.pop();
    }

    /// Charge simulated cycles to a phase (flat, no stack involved).
    #[inline]
    pub fn add_cycles(&mut self, phase: Phase, cycles: u64) {
        self.cycles[phase.index()] += cycles;
    }

    /// Span depth (0 when idle). Exposed for tests.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Consume the profiler into an exportable profile. `total_wall_ns`
    /// is the caller-measured wall time of the window being attributed
    /// (the unattributed remainder is reported explicitly, never
    /// invented). Any spans still open are closed and charged first.
    pub fn finish(mut self, total_wall_ns: u64) -> PhaseProfile {
        while !self.stack.is_empty() {
            self.end();
        }
        let phases = Phase::ALL
            .iter()
            .map(|&phase| PhaseTotals {
                phase,
                wall_ns: self.wall_ns[phase.index()],
                cycles: self.cycles[phase.index()],
                enters: self.enters[phase.index()],
            })
            .collect();
        PhaseProfile {
            total_wall_ns,
            phases,
        }
    }
}

/// Accumulated totals for one phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseTotals {
    pub phase: Phase,
    /// Wall-clock self-time (informational; varies run to run).
    pub wall_ns: u64,
    /// Simulated cycles charged to this phase (deterministic).
    pub cycles: u64,
    /// Span entries (deterministic).
    pub enters: u64,
}

/// The exported result of one profiled run: per-phase totals plus the
/// externally measured wall time of the attributed window.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseProfile {
    /// Caller-measured wall time of the profiled window, in ns.
    pub total_wall_ns: u64,
    /// Totals for every phase, in discriminant order.
    pub phases: Vec<PhaseTotals>,
}

impl PhaseProfile {
    /// Totals for one phase.
    pub fn get(&self, phase: Phase) -> &PhaseTotals {
        &self.phases[phase.index()]
    }

    /// Wall time attributed to named phases.
    pub fn attributed_wall_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.wall_ns).sum()
    }

    /// Measured wall time not covered by any span (clock skew between
    /// the caller's stopwatch and span accrual can make attribution
    /// slightly exceed the total; that clamps to 0).
    pub fn unattributed_wall_ns(&self) -> u64 {
        self.total_wall_ns.saturating_sub(self.attributed_wall_ns())
    }

    /// Fraction of the measured window attributed to named phases,
    /// clamped to 1.0. Returns 1.0 for an empty (zero-length) window.
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_wall_ns == 0 {
            return 1.0;
        }
        (self.attributed_wall_ns() as f64 / self.total_wall_ns as f64).min(1.0)
    }

    /// Single-line JSON object:
    /// `{"schema":"vmsim-profile-v1","total_wall_ns":N,...,"phases":{...}}`.
    /// Phase objects carry deterministic `cycles`/`enters` alongside the
    /// informational `wall_ns`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.phases.len() * 64);
        let _ = write!(
            out,
            "{{\"schema\":\"vmsim-profile-v1\",\"total_wall_ns\":{},\
             \"attributed_wall_ns\":{},\"unattributed_wall_ns\":{},\"phases\":{{",
            self.total_wall_ns,
            self.attributed_wall_ns(),
            self.unattributed_wall_ns()
        );
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, p.phase.name());
            let _ = write!(
                out,
                ":{{\"wall_ns\":{},\"cycles\":{},\"enters\":{}}}",
                p.wall_ns, p.cycles, p.enters
            );
        }
        out.push_str("}}");
        out
    }

    /// Flamegraph-style folded stacks: one `path;to;phase value` line
    /// per phase with nonzero wall self-time (value in ns), plus an
    /// explicit `unattributed` line for the measured remainder.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for p in &self.phases {
            if p.wall_ns > 0 {
                let _ = writeln!(out, "{} {}", p.phase.path(), p.wall_ns);
            }
        }
        let rest = self.unattributed_wall_ns();
        if rest > 0 {
            let _ = writeln!(out, "unattributed {rest}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_with(wall: &[(Phase, u64)], total: u64) -> PhaseProfile {
        let mut p = Profiler::new().finish(total);
        for &(phase, ns) in wall {
            p.phases[phase as usize].wall_ns = ns;
        }
        p
    }

    #[test]
    fn phase_names_and_paths_follow_the_static_tree() {
        assert_eq!(Phase::Pwc.path(), "guest_walk;pwc");
        assert_eq!(Phase::HostWalk.path(), "guest_walk;host_walk");
        assert_eq!(Phase::TlbLookup.path(), "tlb_lookup");
        // Names are unique (they become JSON keys and folded frames).
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
    }

    #[test]
    fn spans_count_enters_and_close_in_lifo_order() {
        let mut prof = Profiler::new();
        prof.begin(Phase::GuestWalk);
        prof.begin(Phase::Pwc);
        assert_eq!(prof.depth(), 2);
        prof.end();
        prof.begin(Phase::HostWalk);
        prof.end();
        prof.end();
        assert_eq!(prof.depth(), 0);
        let profile = prof.finish(0);
        assert_eq!(profile.get(Phase::GuestWalk).enters, 1);
        assert_eq!(profile.get(Phase::Pwc).enters, 1);
        assert_eq!(profile.get(Phase::HostWalk).enters, 1);
        assert_eq!(profile.get(Phase::TlbLookup).enters, 0);
    }

    #[test]
    fn add_cycles_is_flat_and_deterministic() {
        let mut prof = Profiler::new();
        prof.add_cycles(Phase::GuestWalk, 40);
        prof.add_cycles(Phase::GuestWalk, 2);
        prof.add_cycles(Phase::Fill, 7);
        let profile = prof.finish(0);
        assert_eq!(profile.get(Phase::GuestWalk).cycles, 42);
        assert_eq!(profile.get(Phase::Fill).cycles, 7);
        assert_eq!(profile.get(Phase::Alloc).cycles, 0);
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let mut prof = Profiler::new();
        prof.begin(Phase::Workload);
        prof.begin(Phase::TlbLookup);
        let profile = prof.finish(1_000);
        assert_eq!(profile.get(Phase::Workload).enters, 1);
        assert_eq!(profile.get(Phase::TlbLookup).enters, 1);
    }

    #[test]
    fn nested_spans_accrue_self_time_without_double_counting() {
        let mut prof = Profiler::new();
        prof.begin(Phase::GuestWalk);
        std::thread::sleep(std::time::Duration::from_millis(2));
        prof.begin(Phase::HostWalk);
        std::thread::sleep(std::time::Duration::from_millis(2));
        prof.end();
        prof.end();
        let profile = prof.finish(u64::MAX);
        let outer = profile.get(Phase::GuestWalk).wall_ns;
        let inner = profile.get(Phase::HostWalk).wall_ns;
        assert!(outer > 0, "outer span accrued no self-time");
        assert!(inner > 0, "inner span accrued no self-time");
        // Self-time semantics: the two spans partition the elapsed wall
        // time; each must be under the ~4ms total, not nested copies.
        let wall: u64 = profile.attributed_wall_ns();
        assert_eq!(wall, outer + inner);
    }

    #[test]
    fn attribution_math_reports_the_remainder_explicitly() {
        let p = profile_with(&[(Phase::TlbLookup, 600), (Phase::Fill, 300)], 1_000);
        assert_eq!(p.attributed_wall_ns(), 900);
        assert_eq!(p.unattributed_wall_ns(), 100);
        assert!((p.attributed_fraction() - 0.9).abs() < 1e-9);
        // Over-attribution (stopwatch skew) clamps instead of wrapping.
        let over = profile_with(&[(Phase::TlbLookup, 1_500)], 1_000);
        assert_eq!(over.unattributed_wall_ns(), 0);
        assert!((over.attributed_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn json_export_parses_and_carries_all_phases() {
        let mut prof = Profiler::new();
        prof.begin(Phase::MemoProbe);
        prof.add_cycles(Phase::MemoProbe, 5);
        prof.end();
        let profile = prof.finish(123);
        let doc = json::parse(&profile.to_json()).expect("profile JSON parses");
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("vmsim-profile-v1")
        );
        assert_eq!(doc.get("total_wall_ns").unwrap().as_u64(), Some(123));
        let phases = doc.get("phases").unwrap();
        for phase in Phase::ALL {
            assert!(
                phases.get(phase.name()).is_some(),
                "missing phase {}",
                phase.name()
            );
        }
        assert_eq!(
            phases
                .get("memo_probe")
                .unwrap()
                .get("cycles")
                .unwrap()
                .as_u64(),
            Some(5)
        );
    }

    #[test]
    fn folded_export_lists_paths_and_the_remainder() {
        let p = profile_with(
            &[
                (Phase::Pwc, 250),
                (Phase::GuestWalk, 500),
                (Phase::Workload, 100),
            ],
            1_000,
        );
        let folded = p.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"guest_walk 500"), "{folded}");
        assert!(lines.contains(&"guest_walk;pwc 250"), "{folded}");
        assert!(lines.contains(&"workload 100"), "{folded}");
        assert!(lines.contains(&"unattributed 150"), "{folded}");
        // Zero-valued phases are omitted.
        assert!(!folded.contains("tlb_lookup"), "{folded}");
    }
}
