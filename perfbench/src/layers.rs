//! Per-layer metrics shared by every simulating workload.
//!
//! Time shares come from the simulator's phase profiler, counts from the
//! public stats getters (a machine's metrics snapshot, or the epoch
//! series a job wrote, which holds the same names), both taken at the
//! same span boundaries.

use vmsim_obs::{Phase, PhaseProfile, Snapshot, PHASE_COUNT};

use crate::report::Report;

/// Snapshot counters the per-layer metrics are built from.
pub const COUNTERS: [&str; 16] = [
    "tlb.lookups",
    "tlb.misses",
    "mem.data.accesses",
    "mem.data.memory",
    "mem.host_pt.memory",
    "guest.faults",
    "guest.allocator_part_lookups",
    "reservation.fallbacks",
    "guest_buddy.allocs",
    "guest_buddy.frees",
    "guest_buddy.splits",
    "guest_buddy.merges",
    "host_buddy.allocs",
    "host_buddy.frees",
    "host_buddy.splits",
    "host_buddy.merges",
];

/// Accumulated profiler time and counters of one traced repetition.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Profiler self time per phase, in discriminant order.
    pub phase_ns: [u64; PHASE_COUNT],
    /// Host time the profiled phases are a share of.
    pub window_ns: u64,
    /// Sums of [`COUNTERS`], in that order.
    pub counters: [u64; COUNTERS.len()],
    /// Walk-memo hits and naive walks, where the machine is in reach.
    pub memo: Option<(u64, u64)>,
    /// Whether the profile covers every guest fault counted, so that
    /// `alloc.us_per_fault` divides like by like.
    pub faults_profiled: bool,
}

impl Layers {
    /// Adds another accumulation's phase time and counters.
    pub fn merge(&mut self, other: &Layers) {
        for (acc, ns) in self.phase_ns.iter_mut().zip(other.phase_ns) {
            *acc += ns;
        }
        for (acc, c) in self.counters.iter_mut().zip(other.counters) {
            *acc += c;
        }
    }

    pub fn add_profile(&mut self, profile: &PhaseProfile) {
        for t in &profile.phases {
            self.phase_ns[t.phase as usize] += t.wall_ns;
        }
    }

    /// Adds the counters of one end-of-run snapshot; `lookup` reads a
    /// counter by snapshot name (absent counters read as 0).
    pub fn add_counters(&mut self, lookup: impl Fn(&str) -> Option<u64>) {
        for (acc, name) in self.counters.iter_mut().zip(COUNTERS) {
            *acc += lookup(name).unwrap_or(0);
        }
    }

    pub fn add_snapshot(&mut self, snapshot: &Snapshot) {
        self.add_counters(|name| snapshot.get(name).and_then(|v| v.as_u64()));
    }

    fn counter(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|&c| c == name)
            .expect("counter is listed in COUNTERS");
        self.counters[i] as f64
    }

    fn self_pct(&self, phase: Phase) -> f64 {
        ratio(self.phase_ns[phase as usize] as f64, self.window_ns as f64) * 100.0
    }

    /// Adds the per-layer metrics of the simulator crates.
    pub fn report(&self, report: &mut Report) {
        let c = |name: &str| self.counter(name);
        report.add(
            "tlb.miss_ratio",
            ratio(c("tlb.misses"), c("tlb.lookups")),
            "ratio",
            1,
        );
        report.add("tlb.self_pct", self.self_pct(Phase::TlbLookup), "%", 1);
        report.add("pwc.self_pct", self.self_pct(Phase::Pwc), "%", 1);
        report.add(
            "cache.data_miss_ratio",
            ratio(c("mem.data.memory"), c("mem.data.accesses")),
            "ratio",
            1,
        );
        report.add(
            "walk.guest_self_pct",
            self.self_pct(Phase::GuestWalk),
            "%",
            1,
        );
        report.add("walk.host_self_pct", self.self_pct(Phase::HostWalk), "%", 1);
        report.add(
            "walk.host_pt_mem_per_miss",
            ratio(c("mem.host_pt.memory"), c("tlb.misses")),
            "count",
            1,
        );
        if let Some((hits, naive)) = self.memo {
            report.add(
                "memo.hit_ratio",
                ratio(hits as f64, (hits + naive) as f64),
                "ratio",
                1,
            );
        }
        report.add("memo.self_pct", self.self_pct(Phase::MemoProbe), "%", 1);
        report.add("os.faults", c("guest.faults"), "count", 1);
        for side in ["guest", "host"] {
            for op in ["allocs", "frees", "splits", "merges"] {
                report.add(
                    &format!("buddy.{side}.{op}"),
                    c(&format!("{side}_buddy.{op}")),
                    "count",
                    1,
                );
            }
        }
        report.add("alloc.self_pct", self.self_pct(Phase::Alloc), "%", 1);
        if self.faults_profiled {
            report.add(
                "alloc.us_per_fault",
                ratio(
                    self.phase_ns[Phase::Alloc as usize] as f64 / 1e3,
                    c("guest.faults"),
                ),
                "us",
                1,
            );
        }
        report.add(
            "part.lookups",
            c("guest.allocator_part_lookups"),
            "count",
            1,
        );
        report.add(
            "reservation.fallbacks",
            c("reservation.fallbacks"),
            "count",
            1,
        );
        report.add(
            "engine.workload_self_pct",
            self.self_pct(Phase::Workload),
            "%",
            1,
        );
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_and_shares_come_from_the_accumulated_parts() {
        let mut l = Layers {
            window_ns: 1_000,
            memo: Some((3, 1)),
            ..Layers::default()
        };
        l.phase_ns[Phase::TlbLookup as usize] = 250;
        l.add_counters(|name| match name {
            "tlb.lookups" => Some(200),
            "tlb.misses" => Some(50),
            _ => None,
        });
        l.add_counters(|name| (name == "tlb.lookups").then_some(200));
        let mut r = Report::default();
        l.report(&mut r);
        assert_eq!(r.get("tlb.miss_ratio").unwrap().value, 0.125);
        assert_eq!(r.get("tlb.self_pct").unwrap().value, 25.0);
        assert_eq!(r.get("memo.hit_ratio").unwrap().value, 0.75);
        assert!(r.get("alloc.us_per_fault").is_none());
        assert_eq!(r.get("walk.host_pt_mem_per_miss").unwrap().value, 0.0);
    }
}
