//! Counters exposed by the buddy allocator.

/// Cumulative activity counters of a [`crate::BuddyAllocator`].
///
/// `allocated_frames` is a *gauge* (current outstanding frames); all other
/// fields are monotonically increasing counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuddyStats {
    /// Successful allocation calls (any order).
    pub allocs: u64,
    /// Successful free calls (any order).
    pub frees: u64,
    /// Block splits performed to serve allocations.
    pub splits: u64,
    /// Buddy merges performed while freeing.
    pub merges: u64,
    /// Successful targeted (specific-frame) allocations.
    pub targeted_allocs: u64,
    /// Frames currently allocated.
    pub allocated_frames: u64,
}

impl BuddyStats {
    /// Net split pressure: splits minus merges. High values mean the free
    /// lists are being shredded faster than they re-coalesce.
    pub fn net_splits(&self) -> i64 {
        self.splits as i64 - self.merges as i64
    }
}

impl vmsim_obs::MetricSource for BuddyStats {
    fn source_name(&self) -> &'static str {
        "buddy"
    }

    fn emit(&self, out: &mut Vec<vmsim_obs::Metric>) {
        out.push(vmsim_obs::Metric::u64("allocs", self.allocs));
        out.push(vmsim_obs::Metric::u64("frees", self.frees));
        out.push(vmsim_obs::Metric::u64("splits", self.splits));
        out.push(vmsim_obs::Metric::u64("merges", self.merges));
        out.push(vmsim_obs::Metric::u64(
            "targeted_allocs",
            self.targeted_allocs,
        ));
        out.push(vmsim_obs::Metric::u64(
            "allocated_frames",
            self.allocated_frames,
        ));
    }
}

impl core::fmt::Display for BuddyStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "allocs={} frees={} splits={} merges={} outstanding={}",
            self.allocs, self.frees, self.splits, self.merges, self.allocated_frames
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_splits_can_be_negative_or_positive() {
        let s = BuddyStats {
            splits: 3,
            merges: 5,
            ..Default::default()
        };
        assert_eq!(s.net_splits(), -2);
        let s = BuddyStats {
            splits: 5,
            merges: 3,
            ..Default::default()
        };
        assert_eq!(s.net_splits(), 2);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!BuddyStats::default().to_string().is_empty());
    }
}
