//! Per-kind memory-access counters exposing the paper's metrics.
//!
//! The paper's analysis (Tables 1 and 4) distinguishes *which structure* a
//! memory access was for — application data, a guest page-table node, or a
//! host page-table node — and *where it was served from*. Every access
//! through [`crate::CacheHierarchy`] is tagged with an [`AccessKind`] so the
//! simulator can report exactly those rows.

use crate::hierarchy::HitLevel;

/// Which page table an access belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PtKind {
    /// Guest page table (gPT) node.
    Guest,
    /// Host page table (hPT) node.
    Host,
}

/// Classification of a memory access for accounting purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Application data (or instruction) access.
    Data,
    /// Page-table node access during a walk.
    PageTable {
        /// Guest or host table.
        table: PtKind,
        /// Radix level, 0 = root, 3 = leaf.
        level: usize,
    },
}

impl AccessKind {
    /// Convenience constructor for a guest-PT access at `level`.
    pub const fn guest_pt(level: usize) -> Self {
        AccessKind::PageTable {
            table: PtKind::Guest,
            level,
        }
    }

    /// Convenience constructor for a host-PT access at `level`.
    pub const fn host_pt(level: usize) -> Self {
        AccessKind::PageTable {
            table: PtKind::Host,
            level,
        }
    }
}

/// Hit/miss/cycle tallies for one access kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindCounters {
    /// Total accesses of this kind.
    pub accesses: u64,
    /// Accesses served by the L1.
    pub l1_hits: u64,
    /// Accesses served by the L2.
    pub l2_hits: u64,
    /// Accesses served by the LLC.
    pub llc_hits: u64,
    /// Accesses served by main memory.
    pub memory: u64,
    /// Total cycles spent on accesses of this kind.
    pub cycles: u64,
}

impl KindCounters {
    fn record(&mut self, level: HitLevel, cycles: u64) {
        self.accesses += 1;
        self.cycles += cycles;
        match level {
            HitLevel::L1 => self.l1_hits += 1,
            HitLevel::L2 => self.l2_hits += 1,
            HitLevel::Llc => self.llc_hits += 1,
            HitLevel::Memory => self.memory += 1,
        }
    }

    /// Fraction of accesses served by main memory, in `[0, 1]`.
    pub fn memory_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.memory as f64 / self.accesses as f64
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &KindCounters) {
        self.accesses += other.accesses;
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.llc_hits += other.llc_hits;
        self.memory += other.memory;
        self.cycles += other.cycles;
    }
}

/// Aggregated counters for data, guest-PT, and host-PT accesses.
///
/// The accessor methods correspond 1:1 to the rows of the paper's Tables 1
/// and 4.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Application data accesses.
    pub data: KindCounters,
    /// Guest page-table accesses (all levels).
    pub guest_pt: KindCounters,
    /// Host page-table accesses (all levels).
    pub host_pt: KindCounters,
    /// Guest leaf-level (gPTE) accesses only.
    pub guest_leaf: KindCounters,
    /// Host leaf-level (hPTE) accesses only.
    pub host_leaf: KindCounters,
    /// Guest page-table accesses broken down by radix level (0 = root).
    /// This is the paper's §1 analysis: *which* accesses of a nested walk
    /// are served from *where* in the memory hierarchy.
    pub guest_pt_levels: [KindCounters; vmsim_types::PT_LEVELS],
    /// Host page-table accesses broken down by radix level (0 = root).
    pub host_pt_levels: [KindCounters; vmsim_types::PT_LEVELS],
}

impl MemCounters {
    /// Records one access of `kind` served at `level`, costing `cycles`.
    pub fn record(&mut self, kind: AccessKind, level: HitLevel, cycles: u64) {
        match kind {
            AccessKind::Data => self.data.record(level, cycles),
            AccessKind::PageTable {
                table: PtKind::Guest,
                level: pt_level,
            } => {
                self.guest_pt.record(level, cycles);
                self.guest_pt_levels[pt_level].record(level, cycles);
                if pt_level == vmsim_types::PT_LEVELS - 1 {
                    self.guest_leaf.record(level, cycles);
                }
            }
            AccessKind::PageTable {
                table: PtKind::Host,
                level: pt_level,
            } => {
                self.host_pt.record(level, cycles);
                self.host_pt_levels[pt_level].record(level, cycles);
                if pt_level == vmsim_types::PT_LEVELS - 1 {
                    self.host_leaf.record(level, cycles);
                }
            }
        }
    }

    /// "Page walk cycles": cycles spent in all PT accesses (guest + host).
    pub fn page_walk_cycles(&self) -> u64 {
        self.guest_pt.cycles + self.host_pt.cycles
    }

    /// "Cycles spent traversing the host page table".
    pub fn host_pt_cycles(&self) -> u64 {
        self.host_pt.cycles
    }

    /// "Guest page table accesses served by main memory".
    pub fn guest_pt_memory_accesses(&self) -> u64 {
        self.guest_pt.memory
    }

    /// "Host page table accesses served by main memory".
    pub fn host_pt_memory_accesses(&self) -> u64 {
        self.host_pt.memory
    }

    /// Data cache misses (LLC misses on data accesses).
    pub fn data_cache_misses(&self) -> u64 {
        self.data.memory
    }

    /// Total cycles across all accounted accesses.
    pub fn total_cycles(&self) -> u64 {
        self.data.cycles + self.page_walk_cycles()
    }

    /// Merges another counter block into this one.
    pub fn merge(&mut self, other: &MemCounters) {
        self.data.merge(&other.data);
        self.guest_pt.merge(&other.guest_pt);
        self.host_pt.merge(&other.host_pt);
        self.guest_leaf.merge(&other.guest_leaf);
        self.host_leaf.merge(&other.host_leaf);
        for (a, b) in self.guest_pt_levels.iter_mut().zip(&other.guest_pt_levels) {
            a.merge(b);
        }
        for (a, b) in self.host_pt_levels.iter_mut().zip(&other.host_pt_levels) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_route_to_correct_kind() {
        let mut c = MemCounters::default();
        c.record(AccessKind::Data, HitLevel::L1, 4);
        c.record(AccessKind::guest_pt(3), HitLevel::Memory, 200);
        c.record(AccessKind::host_pt(3), HitLevel::Llc, 42);
        c.record(AccessKind::host_pt(0), HitLevel::L2, 12);

        assert_eq!(c.data.accesses, 1);
        assert_eq!(c.guest_pt.accesses, 1);
        assert_eq!(c.host_pt.accesses, 2);
        assert_eq!(c.guest_leaf.accesses, 1);
        assert_eq!(c.host_leaf.accesses, 1);
        assert_eq!(c.guest_pt_levels[3].accesses, 1);
        assert_eq!(c.host_pt_levels[3].accesses, 1);
        assert_eq!(c.host_pt_levels[0].accesses, 1);
        assert_eq!(c.host_pt_levels[1].accesses, 0);
        assert_eq!(c.page_walk_cycles(), 200 + 42 + 12);
        assert_eq!(c.host_pt_cycles(), 54);
        assert_eq!(c.guest_pt_memory_accesses(), 1);
        assert_eq!(c.host_pt_memory_accesses(), 0);
        assert_eq!(c.total_cycles(), 258);
    }

    #[test]
    fn memory_fraction_handles_zero() {
        assert_eq!(KindCounters::default().memory_fraction(), 0.0);
        let mut k = KindCounters::default();
        k.record(HitLevel::Memory, 200);
        k.record(HitLevel::L1, 4);
        assert!((k.memory_fraction() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = MemCounters::default();
        a.record(AccessKind::Data, HitLevel::Memory, 200);
        let mut b = MemCounters::default();
        b.record(AccessKind::Data, HitLevel::L1, 4);
        b.record(AccessKind::host_pt(2), HitLevel::Memory, 200);
        a.merge(&b);
        assert_eq!(a.data.accesses, 2);
        assert_eq!(a.data_cache_misses(), 1);
        assert_eq!(a.host_pt.memory, 1);
    }
}
