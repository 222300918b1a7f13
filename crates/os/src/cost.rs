//! Cycle cost model for software events (page faults, allocator calls).
//!
//! Hardware access costs (cache/TLB/DRAM) come from
//! [`vmsim_cache::LatencyModel`]; this model covers the *software* side:
//! entering the fault handler, calling the buddy allocator, and probing
//! PTEMagnet's Page Reservation Table. The §6.4 allocation-latency result —
//! PTEMagnet slightly *faster* because 7 of 8 buddy calls become PaRT hits —
//! falls out of the relative cost of `buddy_call_cycles` vs
//! `part_lookup_cycles`.

/// Cycle costs of software memory-management events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed cost of taking a guest page fault (trap + handler entry/exit).
    pub guest_fault_cycles: u64,
    /// Cost of one call into the buddy allocator (free-list manipulation,
    /// possible splits).
    pub buddy_call_cycles: u64,
    /// Cost of one PaRT radix-tree lookup (PTEMagnet fast path).
    pub part_lookup_cycles: u64,
    /// Fixed cost of a host-side (EPT violation) fault.
    pub host_fault_cycles: u64,
    /// Extra cost of a huge-page (2 MB) fault over a 4 KB fault: clearing
    /// 512 pages instead of one. This first-touch latency spike is one of
    /// the THP performance anomalies §2.3 cites.
    pub huge_fault_extra_cycles: u64,
    /// Base pipeline cost per instruction's memory access, excluding the
    /// memory hierarchy (models non-memory work between accesses).
    pub work_cycles_per_access: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        // The fault cost is dominated by handler entry/exit and page
        // zeroing, with the allocator call a small slice of it — which is
        // why the paper's §6.4 microbenchmark sees only a ~0.5 % allocation
        // speedup from replacing 7 of 8 buddy calls with PaRT lookups.
        Self {
            guest_fault_cycles: 5000,
            buddy_call_cycles: 150,
            part_lookup_cycles: 100,
            host_fault_cycles: 6000,
            huge_fault_extra_cycles: 60_000,
            work_cycles_per_access: 6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_lookup_is_cheaper_than_buddy_call() {
        // The premise of §6.4: replacing buddy calls with PaRT lookups must
        // not slow allocation down.
        let c = CostModel::default();
        assert!(c.part_lookup_cycles < c.buddy_call_cycles);
    }

    #[test]
    fn faults_dominate_single_calls() {
        let c = CostModel::default();
        assert!(c.guest_fault_cycles > c.buddy_call_cycles);
        assert!(c.host_fault_cycles > c.guest_fault_cycles);
    }

    #[test]
    fn huge_faults_are_an_order_of_magnitude_heavier() {
        // Zeroing 2 MB vs 4 KB: the THP first-touch spike.
        let c = CostModel::default();
        assert!(c.huge_fault_extra_cycles > 8 * c.guest_fault_cycles);
    }
}
