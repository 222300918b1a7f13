//! The hypervisor / host-kernel model.
//!
//! With KVM-style virtualization the VM is just a host process, and the VM's
//! guest-physical memory is one contiguous region of that process's virtual
//! address space (paper §3.1): `host-virtual = vm_base + guest-physical`.
//! Host-physical frames back that region lazily, on first access, through
//! the host's own page table — the "host PT" whose cache footprint the paper
//! is about.

use vmsim_buddy::BuddyAllocator;
use vmsim_pt::{PageTable, WalkPath};
use vmsim_types::{GuestFrame, HostFrame, HostVirtPage, MemError, Result};

use crate::frames::FrameRefTable;

/// Host-kernel event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Host-side (EPT-violation-style) faults served.
    pub faults: u64,
}

impl vmsim_obs::MetricSource for HostStats {
    fn source_name(&self) -> &'static str {
        "host"
    }

    fn emit(&self, out: &mut Vec<vmsim_obs::Metric>) {
        out.push(vmsim_obs::Metric::u64("faults", self.faults));
    }
}

/// The host OS: host-physical pool, the VM's host page table, and the
/// guest-physical → host-virtual identity.
#[derive(Debug)]
pub struct HostOs {
    buddy: BuddyAllocator<HostFrame>,
    host_pt: PageTable<HostVirtPage, HostFrame>,
    vm_base: HostVirtPage,
    /// Reference counts for host data frames, indexed by host frame number.
    /// Every mapping installed through the host PT holds one reference;
    /// page-table node frames are owned by the table itself and stay
    /// untracked.
    frame_refs: FrameRefTable,
    stats: HostStats,
}

impl HostOs {
    /// Creates a host managing `total_frames` of host-physical memory, with
    /// the VM's guest-physical range mapped at host-virtual page `vm_base`.
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is zero (no room for the host PT root).
    pub fn new(total_frames: u64, vm_base: HostVirtPage) -> Self {
        let mut buddy = BuddyAllocator::new(total_frames);
        let host_pt = PageTable::new(|| buddy.alloc(0)).expect("host OOM at boot");
        Self {
            buddy,
            host_pt,
            vm_base,
            frame_refs: FrameRefTable::new(total_frames),
            stats: HostStats::default(),
        }
    }

    /// The host-virtual page corresponding to guest frame `gfn`.
    #[inline]
    pub fn hvpn_of(&self, gfn: GuestFrame) -> HostVirtPage {
        HostVirtPage::new(self.vm_base.raw() + gfn.raw())
    }

    /// Base of the VM's guest-physical region in host-virtual space.
    pub fn vm_base(&self) -> HostVirtPage {
        self.vm_base
    }

    /// Looks up the host frame backing `hvpn`, if already faulted in.
    pub fn translate(&self, hvpn: HostVirtPage) -> Option<HostFrame> {
        self.host_pt.translate(hvpn)
    }

    /// Serves a host fault: backs `hvpn` with a fresh order-0 host frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AlreadyMapped`] if the page is already backed and
    /// [`MemError::OutOfMemory`] if the host pool is exhausted.
    pub fn fault(&mut self, hvpn: HostVirtPage) -> Result<HostFrame> {
        if self.host_pt.lookup(hvpn).is_some() {
            return Err(MemError::AlreadyMapped { vpn: hvpn.raw() });
        }
        self.fault_unchecked(hvpn)
    }

    /// [`HostOs::fault`] for a page the caller has just proven unmapped,
    /// skipping the presence re-check's table descent (hot backing path).
    pub(crate) fn fault_unchecked(&mut self, hvpn: HostVirtPage) -> Result<HostFrame> {
        let hfn = self.buddy.alloc(0)?;
        let Self { buddy, host_pt, .. } = self;
        host_pt.map(hvpn, hfn, || buddy.alloc(0))?;
        self.frame_refs.set_one(hfn.raw());
        self.stats.faults += 1;
        Ok(hfn)
    }

    /// Removes the backing of `hvpn`, releasing the host frame once its last
    /// reference drops. Returns the frame that was mapped, if any. The leaf
    /// page-table nodes stay allocated — the slot can be re-faulted cheaply,
    /// which is exactly what happens when a VM slot is recycled.
    pub fn unback_page(&mut self, hvpn: HostVirtPage) -> Option<HostFrame> {
        let pte = self.host_pt.take(hvpn)?;
        let hfn = pte.frame();
        if self.frame_refs.decr(hfn.raw()) == 0 {
            self.buddy
                .free(hfn, 0)
                .expect("host data frames are order-0 buddy allocations");
        }
        Some(hfn)
    }

    /// Returns the host frame backing guest frame `gfn`, faulting it in if
    /// needed. The boolean reports whether a fault occurred.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if a needed fault cannot be served.
    pub fn back_guest_frame(&mut self, gfn: GuestFrame) -> Result<(HostFrame, bool)> {
        self.back_page(self.hvpn_of(gfn))
    }

    /// Returns the host frame backing host-virtual page `hvpn`, faulting it
    /// in if needed — the general form of [`HostOs::back_guest_frame`] used
    /// by multi-tenant hosts where each VM has its own base.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if a needed fault cannot be served.
    pub fn back_page(&mut self, hvpn: HostVirtPage) -> Result<(HostFrame, bool)> {
        if let Some(hfn) = self.translate(hvpn) {
            return Ok((hfn, false));
        }
        Ok((self.fault_unchecked(hvpn)?, true))
    }

    /// The host page table's walk path for `hvpn` (entry addresses are
    /// host-physical).
    pub fn walk_path(&self, hvpn: HostVirtPage) -> WalkPath<HostFrame> {
        self.host_pt.walk_path(hvpn)
    }

    /// Single-descent combination of [`HostOs::walk_path`] and
    /// [`HostOs::translate`].
    pub fn walk_translate(&self, hvpn: HostVirtPage) -> (WalkPath<HostFrame>, Option<HostFrame>) {
        self.host_pt.walk_translate(hvpn)
    }

    /// Host-physical byte address of the host PTE for `hvpn`, if its leaf
    /// node exists. The cache line of this address is what the host-PT
    /// fragmentation metric counts.
    pub fn hpte_addr_raw(&self, hvpn: HostVirtPage) -> Option<u64> {
        self.host_pt.pte_addr_raw(hvpn)
    }

    /// The host page table.
    pub fn host_pt(&self) -> &PageTable<HostVirtPage, HostFrame> {
        &self.host_pt
    }

    /// The host-physical buddy allocator.
    pub fn buddy(&self) -> &BuddyAllocator<HostFrame> {
        &self.buddy
    }

    /// Host event counters.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// The host-frame reference-count table.
    pub fn frame_refs(&self) -> &FrameRefTable {
        &self.frame_refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostOs {
        HostOs::new(4096, HostVirtPage::new(0x10_0000))
    }

    #[test]
    fn hvpn_is_vm_base_plus_gfn() {
        let h = host();
        assert_eq!(h.hvpn_of(GuestFrame::new(5)).raw(), 0x10_0000 + 5);
    }

    #[test]
    fn fault_backs_page_once() {
        let mut h = host();
        let hvpn = HostVirtPage::new(0x10_0000);
        let hfn = h.fault(hvpn).unwrap();
        assert_eq!(h.translate(hvpn), Some(hfn));
        assert!(matches!(h.fault(hvpn), Err(MemError::AlreadyMapped { .. })));
        assert_eq!(h.stats().faults, 1);
    }

    #[test]
    fn back_guest_frame_is_idempotent() {
        let mut h = host();
        let (a, faulted_a) = h.back_guest_frame(GuestFrame::new(3)).unwrap();
        let (b, faulted_b) = h.back_guest_frame(GuestFrame::new(3)).unwrap();
        assert_eq!(a, b);
        assert!(faulted_a);
        assert!(!faulted_b);
    }

    #[test]
    fn contiguous_gfns_get_adjacent_hptes() {
        // Host PTE locality depends only on guest-physical contiguity: the
        // hPTEs of adjacent gfns sit 8 bytes apart in the same leaf node.
        let mut h = host();
        h.back_guest_frame(GuestFrame::new(8)).unwrap();
        h.back_guest_frame(GuestFrame::new(9)).unwrap();
        let a = h.hpte_addr_raw(h.hvpn_of(GuestFrame::new(8))).unwrap();
        let b = h.hpte_addr_raw(h.hvpn_of(GuestFrame::new(9))).unwrap();
        assert_eq!(b - a, 8);
        assert_eq!(a / 64, b / 64, "same cache line");
    }

    #[test]
    fn scattered_gfns_get_scattered_hptes() {
        let mut h = host();
        h.back_guest_frame(GuestFrame::new(0)).unwrap();
        h.back_guest_frame(GuestFrame::new(64)).unwrap();
        let a = h.hpte_addr_raw(h.hvpn_of(GuestFrame::new(0))).unwrap();
        let b = h.hpte_addr_raw(h.hvpn_of(GuestFrame::new(64))).unwrap();
        assert_ne!(a / 64, b / 64, "different cache lines");
    }

    #[test]
    fn host_oom_propagates_cleanly() {
        // 4 frames: root node takes one; first fault takes a data frame and
        // up to 3 PT nodes — the pool runs dry mid-mapping and the error
        // surfaces instead of panicking.
        let mut h = HostOs::new(4, HostVirtPage::new(0x10_0000));
        let r = h.fault(HostVirtPage::new(0x10_0000));
        assert!(matches!(r, Err(MemError::OutOfMemory { .. })));
    }

    #[test]
    fn distant_hvpns_live_in_distinct_leaf_nodes() {
        let mut h = HostOs::new(4096, HostVirtPage::new(0));
        h.fault(HostVirtPage::new(0)).unwrap();
        h.fault(HostVirtPage::new(512)).unwrap();
        let a = h.hpte_addr_raw(HostVirtPage::new(0)).unwrap();
        let b = h.hpte_addr_raw(HostVirtPage::new(512)).unwrap();
        assert_ne!(a >> 12, b >> 12, "different leaf node frames");
    }

    #[test]
    fn stats_and_accessors_are_consistent() {
        let mut h = host();
        assert_eq!(h.vm_base().raw(), 0x10_0000);
        assert_eq!(h.stats().faults, 0);
        h.back_guest_frame(GuestFrame::new(0)).unwrap();
        h.back_guest_frame(GuestFrame::new(1)).unwrap();
        assert_eq!(h.stats().faults, 2);
        assert_eq!(h.host_pt().stats().mapped_pages, 2);
        // Host pool accounting: 2 data frames + root + walk nodes.
        let used = h.buddy().total_frames() - h.buddy().free_frames();
        assert!(used >= 2 + 1 + 3);
    }

    #[test]
    fn unback_releases_frame_and_refcount() {
        let mut h = host();
        let hvpn = h.hvpn_of(GuestFrame::new(7));
        let (hfn, faulted) = h.back_page(hvpn).unwrap();
        assert!(faulted);
        assert_eq!(h.frame_refs().get(hfn.raw()), 1);
        let free_before = h.buddy().free_frames();
        assert_eq!(h.unback_page(hvpn), Some(hfn));
        assert_eq!(h.frame_refs().get(hfn.raw()), 0);
        assert_eq!(h.buddy().free_frames(), free_before + 1);
        assert_eq!(h.translate(hvpn), None);
        assert_eq!(h.unback_page(hvpn), None, "second unback is a no-op");
        // The slot can be re-faulted afterwards, reusing the leaf node.
        let (hfn2, refaulted) = h.back_page(hvpn).unwrap();
        assert!(refaulted);
        assert_eq!(h.frame_refs().get(hfn2.raw()), 1);
    }

    #[test]
    fn walk_path_exists_after_fault() {
        let mut h = host();
        let hvpn = h.hvpn_of(GuestFrame::new(1));
        assert!(!h.walk_path(hvpn).complete);
        h.fault(hvpn).unwrap();
        assert!(h.walk_path(hvpn).complete);
    }
}
