//! Guest processes.

use vmsim_pt::PageTable;
use vmsim_types::{GuestFrame, GuestVirtPage};

use crate::vma::VmaSet;

/// A guest process identifier (also used as the TLB ASID).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Pid(pub u64);

impl core::fmt::Display for Pid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Default base of the mmap area, in pages (0x7f00_0000_0000 >> 12).
pub(crate) const MMAP_BASE: u64 = 0x7f00_0000_0000 >> vmsim_types::PAGE_SHIFT;

/// One guest process: its address space layout and page table.
///
/// The page table's nodes live in guest-physical frames taken from the guest
/// buddy allocator, so PT memory competes with data memory exactly as in a
/// real kernel.
#[derive(Clone, Debug)]
pub struct Process {
    /// Process identifier.
    pub pid: Pid,
    /// Eagerly allocated virtual regions.
    pub vmas: VmaSet,
    /// The process page table (guest-virtual → guest-physical).
    pub page_table: PageTable<GuestVirtPage, GuestFrame>,
    /// Bump cursor for placing new mmap regions, in pages.
    pub(crate) mmap_cursor: u64,
    /// Parent process, if this process was forked.
    pub parent: Option<Pid>,
    /// Resident pages (mapped in the page table).
    pub rss_pages: u64,
}

impl Process {
    /// Creates a process with an empty address space.
    ///
    /// `pt_root_alloc` supplies the frame for the page-table root node.
    pub fn new(
        pid: Pid,
        pt_root_alloc: impl FnMut() -> vmsim_types::Result<GuestFrame>,
    ) -> vmsim_types::Result<Self> {
        Ok(Self {
            pid,
            vmas: VmaSet::new(),
            page_table: PageTable::new(pt_root_alloc)?,
            mmap_cursor: MMAP_BASE,
            parent: None,
            rss_pages: 0,
        })
    }

    /// Reserves the next `pages`-page region of virtual address space,
    /// separated from the previous region by one guard page (so independent
    /// allocations never share a reservation group by accident).
    pub(crate) fn place_mmap(&mut self, pages: u64) -> GuestVirtPage {
        // Align each region to a reservation-group boundary, as glibc's mmap
        // threshold behaviour effectively does for large allocations.
        let aligned =
            (self.mmap_cursor + vmsim_types::GROUP_PAGES - 1) & !(vmsim_types::GROUP_PAGES - 1);
        self.mmap_cursor = aligned + pages + 1;
        GuestVirtPage::new(aligned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bump_alloc() -> impl FnMut() -> vmsim_types::Result<GuestFrame> {
        let mut next = 0u64;
        move || {
            next += 1;
            Ok(GuestFrame::new(next - 1))
        }
    }

    #[test]
    fn new_process_is_empty() {
        let p = Process::new(Pid(1), bump_alloc()).unwrap();
        assert!(p.vmas.is_empty());
        assert_eq!(p.rss_pages, 0);
        assert_eq!(p.page_table.stats().mapped_pages, 0);
        assert_eq!(p.parent, None);
    }

    #[test]
    fn mmap_placement_is_group_aligned_and_disjoint() {
        let mut p = Process::new(Pid(1), bump_alloc()).unwrap();
        let a = p.place_mmap(5);
        let b = p.place_mmap(3);
        assert_eq!(a.raw() % vmsim_types::GROUP_PAGES, 0);
        assert_eq!(b.raw() % vmsim_types::GROUP_PAGES, 0);
        assert!(b.raw() >= a.raw() + 5);
    }

    #[test]
    fn pid_displays_readably() {
        assert_eq!(Pid(7).to_string(), "pid7");
    }
}
