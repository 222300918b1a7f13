//! Virtual memory areas: eager virtual-address-space allocation.
//!
//! Linux hands out virtual address space eagerly on `mmap()`/`brk()` and
//! physical memory lazily on first touch (paper §2.2). A [`VmaSet`] models
//! the eager half: contiguous, non-overlapping page ranges per process.

use vmsim_types::{GuestVirtPage, MemError, Result};

/// One contiguous region of a process's virtual address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vma {
    /// First page of the region.
    pub start: GuestVirtPage,
    /// Length in pages (never zero).
    pub pages: u64,
    /// Whether the region is writable.
    pub writable: bool,
}

impl Vma {
    /// Exclusive end page of the region.
    pub fn end(&self) -> GuestVirtPage {
        GuestVirtPage::new(self.start.raw() + self.pages)
    }

    /// Whether `vpn` falls inside the region.
    pub fn contains(&self, vpn: GuestVirtPage) -> bool {
        vpn >= self.start && vpn < self.end()
    }

    /// Iterates over every page of the region.
    pub fn iter_pages(&self) -> impl Iterator<Item = GuestVirtPage> {
        self.start.span(self.pages)
    }
}

/// The ordered, non-overlapping set of VMAs of one process.
#[derive(Clone, Debug, Default)]
pub struct VmaSet {
    /// Regions sorted by start page.
    regions: Vec<Vma>,
}

impl VmaSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a region at a fixed address.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidVma`] if `pages` is zero or the region
    /// would overlap an existing one.
    pub fn insert(&mut self, start: GuestVirtPage, pages: u64, writable: bool) -> Result<()> {
        if pages == 0 {
            return Err(MemError::InvalidVma);
        }
        let vma = Vma {
            start,
            pages,
            writable,
        };
        let idx = self.regions.partition_point(|r| r.start < start);
        let overlaps_prev = idx > 0 && self.regions[idx - 1].end() > start;
        let overlaps_next = idx < self.regions.len() && vma.end() > self.regions[idx].start;
        if overlaps_prev || overlaps_next {
            return Err(MemError::InvalidVma);
        }
        self.regions.insert(idx, vma);
        Ok(())
    }

    /// The VMA containing `vpn`, if any.
    pub fn find(&self, vpn: GuestVirtPage) -> Option<&Vma> {
        let idx = self.regions.partition_point(|r| r.start <= vpn);
        idx.checked_sub(1)
            .map(|i| &self.regions[i])
            .filter(|r| r.contains(vpn))
    }

    /// Removes exactly the pages `[start, start + pages)`, splitting VMAs
    /// that straddle the boundary (as `munmap` does).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidVma`] if `pages` is zero or any page in the
    /// range is not covered by a VMA.
    pub fn remove(&mut self, start: GuestVirtPage, pages: u64) -> Result<()> {
        if pages == 0 {
            return Err(MemError::InvalidVma);
        }
        let end = start.raw() + pages;
        // Every page of the range must be covered.
        let mut covered = 0u64;
        for r in &self.regions {
            let lo = r.start.raw().max(start.raw());
            let hi = r.end().raw().min(end);
            if hi > lo {
                covered += hi - lo;
            }
        }
        if covered != pages {
            return Err(MemError::InvalidVma);
        }
        let mut rebuilt = Vec::with_capacity(self.regions.len() + 1);
        for r in self.regions.drain(..) {
            let r_start = r.start.raw();
            let r_end = r.end().raw();
            if r_end <= start.raw() || r_start >= end {
                rebuilt.push(r);
                continue;
            }
            if r_start < start.raw() {
                rebuilt.push(Vma {
                    start: r.start,
                    pages: start.raw() - r_start,
                    writable: r.writable,
                });
            }
            if r_end > end {
                rebuilt.push(Vma {
                    start: GuestVirtPage::new(end),
                    pages: r_end - end,
                    writable: r.writable,
                });
            }
        }
        self.regions = rebuilt;
        Ok(())
    }

    /// Iterates over the regions in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.regions.iter()
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the set has no regions.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Total pages across all regions.
    pub fn total_pages(&self) -> u64 {
        self.regions.iter().map(|r| r.pages).sum()
    }
}

impl<'a> IntoIterator for &'a VmaSet {
    type Item = &'a Vma;
    type IntoIter = core::slice::Iter<'a, Vma>;

    fn into_iter(self) -> Self::IntoIter {
        self.regions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> GuestVirtPage {
        GuestVirtPage::new(n)
    }

    #[test]
    fn insert_and_find() {
        let mut s = VmaSet::new();
        s.insert(page(100), 10, true).unwrap();
        assert!(s.find(page(100)).is_some());
        assert!(s.find(page(109)).is_some());
        assert!(s.find(page(110)).is_none());
        assert!(s.find(page(99)).is_none());
        assert_eq!(s.total_pages(), 10);
    }

    #[test]
    fn zero_length_rejected() {
        let mut s = VmaSet::new();
        assert_eq!(s.insert(page(0), 0, true), Err(MemError::InvalidVma));
        assert_eq!(s.remove(page(0), 0), Err(MemError::InvalidVma));
    }

    #[test]
    fn overlap_rejected() {
        let mut s = VmaSet::new();
        s.insert(page(100), 10, true).unwrap();
        assert!(s.insert(page(105), 10, true).is_err());
        assert!(s.insert(page(95), 10, true).is_err());
        assert!(s.insert(page(100), 10, true).is_err());
        // Adjacent is fine.
        assert!(s.insert(page(110), 5, true).is_ok());
        assert!(s.insert(page(90), 10, true).is_ok());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn remove_whole_region() {
        let mut s = VmaSet::new();
        s.insert(page(100), 10, true).unwrap();
        s.remove(page(100), 10).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn remove_splits_region() {
        let mut s = VmaSet::new();
        s.insert(page(100), 10, true).unwrap();
        s.remove(page(103), 4).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.find(page(102)).is_some());
        assert!(s.find(page(103)).is_none());
        assert!(s.find(page(106)).is_none());
        assert!(s.find(page(107)).is_some());
        assert_eq!(s.total_pages(), 6);
    }

    #[test]
    fn remove_across_regions() {
        let mut s = VmaSet::new();
        s.insert(page(100), 5, true).unwrap();
        s.insert(page(105), 5, true).unwrap();
        s.remove(page(103), 4).unwrap();
        assert_eq!(s.total_pages(), 6);
    }

    #[test]
    fn remove_uncovered_range_fails() {
        let mut s = VmaSet::new();
        s.insert(page(100), 5, true).unwrap();
        assert_eq!(s.remove(page(103), 4), Err(MemError::InvalidVma));
        // Untouched on failure.
        assert_eq!(s.total_pages(), 5);
    }

    #[test]
    fn iter_pages_covers_region() {
        let v = Vma {
            start: page(3),
            pages: 4,
            writable: true,
        };
        let pages: Vec<u64> = v.iter_pages().map(|p| p.raw()).collect();
        assert_eq!(pages, vec![3, 4, 5, 6]);
    }
}
