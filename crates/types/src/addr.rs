//! Strongly-typed addresses and page numbers for the four address spaces.
//!
//! Under virtualization there are four distinct spaces (paper §2.5, §3.1):
//!
//! | Space | Byte address | Page number | Who manages it |
//! |---|---|---|---|
//! | guest-virtual | [`GuestVirtAddr`] | [`GuestVirtPage`] | application + guest OS |
//! | guest-physical | [`GuestPhysAddr`] | [`GuestFrame`] | guest OS buddy allocator |
//! | host-virtual | [`HostVirtAddr`] | [`HostVirtPage`] | host OS (VM is a process) |
//! | host-physical | [`HostPhysAddr`] | [`HostFrame`] | host OS buddy allocator |
//!
//! The KVM identity `host-virtual = vm_base + guest-physical` is a property of
//! a concrete VM layout and lives in `vmsim-os`; this crate only provides the
//! type distinctions and intra-space arithmetic.

use crate::page::{GROUP_PAGES, PAGE_SHIFT, PAGE_SIZE};

/// Abstraction over the page-number newtypes of all four address spaces.
///
/// Lets space-agnostic components (e.g. the buddy allocator in `vmsim-buddy`,
/// which manages both guest-physical and host-physical memory) stay generic
/// while callers keep full type safety.
///
/// This trait is sealed in spirit: it is only intended for the page-number
/// types defined in this module.
pub trait PageNumber:
    Copy + Clone + Eq + Ord + core::hash::Hash + core::fmt::Debug + Send + Sync + 'static
{
    /// Wraps a raw page number.
    fn from_raw(raw: u64) -> Self;
    /// Returns the raw page number.
    fn to_raw(self) -> u64;
}

macro_rules! address_space {
    (
        $(#[$addr_meta:meta])*
        addr $addr:ident,
        $(#[$page_meta:meta])*
        page $page:ident
    ) => {
        $(#[$addr_meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $addr(u64);

        impl $addr {
            /// Wraps a raw byte address.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw byte address.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the page containing this address.
            #[inline]
            pub const fn page(self) -> $page {
                $page(self.0 >> PAGE_SHIFT)
            }

            /// Byte offset of this address within its page.
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 & (PAGE_SIZE - 1)
            }

            /// Index of the 64-byte cache line containing this address.
            #[inline]
            pub const fn cache_line(self) -> u64 {
                self.0 >> crate::page::CACHE_LINE_SHIFT
            }

            /// Returns the address `bytes` past this one, or `None` on overflow.
            #[inline]
            pub fn checked_add(self, bytes: u64) -> Option<Self> {
                self.0.checked_add(bytes).map(Self)
            }
        }

        impl core::fmt::Debug for $addr {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, concat!(stringify!($addr), "({:#x})"), self.0)
            }
        }

        impl core::fmt::Display for $addr {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl core::fmt::LowerHex for $addr {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                core::fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl core::ops::Add<u64> for $addr {
            type Output = $addr;

            /// Offsets the address by `bytes`.
            ///
            /// # Panics
            ///
            /// Panics on overflow in debug builds (standard integer
            /// semantics); use [`Self::checked_add`] to handle overflow.
            #[inline]
            fn add(self, bytes: u64) -> $addr {
                $addr(self.0 + bytes)
            }
        }

        impl core::ops::AddAssign<u64> for $addr {
            #[inline]
            fn add_assign(&mut self, bytes: u64) {
                self.0 += bytes;
            }
        }

        impl From<$page> for $addr {
            /// Converts a page number to the base address of the page.
            #[inline]
            fn from(p: $page) -> Self {
                p.base_addr()
            }
        }

        $(#[$page_meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $page(u64);

        impl $page {
            /// Wraps a raw page number.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw page number.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Base byte address of this page.
            #[inline]
            pub const fn base_addr(self) -> $addr {
                $addr(self.0 << PAGE_SHIFT)
            }

            /// First page of the aligned 8-page reservation group containing
            /// this page (PTEMagnet group geometry, paper §4.1).
            #[inline]
            pub const fn group_base(self) -> Self {
                Self(self.0 & !(GROUP_PAGES - 1))
            }

            /// Index of this page within its 8-page reservation group.
            #[inline]
            pub const fn group_offset(self) -> u64 {
                self.0 & (GROUP_PAGES - 1)
            }

            /// Identifier of the aligned 8-page group containing this page.
            #[inline]
            pub const fn group_id(self) -> u64 {
                self.0 >> crate::page::GROUP_SHIFT
            }

            /// Page-table index used at `level` (0 = root, 3 = leaf).
            ///
            /// # Panics
            ///
            /// Panics if `level >= PT_LEVELS`.
            #[inline]
            pub fn pt_index(self, level: usize) -> u64 {
                crate::page::pt_index(self.0, level)
            }

            /// Returns the page `n` pages after this one, or `None` on overflow.
            #[inline]
            pub fn checked_add(self, n: u64) -> Option<Self> {
                self.0.checked_add(n).map(Self)
            }

            /// Iterates over `count` consecutive pages starting at this one.
            pub fn span(self, count: u64) -> impl Iterator<Item = $page> {
                (self.0..self.0 + count).map($page)
            }
        }

        impl core::fmt::Debug for $page {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, concat!(stringify!($page), "({:#x})"), self.0)
            }
        }

        impl core::fmt::Display for $page {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl From<$addr> for $page {
            /// Converts an address to the number of the page containing it.
            #[inline]
            fn from(a: $addr) -> Self {
                a.page()
            }
        }

        impl core::ops::Add<u64> for $page {
            type Output = $page;

            /// Offsets the page number by `pages`.
            ///
            /// # Panics
            ///
            /// Panics on overflow in debug builds; use
            /// [`Self::checked_add`] to handle overflow.
            #[inline]
            fn add(self, pages: u64) -> $page {
                $page(self.0 + pages)
            }
        }

        impl core::ops::AddAssign<u64> for $page {
            #[inline]
            fn add_assign(&mut self, pages: u64) {
                self.0 += pages;
            }
        }

        impl PageNumber for $page {
            #[inline]
            fn from_raw(raw: u64) -> Self {
                Self::new(raw)
            }

            #[inline]
            fn to_raw(self) -> u64 {
                self.raw()
            }
        }
    };
}

address_space! {
    /// A byte address in the guest-virtual address space (what applications
    /// inside the VM see).
    addr GuestVirtAddr,
    /// A guest-virtual page number (gvpn).
    page GuestVirtPage
}

address_space! {
    /// A byte address in the guest-physical address space (what the guest OS
    /// buddy allocator manages).
    addr GuestPhysAddr,
    /// A guest-physical frame number (gfn).
    page GuestFrame
}

address_space! {
    /// A byte address in the host-virtual address space of the VM process
    /// (the host OS view of guest-physical memory, §3.1).
    addr HostVirtAddr,
    /// A host-virtual page number (hvpn).
    page HostVirtPage
}

address_space! {
    /// A byte address in host-physical memory (actual machine DRAM).
    addr HostPhysAddr,
    /// A host-physical frame number (hfn).
    page HostFrame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{GROUP_PAGES, PAGE_SIZE};

    #[test]
    fn addr_page_round_trip() {
        let a = GuestVirtAddr::new(0x1234_5678);
        assert_eq!(a.page().raw(), 0x1234_5678 >> 12);
        assert_eq!(a.page_offset(), 0x678);
        assert_eq!(a.page().base_addr().raw(), 0x1234_5000);
    }

    #[test]
    fn group_math() {
        let p = GuestVirtPage::new(13);
        assert_eq!(p.group_base().raw(), 8);
        assert_eq!(p.group_offset(), 5);
        assert_eq!(p.group_id(), 1);
        // A full group spans GROUP_PAGES consecutive pages.
        let group: Vec<_> = p.group_base().span(GROUP_PAGES).collect();
        assert_eq!(group.len(), 8);
        assert!(group.iter().all(|q| q.group_id() == p.group_id()));
    }

    #[test]
    fn cache_line_of_address() {
        let a = HostPhysAddr::new(0x1000 + 65);
        assert_eq!(a.cache_line(), (0x1000 + 65) / 64);
    }

    #[test]
    fn conversions_via_from() {
        let p = HostFrame::new(7);
        let a: HostPhysAddr = p.into();
        assert_eq!(a.raw(), 7 * PAGE_SIZE);
        let back: HostFrame = a.into();
        assert_eq!(back, p);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(GuestVirtAddr::new(u64::MAX).checked_add(1).is_none());
        assert!(GuestVirtPage::new(u64::MAX).checked_add(1).is_none());
        assert_eq!(
            GuestVirtPage::new(1).checked_add(2),
            Some(GuestVirtPage::new(3))
        );
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", GuestVirtAddr::new(255)), "0xff");
        assert_eq!(format!("{:?}", GuestFrame::new(16)), "GuestFrame(0x10)");
    }

    #[test]
    fn ordering_and_default() {
        assert!(GuestFrame::new(1) < GuestFrame::new(2));
        assert_eq!(GuestFrame::default().raw(), 0);
    }

    #[test]
    fn add_operators_offset_within_the_space() {
        let a = GuestVirtAddr::new(0x1000) + 0x20;
        assert_eq!(a.raw(), 0x1020);
        let mut p = GuestVirtPage::new(5);
        p += 3;
        assert_eq!(p, GuestVirtPage::new(5) + 3);
        assert_eq!(p.raw(), 8);
    }

    #[test]
    #[should_panic]
    fn add_overflow_panics_in_debug() {
        let _ = GuestVirtAddr::new(u64::MAX) + 1;
    }
}
