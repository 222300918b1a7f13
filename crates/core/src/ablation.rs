//! Ablation variant of PTEMagnet's reservation granularity.
//!
//! The paper fixes the 8-page reservation granularity with a geometric
//! argument (§4.1: eight 8-byte PTEs fill one 64-byte cache line). The
//! `granular:N` policy (see [`crate::registry`]) runs the same workloads
//! with other group sizes to test that choice empirically.

use std::collections::HashMap;

use vmsim_os::{AllocCost, GuestBuddy, GuestFrameAllocator, Pid};
use vmsim_types::{GuestFrame, GuestVirtPage, Result};

/// A reservation allocator with configurable group size (1, 2, 4, 8, or 16
/// pages), for the granularity ablation.
///
/// Uses straightforward hash-map bookkeeping instead of the radix-tree PaRT;
/// the point of this type is layout behaviour, not lookup scalability.
#[derive(Debug)]
pub struct GranularReservationAllocator {
    /// log2 of pages per reservation group.
    order: u32,
    /// (pid, group) -> (base frame, live mask). Non-live pages are owned by
    /// the reservation, exactly like [`crate::PaRt`]'s semantics.
    entries: HashMap<(Pid, u64), (GuestFrame, u32)>,
    hits: u64,
    installs: u64,
    fallbacks: u64,
}

impl GranularReservationAllocator {
    /// Creates an allocator reserving 2^`order`-page groups.
    ///
    /// # Panics
    ///
    /// Panics if `order > 4` (32-page groups exceed the mask width and the
    /// buddy orders this ablation explores).
    pub fn new(order: u32) -> Self {
        assert!(order <= 4, "granularity ablation covers 1..=16 pages");
        Self {
            order,
            entries: HashMap::new(),
            hits: 0,
            installs: 0,
            fallbacks: 0,
        }
    }

    /// Pages per reservation group.
    pub fn group_pages(&self) -> u64 {
        1 << self.order
    }

    /// (hits, installs, fallbacks) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.installs, self.fallbacks)
    }
}

impl GuestFrameAllocator for GranularReservationAllocator {
    fn name(&self) -> &'static str {
        "granular-reservation"
    }

    fn allocate(
        &mut self,
        pid: Pid,
        vpn: GuestVirtPage,
        buddy: &mut GuestBuddy,
    ) -> Result<(GuestFrame, AllocCost)> {
        let pages = self.group_pages();
        let group = vpn.raw() / pages;
        let offset = (vpn.raw() % pages) as u32;
        let bit = 1u32 << offset;
        if let Some((base, live)) = self.entries.get_mut(&(pid, group)) {
            if *live & bit != 0 {
                // COW break of a page still live in the reservation: the
                // copy needs a fresh frame from the default path.
                let gfn = buddy.alloc(0)?;
                self.fallbacks += 1;
                return Ok((
                    gfn,
                    AllocCost {
                        buddy_calls: 1,
                        part_lookups: 1,
                        fallback: true,
                        ..AllocCost::default()
                    },
                ));
            }
            let frame = GuestFrame::new(base.raw() + u64::from(offset));
            *live |= bit;
            self.hits += 1;
            let full = u32::MAX >> (32 - pages);
            if *live == full {
                self.entries.remove(&(pid, group));
            }
            return Ok((
                frame,
                AllocCost {
                    part_lookups: 1,
                    reservation_hit: true,
                    ..AllocCost::default()
                },
            ));
        }
        match buddy.alloc(self.order) {
            Ok(base) => {
                buddy
                    .fragment_allocation(base, self.order)
                    .expect("fresh chunk fragments");
                if pages > 1 {
                    self.entries.insert((pid, group), (base, bit));
                }
                self.installs += 1;
                Ok((
                    GuestFrame::new(base.raw() + u64::from(offset)),
                    AllocCost {
                        buddy_calls: 1,
                        part_lookups: 1,
                        reservation_new: pages > 1,
                        ..AllocCost::default()
                    },
                ))
            }
            Err(_) => {
                let gfn = buddy.alloc(0)?;
                self.fallbacks += 1;
                Ok((
                    gfn,
                    AllocCost {
                        buddy_calls: 1,
                        fallback: true,
                        ..AllocCost::default()
                    },
                ))
            }
        }
    }

    fn free(
        &mut self,
        pid: Pid,
        vpn: GuestVirtPage,
        gfn: GuestFrame,
        buddy: &mut GuestBuddy,
    ) -> Result<()> {
        let pages = self.group_pages();
        let group = vpn.raw() / pages;
        let offset = (vpn.raw() % pages) as u32;
        let bit = 1u32 << offset;
        if let Some((base, live)) = self.entries.get_mut(&(pid, group)) {
            if base.raw() + u64::from(offset) == gfn.raw() && *live & bit != 0 {
                // The page rejoins the reservation; frames reach the buddy
                // allocator only when the entry dies.
                *live &= !bit;
                if *live == 0 {
                    let (base, _) = self.entries.remove(&(pid, group)).expect("entry");
                    for i in 0..pages {
                        buddy.free(GuestFrame::new(base.raw() + i), 0)?;
                    }
                }
                return Ok(());
            }
        }
        buddy.free(gfn, 0)
    }

    fn reserved_unused_frames(&self) -> u64 {
        let pages = self.group_pages();
        self.entries
            .values()
            .map(|(_, live)| pages - u64::from(live.count_ones()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_one_behaves_like_default() {
        let mut a = GranularReservationAllocator::new(0);
        let mut buddy = GuestBuddy::new(64);
        let (f, cost) = a
            .allocate(Pid(1), GuestVirtPage::new(0), &mut buddy)
            .unwrap();
        assert_eq!(cost.buddy_calls, 1);
        assert_eq!(a.reserved_unused_frames(), 0);
        a.free(Pid(1), GuestVirtPage::new(0), f, &mut buddy)
            .unwrap();
        assert_eq!(buddy.free_frames(), 64);
    }

    #[test]
    fn granularity_sixteen_reserves_sixteen() {
        let mut a = GranularReservationAllocator::new(4);
        let mut buddy = GuestBuddy::new(64);
        let (f0, _) = a
            .allocate(Pid(1), GuestVirtPage::new(0), &mut buddy)
            .unwrap();
        assert_eq!(buddy.free_frames(), 48);
        assert_eq!(a.reserved_unused_frames(), 15);
        let (f5, cost) = a
            .allocate(Pid(1), GuestVirtPage::new(5), &mut buddy)
            .unwrap();
        assert!(cost.reservation_hit);
        assert_eq!(f5.raw(), f0.raw() + 5);
    }

    #[test]
    fn contiguity_holds_under_interleaving_at_each_granularity() {
        for order in [1u32, 2, 3, 4] {
            let pages = 1u64 << order;
            let mut a = GranularReservationAllocator::new(order);
            let mut buddy = GuestBuddy::new(1024);
            let mut frames = Vec::new();
            for vpn in 0..pages {
                let (f, _) = a
                    .allocate(Pid(1), GuestVirtPage::new(vpn), &mut buddy)
                    .unwrap();
                // Interleave a churner.
                a.allocate(Pid(2), GuestVirtPage::new(1000 + vpn * 100), &mut buddy)
                    .unwrap();
                frames.push(f.raw());
            }
            assert!(
                frames.windows(2).all(|w| w[1] == w[0] + 1),
                "order {order} keeps groups contiguous"
            );
        }
    }

    #[test]
    fn free_cycle_is_leak_free_at_every_granularity() {
        for order in [0u32, 1, 2, 3, 4] {
            let pages = 1u64 << order;
            let mut a = GranularReservationAllocator::new(order);
            let mut buddy = GuestBuddy::new(256);
            let mut got = Vec::new();
            for vpn in 0..pages + 3 {
                got.push((
                    vpn,
                    a.allocate(Pid(1), GuestVirtPage::new(vpn), &mut buddy)
                        .unwrap()
                        .0,
                ));
            }
            for (vpn, f) in got {
                a.free(Pid(1), GuestVirtPage::new(vpn), f, &mut buddy)
                    .unwrap();
            }
            assert_eq!(buddy.free_frames(), 256, "order {order} leaks");
        }
    }
}
