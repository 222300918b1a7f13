//! The abstract operation stream emitted by workloads.

/// One abstract memory-management/access operation.
///
/// Regions are workload-local handles; the simulation engine maps
/// (process, region) to actual guest-virtual placements via `mmap`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Allocate a `pages`-page region of virtual address space.
    Alloc {
        /// Workload-local region handle (fresh, never reused after free).
        region: u32,
        /// Region length in pages.
        pages: u64,
    },
    /// Touch byte 0 of `page_idx` within `region`.
    Touch {
        /// Region handle previously allocated.
        region: u32,
        /// Page index within the region.
        page_idx: u64,
        /// Whether the access writes.
        write: bool,
    },
    /// Release the whole region.
    Free {
        /// Region handle to release.
        region: u32,
    },
}

/// Coarse execution phase of a workload.
///
/// The paper's §3.3 methodology stops the co-runner once the benchmark has
/// *finished allocating* (initialized its data structures); the engine uses
/// this marker to reproduce that protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Still allocating/initializing data structures.
    Init,
    /// Steady-state processing over the allocated footprint.
    Steady,
}

/// An infinite generator of memory operations.
pub trait Workload {
    /// Short benchmark name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Produces the next operation. Streams are infinite: the engine decides
    /// how many steady-state operations constitute a run.
    fn next_op(&mut self) -> Op;

    /// Current phase ([`Phase::Init`] until the footprint is initialized).
    fn phase(&self) -> Phase;

    /// Total resident footprint the workload converges to, in pages.
    fn footprint_pages(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_comparable() {
        let a = Op::Touch {
            region: 0,
            page_idx: 5,
            write: false,
        };
        let b = Op::Free { region: 0 };
        assert_eq!(a, a);
        assert_ne!(a, b);
        assert_ne!(Phase::Init, Phase::Steady);
    }
}
