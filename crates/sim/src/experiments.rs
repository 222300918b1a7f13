//! The typed results of the paper's experiments, and the two experiments
//! that are not scenario matrices.
//!
//! Every matrix-style experiment (Table 1, Figures 5–7, Table 4, §6.2, the
//! THP, SPECint, LLC and hardware studies) is a builtin manifest in
//! [`vmsim_config::builtin`], run through [`crate::driver::run_manifest`];
//! its typed outcome is one of the result types defined here.
//!
//! Two experiments keep direct implementations: [`sec64`] (the §6.4
//! allocation-latency microbenchmark) and [`walk_breakdown`] (raw
//! per-level counter capture, which also uses a different co-runner seed
//! derivation than the scenario engine). The driver calls back into them
//! for the `alloc-latency` and `walk-breakdown` manifest kinds.

use vmsim_os::{Machine, MachineConfig};
use vmsim_types::{GuestVirtAddr, PAGE_SIZE};
use vmsim_workloads::{BenchId, CoId};

pub use vmsim_config::DEFAULT_MEASURE_OPS;

use crate::parallel::{self, Parallelism};
use crate::scenario::{AllocatorKind, RunMetrics};

/// Percentage change from `from` to `to` (positive = increase).
pub fn pct_change(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (to - from) / from * 100.0
    }
}

// ---------------------------------------------------------------------------
// Table 1: pagerank + stress-ng vs standalone (default kernel, §3.3)
// ---------------------------------------------------------------------------

/// Result of the Table 1 study.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// pagerank running alone in the VM.
    pub standalone: RunMetrics,
    /// pagerank colocated with stress-ng (stopped after the allocation
    /// phase, per the paper's §3.3 protocol).
    pub colocated: RunMetrics,
}

impl Table1 {
    /// The paper's rows: metric name, % change under colocation.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let s = &self.standalone;
        let c = &self.colocated;
        vec![
            (
                "Execution time",
                pct_change(s.cycles as f64, c.cycles as f64),
            ),
            (
                "Cache misses",
                pct_change(s.data_misses as f64, c.data_misses as f64),
            ),
            (
                "TLB misses",
                pct_change(s.tlb_misses as f64, c.tlb_misses as f64),
            ),
            (
                "Page walk cycles",
                pct_change(s.page_walk_cycles as f64, c.page_walk_cycles as f64),
            ),
            (
                "Cycles traversing host PT",
                pct_change(s.host_pt_cycles as f64, c.host_pt_cycles as f64),
            ),
            (
                "Guest PT accesses from memory",
                pct_change(s.guest_pt_memory as f64, c.guest_pt_memory as f64),
            ),
            (
                "Host PT accesses from memory",
                pct_change(s.host_pt_memory as f64, c.host_pt_memory as f64),
            ),
            (
                "Host PT fragmentation",
                pct_change(s.host_frag, c.host_frag),
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// Figures 5 & 6: all benchmarks + objdet, default vs PTEMagnet (§6.1)
// ---------------------------------------------------------------------------

/// Per-benchmark pair of runs (default vs PTEMagnet) in one colocation.
#[derive(Clone, Debug)]
pub struct BenchPair {
    /// Benchmark identity.
    pub name: String,
    /// Run with the default kernel allocator.
    pub default: RunMetrics,
    /// Run with PTEMagnet.
    pub ptemagnet: RunMetrics,
}

impl BenchPair {
    /// Execution-time improvement of PTEMagnet over the default (fraction).
    pub fn improvement(&self) -> f64 {
        self.ptemagnet.improvement_over(&self.default)
    }
}

/// Result of a figure-style sweep over all benchmarks.
#[derive(Clone, Debug)]
pub struct FigureSweep {
    /// Colocation label ("objdet" or "combination").
    pub colocation: String,
    /// Per-benchmark pairs, in the paper's order.
    pub pairs: Vec<BenchPair>,
}

impl FigureSweep {
    /// Geometric-mean improvement across benchmarks (the paper's Geomean
    /// bar).
    pub fn geomean_improvement(&self) -> f64 {
        let product: f64 = self
            .pairs
            .iter()
            .map(|p| 1.0 / (1.0 - p.improvement()))
            .product();
        1.0 - 1.0 / product.powf(1.0 / self.pairs.len() as f64)
    }
}

// ---------------------------------------------------------------------------
// Table 4: pagerank + objdet, PTEMagnet vs default, co-runner throughout
// ---------------------------------------------------------------------------

/// Result of the Table 4 study.
#[derive(Clone, Debug)]
pub struct Table4 {
    /// pagerank + objdet on the default kernel (co-runner runs throughout).
    pub default: RunMetrics,
    /// Same colocation with PTEMagnet.
    pub ptemagnet: RunMetrics,
}

impl Table4 {
    /// The paper's rows: metric name, % change with PTEMagnet.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let d = &self.default;
        let p = &self.ptemagnet;
        vec![
            (
                "Host PT fragmentation",
                pct_change(d.host_frag, p.host_frag),
            ),
            (
                "Execution time",
                pct_change(d.cycles as f64, p.cycles as f64),
            ),
            (
                "Page walk cycles",
                pct_change(d.page_walk_cycles as f64, p.page_walk_cycles as f64),
            ),
            (
                "Cycles traversing host PT",
                pct_change(d.host_pt_cycles as f64, p.host_pt_cycles as f64),
            ),
            (
                "Guest PT accesses from memory",
                pct_change(d.guest_pt_memory as f64, p.guest_pt_memory as f64),
            ),
            (
                "Host PT accesses from memory",
                pct_change(d.host_pt_memory as f64, p.host_pt_memory as f64),
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// §6.2: incidence of non-allocated pages within reservations
// ---------------------------------------------------------------------------

/// Reserved-unused incidence for one benchmark (§6.2).
#[derive(Clone, Debug)]
pub struct ReservedUnused {
    /// Benchmark name.
    pub name: String,
    /// Peak reserved-but-unused frames as a fraction of footprint.
    pub peak_fraction: f64,
    /// Mean over samples, as a fraction of footprint.
    pub mean_fraction: f64,
}

// ---------------------------------------------------------------------------
// §6.4: allocation-latency microbenchmark
// ---------------------------------------------------------------------------

/// Result of the allocation-latency microbenchmark (§6.4).
#[derive(Clone, Copy, Debug)]
pub struct AllocLatency {
    /// Pages allocated and first-touched.
    pub pages: u64,
    /// Total cycles with the default allocator.
    pub default_cycles: u64,
    /// Total cycles with PTEMagnet.
    pub ptemagnet_cycles: u64,
}

impl AllocLatency {
    /// Fractional change of PTEMagnet vs default (negative = faster; the
    /// paper reports ≈ −0.5 %).
    pub fn change(&self) -> f64 {
        self.ptemagnet_cycles as f64 / self.default_cycles as f64 - 1.0
    }
}

/// Runs the §6.4 microbenchmark: allocate a large array and touch every
/// page once, with and without PTEMagnet. (The paper uses a 60 GB array;
/// `pages` scales it to the simulated VM.)
///
/// # Panics
///
/// Panics if `pages` is zero.
pub fn sec64(pages: u64) -> AllocLatency {
    assert!(pages > 0);
    let run = |kind: AllocatorKind| -> u64 {
        // Size the VM to hold the array plus page tables comfortably.
        let guest_mb = (pages * 8 / 256).max(64);
        let config = MachineConfig::paper(1, guest_mb);
        let mut m = Machine::with_allocator(config, kind.build());
        let pid = m.guest_mut().spawn();
        let base = m.guest_mut().mmap(pid, pages).expect("VM sized to fit");
        let mut cycles = 0u64;
        for i in 0..pages {
            let va = GuestVirtAddr::new(base.raw() + i * PAGE_SIZE);
            cycles += m.touch(0, pid, va, true).expect("first touch").cycles;
        }
        cycles
    };
    let kinds = [AllocatorKind::Default, AllocatorKind::PteMagnet];
    let mut cycles = parallel::map_indexed(Parallelism::from_env(), &kinds, |&kind| run(kind));
    let ptemagnet_cycles = cycles.pop().expect("two runs");
    let default_cycles = cycles.pop().expect("two runs");
    AllocLatency {
        pages,
        default_cycles,
        ptemagnet_cycles,
    }
}

// ---------------------------------------------------------------------------
// THP study (§2.3): the "big hammer" baseline vs PTEMagnet
// ---------------------------------------------------------------------------

/// One row of the THP study: allocator behaviour in one memory condition.
#[derive(Clone, Debug)]
pub struct ThpRow {
    /// Allocator label.
    pub allocator: String,
    /// Memory condition ("fresh" or "fragmented").
    pub condition: String,
    /// Full run metrics.
    pub metrics: RunMetrics,
    /// Improvement over the default allocator in the same condition.
    pub improvement: f64,
}

/// Result of the THP study.
#[derive(Clone, Debug)]
pub struct ThpStudy {
    /// Rows for fresh and fragmented memory, three allocators each.
    pub rows: Vec<ThpRow>,
    /// Sparse-touch internal fragmentation: resident pages per touched page
    /// for (default, thp, ptemagnet) — THP's hidden memory cost.
    pub sparse_rss_per_touched: [f64; 3],
}

// ---------------------------------------------------------------------------
// §1 analysis: which walk accesses are served from where
// ---------------------------------------------------------------------------

/// Runs the paper's motivating analysis (§1/§3.2): per-PT-level hit-source
/// breakdown of nested-walk accesses for pagerank + objdet, with and
/// without PTEMagnet. Returns `(allocator name, measured counters)` pairs.
///
/// The expected shape: guest-PT accesses are served close to the core at
/// every level, host-PT *leaf* (level 3) accesses are the ones pushed out
/// to LLC/DRAM by fragmentation — and PTEMagnet pulls them back in.
pub fn walk_breakdown(seed: u64, measure_ops: u64) -> Vec<(String, vmsim_cache::MemCounters)> {
    let kinds = [AllocatorKind::Default, AllocatorKind::PteMagnet];
    parallel::map_indexed(Parallelism::from_env(), &kinds, |&kind| {
        let machine = Machine::with_allocator(MachineConfig::paper(2, 1024), kind.build());
        let mut colo = crate::engine::Colocation::new(machine);
        let primary = colo.add_app(
            Box::new(vmsim_workloads::benchmark(BenchId::Pagerank, seed)),
            1,
        );
        colo.add_app(vmsim_workloads::corunner(CoId::Objdet, seed + 1), 4);
        colo.run_until_steady(primary).expect("init");
        colo.machine_mut().reset_measurement();
        colo.run_ops(primary, measure_ops, |_| {}).expect("measure");
        let core = colo.core(primary);
        (
            kind.name().to_string(),
            *colo.machine().caches().core_counters(core),
        )
    })
}

// ---------------------------------------------------------------------------
// Hardware sensitivity: TLB reach and nested-TLB capacity
// ---------------------------------------------------------------------------

/// One row of the hardware-sensitivity study (`hw` builtin): PTEMagnet's
/// benefit scales with how often walks happen (small STLB ⇒ more walks)
/// and with how often the second dimension touches host PTEs (tiny nested
/// TLB ⇒ more hPTE traffic).
#[derive(Clone, Debug)]
pub struct HwSensitivityRow {
    /// Which knob was varied ("stlb" or "nested-tlb").
    pub knob: String,
    /// The knob's value (entries).
    pub value: usize,
    /// Baseline TLB miss ratio (fraction of lookups that walk).
    pub tlb_miss_ratio: f64,
    /// PTEMagnet's improvement at this setting.
    pub improvement: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_change_math() {
        assert!((pct_change(100.0, 111.0) - 11.0).abs() < 1e-9);
        assert!((pct_change(100.0, 93.0) + 7.0).abs() < 1e-9);
        assert_eq!(pct_change(0.0, 5.0), 0.0);
    }

    #[test]
    fn sec64_ptemagnet_is_not_slower() {
        // The paper's §6.4 claim: the reservation mechanism is overhead-free
        // for allocation (in fact ~0.5 % faster).
        let r = sec64(4096);
        assert!(
            r.change() <= 0.001,
            "PTEMagnet allocation must not be slower, change = {:+.3}%",
            r.change() * 100.0
        );
        assert!(
            r.change() > -0.05,
            "and the delta is small, change = {:+.3}%",
            r.change() * 100.0
        );
    }

    #[test]
    fn geomean_of_identical_improvements_is_that_improvement() {
        let base = RunMetrics {
            benchmark: "x".into(),
            allocator: "default".into(),
            measure_ops: 1,
            cycles: 100_000,
            tlb_lookups: 0,
            tlb_misses: 0,
            data_accesses: 0,
            data_misses: 0,
            page_walk_cycles: 0,
            host_pt_cycles: 0,
            guest_pt_accesses: 0,
            guest_pt_memory: 0,
            host_pt_accesses: 0,
            host_pt_memory: 0,
            host_frag: 1.0,
            guest_frag: 1.0,
            init_cycles: 0,
            footprint_pages: 0,
            reserved_unused_peak: 0,
            reserved_unused_mean: 0.0,
            total_faults: 0,
            reservation_fallbacks: 0,
            reclaimed_frames: 0,
            faults_injected: 0,
        };
        let mut faster = base.clone();
        faster.cycles = 96_000;
        let pair = BenchPair {
            name: "x".into(),
            default: base,
            ptemagnet: faster,
        };
        let sweep = FigureSweep {
            colocation: "t".into(),
            pairs: vec![pair.clone(), pair],
        };
        assert!((sweep.geomean_improvement() - 0.04).abs() < 1e-6);
    }
}
