//! Colocation simulation engine and experiment harness for the PTEMagnet
//! (ASPLOS 2021) evaluation.
//!
//! The crate turns the substrate (machine + workloads) into the paper's
//! experiments:
//!
//! * [`engine`] — runs a set of workloads colocated inside one VM,
//!   interleaving their operations (each app pinned to its own core, as the
//!   paper pins threads), and accumulates per-app cycle counts;
//! * `colo` — the host-scale counterpart: N guest VMs colocated on one
//!   overcommitted multi-tenant host, with VM churn and balloon pressure
//!   (reached through [`Scenario::vms`] / a manifest's `vms` section);
//! * [`scenario`] — declarative description of one run: benchmark,
//!   co-runners, allocator, co-runner stop protocol, measurement length;
//! * [`driver`] — the manifest execution engine: expands a
//!   `vmsim_config::ExperimentManifest` into scenario runs on the worker
//!   pool and assembles the typed, paper-shaped outcome. The `vmsim` CLI
//!   goes through it;
//! * [`experiments`] — the typed results of the paper's tables and
//!   figures, plus the two experiments that are not scenario matrices
//!   (§6.4 allocation latency and the per-level walk breakdown);
//! * [`obs`] — scenario-level observability: the [`ObsConfig`] knobs
//!   (re-exported from `vmsim-config`; `VMSIM_TRACE`, `VMSIM_EPOCH_OPS`)
//!   and the [`ObservedRun`] wrapper carrying snapshot, epoch time series,
//!   and event trace next to the untouched [`RunMetrics`];
//! * [`parallel`] — deterministic worker pool fanning independent runs
//!   (seeds, benchmarks) across cores; results come back in job order, so
//!   output is bit-identical to serial. Thread count: `VMSIM_THREADS`;
//! * [`report`] — renders results as paper-style text tables.
//!
//! # Examples
//!
//! ```no_run
//! use vmsim_sim::{Scenario, AllocatorKind};
//! use vmsim_workloads::{BenchId, CoId};
//!
//! let metrics = Scenario::new(BenchId::Pagerank)
//!     .corunners(&[CoId::Objdet])
//!     .allocator(AllocatorKind::PteMagnet)
//!     .measure_ops(200_000)
//!     .run();
//! println!("host-PT fragmentation: {:.2}", metrics.host_frag);
//! ```
//!
//! Manifest-driven (the canonical path):
//!
//! ```no_run
//! let manifest = vmsim_config::builtin::table4(0, 300_000);
//! let run = vmsim_sim::driver::run_manifest(&manifest).expect("valid manifest");
//! print!("{}", run.report());
//! ```

pub mod artifacts;
mod colo;
pub mod driver;
pub mod engine;
pub mod experiments;
pub mod journal;
pub mod obs;
pub mod parallel;
pub mod perf;
pub mod progress;
pub mod report;
pub mod scenario;
pub mod serve;
pub mod stats;

pub use driver::{
    run_manifest, run_supervised, CellData, CellRun, ColocationRow, DriverError, ManifestRun,
    Outcome, PressureRow, Supervision, Supervisor, VarianceStudy,
};
pub use engine::Colocation;
pub use experiments::{
    sec64, walk_breakdown, AllocLatency, BenchPair, FigureSweep, HwSensitivityRow, ReservedUnused,
    Table1, Table4, ThpRow, ThpStudy, DEFAULT_MEASURE_OPS,
};
pub use journal::{Journal, JournalEntry};
pub use obs::{ObsConfig, ObservedRun};
pub use parallel::Parallelism;
pub use progress::{Progress, ProgressStats, Pulse, DEFAULT_HEARTBEAT_OPS};
pub use scenario::{AllocatorKind, CellBudget, RunMetrics, Scenario};
pub use serve::{ServeConfig, ServeStats, Server};
pub use stats::{Replication, Summary};
