//! `vmsim-obs` — unified observability layer for the PTEMagnet simulator.
//!
//! Four pillars, all usable independently:
//!
//! 1. **Metrics registry** ([`metric`]): every stats struct in the simulator
//!    implements [`MetricSource`]; a [`Registry`] collects them into an
//!    owned, sorted [`Snapshot`] stamped with the sim-op clock, and
//!    [`delta`] diffs two snapshots. Snapshots export as JSON or CSV.
//! 2. **Event tracer** ([`trace`]): a bounded ring buffer of typed events
//!    ([`EventKind`]) with JSONL export. Hot paths gate emission on
//!    `Option<Tracer>`, so the disabled path is a single branch and the
//!    simulation outcome is identical with tracing on or off.
//! 3. **Epoch time series** ([`series`]): the engine snapshots the registry
//!    every N ops, yielding trajectories instead of endpoints.
//! 4. **Phase profiler** ([`prof`]): hierarchical spans with static phase
//!    IDs accumulating simulated cycles and wall-clock self-time per
//!    phase, exported as profile JSON and folded stacks. Gated on
//!    `Option<Profiler>` like the tracer, so disabled costs one branch.
//!
//! The crate is dependency-free and includes a minimal JSON parser
//! ([`json`]) that reads its own output and the manifests.

pub mod json;
pub mod metric;
pub mod prof;
pub mod series;
pub mod trace;

pub use metric::{delta, Delta, Metric, MetricSource, Registry, Snapshot, Value};
pub use prof::{Phase, PhaseProfile, PhaseTotals, Profiler, PHASE_COUNT};
pub use series::TimeSeries;
pub use trace::{Event, EventKind, Tracer, DEFAULT_CAPACITY};
