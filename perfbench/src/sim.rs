//! `walk` and `churn`: pagerank beside an objdet co-runner in a 1 GB
//! guest, driven directly through `Machine` and `Colocation`, under the
//! `default` and `ptemagnet` policies.
//!
//! Both follow the paper's protocol: the co-runner's faults interleave
//! with pagerank's allocation phase, fragmenting the host page table
//! under `default`. `walk` then stops the co-runner (Table 1 / Fig. 5),
//! so its measured phase is translation work with no allocation. `churn`
//! keeps it running at weight 4 (Table 4), so most measured ops are
//! co-runner mmap, fault and munmap.

use std::time::Instant;

use vmsim_obs::{PhaseProfile, Profiler, Snapshot};
use vmsim_os::{Machine, MachineConfig};
use vmsim_sim::Colocation;
use vmsim_workloads::{benchmark, corunner, BenchId, CoId};

use crate::layers::{ratio, Layers};
use crate::report::{Report, Tally};
use crate::span::{SpanId, Trace};
use crate::stats;
use crate::{fnv1a, Bench, Rep, POLICIES};

/// Primary ops per timed chunk.
const CHUNK_OPS: u64 = 1_000;
/// Guest RAM: pagerank's 49k-page footprint in the paper's 1 GB VM.
const GUEST_MB: u64 = 1_024;
/// Co-runner ops per primary op, as in the paper's objdet colocation.
const OBJDET_WEIGHT: u32 = 4;
/// Table 4's execution-time reduction, in percent.
const PAPER_EXEC_GAIN_PCT: f64 = 7.0;

pub struct SimSpec {
    pub stop_corunner: bool,
    /// Measured primary ops per policy.
    pub measure_ops: u64,
    /// Whether this workload carries the Table 4 reference.
    pub table4: bool,
}

pub const WALK: SimSpec = SimSpec {
    stop_corunner: true,
    measure_ops: 1_000_000,
    table4: false,
};

pub const CHURN: SimSpec = SimSpec {
    stop_corunner: false,
    measure_ops: 150_000,
    table4: true,
};

/// One policy's setup and measured phase.
struct PolicyRun {
    setup_s: f64,
    chunk_ms: Vec<f64>,
    sim_ops: u64,
    cycles: u64,
    page_walk_cycles: u64,
    host_frag: f64,
    snapshot: Snapshot,
    memo: (u64, u64),
    profile: Option<PhaseProfile>,
}

/// Folds a profile just harvested from the machine into `acc`, charging
/// its attributed time to span `id`.
fn harvest(
    colo: &mut Colocation,
    window_ns: u64,
    trace: &mut Trace,
    id: SpanId,
    acc: &mut PhaseProfile,
) {
    let profile = colo
        .machine_mut()
        .take_profiler()
        .expect("the traced pass installs a profiler")
        .finish(window_ns);
    trace.charge(id, profile.attributed_wall_ns());
    acc.total_wall_ns += profile.total_wall_ns;
    for (a, t) in acc.phases.iter_mut().zip(&profile.phases) {
        a.wall_ns += t.wall_ns;
    }
    colo.machine_mut().install_profiler(Profiler::new());
}

fn run_policy(
    spec: &SimSpec,
    seed: u64,
    policy: &str,
    mut trace: Option<(&mut Trace, SpanId)>,
) -> Result<PolicyRun, String> {
    let allocator = ptemagnet::registry::resolve(policy).map_err(|e| e.to_string())?;
    let mut acc = Profiler::new().finish(0);
    let t0 = Instant::now();
    let setup_span = trace
        .as_mut()
        .map(|(t, rep)| t.open("run_until_steady", Some(*rep)));
    let mut colo = Colocation::new(Machine::with_allocator(
        MachineConfig::paper(2, GUEST_MB),
        allocator,
    ));
    if trace.is_some() {
        colo.machine_mut().install_profiler(Profiler::new());
    }
    let primary = colo.add_app(Box::new(benchmark(BenchId::Pagerank, seed)), 1);
    let co = colo.add_app(
        corunner(CoId::Objdet, seed.wrapping_mul(31).wrapping_add(1)),
        OBJDET_WEIGHT,
    );
    colo.run_until_steady(primary)
        .map_err(|e| format!("{policy}: allocation phase: {e}"))?;
    if spec.stop_corunner {
        colo.stop(co);
    }
    let pid = colo.pid(primary);
    let host_frag = colo
        .machine()
        .host_pt_fragmentation(pid)
        .map_err(|e| format!("{policy}: host-PT census: {e}"))?
        .mean();
    colo.machine_mut().reset_measurement();
    let setup = t0.elapsed();
    if let (Some((t, _)), Some(id)) = (trace.as_mut(), setup_span) {
        t.close(id);
        harvest(&mut colo, setup.as_nanos() as u64, t, id, &mut acc);
    }

    let cycles0 = colo.cycles(primary);
    let ops0 = colo.machine().ops_executed();
    let mut chunk_ms = Vec::with_capacity((spec.measure_ops / CHUNK_OPS) as usize);
    let mut done = 0;
    while done < spec.measure_ops {
        let c0 = Instant::now();
        colo.run_ops(primary, CHUNK_OPS, |_| {})
            .map_err(|e| format!("{policy}: chunk at op {done}: {e}"))?;
        let c1 = Instant::now();
        chunk_ms.push((c1 - c0).as_secs_f64() * 1e3);
        if let Some((t, rep)) = trace.as_mut() {
            let id = t.record("run_ops", Some(*rep), c0, c1);
            harvest(&mut colo, (c1 - c0).as_nanos() as u64, t, id, &mut acc);
        }
        done += CHUNK_OPS;
    }
    let memo = colo.machine().memo_stats();
    Ok(PolicyRun {
        setup_s: setup.as_secs_f64(),
        chunk_ms,
        sim_ops: colo.machine().ops_executed() - ops0,
        cycles: colo.cycles(primary) - cycles0,
        page_walk_cycles: colo
            .machine()
            .caches()
            .core_counters(colo.core(primary))
            .page_walk_cycles(),
        host_frag,
        snapshot: colo.machine().metrics_snapshot(),
        memo: (memo.hits + memo.streak_hits, memo.naive_walks),
        profile: trace.is_some().then_some(acc),
    })
}

/// Simulated gain of `ptemagnet` over `default`, from one repetition.
#[derive(Clone, Copy)]
struct Gain {
    exec_pct: f64,
    walk_cycles_saved_pct: f64,
}

pub struct SimBench {
    name: &'static str,
    spec: &'static SimSpec,
    seed: u64,
    chunk_ms: Vec<f64>,
    gain: Option<Gain>,
    layers: Layers,
}

impl SimBench {
    pub fn new(name: &'static str, spec: &'static SimSpec, seed: u64) -> Self {
        SimBench {
            name,
            spec,
            seed,
            chunk_ms: Vec::new(),
            gain: None,
            layers: Layers::default(),
        }
    }
}

impl Bench for SimBench {
    fn rep(&mut self, mut trace: Option<&mut Trace>, tally: &mut Tally) -> Option<Rep> {
        let rep_span = trace.as_mut().map(|t| t.open("rep", None));
        let mut runs = Vec::with_capacity(POLICIES.len());
        for policy in POLICIES {
            let tr = trace.as_deref_mut().zip(rep_span);
            match run_policy(self.spec, self.seed, policy, tr) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    tally.check(false, || format!("{}: {e}", self.name));
                    return None;
                }
            }
        }
        if let (Some(t), Some(id)) = (trace.as_mut(), rep_span) {
            t.close(id);
        }
        let (def, pm) = (&runs[0], &runs[1]);
        let chunks: usize = runs.iter().map(|r| r.chunk_ms.len()).sum();
        tally.passed(chunks as u64);
        // The paper's mechanism: reservation keeps host PTEs packed, so
        // ptemagnet must fragment the host PT less and run faster.
        tally.check(pm.host_frag < def.host_frag, || {
            format!(
                "{}: host-PT fragmentation ptemagnet {} >= default {}",
                self.name, pm.host_frag, def.host_frag
            )
        });
        tally.check(pm.cycles < def.cycles, || {
            format!(
                "{}: ptemagnet cycles {} >= default {}",
                self.name, pm.cycles, def.cycles
            )
        });
        let gain = Gain {
            exec_pct: 100.0 * (1.0 - ratio(pm.cycles as f64, def.cycles as f64)),
            walk_cycles_saved_pct: 100.0
                * (1.0 - ratio(pm.page_walk_cycles as f64, def.page_walk_cycles as f64)),
        };
        self.gain.get_or_insert(gain);

        let mut fingerprint = String::new();
        for r in &runs {
            fingerprint.push_str(&format!(
                "{} {} {}\n",
                r.cycles,
                r.host_frag,
                r.snapshot.to_json()
            ));
        }
        if trace.is_some() {
            let mut layers = Layers {
                faults_profiled: true,
                ..Layers::default()
            };
            let mut memo = (0, 0);
            for r in &runs {
                if let Some(profile) = &r.profile {
                    layers.add_profile(profile);
                    layers.window_ns += profile.total_wall_ns;
                }
                layers.add_snapshot(&r.snapshot);
                memo.0 += r.memo.0;
                memo.1 += r.memo.1;
            }
            layers.memo = Some(memo);
            self.layers = layers;
        } else {
            self.chunk_ms
                .extend(runs.iter().flat_map(|r| r.chunk_ms.iter().copied()));
        }
        Some(Rep {
            setup_s: runs.iter().map(|r| r.setup_s).sum(),
            units_ms: runs
                .iter()
                .flat_map(|r| r.chunk_ms.iter().copied())
                .collect(),
            sim_ops: runs.iter().map(|r| r.sim_ops).sum(),
            fingerprint: fnv1a(fingerprint.as_bytes()),
        })
    }

    fn end_to_end(&self, report: &mut Report) {
        report.add_timing("chunk_ms", &stats::summarize(&self.chunk_ms), "ms");
        self.sim_metrics(report);
    }

    fn per_layer(&self, trace: &Trace, report: &mut Report) {
        self.layers.report(report);
        report.add(
            "engine.chunk_ms",
            stats::median(&trace.durations_ms("run_ops")),
            "ms",
            trace.durations_ms("run_ops").len(),
        );
        self.sim_metrics(report);
    }
}

impl SimBench {
    fn sim_metrics(&self, report: &mut Report) {
        let Some(gain) = self.gain else { return };
        report.add("sim.exec_gain_pct", gain.exec_pct, "%", 1);
        report.add(
            "sim.walk_cycles_saved_pct",
            gain.walk_cycles_saved_pct,
            "%",
            1,
        );
        if self.spec.table4 {
            // The model is validated against this single row of Table 4.
            report.add(
                "sim.exec_gain_err_pp",
                (gain.exec_pct - PAPER_EXEC_GAIN_PCT).abs(),
                "pp",
                1,
            );
        }
    }
}
