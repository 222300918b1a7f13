//! `fleet`: eight gcc VMs on one host at 1.5× overcommit, with VM
//! kill/boot churn and the balloon governor, under both policies, run
//! the way `vmsim run` runs a manifest: `driver::run_supervised`, then
//! `artifacts::write_all`. It is the only workload through `sim::colo`,
//! `touch_vm` and the shared host frame table.

use std::path::PathBuf;
use std::time::Instant;

use vmsim_config::{builtin, ExperimentManifest, ExperimentSpec, ObsConfig};
use vmsim_obs::json;
use vmsim_sim::{artifacts, driver, run_supervised, Supervisor};

use crate::layers::{ratio, Layers};
use crate::report::{Report, Tally};
use crate::span::Trace;
use crate::{dir_bytes, fnv1a, Bench, Rep, POLICIES};

/// Measured primary ops of VM 0 per policy.
const MEASURE_OPS: u64 = 20_000;
/// The checked-in colocation sweep's 8-VM row with churn.
const FLEET_ROW: &str = "8 VMs, churn @2000";

/// The fleet manifest for `seed`, reaching the measured phase and running
/// `measure_ops` of it.
fn manifest(seed: u64, measure_ops: u64, traced: bool) -> ExperimentManifest {
    let mut m = builtin::colocation();
    m.name = "fleet".into();
    m.seeds = vec![seed];
    m.measure_ops = measure_ops;
    m.obs = if traced {
        ObsConfig::profiled()
    } else {
        ObsConfig::disabled()
    };
    if let ExperimentSpec::Matrix(matrix) = &mut m.experiment {
        matrix
            .workloads
            .retain(|w| w.label.as_deref() == Some(FLEET_ROW));
    }
    m
}

/// Checks every cell of `run` finished, unquarantined and untruncated.
fn check_cells(run: &driver::ManifestRun, what: &str, tally: &mut Tally) -> bool {
    let ok = run.cells.len() == POLICIES.len()
        && run.supervision.is_clean()
        && run
            .cells
            .iter()
            .all(|c| c.observed().is_some() && !c.truncated());
    tally.check(ok, || {
        let errors: Vec<String> = run
            .cells
            .iter()
            .filter_map(|c| c.error().map(ToString::to_string))
            .collect();
        format!("fleet {what}: cells did not all finish cleanly: {errors:?}")
    });
    ok
}

pub struct FleetBench {
    seed: u64,
    dir: PathBuf,
    gain: Option<(f64, f64)>,
    layers: Layers,
    colo_run_s: f64,
    vm_boots: u64,
    ballooned_frames: u64,
    artifact_bytes: u64,
}

impl FleetBench {
    pub fn new(seed: u64, dir: PathBuf) -> Self {
        FleetBench {
            seed,
            dir,
            gain: None,
            layers: Layers::default(),
            colo_run_s: 0.0,
            vm_boots: 0,
            ballooned_frames: 0,
            artifact_bytes: 0,
        }
    }
}

impl Bench for FleetBench {
    fn rep(&mut self, mut trace: Option<&mut Trace>, tally: &mut Tally) -> Option<Rep> {
        let traced = trace.is_some();
        let rep_span = trace.as_mut().map(|t| t.open("rep", None));
        let sup = Supervisor::default();

        // Set-up: the same fleet stopped one op into its measured phase.
        let t0 = Instant::now();
        let setup = run_supervised(&manifest(self.seed, 1, traced), &sup);
        let t1 = Instant::now();
        if let Some(t) = trace.as_mut() {
            t.record("setup", rep_span, t0, t1);
        }
        match &setup {
            Ok(run) if check_cells(run, "set-up", tally) => {}
            Ok(_) => return None,
            Err(e) => {
                tally.check(false, || format!("fleet set-up: {e}"));
                return None;
            }
        }

        let full = manifest(self.seed, MEASURE_OPS, traced);
        let t2 = Instant::now();
        let run = run_supervised(&full, &sup);
        let t3 = Instant::now();
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                tally.check(false, || format!("fleet: {e}"));
                return None;
            }
        };
        let mut log = Vec::new();
        let set = artifacts::write_all(&run, &self.dir, (t3 - t2).as_secs_f64(), &mut |line| {
            log.push(line.to_string())
        });
        let t4 = Instant::now();
        if let Some(t) = trace.as_mut() {
            t.record("run_supervised", rep_span, t2, t3);
            t.record("write_all", rep_span, t3, t4);
        }
        if !check_cells(&run, "measured run", tally) {
            return None;
        }
        tally.check(
            set.failures == 0 && set.runs == Some(POLICIES.len()),
            || format!("fleet: artifacts failed: {log:?}"),
        );
        let p0 = Instant::now();
        let reparsed = std::fs::read_to_string(&set.results_path)
            .ok()
            .filter(|text| *text == set.results_json)
            .and_then(|text| json::parse(&text).ok());
        let p1 = Instant::now();
        if let Some(t) = trace.as_mut() {
            t.record("json_parse", rep_span, p0, p1);
        }
        let runs = reparsed
            .as_ref()
            .and_then(|doc| doc.get("runs"))
            .and_then(|r| r.as_arr())
            .map_or(0, <[_]>::len);
        tally.check(runs == POLICIES.len(), || {
            format!(
                "fleet: {} does not re-parse to {} runs",
                set.results_path.display(),
                POLICIES.len()
            )
        });

        let metrics: Vec<_> = run.cells.iter().filter_map(|c| c.metrics()).collect();
        let ordered = metrics.iter().map(|m| m.allocator.as_str()).eq(POLICIES);
        tally.check(ordered, || "fleet: cells are not in policy order".into());
        let (def, pm) = (metrics[0], metrics[1]);
        self.gain.get_or_insert((
            100.0 * (1.0 - ratio(pm.cycles as f64, def.cycles as f64)),
            100.0 * (1.0 - ratio(pm.page_walk_cycles as f64, def.page_walk_cycles as f64)),
        ));
        let observed: Vec<_> = run.cells.iter().filter_map(|c| c.observed()).collect();
        let sim_ops = observed.iter().map(|o| o.snapshot.op).sum();

        if let Some(t) = trace.as_mut() {
            let mut layers = Layers::default();
            let (mut boots, mut ballooned, mut colo_ns) = (0, 0, 0);
            for o in &observed {
                if let Some(profile) = &o.profile {
                    layers.add_profile(profile);
                    colo_ns += profile.total_wall_ns;
                }
                layers.add_snapshot(&o.snapshot);
                for m in o.snapshot.group("vm") {
                    let v = m.value.as_u64().unwrap_or(0);
                    if m.name.ends_with(".boots") {
                        boots += v;
                    } else if m.name.ends_with(".ballooned_frames") {
                        ballooned += v;
                    }
                }
            }
            layers.window_ns = (t3 - t2).as_nanos() as u64;
            self.layers = layers;
            self.colo_run_s = colo_ns as f64 / 1e9;
            self.vm_boots = boots;
            self.ballooned_frames = ballooned;
            self.artifact_bytes = dir_bytes(&self.dir);
            if let Some(id) = rep_span {
                t.close(id);
            }
        }
        Some(Rep {
            setup_s: (t1 - t0).as_secs_f64(),
            units_ms: vec![(t4 - t2).as_secs_f64() * 1e3],
            sim_ops,
            fingerprint: fnv1a(set.results_json.as_bytes()),
        })
    }

    fn end_to_end(&self, report: &mut Report) {
        self.sim_metrics(report);
    }

    fn per_layer(&self, trace: &Trace, report: &mut Report) {
        self.layers.report(report);
        report.add("colo.run_s", self.colo_run_s, "s", 1);
        report.add("colo.vm_boots", self.vm_boots as f64, "count", 1);
        report.add(
            "colo.ballooned_frames",
            self.ballooned_frames as f64,
            "count",
            1,
        );
        let last = |name| trace.durations_ms(name).last().copied().unwrap_or(0.0) / 1e3;
        report.add("driver.run_s", last("run_supervised"), "s", 1);
        report.add("artifacts.write_s", last("write_all"), "s", 1);
        report.add("artifacts.bytes", self.artifact_bytes as f64, "bytes", 1);
        report.add("json.parse_s", last("json_parse"), "s", 1);
        self.sim_metrics(report);
    }
}

impl FleetBench {
    fn sim_metrics(&self, report: &mut Report) {
        if let Some((exec, walk)) = self.gain {
            report.add("sim.exec_gain_pct", exec, "%", 1);
            report.add("sim.walk_cycles_saved_pct", walk, "%", 1);
        }
    }
}
