//! perfbench: the vmsim benchmark.
//!
//! ```text
//! perfbench --workload <walk|churn|fleet|serve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload repeats a fixed unit of work, generated from `--seed`,
//! until `--seconds` have passed. Set-up time is the median over the
//! repetitions; the measured part is timed unit by unit (1,000-op chunks,
//! jobs), keeping each unit's fastest repetition. With `--trace 0` it
//! measures the end-to-end metrics with no instrument installed. With
//! `--trace 1` it runs an untraced pass and then a traced pass (the
//! simulator's phase profiler plus this program's own spans around every
//! public call) and reports the per-layer metrics.
//! Every repetition checks its outputs; the last stdout line is the JSON
//! result, and the exit code is non-zero when any check failed.
//! `--workload all` runs every workload in turn, each in a child process.
//! See README.md for the workload and metric map.

mod fleet;
mod layers;
mod report;
mod serve;
mod sim;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Report, Tally};
use span::Trace;

/// Policies every workload compares, baseline first.
pub const POLICIES: [&str; 2] = ["default", "ptemagnet"];

const WORKLOADS: [&str; 4] = ["walk", "churn", "fleet", "serve"];

/// Repetitions a pass runs even when `--seconds` is already spent. Two
/// untraced ones let the benchmark check that repeats agree exactly.
const MIN_REPS: usize = 2;

/// Where runs write artifacts and span files, relative to the checkout.
const OUT_DIR: &str = ".perfbench-out";

/// End-to-end metrics (`--trace 0`), as listed in BENCHMARK.json.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mops_per_s", "Mops/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as listed in BENCHMARK.json. A
/// workload that does not reach a layer reports it as 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("tlb.miss_ratio", "ratio"),
    ("tlb.self_pct", "%"),
    ("pwc.self_pct", "%"),
    ("cache.data_miss_ratio", "ratio"),
    ("walk.guest_self_pct", "%"),
    ("walk.host_self_pct", "%"),
    ("walk.host_pt_mem_per_miss", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.self_pct", "%"),
    ("os.faults", "count"),
    ("buddy.guest.allocs", "count"),
    ("buddy.guest.frees", "count"),
    ("buddy.guest.splits", "count"),
    ("buddy.guest.merges", "count"),
    ("buddy.host.allocs", "count"),
    ("buddy.host.frees", "count"),
    ("buddy.host.splits", "count"),
    ("buddy.host.merges", "count"),
    ("alloc.self_pct", "%"),
    ("alloc.us_per_fault", "us"),
    ("part.lookups", "count"),
    ("reservation.fallbacks", "count"),
    ("engine.workload_self_pct", "%"),
    ("engine.chunk_ms", "ms"),
    ("colo.run_s", "s"),
    ("colo.vm_boots", "count"),
    ("colo.ballooned_frames", "count"),
    ("driver.run_s", "s"),
    ("artifacts.write_s", "s"),
    ("artifacts.bytes", "bytes"),
    ("json.parse_s", "s"),
    ("serve.admit_ms.p50", "ms"),
    ("serve.exec_ms.p50", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.refusals", "count"),
    ("manifest.parse_us", "us"),
    ("sim.exec_gain_pct", "%"),
    ("sim.walk_cycles_saved_pct", "%"),
    ("sim.exec_gain_err_pp", "pp"),
    ("bench.trace_overhead_pct", "%"),
];

/// What one repetition of a workload measured.
pub struct Rep {
    /// Host time to reach the measured part.
    pub setup_s: f64,
    /// Host time of each unit of the measured part, in milliseconds and
    /// in a fixed order: 1,000-op chunks, jobs, or one whole fleet run.
    pub units_ms: Vec<f64>,
    /// Simulated guest memory ops in the measured part.
    pub sim_ops: u64,
    /// Hash of every simulated result the repetition produced.
    pub fingerprint: u64,
}

/// A workload: a unit of work it can repeat, traced or not.
pub trait Bench {
    /// Runs one repetition, recording spans when `trace` is given.
    /// Counts its units and output checks in `tally`; `None` when it
    /// could not finish.
    fn rep(&mut self, trace: Option<&mut Trace>, tally: &mut Tally) -> Option<Rep>;
    /// Workload-specific end-to-end metrics from the untraced passes.
    fn end_to_end(&self, report: &mut Report);
    /// Per-layer metrics from the traced pass.
    fn per_layer(&self, trace: &Trace, report: &mut Report);
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Peak resident memory of this process so far (`VmHWM`), in MB. Unlike
/// `getrusage`, this does not inherit the peak of the process that
/// spawned this one.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value.clone())
            }
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? >= 1 => seconds = Some(number()?),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => return Err(format!("unexpected argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required (at least 1)")?,
        trace: trace.unwrap_or(false),
    })
}

/// Repeats `bench` until `budget` has passed and `min` repetitions are
/// done, stopping at the first repetition that cannot finish. Also
/// returns the process's peak memory after the first repetition: later
/// ones repeat the same work, so only allocator retention could raise it.
fn repeat(
    bench: &mut dyn Bench,
    budget: Duration,
    min: usize,
    mut trace: Option<&mut Trace>,
    tally: &mut Tally,
) -> (Vec<Rep>, Option<f64>) {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut peak_mb = None;
    while reps.len() < min || start.elapsed() < budget {
        match bench.rep(trace.as_deref_mut(), tally) {
            Some(rep) => reps.push(rep),
            None => break,
        }
        if reps.len() == 1 {
            peak_mb = peak_rss_mb();
        }
    }
    (reps, peak_mb)
}

/// Checks that every repetition produced `expected` simulated results.
fn check_repeats(reps: &[Rep], expected: u64, what: &str, tally: &mut Tally) {
    for (i, rep) in reps.iter().enumerate() {
        tally.check(rep.fingerprint == expected, || {
            format!("{what} repetition {i}: simulated results differ from repetition 0")
        });
    }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    stats::median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Host time of the measured part, in seconds, with the host's
/// interference taken out: each unit's fastest time across repetitions,
/// summed. Every repetition runs identical deterministic work, so a unit's
/// time differs between repetitions only by what else the host was doing;
/// on a shared host this is far steadier than a median of totals.
fn best_wall_s(reps: &[Rep], tally: &mut Tally) -> f64 {
    let rows: Vec<Vec<f64>> = reps.iter().map(|r| r.units_ms.clone()).collect();
    let best = stats::sum_of_column_minima(&rows);
    tally.check(best.is_some(), || {
        "repetitions ran different numbers of units".into()
    });
    best.unwrap_or(0.0) / 1e3
}

fn run(args: &Args, out: &Path) -> (Tally, Report, Report) {
    let mut bench: Box<dyn Bench> = match args.workload.as_str() {
        "walk" => Box::new(sim::SimBench::new("walk", &sim::WALK, args.seed)),
        "churn" => Box::new(sim::SimBench::new("churn", &sim::CHURN, args.seed)),
        "fleet" => Box::new(fleet::FleetBench::new(args.seed, out.to_path_buf())),
        _ => Box::new(serve::ServeBench::new(args.seed, out.to_path_buf())),
    };
    let mut tally = Tally::default();
    let mut e2e = Report::default();
    let mut layer = Report::default();
    let seconds = Duration::from_secs(args.seconds);
    // A traced run splits its time between the untraced baseline pass and
    // the traced pass; the traced pass is checked against the baseline.
    let (budget, min) = if args.trace {
        (seconds / 2, 1)
    } else {
        (seconds, MIN_REPS)
    };
    let (untraced, peak_mb) = repeat(bench.as_mut(), budget, min, None, &mut tally);
    let Some(first) = untraced.first() else {
        return (tally, e2e, layer);
    };
    let expected = first.fingerprint;
    check_repeats(&untraced, expected, "untraced", &mut tally);
    let wall_s = best_wall_s(&untraced, &mut tally);
    e2e.add(
        "setup_s",
        median_of(&untraced, |r| r.setup_s),
        "s",
        untraced.len(),
    );
    e2e.add("wall_s", wall_s, "s", untraced.len());
    e2e.add(
        "rep_wall_s.p50",
        median_of(&untraced, |r| r.units_ms.iter().sum::<f64>() / 1e3),
        "s",
        untraced.len(),
    );
    e2e.add(
        "sim_mops_per_s",
        first.sim_ops as f64 / wall_s / 1e6,
        "Mops/s",
        untraced.len(),
    );
    match peak_mb {
        Some(mb) => e2e.add("peak_rss_mb", mb, "MB", 1),
        None => tally.check(false, || "cannot read peak memory".into()),
    }
    bench.end_to_end(&mut e2e);

    if args.trace {
        let mut trace = Trace::new();
        let (traced, _) = repeat(bench.as_mut(), seconds / 2, 1, Some(&mut trace), &mut tally);
        check_repeats(&traced, expected, "traced", &mut tally);
        if !traced.is_empty() {
            bench.per_layer(&trace, &mut layer);
            layer.add(
                "bench.trace_overhead_pct",
                (best_wall_s(&traced, &mut tally) / wall_s - 1.0) * 100.0,
                "%",
                traced.len(),
            );
        }
        let path = out.with_extension("spans.jsonl");
        if let Err(e) = std::fs::write(&path, trace.to_jsonl()) {
            tally.check(false, || format!("cannot write {}: {e}", path.display()));
        }
    }
    (tally, e2e, layer)
}

fn print_lines(workload: &str, report: &Report) {
    for m in report.metrics() {
        println!(
            "{workload:<6} {:<28} {:>16.6} {:<7} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
}

/// Runs every workload in its own child process (so each reports its own
/// peak memory) and fails if any of them failed.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for workload in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "all")
            .expect("--workload all");
        child_args[at] = workload.to_string();
        let status = std::process::Command::new(&exe).args(&child_args).status();
        failed |= !status.is_ok_and(|s| s.success());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <walk|churn|fleet|serve|all> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&raw);
    }
    // One process, one simulator worker: the environment must not change
    // what is measured.
    for (key, _) in std::env::vars() {
        if key.starts_with("VMSIM_") || key.starts_with("PTEMAGNET_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("VMSIM_THREADS", "1");

    let out = PathBuf::from(OUT_DIR).join(format!("{}-seed{}", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let (mut tally, mut e2e, layer) = run(&args, &out);
    let _ = std::fs::remove_dir_all(&out);
    tally.check(e2e.get("wall_s").is_some(), || {
        "no repetition finished".into()
    });
    e2e.add(
        "failed_frac",
        tally.failed_frac(),
        "ratio",
        tally.attempted as usize,
    );

    print_lines(&args.workload, &e2e);
    print_lines(&args.workload, &layer);
    for reason in &tally.reasons {
        eprintln!("perfbench: FAIL {reason}");
    }
    let line = if args.trace {
        report::result_json(&tally, &layer, &PER_LAYER)
    } else {
        report::result_json(&tally, &e2e, &END_TO_END)
    };
    println!("{line}");
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listed_metric_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(report::valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = vmsim_obs::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload walk --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("walk", 7, 10, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload walk --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload walk --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload walk --seconds 1").is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
