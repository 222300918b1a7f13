//! `serve`: one client submits jobs to an in-process `serve::Server` in
//! a closed loop, waiting for each `done` before sending the next.
//!
//! The job mix is fixed: each fresh job (the smoke manifest with a new
//! seed, trace and epoch series on, so it is executed, journaled, and its
//! artifacts written and re-parsed) is followed by repeat submissions of
//! jobs already done, which the result cache answers. Serve, journal,
//! artifacts, `obs::json` and manifest parsing dominate; the simulator
//! does little.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vmsim_config::{builtin, ExperimentManifest, ServeBind};
use vmsim_obs::json::{self, Json};
use vmsim_sim::{ServeConfig, Server};

use crate::layers::{ratio, Layers};
use crate::report::{Report, Tally};
use crate::span::{SpanId, Trace};
use crate::stats;
use crate::{dir_bytes, fnv1a, Bench, Rep, POLICIES};

/// Fresh jobs per repetition.
const FRESH: usize = 4;
/// Cache-answered repeats after each fresh job.
const REPEATS: usize = 3;
/// Longest the client waits for any one reply line.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The fresh job `i` of a run seeded `seed`.
fn fresh_manifest(seed: u64, i: usize, traced: bool) -> ExperimentManifest {
    let mut m = builtin::smoke();
    m.name = "fresh".into();
    m.seeds = vec![seed.wrapping_mul(1_000).wrapping_add(i as u64)];
    m.obs.profile = traced;
    m
}

/// Which earlier fresh job the `r`-th repeat after fresh job `i` resends.
fn repeat_of(seed: u64, i: usize, r: usize) -> usize {
    let mut z = seed ^ ((i * REPEATS + r) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z >> 33) as usize % (i + 1)
}

/// One submission as the client saw it.
struct Submission {
    start: Instant,
    /// The first reply line: `accepted`, or `done` for a cache hit.
    first: Instant,
    end: Instant,
    cached: bool,
    exit: u64,
    results: String,
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    Ok(stream)
}

fn send(stream: &mut TcpStream, line: &str) -> Result<BufReader<TcpStream>, String> {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send: {e}"))?;
    let clone = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    Ok(BufReader::new(clone))
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<Json, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(_) => json::parse(line.trim()).map_err(|e| format!("unparseable reply {line:?}: {e:?}")),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// Sends a bare op (`health`, `drain`) on an open connection.
fn bare_op(mut stream: TcpStream, op: &str) -> Result<Json, String> {
    let mut reader = send(&mut stream, &format!("{{\"op\": \"{op}\"}}\n"))?;
    read_reply(&mut reader)
}

fn submit(addr: &str, manifest_text: &str) -> Result<Submission, String> {
    let mut request = String::from("{\"op\": \"submit\", \"manifest_json\": ");
    json::write_str(&mut request, manifest_text);
    request.push_str(", \"wait\": true}\n");
    let start = Instant::now();
    let mut stream = connect(addr)?;
    let mut reader = send(&mut stream, &request)?;
    let mut reply = read_reply(&mut reader)?;
    let first = Instant::now();
    if reply.get("ok").and_then(Json::as_bool) == Some(false) {
        let error = reply.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("refused: {error}"));
    }
    while reply.get("state").and_then(Json::as_str) != Some("done") {
        if reply.get("state").and_then(Json::as_str) == Some("deferred") {
            return Err("deferred by a drain".into());
        }
        reply = read_reply(&mut reader)?;
    }
    Ok(Submission {
        start,
        first,
        end: Instant::now(),
        cached: reply.get("cached").and_then(Json::as_bool).unwrap_or(false),
        exit: reply.get("exit").and_then(Json::as_u64).unwrap_or(u64::MAX),
        results: reply
            .get("results")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
    })
}

/// A fresh job's artifacts, re-read and re-parsed.
struct Artifacts {
    results: String,
    cycles: [u64; 2],
    walk_cycles: [u64; 2],
    /// Machine ops at the end of each cell's epoch series.
    sim_ops: u64,
    layers: Layers,
    parse_ns: u64,
}

/// Last row of an epoch-series CSV as `(name, value)` pairs.
fn last_series_row(csv: &str) -> Option<Vec<(String, f64)>> {
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let last: Vec<f64> = lines
        .next_back()?
        .split(',')
        .map(|v| v.parse::<f64>())
        .collect::<Result<_, _>>()
        .ok()?;
    (header.len() == last.len()).then(|| header.iter().map(|h| h.to_string()).zip(last).collect())
}

/// Re-reads the artifacts of a finished fresh job from `dir`, re-parsing
/// every JSON document in them.
fn read_artifacts(results_path: &Path, traced: bool) -> Result<Artifacts, String> {
    let dir = results_path
        .parent()
        .ok_or("results path has no directory")?;
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let mut parse_ns = 0u64;
    let mut parse = |text: &str, what: &str| {
        let t = Instant::now();
        let doc = json::parse(text).map_err(|e| format!("{what}: {e:?}"));
        parse_ns += t.elapsed().as_nanos() as u64;
        doc
    };
    let results = read(results_path)?;
    let doc = parse(&results, "results")?;
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or_default();
    let policies: Vec<&str> = runs
        .iter()
        .filter_map(|r| r.get("policy")?.as_str())
        .collect();
    if policies != POLICIES {
        return Err(format!("results list policies {policies:?}"));
    }
    let field = |i: usize, key: &str| runs[i].get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut layers = Layers::default();
    let mut sim_ops = 0;
    for i in 0..runs.len() {
        let trace = read(&dir.join(format!("trace_fresh_{i}.jsonl")))?;
        for (n, line) in trace.lines().enumerate() {
            parse(line, &format!("trace_fresh_{i}.jsonl line {}", n + 1))?;
        }
        let series_path = dir.join(format!("series_fresh_{i}.csv"));
        let row = last_series_row(&read(&series_path)?)
            .ok_or_else(|| format!("{}: no parseable rows", series_path.display()))?;
        let value = |name: &str| row.iter().find(|(h, _)| h == name).map(|&(_, v)| v as u64);
        sim_ops += value("op").unwrap_or(0);
        layers.add_counters(value);
        if traced {
            let path = dir.join(format!("profile_fresh_{i}.json"));
            let profile = parse(&read(&path)?, "profile")?;
            for (phase, acc) in vmsim_obs::Phase::ALL.iter().zip(layers.phase_ns.iter_mut()) {
                *acc += profile
                    .get("phases")
                    .and_then(|p| p.get(phase.name()))
                    .and_then(|p| p.get("wall_ns"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
            }
        }
    }
    Ok(Artifacts {
        results,
        cycles: [field(0, "cycles"), field(1, "cycles")],
        walk_cycles: [field(0, "page_walk_cycles"), field(1, "page_walk_cycles")],
        sim_ops,
        layers,
        parse_ns,
    })
}

pub struct ServeBench {
    seed: u64,
    dir: PathBuf,
    reps: usize,
    fresh_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    jobs_per_s: Vec<f64>,
    gain: Option<(f64, f64)>,
    // Traced pass.
    admit_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    manifest_parse_us: Vec<f64>,
    layers: Layers,
    health: Option<Json>,
    artifact_bytes: u64,
    parse_s: f64,
}

impl ServeBench {
    pub fn new(seed: u64, dir: PathBuf) -> Self {
        ServeBench {
            seed,
            dir,
            reps: 0,
            fresh_ms: Vec::new(),
            hit_ms: Vec::new(),
            jobs_per_s: Vec::new(),
            gain: None,
            admit_ms: Vec::new(),
            exec_ms: Vec::new(),
            manifest_parse_us: Vec::new(),
            layers: Layers::default(),
            health: None,
            artifact_bytes: 0,
            parse_s: 0.0,
        }
    }

    /// Starts a server on a fresh output directory and waits until its
    /// health probe answers `ready`. The probe connects before the accept
    /// loop starts, so set-up time never includes an accept-poll sleep.
    fn start(&self, dir: &Path) -> Result<(String, std::thread::JoinHandle<u8>, Duration), String> {
        let _ = std::fs::remove_dir_all(dir);
        let config = ServeConfig {
            bind: ServeBind::parse("127.0.0.1:0").map_err(str::to_string)?,
            queue_depth: 4,
            drain_ms: 30_000,
            deadline_ms: None,
            out_dir: dir.to_path_buf(),
        };
        let t0 = Instant::now();
        let server = Server::new(&config)?;
        let addr = server.addr().to_string();
        let probe = connect(&addr)?;
        let handle = std::thread::Builder::new()
            .name("perfbench-serve".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn server: {e}"))?;
        let health = bare_op(probe, "health");
        let setup = t0.elapsed();
        match health {
            Ok(h) if h.get("state").and_then(Json::as_str) == Some("ready") => {
                Ok((addr, handle, setup))
            }
            other => {
                let _ = stop(&addr, handle);
                Err(format!("health probe: {:?}", other.map(|_| "not ready")))
            }
        }
    }
}

/// Drains the server and joins its thread; returns its exit code.
fn stop(addr: &str, handle: std::thread::JoinHandle<u8>) -> Result<u8, String> {
    let drained = connect(addr).and_then(|s| bare_op(s, "drain"));
    let code = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    drained.map(|_| code)
}

impl Bench for ServeBench {
    fn rep(&mut self, mut trace: Option<&mut Trace>, tally: &mut Tally) -> Option<Rep> {
        let traced = trace.is_some();
        let rep_span = trace.as_mut().map(|t| t.open("rep", None));
        let dir = self.dir.join(format!("rep{}", self.reps));
        self.reps += 1;
        let (addr, handle, setup) = match self.start(&dir) {
            Ok(started) => started,
            Err(e) => {
                tally.check(false, || format!("serve start: {e}"));
                return None;
            }
        };
        let texts: Vec<String> = (0..FRESH)
            .map(|i| fresh_manifest(self.seed, i, traced).to_json())
            .collect();
        let mut subs: Vec<(usize, bool, Submission)> = Vec::new();
        let mut failure = None;
        let t0 = Instant::now();
        'mix: for i in 0..FRESH {
            let jobs = std::iter::once((i, true))
                .chain((0..REPEATS).map(|r| (repeat_of(self.seed, i, r), false)));
            for (job, fresh) in jobs {
                match submit(&addr, &texts[job]) {
                    Ok(s) => subs.push((job, fresh, s)),
                    Err(e) => {
                        failure = Some(format!("job {job}: {e}"));
                        break 'mix;
                    }
                }
            }
        }
        let wall = t0.elapsed();
        let health = connect(&addr).and_then(|s| bare_op(s, "health"));
        let stopped = stop(&addr, handle);
        tally.check(failure.is_none(), || {
            format!("serve: {}", failure.clone().unwrap_or_default())
        });
        tally.check(matches!(stopped, Ok(0)), || {
            format!("serve drain: {stopped:?}")
        });
        if failure.is_some() {
            return None;
        }
        for (job, fresh, s) in &subs {
            tally.check(s.exit == 0 && s.cached != *fresh, || {
                format!(
                    "serve: job {job} (fresh {fresh}) ended exit {} cached {}",
                    s.exit, s.cached
                )
            });
        }

        let mut arts = Vec::with_capacity(FRESH);
        for (job, _, s) in subs.iter().filter(|(_, fresh, _)| *fresh) {
            match read_artifacts(Path::new(&s.results), traced) {
                Ok(a) => arts.push(a),
                Err(e) => {
                    tally.check(false, || format!("serve: job {job} artifacts: {e}"));
                    return None;
                }
            }
            tally.passed(1);
        }
        let first = &arts[0];
        self.gain.get_or_insert((
            100.0 * (1.0 - ratio(first.cycles[1] as f64, first.cycles[0] as f64)),
            100.0 * (1.0 - ratio(first.walk_cycles[1] as f64, first.walk_cycles[0] as f64)),
        ));
        let fingerprint: String = arts.iter().map(|a| a.results.as_str()).collect();

        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        if let Some(t) = trace.as_mut() {
            let mut layers = Layers::default();
            for a in &arts {
                layers.merge(&a.layers);
            }
            for (_, fresh, s) in &subs {
                let id: SpanId = t.record("request", rep_span, s.start, s.end);
                t.record("admit", Some(id), s.start, s.first);
                self.admit_ms.push(ms(s.start, s.first));
                if *fresh {
                    t.record("exec", Some(id), s.first, s.end);
                    self.exec_ms.push(ms(s.first, s.end));
                    layers.window_ns += (s.end - s.start).as_nanos() as u64;
                }
            }
            for text in &texts {
                let p0 = Instant::now();
                let parsed = ExperimentManifest::from_json(text);
                self.manifest_parse_us
                    .push(p0.elapsed().as_secs_f64() * 1e6);
                tally.check(parsed.is_ok(), || {
                    "serve: a job manifest does not re-parse".into()
                });
            }
            self.layers = layers;
            self.health = health.ok();
            self.artifact_bytes = dir_bytes(&dir);
            self.parse_s = arts.iter().map(|a| a.parse_ns).sum::<u64>() as f64 / 1e9;
            if let Some(id) = rep_span {
                t.close(id);
            }
        } else {
            for (_, fresh, s) in &subs {
                let v = ms(s.start, s.end);
                if *fresh {
                    self.fresh_ms.push(v);
                } else {
                    self.hit_ms.push(v);
                }
            }
            self.jobs_per_s.push(subs.len() as f64 / wall.as_secs_f64());
        }
        let _ = std::fs::remove_dir_all(&dir);
        Some(Rep {
            setup_s: setup.as_secs_f64(),
            units_ms: subs.iter().map(|(_, _, s)| ms(s.start, s.end)).collect(),
            sim_ops: arts.iter().map(|a| a.sim_ops).sum(),
            fingerprint: fnv1a(fingerprint.as_bytes()),
        })
    }

    fn end_to_end(&self, report: &mut Report) {
        report.add_timing("fresh_ms", &stats::summarize(&self.fresh_ms), "ms");
        report.add_timing("hit_ms", &stats::summarize(&self.hit_ms), "ms");
        report.add(
            "jobs_per_s",
            stats::median(&self.jobs_per_s),
            "1/s",
            self.jobs_per_s.len(),
        );
        self.sim_metrics(report);
    }

    fn per_layer(&self, _trace: &Trace, report: &mut Report) {
        self.layers.report(report);
        report.add("artifacts.bytes", self.artifact_bytes as f64, "bytes", 1);
        report.add("json.parse_s", self.parse_s, "s", 1);
        report.add(
            "serve.admit_ms.p50",
            stats::median(&self.admit_ms),
            "ms",
            self.admit_ms.len(),
        );
        report.add(
            "serve.exec_ms.p50",
            stats::median(&self.exec_ms),
            "ms",
            self.exec_ms.len(),
        );
        let gauge = |name: &str| {
            self.health
                .as_ref()
                .and_then(|h| h.get("serve")?.get(name)?.as_u64())
                .unwrap_or(0) as f64
        };
        report.add("serve.cache_hits", gauge("cache_hits"), "count", 1);
        report.add(
            "serve.refusals",
            gauge("rejected") + gauge("invalid"),
            "count",
            1,
        );
        report.add(
            "manifest.parse_us",
            stats::median(&self.manifest_parse_us),
            "us",
            self.manifest_parse_us.len(),
        );
        self.sim_metrics(report);
    }
}

impl ServeBench {
    fn sim_metrics(&self, report: &mut Report) {
        if let Some((exec, walk)) = self.gain {
            report.add("sim.exec_gain_pct", exec, "%", 1);
            report.add("sim.walk_cycles_saved_pct", walk, "%", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_only_resend_finished_jobs() {
        for seed in [0, 7, u64::MAX] {
            for i in 0..FRESH {
                for r in 0..REPEATS {
                    assert!(repeat_of(seed, i, r) <= i);
                }
            }
        }
    }

    #[test]
    fn series_rows_pair_names_with_values() {
        let row = last_series_row("op,a.b\n1,2\n30,4.5\n").unwrap();
        assert_eq!(row, vec![("op".into(), 30.0), ("a.b".into(), 4.5)]);
        assert!(last_series_row("op,a\n1\n").is_none());
        assert!(last_series_row("op\n").is_none());
    }
}
