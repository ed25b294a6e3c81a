//! Helper binary for `perfbench/run.py`.
//!
//! ```text
//! fcdpm-perfbench exec <log file> -- <command…>
//! fcdpm-perfbench check-fleet <grid.json> <aggregate.json>
//! fcdpm-perfbench check-sweep <batch.json> <manifest.json>
//! fcdpm-perfbench trace-fleet --spec <grid.json> --expect <cli run dir> --work <dir>
//!                             [--snapshot <crashed run dir>] --workers N --seconds S --spans <file>
//! fcdpm-perfbench trace-sweep --grid <batch.json> --expect <cli manifest> --work <dir>
//!                             --workers N --seconds S --spans <file>
//! ```
//!
//! `exec` times one child process (see `launch`). The checks exit 1 when
//! an output is wrong. The trace commands replay the workload through
//! each layer's public functions (see `replay`), prove the replay wrote
//! the same bytes as the CLI, add single-layer probes, and print one
//! JSON object of per-layer metrics.

mod check;
mod launch;
mod replay;
mod spans;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fcdpm_grid::{GridAggregate, GridConfig, GridSpec};
use fcdpm_runner::pool::{run_with_retry, RetryPolicy};
use fcdpm_runner::{JobGrid, JobSpec, PolicySpec, RunManifest, WorkloadSpec};
use fcdpm_sim::fixture::{run_reference, ReferencePolicy};
use fcdpm_workload::Scenario;
use serde::Value;

use spans::{durations, quantile, Recorder};

/// Replays per traced run: at least this many, more while time is left.
const MIN_REPLAYS: usize = 3;
const MAX_REPLAYS: usize = 5;
/// Pool calls the no-op overhead probe makes, each with a checkpoint
/// batch worth of jobs.
const POOL_PROBE_CALLS: usize = 200;

/// Spans that are not a named stage of the serial path: the replay root
/// (engine glue with no public function) and the jobs themselves.
const NOT_SERIAL: [&str; 2] = ["replay", "runner.exec.execute"];

type Metrics = BTreeMap<&'static str, f64>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check-fleet") if args.len() == 3 => check_fleet(&args[1], &args[2]),
        Some("check-sweep") if args.len() == 3 => check_sweep(&args[1], &args[2]),
        Some("exec") if args.len() > 3 && args[2] == "--" => launch::run(&args[1], &args[3..]),
        Some(cmd @ ("trace-fleet" | "trace-sweep")) => {
            options(&args[1..]).and_then(|opts| trace(cmd, &opts))
        }
        _ => Err(
            "usage: fcdpm-perfbench exec|check-fleet|check-sweep|trace-fleet|trace-sweep …"
                .to_owned(),
        ),
    };
    match result {
        Ok(text) => println!("{text}"),
        Err(message) => {
            eprintln!("fcdpm-perfbench: {message}");
            std::process::exit(1);
        }
    }
}

fn options(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut opts = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => {
                opts.insert(key[2..].to_owned(), value.clone());
            }
            _ => return Err(format!("bad arguments near `{}`", pair[0])),
        }
    }
    Ok(opts)
}

fn opt<'a>(opts: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))
}

fn parse<T: serde::de::DeserializeOwned>(path: &Path) -> Result<T, String> {
    serde_json::from_str(&read(path)?)
        .map_err(|e| format!("cannot parse `{}`: {e}", path.display()))
}

fn check_fleet(spec: &str, aggregate: &str) -> Result<String, String> {
    let spec: GridSpec = parse(Path::new(spec))?;
    let aggregate: GridAggregate = parse(Path::new(aggregate))?;
    check::fleet(&spec, &aggregate)
}

fn check_sweep(grid: &str, manifest: &str) -> Result<String, String> {
    let grid: JobGrid = parse(Path::new(grid))?;
    let manifest: RunManifest = parse(Path::new(manifest))?;
    check::sweep(&grid, &manifest)
}

/// Copies the regular files of `from` into a fresh directory `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("cannot copy `{}`: {e}", from.display());
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(fail)?;
    }
    std::fs::create_dir_all(to).map_err(fail)?;
    for entry in std::fs::read_dir(from).map_err(fail)? {
        let path = entry.map_err(fail)?.path();
        if path.is_file() {
            let name = path.file_name().unwrap_or_default();
            std::fs::copy(&path, to.join(name)).map_err(fail)?;
        }
    }
    Ok(())
}

/// Every file in `expect` must exist in `got` with the same bytes.
fn same_files(expect: &Path, got: &Path) -> Result<(), String> {
    for entry in
        std::fs::read_dir(expect).map_err(|e| format!("cannot list `{}`: {e}", expect.display()))?
    {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().unwrap_or_default();
        if std::fs::read(&path).ok() != std::fs::read(got.join(name)).ok() {
            return Err(format!(
                "replay wrote different bytes for `{}`",
                name.to_string_lossy()
            ));
        }
    }
    Ok(())
}

fn micros(values: &[f64], q: f64) -> f64 {
    quantile(values, q) * 1e6
}

/// Metrics of the replays of one traced run, each metric the median
/// over replays.
#[derive(Default)]
struct Replays {
    each: Vec<Metrics>,
    jobs: u64,
    failed: u64,
}

impl Replays {
    /// True while another replay is due: the minimum is not reached, or
    /// time is left and the maximum is not.
    fn more(&self, start: Instant, seconds: f64) -> bool {
        self.each.len() < MIN_REPLAYS
            || (self.each.len() < MAX_REPLAYS && start.elapsed().as_secs_f64() < seconds)
    }

    /// Adds the replay whose root span is `root` and whose spans start
    /// at id `first`.
    fn add(&mut self, rec: &Recorder, first: usize, root: usize, tally: &replay::Tally) {
        self.jobs += tally.jobs;
        self.failed += tally.failed;
        let spans = rec.since(first);
        let d = |name: &str| durations(spans, name);
        let total_ms = |name: &str| d(name).iter().fold(0.0, |sum, s| sum + s) * 1e3;
        let execute = d("runner.exec.execute");
        let appends = d("grid.manifest.checkpoint_append");
        let serial = rec
            .self_times(first)
            .into_iter()
            .filter(|(name, _)| !NOT_SERIAL.contains(name))
            .fold(0.0, |sum, (_, s)| sum + s);
        self.each.push(Metrics::from([
            ("runner.exec.execute_us.p50", micros(&execute, 0.50)),
            ("runner.exec.execute_us.p99", micros(&execute, 0.99)),
            ("runner.exec.busy_s", execute.iter().sum()),
            ("runner.pool.calls", tally.pool_calls as f64),
            (
                "sim.policy_consultations",
                tally.policy_consultations as f64,
            ),
            ("sim.chunks_coalesced", tally.chunks_coalesced as f64),
            ("sim.chunks_stepped", tally.chunks_stepped as f64),
            (
                "grid.manifest.checkpoint_appends",
                tally.checkpoint_appends as f64,
            ),
            (
                "grid.manifest.checkpoint_append_us.p50",
                micros(&appends, 0.50),
            ),
            (
                "grid.manifest.checkpoint_append_us.p99",
                micros(&appends, 0.99),
            ),
            (
                "grid.manifest.checkpoint_bytes",
                tally.checkpoint_bytes as f64,
            ),
            (
                "grid.manifest.shard_write_ms",
                total_ms("grid.manifest.write_shard"),
            ),
            ("grid.manifest.shard_bytes", tally.shard_bytes as f64),
            (
                "grid.manifest.shard_read_ms",
                total_ms("grid.manifest.read_shard"),
            ),
            (
                "grid.manifest.partial_read_ms",
                total_ms("grid.manifest.read_partial"),
            ),
            (
                "grid.gen.spec_digest_us",
                micros(&d("grid.gen.spec_digest"), 0.50),
            ),
            ("grid.gen.job_at_us", micros(&d("grid.gen.job_at"), 0.50)),
            (
                "runner.spec.job_id_us",
                micros(&d("runner.spec.job_id"), 0.50),
            ),
            (
                "grid.engine.aggregate_write_ms",
                total_ms("grid.engine.aggregate_write"),
            ),
            ("runner.spec.expand_ms", total_ms("runner.spec.expand")),
            (
                "runner.manifest.encode_ms",
                total_ms("runner.manifest.encode"),
            ),
            ("runner.manifest.bytes", tally.manifest_bytes as f64),
            ("trace.serial_self_s", serial),
            ("trace.traced_wall_s", rec.get(root).seconds()),
        ]));
    }

    fn medians(&self) -> Metrics {
        let mut out = Metrics::new();
        for &key in self.each.first().map(Metrics::keys).into_iter().flatten() {
            let values: Vec<f64> = self
                .each
                .iter()
                .filter_map(|m| m.get(key).copied())
                .collect();
            out.insert(key, quantile(&values, 0.5));
        }
        out
    }
}

fn reference_policy(policy: &PolicySpec) -> Option<ReferencePolicy> {
    match policy {
        PolicySpec::Conv => Some(ReferencePolicy::Conv),
        PolicySpec::Asap => Some(ReferencePolicy::Asap),
        PolicySpec::FcDpm => Some(ReferencePolicy::FcDpm),
        PolicySpec::WindowedAverage => Some(ReferencePolicy::Windowed),
        PolicySpec::Quantized(12) => Some(ReferencePolicy::Quantized),
        PolicySpec::Quantized(_) | PolicySpec::Constant(_) => None,
    }
}

/// Single-layer probes on the workload's distinct (scenario, policy)
/// pairs: `Scenario::experiment{1,2}_seeded` and the reference policy
/// through `fcdpm_sim::fixture`. DVS and multi-device scenarios are
/// built privately by the executor and have no public constructor.
fn sim_probe(
    rec: &mut Recorder,
    jobs: impl Iterator<Item = JobSpec>,
    problems: &mut Vec<String>,
    m: &mut Metrics,
) {
    let mut workloads: Vec<WorkloadSpec> = Vec::new();
    let mut policies: Vec<ReferencePolicy> = Vec::new();
    for job in jobs {
        let slotted = matches!(
            job.workload,
            WorkloadSpec::Experiment1(_) | WorkloadSpec::Experiment2(_)
        );
        if slotted && !workloads.contains(&job.workload) {
            workloads.push(job.workload);
        }
        if let Some(policy) = reference_policy(&job.policy).filter(|p| !policies.contains(p)) {
            policies.push(policy);
        }
    }
    let first = rec.len();
    rec.span("probe.sim", None, |rec| {
        for workload in &workloads {
            let scenario = rec.span("workload.scenario", None, |_| match *workload {
                WorkloadSpec::Experiment1(seed) => Scenario::experiment1_seeded(seed),
                WorkloadSpec::Experiment2(seed)
                | WorkloadSpec::MultiDevice(seed)
                | WorkloadSpec::Dvs(seed) => Scenario::experiment2_seeded(seed),
            });
            for &policy in &policies {
                if let Err(e) = rec.span("sim.run", None, |_| run_reference(&scenario, policy)) {
                    problems.push(format!("{} on {workload:?}: {e}", policy.label()));
                }
            }
        }
    });
    let spans = rec.since(first);
    let runs = durations(spans, "sim.run");
    m.insert("sim.run_us.p50", micros(&runs, 0.50));
    m.insert("sim.run_us.p99", micros(&runs, 0.99));
    m.insert(
        "workload.scenario_us",
        micros(&durations(spans, "workload.scenario"), 0.50),
    );
}

/// Wall time of one `run_with_retry` call on a checkpoint batch of
/// no-op jobs: the pool's per-call cost with no work to hide it.
fn pool_probe(rec: &mut Recorder, workers: usize, m: &mut Metrics) {
    let batch = usize::try_from(GridConfig::default().checkpoint_batch).unwrap_or(32);
    let first = rec.len();
    rec.span("probe.pool", None, |rec| {
        for _ in 0..POOL_PROBE_CALLS {
            rec.span("runner.pool.noop_call", None, |_| {
                let jobs: Vec<_> = (0..batch).map(|i| move |_attempt: u32| i).collect();
                std::hint::black_box(run_with_retry(jobs, workers, None, &RetryPolicy::default()));
            });
        }
    });
    let calls = durations(rec.since(first), "runner.pool.noop_call");
    m.insert("runner.pool.call_overhead_us", micros(&calls, 0.50));
}

/// Serialization cost of one grid record, the unit each checkpoint line
/// and shard line is built from.
fn encode_probe(rec: &mut Recorder, records: &[fcdpm_grid::GridJobRecord], m: &mut Metrics) {
    let first = rec.len();
    rec.span("probe.encode", None, |rec| {
        for record in records {
            rec.span("grid.manifest.record_encode", Some(record.index), |_| {
                std::hint::black_box(serde_json::to_string(record).unwrap_or_default());
            });
        }
    });
    let encodes = durations(rec.since(first), "grid.manifest.record_encode");
    m.insert("grid.manifest.record_encode_us", micros(&encodes, 0.50));
}

fn trace(cmd: &str, opts: &BTreeMap<String, String>) -> Result<String, String> {
    let work = PathBuf::from(opt(opts, "work")?);
    let expect = PathBuf::from(opt(opts, "expect")?);
    let workers: usize = opt(opts, "workers")?
        .parse()
        .map_err(|_| "bad --workers".to_owned())?;
    let seconds: f64 = opt(opts, "seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_owned())?;
    std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create `{}`: {e}", work.display()))?;
    let mut rec = Recorder::new();
    let mut problems = Vec::new();
    let mut replays = Replays::default();
    let mut probes = Metrics::new();
    let start = Instant::now();

    if cmd == "trace-fleet" {
        let spec: GridSpec = parse(Path::new(opt(opts, "spec")?))?;
        let snapshot = opts.get("snapshot").map(PathBuf::from);
        let aggregate_json = read(&expect.join("aggregate.json"))?;
        let mut last = Vec::new();
        while replays.more(start, seconds) {
            let dir = work.join("replay");
            match &snapshot {
                Some(snapshot) => copy_dir(snapshot, &dir)?,
                None if dir.exists() => std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?,
                None => {}
            }
            let first = rec.len();
            let (result, root) = rec.span_id("replay", None, |rec| {
                let resume = snapshot.is_some();
                replay::fleet(rec, &spec, &dir, workers, resume, &aggregate_json)
            });
            let (tally, records) = result?;
            if let Err(e) = same_files(&expect, &dir) {
                problems.push(e);
            }
            replays.add(&rec, first, root, &tally);
            last = records;
        }
        encode_probe(&mut rec, &last, &mut probes);
        sim_probe(
            &mut rec,
            spec.iter().map(|(_, job)| job),
            &mut problems,
            &mut probes,
        );

        // The engine's own counters, from one `fcdpm_grid::run` on the
        // same start state.
        let out_dir = work.join("engine");
        let run_dir = out_dir.join("run");
        if let Some(snapshot) = &snapshot {
            copy_dir(snapshot, &run_dir)?;
        }
        let config = GridConfig {
            workers,
            out_dir,
            run_id: Some("run".to_owned()),
            resume: snapshot.is_some(),
            ..GridConfig::default()
        };
        let run = rec.span("grid.engine.run", None, |_| fcdpm_grid::run(&spec, &config))?;
        if read(&run_dir.join("aggregate.json"))? != aggregate_json {
            problems
                .push("fcdpm_grid::run wrote a different aggregate.json than the CLI".to_owned());
        }
        probes.insert("grid.engine.cache_hits", run.cache_hits as f64);
        probes.insert("grid.engine.recovered_jobs", run.recovered_jobs as f64);
        probes.insert("grid.engine.recomputed", run.recomputed as f64);
        probes.insert(
            "grid.engine.peak_resident_jobs",
            run.peak_resident_jobs as f64,
        );
    } else {
        let grid: JobGrid = parse(Path::new(opt(opts, "grid")?))?;
        let expected = parse::<RunManifest>(&expect)?.deterministic_json();
        let path = work.join("replay.manifest.json");
        while replays.more(start, seconds) {
            let first = rec.len();
            let (result, root) = rec.span_id("replay", None, |rec| {
                replay::sweep(rec, &grid, &path, workers)
            });
            let (tally, manifest) = result?;
            if manifest.deterministic_json() != expected {
                problems.push("replay manifest differs from the CLI's".to_owned());
            }
            replays.add(&rec, first, root, &tally);
        }
        // The sweep never touches grid records or the grid engine.
        for key in [
            "grid.manifest.record_encode_us",
            "grid.engine.cache_hits",
            "grid.engine.recovered_jobs",
            "grid.engine.recomputed",
            "grid.engine.peak_resident_jobs",
        ] {
            probes.insert(key, 0.0);
        }
        sim_probe(
            &mut rec,
            grid.expand().into_iter(),
            &mut problems,
            &mut probes,
        );
    }
    pool_probe(&mut rec, workers, &mut probes);
    rec.write_jsonl(Path::new(opt(opts, "spans")?))?;

    let mut metrics = replays.medians();
    metrics.append(&mut probes);
    let metrics = metrics
        .into_iter()
        .map(|(name, value)| (name.to_owned(), Value::Float(value)))
        .collect();
    let count = |n: u64| Value::Int(i64::try_from(n).unwrap_or(i64::MAX));
    let out = Value::Map(vec![
        ("jobs".to_owned(), count(replays.jobs)),
        ("failed".to_owned(), count(replays.failed)),
        ("replays".to_owned(), count(replays.each.len() as u64)),
        (
            "problems".to_owned(),
            Value::Seq(problems.into_iter().map(Value::Str).collect()),
        ),
        ("metrics".to_owned(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&out).map_err(|e| e.to_string())
}
