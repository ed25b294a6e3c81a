//! Wall-clock bench harness behind `fcdpm bench`.
//!
//! Two measurements in one pass:
//!
//! 1. **Fixture grid** — the paper's three policies over the camcorder
//!    and synthetic reference workloads, executed through
//!    [`fcdpm_runner::run_grid`] exactly as a batch campaign would run
//!    them, with per-job wall-clock from the manifest.
//! 2. **Coalescing A/B** — each reference policy on the camcorder
//!    scenario with the chunk-coalescing fast path on and off, timing
//!    both and checking the physics agree. Two acceptance gates ride on
//!    this section: every shipped policy must integrate in closed form
//!    (`chunks_stepped == 0` on the fast path — only the chunked oracle
//!    steps), and no policy may consult more than twice as often as the
//!    Conv baseline.
//! 3. **Fault sweep** — the quick canonical fault-injection sweep
//!    (starvation and combined schedules under plain, resilient and
//!    Conv policies), so payload diffs also catch drift in the
//!    degradation ladder.
//! 4. **Grid throughput & crash safety** — a small fixture `GridSpec`
//!    through the sharded fleet engine, reporting jobs/sec as a
//!    first-class metric: *nominal* jobs/sec (from the simulators' own
//!    work counters under the engine's fixed cost model —
//!    deterministic, in the payload) and *wall* jobs/sec (in the human
//!    report only). The same section exercises the crash-safety path
//!    deterministically — one promoted shard is demoted to a partial
//!    checkpoint and the resume must replay it without recomputing —
//!    and times the engine with checkpointing on and off; checkpointing
//!    must cost at most 5% (plus a small absolute floor for timer
//!    noise), or the harness fails.
//!
//! The machine-readable payload ([`BenchReport::json`]) carries only
//! deterministic content — metrics and work counters, never timings —
//! so CI can diff two consecutive runs byte-for-byte. Wall-clock
//! numbers live in the human report ([`BenchReport::text`]);
//! [`drift_against`] renders the metric drift between two payloads for
//! the `results/bench-history/` trend tracking.

use core::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fcdpm_runner::{run_grid, run_specs, JobGrid, PolicySpec, RunConfig, WorkloadSpec};
use fcdpm_sim::fixture::{run_reference_on, ReferencePolicy};
use fcdpm_sim::{HybridSimulator, SimMetrics};
use fcdpm_workload::Scenario;

use serde::{Deserialize, Serialize};

/// The paper's reference trace seed.
pub const BENCH_SEED: u64 = 0xDAC0_2007;

/// How many timing repetitions a full (respectively `--quick`) run takes
/// per configuration; the minimum over repetitions is reported.
const FULL_REPS: usize = 20;
const QUICK_REPS: usize = 3;

/// Options for one harness run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchOptions {
    /// Fewer timing repetitions — for CI smoke runs.
    pub quick: bool,
}

/// One fixture-grid job in the deterministic payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JobEntry {
    id: String,
    policy: String,
    workload: String,
    metrics: fcdpm_runner::JobMetrics,
}

/// One coalescing A/B comparison in the deterministic payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CoalescingEntry {
    policy: String,
    chunks_stepped: u64,
    chunks_coalesced: u64,
    policy_consultations: u64,
    physics_match: bool,
}

/// One fault-sweep job in the deterministic payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FaultEntry {
    label: String,
    id: String,
    metrics: fcdpm_runner::JobMetrics,
}

/// The fleet-engine throughput section of the deterministic payload.
/// Only work-counter-derived numbers — the wall-clock jobs/sec lives in
/// the human report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ThroughputEntry {
    spec_digest: String,
    jobs: u64,
    shards: u64,
    shard_size: u64,
    completed: u64,
    peak_resident_jobs: u64,
    chunks_stepped: u64,
    chunks_coalesced: u64,
    policy_consultations: u64,
    jobs_per_sec_nominal: f64,
    /// Jobs replayed from a partial checkpoint by the deterministic
    /// demote-and-resume exercise (one full shard's worth).
    recovered_jobs: u64,
}

/// The deterministic machine-readable payload (`BENCH_4.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchPayload {
    schema: String,
    seed: u64,
    grid_digest: String,
    jobs: Vec<JobEntry>,
    coalescing: Vec<CoalescingEntry>,
    faults: Vec<FaultEntry>,
    throughput: ThroughputEntry,
}

/// The outcome of one harness run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Deterministic JSON payload — write this to `BENCH_4.json`.
    pub json: String,
    /// Human report with wall-clock timings — print this.
    pub text: String,
    /// Coalesced-over-per-chunk speedup on the Conv camcorder run.
    pub speedup: f64,
    /// Wall-clock throughput of the fixture grid through the fleet
    /// engine (jobs/sec; machine-dependent, not in the payload).
    pub jobs_per_sec: f64,
}

/// A per-run scratch directory for the fleet-engine sections, unique per
/// process and per [`run`] call so concurrent harness runs never share
/// shard files, and removed when the run ends (also on error paths).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!("fcdpm-bench-{}-{n}", std::process::id())))
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Do two runs agree physically? Work counters are excluded (the two
/// paths legitimately count work differently) and accumulated floats
/// compare to tolerance, since the closed form reorders arithmetic.
fn physics_match(a: &SimMetrics, b: &SimMetrics) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()));
    a.slots == b.slots
        && a.sleeps == b.sleeps
        && close(a.fuel.total().amp_seconds(), b.fuel.total().amp_seconds())
        && close(
            a.delivered_charge.amp_seconds(),
            b.delivered_charge.amp_seconds(),
        )
        && close(a.load_charge.amp_seconds(), b.load_charge.amp_seconds())
        && close(a.bled_charge.amp_seconds(), b.bled_charge.amp_seconds())
        && close(
            a.deficit_charge.amp_seconds(),
            b.deficit_charge.amp_seconds(),
        )
        && close(a.deficit_time.seconds(), b.deficit_time.seconds())
        && close(a.final_soc.amp_seconds(), b.final_soc.amp_seconds())
}

/// A minimum wall-clock time in seconds and the last run's result.
type Timed<T> = (f64, T);

/// Minimum wall-clock over `reps` alternating runs of `a` and `b`, in
/// seconds, plus each side's last result. Alternating keeps a burst of
/// background load (writeback, a co-tenant) from landing on one side
/// of a ratio only.
fn time_min_pair<T>(
    reps: usize,
    mut a: impl FnMut() -> Result<T, String>,
    mut b: impl FnMut() -> Result<T, String>,
) -> Result<(Timed<T>, Timed<T>), String> {
    let mut best = [f64::INFINITY; 2];
    let mut last = (None, None);
    for _ in 0..reps {
        let start = Instant::now();
        last.0 = Some(a()?);
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        last.1 = Some(b()?);
        best[1] = best[1].min(start.elapsed().as_secs_f64());
    }
    match last {
        (Some(x), Some(y)) => Ok(((best[0], x), (best[1], y))),
        _ => Err("no repetitions ran".to_owned()),
    }
}

/// Runs the harness.
///
/// # Errors
///
/// Returns a message when any fixture job fails or the coalescing A/B
/// physics disagree beyond tolerance.
pub fn run(options: &BenchOptions) -> Result<BenchReport, String> {
    let reps = if options.quick { QUICK_REPS } else { FULL_REPS };
    let mut text = String::new();

    // 1. Fixture grid through the batch runner.
    let grid = JobGrid::new(
        vec![PolicySpec::Conv, PolicySpec::Asap, PolicySpec::FcDpm],
        vec![
            WorkloadSpec::Experiment1(BENCH_SEED),
            WorkloadSpec::Experiment2(BENCH_SEED),
        ],
    );
    let manifest = run_grid(&grid, &RunConfig::default());
    if !manifest.all_completed() {
        return Err(format!("fixture grid failed: {}", manifest.summary()));
    }

    text.push_str("fixture grid (via fcdpm-runner)\n");
    text.push_str(
        "  job                          wall_ms  chunks_stepped  chunks_coalesced  consultations\n",
    );
    let mut jobs = Vec::new();
    for record in &manifest.records {
        let metrics = record
            .outcome
            .metrics()
            .ok_or_else(|| format!("job {} has no metrics", record.id))?;
        let name = format!(
            "{}/{}",
            record.spec.policy.label(),
            record.spec.workload.label()
        );
        text.push_str(&format!(
            "  {name:<28} {:>7}  {:>14}  {:>16}  {:>13}\n",
            record.wall_ms,
            metrics.chunks_stepped,
            metrics.chunks_coalesced,
            metrics.policy_consultations,
        ));
        jobs.push(JobEntry {
            id: record.id.clone(),
            policy: record.spec.policy.label(),
            workload: record.spec.workload.label(),
            metrics: metrics.clone(),
        });
    }

    // 2. Coalescing A/B on the camcorder scenario.
    let scenario = Scenario::experiment1_seeded(BENCH_SEED);
    text.push_str("\ncoalescing A/B (camcorder trace)\n");
    text.push_str("  policy    coalesced_ms  per_chunk_ms  speedup  physics\n");
    let mut coalescing = Vec::new();
    let mut conv_speedup = 0.0;
    for policy in ReferencePolicy::ALL {
        let fast_sim = HybridSimulator::dac07(&scenario.device);
        let slow_sim = HybridSimulator::dac07(&scenario.device).without_coalescing();
        let ((fast_s, fast), (slow_s, slow)) = time_min_pair(
            reps,
            || run_reference_on(&fast_sim, &scenario, policy).map_err(|e| e.to_string()),
            || run_reference_on(&slow_sim, &scenario, policy).map_err(|e| e.to_string()),
        )?;
        let matches = physics_match(&fast, &slow);
        if !matches {
            return Err(format!(
                "{}: coalesced physics diverge from per-chunk",
                policy.label()
            ));
        }
        let speedup = if fast_s > 0.0 { slow_s / fast_s } else { 1.0 };
        if policy == ReferencePolicy::Conv {
            conv_speedup = speedup;
        }
        text.push_str(&format!(
            "  {:<9} {:>12.3}  {:>12.3}  {:>6.2}x  {}\n",
            policy.label(),
            fast_s * 1e3,
            slow_s * 1e3,
            speedup,
            if matches { "ok" } else { "DIVERGED" },
        ));
        coalescing.push(CoalescingEntry {
            policy: policy.label().to_owned(),
            chunks_stepped: fast.chunks_stepped,
            chunks_coalesced: fast.chunks_coalesced,
            policy_consultations: fast.policy_consultations,
            physics_match: matches,
        });
    }
    text.push_str(&format!(
        "\nConv camcorder speedup: {conv_speedup:.2}x (acceptance floor: 3x)\n"
    ));

    // Acceptance gates on the A/B section. A stepped chunk on the fast
    // path means a plan phase was integrated chunk by chunk outside the
    // oracle — a regression, not a legitimate slow path.
    for entry in &coalescing {
        if entry.chunks_stepped != 0 {
            return Err(format!(
                "{}: {} chunks stepped on the coalesced path; every shipped \
                 policy must plan in closed form",
                entry.policy, entry.chunks_stepped
            ));
        }
    }
    // Piecewise planners re-consult at their SoC crossings, which is
    // bounded work; anything beyond twice the Conv baseline means a
    // plan is splitting far more than its trigger state justifies.
    let conv_consultations = coalescing
        .iter()
        .find(|e| e.policy == ReferencePolicy::Conv.label())
        .map(|e| e.policy_consultations)
        .ok_or_else(|| "coalescing section lost the Conv baseline".to_owned())?;
    for entry in &coalescing {
        if entry.policy_consultations > 2 * conv_consultations {
            return Err(format!(
                "{}: {} policy consultations exceed twice the Conv baseline ({})",
                entry.policy, entry.policy_consultations, conv_consultations
            ));
        }
    }

    // 3. Quick fault-injection sweep through the runner. Always the
    // quick catalogue, so quick and full harness runs produce the same
    // payload bytes.
    let sweep = fcdpm_runner::fault_sweep_labeled(BENCH_SEED, true);
    let specs: Vec<fcdpm_runner::JobSpec> = sweep.iter().map(|(_, s)| s.clone()).collect();
    let fault_manifest = run_specs(&specs, &RunConfig::default());
    if !fault_manifest.all_completed() {
        return Err(format!("fault sweep failed: {}", fault_manifest.summary()));
    }
    text.push_str("\nfault sweep (quick canonical schedules)\n");
    text.push_str("  schedule/policy         wall_ms  deficit_s  faults  degradations\n");
    let mut faults = Vec::new();
    for ((label, _), record) in sweep.iter().zip(&fault_manifest.records) {
        let metrics = record
            .outcome
            .metrics()
            .ok_or_else(|| format!("fault job {} has no metrics", record.id))?;
        text.push_str(&format!(
            "  {label:<22} {:>8}  {:>9.3}  {:>6}  {:>12}\n",
            record.wall_ms, metrics.deficit_time_s, metrics.faults_applied, metrics.degradations,
        ));
        faults.push(FaultEntry {
            label: label.clone(),
            id: record.id.clone(),
            metrics: metrics.clone(),
        });
    }

    // 4. Grid throughput through the sharded fleet engine: a fresh run
    // into a scratch directory, sized to exercise multiple shards with
    // a ragged tail. The payload keeps only the deterministic nominal
    // throughput; wall-clock jobs/sec goes to the text report.
    let grid_spec = fcdpm_grid::GridSpec::new(
        fcdpm_grid::SeedAxis::Range(fcdpm_grid::SeedRange {
            start: BENCH_SEED,
            count: 4,
        }),
        vec![fcdpm_grid::WorkloadKind::Experiment1],
        vec![PolicySpec::Conv, PolicySpec::FcDpm],
    );
    let scratch = ScratchDir::new();
    let grid_config = fcdpm_grid::GridConfig {
        shard_size: 3,
        out_dir: scratch.join("grid"),
        ..fcdpm_grid::GridConfig::default()
    };
    let grid_run = fcdpm_grid::run(&grid_spec, &grid_config)
        .map_err(|e| format!("throughput grid failed: {e}"))?;
    let agg = &grid_run.aggregate;
    if agg.completed != agg.jobs {
        return Err(format!(
            "throughput grid failed: {} of {} jobs completed",
            agg.completed, agg.jobs
        ));
    }
    text.push_str(&format!(
        "\ngrid throughput (fleet engine, {} jobs over {} shards)\n",
        agg.jobs, agg.shards
    ));
    text.push_str(&format!(
        "  jobs/sec: {:.0} wall, {:.0} nominal | peak resident jobs: {} | wall: {:.1} ms\n",
        grid_run.jobs_per_sec_wall,
        agg.jobs_per_sec_nominal,
        grid_run.peak_resident_jobs,
        grid_run.wall_s * 1e3,
    ));

    // Crash-safety exercise: demote the first promoted shard back to a
    // partial checkpoint (exactly what a kill mid-promote leaves
    // behind), then resume. Every demoted record must replay from the
    // checkpoint — zero recomputation — and the aggregate must come out
    // byte-identical.
    let aggregate_path = grid_run.dir.join("aggregate.json");
    let aggregate_before = std::fs::read_to_string(&aggregate_path)
        .map_err(|e| format!("cannot read {}: {e}", aggregate_path.display()))?;
    let shard0 = grid_run.dir.join(fcdpm_grid::shard_file_name(0));
    let demoted = fcdpm_grid::read_shard(&shard0).map_err(|e| format!("demoting shard 0: {e}"))?;
    std::fs::remove_file(&shard0).map_err(|e| format!("demoting shard 0: {e}"))?;
    let mut writer = fcdpm_grid::PartialShardWriter::create(&grid_run.dir, 0)
        .map_err(|e| format!("demoting shard 0: {e}"))?;
    writer
        .append(&demoted)
        .map_err(|e| format!("demoting shard 0: {e}"))?;
    let resume_config = fcdpm_grid::GridConfig {
        resume: true,
        ..grid_config.clone()
    };
    let resumed = fcdpm_grid::run(&grid_spec, &resume_config)
        .map_err(|e| format!("checkpoint resume failed: {e}"))?;
    let recovered_jobs = resumed.recovered_jobs;
    if recovered_jobs != to_u64(demoted.len()) || resumed.recomputed != 0 {
        return Err(format!(
            "checkpoint resume recovered {recovered_jobs} of {} demoted jobs and recomputed {}; \
             a clean checkpoint must replay fully",
            demoted.len(),
            resumed.recomputed
        ));
    }
    let aggregate_after = std::fs::read_to_string(&aggregate_path)
        .map_err(|e| format!("cannot read {}: {e}", aggregate_path.display()))?;
    if aggregate_before != aggregate_after {
        return Err("checkpoint resume changed aggregate.json bytes".to_owned());
    }
    text.push_str(&format!(
        "  checkpoint resume: {recovered_jobs} jobs replayed, 0 recomputed, aggregate identical\n"
    ));

    // Checkpoint-overhead A/B: the same grid, fresh each repetition,
    // with mid-shard checkpointing on (default batch) and off. The
    // fsync'd batches may cost at most 5% wall-clock plus a 5 ms
    // absolute floor that keeps timer noise on a near-instant fixture
    // from tripping the gate.
    let overhead_config = |name: &str, checkpoint_batch: u64| fcdpm_grid::GridConfig {
        out_dir: scratch.join(name),
        checkpoint_batch,
        ..fcdpm_grid::GridConfig::default()
    };
    let (ckpt, nockpt) = (overhead_config("ckpt", 32), overhead_config("nockpt", 0));
    let overhead_run = |config: &fcdpm_grid::GridConfig| {
        fcdpm_grid::run(&grid_spec, config)
            .map(drop)
            .map_err(|e| format!("overhead grid failed: {e}"))
    };
    let ((ckpt_s, ()), (nockpt_s, ())) =
        time_min_pair(reps, || overhead_run(&ckpt), || overhead_run(&nockpt))?;
    let overhead_pct = if nockpt_s > 0.0 {
        (ckpt_s / nockpt_s - 1.0) * 100.0
    } else {
        0.0
    };
    text.push_str(&format!(
        "  checkpoint overhead: {:.1} ms on vs {:.1} ms off ({overhead_pct:+.1}%, gate 5% + 5 ms)\n",
        ckpt_s * 1e3,
        nockpt_s * 1e3,
    ));
    if ckpt_s > nockpt_s * 1.05 + 0.005 {
        return Err(format!(
            "checkpointing costs {:.1} ms over the uncheckpointed {:.1} ms — past the \
             5% + 5 ms acceptance gate",
            (ckpt_s - nockpt_s) * 1e3,
            nockpt_s * 1e3
        ));
    }

    let throughput = ThroughputEntry {
        spec_digest: agg.spec_digest.clone(),
        jobs: agg.jobs,
        shards: agg.shards,
        shard_size: agg.shard_size,
        completed: agg.completed,
        peak_resident_jobs: grid_run.peak_resident_jobs,
        chunks_stepped: agg.chunks_stepped,
        chunks_coalesced: agg.chunks_coalesced,
        policy_consultations: agg.policy_consultations,
        jobs_per_sec_nominal: agg.jobs_per_sec_nominal,
        recovered_jobs,
    };

    let payload = BenchPayload {
        schema: "fcdpm-bench/4".to_owned(),
        seed: BENCH_SEED,
        grid_digest: manifest.grid_digest.clone(),
        jobs,
        coalescing,
        faults,
        throughput,
    };
    // Only the deterministic metrics reach the payload; the harness test
    // pins `wall_ms` out of the JSON bytes.
    let json = serde_json::to_string_pretty(&payload)
        .map_err(|e| format!("payload serialization: {e}"))?;

    Ok(BenchReport {
        json,
        text,
        speedup: conv_speedup,
        jobs_per_sec: grid_run.jobs_per_sec_wall,
    })
}

/// Appends a drift line for one `(metric, old, new)` triple when the
/// values differ beyond float noise.
fn drift_line(out: &mut String, entry: &str, metric: &str, old: f64, new: f64) -> bool {
    let close = (old - new).abs() <= 1e-9 * (1.0 + old.abs().max(new.abs()));
    if close {
        return false;
    }
    let rel = if old.abs() > 0.0 {
        format!(" ({:+.2}%)", (new - old) / old.abs() * 100.0)
    } else {
        String::new()
    };
    let _ = writeln!(out, "  {entry}: {metric} {old:.3} -> {new:.3}{rel}");
    true
}

/// Renders the metric drift between two deterministic payloads.
///
/// Returns `None` when `previous` does not parse as the current payload
/// schema (e.g. a payload written before a schema bump) — callers
/// should skip the comparison rather than fail. Identical payloads
/// yield the explicit "no drift" line so trend logs stay greppable.
#[must_use]
pub fn drift_against(previous: &str, current: &str) -> Option<String> {
    let prev: BenchPayload = serde_json::from_str(previous).ok()?;
    let cur: BenchPayload = serde_json::from_str(current).ok()?;
    if prev.schema != cur.schema {
        return None;
    }
    let mut out = String::new();
    let mut drifted = 0usize;
    fn compare(
        out: &mut String,
        entry: &str,
        old: &fcdpm_runner::JobMetrics,
        new: &fcdpm_runner::JobMetrics,
    ) -> usize {
        let mut drifted = 0usize;
        for (metric, o, n) in [
            ("fuel_as", old.fuel_as, new.fuel_as),
            ("deficit_time_s", old.deficit_time_s, new.deficit_time_s),
            (
                "chunks_coalesced",
                to_f64(old.chunks_coalesced),
                to_f64(new.chunks_coalesced),
            ),
            (
                "degradations",
                to_f64(old.degradations),
                to_f64(new.degradations),
            ),
        ] {
            drifted += usize::from(drift_line(out, entry, metric, o, n));
        }
        drifted
    }
    for entry in &cur.jobs {
        if let Some(p) = prev.jobs.iter().find(|p| p.id == entry.id) {
            let label = format!("{}/{}", entry.policy, entry.workload);
            drifted += compare(&mut out, &label, &p.metrics, &entry.metrics);
        } else {
            let _ = writeln!(out, "  {}: new fixture job", entry.id);
            drifted += 1;
        }
    }
    for entry in &cur.faults {
        if let Some(p) = prev.faults.iter().find(|p| p.id == entry.id) {
            drifted += compare(&mut out, &entry.label, &p.metrics, &entry.metrics);
        } else {
            let _ = writeln!(out, "  {}: new fault job", entry.label);
            drifted += 1;
        }
    }
    drifted += usize::from(drift_line(
        &mut out,
        "grid-throughput",
        "jobs_per_sec_nominal",
        prev.throughput.jobs_per_sec_nominal,
        cur.throughput.jobs_per_sec_nominal,
    ));
    if drifted == 0 {
        out.push_str("  no drift vs previous payload\n");
    }
    Some(out)
}

/// `u64` → `f64` for drift display; bench counters stay far below the
/// 2^53 mantissa limit.
#[allow(clippy::cast_precision_loss)]
fn to_f64(v: u64) -> f64 {
    v as f64
}

/// `usize` → `u64` for record counts (lossless on every supported
/// target).
fn to_u64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// One harness run at a time: the harness gates on wall-clock
    /// ratios (checkpoint overhead, coalescing speedup) that are
    /// meaningless while other harness runs compete for the same cores
    /// and fsyncs.
    fn serial_run(quick: bool) -> BenchReport {
        static SERIAL: Mutex<()> = Mutex::new(());
        let _guard = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        run(&BenchOptions { quick }).expect("harness runs")
    }

    #[test]
    fn quick_harness_runs_and_is_deterministic() {
        let first = serial_run(true);
        let second = serial_run(true);
        assert_eq!(first.json, second.json, "payload must be deterministic");
        assert!(first.json.contains("\"schema\": \"fcdpm-bench/4\""));
        assert!(!first.json.contains("wall_ms"), "no timings in payload");
        assert!(first.text.contains("speedup"));
        assert!(first.text.contains("fault sweep"));
        assert!(first.json.contains("starvation/resilient"));
        // Throughput is first-class: deterministic nominal jobs/sec in
        // the payload, wall jobs/sec only in the human report.
        assert!(first.json.contains("jobs_per_sec_nominal"));
        assert!(!first.json.contains("jobs_per_sec_wall"));
        assert!(first.text.contains("grid throughput"));
        assert!(first.jobs_per_sec > 0.0);
        // Crash safety is first-class: the demote-and-resume exercise
        // replays exactly one shard (3 jobs at shard size 3), and the
        // overhead A/B reports in the human text only.
        assert!(first.json.contains("\"recovered_jobs\": 3"));
        assert!(first.text.contains("checkpoint resume: 3 jobs replayed"));
        assert!(first.text.contains("checkpoint overhead"));
        assert!(!first.json.contains("checkpoint overhead"));
    }

    #[test]
    fn scratch_dirs_are_unique_and_removed() {
        let a = ScratchDir::new();
        let b = ScratchDir::new();
        assert_ne!(a.0, b.0);
        std::fs::create_dir_all(a.join("grid")).unwrap();
        let root = a.0.clone();
        drop(a);
        assert!(!root.exists(), "scratch dir outlived its run");
    }

    #[test]
    fn drift_reporting_detects_change_and_tolerates_old_schemas() {
        let report = serial_run(true);
        // Identical payloads: explicit no-drift line.
        let same = drift_against(&report.json, &report.json).expect("same schema");
        assert!(same.contains("no drift"), "{same}");
        // A perturbed copy drifts.
        let perturbed = report
            .json
            .replacen("\"fuel_as\":", "\"fuel_as\": 1.0, \"was\":", 1);
        let drift = drift_against(&perturbed, &report.json);
        if let Some(drift) = drift {
            assert!(drift.contains("fuel_as"), "{drift}");
        }
        // Pre-schema-bump payloads don't parse: comparison is skipped.
        assert!(drift_against("{\"schema\": \"fcdpm-bench/1\"}", &report.json).is_none());
        assert!(drift_against("not json", &report.json).is_none());
    }

    #[test]
    fn every_shipped_policy_coalesces_fully() {
        let report = serial_run(true);
        let payload: BenchPayload = serde_json::from_str(&report.json).expect("payload parses");
        assert_eq!(payload.coalescing.len(), ReferencePolicy::ALL.len());
        let conv = payload
            .coalescing
            .iter()
            .find(|e| e.policy == ReferencePolicy::Conv.label())
            .expect("Conv baseline entry");
        for entry in &payload.coalescing {
            assert_eq!(entry.chunks_stepped, 0, "{}", entry.policy);
            assert!(entry.chunks_coalesced > 0, "{}", entry.policy);
            assert!(
                entry.policy_consultations <= 2 * conv.policy_consultations,
                "{}: {} consultations vs Conv's {}",
                entry.policy,
                entry.policy_consultations,
                conv.policy_consultations
            );
        }
    }

    #[test]
    fn coalescing_beats_per_chunk_on_conv() {
        // The full repetition count: a minimum over three timings still
        // lets one noisy scheduling window decide the ratio.
        let report = serial_run(false);
        assert!(
            report.speedup >= 3.0,
            "Conv camcorder speedup {:.2}x below the 3x acceptance floor",
            report.speedup
        );
    }
}
