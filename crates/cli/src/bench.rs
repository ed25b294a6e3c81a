//! The harness behind `fcdpm bench`: a deterministic payload
//! (`BENCH_4.json`) plus the gates that ride on it.
//!
//! Four sections in one pass:
//!
//! 1. **Fixture grid** — the paper's three policies over the camcorder
//!    and synthetic reference workloads, executed through
//!    [`fcdpm_runner::run_grid`] exactly as a batch campaign would run
//!    them.
//! 2. **Coalescing** — each reference policy on the camcorder scenario
//!    with the chunk-coalescing fast path on and off, checking the
//!    physics agree. Two gates ride on this section: every shipped
//!    policy must integrate in closed form (`chunks_stepped == 0` on the
//!    fast path — only the chunked oracle steps), and no policy may
//!    consult more than twice as often as the Conv baseline.
//! 3. **Fault sweep** — the quick canonical fault-injection sweep
//!    (starvation and combined schedules under plain, resilient and
//!    Conv policies), so payload diffs also catch drift in the
//!    degradation ladder.
//! 4. **Grid engine & crash safety** — a small fixture `GridSpec`
//!    through the sharded fleet engine. One promoted shard is demoted
//!    to a partial checkpoint and the resume must replay it without
//!    recomputing; the report prints how many fsync'd checkpoint
//!    commits each invocation made.
//!
//! The payload carries only metrics and work counters, never timings,
//! so CI diffs two consecutive runs byte for byte. Wall-clock speed is
//! measured by `perfbench/`, not here.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fcdpm_runner::{run_grid, run_specs, JobGrid, PolicySpec, RunConfig, WorkloadSpec};
use fcdpm_sim::fixture::{run_reference_on, ReferencePolicy};
use fcdpm_sim::{HybridSimulator, SimMetrics};
use fcdpm_workload::Scenario;

use serde::{Deserialize, Serialize};

/// The paper's reference trace seed.
const BENCH_SEED: u64 = 0xDAC0_2007;

/// One fixture-grid job in the deterministic payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JobEntry {
    id: String,
    policy: String,
    workload: String,
    metrics: fcdpm_runner::JobMetrics,
}

/// One coalesced-versus-per-chunk comparison in the deterministic
/// payload.
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

/// The fleet-engine section of the deterministic payload: only
/// work-counter-derived numbers.
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
pub(crate) struct BenchReport {
    /// Deterministic JSON payload — write this to `BENCH_4.json`.
    pub(crate) json: String,
    /// Human report of the same counters — print this.
    pub(crate) text: String,
}

/// A per-run scratch directory for the fleet-engine section, unique per
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

/// Runs the harness.
///
/// # Errors
///
/// Returns a message when any fixture job fails, the coalesced physics
/// disagree with the per-chunk oracle beyond tolerance, a coalescing
/// gate trips, or the checkpoint resume does not replay cleanly.
pub(crate) fn run() -> Result<BenchReport, String> {
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
        "  job                          chunks_stepped  chunks_coalesced  consultations\n",
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
            "  {name:<28} {:>14}  {:>16}  {:>13}\n",
            metrics.chunks_stepped, metrics.chunks_coalesced, metrics.policy_consultations,
        ));
        jobs.push(JobEntry {
            id: record.id.clone(),
            policy: record.spec.policy.label(),
            workload: record.spec.workload.label(),
            metrics: metrics.clone(),
        });
    }

    // 2. Coalesced against per-chunk on the camcorder scenario.
    let scenario = Scenario::experiment1_seeded(BENCH_SEED);
    text.push_str("\ncoalescing (camcorder trace, fast path vs per-chunk oracle)\n");
    text.push_str("  policy        chunks_stepped  chunks_coalesced  consultations  physics\n");
    let mut coalescing = Vec::new();
    for policy in ReferencePolicy::ALL {
        let fast_sim = HybridSimulator::dac07(&scenario.device);
        let slow_sim = HybridSimulator::dac07(&scenario.device).without_coalescing();
        let fast = run_reference_on(&fast_sim, &scenario, policy).map_err(|e| e.to_string())?;
        let slow = run_reference_on(&slow_sim, &scenario, policy).map_err(|e| e.to_string())?;
        if !physics_match(&fast, &slow) {
            return Err(format!(
                "{}: coalesced physics diverge from per-chunk",
                policy.label()
            ));
        }
        text.push_str(&format!(
            "  {:<13} {:>14}  {:>16}  {:>13}  ok\n",
            policy.label(),
            fast.chunks_stepped,
            fast.chunks_coalesced,
            fast.policy_consultations,
        ));
        coalescing.push(CoalescingEntry {
            policy: policy.label().to_owned(),
            chunks_stepped: fast.chunks_stepped,
            chunks_coalesced: fast.chunks_coalesced,
            policy_consultations: fast.policy_consultations,
            physics_match: true,
        });
    }

    // Gates on the coalescing section. A stepped chunk on the fast path
    // means a plan phase was integrated chunk by chunk outside the
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

    // 3. Quick fault-injection sweep through the runner.
    let sweep = fcdpm_runner::fault_sweep_labeled(BENCH_SEED, true);
    let specs: Vec<fcdpm_runner::JobSpec> = sweep.iter().map(|(_, s)| s.clone()).collect();
    let fault_manifest = run_specs(&specs, &RunConfig::default());
    if !fault_manifest.all_completed() {
        return Err(format!("fault sweep failed: {}", fault_manifest.summary()));
    }
    text.push_str("\nfault sweep (quick canonical schedules)\n");
    text.push_str("  schedule/policy        deficit_s  faults  degradations\n");
    let mut faults = Vec::new();
    for ((label, _), record) in sweep.iter().zip(&fault_manifest.records) {
        let metrics = record
            .outcome
            .metrics()
            .ok_or_else(|| format!("fault job {} has no metrics", record.id))?;
        text.push_str(&format!(
            "  {label:<22} {:>9.3}  {:>6}  {:>12}\n",
            metrics.deficit_time_s, metrics.faults_applied, metrics.degradations,
        ));
        faults.push(FaultEntry {
            label: label.clone(),
            id: record.id.clone(),
            metrics: metrics.clone(),
        });
    }

    // 4. The sharded fleet engine: a fresh run into a scratch
    // directory, sized to exercise multiple shards with a ragged tail.
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
        .map_err(|e| format!("fleet-engine grid failed: {e}"))?;
    let agg = &grid_run.aggregate;
    if agg.completed != agg.jobs {
        return Err(format!(
            "fleet-engine grid failed: {} of {} jobs completed",
            agg.completed, agg.jobs
        ));
    }
    text.push_str(&format!(
        "\ngrid engine ({} jobs over {} shards)\n",
        agg.jobs, agg.shards
    ));
    text.push_str(&format!(
        "  jobs/sec: {:.0} nominal | peak resident jobs: {}\n",
        agg.jobs_per_sec_nominal, grid_run.peak_resident_jobs,
    ));

    // Crash-safety exercise: rename the first promoted shard back to its
    // partial checkpoint (exactly what a kill just before the promoting
    // rename leaves behind), then resume. Every demoted record must replay from the
    // checkpoint — zero recomputation — and the aggregate must come out
    // byte-identical.
    let aggregate_path = grid_run.dir.join("aggregate.json");
    let aggregate_before = std::fs::read_to_string(&aggregate_path)
        .map_err(|e| format!("cannot read {}: {e}", aggregate_path.display()))?;
    let shard0 = grid_run.dir.join(fcdpm_grid::shard_file_name(0));
    let demoted = fcdpm_grid::read_shard(&shard0).map_err(|e| format!("demoting shard 0: {e}"))?;
    std::fs::rename(&shard0, grid_run.dir.join(fcdpm_grid::partial_file_name(0)))
        .map_err(|e| format!("demoting shard 0: {e}"))?;
    let resume_config = fcdpm_grid::GridConfig {
        resume: true,
        ..grid_config
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
    text.push_str(&format!(
        "  checkpoint commits (one fsync each): {} fresh, {} on resume\n",
        grid_run.checkpoint_commits, resumed.checkpoint_commits,
    ));

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
    let json = serde_json::to_string_pretty(&payload)
        .map_err(|e| format!("payload serialization: {e}"))?;
    Ok(BenchReport { json, text })
}

/// `usize` → `u64` for record counts (lossless on every supported
/// target).
fn to_u64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_is_deterministic() {
        let first = run().expect("harness runs");
        let second = run().expect("harness runs");
        assert_eq!(first.json, second.json, "payload must be deterministic");
        assert_eq!(first.text, second.text, "report must be deterministic");
        assert!(first.json.contains("\"schema\": \"fcdpm-bench/4\""));
        assert!(!first.json.contains("wall_ms"), "no timings in payload");
        assert!(first.text.contains("fault sweep"));
        assert!(first.json.contains("starvation/resilient"));
        assert!(first.json.contains("jobs_per_sec_nominal"));
        // Crash safety: the demote-and-resume exercise replays exactly
        // one shard (3 jobs at shard size 3). At the default checkpoint
        // batch each of the 3 shards commits once on the fresh run, and
        // once more on resume for the lines it replays.
        assert!(first.json.contains("\"recovered_jobs\": 3"));
        assert!(first.text.contains("checkpoint resume: 3 jobs replayed"));
        assert!(
            first
                .text
                .contains("checkpoint commits (one fsync each): 3 fresh, 3 on resume"),
            "{}",
            first.text
        );
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
    fn every_shipped_policy_coalesces_fully() {
        let report = run().expect("harness runs");
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
            assert!(entry.physics_match, "{}", entry.policy);
            assert!(
                entry.policy_consultations <= 2 * conv.policy_consultations,
                "{}: {} consultations vs Conv's {}",
                entry.policy,
                entry.policy_consultations,
                conv.policy_consultations
            );
        }
    }
}
