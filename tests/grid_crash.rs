//! Crash-injection harness for the fleet engine: kill the process at
//! each [`CrashPoint`] in a child process, then assert that `resume`
//! replays the surviving checkpoints as cache hits, recomputes only the
//! lost jobs, and reproduces the uninterrupted run's `aggregate.json`
//! byte for byte. A proptest rides along: truncating a partial
//! checkpoint at *any* byte offset always recovers the maximal
//! checksum-valid prefix.
//!
//! The child is this same test binary re-invoked on the `#[ignore]`d
//! `crash_child` entry with the crash point in the environment — the
//! abort is a real `SIGABRT`, no unwinding, no destructors, exactly
//! what `kill -9` leaves on disk.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

use fcdpm_grid::{
    partial_files, read_partial, read_shard, run, shard_file_name, shard_files, FaultPreset,
    GridConfig, GridSpec, PartialShardWriter, SeedAxis, SeedRange, WorkloadKind,
};
use fcdpm_runner::PolicySpec;
use proptest::prelude::*;

const CRASH_POINT_VAR: &str = "FCDPM_CRASH_POINT";
const CRASH_OUT_VAR: &str = "FCDPM_CRASH_OUT";
const CRASH_WORKERS_VAR: &str = "FCDPM_CRASH_WORKERS";

/// 8 jobs over 3 shards (shard size 3, ragged tail) — every crash point
/// below lands inside real work.
fn crash_spec() -> GridSpec {
    let mut spec = GridSpec::new(
        SeedAxis::Range(SeedRange {
            start: 0xDAC0_2007,
            count: 2,
        }),
        vec![WorkloadKind::Experiment1],
        vec![PolicySpec::Conv, PolicySpec::FcDpm],
    );
    spec.faults = Some(vec![FaultPreset::None, FaultPreset::Starvation]);
    spec
}

/// One worker and per-job checkpoint batches so the crash points are
/// deterministic; a fixed run ID so control and crashed runs produce
/// comparable directories.
fn crash_config(out: &Path) -> GridConfig {
    GridConfig {
        workers: 1,
        shard_size: 3,
        out_dir: out.to_path_buf(),
        run_id: Some("crash".to_owned()),
        checkpoint_batch: 1,
        ..GridConfig::default()
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fcdpm-grid-crash-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn parse_point(text: &str) -> fcdpm_grid::CrashPoint {
    text.parse().expect("valid crash point spelling")
}

/// The child entry: re-invoked by the driver tests with the crash point
/// in the environment. Runs the grid and dies at the injected point; if
/// the environment is absent (a plain `--include-ignored` sweep) it
/// does nothing.
#[test]
#[ignore = "child entry for the crash-injection driver"]
fn crash_child() {
    let Ok(point) = std::env::var(CRASH_POINT_VAR) else {
        return;
    };
    let out = std::env::var(CRASH_OUT_VAR).expect("crash out dir");
    let config = GridConfig {
        crash_point: Some(parse_point(&point)),
        ..crash_config(Path::new(&out))
    };
    // The abort happens inside; reaching the end means the injection
    // failed, which the driver detects via the clean exit status.
    let _ = run(&crash_spec(), &config);
}

/// 24 jobs over 3 shards of 8 — enough for two workers to finish out
/// of index order inside a shard.
fn concurrent_spec() -> GridSpec {
    let mut spec = crash_spec();
    spec.seeds = SeedAxis::Range(SeedRange {
        start: 0xDAC0_2007,
        count: 6,
    });
    spec
}

/// Two workers committing 3-line checkpoint batches while they run:
/// jobs finish out of index order, and the pool hands them over in it.
fn concurrent_config(out: &Path) -> GridConfig {
    GridConfig {
        workers: 2,
        shard_size: 8,
        checkpoint_batch: 3,
        ..crash_config(out)
    }
}

/// The child entry for [`concurrent_spec`] under [`concurrent_config`].
#[test]
#[ignore = "child entry for the crash-injection driver"]
fn concurrent_crash_child() {
    let Ok(point) = std::env::var(CRASH_POINT_VAR) else {
        return;
    };
    let out = std::env::var(CRASH_OUT_VAR).expect("crash out dir");
    let config = GridConfig {
        crash_point: Some(parse_point(&point)),
        ..concurrent_config(Path::new(&out))
    };
    let _ = run(&concurrent_spec(), &config);
}

/// Re-invokes this test binary on [`crash_child`] with `point` injected.
fn spawn_crash_child(point: &str, out: &Path) -> std::process::ExitStatus {
    spawn_child("crash_child", point, out)
}

/// Re-invokes this test binary on the child entry `entry`.
fn spawn_child(entry: &str, point: &str, out: &Path) -> std::process::ExitStatus {
    child(entry, point, out)
        .status()
        .expect("spawn crash child")
}

/// The command that re-invokes this test binary on the child entry
/// `entry`.
fn child(entry: &str, point: &str, out: &Path) -> Command {
    let mut command = Command::new(std::env::current_exe().expect("test binary path"));
    command
        .args([entry, "--exact", "--ignored"])
        .env(CRASH_POINT_VAR, point)
        .env(CRASH_OUT_VAR, out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    command
}

/// The 4800-job fleet example.
fn fleet_spec() -> GridSpec {
    serde_json::from_str(include_str!("../examples/grid_fleet.json")).expect("fleet spec parses")
}

/// `fcdpm grid run examples/grid_fleet.json --jobs <workers>` with a
/// fixed run ID.
fn fleet_config(out: &Path, workers: usize) -> GridConfig {
    GridConfig {
        workers,
        out_dir: out.to_path_buf(),
        run_id: Some("fleet".to_owned()),
        ..GridConfig::default()
    }
}

/// The child entry for [`fleet_spec`] under [`fleet_config`], with the
/// worker count in the environment.
#[test]
#[ignore = "child entry for the crash-injection driver"]
fn fleet_crash_child() {
    let Ok(point) = std::env::var(CRASH_POINT_VAR) else {
        return;
    };
    let out = std::env::var(CRASH_OUT_VAR).expect("crash out dir");
    let workers = std::env::var(CRASH_WORKERS_VAR).expect("crash worker count");
    let config = GridConfig {
        crash_point: Some(parse_point(&point)),
        ..fleet_config(Path::new(&out), workers.parse().expect("worker count"))
    };
    let _ = run(&fleet_spec(), &config);
}

/// The fleet example simulates each distinct run once, at one and two
/// workers: 4000 of its 4800 jobs fresh (the 800 `faults: None,
/// resilient: true` jobs repeat their unwrapped twins), none on a full
/// resume, and 2752 after a kill at the 1500th checkpointed job, which
/// loses 3300 jobs, 548 of them repeats. The first four lost jobs
/// (1500–1503) repeat jobs replayed from the checkpoint, so the
/// committer copies replayed outcomes as well as fresh ones. Every run
/// directory matches the fresh one's byte for byte.
#[test]
fn fleet_simulates_each_distinct_run_once() {
    for workers in [1, 2] {
        let out = fresh_dir(&format!("fleet-{workers}"));
        let config = fleet_config(&out, workers);
        let fresh = run(&fleet_spec(), &config).expect("fresh run");
        assert_eq!(
            (fresh.recomputed, fresh.simulated),
            (4800, 4000),
            "fresh run, {workers} workers"
        );
        let reference = dir_bytes(&fresh.dir);
        let resume = GridConfig {
            resume: true,
            ..config
        };
        let resumed = run(&fleet_spec(), &resume).expect("full resume");
        assert_eq!(
            (resumed.cache_hits, resumed.simulated),
            (4800, 0),
            "full resume, {workers} workers"
        );
        assert!(dir_bytes(&resumed.dir) == reference);

        let crashed = fresh_dir(&format!("fleet-crash-{workers}"));
        let status = child("fleet_crash_child", "after-job:1500", &crashed)
            .env(CRASH_WORKERS_VAR, workers.to_string())
            .status()
            .expect("spawn crash child");
        assert!(
            !status.success(),
            "the crash child must die, got {status:?}"
        );
        let resume = GridConfig {
            resume: true,
            ..fleet_config(&crashed, workers)
        };
        let resumed = run(&fleet_spec(), &resume).expect("resume after the kill");
        assert_eq!(
            (resumed.cache_hits, resumed.recomputed, resumed.simulated),
            (1500, 3300, 2752),
            "resume after the kill, {workers} workers"
        );
        assert!(dir_bytes(&resumed.dir) == reference);
        let _ = std::fs::remove_dir_all(&out);
        let _ = std::fs::remove_dir_all(&crashed);
    }
}

/// Counts (final-shard records, checkpointed records, torn lines) left
/// in a crashed run directory.
fn surviving_state(run_dir: &Path) -> (u64, u64, u64) {
    let mut finalized = 0u64;
    for shard in shard_files(run_dir).expect("listable run dir") {
        finalized += fcdpm_grid::read_shard(&shard).expect("valid shard").len() as u64;
    }
    let mut checkpointed = 0u64;
    let mut torn = 0u64;
    for partial in partial_files(run_dir).expect("listable run dir") {
        let read = read_partial(&partial).expect("readable partial");
        checkpointed += read.records.len() as u64;
        torn += read.torn_lines;
    }
    (finalized, checkpointed, torn)
}

/// Kills at `point`, then asserts resume recomputes exactly the lost
/// jobs and reproduces `control_aggregate` byte for byte.
fn assert_crash_recovers(tag: &str, point: &str, control_aggregate: &str) {
    let out = fresh_dir(tag);
    let status = spawn_crash_child(point, &out);
    assert!(
        !status.success(),
        "{point}: the crash child must die abnormally, got {status:?}"
    );
    let run_dir = out.join("crash");
    assert!(
        !run_dir.join("aggregate.json").exists(),
        "{point}: a killed run must not have published an aggregate"
    );
    let (finalized, checkpointed, torn) = surviving_state(&run_dir);
    let total = crash_spec().total_jobs();
    assert!(
        finalized + checkpointed < total,
        "{point}: the crash must actually lose work"
    );

    let config = GridConfig {
        resume: true,
        ..crash_config(&out)
    };
    let resumed = run(&crash_spec(), &config).expect("resume succeeds");
    assert_eq!(
        resumed.recovered_jobs, checkpointed,
        "{point}: every checksum-valid checkpoint line must replay"
    );
    assert_eq!(
        resumed.cache_hits,
        finalized + checkpointed,
        "{point}: hits are exactly the surviving records"
    );
    assert_eq!(
        resumed.recomputed,
        total - finalized - checkpointed,
        "{point}: only the lost jobs recompute"
    );
    let aggregate =
        std::fs::read_to_string(run_dir.join("aggregate.json")).expect("resumed aggregate");
    assert_eq!(
        aggregate, control_aggregate,
        "{point}: resumed aggregate must be byte-identical to the uninterrupted run"
    );
    let _ = (torn, std::fs::remove_dir_all(&out));
}

#[test]
fn resume_after_kill_at_every_crash_point_is_byte_identical() {
    // Uninterrupted control run.
    let control_out = fresh_dir("control");
    let control = run(&crash_spec(), &crash_config(&control_out)).expect("control run");
    assert_eq!(control.aggregate.completed, control.aggregate.jobs);
    let control_aggregate = std::fs::read_to_string(control.dir.join("aggregate.json"))
        .expect("control aggregate exists");

    // Kill after the 2nd checkpointed job: shard 0 dies mid-execution.
    assert_crash_recovers("after-job", "after-job:2", &control_aggregate);
    // Kill with shard 1 fully checkpointed but not yet promoted.
    assert_crash_recovers("before-promote", "before-promote:1", &control_aggregate);
    // Kill mid-write inside shard 2: a torn half-record on disk.
    assert_crash_recovers("mid-write", "mid-write:2", &control_aggregate);

    let _ = std::fs::remove_dir_all(&control_out);
}

#[test]
fn concurrent_kill_mid_shard_replays_every_valid_line() {
    let control_out = fresh_dir("concurrent-control");
    let control = run(&concurrent_spec(), &concurrent_config(&control_out)).expect("control run");
    let control_dir = control.dir.clone();

    // Job 13 is the 5th of shard 1: shard 0 is promoted, shard 1 holds
    // one committed batch of 3 plus the 2 lines committed at the kill.
    let out = fresh_dir("concurrent");
    let status = spawn_child("concurrent_crash_child", "after-job:13", &out);
    assert!(
        !status.success(),
        "the crash child must die, got {status:?}"
    );
    let run_dir = out.join("crash");
    assert!(!run_dir.join("aggregate.json").exists());
    let (finalized, checkpointed, torn) = surviving_state(&run_dir);
    assert_eq!((finalized, checkpointed, torn), (8, 5, 0));

    let config = GridConfig {
        resume: true,
        ..concurrent_config(&out)
    };
    let resumed = run(&concurrent_spec(), &config).expect("resume succeeds");
    assert_eq!(
        resumed.recovered_jobs, checkpointed,
        "every valid line replays"
    );
    assert_eq!(resumed.cache_hits, finalized + checkpointed);
    assert_eq!(
        resumed.recomputed,
        concurrent_spec().total_jobs() - finalized - checkpointed,
        "only the lost jobs recompute"
    );
    for name in [
        "aggregate.json",
        "shard-00000.jsonl",
        "shard-00001.jsonl",
        "shard-00002.jsonl",
    ] {
        assert_eq!(
            std::fs::read(run_dir.join(name)).expect("resumed artifact"),
            std::fs::read(control_dir.join(name)).expect("control artifact"),
            "{name} must be byte-identical to the uninterrupted run"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&control_out);
}

#[test]
fn mid_write_kill_leaves_a_torn_tail_that_resume_discards() {
    let out = fresh_dir("torn-tail");
    let status = spawn_crash_child("mid-write:2", &out);
    assert!(!status.success());
    let (_, _, torn) = surviving_state(&out.join("crash"));
    assert_eq!(torn, 1, "exactly the half-written record is torn");
    let config = GridConfig {
        resume: true,
        ..crash_config(&out)
    };
    let resumed = run(&crash_spec(), &config).expect("resume succeeds");
    assert_eq!(resumed.aggregate.completed, resumed.aggregate.jobs);
    let _ = std::fs::remove_dir_all(&out);
}

/// Every file in `dir`, by name, with its bytes.
fn dir_bytes(dir: &Path) -> std::collections::BTreeMap<std::ffi::OsString, Vec<u8>> {
    let read = |entry: std::fs::DirEntry| (entry.file_name(), std::fs::read(entry.path()));
    std::fs::read_dir(dir)
        .expect("listable run dir")
        .map(|entry| read(entry.expect("dir entry")))
        .map(|(name, bytes)| (name, bytes.expect("readable file")))
        .collect()
}

/// A resume with checkpointing off still retires the crashed run's
/// partial once it promotes that shard: the finished directory matches
/// an uninterrupted run's file for file.
#[test]
fn resume_with_checkpoints_off_removes_the_replayed_partial() {
    let control_out = fresh_dir("ckpt-off-control");
    let control = run(&crash_spec(), &crash_config(&control_out)).expect("control run");
    let out = fresh_dir("ckpt-off");
    assert!(!spawn_crash_child("after-job:2", &out).success());
    let run_dir = out.join("crash");
    assert_eq!(surviving_state(&run_dir), (0, 2, 0));
    let config = GridConfig {
        resume: true,
        checkpoint_batch: 0,
        ..crash_config(&out)
    };
    let resumed = run(&crash_spec(), &config).expect("resume succeeds");
    assert_eq!(resumed.recovered_jobs, 2);
    assert!(partial_files(&run_dir).expect("lists").is_empty());
    assert_eq!(dir_bytes(&run_dir), dir_bytes(&control.dir));
    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&control_out);
}

#[test]
fn injected_panics_succeed_within_bounded_retries() {
    let out = fresh_dir("retry");
    let mut spec = crash_spec();
    spec.faults = None;
    spec.inject_panic = Some(true);
    let config = GridConfig {
        retry: fcdpm_runner::pool::RetryPolicy {
            max_attempts: 3,
            backoff: std::time::Duration::ZERO,
        },
        ..crash_config(&out)
    };
    let run_result = run(&spec, &config).expect("grid runs");
    let agg = &run_result.aggregate;
    assert_eq!(agg.completed, agg.jobs, "every panicked job recovers");
    assert_eq!(agg.retried, agg.jobs, "each recovery is recorded");
    assert_eq!(agg.quarantined, 0);
    let _ = std::fs::remove_dir_all(&out);
}

/// The checkpoint fsync count: a fresh run commits ⌈shard jobs /
/// batch⌉ batches per shard, a resume commits one more batch per shard
/// that replays known records, and checkpointing off commits none.
/// Committing per line instead of per batch fails this at batch 3 and
/// 32. Neither the worker count (0 = the host's parallelism) nor the
/// batch size shows in the run directory: fresh and resumed, its files
/// match one worker's unbatched run byte for byte.
#[test]
fn checkpoint_commits_are_one_per_batch_per_shard() {
    let spec = crash_spec();
    let reference_out = fresh_dir("commits-reference");
    let reference = GridConfig {
        checkpoint_batch: 0,
        ..crash_config(&reference_out)
    };
    let reference = dir_bytes(&run(&spec, &reference).expect("reference run").dir);
    let shard_jobs = [3u64, 3, 2];
    let expected = |replayed: [u64; 3], batch: u64| -> u64 {
        if batch == 0 {
            return 0;
        }
        shard_jobs
            .iter()
            .zip(replayed)
            .map(|(&jobs, known)| u64::from(known > 0) + (jobs - known).div_ceil(batch))
            .sum()
    };
    for workers in [1, 2, 0] {
        for batch in [0, 1, 3, 7, 32] {
            let out = fresh_dir(&format!("commits-{workers}-{batch}"));
            let config = GridConfig {
                workers,
                checkpoint_batch: batch,
                ..crash_config(&out)
            };
            let fresh = run(&spec, &config).expect("fresh run");
            assert_eq!(
                fresh.checkpoint_commits,
                expected([0, 0, 0], batch),
                "fresh run, {workers} workers, batch {batch}"
            );
            assert!(
                dir_bytes(&fresh.dir) == reference,
                "fresh run dir differs, {workers} workers, batch {batch}"
            );

            // Shard 0 keeps one checkpointed record, shard 1 stays
            // promoted, shard 2 is lost outright.
            let shard0 = fresh.dir.join(shard_file_name(0));
            let records = read_shard(&shard0).expect("shard 0 reads");
            std::fs::remove_file(&shard0).expect("demote shard 0");
            PartialShardWriter::create(&fresh.dir, 0)
                .and_then(|mut writer| writer.append(&records[..1]))
                .expect("checkpoint one record");
            std::fs::remove_file(fresh.dir.join(shard_file_name(2))).expect("drop shard 2");
            let resumed = run(
                &spec,
                &GridConfig {
                    resume: true,
                    ..config
                },
            )
            .expect("resume");
            assert_eq!(resumed.recomputed, 4);
            assert_eq!(
                resumed.checkpoint_commits,
                expected([1, 3, 0], batch),
                "resume, {workers} workers, batch {batch}"
            );
            assert!(
                dir_bytes(&resumed.dir) == reference,
                "resumed run dir differs, {workers} workers, batch {batch}"
            );
            let _ = std::fs::remove_dir_all(&out);
        }
    }
    let _ = std::fs::remove_dir_all(&reference_out);
}

/// The bytes of a valid 3-record partial checkpoint. Built once (each
/// record is a real simulation run) — the proptest truncates copies of
/// it at arbitrary offsets.
fn partial_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = fresh_dir("proptest-build");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let spec = crash_spec();
        let records: Vec<_> = spec
            .iter()
            .take(3)
            .enumerate()
            .map(|(i, (digest, job))| fcdpm_grid::GridJobRecord {
                index: i as u64,
                id: format!("job-{i}"),
                digest: fcdpm_grid::digest_hex(digest),
                outcome: fcdpm_runner::execute(&job)
                    .map(fcdpm_runner::JobOutcome::Completed)
                    .unwrap_or_else(fcdpm_runner::JobOutcome::Failed),
                attempts: 1,
            })
            .collect();
        let mut writer = PartialShardWriter::create(&dir, 0).expect("create partial");
        writer.append(&records).expect("append records");
        let bytes = std::fs::read(writer.path()).expect("partial bytes");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

proptest! {
    /// Truncating a partial checkpoint at any byte offset recovers
    /// exactly the records whose full checksummed lines survive — the
    /// maximal valid prefix, never more, never a parse error.
    #[test]
    fn any_truncation_recovers_the_maximal_valid_prefix(cut_frac in 0.0f64..1.0) {
        let dir = fresh_dir("proptest");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let bytes = partial_bytes();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let path = dir.join(fcdpm_grid::partial_file_name(0));
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        // Expected: lines whose content (sans trailing newline) is intact.
        let mut expected = 0usize;
        let mut line_start = 0usize;
        for (i, b) in bytes.iter().enumerate() {
            if *b == b'\n' {
                // The line's content ends at i; valid if cut >= i.
                if cut >= i && cut > line_start {
                    expected += 1;
                }
                line_start = i + 1;
            }
        }

        let read = read_partial(&path).expect("torn partial still reads");
        prop_assert_eq!(read.records.len(), expected);
        // The valid prefix is a byte-prefix of the original file.
        prop_assert!(read.valid_bytes <= cut as u64);
        prop_assert_eq!(read.valid_bytes + read.torn_bytes, cut as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
