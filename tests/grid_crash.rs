//! Crash-injection harness for the fleet engine: kill the process at
//! every [`CrashPoint`] in a child process, and kill a resume too, then
//! assert that `resume` replays the surviving checkpoints as cache hits,
//! recomputes only the lost jobs, and reproduces the uninterrupted
//! run's directory byte for byte. A proptest rides along: truncating a
//! partial checkpoint at *any* byte offset always recovers the maximal
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

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use fcdpm_grid::{
    gc, partial_file_name, read_partial, read_shard, run, shard_file_name, status, FaultPreset,
    GcKind, GridConfig, GridSpec, Inventory, PartialShardWriter, SeedAxis, SeedRange, WorkloadKind,
};
use fcdpm_runner::PolicySpec;
use proptest::prelude::*;

const CRASH_POINT_VAR: &str = "FCDPM_CRASH_POINT";
const CRASH_OUT_VAR: &str = "FCDPM_CRASH_OUT";
const CRASH_WORKERS_VAR: &str = "FCDPM_CRASH_WORKERS";
const CRASH_BATCH_VAR: &str = "FCDPM_CRASH_BATCH";
const CRASH_RESUME_VAR: &str = "FCDPM_CRASH_RESUME";

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
/// in the environment, and optionally the checkpoint batch and a resume
/// flag. Runs the grid and dies at the injected point; if the
/// environment is absent (a plain `--include-ignored` sweep) it does
/// nothing.
#[test]
#[ignore = "child entry for the crash-injection driver"]
fn crash_child() {
    let Ok(point) = std::env::var(CRASH_POINT_VAR) else {
        return;
    };
    let out = std::env::var(CRASH_OUT_VAR).expect("crash out dir");
    let base = crash_config(Path::new(&out));
    let checkpoint_batch = std::env::var(CRASH_BATCH_VAR)
        .map_or(base.checkpoint_batch, |batch| batch.parse().expect("batch"));
    let config = GridConfig {
        crash_point: Some(parse_point(&point)),
        checkpoint_batch,
        resume: std::env::var_os(CRASH_RESUME_VAR).is_some(),
        ..base
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
    let files = Inventory::read(run_dir).expect("listable run dir");
    let mut finalized = 0u64;
    for (_, shard) in files.shards() {
        finalized += read_shard(shard).expect("valid shard").len() as u64;
    }
    let mut checkpointed = 0u64;
    let mut torn = 0u64;
    for (_, partial) in files.checkpoints() {
        let read = read_partial(partial).expect("readable partial");
        checkpointed += read.records.len() as u64;
        torn += read.torn_lines;
    }
    (finalized, checkpointed, torn)
}

/// Every crash point of [`crash_spec`]: each checkpointed job, each
/// shard's promotion and checkpoint write, and each shard's publish from
/// its slot-ordered lines.
fn crash_points() -> Vec<String> {
    let after_job = (1..=8).map(|n| format!("after-job:{n}"));
    let before_promote = (0..=2).map(|s| format!("before-promote:{s}"));
    let mid_write = (0..=2).map(|s| format!("mid-write:{s}"));
    let after_publish = (0..=2).map(|s| format!("after-publish:{s}"));
    let points = after_job.chain(before_promote).chain(mid_write);
    points.chain(after_publish).collect()
}

/// The `(checkpoint_batch, point)` pairs that cannot fire on a fresh
/// run, so the child runs to completion: with checkpointing off nothing
/// is checkpointed before promotion, so no job is counted and no
/// checkpoint write tears; with it on, a fresh run renames each
/// checkpoint into place and publishes no shard from its lines.
const CANNOT_FIRE: [(u64, &str); 20] = [
    (0, "after-job:1"),
    (0, "after-job:2"),
    (0, "after-job:3"),
    (0, "after-job:4"),
    (0, "after-job:5"),
    (0, "after-job:6"),
    (0, "after-job:7"),
    (0, "after-job:8"),
    (0, "mid-write:0"),
    (0, "mid-write:1"),
    (0, "mid-write:2"),
    (1, "after-publish:0"),
    (1, "after-publish:1"),
    (1, "after-publish:2"),
    (3, "after-publish:0"),
    (3, "after-publish:1"),
    (3, "after-publish:2"),
    (32, "after-publish:0"),
    (32, "after-publish:1"),
    (32, "after-publish:2"),
];

/// Runs [`crash_child`] at `point` with checkpoint batch `batch` (a
/// resume when `resume` is set) into `out`; true when the child died.
fn crash_at(point: &str, batch: u64, resume: bool, out: &Path) -> bool {
    let mut command = child("crash_child", point, out);
    command.env(CRASH_BATCH_VAR, batch.to_string());
    if resume {
        command.env(CRASH_RESUME_VAR, "1");
    }
    !command.status().expect("spawn crash child").success()
}

/// Resumes the run in `out` at checkpoint batch `batch` and asserts that
/// it replays exactly the surviving records and leaves `control`'s bytes.
/// A record survives in a promoted shard or a checkpoint; one in both (a
/// killed resume re-checkpoints a promoted shard) is recovered from the
/// shard.
fn assert_resume_matches(out: &Path, batch: u64, control: &DirBytes, what: &str) {
    let run_dir = out.join("crash");
    let files = Inventory::read(&run_dir).expect("lists");
    let promoted: BTreeSet<u64> = files
        .shards()
        .flat_map(|(_, path)| read_shard(path).expect("a promoted shard reads"))
        .map(|record| record.index)
        .collect();
    let checkpointed: BTreeSet<u64> = files
        .checkpoints()
        .flat_map(|(_, path)| read_partial(path).expect("a checkpoint reads").records)
        .map(|record| record.index)
        .collect();
    let recovered = checkpointed.difference(&promoted).count() as u64;
    let hits = promoted.len() as u64 + recovered;
    let config = GridConfig {
        resume: true,
        checkpoint_batch: batch,
        ..crash_config(out)
    };
    let resumed = run(&crash_spec(), &config).expect("resume succeeds");
    assert_eq!(
        resumed.recovered_jobs, recovered,
        "{what}: every checksum-valid checkpoint line must replay"
    );
    assert_eq!(
        (resumed.cache_hits, resumed.recomputed),
        (hits, crash_spec().total_jobs() - hits),
        "{what}: hits are exactly the surviving records, and only the lost jobs recompute"
    );
    assert!(
        dir_bytes(&run_dir) == *control,
        "{what}: the resumed run directory must be byte-identical to the uninterrupted run's"
    );
}

/// Kills [`crash_spec`] at every crash point and checkpoint batch, one
/// child at a time, then resumes each and compares the whole run
/// directory with an uninterrupted run's. A point in [`CANNOT_FIRE`]
/// must let the child finish; every other point must kill it before the
/// aggregate is published.
#[test]
fn resume_after_kill_at_every_crash_point_is_byte_identical() {
    let control_out = fresh_dir("control");
    let control = run(&crash_spec(), &crash_config(&control_out)).expect("control run");
    assert_eq!(control.aggregate.completed, control.aggregate.jobs);
    let control = dir_bytes(&control.dir);

    for batch in [0, 1, 3, 32] {
        for point in crash_points() {
            let what = format!("{point} at batch {batch}");
            let out = fresh_dir(&format!("matrix-{batch}-{point}"));
            let died = crash_at(&point, batch, false, &out);
            let expected = !CANNOT_FIRE.contains(&(batch, point.as_str()));
            assert_eq!(died, expected, "{what}: the child died = {died}");
            let run_dir = out.join("crash");
            let published = run_dir.join("aggregate.json").exists();
            assert_eq!(published, !died, "{what}: only a finished run publishes");
            // The checkpoint is the shard: killed just before its rename,
            // it already holds the uninterrupted run's shard bytes.
            if let Some(shard) = point.strip_prefix("before-promote:").filter(|_| batch > 0) {
                let shard = shard.parse().expect("shard index");
                let partial = std::fs::read(run_dir.join(partial_file_name(shard)));
                let name = std::ffi::OsString::from(shard_file_name(shard));
                assert_eq!(partial.ok().as_ref(), control.get(&name), "{what}");
            }
            assert_resume_matches(&out, batch, &control, &what);
            let _ = std::fs::remove_dir_all(&out);
        }
    }
    let _ = std::fs::remove_dir_all(&control_out);
}

/// Kills a fresh run at P1, then kills its resume at P2, then resumes
/// again, for every pair of crash points at checkpoint batches 0, 1, 3
/// and 32 (all three runs at the same batch; a P1 in [`CANNOT_FIRE`] is
/// skipped). A resume rewrites each shard's checkpoint with its replayed
/// lines first, so this is where a crash meets the most checkpoint
/// state. The crash at P1 is taken once and its directory copied for
/// every P2. A resume that P2 cannot kill must finish with the
/// uninterrupted run's bytes.
#[test]
fn resume_after_a_killed_resume_is_byte_identical() {
    let control_out = fresh_dir("double-control");
    let control = run(&crash_spec(), &crash_config(&control_out)).expect("control run");
    let control = dir_bytes(&control.dir);

    for batch in [0, 1, 3, 32] {
        for first in crash_points() {
            if CANNOT_FIRE.contains(&(batch, first.as_str())) {
                continue;
            }
            let crashed = fresh_dir(&format!("double-{batch}-{first}"));
            let fired = crash_at(&first, batch, false, &crashed);
            assert!(fired, "{first} at batch {batch} must fire");
            for second in crash_points() {
                let what = format!("{first} then {second} at batch {batch}");
                let out = fresh_dir(&format!("double-{batch}-{first}-{second}"));
                copy_dir(&crashed, &out);
                if !crash_at(&second, batch, true, &out) {
                    assert!(
                        dir_bytes(&out.join("crash")) == control,
                        "{what}: a resume that was not killed must finish the run"
                    );
                }
                assert_resume_matches(&out, batch, &control, &what);
                let _ = std::fs::remove_dir_all(&out);
            }
            let _ = std::fs::remove_dir_all(&crashed);
        }
    }
    let _ = std::fs::remove_dir_all(&control_out);
}

/// A real kill between a shard's publish and its checkpoint's removal.
/// A run killed at batch 1 after job 4 leaves shard 0 promoted and shard
/// 1's checkpoint holding one record; its resume at batch 0 publishes
/// shard 1 from its lines and is killed before removing that
/// checkpoint. `gc` names the checkpoint redundant, `status` counts it,
/// and the next resume replays nothing from it and leaves the
/// uninterrupted run's bytes.
#[test]
fn a_kill_after_publish_leaves_a_redundant_checkpoint_that_resume_retires() {
    let control_out = fresh_dir("publish-control");
    let control = run(&crash_spec(), &crash_config(&control_out)).expect("control run");
    let control = dir_bytes(&control.dir);
    let out = fresh_dir("publish-window");
    assert!(crash_at("after-job:4", 1, false, &out), "the run dies");
    assert!(crash_at("after-publish:1", 0, true, &out), "resume dies");

    let run_dir = out.join("crash");
    let shard = std::fs::read(run_dir.join(shard_file_name(1))).expect("shard 1 is published");
    let name = std::ffi::OsString::from(shard_file_name(1));
    assert_eq!(Some(&shard), control.get(&name), "the control's bytes");
    let partial = read_partial(&run_dir.join(partial_file_name(1))).expect("checkpoint is left");
    assert_eq!(partial.records.len(), 1);
    let report = gc(&out, true).expect("gc reads");
    let labels: Vec<_> = report.actions.iter().map(|a| a.kind.label()).collect();
    assert_eq!(labels, ["redundant-partial"], "{}", report.to_text());
    let state = status(&run_dir).expect("status reads");
    assert_eq!((state.records, state.checkpointed), (6, 1));
    assert_resume_matches(&out, 1, &control, "after-publish:1 on a batch-0 resume");
    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&control_out);
}

/// Copies the run directories under `from` into `to`, one level deep.
fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("listable out dir") {
        let dir = entry.expect("dir entry").path();
        let target = to.join(dir.file_name().expect("named"));
        std::fs::create_dir_all(&target).expect("creates run dir");
        for file in std::fs::read_dir(&dir).expect("listable run dir") {
            let file = file.expect("dir entry").path();
            std::fs::copy(&file, target.join(file.file_name().expect("named"))).expect("copies");
        }
    }
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

/// A run directory's files, by name, with their bytes.
type DirBytes = std::collections::BTreeMap<std::ffi::OsString, Vec<u8>>;

/// Every file in `dir`, by name, with its bytes.
fn dir_bytes(dir: &Path) -> DirBytes {
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
    let files = Inventory::read(&run_dir).expect("lists");
    assert_eq!(files.checkpoints().count(), 0);
    assert_eq!(dir_bytes(&run_dir), dir_bytes(&control.dir));
    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&control_out);
}

/// Shards in the plain-JSON format from before record lines carried a
/// checksum read as all torn: `status` counts no record and every line
/// as torn, `gc --dry-run` reports them as corrupt, and a resume
/// recomputes them to a fresh run's bytes.
#[test]
fn shards_in_the_pre_checksum_format_recompute() {
    let out = fresh_dir("plain-json");
    let fresh = run(&crash_spec(), &crash_config(&out)).expect("fresh run");
    let reference = dir_bytes(&fresh.dir);
    strip_checksums(&fresh.dir);
    let state = status(&fresh.dir).expect("status counts damaged shards");
    assert_eq!((state.records, state.torn_lines), (0, 8));
    assert!(!state.is_complete());
    let report = gc(&out, true).expect("gc reads");
    let corrupt = report
        .actions
        .iter()
        .filter(|a| a.kind == GcKind::CorruptShard);
    assert_eq!(corrupt.count(), 3, "{}", report.to_text());

    let resume = GridConfig {
        resume: true,
        ..crash_config(&out)
    };
    let resumed = run(&crash_spec(), &resume).expect("resume");
    assert_eq!((resumed.cache_hits, resumed.recomputed), (0, 8));
    assert!(dir_bytes(&resumed.dir) == reference);
    let _ = std::fs::remove_dir_all(&out);
}

/// Rewrites every shard in `dir` in the plain-JSON format from before
/// record lines carried a checksum.
fn strip_checksums(dir: &Path) {
    for (_, path) in Inventory::read(dir).expect("lists").shards() {
        let text = std::fs::read_to_string(path).expect("reads");
        let unsum = |line: &str| line.split_once('\t').expect("checksummed").1.to_owned() + "\n";
        std::fs::write(path, text.lines().map(unsum).collect::<String>()).expect("rewrites");
    }
}

/// Orphaned renames of shard 1 and of the aggregate, as a kill inside
/// `write_shard` or `write_atomic` leaves them.
fn orphan_tmp_files(dir: &Path) {
    std::fs::write(dir.join("shard-00001.jsonl.tmp"), b"half a shard").expect("plants");
    std::fs::write(dir.join("aggregate.json.tmp"), b"{ half").expect("plants");
}

/// One flipped byte in shard 1's second line.
fn flip_a_byte(dir: &Path) {
    let path = dir.join(shard_file_name(1));
    let mut bytes = std::fs::read(&path).expect("reads");
    let second = bytes.iter().position(|&b| b == b'\n').expect("a line") + 1;
    bytes[second + 20] ^= 0x01;
    std::fs::write(&path, bytes).expect("flips");
}

/// Shard 2 demoted to its checkpoint, with its last line torn.
fn tear_a_checkpoint(dir: &Path) {
    let partial = dir.join(partial_file_name(2));
    std::fs::rename(dir.join(shard_file_name(2)), &partial).expect("demotes");
    let bytes = std::fs::read(&partial).expect("reads");
    std::fs::write(&partial, &bytes[..bytes.len() - 10]).expect("tears");
}

/// Shard 1's checkpoint beside its promoted shard: what a kill between
/// `write_shard`'s rename and the checkpoint's removal leaves (see
/// [`a_kill_after_publish_leaves_a_redundant_checkpoint_that_resume_retires`]).
fn leave_a_redundant_checkpoint(dir: &Path) {
    std::fs::copy(dir.join(shard_file_name(1)), dir.join(partial_file_name(1))).expect("copies");
}

/// A shard past the spec's three.
fn plant_a_stale_shard(dir: &Path) {
    std::fs::copy(dir.join(shard_file_name(0)), dir.join(shard_file_name(7))).expect("copies");
}

fn corrupt_the_aggregate(dir: &Path) {
    std::fs::write(dir.join("aggregate.json"), b"{ torn").expect("corrupts");
}

/// Plants one kind of damage in a complete run directory.
type Plant = fn(&Path);

/// Each kind of damage, planted in a complete run directory, and the
/// label `gc --dry-run` gives it.
const DAMAGE: [(&str, Plant); 7] = [
    ("orphaned-tmp", orphan_tmp_files),
    ("corrupt-shard", flip_a_byte),
    ("corrupt-shard", strip_checksums),
    ("torn-partial", tear_a_checkpoint),
    ("redundant-partial", leave_a_redundant_checkpoint),
    ("stale-shard", plant_a_stale_shard),
    ("corrupt-aggregate", corrupt_the_aggregate),
];

/// Every kind of damage in a complete [`crash_spec`] run: `gc --dry-run`
/// names it, `status` still reads the directory, and a resume leaves the
/// uninterrupted run's bytes, with no `*.tmp` behind.
#[test]
fn every_kind_of_damage_is_named_counted_and_resumed() {
    let control_out = fresh_dir("damage-control");
    run(&crash_spec(), &crash_config(&control_out)).expect("control run");
    let control = dir_bytes(&control_out.join("crash"));
    for (row, (label, plant)) in DAMAGE.into_iter().enumerate() {
        let out = fresh_dir(&format!("damage-{row}"));
        copy_dir(&control_out, &out);
        let run_dir = out.join("crash");
        plant(&run_dir);
        let report = gc(&out, true).expect("gc reads");
        let labels: BTreeSet<_> = report.actions.iter().map(|a| a.kind.label()).collect();
        assert_eq!(
            labels,
            BTreeSet::from([label]),
            "row {row}: {}",
            report.to_text()
        );
        let state = match status(&run_dir) {
            Ok(state) => state,
            Err(e) => panic!("row {row} ({label}): status fails: {e}"),
        };
        if label == "stale-shard" {
            assert_eq!(
                (state.records, state.stale_shards),
                (state.expected_jobs, 1),
                "row {row}: a stale shard's records are not the run's"
            );
            assert!(state.is_complete(), "row {row}: the run is complete");
        }
        let resume = GridConfig {
            resume: true,
            ..crash_config(&out)
        };
        run(&crash_spec(), &resume).expect("resume");
        assert!(
            dir_bytes(&run_dir) == control,
            "row {row} ({label}): the resume must leave the uninterrupted run's bytes"
        );
        let _ = std::fs::remove_dir_all(&out);
    }
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
            let partial0 = fresh.dir.join(partial_file_name(0));
            std::fs::rename(fresh.dir.join(shard_file_name(0)), &partial0).expect("demote");
            let bytes = std::fs::read(&partial0).expect("shard 0 reads");
            let first_line = bytes.iter().position(|&b| b == b'\n').expect("a line") + 1;
            std::fs::write(&partial0, &bytes[..first_line]).expect("keep one record");
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
