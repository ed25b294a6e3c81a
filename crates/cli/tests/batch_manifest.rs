//! `fcdpm batch` writes its manifest to `<stem>.manifest.json.tmp` and
//! renames it into place only when the run ends, so a batch killed
//! mid-run leaves the previous manifest untouched — never a torn or
//! empty one.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::thread;
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "bounds the wait for the `.tmp` manifest"
)]
fn killed_batch_leaves_the_previous_manifest_intact() {
    let dir = scratch("cli-batch-killed");
    let grid = dir.join("grid.json");
    let out = dir.join("out");
    let manifest = out.join("grid.manifest.json");
    let tmp = out.join("grid.manifest.json.tmp");
    let batch = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fcdpm"));
        cmd.args(["batch", grid.to_str().unwrap(), "--jobs", "1", "--out"])
            .arg(&out);
        cmd
    };

    fs::write(
        &grid,
        r#"{"policies": ["Conv"], "workloads": [{"Experiment1": 1}]}"#,
    )
    .expect("write grid");
    let first = batch().output().expect("fcdpm runs");
    assert!(first.status.success(), "{first:?}");
    let previous = fs::read(&manifest).expect("first manifest");

    // Thousands of DVS jobs on one worker: the run outlives the moment
    // its `.tmp` appears by far more than the poll below takes.
    let seeds: Vec<String> = (0..200).map(|s| format!(r#"{{"Dvs": {s}}}"#)).collect();
    fs::write(
        &grid,
        format!(
            r#"{{"policies": ["Conv", "Asap", "FcDpm", "WindowedAverage", {{"Quantized": 12}}],
                "storages": ["Ideal", "SuperCapacitor", "Kibam"],
                "workloads": [{}]}}"#,
            seeds.join(", ")
        ),
    )
    .expect("write grid");
    let mut child = batch()
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("fcdpm starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !tmp.exists() {
        assert!(
            child.try_wait().expect("polls").is_none(),
            "the batch ended before it could be killed"
        );
        assert!(Instant::now() < deadline, "no `.tmp` manifest appeared");
        thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("kills");
    let status = child.wait().expect("reaps");
    assert!(!status.success(), "the batch was killed, not finished");

    assert!(tmp.exists(), "a kill leaves the `.tmp`, not a cleanup");
    assert_eq!(
        fs::read(&manifest).expect("manifest still there"),
        previous,
        "the killed run must not touch the manifest"
    );
}
