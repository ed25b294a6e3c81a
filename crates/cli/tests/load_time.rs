//! `fcdpm batch` and `fcdpm grid run` reject an infeasible grid file
//! before the first job: non-zero exit, and no manifest or run
//! directory left behind.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn fcdpm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fcdpm"))
        .args(args)
        .output()
        .expect("fcdpm runs")
}

#[test]
fn batch_rejects_an_infeasible_grid_before_running() {
    let dir = scratch("cli-batch-infeasible");
    let grid = dir.join("grid.json");
    fs::write(
        &grid,
        r#"{"policies": [{"Constant": 5.0}], "workloads": [{"Experiment1": 1}]}"#,
    )
    .expect("write grid");
    let out = dir.join("out");
    let run = fcdpm(&[
        "batch",
        grid.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(!run.status.success());
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("policies: constant setpoint 5 A"),
        "{stderr}"
    );
    assert!(!out.exists(), "batch created {}", out.display());
}

/// Without the load-time predictor check, every job of this grid
/// would panic inside the predictor's constructor instead.
#[test]
fn batch_rejects_a_zero_window_regression_before_running() {
    let dir = scratch("cli-batch-regression-0");
    let grid = dir.join("grid.json");
    fs::write(
        &grid,
        r#"{"policies": ["FcDpm"], "workloads": [{"Experiment1": 1}],
            "predictors": [{"Regression": 0}]}"#,
    )
    .expect("write grid");
    let out = dir.join("out");
    let run = fcdpm(&[
        "batch",
        grid.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(!run.status.success());
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("predictors: Regression needs a window of at least 1 sample"),
        "{stderr}"
    );
    assert!(!out.exists(), "batch created {}", out.display());
}

#[test]
fn grid_run_rejects_an_infeasible_spec_before_running() {
    let dir = scratch("cli-grid-infeasible");
    let spec = dir.join("spec.json");
    fs::write(
        &spec,
        r#"{"seeds": {"List": [1]}, "workloads": ["Experiment1"], "policies": ["Conv"],
            "capacities_mamin": [1.0]}"#,
    )
    .expect("write spec");
    let out = dir.join("out");
    let run = fcdpm(&[
        "grid",
        "run",
        spec.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(!run.status.success());
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("capacities_mamin: capacity 1 mA·min"),
        "{stderr}"
    );
    assert!(!out.exists(), "grid run created {}", out.display());
}
