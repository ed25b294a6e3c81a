//! One-shot reproduction runner: executes every table/figure regenerator
//! and every ablation on the [`fcdpm_runner`] worker pool, writing each
//! output to `results/<name>.txt` (or a directory given as the first
//! positional argument).
//!
//! ```sh
//! cargo run -p fcdpm-experiments --bin all [results-dir] [--jobs <N>]
//! ```
//!
//! Each experiment still runs as a child process (so a crashing
//! regenerator cannot take the others down), but the processes are
//! scheduled across `--jobs` pool workers and failures propagate: a
//! non-zero child exit prints the child's stderr and fails the run.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use fcdpm_runner::pool::{run_to_completion, Execution};

const EXPERIMENTS: &[&str] = &[
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "table2",
    "table3",
    "sweeps",
    "ablation",
    "dpm_policies",
    "aggregation",
    "dvs",
    "model_fidelity",
    "lifetime",
    "heavy_tail",
    "multi_device",
];

/// What one experiment subprocess produced.
enum Run {
    Wrote(PathBuf, usize),
    ChildFailed { code: Option<i32>, stderr: String },
    Launch(String),
    Write(String),
}

fn parse_args() -> Result<(PathBuf, usize), String> {
    let mut out_dir: Option<PathBuf> = None;
    let mut jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            let value = args.next().ok_or("--jobs needs a value")?;
            jobs = value
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("invalid --jobs value `{value}`"))?;
        } else if out_dir.is_none() {
            out_dir = Some(arg.into());
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    Ok((out_dir.unwrap_or_else(|| "results".into()), jobs))
}

fn run_one(bin: &Path, out_path: &Path) -> Run {
    match Command::new(bin).output() {
        Ok(out) if out.status.success() => match fs::write(out_path, &out.stdout) {
            Ok(()) => Run::Wrote(out_path.to_path_buf(), out.stdout.len()),
            Err(e) => Run::Write(format!("cannot write {}: {e}", out_path.display())),
        },
        Ok(out) => Run::ChildFailed {
            code: out.status.code(),
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        },
        Err(e) => Run::Launch(format!("cannot launch {}: {e}", bin.display())),
    }
}

fn main() {
    let (out_dir, jobs) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: all [results-dir] [--jobs <N>]");
            std::process::exit(2);
        }
    };
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let exe_dir = std::env::current_exe()
        .expect("current executable path")
        .parent()
        .expect("executable lives in a directory")
        .to_path_buf();

    let tasks: Vec<_> = EXPERIMENTS
        .iter()
        .map(|name| {
            let bin = exe_dir.join(name);
            let out_path = out_dir.join(format!("{name}.txt"));
            move || run_one(&bin, &out_path)
        })
        .collect();
    let results = run_to_completion(tasks, jobs, None);

    let mut failures = 0;
    let mut launch_failure = false;
    for (name, result) in EXPERIMENTS.iter().zip(&results) {
        print!("{name:<16}");
        match &result.execution {
            Execution::Completed(Run::Wrote(path, bytes)) => {
                println!("-> {} ({bytes} bytes)", path.display());
            }
            Execution::Completed(Run::ChildFailed { code, stderr }) => {
                println!("FAILED (exit {code:?})");
                for line in stderr.lines() {
                    eprintln!("  {name}: {line}");
                }
                failures += 1;
            }
            Execution::Completed(Run::Launch(msg)) => {
                println!("FAILED: {msg}");
                launch_failure = true;
                failures += 1;
            }
            Execution::Completed(Run::Write(msg)) => {
                println!("FAILED: {msg}");
                failures += 1;
            }
            Execution::Panicked(msg) => {
                println!("FAILED (panic: {msg})");
                failures += 1;
            }
            Execution::TimedOut => {
                println!("FAILED (timed out)");
                failures += 1;
            }
        }
    }
    if launch_failure {
        eprintln!("hint: build the experiment binaries first:");
        eprintln!("    cargo build -p fcdpm-experiments");
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
    println!("all experiments written to {}", out_dir.display());
}
