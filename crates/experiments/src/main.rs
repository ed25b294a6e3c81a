//! One-shot reproduction: regenerates every table and figure of the
//! paper and every ablation, in-process, on the [`fcdpm_runner`] worker
//! pool.
//!
//! ```sh
//! cargo run --release -p fcdpm-experiments -- [results-dir] [--jobs <N>]
//! cargo run --release -p fcdpm-experiments -- --only <name>
//! ```
//!
//! Each experiment is a module whose `run` writes its text into a
//! `String`; [`EXPERIMENTS`] lists them once. `all` runs the whole list
//! on one [`pool::stream`] call across `--jobs` workers (default: the
//! host's parallelism) and writes each text atomically to
//! `<results-dir>/<name>.txt` (default `results/`), in list order. The
//! pool runs every experiment under `catch_unwind`, so one that panics
//! or fails is reported `FAILED`, the others are still written, and the
//! exit status is 1. `--only <name>` prints that one experiment's text
//! to stdout instead. Bad arguments exit 2.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

mod ablation;
mod aggregation;
mod dpm_policies;
mod dvs;
mod fig2;
mod fig3;
mod fig4;
mod fig6;
mod fig7;
mod heavy_tail;
mod lifetime;
mod model_fidelity;
mod multi_device;
mod sweeps;
mod table2;
mod table3;

use std::convert::Infallible;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fcdpm_runner::pool::{self, Execution, RetryPolicy};
use fcdpm_runner::{write_atomic, JobMetrics, JobOutcome, RunManifest};

/// One experiment: the stem of its results file and the function that
/// writes its text.
type Experiment = (&'static str, fn(&mut String) -> fmt::Result);

/// Every experiment, in the order `all` writes and reports them.
const EXPERIMENTS: &[Experiment] = &[
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("sweeps", sweeps::run),
    ("ablation", ablation::run),
    ("dpm_policies", dpm_policies::run),
    ("aggregation", aggregation::run),
    ("dvs", dvs::run),
    ("model_fidelity", model_fidelity::run),
    ("lifetime", lifetime::run),
    ("heavy_tail", heavy_tail::run),
    ("multi_device", multi_device::run),
];

/// The reference seed reproducing `Scenario::experiment1()`.
const EXPERIMENT1_SEED: u64 = 0xDAC0_2007;

/// The metrics of job `index` of `manifest`, which must have completed.
fn completed(manifest: &RunManifest, index: usize) -> &JobMetrics {
    let record = &manifest.records[index];
    match &record.outcome {
        JobOutcome::Completed(m) => m,
        other => panic!("job {} did not complete: {other:?}", record.id),
    }
}

const USAGE: &str = "usage: all [results-dir] [--jobs <N>]\n       all --only <name>";

/// What the arguments ask for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// Print the experiment at this index of the registry to stdout.
    Only(usize),
    /// Write every experiment into `out_dir` on `jobs` workers (0: the
    /// host's parallelism).
    All { out_dir: PathBuf, jobs: usize },
}

fn parse_args(
    registry: &[Experiment],
    args: impl IntoIterator<Item = String>,
) -> Result<Mode, String> {
    let (mut out_dir, mut jobs, mut only) = (None, 0, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let value = args.next().ok_or("--jobs needs a value")?;
                jobs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid --jobs value `{value}`"))?;
            }
            "--only" => {
                let name = args.next().ok_or("--only needs an experiment name")?;
                let index = registry.iter().position(|(n, _)| *n == name);
                only = Some(index.ok_or_else(|| {
                    let names: Vec<_> = registry.iter().map(|(n, _)| *n).collect();
                    format!("unknown experiment `{name}` (one of {})", names.join(", "))
                })?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ if out_dir.is_none() => out_dir = Some(PathBuf::from(arg)),
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    match (only, out_dir) {
        (Some(index), None) => Ok(Mode::Only(index)),
        (Some(_), Some(dir)) => Err(format!(
            "--only prints to stdout; it takes no results directory (`{}`)",
            dir.display()
        )),
        (None, out_dir) => Ok(Mode::All {
            out_dir: out_dir.unwrap_or_else(|| "results".into()),
            jobs,
        }),
    }
}

/// Runs `registry` on `jobs` workers and writes each experiment's text
/// to `out_dir/<name>.txt` as the pool hands it back, in registry order,
/// reporting one line per experiment to `out`. Returns how many failed.
fn write_all(
    registry: &'static [Experiment],
    out_dir: &Path,
    jobs: usize,
    mut out: impl FnMut(&str),
) -> usize {
    let blocks: Vec<usize> = (1..=registry.len()).collect();
    let job = move |index: usize, _attempt: u32| {
        let mut text = String::new();
        (registry[index].1)(&mut text).map(|()| text)
    };
    let mut failures = 0;
    let Ok(()) = pool::stream(
        &blocks,
        jobs,
        None,
        &RetryPolicy::default(),
        job,
        |result| {
            let name = registry[result.index].0;
            let path = out_dir.join(format!("{name}.txt"));
            let written = match result.execution {
                Execution::Completed(Ok(text)) => write_atomic(&path, &text).map(|()| text.len()),
                Execution::Completed(Err(fmt::Error)) => Err("a formatter failed".to_owned()),
                Execution::Panicked(msg) => Err(format!("panic: {msg}")),
                Execution::TimedOut => unreachable!("`all` sets no timeout"),
            };
            match written {
                Ok(bytes) => out(&format!(
                    "{name:<16}-> {} ({bytes} bytes)\n",
                    path.display()
                )),
                Err(e) => {
                    failures += 1;
                    out(&format!("{name:<16}FAILED ({e})\n"));
                }
            }
            Ok::<(), Infallible>(())
        },
    );
    failures
}

/// Runs `all` with `args` over `registry`, handing everything bound for
/// stdout to `out`. Returns the exit status: 0, 1 when an experiment or
/// a write fails, 2 on bad arguments.
fn status(
    registry: &'static [Experiment],
    args: impl IntoIterator<Item = String>,
    mut out: impl FnMut(&str),
) -> u8 {
    let (out_dir, jobs) = match parse_args(registry, args) {
        Ok(Mode::All { out_dir, jobs }) => (out_dir, jobs),
        Ok(Mode::Only(index)) => {
            let (name, run) = registry[index];
            let mut text = String::new();
            if run(&mut text).is_err() {
                eprintln!("error: {name}: a formatter failed");
                return 1;
            }
            out(&text);
            return 0;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return 1;
    }
    let failures = write_all(registry, &out_dir, jobs, &mut out);
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        return 1;
    }
    out(&format!(
        "all experiments written to {}\n",
        out_dir.display()
    ));
    0
}

fn main() -> ExitCode {
    let args = std::env::args().skip(1);
    ExitCode::from(status(EXPERIMENTS, args, |text| print!("{text}")))
}

#[cfg(test)]
mod tests {
    use std::fmt::Write;

    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|&arg| arg.to_owned()).collect()
    }

    fn results() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    /// The names of the files in `dir`, sorted.
    fn files(dir: &Path) -> Vec<String> {
        let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        let name = |entry: std::io::Result<fs::DirEntry>| entry.expect("entry").file_name();
        let mut names: Vec<String> = entries.map(|e| name(e).to_string_lossy().into()).collect();
        names.sort();
        names
    }

    #[test]
    fn every_experiment_reproduces_its_committed_result() {
        let mut expected: Vec<String> = EXPERIMENTS
            .iter()
            .map(|(n, _)| format!("{n}.txt"))
            .collect();
        expected.sort();
        let committed = files(&results());
        assert_eq!(
            committed, expected,
            "results/ and the registry name the same experiments"
        );

        for (name, run) in EXPERIMENTS {
            let mut text = String::new();
            run(&mut text).expect("writes");
            assert!(
                text == fs::read_to_string(results().join(format!("{name}.txt"))).expect("reads"),
                "`{name}` no longer prints results/{name}.txt; regenerate with \
                 `cargo run --release -p fcdpm-experiments -- results`"
            );
        }
    }

    fn fine(out: &mut String) -> fmt::Result {
        writeln!(out, "fine")
    }

    fn panics(_: &mut String) -> fmt::Result {
        panic!("boom")
    }

    fn fails(out: &mut String) -> fmt::Result {
        out.push_str("half a table");
        Err(fmt::Error)
    }

    #[test]
    fn a_failing_experiment_is_reported_and_every_other_file_is_written() {
        const FAKE: &[Experiment] = &[
            ("first", fine),
            ("panics", panics),
            ("fails", fails),
            ("last", fine),
        ];
        let dir =
            std::env::temp_dir().join(format!("fcdpm-experiments-all-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut stdout = String::new();
        let argv = args(&[dir.to_str().expect("utf-8"), "--jobs", "2"]);
        assert_eq!(status(FAKE, argv, |text| stdout.push_str(text)), 1);
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 4, "{stdout}");
        assert!(lines[0].starts_with("first") && lines[0].ends_with("(5 bytes)"));
        assert!(lines[1].starts_with("panics") && lines[1].ends_with("FAILED (panic: boom)"));
        assert!(lines[2].starts_with("fails") && lines[2].contains("FAILED"));
        assert!(lines[3].starts_with("last") && lines[3].ends_with("(5 bytes)"));
        // Neither a failed experiment's text nor a `.tmp` is left behind.
        assert_eq!(files(&dir), ["first.txt", "last.txt"]);
        assert_eq!(
            fs::read_to_string(dir.join("last.txt")).expect("reads"),
            "fine\n"
        );
        fs::remove_dir_all(&dir).expect("cleans up");
    }

    #[test]
    fn only_prints_one_experiment() {
        let mut stdout = String::new();
        let code = status(EXPERIMENTS, args(&["--only", "table2"]), |text| {
            stdout.push_str(text);
        });
        assert_eq!(code, 0);
        assert_eq!(
            stdout,
            fs::read_to_string(results().join("table2.txt")).expect("reads")
        );
    }

    #[test]
    fn bad_arguments_exit_with_status_2() {
        for bad in [
            &["--only", "fig5"][..],
            &["--only"],
            &["--jobs", "0"],
            &["--jobs"],
            &["first-dir", "second-dir"],
            &["--only", "fig2", "dir"],
            &["--capacity"],
        ] {
            assert_eq!(status(EXPERIMENTS, args(bad), |_| {}), 2, "{bad:?}");
        }
        let default = Mode::All {
            out_dir: "results".into(),
            jobs: 0,
        };
        assert_eq!(parse_args(EXPERIMENTS, args(&[])), Ok(default));
    }
}
