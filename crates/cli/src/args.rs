//! Argument parsing.

use core::fmt;
use core::str::FromStr;

/// Which of the paper's experiments to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// Experiment 1: the DVD camcorder.
    Exp1,
    /// Experiment 2: the synthetic uniform workload.
    Exp2,
}

/// Which FC output policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// Conv-DPM only.
    Conv,
    /// ASAP-DPM only.
    Asap,
    /// FC-DPM only.
    FcDpm,
    /// All three, with the normalized table.
    All,
}

/// Which trace generator to invoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The camcorder MPEG trace.
    Camcorder,
    /// The Experiment-2 synthetic trace.
    Synthetic,
}

/// Which device preset a simulated trace runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceChoice {
    /// The DVD camcorder of Experiment 1.
    Camcorder,
    /// The synthetic device of Experiment 2.
    Exp2,
}

/// Output format of `fcdpm analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// One `path:line: [rule] message` diagnostic per line.
    Human,
    /// The machine-readable JSON report.
    Json,
    /// SARIF 2.1.0, for code-scanning upload and editor ingestion.
    Sarif,
}

/// What a `fcdpm grid` invocation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridAction {
    /// Execute the grid fresh (ignoring any previous spill).
    Run,
    /// Execute the grid, reusing digest-matching records from spill.
    Resume,
    /// Inspect a run directory without executing anything.
    Status,
    /// Sweep a grid root: compact torn checkpoints, drop orphaned
    /// temporaries and stale shards, delete abandoned run directories.
    Gc,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run an experiment.
    Experiment {
        /// Which experiment.
        id: ExperimentId,
        /// Storage capacity in mA·min (default 100, the paper's buffer).
        capacity_mamin: f64,
        /// Trace seed (default: the paper-reference seed).
        seed: Option<u64>,
        /// Which policies to run.
        policy: PolicyChoice,
    },
    /// Generate a trace.
    Trace {
        /// Which generator.
        kind: TraceKind,
        /// Seed (default: reference seed).
        seed: Option<u64>,
        /// Horizon in minutes (default 28).
        minutes: f64,
    },
    /// Print a model curve.
    Curve {
        /// `true` for the stack I-V-P curve, `false` for the efficiency
        /// curves.
        stack: bool,
    },
    /// Run the three policies on a user-provided CSV trace.
    Simulate {
        /// Path to the CSV trace (header `idle_s,active_s,active_w`).
        path: String,
        /// Device preset the trace runs on.
        device: DeviceChoice,
        /// Storage capacity in mA·min (default 100).
        capacity_mamin: f64,
    },
    /// Run Experiment 1 cyclically until a hydrogen tank runs dry.
    Lifetime {
        /// Tank size in moles of hydrogen (default 2.0).
        moles: f64,
        /// Storage capacity in mA·min (default 100).
        capacity_mamin: f64,
    },
    /// Find the smallest storage capacity for unconstrained FC-DPM.
    Sizing {
        /// Bisection tolerance in A·s (default 0.05).
        tolerance_as: f64,
    },
    /// Run a batch job grid from a JSON spec file.
    Batch {
        /// Path to the JSON `JobGrid` spec.
        spec: String,
        /// Worker threads (default: available parallelism).
        jobs: Option<usize>,
        /// Output directory for the run manifest (default `results`).
        out: Option<String>,
    },
    /// Drive the fleet-scale grid engine: sharded streaming execution
    /// of an intensional `GridSpec` with digest-keyed resume.
    Grid {
        /// What to do.
        action: GridAction,
        /// Spec file path (`run`/`resume`) or run directory (`status`).
        path: String,
        /// Worker threads (default: available parallelism).
        jobs: Option<usize>,
        /// Jobs per shard — the resident-memory ceiling (default 1024).
        shard_size: Option<u64>,
        /// Parent directory for run directories (default `results/grid`).
        out: Option<String>,
        /// Run directory name (default `grid-<spec-digest>`).
        run_id: Option<String>,
        /// Attempts per job before it is quarantined (default 1).
        max_attempts: Option<u32>,
        /// Base backoff between attempts, in ms (default 0).
        retry_backoff_ms: Option<u64>,
        /// Jobs per fsync'd checkpoint batch; 0 disables mid-shard
        /// checkpointing (default 32).
        checkpoint_batch: Option<u64>,
        /// For `gc`: report what would be repaired without touching
        /// anything.
        dry_run: bool,
    },
    /// Run the seeded fault-injection sweep (canonical schedules under
    /// plain, resilient and Conv-DPM policies) and write the
    /// deterministic manifest.
    Faults {
        /// Only the starvation and combined schedules — for CI smoke
        /// runs.
        quick: bool,
        /// Sweep seed (default: the paper-reference seed).
        seed: Option<u64>,
        /// Worker threads (default: available parallelism).
        jobs: Option<usize>,
        /// Output directory for the manifest (default `results`).
        out: Option<String>,
    },
    /// Run the bench harness (fixture grid, coalescing gates, fault
    /// sweep, grid-engine resume) and write the deterministic payload.
    Bench {
        /// Output path for the JSON payload (default `BENCH_4.json`).
        out: Option<String>,
    },
    /// Run the static analysis over the workspace: the nine rules of
    /// `fcdpm_analyze::Rule::ALL` (determinism, unit-safety,
    /// panic-policy, crate-hygiene, unit-dataflow, layering,
    /// paper-constants, digest-stability, atomic-artifact).
    Analyze {
        /// Diagnostics format (default human).
        format: ReportFormat,
        /// Baseline file path (default `<root>/analyze-baseline.json`;
        /// missing file means an empty baseline).
        baseline: Option<String>,
        /// Workspace root to scan (default: current directory).
        root: Option<String>,
        /// Regenerate the baseline file from the current findings
        /// instead of failing on them.
        write_baseline: bool,
    },
    /// Print usage.
    Help,
}

/// A CLI parse failure, with the message to show the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCliError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ParseCliError {}

fn err(message: impl Into<String>) -> ParseCliError {
    ParseCliError {
        message: message.into(),
    }
}

fn take_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
) -> Result<&'a str, ParseCliError> {
    iter.next()
        .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
}

/// The one shape of every bad-flag-value message.
fn bad(what: &str, v: &str) -> ParseCliError {
    err(format!("bad {what} `{v}`"))
}

/// Parses a flag value as any `T`.
fn number<T: FromStr>(v: &str, what: &str) -> Result<T, ParseCliError> {
    v.parse().map_err(|_| bad(what, v))
}

/// Parses a flag value as a `T` above zero (a count or a size).
fn positive<T: FromStr + PartialOrd + Default>(v: &str, what: &str) -> Result<T, ParseCliError> {
    v.parse()
        .ok()
        .filter(|n: &T| *n > T::default())
        .ok_or_else(|| bad(what, v))
}

/// Parses a flag value as a positive, finite quantity.
fn positive_finite(v: &str, what: &str) -> Result<f64, ParseCliError> {
    v.parse::<f64>()
        .ok()
        .filter(|x| *x > 0.0 && x.is_finite())
        .ok_or_else(|| bad(what, v))
}

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// Returns a [`ParseCliError`] describing the first malformed argument.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Command, ParseCliError> {
    let mut iter = args.iter().map(AsRef::as_ref);
    let Some(cmd) = iter.next() else {
        return Ok(Command::Help);
    };
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "experiment" => {
            let id = match iter.next() {
                Some("exp1") | Some("1") => ExperimentId::Exp1,
                Some("exp2") | Some("2") => ExperimentId::Exp2,
                Some(other) => return Err(err(format!("unknown experiment `{other}`"))),
                None => return Err(err("experiment needs `exp1` or `exp2`")),
            };
            let mut capacity_mamin = 100.0;
            let mut seed = None;
            let mut policy = PolicyChoice::All;
            while let Some(flag) = iter.next() {
                match flag {
                    "--capacity-mamin" => {
                        capacity_mamin = positive_finite(take_value(flag, &mut iter)?, "capacity")?;
                    }
                    "--seed" => {
                        seed = Some(number(take_value(flag, &mut iter)?, "seed")?);
                    }
                    "--policy" => {
                        let v = take_value(flag, &mut iter)?;
                        policy = match v {
                            "conv" => PolicyChoice::Conv,
                            "asap" => PolicyChoice::Asap,
                            "fcdpm" => PolicyChoice::FcDpm,
                            "all" => PolicyChoice::All,
                            other => return Err(err(format!("unknown policy `{other}`"))),
                        };
                    }
                    other => return Err(err(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Experiment {
                id,
                capacity_mamin,
                seed,
                policy,
            })
        }
        "trace" => {
            let kind = match iter.next() {
                Some("camcorder") => TraceKind::Camcorder,
                Some("synthetic") => TraceKind::Synthetic,
                Some(other) => return Err(err(format!("unknown trace kind `{other}`"))),
                None => return Err(err("trace needs `camcorder` or `synthetic`")),
            };
            let mut seed = None;
            let mut minutes = 28.0;
            while let Some(flag) = iter.next() {
                match flag {
                    "--seed" => {
                        seed = Some(number(take_value(flag, &mut iter)?, "seed")?);
                    }
                    "--minutes" => {
                        minutes = positive_finite(take_value(flag, &mut iter)?, "minutes")?;
                    }
                    other => return Err(err(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Trace {
                kind,
                seed,
                minutes,
            })
        }
        "curve" => match iter.next() {
            Some("stack") => Ok(Command::Curve { stack: true }),
            Some("efficiency") => Ok(Command::Curve { stack: false }),
            Some(other) => Err(err(format!("unknown curve `{other}`"))),
            None => Err(err("curve needs `stack` or `efficiency`")),
        },
        "simulate" => {
            let Some(path) = iter.next() else {
                return Err(err("simulate needs a trace file path"));
            };
            let mut device = DeviceChoice::Camcorder;
            let mut capacity_mamin = 100.0;
            while let Some(flag) = iter.next() {
                match flag {
                    "--device" => {
                        let v = take_value(flag, &mut iter)?;
                        device = match v {
                            "camcorder" => DeviceChoice::Camcorder,
                            "exp2" => DeviceChoice::Exp2,
                            other => return Err(err(format!("unknown device `{other}`"))),
                        };
                    }
                    "--capacity-mamin" => {
                        capacity_mamin = positive_finite(take_value(flag, &mut iter)?, "capacity")?;
                    }
                    other => return Err(err(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Simulate {
                path: path.to_owned(),
                device,
                capacity_mamin,
            })
        }
        "lifetime" => {
            let mut moles = 2.0;
            let mut capacity_mamin = 100.0;
            while let Some(flag) = iter.next() {
                match flag {
                    "--moles" => {
                        moles = positive_finite(take_value(flag, &mut iter)?, "moles")?;
                    }
                    "--capacity-mamin" => {
                        capacity_mamin = positive_finite(take_value(flag, &mut iter)?, "capacity")?;
                    }
                    other => return Err(err(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Lifetime {
                moles,
                capacity_mamin,
            })
        }
        "sizing" => {
            let mut tolerance_as = 0.05;
            while let Some(flag) = iter.next() {
                match flag {
                    "--tolerance-as" => {
                        tolerance_as = positive_finite(take_value(flag, &mut iter)?, "tolerance")?;
                    }
                    other => return Err(err(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Sizing { tolerance_as })
        }
        "batch" => {
            let Some(spec) = iter.next() else {
                return Err(err("batch needs a JSON spec file path"));
            };
            if spec.starts_with('-') {
                return Err(err("batch needs a JSON spec file path"));
            }
            let mut jobs = None;
            let mut out = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--jobs" => {
                        jobs = Some(positive(take_value(flag, &mut iter)?, "worker count")?);
                    }
                    "--out" => {
                        let v = take_value(flag, &mut iter)?;
                        out = Some(v.to_owned());
                    }
                    other => return Err(err(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Batch {
                spec: spec.to_owned(),
                jobs,
                out,
            })
        }
        "grid" => {
            let action = match iter.next() {
                Some("run") => GridAction::Run,
                Some("resume") => GridAction::Resume,
                Some("status") => GridAction::Status,
                Some("gc") => GridAction::Gc,
                Some(other) => return Err(err(format!("unknown grid action `{other}`"))),
                None => return Err(err("grid needs `run`, `resume`, `status` or `gc`")),
            };
            let Some(path) = iter.next().filter(|p| !p.starts_with('-')) else {
                return Err(err(match action {
                    GridAction::Status => "grid status needs a run directory",
                    GridAction::Gc => "grid gc needs a grid root directory",
                    _ => "grid needs a JSON GridSpec file path",
                }));
            };
            let mut jobs = None;
            let mut shard_size = None;
            let mut out = None;
            let mut run_id = None;
            let mut max_attempts = None;
            let mut retry_backoff_ms = None;
            let mut checkpoint_batch = None;
            let mut dry_run = false;
            while let Some(flag) = iter.next() {
                match flag {
                    "--jobs" => {
                        jobs = Some(positive(take_value(flag, &mut iter)?, "worker count")?);
                    }
                    "--shard-size" => {
                        shard_size = Some(positive(take_value(flag, &mut iter)?, "shard size")?);
                    }
                    "--out" => {
                        out = Some(take_value(flag, &mut iter)?.to_owned());
                    }
                    "--run-id" => {
                        run_id = Some(take_value(flag, &mut iter)?.to_owned());
                    }
                    "--max-attempts" => {
                        max_attempts =
                            Some(positive(take_value(flag, &mut iter)?, "attempt count")?);
                    }
                    "--retry-backoff-ms" => {
                        retry_backoff_ms = Some(number(take_value(flag, &mut iter)?, "backoff")?);
                    }
                    "--checkpoint-batch" => {
                        checkpoint_batch =
                            Some(number(take_value(flag, &mut iter)?, "checkpoint batch")?);
                    }
                    "--dry-run" => {
                        dry_run = true;
                    }
                    other => return Err(err(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Grid {
                action,
                path: path.to_owned(),
                jobs,
                shard_size,
                out,
                run_id,
                max_attempts,
                retry_backoff_ms,
                checkpoint_batch,
                dry_run,
            })
        }
        "faults" => {
            let mut quick = false;
            let mut seed = None;
            let mut jobs = None;
            let mut out = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--quick" => quick = true,
                    "--seed" => {
                        seed = Some(number(take_value(flag, &mut iter)?, "seed")?);
                    }
                    "--jobs" => {
                        jobs = Some(positive(take_value(flag, &mut iter)?, "worker count")?);
                    }
                    "--out" => {
                        out = Some(take_value(flag, &mut iter)?.to_owned());
                    }
                    other => return Err(err(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Faults {
                quick,
                seed,
                jobs,
                out,
            })
        }
        "bench" => {
            let mut out = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--out" => {
                        out = Some(take_value(flag, &mut iter)?.to_owned());
                    }
                    other => return Err(err(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Bench { out })
        }
        "analyze" => {
            let mut format = ReportFormat::Human;
            let mut baseline = None;
            let mut root = None;
            let mut write_baseline = false;
            while let Some(flag) = iter.next() {
                match flag {
                    "--format" => {
                        let v = take_value(flag, &mut iter)?;
                        format = match v {
                            "human" => ReportFormat::Human,
                            "json" => ReportFormat::Json,
                            "sarif" => ReportFormat::Sarif,
                            other => return Err(err(format!("unknown format `{other}`"))),
                        };
                    }
                    "--baseline" => {
                        baseline = Some(take_value(flag, &mut iter)?.to_owned());
                    }
                    "--root" => {
                        root = Some(take_value(flag, &mut iter)?.to_owned());
                    }
                    "--write-baseline" => write_baseline = true,
                    other => return Err(err(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Analyze {
                format,
                baseline,
                root,
                write_baseline,
            })
        }
        other => Err(err(format!("unknown command `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_help() {
        assert_eq!(parse::<&str>(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn experiment_defaults() {
        let cmd = parse(&["experiment", "exp1"]).unwrap();
        assert_eq!(
            cmd,
            Command::Experiment {
                id: ExperimentId::Exp1,
                capacity_mamin: 100.0,
                seed: None,
                policy: PolicyChoice::All,
            }
        );
    }

    #[test]
    fn experiment_flags() {
        let cmd = parse(&[
            "experiment",
            "2",
            "--capacity-mamin",
            "50",
            "--seed",
            "7",
            "--policy",
            "fcdpm",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Experiment {
                id: ExperimentId::Exp2,
                capacity_mamin: 50.0,
                seed: Some(7),
                policy: PolicyChoice::FcDpm,
            }
        );
    }

    #[test]
    fn trace_parsing() {
        let cmd = parse(&["trace", "synthetic", "--minutes", "5", "--seed", "3"]).unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                kind: TraceKind::Synthetic,
                seed: Some(3),
                minutes: 5.0,
            }
        );
    }

    #[test]
    fn curve_parsing() {
        assert_eq!(
            parse(&["curve", "stack"]).unwrap(),
            Command::Curve { stack: true }
        );
        assert_eq!(
            parse(&["curve", "efficiency"]).unwrap(),
            Command::Curve { stack: false }
        );
    }

    #[test]
    fn simulate_parse() {
        assert_eq!(
            parse(&["simulate", "t.csv"]).unwrap(),
            Command::Simulate {
                path: "t.csv".into(),
                device: DeviceChoice::Camcorder,
                capacity_mamin: 100.0,
            }
        );
        assert_eq!(
            parse(&[
                "simulate",
                "t.csv",
                "--device",
                "exp2",
                "--capacity-mamin",
                "60"
            ])
            .unwrap(),
            Command::Simulate {
                path: "t.csv".into(),
                device: DeviceChoice::Exp2,
                capacity_mamin: 60.0,
            }
        );
        assert!(parse(&["simulate"]).is_err());
        assert!(parse(&["simulate", "t.csv", "--device", "toaster"]).is_err());
    }

    #[test]
    fn lifetime_and_sizing_parse() {
        assert_eq!(
            parse(&["lifetime"]).unwrap(),
            Command::Lifetime {
                moles: 2.0,
                capacity_mamin: 100.0
            }
        );
        assert_eq!(
            parse(&["lifetime", "--moles", "0.5", "--capacity-mamin", "50"]).unwrap(),
            Command::Lifetime {
                moles: 0.5,
                capacity_mamin: 50.0
            }
        );
        assert_eq!(
            parse(&["sizing"]).unwrap(),
            Command::Sizing { tolerance_as: 0.05 }
        );
        assert_eq!(
            parse(&["sizing", "--tolerance-as", "0.2"]).unwrap(),
            Command::Sizing { tolerance_as: 0.2 }
        );
        assert!(parse(&["lifetime", "--moles", "-1"]).is_err());
        assert!(parse(&["sizing", "--tolerance-as", "0"]).is_err());
    }

    #[test]
    fn batch_parse() {
        assert_eq!(
            parse(&["batch", "grid.json"]).unwrap(),
            Command::Batch {
                spec: "grid.json".into(),
                jobs: None,
                out: None,
            }
        );
        assert_eq!(
            parse(&["batch", "grid.json", "--jobs", "4", "--out", "runs"]).unwrap(),
            Command::Batch {
                spec: "grid.json".into(),
                jobs: Some(4),
                out: Some("runs".into()),
            }
        );
        assert!(parse(&["batch"]).is_err());
        assert!(parse(&["batch", "--jobs", "4"]).is_err());
        assert!(parse(&["batch", "g.json", "--jobs", "0"]).is_err());
        assert!(parse(&["batch", "g.json", "--jobs", "x"]).is_err());
        assert!(parse(&["batch", "g.json", "--frob"]).is_err());
    }

    /// A `Command::Grid` with every optional knob unset.
    fn bare_grid(action: GridAction, path: &str) -> Command {
        Command::Grid {
            action,
            path: path.into(),
            jobs: None,
            shard_size: None,
            out: None,
            run_id: None,
            max_attempts: None,
            retry_backoff_ms: None,
            checkpoint_batch: None,
            dry_run: false,
        }
    }

    #[test]
    fn grid_parse() {
        assert_eq!(
            parse(&["grid", "run", "fleet.json"]).unwrap(),
            bare_grid(GridAction::Run, "fleet.json")
        );
        assert_eq!(
            parse(&[
                "grid",
                "resume",
                "fleet.json",
                "--jobs",
                "4",
                "--shard-size",
                "512",
                "--out",
                "runs",
                "--run-id",
                "campaign-a",
                "--max-attempts",
                "3",
                "--retry-backoff-ms",
                "250",
                "--checkpoint-batch",
                "64"
            ])
            .unwrap(),
            Command::Grid {
                action: GridAction::Resume,
                path: "fleet.json".into(),
                jobs: Some(4),
                shard_size: Some(512),
                out: Some("runs".into()),
                run_id: Some("campaign-a".into()),
                max_attempts: Some(3),
                retry_backoff_ms: Some(250),
                checkpoint_batch: Some(64),
                dry_run: false,
            }
        );
        assert_eq!(
            parse(&["grid", "status", "results/grid/grid-abc"]).unwrap(),
            bare_grid(GridAction::Status, "results/grid/grid-abc")
        );
        assert!(parse(&["grid"]).is_err());
        assert!(parse(&["grid", "frob"]).is_err());
        assert!(parse(&["grid", "run"]).is_err());
        assert!(parse(&["grid", "run", "--jobs", "4"]).is_err());
        assert!(parse(&["grid", "run", "g.json", "--jobs", "0"]).is_err());
        assert!(parse(&["grid", "run", "g.json", "--shard-size", "0"]).is_err());
        assert!(parse(&["grid", "status"])
            .unwrap_err()
            .message
            .contains("run directory"));
        assert!(parse(&["grid", "run", "g.json", "--frob"]).is_err());
        assert!(parse(&["grid", "run", "g.json", "--max-attempts", "0"]).is_err());
        assert!(parse(&["grid", "run", "g.json", "--retry-backoff-ms", "x"]).is_err());
        assert!(parse(&["grid", "run", "g.json", "--checkpoint-batch", "x"]).is_err());
    }

    #[test]
    fn grid_gc_parse() {
        assert_eq!(
            parse(&["grid", "gc", "results/grid"]).unwrap(),
            bare_grid(GridAction::Gc, "results/grid")
        );
        let Command::Grid {
            action, dry_run, ..
        } = parse(&["grid", "gc", "results/grid", "--dry-run"]).unwrap()
        else {
            panic!("not a grid command");
        };
        assert_eq!(action, GridAction::Gc);
        assert!(dry_run);
        assert!(parse(&["grid", "gc"])
            .unwrap_err()
            .message
            .contains("grid root"));
    }

    #[test]
    fn faults_parse() {
        assert_eq!(
            parse(&["faults"]).unwrap(),
            Command::Faults {
                quick: false,
                seed: None,
                jobs: None,
                out: None,
            }
        );
        assert_eq!(
            parse(&["faults", "--quick", "--seed", "7", "--jobs", "2", "--out", "runs"]).unwrap(),
            Command::Faults {
                quick: true,
                seed: Some(7),
                jobs: Some(2),
                out: Some("runs".into()),
            }
        );
        assert!(parse(&["faults", "--seed", "x"]).is_err());
        assert!(parse(&["faults", "--jobs", "0"]).is_err());
        assert!(parse(&["faults", "--out"]).is_err());
        assert!(parse(&["faults", "--frob"]).is_err());
    }

    #[test]
    fn bench_parse() {
        assert_eq!(parse(&["bench"]).unwrap(), Command::Bench { out: None });
        assert_eq!(
            parse(&["bench", "--out", "target/b.json"]).unwrap(),
            Command::Bench {
                out: Some("target/b.json".into()),
            }
        );
        assert!(parse(&["bench", "--quick"]).is_err());
        assert!(parse(&["bench", "--out"]).is_err());
        assert!(parse(&["bench", "--frob"]).is_err());
    }

    #[test]
    fn analyze_parse() {
        assert_eq!(
            parse(&["analyze"]).unwrap(),
            Command::Analyze {
                format: ReportFormat::Human,
                baseline: None,
                root: None,
                write_baseline: false,
            }
        );
        assert_eq!(
            parse(&[
                "analyze",
                "--format",
                "sarif",
                "--baseline",
                "a.json",
                "--root",
                "/tmp/ws",
                "--write-baseline"
            ])
            .unwrap(),
            Command::Analyze {
                format: ReportFormat::Sarif,
                baseline: Some("a.json".into()),
                root: Some("/tmp/ws".into()),
                write_baseline: true,
            }
        );
        assert!(parse(&["analyze", "--format", "xml"]).is_err());
        assert!(parse(&["analyze", "--baseline"]).is_err());
        assert!(parse(&["analyze", "--frob"]).is_err());
        // The removed subcommand and cache flags are rejected.
        assert!(parse(&["lint"]).is_err());
        assert!(parse(&["analyze", "--no-cache"]).is_err());
    }

    #[test]
    fn error_messages_name_the_problem() {
        assert!(parse(&["experiment"]).unwrap_err().message.contains("exp1"));
        assert!(parse(&["experiment", "exp3"])
            .unwrap_err()
            .message
            .contains("exp3"));
        assert!(parse(&["experiment", "exp1", "--seed"])
            .unwrap_err()
            .message
            .contains("needs a value"));
        assert!(parse(&["experiment", "exp1", "--seed", "x"])
            .unwrap_err()
            .message
            .contains("bad seed"));
        assert!(parse(&["experiment", "exp1", "--capacity-mamin", "-5"])
            .unwrap_err()
            .message
            .contains("bad capacity"));
        assert!(parse(&["experiment", "exp1", "--policy", "x"])
            .unwrap_err()
            .message
            .contains("unknown policy"));
        assert!(parse(&["frobnicate"])
            .unwrap_err()
            .message
            .contains("frobnicate"));
        assert!(parse(&["trace"]).unwrap_err().message.contains("camcorder"));
        assert!(parse(&["curve"]).unwrap_err().message.contains("stack"));
        assert!(parse(&["trace", "camcorder", "--minutes", "0"])
            .unwrap_err()
            .message
            .contains("bad minutes"));
        // Every other flag-value message, pinned byte for byte.
        let cases: [(&[&str], &str); 9] = [
            (&["lifetime", "--moles", "0"], "bad moles `0`"),
            (&["sizing", "--tolerance-as", "inf"], "bad tolerance `inf`"),
            (&["batch", "g.json", "--jobs", "0"], "bad worker count `0`"),
            (&["faults", "--jobs", "x"], "bad worker count `x`"),
            (
                &["grid", "run", "g.json", "--jobs", "-1"],
                "bad worker count `-1`",
            ),
            (
                &["grid", "run", "g.json", "--shard-size", "0"],
                "bad shard size `0`",
            ),
            (
                &["grid", "run", "g.json", "--max-attempts", "0"],
                "bad attempt count `0`",
            ),
            (
                &["grid", "run", "g.json", "--retry-backoff-ms", "-5"],
                "bad backoff `-5`",
            ),
            (
                &["grid", "run", "g.json", "--checkpoint-batch", "x"],
                "bad checkpoint batch `x`",
            ),
        ];
        for (args, message) in cases {
            assert_eq!(parse(args).unwrap_err().message, message, "{args:?}");
        }
    }
}
