//! Command execution (pure: returns the output as a string).

use core::fmt::Write as _;

use fcdpm_core::dpm::PredictiveSleep;
use fcdpm_core::sizing::minimum_storage_capacity;
use fcdpm_core::FuelOptimizer;
use fcdpm_fuelcell::{FcSystem, GibbsCoefficient, HydrogenTank, PolarizationCurve};
use fcdpm_sim::fixture::{self, ReferencePolicy};
use fcdpm_sim::{HybridSimulator, SimMetrics};
use fcdpm_units::{Amps, Charge, CurrentRange, Seconds};
use fcdpm_workload::{CamcorderTrace, Scenario, SyntheticTrace};

use crate::{Command, DeviceChoice, ExperimentId, GridAction, PolicyChoice, TraceKind};

/// The outcome of executing a command: the stdout payload plus whether
/// the process should exit successfully. `fcdpm analyze` is the one
/// command that can run fine yet demand a nonzero exit (outstanding
/// findings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// The text to print on stdout.
    pub text: String,
    /// Whether the process should exit zero.
    pub ok: bool,
}

impl CmdOutput {
    /// An output with a successful exit status.
    #[must_use]
    pub fn success(text: String) -> Self {
        Self { text, ok: true }
    }
}

/// Executes a parsed command and returns its stdout payload plus exit
/// status.
///
/// # Errors
///
/// Returns a human-readable message if a simulation fails (which the
/// built-in scenarios never do) or a file cannot be read or written.
pub fn execute(command: &Command) -> Result<CmdOutput, String> {
    match command {
        Command::Help => Ok(CmdOutput::success(crate::usage())),
        Command::Experiment {
            id,
            capacity_mamin,
            seed,
            policy,
        } => run_experiment(*id, *capacity_mamin, *seed, *policy).map(CmdOutput::success),
        Command::Trace {
            kind,
            seed,
            minutes,
        } => Ok(CmdOutput::success(generate_trace(*kind, *seed, *minutes))),
        Command::Curve { stack } => Ok(CmdOutput::success(print_curve(*stack))),
        Command::Simulate {
            path,
            device,
            capacity_mamin,
        } => run_simulate(path, *device, *capacity_mamin).map(CmdOutput::success),
        Command::Lifetime {
            moles,
            capacity_mamin,
        } => run_lifetime(*moles, *capacity_mamin).map(CmdOutput::success),
        Command::Sizing { tolerance_as } => run_sizing(*tolerance_as).map(CmdOutput::success),
        Command::Batch { spec, jobs, out } => {
            run_batch(spec, *jobs, out.as_deref()).map(CmdOutput::success)
        }
        Command::Grid {
            action,
            path,
            jobs,
            shard_size,
            out,
            run_id,
            max_attempts,
            retry_backoff_ms,
            checkpoint_batch,
            dry_run,
        } => run_grid_cmd(GridCmd {
            action: *action,
            path,
            jobs: *jobs,
            shard_size: *shard_size,
            out_dir: out.as_deref(),
            run_id: run_id.as_deref(),
            max_attempts: *max_attempts,
            retry_backoff_ms: *retry_backoff_ms,
            checkpoint_batch: *checkpoint_batch,
            dry_run: *dry_run,
        })
        .map(CmdOutput::success),
        Command::Faults {
            quick,
            seed,
            jobs,
            out,
        } => run_faults(*quick, *seed, *jobs, out.as_deref()).map(CmdOutput::success),
        Command::Bench { out } => run_bench(out.as_deref()).map(CmdOutput::success),
        Command::Analyze { root } => run_analyze(root.as_deref()),
    }
}

/// Executes `fcdpm analyze`: any finding fails the run.
fn run_analyze(root: Option<&str>) -> Result<CmdOutput, String> {
    let root_dir = std::path::PathBuf::from(root.unwrap_or("."));
    let report = fcdpm_analyze::run(&root_dir)
        .map_err(|e| format!("cannot analyze `{}`: {e}", root_dir.display()))?;
    Ok(CmdOutput {
        text: report.to_human(),
        ok: report.is_clean(),
    })
}

#[allow(
    clippy::disallowed_methods,
    reason = "times the run for the manifest's masked total_wall_ms"
)]
fn run_batch(
    spec_path: &str,
    jobs: Option<usize>,
    out_dir: Option<&str>,
) -> Result<String, String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read `{spec_path}`: {e}"))?;
    let grid: fcdpm_runner::JobGrid =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse `{spec_path}`: {e}"))?;
    grid.validate()
        .map_err(|e| format!("infeasible grid `{spec_path}`: {e}"))?;
    let config = match jobs {
        Some(workers) => fcdpm_runner::RunConfig::with_workers(workers),
        None => fcdpm_runner::RunConfig::default(),
    };
    let start = std::time::Instant::now();
    let specs: Vec<fcdpm_runner::JobSpec> = grid.axes().iter().map(|(_, job)| job).collect();
    let run = fcdpm_runner::BatchRun::new(&specs, &config);
    let workers = run.workers();

    let out_dir = std::path::Path::new(out_dir.unwrap_or("results"));
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", out_dir.display()))?;
    let stem = std::path::Path::new(spec_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("batch");
    let manifest_path = out_dir.join(format!("{stem}.manifest.json"));
    let mut manifest =
        fcdpm_runner::ManifestWriter::create(&manifest_path, run.grid_digest(), workers)?;

    // The committer: each record is encoded and written, and its row
    // printed, on this thread in index order while the workers run.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>12} {:>12}",
        "job", "outcome", "fuel [A*s]", "I_fc [A]"
    );
    let aggregates = run.stream(|record| {
        manifest.put(&record)?;
        match &record.outcome {
            fcdpm_runner::JobOutcome::Completed(m) => {
                let _ = writeln!(
                    out,
                    "{:<28} {:>10} {:>12.1} {:>12.4}",
                    record.id, "ok", m.fuel_as, m.mean_stack_current_a
                );
            }
            fcdpm_runner::JobOutcome::Failed(msg) => {
                let reason: String = msg.chars().take(40).collect();
                let _ = writeln!(out, "{:<28} {:>10}  {reason}", record.id, "FAILED");
            }
            fcdpm_runner::JobOutcome::TimedOut => {
                let _ = writeln!(out, "{:<28} {:>10}", record.id, "TIMEOUT");
            }
        }
        Ok::<(), String>(())
    })?;
    let total_wall_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
    manifest.finish(&aggregates, total_wall_ms)?;
    let _ = writeln!(out, "{}", aggregates.summary(total_wall_ms, workers));
    let _ = writeln!(out, "manifest: {}", manifest_path.display());
    Ok(out)
}

/// Everything one `fcdpm grid` invocation carries.
struct GridCmd<'a> {
    action: GridAction,
    path: &'a str,
    jobs: Option<usize>,
    shard_size: Option<u64>,
    out_dir: Option<&'a str>,
    run_id: Option<&'a str>,
    max_attempts: Option<u32>,
    retry_backoff_ms: Option<u64>,
    checkpoint_batch: Option<u64>,
    dry_run: bool,
}

fn run_grid_cmd(cmd: GridCmd<'_>) -> Result<String, String> {
    let mut out = String::new();
    let path = cmd.path;
    if cmd.action == GridAction::Gc {
        let report = fcdpm_grid::gc(std::path::Path::new(path), cmd.dry_run)?;
        out.push_str(&report.to_text());
        return Ok(out);
    }
    if cmd.action == GridAction::Status {
        let state = fcdpm_grid::status(std::path::Path::new(path))?;
        let _ = writeln!(
            out,
            "grid {}: {}/{} records across {} shard files",
            state.run_id, state.records, state.expected_jobs, state.shards
        );
        let _ = writeln!(
            out,
            "completed {} | failed {} | timed out {}",
            state.completed, state.failed, state.timed_out
        );
        if state.partial_shards > 0 {
            let _ = writeln!(
                out,
                "partial checkpoints: {} file(s), {} recoverable record(s)",
                state.partial_shards, state.checkpointed
            );
        }
        if state.stale_shards > 0 {
            let _ = writeln!(
                out,
                "stale shards: {} file(s) past the spec's shard count, not counted",
                state.stale_shards
            );
        }
        if state.torn_lines > 0 {
            let _ = writeln!(
                out,
                "torn lines: {} past the valid prefix of shards and checkpoints",
                state.torn_lines
            );
        }
        let _ = writeln!(
            out,
            "aggregate.json: {}",
            if state.has_aggregate {
                "present"
            } else {
                "missing or corrupt"
            }
        );
        let _ = writeln!(
            out,
            "state: {}",
            if state.is_complete() {
                "complete"
            } else {
                "incomplete"
            }
        );
        return Ok(out);
    }

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let spec: fcdpm_grid::GridSpec =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))?;
    let config = fcdpm_grid::GridConfig {
        workers: cmd.jobs.unwrap_or(0),
        shard_size: cmd.shard_size.unwrap_or(1024),
        out_dir: std::path::PathBuf::from(cmd.out_dir.unwrap_or("results/grid")),
        run_id: cmd.run_id.map(ToOwned::to_owned),
        resume: cmd.action == GridAction::Resume,
        retry: fcdpm_runner::pool::RetryPolicy {
            max_attempts: cmd.max_attempts.unwrap_or(1),
            backoff: std::time::Duration::from_millis(cmd.retry_backoff_ms.unwrap_or(0)),
        },
        checkpoint_batch: cmd.checkpoint_batch.unwrap_or(32),
        // Test-only: lets the CI kill-resume gate abort the process at a
        // deterministic point instead of racing a timed `kill -9`.
        crash_point: match std::env::var("FCDPM_GRID_CRASH_POINT") {
            Ok(text) => Some(text.parse()?),
            Err(_) => None,
        },
    };
    // `run` validates the spec before it creates the run directory.
    let run = fcdpm_grid::run(&spec, &config)?;
    let agg = &run.aggregate;
    let _ = writeln!(
        out,
        "grid {}: {} jobs over {} shards (shard size {})",
        run.run_id, agg.jobs, agg.shards, agg.shard_size
    );
    let _ = writeln!(
        out,
        "completed {} | failed {} | timed out {}",
        agg.completed, agg.failed, agg.timed_out
    );
    if agg.retried > 0 || agg.quarantined > 0 {
        let _ = writeln!(
            out,
            "retried {} | quarantined {}",
            agg.retried, agg.quarantined
        );
    }
    let _ = writeln!(
        out,
        "cache hits: {}/{} ({:.1}%)",
        run.cache_hits,
        run.cache_hits + run.recomputed,
        run.cache_hit_pct()
    );
    let _ = writeln!(out, "recomputed: {}", run.recomputed);
    let _ = writeln!(out, "simulated: {}", run.simulated);
    if run.recovered_jobs > 0 {
        let _ = writeln!(out, "recovered from checkpoints: {}", run.recovered_jobs);
    }
    let _ = writeln!(
        out,
        "fuel: {:.1} A*s total (p50 {:.1}, p99 {:.1})",
        agg.total_fuel_as, agg.fuel_p50_as, agg.fuel_p99_as
    );
    let _ = writeln!(
        out,
        "deficit: {:.1} s total (p50 {:.1}, p99 {:.1})",
        agg.total_deficit_time_s, agg.deficit_p50_s, agg.deficit_p99_s
    );
    let _ = writeln!(
        out,
        "throughput: {:.0} jobs/s nominal, {:.0} jobs/s wall",
        agg.jobs_per_sec_nominal, run.jobs_per_sec_wall
    );
    let _ = writeln!(out, "peak resident jobs: {}", run.peak_resident_jobs);
    let _ = writeln!(
        out,
        "aggregate: {}",
        run.dir.join("aggregate.json").display()
    );
    Ok(out)
}

fn run_faults(
    quick: bool,
    seed: Option<u64>,
    jobs: Option<usize>,
    out_dir: Option<&str>,
) -> Result<String, String> {
    let seed = seed.unwrap_or(0xDAC0_2007);
    let labeled = fcdpm_runner::fault_sweep_labeled(seed, quick);
    let specs: Vec<fcdpm_runner::JobSpec> = labeled.iter().map(|(_, s)| s.clone()).collect();
    let config = match jobs {
        Some(workers) => fcdpm_runner::RunConfig::with_workers(workers),
        None => fcdpm_runner::RunConfig::default(),
    };
    let manifest = fcdpm_runner::run_specs(&specs, &config);

    let out_dir = std::path::Path::new(out_dir.unwrap_or("results"));
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", out_dir.display()))?;
    let manifest_path = out_dir.join(format!("faults-{seed:x}.manifest.json"));
    fcdpm_runner::write_atomic(&manifest_path, &manifest.deterministic_json())?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault sweep, seed {seed:#x}, {} jobs{}",
        manifest.records.len(),
        if quick { " (quick)" } else { "" }
    );
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>12} {:>11} {:>7} {:>6} {:>12}",
        "schedule/policy", "outcome", "fuel [A*s]", "deficit [s]", "faults", "degr", "fallback [s]"
    );
    for ((label, _), record) in labeled.iter().zip(&manifest.records) {
        match &record.outcome {
            fcdpm_runner::JobOutcome::Completed(m) => {
                let _ = writeln!(
                    out,
                    "{label:<22} {:>8} {:>12.1} {:>11.3} {:>7} {:>6} {:>12.1}",
                    "ok",
                    m.fuel_as,
                    m.deficit_time_s,
                    m.faults_applied,
                    m.degradations,
                    m.time_in_fallback_s
                );
            }
            fcdpm_runner::JobOutcome::Failed(msg) => {
                let reason: String = msg.chars().take(40).collect();
                let _ = writeln!(out, "{label:<22} {:>8}  {reason}", "FAILED");
            }
            fcdpm_runner::JobOutcome::TimedOut => {
                let _ = writeln!(out, "{label:<22} {:>8}", "TIMEOUT");
            }
        }
    }

    // The leading control pair (no schedule vs empty schedule) must be
    // bit-identical — fault plumbing is only allowed to change runs
    // that actually carry events.
    let control_identical = matches!(
        (&manifest.records[0].outcome, &manifest.records[1].outcome),
        (
            fcdpm_runner::JobOutcome::Completed(a),
            fcdpm_runner::JobOutcome::Completed(b),
        ) if a == b
    );
    if !control_identical {
        return Err("control pair differs: an empty fault schedule changed the metrics".to_owned());
    }
    let _ = writeln!(out, "control pair bit-identical: yes");
    let _ = writeln!(out, "manifest: {}", manifest_path.display());
    Ok(out)
}

fn run_bench(out: Option<&str>) -> Result<String, String> {
    let report = crate::bench::run()?;
    let out_path = out.unwrap_or("BENCH_4.json");
    fcdpm_runner::write_atomic(std::path::Path::new(out_path), &report.json)?;
    let mut text = report.text;
    let _ = writeln!(text, "payload: {out_path}");
    Ok(text)
}

fn run_simulate(path: &str, device: DeviceChoice, capacity_mamin: f64) -> Result<String, String> {
    let csv = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let trace = fcdpm_workload::Trace::from_csv(path, &csv)
        .map_err(|e| format!("cannot parse `{path}`: {e}"))?;
    if trace.is_empty() {
        return Err(format!("trace `{path}` contains no slots"));
    }
    let spec = match device {
        DeviceChoice::Camcorder => fcdpm_device::presets::dvd_camcorder(),
        DeviceChoice::Exp2 => fcdpm_device::presets::experiment2_device(),
    };
    let mut scenario = Scenario::experiment1();
    scenario.name = format!("custom trace `{path}` on {}", spec.name());
    scenario.device = spec;
    scenario.trace = trace;
    scenario.active_current_estimate = None;
    let capacity = Charge::from_milliamp_minutes(capacity_mamin);
    let rows = run_rows(&scenario, &ReferencePolicy::PAPER, capacity)?;
    let conv = &rows[0].1;
    let mut out = String::new();
    let _ = writeln!(out, "{}", scenario.name);
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>10}",
        "policy", "fuel [A*s]", "vs Conv"
    );
    for (policy, m) in &rows {
        let _ = writeln!(
            out,
            "{:<10} {:>12.1} {:>9.1}%",
            policy.label(),
            m.fuel.total().amp_seconds(),
            m.normalized_fuel(conv) * 100.0
        );
    }
    Ok(out)
}

fn run_lifetime(moles: f64, capacity_mamin: f64) -> Result<String, String> {
    let scenario = Scenario::experiment1();
    let capacity = Charge::from_milliamp_minutes(capacity_mamin);
    let tank = HydrogenTank::from_hydrogen_moles(moles, GibbsCoefficient::dac07());
    let sim = HybridSimulator::dac07(&scenario.device);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "lifetime on a {moles} mol H2 tank ({:.0} of stack charge), Experiment 1 looped",
        tank.capacity()
    );
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12}",
        "policy", "lifetime [h]", "cycles"
    );
    for policy in ReferencePolicy::PAPER {
        let mut storage = fixture::storage_at(capacity);
        let mut sleep = PredictiveSleep::new(scenario.rho);
        let res = sim
            .run_until_depleted(
                &scenario.trace,
                &mut sleep,
                policy.build_at(&scenario, capacity).as_mut(),
                &mut storage,
                &tank,
                100_000,
            )
            .map_err(|e| format!("simulation failed: {e}"))?;
        let _ = writeln!(
            out,
            "{:<10} {:>12.2} {:>12}",
            policy.label(),
            res.lifetime.seconds() / 3600.0,
            res.full_cycles
        );
    }
    Ok(out)
}

fn run_sizing(tolerance_as: f64) -> Result<String, String> {
    let scenario = Scenario::experiment1();
    let res = minimum_storage_capacity(
        &FuelOptimizer::dac07(),
        &scenario.trace,
        &scenario.device,
        Charge::new(tolerance_as),
    )
    .map_err(|e| format!("sizing failed: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "smallest storage for unconstrained FC-DPM on Experiment 1: {:.2} ({:.0} mA*min)",
        res.min_capacity,
        res.min_capacity.amp_seconds() * 1000.0 / 60.0
    );
    let _ = writeln!(
        out,
        "fuel at that capacity: {:.1} (the per-slot optimum floor)",
        res.fuel_at_min
    );
    Ok(out)
}

fn scenario_for(id: ExperimentId, seed: Option<u64>) -> Scenario {
    match (id, seed) {
        (ExperimentId::Exp1, None) => Scenario::experiment1(),
        (ExperimentId::Exp1, Some(s)) => Scenario::experiment1_seeded(s),
        (ExperimentId::Exp2, None) => Scenario::experiment2(),
        (ExperimentId::Exp2, Some(s)) => Scenario::experiment2_seeded(s),
    }
}

/// Runs each of `policies` on `scenario` through the reference fixture
/// at `capacity`, in order.
fn run_rows(
    scenario: &Scenario,
    policies: &[ReferencePolicy],
    capacity: Charge,
) -> Result<Vec<(ReferencePolicy, SimMetrics)>, String> {
    let sim = HybridSimulator::dac07(&scenario.device);
    policies
        .iter()
        .map(|&policy| {
            fixture::run_reference_at(&sim, scenario, policy, capacity)
                .map(|m| (policy, m))
                .map_err(|e| format!("simulation failed: {e}"))
        })
        .collect()
}

fn run_experiment(
    id: ExperimentId,
    capacity_mamin: f64,
    seed: Option<u64>,
    policy: PolicyChoice,
) -> Result<String, String> {
    let scenario = scenario_for(id, seed);
    let capacity = Charge::from_milliamp_minutes(capacity_mamin);
    let mut out = String::new();
    let _ = writeln!(out, "{}", scenario.name);
    let _ = writeln!(
        out,
        "trace: {} slots, {:.1} min; buffer {:.1} mA*min",
        scenario.trace.len(),
        scenario.trace.total_duration().minutes(),
        capacity_mamin
    );
    let policies: &[ReferencePolicy] = match policy {
        PolicyChoice::Conv => &[ReferencePolicy::Conv],
        PolicyChoice::Asap => &[ReferencePolicy::Asap],
        PolicyChoice::FcDpm => &[ReferencePolicy::FcDpm],
        PolicyChoice::All => &ReferencePolicy::PAPER,
    };
    let rows = run_rows(&scenario, policies, capacity)?;
    let baseline = &rows[0].1;
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>14} {:>10}",
        "policy", "fuel [A*s]", "mean I_fc [A]", "vs first"
    );
    for (policy, m) in &rows {
        let _ = writeln!(
            out,
            "{:<10} {:>12.1} {:>14.4} {:>9.1}%",
            policy.label(),
            m.fuel.total().amp_seconds(),
            m.mean_stack_current().amps(),
            m.normalized_fuel(baseline) * 100.0
        );
    }
    Ok(out)
}

fn generate_trace(kind: TraceKind, seed: Option<u64>, minutes: f64) -> String {
    let horizon = Seconds::from_minutes(minutes);
    let trace = match kind {
        TraceKind::Camcorder => {
            let mut b = CamcorderTrace::dac07().horizon(horizon);
            if let Some(s) = seed {
                b = b.seed(s);
            }
            b.build()
        }
        TraceKind::Synthetic => {
            let mut b = SyntheticTrace::dac07().horizon(horizon);
            if let Some(s) = seed {
                b = b.seed(s);
            }
            b.build()
        }
    };
    trace.to_csv()
}

fn print_curve(stack: bool) -> String {
    let mut out = String::new();
    if stack {
        let model = PolarizationCurve::bcs_20w();
        let _ = writeln!(out, "i_fc_ma,v_fc_v,p_fc_w");
        for pt in model.sample_curve(Amps::new(1.5), 31) {
            let _ = writeln!(
                out,
                "{:.0},{:.3},{:.3}",
                pt.current.milliamps(),
                pt.voltage.volts(),
                pt.power.watts()
            );
        }
    } else {
        let variable = FcSystem::dac07_variable_fan();
        let onoff = FcSystem::dac07_on_off_fan();
        let zeta = GibbsCoefficient::dac07();
        let _ = writeln!(out, "i_f_ma,stack_eff,system_eff_variable,system_eff_onoff");
        for i in CurrentRange::dac07().sweep(23) {
            #[expect(
                clippy::expect_used,
                reason = "the dac07 sweep stays inside the dac07 load-following range"
            )]
            let v = variable.operating_point(i).expect("in range");
            #[expect(
                clippy::expect_used,
                reason = "the dac07 sweep stays inside the dac07 load-following range"
            )]
            let o = onoff.operating_point(i).expect("in range");
            let _ = writeln!(
                out,
                "{:.0},{:.4},{:.4},{:.4}",
                i.milliamps(),
                variable.stack().stack_efficiency(v.i_fc, zeta).value(),
                v.efficiency.value(),
                o.efficiency.value()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage() {
        let out = execute(&Command::Help).unwrap().text;
        assert!(out.contains("USAGE"));
        assert!(out.contains("experiment"));
        assert!(out.contains("analyze"));
    }

    #[test]
    fn analyze_runs_clean_on_this_workspace() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_owned();
        let out = execute(&Command::Analyze { root: Some(root) }).unwrap();
        assert!(
            out.ok,
            "committed workspace must analyze clean:\n{}",
            out.text
        );
        assert!(out.text.contains(" 0 finding(s)"), "{}", out.text);
    }

    #[test]
    fn experiment_all_has_three_rows() {
        let out = execute(&Command::Experiment {
            id: ExperimentId::Exp1,
            capacity_mamin: 100.0,
            seed: None,
            policy: PolicyChoice::All,
        })
        .unwrap()
        .text;
        assert!(out.contains("Conv-DPM"));
        assert!(out.contains("ASAP-DPM"));
        assert!(out.contains("FC-DPM"));
        assert!(out.contains("100.0%"), "baseline normalizes to itself");
    }

    #[test]
    fn experiment_single_policy() {
        let out = execute(&Command::Experiment {
            id: ExperimentId::Exp2,
            capacity_mamin: 100.0,
            seed: Some(5),
            policy: PolicyChoice::FcDpm,
        })
        .unwrap()
        .text;
        assert!(out.contains("FC-DPM"));
        assert!(!out.contains("ASAP-DPM"));
    }

    #[test]
    fn trace_csv_has_header_and_rows() {
        let out = execute(&Command::Trace {
            kind: TraceKind::Synthetic,
            seed: Some(1),
            minutes: 2.0,
        })
        .unwrap()
        .text;
        let mut lines = out.lines();
        assert_eq!(lines.next().unwrap(), "idle_s,active_s,active_w");
        assert!(lines.count() >= 4);
    }

    #[test]
    fn trace_is_seed_deterministic() {
        let make = |seed| {
            execute(&Command::Trace {
                kind: TraceKind::Camcorder,
                seed: Some(seed),
                minutes: 2.0,
            })
            .unwrap()
            .text
        };
        assert_eq!(make(9), make(9));
        assert_ne!(make(9), make(10));
    }

    #[test]
    fn simulate_runs_csv_trace() {
        let dir = std::env::temp_dir().join("fcdpm-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        std::fs::write(&path, "idle_s,active_s,active_w\n15,3,14\n12,2,13\n").unwrap();
        let out = execute(&Command::Simulate {
            path: path.to_string_lossy().into_owned(),
            device: DeviceChoice::Exp2,
            capacity_mamin: 100.0,
        })
        .unwrap()
        .text;
        assert!(out.contains("FC-DPM"));
        assert!(out.contains("100.0%"));
    }

    #[test]
    fn simulate_reports_missing_file() {
        let err = execute(&Command::Simulate {
            path: "/definitely/not/here.csv".into(),
            device: DeviceChoice::Camcorder,
            capacity_mamin: 100.0,
        })
        .unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn faults_quick_sweep_is_worker_invariant() {
        let dir = std::env::temp_dir().join("fcdpm-faults-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |workers: usize| {
            execute(&Command::Faults {
                quick: true,
                seed: None,
                jobs: Some(workers),
                out: Some(dir.to_string_lossy().into_owned()),
            })
            .unwrap()
            .text
        };
        let manifest_path = dir.join("faults-dac02007.manifest.json");
        let text = run(2);
        assert!(text.contains("control pair bit-identical: yes"), "{text}");
        assert!(text.contains("starvation/resilient"), "{text}");
        assert!(text.contains("combined/conv"), "{text}");
        let two_workers = std::fs::read_to_string(&manifest_path).unwrap();
        run(1);
        let one_worker = std::fs::read_to_string(&manifest_path).unwrap();
        assert_eq!(
            two_workers, one_worker,
            "deterministic manifest must not depend on worker count"
        );
    }

    #[test]
    fn bench_writes_the_payload_it_reports() {
        let dir = std::env::temp_dir().join(format!("fcdpm-bench-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let payload = dir.join("bench.json");
        let text = execute(&Command::Bench {
            out: Some(payload.to_string_lossy().into_owned()),
        })
        .unwrap()
        .text;
        assert!(text.contains("payload: "), "{text}");
        let json = std::fs::read_to_string(&payload).unwrap();
        assert!(json.contains("\"schema\": \"fcdpm-bench/4\""), "{json}");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "bench writes its payload and nothing else"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lifetime_renders_three_rows() {
        let out = execute(&Command::Lifetime {
            moles: 0.5,
            capacity_mamin: 100.0,
        })
        .unwrap()
        .text;
        assert!(out.contains("Conv-DPM"));
        assert!(out.contains("FC-DPM"));
        assert!(out.contains("lifetime"));
    }

    #[test]
    fn sizing_renders() {
        let out = execute(&Command::Sizing { tolerance_as: 0.1 })
            .unwrap()
            .text;
        assert!(out.contains("smallest storage"));
        assert!(out.contains("mA*min"));
    }

    #[test]
    fn curves_render() {
        let stack = execute(&Command::Curve { stack: true }).unwrap().text;
        assert!(stack.starts_with("i_fc_ma"));
        assert_eq!(stack.lines().count(), 32);
        let eff = execute(&Command::Curve { stack: false }).unwrap().text;
        assert!(eff.starts_with("i_f_ma"));
        assert_eq!(eff.lines().count(), 24);
    }
}
