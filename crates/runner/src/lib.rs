//! Batch execution engine for the FC-DPM simulator.
//!
//! The one-shot [`HybridSimulator`](fcdpm_sim::HybridSimulator) answers
//! "what does this policy do on this trace"; real campaigns ask that
//! question hundreds of times across policies, traces, devices, storage
//! models and predictors. This crate turns the question into data:
//!
//! * [`JobSpec`] / [`JobGrid`] — declarative, serde-serializable run
//!   descriptions; a grid is the cartesian product of per-axis lists.
//! * [`JobGrid::validate`] — the load-time feasibility checks
//!   ([`check`]) a grid file must pass before its first job runs.
//! * [`run_grid`] — executes a grid on a dependency-light thread pool
//!   ([`pool`]), with per-job panic isolation and optional wall-clock
//!   timeouts.
//! * [`RunManifest`] — the JSON record of a run: per-job fuel,
//!   conversion efficiency, projected lifetime, wall-time and worker
//!   ID, plus run-level aggregates. Job IDs and record order are
//!   deterministic regardless of scheduling;
//!   [`RunManifest::deterministic_json`] is byte-identical across
//!   worker counts.
//!
//! ```
//! use fcdpm_runner::{run_grid, JobGrid, PolicySpec, RunConfig, WorkloadSpec};
//!
//! let grid = JobGrid::new(
//!     vec![PolicySpec::Conv, PolicySpec::Asap, PolicySpec::FcDpm],
//!     vec![WorkloadSpec::Experiment1(0xDAC0_2007)],
//! );
//! let manifest = run_grid(&grid, &RunConfig::default());
//! assert!(manifest.all_completed());
//! assert_eq!(manifest.records.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub mod check;
pub mod exec;
pub mod manifest;
pub mod pool;
pub mod spec;
pub mod sweep;

pub use exec::{execute, JobMetrics};
pub use manifest::{JobOutcome, JobRecord, RunAggregates, RunManifest};
pub use spec::{
    DevicePreset, JobGrid, JobSpec, PolicySpec, PredictorSpec, StorageSpec, WorkloadSpec,
};
pub use sweep::{fault_sweep, fault_sweep_labeled};

/// How a grid run is scheduled.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Worker threads (clamped to the job count; 0 = available
    /// parallelism).
    pub workers: usize,
    /// Per-job wall-clock budget (`None` = unbounded).
    pub timeout: Option<Duration>,
}

impl RunConfig {
    /// A config with an explicit worker count.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ..Self::default()
        }
    }
}

/// Expands `grid` and executes every job on the worker pool, returning
/// the run's manifest. Record order and job IDs depend only on the grid,
/// never on scheduling; a panicking or erroring job becomes
/// [`JobOutcome::Failed`] without aborting the rest of the run.
#[must_use]
pub fn run_grid(grid: &JobGrid, config: &RunConfig) -> RunManifest {
    let specs = grid.expand();
    run_specs(&specs, config)
}

/// [`run_grid`] over an already-expanded job list.
#[must_use]
pub fn run_specs(specs: &[JobSpec], config: &RunConfig) -> RunManifest {
    let start = Instant::now();
    let workers = pool::resolve_workers(config.workers);

    let grid_json = serde_json::to_string(&specs.to_vec()).unwrap_or_default();
    let grid_digest = format!("{:016x}", spec::fnv1a(grid_json.as_bytes()));

    let jobs: Vec<_> = specs
        .iter()
        .map(|spec| {
            let spec = spec.clone();
            move || execute(&spec)
        })
        .collect();
    let pool_results = pool::run_to_completion(jobs, workers, config.timeout);

    let records: Vec<JobRecord> = pool_results
        .into_iter()
        .map(|result| {
            let spec = &specs[result.index];
            let outcome = match result.execution {
                pool::Execution::Completed(Ok(metrics)) => JobOutcome::Completed(metrics),
                pool::Execution::Completed(Err(message)) => JobOutcome::Failed(message),
                pool::Execution::Panicked(message) => {
                    JobOutcome::Failed(format!("panic: {message}"))
                }
                pool::Execution::TimedOut => JobOutcome::TimedOut,
            };
            JobRecord {
                id: spec.id(result.index),
                index: result.index,
                spec: spec.clone(),
                outcome,
                wall_ms: u64::try_from(result.wall.as_millis()).unwrap_or(u64::MAX),
                worker: result.worker,
            }
        })
        .collect();

    let aggregates = RunAggregates::from_records(&records);
    RunManifest {
        grid_digest,
        workers,
        records,
        aggregates,
        total_wall_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xDAC0_2007;

    #[test]
    fn paper_grid_runs_and_aggregates() {
        let grid = JobGrid::new(
            vec![PolicySpec::Conv, PolicySpec::Asap, PolicySpec::FcDpm],
            vec![WorkloadSpec::Experiment1(SEED)],
        );
        let manifest = run_grid(&grid, &RunConfig::with_workers(2));
        assert!(manifest.all_completed());
        assert_eq!(manifest.aggregates.completed, 3);
        // FC-DPM is the most fuel-efficient of the three (Table 2).
        let best = manifest.aggregates.most_fuel_efficient.as_deref().unwrap();
        assert!(best.contains("fcdpm"), "best was {best}");
    }

    #[test]
    fn failed_job_does_not_abort_the_run() {
        let mut grid = JobGrid::new(
            vec![PolicySpec::Conv],
            vec![WorkloadSpec::Experiment1(SEED)],
        );
        let mut poison = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(SEED));
        poison.inject_panic = Some(true);
        grid.extra_jobs = Some(vec![poison]);
        let manifest = run_grid(&grid, &RunConfig::with_workers(2));
        assert_eq!(manifest.aggregates.completed, 1);
        assert_eq!(manifest.aggregates.failed, 1);
        match &manifest.records[1].outcome {
            JobOutcome::Failed(msg) => assert!(msg.contains("injected"), "msg: {msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn invalid_spec_is_a_failed_record() {
        let grid = JobGrid::new(vec![PolicySpec::FcDpm], vec![WorkloadSpec::MultiDevice(1)]);
        let manifest = run_grid(&grid, &RunConfig::with_workers(1));
        assert_eq!(manifest.aggregates.failed, 1);
    }
}
