//! Batch execution engine for the FC-DPM simulator.
//!
//! The one-shot [`HybridSimulator`](fcdpm_sim::HybridSimulator) answers
//! "what does this policy do on this trace"; real campaigns ask that
//! question hundreds of times across policies, traces, devices, storage
//! models and predictors. This crate turns the question into data:
//!
//! * [`JobSpec`] / [`JobGrid`] — declarative, serde-serializable run
//!   descriptions; a grid is the cartesian product of per-axis lists.
//! * [`Axes`] — the one lazy decoder both grid spellings ([`JobGrid`]
//!   and `fcdpm_grid::GridSpec`) lower into: expansion order, job count,
//!   random access, and the load-time feasibility checks ([`check`]).
//! * [`BatchRun`] — executes a job list on a dependency-light thread
//!   pool ([`pool`]), with per-job panic isolation, handing each record
//!   to the calling thread in index order while the workers run.
//!   [`run_grid`] and [`run_specs`] collect that stream into a
//!   [`RunManifest`].
//! * [`RunManifest`] — the JSON record of a run: per-job fuel,
//!   conversion efficiency, projected lifetime, wall-time and worker
//!   ID, plus run-level aggregates. Job IDs and record order are
//!   deterministic regardless of scheduling;
//!   [`RunManifest::deterministic_json`] is byte-identical across
//!   worker counts. [`ManifestWriter`] streams the same bytes to disk
//!   record by record.
//! * [`AtomicFile`] — the one tmp+rename writer every published run
//!   file goes through: batch manifests here, shards and whole-file
//!   artifacts in `fcdpm-grid`.
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

use std::convert::Infallible;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod atomic;
pub mod check;
pub mod exec;
pub mod manifest;
pub mod pool;
pub mod spec;
pub mod sweep;

pub use atomic::{write_atomic, AtomicFile};
pub use exec::{execute, run_key, scenario_runs, JobMetrics};
pub use manifest::{JobOutcome, JobRecord, ManifestWriter, RunAggregates, RunManifest};
pub use spec::{
    spec_digest, Axes, DevicePreset, FaultPreset, JobGrid, JobSpec, PolicySpec, PredictorSpec,
    SeedAxis, SeedRange, StorageSpec, WorkloadKind, WorkloadSpec, Workloads,
};
pub use sweep::{fault_sweep, fault_sweep_labeled};

/// How a grid run is scheduled.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Worker threads (clamped to the job count; 0 = available
    /// parallelism).
    pub workers: usize,
}

impl RunConfig {
    /// A config with an explicit worker count (0 = available
    /// parallelism, resolved by the pool).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self { workers }
    }
}

/// Decodes `grid` and executes every job on the worker pool, returning
/// the run's manifest. Record order and job IDs depend only on the grid,
/// never on scheduling; a panicking or erroring job becomes
/// [`JobOutcome::Failed`] without aborting the rest of the run.
#[must_use]
pub fn run_grid(grid: &JobGrid, config: &RunConfig) -> RunManifest {
    let specs: Vec<JobSpec> = grid.axes().iter().map(|(_, job)| job).collect();
    run_specs(&specs, config)
}

/// Hashes every spec's canonical JSON once: the per-job digests, and the
/// grid digest over `[` + those JSON texts joined by `,` + `]` (the
/// compact JSON of the whole list), or over the empty string when a spec
/// does not serialize.
fn digests(specs: &[JobSpec]) -> (u64, Vec<u64>) {
    let mut grid = spec::fnv1a(b"[");
    let mut whole = true;
    let mut digests = Vec::with_capacity(specs.len());
    for (i, job) in specs.iter().enumerate() {
        let json = serde_json::to_string(job);
        whole &= json.is_ok();
        let json = json.unwrap_or_default();
        if i > 0 {
            grid = spec::fnv1a_extend(grid, b",");
        }
        grid = spec::fnv1a_extend(grid, json.as_bytes());
        digests.push(spec::fnv1a(json.as_bytes()));
    }
    let grid = if whole {
        spec::fnv1a_extend(grid, b"]")
    } else {
        spec::fnv1a(b"")
    };
    (grid, digests)
}

/// [`run_grid`] over an already-expanded job list.
#[must_use]
#[allow(
    clippy::disallowed_methods,
    reason = "times the run for the manifest's masked total_wall_ms"
)]
pub fn run_specs(specs: &[JobSpec], config: &RunConfig) -> RunManifest {
    let start = Instant::now();
    let run = BatchRun::new(specs, config);
    let grid_digest = run.grid_digest().to_owned();
    let workers = run.workers();
    let mut records = Vec::with_capacity(specs.len());
    let Ok(aggregates) = run.stream(|record| {
        records.push(record);
        Ok::<(), Infallible>(())
    });
    RunManifest {
        grid_digest,
        workers,
        records,
        aggregates,
        total_wall_ms: millis(start.elapsed()),
    }
}

/// A duration in whole milliseconds, saturating.
fn millis(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX)
}

/// One batch run over a job list, set up but not started: the jobs,
/// their digests and the worker count, which is everything a manifest
/// says before its first record.
#[derive(Debug)]
pub struct BatchRun<'a> {
    specs: &'a [JobSpec],
    digests: Vec<u64>,
    grid_digest: String,
    workers: usize,
}

impl<'a> BatchRun<'a> {
    /// Hashes every spec and resolves the worker count.
    #[must_use]
    pub fn new(specs: &'a [JobSpec], config: &RunConfig) -> Self {
        let (grid_digest, digests) = digests(specs);
        Self {
            specs,
            digests,
            grid_digest: format!("{grid_digest:016x}"),
            workers: pool::resolve_workers(config.workers),
        }
    }

    /// The manifest's `grid_digest`.
    #[must_use]
    pub fn grid_digest(&self) -> &str {
        &self.grid_digest
    }

    /// The manifest's `workers`.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job on the pool in one streaming call and hands each
    /// record to `on_record` on the calling thread, in index order (the
    /// order [`pool::stream`] reports in), while the workers keep
    /// running. A worker claims a whole run of consecutive jobs sharing
    /// a scenario ([`scenario_runs`]), so it builds and plans that
    /// scenario once. Returns the aggregates, folded in the same order,
    /// so they equal [`RunAggregates::from_records`] over the records
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns the first error `on_record` returns; no further job
    /// starts.
    pub fn stream<E>(
        self,
        mut on_record: impl FnMut(JobRecord) -> Result<(), E>,
    ) -> Result<RunAggregates, E> {
        let specs: Arc<[JobSpec]> = self.specs.into();
        let blocks = scenario_runs(self.specs);
        let job = move |index: usize, _attempt| execute(&specs[index]);
        let mut fold = manifest::AggregateFold::default();
        let retry = pool::RetryPolicy::default();
        pool::stream(&blocks, self.workers, None, &retry, job, |result| {
            let spec = &self.specs[result.index];
            let record = JobRecord {
                id: spec.id_from_digest(result.index as u64, self.digests[result.index]),
                index: result.index,
                spec: spec.clone(),
                outcome: result.execution.into(),
                wall_ms: millis(result.wall),
                worker: result.worker,
            };
            fold.push(&record);
            on_record(record)
        })?;
        Ok(fold.finish())
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

    /// `id`, `spec_digest` and `grid_digest` as they were computed before
    /// they shared one serialization per job, over random grids.
    #[test]
    fn one_hash_per_job_matches_the_separate_formulas() {
        let mut state = SEED;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % n
        };
        for round in 0..64 {
            let mut grid = JobGrid::new(
                vec![
                    PolicySpec::Conv,
                    PolicySpec::Constant(next(900) as f64 / 1e3),
                ],
                vec![
                    WorkloadSpec::Experiment1(next(u64::MAX)),
                    WorkloadSpec::Dvs(next(9)),
                ],
            );
            grid.capacities_mamin = Some(vec![50.0 + next(999) as f64 / 7.0, 100.0]);
            grid.predictors = Some(vec![
                PredictorSpec::Exponential(next(99) as f64 / 99.0),
                PredictorSpec::Oracle,
            ]);
            // Every fourth grid holds specs that cannot serialize.
            let beta = if round % 4 == 3 {
                f64::NAN
            } else {
                next(200) as f64 / 1e3
            };
            grid.betas = Some(vec![beta]);
            let mut extra = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(SEED));
            extra.faults = FaultPreset::Combined.schedule(next(100));
            grid.extra_jobs = Some(vec![extra]);

            let specs = grid.expand();
            let (grid_digest, job_digests) = digests(&specs);
            let whole = serde_json::to_string(&specs).unwrap_or_default();
            assert_eq!(grid_digest, spec::fnv1a(whole.as_bytes()), "round {round}");
            for (i, (job, &digest)) in specs.iter().zip(&job_digests).enumerate() {
                let json = serde_json::to_string(job).unwrap_or_default();
                let hash = spec::fnv1a(json.as_bytes());
                let id = format!("job-{i:04}-{}-{:08x}", job.policy.label(), hash as u32);
                assert_eq!((digest, spec_digest(job)), (hash, hash));
                assert_eq!(job.id(i), id);
                assert_eq!(job.id_from_digest(i as u64, digest), id);
            }
        }
    }

    #[test]
    fn zero_workers_means_the_host_parallelism() {
        let config = RunConfig::with_workers(0);
        assert_eq!(config.workers, 0, "0 is kept for the pool to resolve");
        let specs = [JobSpec::new(
            PolicySpec::Conv,
            WorkloadSpec::Experiment1(SEED),
        )];
        let host = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(BatchRun::new(&specs, &config).workers(), host);
        assert!(run_specs(&specs, &config).all_completed());
    }

    #[test]
    fn invalid_spec_is_a_failed_record() {
        let grid = JobGrid::new(vec![PolicySpec::FcDpm], vec![WorkloadSpec::MultiDevice(1)]);
        let manifest = run_grid(&grid, &RunConfig::with_workers(1));
        assert_eq!(manifest.aggregates.failed, 1);
    }
}
