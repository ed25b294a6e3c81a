//! Fleet-scale grid engine for the DAC'07 hybrid-power simulator.
//!
//! `fcdpm-runner` executes one expanded job list behind a worker pool;
//! this crate is the batch tier above it, built for campaigns of
//! thousands to millions of device-runs:
//!
//! * [`GridSpec`] (in [`gen`]) — an *intensional* cross product of
//!   seeds × workloads × fault presets × capacities × resilience ×
//!   policies, described in a few hundred bytes of JSON and decoded
//!   lazily by the runner's one job-grid decoder
//!   ([`Axes`](fcdpm_runner::Axes)): any index decodes to its
//!   [`JobSpec`](fcdpm_runner::JobSpec) in O(axes), so there is never a
//!   `Vec<JobSpec>` of the fleet.
//! * [`engine::run`] — a sharded streaming executor: one pool call per
//!   run, at most one shard of records waiting on the committer,
//!   records spilled to `shard-NNNNN.jsonl` under the run directory,
//!   deterministic rollups (fuel/deficit totals, p50/p99, nominal
//!   jobs/sec) in `aggregate.json`.
//! * [`gc`](mod@gc) — names every file of a run directory once
//!   ([`Inventory`]) and reads it without executing a job: [`status`]
//!   counts its records, [`gc()`] repairs crash damage.
//! * Digest-keyed resume — every record carries its spec's FNV-1a
//!   digest; a resumed run re-executes exactly the jobs whose spec
//!   changed and reloads the rest from spill. An untouched resume
//!   recomputes zero jobs and rewrites `aggregate.json` byte for byte.
//!
//! ```
//! use fcdpm_grid::{GridConfig, GridSpec, SeedAxis, SeedRange, WorkloadKind};
//! use fcdpm_runner::PolicySpec;
//!
//! let spec = GridSpec::new(
//!     SeedAxis::Range(SeedRange { start: 1, count: 2 }),
//!     vec![WorkloadKind::Experiment1],
//!     vec![PolicySpec::Conv, PolicySpec::FcDpm],
//! );
//! assert_eq!(spec.total_jobs(), 4);
//! let config = GridConfig {
//!     shard_size: 2,
//!     out_dir: std::env::temp_dir().join("fcdpm-grid-doc"),
//!     ..GridConfig::default()
//! };
//! let run = fcdpm_grid::run(&spec, &config).unwrap();
//! assert_eq!(run.aggregate.completed, 4);
//! assert!(run.peak_resident_jobs <= 2);
//! ```

pub mod engine;
pub mod gc;
pub mod gen;
pub mod manifest;

pub use engine::{
    nominal_seconds, run, CrashPoint, GridAggregate, GridConfig, GridRun, ShardSummary,
};
pub use fcdpm_runner::{spec_digest, write_atomic, FaultPreset, SeedAxis, SeedRange, WorkloadKind};
pub use gc::{gc, status, GcAction, GcKind, GcReport, GridStatus, Inventory, RunFile};
pub use gen::GridSpec;
pub use manifest::{
    digest_hex, partial_file_name, read_partial, read_shard, shard_file_name, write_shard,
    GridJobRecord, PartialRead, PartialShardWriter,
};
