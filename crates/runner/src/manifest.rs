//! Run manifests: the JSON record of one batch run.
//!
//! A manifest holds every job's spec, outcome and scheduling metadata
//! plus run-level aggregates. [`RunManifest::to_json`] is the full
//! record; [`RunManifest::deterministic_json`] masks wall-time and
//! worker fields so two runs of the same grid are byte-identical
//! regardless of worker count (the runner determinism test relies on
//! this). [`ManifestWriter`] writes the same bytes as `to_json` one
//! record at a time, so `fcdpm batch` never holds the whole run.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::atomic::AtomicFile;
use crate::exec::JobMetrics;
use crate::pool::Execution;
use crate::spec::JobSpec;

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// The simulation finished; payload is its metrics.
    Completed(JobMetrics),
    /// The job failed — a panic or an executor error; payload is the
    /// message.
    Failed(String),
    /// The job exceeded the per-job wall-clock budget.
    TimedOut,
}

impl JobOutcome {
    /// The metrics, when the job completed.
    #[must_use]
    pub fn metrics(&self) -> Option<&JobMetrics> {
        match self {
            JobOutcome::Completed(m) => Some(m),
            _ => None,
        }
    }
}

/// How a pool execution of a job reads as a record outcome: an executor
/// error or a panic is a failure, never an aborted run.
impl From<Execution<Result<JobMetrics, String>>> for JobOutcome {
    fn from(execution: Execution<Result<JobMetrics, String>>) -> Self {
        match execution {
            Execution::Completed(Ok(metrics)) => JobOutcome::Completed(metrics),
            Execution::Completed(Err(message)) => JobOutcome::Failed(message),
            Execution::Panicked(message) => JobOutcome::Failed(format!("panic: {message}")),
            Execution::TimedOut => JobOutcome::TimedOut,
        }
    }
}

/// One job's full record in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Deterministic job ID (index + spec digest).
    pub id: String,
    /// Index in the expanded grid.
    pub index: usize,
    /// The spec that produced this job.
    pub spec: JobSpec,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Wall-clock execution time in ms (scheduling-dependent).
    pub wall_ms: u64,
    /// Worker thread that ran the job (scheduling-dependent).
    pub worker: usize,
}

/// Run-level aggregates over all job records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunAggregates {
    /// Total jobs in the run.
    pub jobs: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// Jobs that failed (panic or executor error).
    pub failed: usize,
    /// Jobs that timed out.
    pub timed_out: usize,
    /// Sum of fuel over completed jobs, in A·s.
    pub total_fuel_as: f64,
    /// Mean stack current over completed jobs, in A.
    pub mean_stack_current_a: f64,
    /// ID of the completed job with the lowest fuel rate.
    pub most_fuel_efficient: Option<String>,
}

impl RunAggregates {
    /// Computes aggregates from `records`.
    #[must_use]
    pub fn from_records(records: &[JobRecord]) -> Self {
        let mut fold = AggregateFold::default();
        for record in records {
            fold.push(record);
        }
        fold.finish()
    }

    /// One-line human summary of a run with these aggregates.
    #[must_use]
    pub fn summary(&self, total_wall_ms: u64, workers: usize) -> String {
        format!(
            "{} jobs: {} completed, {} failed, {} timed out ({} ms, {} workers)",
            self.jobs, self.completed, self.failed, self.timed_out, total_wall_ms, workers
        )
    }
}

/// [`RunAggregates`] folded one record at a time. Records pushed in
/// index order sum their floats in the same order as
/// [`RunAggregates::from_records`], so the two agree bit for bit.
#[derive(Debug, Default)]
pub(crate) struct AggregateFold {
    jobs: usize,
    completed: usize,
    failed: usize,
    timed_out: usize,
    total_fuel_as: f64,
    rate_sum: f64,
    /// Lowest fuel rate so far and the ID of the job that ran it.
    best: Option<(f64, String)>,
}

impl AggregateFold {
    pub(crate) fn push(&mut self, record: &JobRecord) {
        self.jobs += 1;
        match &record.outcome {
            JobOutcome::Completed(m) => {
                self.completed += 1;
                self.total_fuel_as += m.fuel_as;
                self.rate_sum += m.mean_stack_current_a;
                if self
                    .best
                    .as_ref()
                    .is_none_or(|(rate, _)| m.mean_stack_current_a < *rate)
                {
                    self.best = Some((m.mean_stack_current_a, record.id.clone()));
                }
            }
            JobOutcome::Failed(_) => self.failed += 1,
            JobOutcome::TimedOut => self.timed_out += 1,
        }
    }

    pub(crate) fn finish(self) -> RunAggregates {
        RunAggregates {
            jobs: self.jobs,
            completed: self.completed,
            failed: self.failed,
            timed_out: self.timed_out,
            total_fuel_as: self.total_fuel_as,
            mean_stack_current_a: if self.completed > 0 {
                self.rate_sum / self.completed as f64
            } else {
                0.0
            },
            most_fuel_efficient: self.best.map(|(_, id)| id),
        }
    }
}

/// The JSON record of one batch run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// FNV-1a digest of the expanded grid's canonical JSON.
    pub grid_digest: String,
    /// Number of worker threads used (scheduling-dependent).
    pub workers: usize,
    /// Per-job records, ordered by grid index.
    pub records: Vec<JobRecord>,
    /// Run-level aggregates.
    pub aggregates: RunAggregates,
    /// Total run wall-clock time in ms (scheduling-dependent).
    pub total_wall_ms: u64,
}

impl RunManifest {
    /// The full manifest as pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// The manifest with scheduling-dependent fields (`wall_ms`,
    /// `worker`, `workers`, `total_wall_ms`) zeroed, as pretty JSON.
    /// Two runs of the same grid produce byte-identical output here no
    /// matter how they were scheduled.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        let mut masked = self.clone();
        masked.workers = 0;
        masked.total_wall_ms = 0;
        for record in &mut masked.records {
            record.wall_ms = 0;
            record.worker = 0;
        }
        serde_json::to_string_pretty(&masked).unwrap_or_default()
    }

    /// True when every job completed.
    #[must_use]
    pub fn all_completed(&self) -> bool {
        self.aggregates.failed == 0 && self.aggregates.timed_out == 0
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        self.aggregates.summary(self.total_wall_ms, self.workers)
    }
}

/// Writes a manifest to disk record by record, byte-identical to
/// [`RunManifest::to_json`] of the same run.
///
/// The header is written on [`create`](Self::create), each record as
/// its pretty-JSON fragment on [`put`](Self::put), and the aggregates
/// and total on [`finish`](Self::finish). The bytes go through an
/// [`AtomicFile`]: a run that fails or is killed first never leaves a
/// torn or empty manifest at `path`, and a writer dropped unfinished
/// removes its `.tmp`.
#[derive(Debug)]
pub struct ManifestWriter {
    out: AtomicFile,
    /// Records written so far.
    records: usize,
}

impl ManifestWriter {
    /// Creates (truncating) `<path>.tmp` and writes the manifest header.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures.
    pub fn create(path: &Path, grid_digest: &str, workers: usize) -> Result<Self, String> {
        let mut out = AtomicFile::create(path)?;
        let digest = serde_json::to_string(grid_digest).map_err(|e| e.to_string())?;
        out.write(&format!(
            "{{\n  \"grid_digest\": {digest},\n  \"workers\": {workers},\n  \"records\": ["
        ))?;
        Ok(Self { out, records: 0 })
    }

    /// Appends the next record. Records must arrive in index order.
    ///
    /// # Errors
    ///
    /// Returns a message naming the record's index when it does not
    /// serialize (a non-finite float), and for I/O failures.
    pub fn put(&mut self, record: &JobRecord) -> Result<(), String> {
        let json = serde_json::to_string_pretty(record)
            .map_err(|e| format!("record {} does not serialize: {e}", record.index))?;
        let separator = if self.records == 0 {
            "\n    "
        } else {
            ",\n    "
        };
        self.records += 1;
        self.out.write(separator)?;
        // The pretty printer escapes every newline inside a string, so
        // each one here is structural: indenting after it moves the
        // record to its depth (2) in the manifest.
        self.out.write(&json.replace('\n', "\n    "))
    }

    /// Writes the aggregates and total, then renames the file into
    /// place.
    ///
    /// # Errors
    ///
    /// Returns a message when the aggregates do not serialize, and for
    /// I/O failures; the `.tmp` file is then removed.
    pub fn finish(mut self, aggregates: &RunAggregates, total_wall_ms: u64) -> Result<(), String> {
        let json = serde_json::to_string_pretty(aggregates)
            .map_err(|e| format!("aggregates do not serialize: {e}"))?;
        let close = if self.records == 0 { "]" } else { "\n  ]" };
        self.out.write(&format!(
            "{close},\n  \"aggregates\": {},\n  \"total_wall_ms\": {total_wall_ms}\n}}",
            json.replace('\n', "\n  ")
        ))?;
        self.out.finish().map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PolicySpec, WorkloadSpec};

    fn record(index: usize, outcome: JobOutcome) -> JobRecord {
        let spec = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(1));
        JobRecord {
            id: spec.id(index),
            index,
            spec,
            outcome,
            wall_ms: 12,
            worker: 3,
        }
    }

    fn metrics(rate: f64) -> JobMetrics {
        JobMetrics {
            fuel_as: rate * 100.0,
            mean_stack_current_a: rate,
            conversion_efficiency: 0.9,
            lifetime_h: 10.0,
            duration_s: 100.0,
            sleeps: 1,
            slots: 2,
            bled_as: 0.0,
            deficit_as: 0.0,
            deficit_time_s: 0.0,
            final_soc_as: 3.0,
            chunks_stepped: 200,
            chunks_coalesced: 0,
            policy_consultations: 200,
            faults_applied: 0,
            degradations: 0,
            time_in_fallback_s: 0.0,
            fault_deficit_time_s: 0.0,
        }
    }

    #[test]
    fn aggregates_count_outcomes() {
        let records = vec![
            record(0, JobOutcome::Completed(metrics(0.5))),
            record(1, JobOutcome::Completed(metrics(0.4))),
            record(2, JobOutcome::Failed("boom".to_owned())),
            record(3, JobOutcome::TimedOut),
        ];
        let agg = RunAggregates::from_records(&records);
        assert_eq!(
            (agg.jobs, agg.completed, agg.failed, agg.timed_out),
            (4, 2, 1, 1)
        );
        assert!((agg.total_fuel_as - 90.0).abs() < 1e-9);
        assert!((agg.mean_stack_current_a - 0.45).abs() < 1e-9);
        assert_eq!(
            agg.most_fuel_efficient.as_deref(),
            Some(records[1].id.as_str())
        );
    }

    #[test]
    fn deterministic_json_masks_scheduling_fields() {
        let records = vec![record(0, JobOutcome::Completed(metrics(0.5)))];
        let aggregates = RunAggregates::from_records(&records);
        let mut manifest = RunManifest {
            grid_digest: "abcd".to_owned(),
            workers: 4,
            records,
            aggregates,
            total_wall_ms: 99,
        };
        let four_workers = manifest.deterministic_json();
        manifest.workers = 1;
        manifest.total_wall_ms = 1234;
        manifest.records[0].wall_ms = 55;
        manifest.records[0].worker = 0;
        let one_worker = manifest.deterministic_json();
        assert_eq!(four_workers, one_worker);
        assert_ne!(manifest.to_json(), four_workers);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let records = vec![
            record(0, JobOutcome::Completed(metrics(0.5))),
            record(1, JobOutcome::TimedOut),
        ];
        let aggregates = RunAggregates::from_records(&records);
        let manifest = RunManifest {
            grid_digest: "ff00".to_owned(),
            workers: 2,
            records,
            aggregates,
            total_wall_ms: 10,
        };
        let back: RunManifest = serde_json::from_str(&manifest.to_json()).expect("parses");
        assert_eq!(manifest, back);
    }
}
