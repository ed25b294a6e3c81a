//! Traced replays: the CLI's run path rebuilt from each layer's public
//! functions, in the program's order, with a span around every call.
//!
//! [`fleet`] follows `fcdpm_grid::run` (fresh or resume) and [`sweep`]
//! follows `fcdpm batch` (`run_grid` plus the manifest write). Both write
//! the same artifacts the CLI writes, so the caller can prove the replay
//! did the same work by comparing bytes. Work the engine does in private
//! code (the aggregate fold, stale-spill cleanup) has no public function
//! to wrap; it stays inside the replay's root span and shows up as the
//! unattributed share.

use std::path::Path;
use std::time::Instant;

use fcdpm_grid::{
    digest_hex, partial_file_name, read_partial, read_shard, shard_file_name, spec_digest,
    write_atomic, write_shard, GridConfig, GridJobRecord, GridSpec, PartialShardWriter,
};
use fcdpm_runner::pool::{run_to_completion, run_with_retry, Execution, RetryPolicy};
use fcdpm_runner::spec::fnv1a;
use fcdpm_runner::{
    execute, JobGrid, JobMetrics, JobOutcome, JobRecord, JobSpec, RunAggregates, RunManifest,
};

use crate::spans::Recorder;

/// Counts one replay made at the layer boundaries.
#[derive(Debug, Default)]
pub struct Tally {
    pub jobs: u64,
    pub failed: u64,
    pub pool_calls: u64,
    pub policy_consultations: u64,
    pub chunks_coalesced: u64,
    pub chunks_stepped: u64,
    pub checkpoint_appends: u64,
    pub checkpoint_bytes: u64,
    pub shard_bytes: u64,
    pub manifest_bytes: u64,
}

/// A job's result with the worker-side interval it ran in.
type Timed = (Instant, Result<JobMetrics, String>, Instant);

fn timed_execute(job: &JobSpec) -> Timed {
    let start = Instant::now();
    let result = execute(job);
    (start, result, Instant::now())
}

impl Tally {
    /// Turns one pool execution into the outcome the engine records,
    /// counting failures and the simulator's work counters on the way.
    fn outcome(&mut self, execution: Execution<Timed>) -> JobOutcome {
        let outcome = match execution {
            Execution::Completed((_, Ok(metrics), _)) => {
                self.policy_consultations += metrics.policy_consultations;
                self.chunks_coalesced += metrics.chunks_coalesced;
                self.chunks_stepped += metrics.chunks_stepped;
                JobOutcome::Completed(metrics)
            }
            Execution::Completed((_, Err(message), _)) => JobOutcome::Failed(message),
            Execution::Panicked(message) => JobOutcome::Failed(format!("panic: {message}")),
            Execution::TimedOut => JobOutcome::TimedOut,
        };
        if !matches!(outcome, JobOutcome::Completed(_)) {
            self.failed += 1;
        }
        outcome
    }
}

/// Records each pool result's worker interval as an execute span under
/// the open pool span.
fn record_executions<R>(
    rec: &mut Recorder,
    results: &[R],
    execution: impl Fn(&R) -> (&Execution<Timed>, u64),
) {
    for result in results {
        let (execution, job) = execution(result);
        if let Execution::Completed((start, _, end)) = execution {
            rec.record("runner.exec.execute", *start, *end, Some(job));
        }
    }
}

fn grid_record(
    rec: &mut Recorder,
    index: u64,
    job: &JobSpec,
    digest: &str,
    outcome: JobOutcome,
    attempts: u32,
) -> GridJobRecord {
    let id = rec.span("runner.spec.job_id", Some(index), |_| {
        job.id(usize::try_from(index).unwrap_or(usize::MAX))
    });
    GridJobRecord {
        index,
        id,
        digest: digest.to_owned(),
        outcome,
        attempts,
    }
}

fn append(
    rec: &mut Recorder,
    writer: &mut PartialShardWriter,
    records: &[GridJobRecord],
    tally: &mut Tally,
) -> Result<(), String> {
    if records.is_empty() {
        return Ok(());
    }
    tally.checkpoint_appends += 1;
    rec.span("grid.manifest.checkpoint_append", None, |_| {
        writer.append(records)
    })
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Replays `fcdpm grid run` (or `grid resume` when `resume` is set) of
/// `spec` into run directory `dir` with the default shard size and
/// checkpoint batch, finishing with `aggregate_json` (the bytes the CLI
/// wrote; the fold that produces them is private to the engine).
///
/// Returns the replay's counts and the last shard's records.
pub fn fleet(
    rec: &mut Recorder,
    spec: &GridSpec,
    dir: &Path,
    workers: usize,
    resume: bool,
    aggregate_json: &str,
) -> Result<(Tally, Vec<GridJobRecord>), String> {
    let config = GridConfig::default();
    let shard_size = config.shard_size;
    let batch = usize::try_from(config.checkpoint_batch).unwrap_or(usize::MAX);
    let total = spec.total_jobs();
    let mut tally = Tally {
        jobs: total,
        ..Tally::default()
    };
    rec.span("grid.engine.prepare", None, |_| {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
        let text = serde_json::to_string_pretty(spec).unwrap_or_default();
        write_atomic(&dir.join("grid.json"), &text)
    })?;

    let mut last = Vec::new();
    for shard in 0..total.div_ceil(shard_size) {
        let lo = shard * shard_size;
        let hi = (lo + shard_size).min(total);
        let mut specs = Vec::new();
        let mut digests = Vec::new();
        for index in lo..hi {
            let job = rec
                .span("grid.gen.job_at", Some(index), |_| spec.job_at(index))
                .ok_or_else(|| format!("index {index} out of range"))?;
            let digest = rec.span("grid.gen.spec_digest", Some(index), |_| spec_digest(&job));
            digests.push(digest_hex(digest));
            specs.push(job);
        }

        let mut outcomes: Vec<Option<(JobOutcome, u32)>> = vec![None; specs.len()];
        let mut reuse = |record: GridJobRecord| -> bool {
            let slot = record
                .index
                .checked_sub(lo)
                .and_then(|s| usize::try_from(s).ok());
            match slot {
                Some(slot)
                    if slot < outcomes.len()
                        && outcomes[slot].is_none()
                        && record.digest == digests[slot] =>
                {
                    outcomes[slot] = Some((record.outcome, record.attempts));
                    true
                }
                _ => false,
            }
        };
        if resume {
            let path = dir.join(shard_file_name(shard));
            if path.is_file() {
                for record in rec.span("grid.manifest.read_shard", None, |_| read_shard(&path))? {
                    reuse(record);
                }
            }
            let path = dir.join(partial_file_name(shard));
            if path.is_file() {
                let read = rec.span("grid.manifest.read_partial", None, |_| read_partial(&path))?;
                for record in read.records {
                    reuse(record);
                }
            }
        }
        let misses: Vec<usize> = (0..specs.len())
            .filter(|&s| outcomes[s].is_none())
            .collect();

        let mut writer = rec.span("grid.manifest.checkpoint_create", None, |_| {
            PartialShardWriter::create(dir, shard)
        })?;
        let mut replayed = Vec::new();
        for (slot, outcome) in outcomes.iter().enumerate() {
            if let Some((outcome, attempts)) = outcome {
                let index = lo + slot as u64;
                let record = grid_record(
                    rec,
                    index,
                    &specs[slot],
                    &digests[slot],
                    outcome.clone(),
                    *attempts,
                );
                replayed.push(record);
            }
        }
        append(rec, &mut writer, &replayed, &mut tally)?;
        drop(replayed);

        for chunk in misses.chunks(batch.max(1)) {
            let jobs: Vec<_> = chunk
                .iter()
                .map(|&slot| {
                    let job = specs[slot].clone();
                    move |_attempt: u32| timed_execute(&job)
                })
                .collect();
            let results = rec.span("runner.pool.run_with_retry", None, |rec| {
                let results = run_with_retry(jobs, workers, None, &RetryPolicy::default());
                record_executions(rec, &results, |r| {
                    (&r.execution, lo + chunk[r.index] as u64)
                });
                results
            });
            tally.pool_calls += 1;
            let mut fresh = Vec::with_capacity(chunk.len());
            for result in results {
                let slot = chunk[result.index];
                let outcome = tally.outcome(result.execution);
                outcomes[slot] = Some((outcome.clone(), result.attempts));
                let index = lo + slot as u64;
                fresh.push(grid_record(
                    rec,
                    index,
                    &specs[slot],
                    &digests[slot],
                    outcome,
                    result.attempts,
                ));
            }
            append(rec, &mut writer, &fresh, &mut tally)?;
        }

        let mut records = Vec::with_capacity(specs.len());
        for (slot, outcome) in outcomes.into_iter().enumerate() {
            let index = lo + slot as u64;
            let (outcome, attempts) =
                outcome.ok_or_else(|| format!("job {index} has no outcome"))?;
            records.push(grid_record(
                rec,
                index,
                &specs[slot],
                &digests[slot],
                outcome,
                attempts,
            ));
        }
        let path = rec.span("grid.manifest.write_shard", None, |_| {
            write_shard(dir, shard, &records)
        })?;
        tally.shard_bytes += file_len(&path);
        tally.checkpoint_bytes += file_len(writer.path());
        let partial = writer.path().to_owned();
        drop(writer);
        rec.span("grid.manifest.checkpoint_retire", None, |_| {
            std::fs::remove_file(&partial)
                .map_err(|e| format!("cannot remove `{}`: {e}", partial.display()))
        })?;
        last = records;
    }

    rec.span("grid.engine.aggregate_write", None, |_| {
        write_atomic(&dir.join("aggregate.json"), aggregate_json)
    })?;
    Ok((tally, last))
}

/// Replays `fcdpm batch` of `grid` with `workers` threads, writing the
/// manifest to `manifest_path`.
pub fn sweep(
    rec: &mut Recorder,
    grid: &JobGrid,
    manifest_path: &Path,
    workers: usize,
) -> Result<(Tally, RunManifest), String> {
    let start = Instant::now();
    let mut tally = Tally::default();
    let specs = rec.span("runner.spec.expand", None, |_| grid.expand());
    tally.jobs = specs.len() as u64;
    let grid_digest = rec.span("runner.spec.grid_digest", None, |_| {
        let json = serde_json::to_string(&specs.to_vec()).unwrap_or_default();
        format!("{:016x}", fnv1a(json.as_bytes()))
    });
    let jobs: Vec<_> = specs
        .iter()
        .map(|job| {
            let job = job.clone();
            move || timed_execute(&job)
        })
        .collect();
    let results = rec.span("runner.pool.run_to_completion", None, |rec| {
        let results = run_to_completion(jobs, workers, None);
        record_executions(rec, &results, |r| (&r.execution, r.index as u64));
        results
    });
    tally.pool_calls = 1;
    let mut records = Vec::with_capacity(results.len());
    for result in results {
        let job = &specs[result.index];
        let id = rec.span("runner.spec.job_id", Some(result.index as u64), |_| {
            job.id(result.index)
        });
        records.push(JobRecord {
            id,
            index: result.index,
            spec: job.clone(),
            outcome: tally.outcome(result.execution),
            wall_ms: u64::try_from(result.wall.as_millis()).unwrap_or(u64::MAX),
            worker: result.worker,
        });
    }
    let aggregates = rec.span("runner.manifest.aggregate", None, |_| {
        RunAggregates::from_records(&records)
    });
    let manifest = RunManifest {
        grid_digest,
        workers,
        records,
        aggregates,
        total_wall_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
    };
    let json = rec.span("runner.manifest.encode", None, |_| manifest.to_json());
    tally.manifest_bytes = json.len() as u64;
    rec.span("runner.manifest.write", None, |_| {
        std::fs::write(manifest_path, &json)
            .map_err(|e| format!("cannot write `{}`: {e}", manifest_path.display()))
    })?;
    Ok((tally, manifest))
}
