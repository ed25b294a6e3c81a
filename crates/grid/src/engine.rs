//! The sharded streaming executor: bounded memory, spill, resume.
//!
//! [`run`] lowers a [`GridSpec`] once into the runner's job-grid
//! decoder ([`fcdpm_runner::Axes`]) and executes the whole grid in one
//! streaming call on the [`fcdpm_runner::pool`] worker pool. A worker
//! claims a whole scenario run ([`Axes::scenario_runs`]), so it builds
//! and plans that scenario once, and decodes, hashes (the digest keys
//! the cache and goes into the job ID) and executes each job itself.
//! The calling thread only commits: results reach it in index order,
//! it opens shard *s* when the first index of *s* arrives and promotes
//! the shard to `shard-NNNNN.jsonl` and folds it into the aggregate when
//! the last one lands. It holds at most one shard's replayed records,
//! plus two `f64` columns (fuel and deficit-time per completed job, 8 B
//! each) for the p50/p99 quantiles.
//!
//! Each distinct run is simulated once. Two jobs with the same
//! [`run_key`](fcdpm_runner::run_key) produce the same outcome, and the
//! decoder maps a job to the first index with its key
//! ([`Axes::first_with_run_key`]); on the fleet example those are the
//! `faults: None, resilient: true` jobs, 800 of 4800, each repeating
//! its unwrapped twin. A worker that draws a repeat returns its policy
//! and digest and the earlier index without executing. That index is
//! always within [`Axes::run_key_reach`] of the repeat, and results
//! arrive in index order, so the committer keeps the `(outcome,
//! attempts)` of the last `run_key_reach` jobs, fresh or replayed,
//! across shard boundaries, and writes the repeat's own index, ID and
//! digest with the earlier job's outcome and attempts, checkpointed
//! like any fresh line. Which jobs repeat depends only on the grid and
//! the cache, never on which worker claimed what: [`GridRun::simulated`]
//! counts the rest.
//!
//! Resume is digest-keyed, not timestamp-keyed: a record is reused iff
//! the spec decoded at its index hashes to the digest stored on disk.
//! The hits are decided before the first claim, the only time the
//! calling thread decodes a resumed spec; it keeps each hit's digest
//! (8 B per job). A worker reports a hit without executing it, and the
//! committer takes its record from the shard's spill, re-read when the
//! shard opens and matched against those digests. A fresh run reads no
//! spill. Re-running an untouched grid recomputes zero jobs; editing
//! one axis value recomputes exactly the jobs whose specs changed.
//!
//! The [`GridAggregate`] written to `aggregate.json` is deliberately
//! free of wall-clock or cache statistics, so a fresh run and a fully
//! cached resume of the same grid produce byte-identical aggregates —
//! CI diffs them directly. Timings live only on the returned
//! [`GridRun`].
//!
//! # Crash safety
//!
//! The calling thread is the committer. When a shard opens, it
//! checkpoints the shard's replayed records to
//! `shard-NNNNN.partial.jsonl` as one fsync'd batch first; then the
//! pool hands it each fresh result in index order, and it builds the
//! record, encodes its JSON once, appends `checksum\t` + that JSON, and
//! fsyncs every [`GridConfig::checkpoint_batch`] records while the
//! workers keep computing. Resume keys lines by index and digest, not by
//! position. A `kill -9` loses only the records not yet in an fsync'd
//! batch (at most the open batch, the results waiting behind a slower
//! earlier job, and the running jobs): `resume` replays every
//! checksum-valid line of the checkpoint's maximal valid prefix as a
//! cache hit (surfaced as [`GridRun::recovered_jobs`]), reads promoted
//! shards by the same rule, and recomputes only the rest.
//!
//! When the shard completes, its checkpoint is in slot order unless a
//! resume replayed a record after a miss (an edited grid), and the
//! checkpoint *is* the shard: it is renamed to `shard-NNNNN.jsonl` and
//! the run directory is synced. An interleaved resume, and every shard
//! with checkpointing off, keeps the shard's lines in slot order in
//! memory instead and publishes them through
//! [`write_shard`](crate::manifest::write_shard)'s tmp+rename, synced,
//! before removing the checkpoint. Every whole-file artifact
//! (`grid.json`, `aggregate.json`) goes through
//! [`fcdpm_runner::AtomicFile`], so no reader ever observes a torn
//! committed artifact. The [`CrashPoint`]
//! hooks exist solely so the integration harness can kill the process
//! at each of these moments deterministically.

use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fcdpm_runner::pool::{stream, Execution, PoolResult, RetryPolicy};
use fcdpm_runner::{
    execute, spec_digest, write_atomic, Axes, JobMetrics, JobOutcome, JobSpec, PolicySpec,
};
use serde::{Deserialize, Serialize};

use crate::gc::{Inventory, RunFile};
use crate::gen::GridSpec;
use crate::manifest::{
    digest_hex, encode_record, partial_file_name, publish_shard, push_line, read_partial,
    shard_file_name, GridJobRecord, PartialShardWriter,
};

/// Deterministic crash-injection hooks. Setting one on [`GridConfig`]
/// makes [`run`] abort the *process* (the moral equivalent of `kill
/// -9`: no unwinding, no destructors) at the named point. Test-only —
/// production configs leave this `None`; the integration harness sets
/// it in a child process and asserts that resume repairs the damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Abort once this many jobs (1-based, counted across the
    /// invocation) have been checkpointed to partial files.
    AfterJob(u64),
    /// Abort immediately before this shard is promoted partial → final.
    BeforeShardPromote(u64),
    /// Abort mid-write while checkpointing this shard: a torn
    /// half-record is left on disk, exactly as a kill inside a batch
    /// write would.
    MidPartialWrite(u64),
    /// Abort once this shard's slot-ordered lines are published, before
    /// its checkpoint is removed: the checkpoint is left beside the
    /// promoted shard. Only a shard published from its lines gets
    /// here: every shard with checkpointing off, and a resume that
    /// replays a record after a miss.
    AfterShardPublish(u64),
}

impl std::str::FromStr for CrashPoint {
    type Err = String;

    /// Parses `after-job:N`, `before-promote:N`, `mid-write:N` or
    /// `after-publish:N` — the spelling the crash harness and the CI
    /// kill-resume gate use.
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let (kind, operand) = text
            .split_once(':')
            .ok_or_else(|| format!("crash point `{text}` is not `kind:n`"))?;
        let n: u64 = operand
            .parse()
            .map_err(|_| format!("crash point operand `{operand}` is not a number"))?;
        match kind {
            "after-job" => Ok(Self::AfterJob(n)),
            "before-promote" => Ok(Self::BeforeShardPromote(n)),
            "mid-write" => Ok(Self::MidPartialWrite(n)),
            "after-publish" => Ok(Self::AfterShardPublish(n)),
            other => Err(format!("unknown crash point kind `{other}`")),
        }
    }
}

/// How a grid run is scheduled and where it spills.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Worker threads (0 = available parallelism, resolved by the
    /// pool).
    pub workers: usize,
    /// Jobs per shard — the resident-memory ceiling.
    pub shard_size: u64,
    /// Parent directory for run directories.
    pub out_dir: PathBuf,
    /// Run directory name; `None` derives `grid-<spec-digest>` so the
    /// same grid always lands (and resumes) in the same place.
    pub run_id: Option<String>,
    /// Reuse digest-matching records from a previous run's spill —
    /// promoted shards *and* partial checkpoints.
    pub resume: bool,
    /// Retry policy for panicked/timed-out jobs.
    pub retry: RetryPolicy,
    /// Records per fsync'd checkpoint batch, committed in index order
    /// while the workers run (0 disables mid-shard checkpointing: the
    /// shard's lines wait in memory until it is promoted, and a kill
    /// loses the whole in-flight shard).
    pub checkpoint_batch: u64,
    /// Crash-injection hook for the test harness (`None` in
    /// production).
    pub crash_point: Option<CrashPoint>,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            shard_size: 1024,
            out_dir: PathBuf::from("results/grid"),
            run_id: None,
            resume: false,
            retry: RetryPolicy::default(),
            checkpoint_batch: 32,
            crash_point: None,
        }
    }
}

impl GridConfig {
    /// The effective run ID for `spec` under this config.
    #[must_use]
    pub fn effective_run_id(&self, spec: &GridSpec) -> String {
        self.run_id
            .clone()
            .unwrap_or_else(|| format!("grid-{}", digest_hex(spec.digest())))
    }
}

/// One shard's deterministic contribution to the aggregate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: u64,
    /// Jobs in the shard.
    pub jobs: u64,
    /// Jobs that completed with metrics.
    pub completed: u64,
    /// Jobs that failed (including panics).
    pub failed: u64,
    /// Jobs that exceeded the per-job budget.
    pub timed_out: u64,
    /// Total fuel consumed by the shard's completed jobs (A·s).
    pub fuel_as: f64,
    /// Total deficit time across the shard's completed jobs (s).
    pub deficit_time_s: f64,
}

/// The deterministic rollup of a whole run, written to `aggregate.json`.
///
/// Everything here is a pure function of the record stream in index
/// order — no wall-clock, no cache statistics — so resumes reproduce it
/// byte for byte. The only throughput figure is *nominal* jobs/sec,
/// derived from the simulators' own work counters under a fixed cost
/// model (10 µs per stepped chunk, 1 µs per coalesced chunk or policy
/// consultation), which makes it deterministic and comparable across
/// machines.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GridAggregate {
    /// Payload schema tag.
    pub schema: String,
    /// The grid's own digest (16 hex digits).
    pub spec_digest: String,
    /// Total jobs in the grid.
    pub jobs: u64,
    /// Number of shards spilled.
    pub shards: u64,
    /// Jobs per shard ceiling the run used.
    pub shard_size: u64,
    /// Jobs that completed with metrics.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs that timed out.
    pub timed_out: u64,
    /// Jobs that completed after more than one attempt.
    pub retried: u64,
    /// Jobs that exhausted their retry budget without completing.
    pub quarantined: u64,
    /// Total fuel consumed across completed jobs (A·s).
    pub total_fuel_as: f64,
    /// Median per-job fuel (A·s, nearest-rank over completed jobs).
    pub fuel_p50_as: f64,
    /// 99th-percentile per-job fuel (A·s).
    pub fuel_p99_as: f64,
    /// Total battery-deficit time across completed jobs (s).
    pub total_deficit_time_s: f64,
    /// Median per-job deficit time (s).
    pub deficit_p50_s: f64,
    /// 99th-percentile per-job deficit time (s).
    pub deficit_p99_s: f64,
    /// Mean stack current across completed jobs (A).
    pub mean_stack_current_a: f64,
    /// Total simulated time across completed jobs (s).
    pub total_sim_time_s: f64,
    /// Simulator chunks stepped one slot at a time.
    pub chunks_stepped: u64,
    /// Simulator chunks advanced by the coalescing fast path.
    pub chunks_coalesced: u64,
    /// Policy consultations across completed jobs.
    pub policy_consultations: u64,
    /// Deterministic throughput under the fixed nominal cost model.
    pub jobs_per_sec_nominal: f64,
    /// Per-shard rollups, in shard order.
    pub per_shard: Vec<ShardSummary>,
}

/// Nominal wall cost of the run's simulation work, in seconds: the
/// fixed cost model behind [`GridAggregate::jobs_per_sec_nominal`].
#[must_use]
pub fn nominal_seconds(chunks_stepped: u64, chunks_coalesced: u64, consultations: u64) -> f64 {
    let stepped = chunks_stepped as f64 * 10e-6;
    let fast = (chunks_coalesced + consultations) as f64 * 1e-6;
    stepped + fast
}

impl GridAggregate {
    /// Pretty, key-stable JSON — the exact bytes of `aggregate.json`.
    #[must_use]
    pub fn to_pretty_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }
}

/// Everything [`run`] learned, including the non-deterministic parts
/// that deliberately stay out of `aggregate.json`.
#[derive(Debug, Clone)]
pub struct GridRun {
    /// Effective run ID.
    pub run_id: String,
    /// The run directory that now holds `grid.json`, the shards and
    /// `aggregate.json`.
    pub dir: PathBuf,
    /// Records reused from spill because their digest matched.
    pub cache_hits: u64,
    /// Of those, records recovered from partial (mid-shard) checkpoint
    /// files rather than promoted shards — the jobs a crash-interrupted
    /// run did *not* lose.
    pub recovered_jobs: u64,
    /// Jobs not taken from the spill cache: simulated, or repeats that
    /// copied the outcome of an earlier job with the same
    /// [`run_key`](fcdpm_runner::run_key).
    pub recomputed: u64,
    /// Jobs actually executed this invocation: `recomputed` minus the
    /// repeats. It depends only on the grid and the cache, never on the
    /// worker count.
    pub simulated: u64,
    /// The largest shard, in jobs: the most replayed records the
    /// committer holds at once.
    pub peak_resident_jobs: u64,
    /// Checkpoint batches committed this invocation, one `sync_data`
    /// each: ⌈misses / `checkpoint_batch`⌉ per shard, plus one per
    /// shard that replayed known records; 0 with checkpointing off.
    pub checkpoint_commits: u64,
    /// Wall-clock time of this invocation (s).
    pub wall_s: f64,
    /// Wall-clock throughput of this invocation (jobs/s, all jobs
    /// counted, cached or not).
    pub jobs_per_sec_wall: f64,
    /// The deterministic rollup, as written to `aggregate.json`.
    pub aggregate: GridAggregate,
}

impl GridRun {
    /// Cache-hit ratio in percent (100.0 for a fully cached resume).
    #[must_use]
    pub fn cache_hit_pct(&self) -> f64 {
        let total = self.cache_hits + self.recomputed;
        if total == 0 {
            100.0
        } else {
            100.0 * self.cache_hits as f64 / total as f64
        }
    }
}

/// Nearest-rank quantile of an unsorted column (sorts a copy; the
/// column is one `f64` per completed job, the run's only unbounded
/// allocation and an explicit 8 B/job budget).
fn quantile(column: &[f64], q: f64) -> f64 {
    if column.is_empty() {
        return 0.0;
    }
    let mut sorted = column.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Streaming accumulator for the deterministic aggregate: the run
/// totals, as `aggregate.json` carries them, plus the stack-current sum
/// behind the mean and the two quantile columns (structure of arrays,
/// not a `Vec<JobMetrics>`).
#[derive(Debug, Default)]
struct Rollup {
    totals: GridAggregate,
    stack_current_sum_a: f64,
    fuel_column: Vec<f64>,
    deficit_column: Vec<f64>,
}

impl Rollup {
    /// Folds one shard's `(outcome, attempts)` pairs, in index order.
    fn fold_shard(&mut self, shard: u64, records: &[(JobOutcome, u32)]) {
        let Rollup {
            totals: t,
            stack_current_sum_a,
            fuel_column,
            deficit_column,
        } = self;
        let mut summary = ShardSummary {
            shard,
            jobs: records.len() as u64,
            ..ShardSummary::default()
        };
        for (outcome, attempts) in records {
            if *attempts > 1 {
                // Attempt counts fold deterministically: retries are
                // driven by the spec (the inject-panic fixture), never
                // by scheduling, so resumes reproduce them.
                if matches!(outcome, JobOutcome::Completed(_)) {
                    t.retried += 1;
                } else {
                    t.quarantined += 1;
                }
            }
            match outcome {
                JobOutcome::Completed(m) => {
                    summary.completed += 1;
                    summary.fuel_as += m.fuel_as;
                    summary.deficit_time_s += m.deficit_time_s;
                    t.total_sim_time_s += m.duration_s;
                    *stack_current_sum_a += m.mean_stack_current_a;
                    t.chunks_stepped += m.chunks_stepped;
                    t.chunks_coalesced += m.chunks_coalesced;
                    t.policy_consultations += m.policy_consultations;
                    fuel_column.push(m.fuel_as);
                    deficit_column.push(m.deficit_time_s);
                }
                JobOutcome::Failed(_) => summary.failed += 1,
                JobOutcome::TimedOut => summary.timed_out += 1,
            }
        }
        t.completed += summary.completed;
        t.failed += summary.failed;
        t.timed_out += summary.timed_out;
        t.total_fuel_as += summary.fuel_as;
        t.total_deficit_time_s += summary.deficit_time_s;
        t.per_shard.push(summary);
    }

    fn finish(self, spec: &GridSpec, jobs: u64, shard_size: u64) -> GridAggregate {
        let t = self.totals;
        let nominal = nominal_seconds(t.chunks_stepped, t.chunks_coalesced, t.policy_consultations);
        GridAggregate {
            schema: "fcdpm-grid/2".to_owned(),
            spec_digest: digest_hex(spec.digest()),
            jobs,
            shards: t.per_shard.len() as u64,
            shard_size,
            fuel_p50_as: quantile(&self.fuel_column, 0.50),
            fuel_p99_as: quantile(&self.fuel_column, 0.99),
            deficit_p50_s: quantile(&self.deficit_column, 0.50),
            deficit_p99_s: quantile(&self.deficit_column, 0.99),
            mean_stack_current_a: if t.completed == 0 {
                0.0
            } else {
                self.stack_current_sum_a / t.completed as f64
            },
            jobs_per_sec_nominal: if nominal > 0.0 {
                jobs as f64 / nominal
            } else {
                0.0
            },
            ..t
        }
    }
}

/// Removes what must not leak into this run: every orphaned `*.tmp`,
/// an interrupted rename of a file this run republishes, and on a fresh
/// run every old shard and checkpoint, on a resume only those past the
/// current shard count.
fn clean_stale(dir: &Path, shards: u64, resume: bool) -> Result<(), String> {
    for (file, path) in Inventory::read(dir)?.files {
        let stale = match file {
            RunFile::Tmp => true,
            RunFile::Shard(n) | RunFile::Checkpoint(n) => !resume || n >= shards,
            _ => false,
        };
        if stale {
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove stale `{}`: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The open shard's spill: its checkpoint (with checkpointing on) and
/// slot-ordered lines, plus the invocation-wide checkpointed-job and
/// commit counters and the crash-injection hooks (which fire *inside*
/// the commit path, so the on-disk state at the abort instant is
/// exactly what a kill would leave).
#[derive(Default)]
struct Spill {
    batch: u64,
    partial: Option<PartialShardWriter>,
    /// The shard's lines in slot order, kept when checkpointing is off
    /// or a resume replays a record after a miss.
    ordered: Option<String>,
    crash: Option<CrashPoint>,
    appended: u64,
    /// Commits that wrote pending lines — one `sync_data` each.
    commits: u64,
}

impl Spill {
    /// Opens `shard`'s checkpoint and checkpoints its replayed lines
    /// first, as one batch, so a crash during the fresh work never loses
    /// what was already known.
    fn open(
        &mut self,
        dir: &Path,
        shard: u64,
        replayed: &[Option<GridJobRecord>],
    ) -> Result<(), String> {
        let mut known = replayed.iter().skip_while(|record| record.is_some());
        let interleaved = known.any(Option::is_some);
        self.ordered = (self.batch == 0 || interleaved).then(String::new);
        if self.batch > 0 {
            self.partial = Some(PartialShardWriter::create(dir, shard)?);
        }
        for record in replayed.iter().flatten() {
            self.push(&encode_record(record)?)?;
        }
        self.commit(shard)
    }

    /// Buffers one record's checkpoint line; `AfterJob(n)` commits and
    /// dies once the n-th line of the invocation is in.
    fn push(&mut self, json: &str) -> Result<(), String> {
        let Some(writer) = self.partial.as_mut() else {
            return Ok(());
        };
        writer.push(json);
        self.appended += 1;
        if self.crash == Some(CrashPoint::AfterJob(self.appended)) {
            writer.commit()?;
            std::process::abort();
        }
        Ok(())
    }

    /// Writes and fsyncs the buffered lines as one batch.
    fn commit(&mut self, shard: u64) -> Result<(), String> {
        let Some(writer) = self.partial.as_mut() else {
            return Ok(());
        };
        if writer.pending() > 0 && self.crash == Some(CrashPoint::MidPartialWrite(shard)) {
            // Leave every line but the last intact, then die with the
            // last one half-written — the torn tail a kill mid-batch
            // produces.
            writer.commit_torn()?;
            std::process::abort();
        }
        if writer.pending() > 0 {
            self.commits += 1;
        }
        writer.commit()
    }

    /// Takes the record in the next slot: a fresh record goes to the
    /// checkpoint, committed every `batch` lines, and every record to
    /// the slot-ordered lines when they are kept.
    fn put(&mut self, shard: u64, record: &GridJobRecord, fresh: bool) -> Result<(), String> {
        if !fresh && self.ordered.is_none() {
            return Ok(());
        }
        let json = encode_record(record)?;
        if let Some(lines) = self.ordered.as_mut() {
            push_line(lines, &json);
        }
        if fresh {
            self.push(&json)?;
            if self
                .partial
                .as_ref()
                .is_some_and(|w| w.pending() >= self.batch)
            {
                self.commit(shard)?;
            }
        }
        Ok(())
    }

    /// Commits the last batch and promotes the shard: the checkpoint is
    /// renamed into place, or the slot-ordered lines are published and
    /// the checkpoint, now redundant, is removed. With checkpointing off
    /// there is no checkpoint writer, but a resume may still have
    /// replayed a crashed run's checkpoint.
    fn promote(&mut self, dir: &Path, shard: u64) -> Result<(), String> {
        self.commit(shard)?;
        if self.crash == Some(CrashPoint::BeforeShardPromote(shard)) {
            std::process::abort();
        }
        let partial = self.partial.take();
        let Some(lines) = self.ordered.take() else {
            return partial.ok_or("no shard is open")?.promote().map(drop);
        };
        publish_shard(dir, shard, &lines)?;
        if self.crash == Some(CrashPoint::AfterShardPublish(shard)) {
            std::process::abort();
        }
        drop(partial);
        let path = dir.join(partial_file_name(shard));
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("cannot remove `{}`: {e}", path.display()))
            }
            _ => Ok(()),
        }
    }
}

/// The `(outcome, attempts)` pairs committed from global index `first`
/// on: the open shard's, which fold into the aggregate when it
/// promotes, and up to `reach` before them, carried across the shard
/// boundary for a repeat to copy.
#[derive(Debug, Default)]
struct Committed {
    first: u64,
    pairs: Vec<(JobOutcome, u32)>,
    reach: usize,
}

impl Committed {
    /// Job `index`'s pair, while it is held.
    fn get(&self, index: u64) -> Option<&(JobOutcome, u32)> {
        let at = usize::try_from(index.checked_sub(self.first)?).ok()?;
        self.pairs.get(at)
    }

    /// Folds the pairs from global index `lo` on into `rollup` as shard
    /// `shard`, then keeps only the last `reach` pairs.
    fn fold(&mut self, rollup: &mut Rollup, shard: u64, lo: u64) {
        let open = usize::try_from(lo - self.first).unwrap_or(usize::MAX);
        rollup.fold_shard(shard, self.pairs.get(open..).unwrap_or_default());
        let retired = self.pairs.len().saturating_sub(self.reach);
        self.pairs.drain(..retired);
        self.first += retired as u64;
    }
}

/// Runs attempt `attempt` of `job`. The injected-panic fixture arms
/// only the first attempt, modelling a transient fault.
fn execute_attempt(job: &JobSpec, attempt: u32) -> Result<JobMetrics, String> {
    if attempt > 1 && job.inject_panic.is_some() {
        let mut job = job.clone();
        job.inject_panic = None;
        return execute(&job);
    }
    execute(job)
}

/// Decodes job `index` and hashes its spec once: the job and its
/// digest, which keys the cache and goes into the job's ID.
fn decode(axes: &Axes<'_>, index: u64) -> Result<(JobSpec, u64), String> {
    let job = axes
        .job_at(index)
        .ok_or_else(|| format!("index {index} out of range (decoder bug)"))?;
    let digest = spec_digest(&job);
    Ok((job, digest))
}

/// A job's policy and spec digest: what its record's ID is made of.
type Named = (PolicySpec, u64);

/// What a worker returns for one job. No heap data once the job
/// succeeds, so results queued while the committer waits on an fsync
/// stay small.
enum Drawn {
    /// A cache hit: the committer takes the record from the spill.
    Hit,
    /// The job has the same run key as the earlier job at this index, so
    /// it was not executed: the committer copies that job's outcome.
    Repeat(Named, u64),
    /// The job ran; this is how its last attempt ended.
    Ran(Named, Result<JobMetrics, String>),
}

/// Job `index`'s record. The worker returns the policy and digest of a
/// job it ran or found repeated; a job whose every attempt failed
/// returned nothing, so only it is decoded here.
fn record(
    axes: &Axes<'_>,
    index: u64,
    named: Option<Named>,
    outcome: JobOutcome,
    attempts: u32,
) -> Result<GridJobRecord, String> {
    let (policy, digest) = match named {
        Some(named) => named,
        None => decode(axes, index).map(|(job, digest)| (job.policy, digest))?,
    };
    Ok(GridJobRecord {
        index,
        id: policy.job_id(index, digest),
        digest: digest_hex(digest),
        outcome,
        attempts,
    })
}

/// The records a previous run left for the shard whose first global
/// index is `lo`, by slot, where a record is kept iff its digest is
/// `wanted[slot]`: first from the promoted shard, then from a
/// crash-interrupted run's partial checkpoint, with the count the
/// checkpoint filled. Both are read to their maximal checksum-valid
/// prefix: torn tails never replay, and a damaged shard, or one in the
/// format before checksums, recomputes the rest. Each kept record's ID
/// is formatted afresh from its index, the policy digit and the digest.
/// Attempt counts replay with the outcome, so a resumed run folds the
/// same retry statistics as the run that computed them.
fn replay(
    axes: &Axes<'_>,
    dir: &Path,
    shard: u64,
    lo: u64,
    wanted: &[Option<NonZeroU64>],
) -> Result<(Vec<Option<GridJobRecord>>, u64), String> {
    let read = |path: PathBuf| path.is_file().then(|| read_partial(&path)).transpose();
    let promoted = read(dir.join(shard_file_name(shard)))?.unwrap_or_default();
    let partial = read(dir.join(partial_file_name(shard)))?.unwrap_or_default();
    let mut known = vec![None; wanted.len()];
    let mut fill = |record: GridJobRecord| {
        let slot = usize::try_from(record.index.wrapping_sub(lo)).unwrap_or(usize::MAX);
        let (Some(Some(digest)), Some(policy)) = (wanted.get(slot), axes.policy_at(record.index))
        else {
            return false;
        };
        if known[slot].is_some() || record.digest != digest_hex(digest.get()) {
            return false;
        }
        let id = policy.job_id(record.index, digest.get());
        known[slot] = Some(GridJobRecord { id, ..record });
        true
    };
    for record in promoted.records {
        fill(record);
    }
    let mut recovered = 0;
    for record in partial.records {
        recovered += u64::from(fill(record));
    }
    Ok((known, recovered))
}

/// Executes `spec` under `config` in one streaming pool call, spilling
/// records shard by shard, reusing digest-matching spill when
/// `config.resume` is set, and writing the deterministic
/// `aggregate.json` last.
///
/// # Errors
///
/// Returns a message when the spec fails validation or the run
/// directory cannot be written.
#[allow(
    clippy::disallowed_methods,
    reason = "times the run for `GridRun::wall_s`, never for aggregate.json"
)]
pub fn run(spec: &GridSpec, config: &GridConfig) -> Result<GridRun, String> {
    let axes = spec.axes();
    axes.validate()?;
    let start = Instant::now();
    let total = axes.len();
    let shard_size = config.shard_size.max(1);
    let shards = total.div_ceil(shard_size);
    let run_id = config.effective_run_id(spec);
    let dir = config.out_dir.join(&run_id);
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create run directory `{}`: {e}", dir.display()))?;
    let spec_json = serde_json::to_string_pretty(spec).unwrap_or_default();
    write_atomic(&dir.join("grid.json"), &spec_json)
        .map_err(|e| format!("cannot write grid.json in `{}`: {e}", dir.display()))?;
    clean_stale(&dir, shards, config.resume)?;
    let slots_of = |shard: u64| shard * shard_size..total.min((shard + 1) * shard_size);

    // Cache hits are decided before the first claim. Each resumed spec
    // is decoded and hashed once, here; the digest of every job a spill
    // record matches is kept (8 B per job; a zero digest never matches),
    // so a shard re-reads its spill without decoding again.
    let mut matched = Vec::new();
    let mut recovered_jobs = 0;
    for shard in (0..shards).filter(|_| config.resume) {
        let slots = slots_of(shard);
        let lo = slots.start;
        let digests = slots
            .map(|index| decode(&axes, index).map(|(_, digest)| NonZeroU64::new(digest)))
            .collect::<Result<Vec<_>, _>>()?;
        let (known, recovered) = replay(&axes, &dir, shard, lo, &digests)?;
        recovered_jobs += recovered;
        let kept = digests.into_iter().zip(known);
        matched.extend(kept.map(|(digest, record)| digest.filter(|_| record.is_some())));
    }
    let cache_hits = matched.iter().flatten().count() as u64;
    let matched: Arc<[Option<NonZeroU64>]> = matched.into();
    // A worker reports a hit, and a repeat of an earlier job's run key,
    // without executing it; it decodes and runs every other job itself.
    let grid = spec.clone();
    let hits = Arc::clone(&matched);
    let job = move |index: usize, attempt: u32| -> Result<Drawn, String> {
        if hits.get(index).is_some_and(Option::is_some) {
            return Ok(Drawn::Hit);
        }
        let axes = grid.axes();
        let (job, digest) = decode(&axes, index as u64)?;
        let first = axes.first_with_run_key(index as u64, &job);
        if first < index as u64 {
            return Ok(Drawn::Repeat((job.policy, digest), first));
        }
        let metrics = execute_attempt(&job, attempt);
        Ok(Drawn::Ran((job.policy, digest), metrics))
    };

    let mut rollup = Rollup::default();
    let mut spill = Spill {
        batch: config.checkpoint_batch,
        crash: config.crash_point,
        ..Spill::default()
    };
    // The open shard's replayed records, and the outcomes a repeat or
    // the rollup still needs.
    let mut replayed = Vec::new();
    let mut committed = Committed {
        reach: usize::try_from(axes.run_key_reach()).unwrap_or(usize::MAX),
        ..Committed::default()
    };
    let mut repeats = 0;
    let commit = |result: PoolResult<Result<Drawn, String>>| {
        let index = result.index as u64;
        let shard = index / shard_size;
        let slots = slots_of(shard);
        let slot = (index - slots.start) as usize;
        if slot == 0 {
            let wanted = usize::try_from(slots.start)
                .ok()
                .zip(usize::try_from(slots.end).ok())
                .and_then(|(lo, hi)| matched.get(lo..hi));
            replayed = match wanted {
                Some(wanted) => replay(&axes, &dir, shard, slots.start, wanted)?.0,
                None => Vec::new(),
            };
            spill.open(&dir, shard, &replayed)?;
        }
        let attempts = result.attempts;
        let (record, fresh) = match result.execution {
            Execution::Completed(Ok(Drawn::Hit)) => {
                let known = replayed.get_mut(slot).and_then(Option::take);
                let known = known.ok_or_else(|| format!("job {index}: no replayed record"))?;
                (known, false)
            }
            Execution::Completed(Ok(Drawn::Repeat(named, first))) => {
                let (outcome, attempts) = committed
                    .get(first)
                    .cloned()
                    .ok_or_else(|| format!("job {index}: job {first} is out of reach"))?;
                repeats += 1;
                (record(&axes, index, Some(named), outcome, attempts)?, true)
            }
            Execution::Completed(Ok(Drawn::Ran(named, metrics))) => {
                let outcome = Execution::Completed(metrics).into();
                (record(&axes, index, Some(named), outcome, attempts)?, true)
            }
            Execution::Completed(Err(message)) => return Err(message),
            Execution::Panicked(panic) => {
                let outcome = Execution::Panicked(panic).into();
                (record(&axes, index, None, outcome, attempts)?, true)
            }
            Execution::TimedOut => {
                let outcome = JobOutcome::TimedOut;
                (record(&axes, index, None, outcome, attempts)?, true)
            }
        };
        spill.put(shard, &record, fresh)?;
        committed.pairs.push((record.outcome, record.attempts));
        if index + 1 == slots.end {
            spill.promote(&dir, shard)?;
            committed.fold(&mut rollup, shard, slots.start);
        }
        Ok(())
    };
    let blocks = axes.scenario_runs();
    stream(&blocks, config.workers, None, &config.retry, job, commit)?;

    let aggregate = rollup.finish(spec, total, shard_size);
    write_atomic(&dir.join("aggregate.json"), &aggregate.to_pretty_json())
        .map_err(|e| format!("cannot write aggregate.json in `{}`: {e}", dir.display()))?;

    let wall_s = start.elapsed().as_secs_f64();
    Ok(GridRun {
        run_id,
        dir,
        cache_hits,
        recovered_jobs,
        recomputed: total - cache_hits,
        simulated: total - cache_hits - repeats,
        peak_resident_jobs: shard_size.min(total),
        checkpoint_commits: spill.commits,
        wall_s,
        jobs_per_sec_wall: if wall_s > 0.0 {
            total as f64 / wall_s
        } else {
            0.0
        },
        aggregate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::status;
    use crate::manifest::read_shard;
    use fcdpm_runner::{FaultPreset, PolicySpec, SeedAxis, SeedRange, WorkloadKind};
    use std::collections::BTreeMap;

    fn tiny_spec() -> GridSpec {
        let mut spec = GridSpec::new(
            SeedAxis::Range(SeedRange {
                start: 0xDAC0_2007,
                count: 2,
            }),
            vec![WorkloadKind::Experiment1],
            vec![PolicySpec::Conv, PolicySpec::FcDpm],
        );
        spec.faults = Some(vec![FaultPreset::None, FaultPreset::Starvation]);
        spec
    }

    fn config(tag: &str, shard_size: u64, resume: bool) -> GridConfig {
        GridConfig {
            workers: 2,
            shard_size,
            out_dir: std::env::temp_dir().join(format!("fcdpm-grid-engine-{tag}")),
            run_id: None,
            resume,
            ..GridConfig::default()
        }
    }

    fn wipe(config: &GridConfig) {
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }

    /// Every file in `dir`, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> BTreeMap<std::ffi::OsString, Vec<u8>> {
        let entries = std::fs::read_dir(dir)
            .expect("lists")
            .map(|e| e.expect("entry"));
        let read = |path| std::fs::read(path).expect("reads");
        entries.map(|e| (e.file_name(), read(e.path()))).collect()
    }

    #[test]
    fn run_spills_shards_and_aggregates() {
        let spec = tiny_spec();
        let cfg = config("basic", 3, false);
        wipe(&cfg);
        let run = run(&spec, &cfg).expect("runs");
        assert_eq!(run.recomputed, 8);
        assert_eq!(run.cache_hits, 0);
        assert!(run.peak_resident_jobs <= 3, "shard ceiling respected");
        assert_eq!(run.aggregate.jobs, 8);
        assert_eq!(run.aggregate.shards, 3, "8 jobs over shard_size 3");
        assert_eq!(run.aggregate.completed, 8);
        assert!(run.aggregate.total_fuel_as > 0.0);
        assert!(run.aggregate.fuel_p99_as >= run.aggregate.fuel_p50_as);
        assert!(run.aggregate.jobs_per_sec_nominal > 0.0);
        assert!(run.dir.join("grid.json").is_file());
        assert!(run.dir.join("aggregate.json").is_file());
        assert!(run.dir.join(shard_file_name(2)).is_file());
        let state = status(&run.dir).expect("status reads");
        assert!(state.is_complete());
        assert_eq!(state.records, 8);
        wipe(&cfg);
    }

    #[test]
    fn untouched_resume_is_all_cache_hits_and_byte_identical() {
        let spec = tiny_spec();
        let cfg = config("resume", 3, false);
        wipe(&cfg);
        let first = run(&spec, &cfg).expect("runs");
        let bytes = std::fs::read(first.dir.join("aggregate.json")).expect("reads");

        let again = run(
            &spec,
            &GridConfig {
                resume: true,
                ..cfg.clone()
            },
        )
        .expect("resumes");
        assert_eq!(again.recomputed, 0, "nothing changed, nothing recomputes");
        assert_eq!(again.cache_hits, 8);
        assert!((again.cache_hit_pct() - 100.0).abs() < f64::EPSILON);
        let resumed = std::fs::read(again.dir.join("aggregate.json")).expect("reads");
        assert_eq!(bytes, resumed, "aggregate.json is byte-identical");
        wipe(&cfg);
    }

    #[test]
    fn digest_change_recomputes_only_changed_jobs() {
        let spec = tiny_spec();
        let cfg = config("partial", 8, false);
        wipe(&cfg);
        let first = run(&spec, &cfg).expect("runs");
        assert_eq!(first.recomputed, 8);

        // Swap one policy: jobs sharing the run directory but with a
        // changed spec digest must recompute; the rest must not.
        let mut edited = spec.clone();
        edited.policies[1] = PolicySpec::Asap;
        let resumed = run(
            &edited,
            &GridConfig {
                resume: true,
                run_id: Some(first.run_id.clone()),
                ..cfg.clone()
            },
        )
        .expect("resumes");
        assert_eq!(resumed.recomputed, 4, "half the grid changed policy");
        assert_eq!(resumed.cache_hits, 4);

        // Hits and misses alternate inside the one shard, so its
        // checkpoint is out of slot order; the resumed directory must
        // still be exactly a fresh run's of the edited spec, with no
        // checkpoint or `.tmp` left behind.
        let fresh_cfg = config("partial-fresh", 8, false);
        wipe(&fresh_cfg);
        let fresh = run(&edited, &fresh_cfg).expect("runs");
        assert!(dir_bytes(&resumed.dir) == dir_bytes(&fresh.dir));
        wipe(&cfg);
        wipe(&fresh_cfg);
    }

    #[test]
    fn fresh_rerun_clears_stale_spill() {
        let spec = tiny_spec();
        let cfg = config("stale", 2, false);
        wipe(&cfg);
        let first = run(&spec, &cfg).expect("runs");
        assert_eq!(first.aggregate.shards, 4);

        // Re-run with a bigger shard size: old shard-00002/3 would be
        // stale; a fresh run must remove them.
        let wide = GridConfig {
            shard_size: 8,
            ..cfg.clone()
        };
        let second = run(&spec, &wide).expect("runs");
        assert_eq!(second.aggregate.shards, 1);
        assert!(!second.dir.join(shard_file_name(2)).is_file());
        let state = status(&second.dir).expect("status reads");
        assert_eq!(state.shards, 1);
        assert_eq!(state.records, 8);
        wipe(&cfg);
    }

    /// 2 seeds × 2 fault presets × 2 resilient settings × 2 policies:
    /// the 4 `faults: None, resilient: true` jobs repeat the unwrapped
    /// job two indices earlier, across a shard boundary at shard sizes 3
    /// and 5. Every record still equals a direct `execute` of its own
    /// spec, under its own ID and digest.
    #[test]
    fn repeats_copy_the_first_outcome_across_shard_boundaries() {
        let mut spec = tiny_spec();
        spec.resilient = Some(vec![false, true]);
        for (shard_size, batch) in [(3, 32), (5, 0), (16, 1)] {
            let mut cfg = config(&format!("repeats-{shard_size}"), shard_size, false);
            cfg.checkpoint_batch = batch;
            wipe(&cfg);
            let run = run(&spec, &cfg).expect("runs");
            assert_eq!((run.recomputed, run.simulated), (16, 12));
            for shard in 0..run.aggregate.shards {
                let path = run.dir.join(shard_file_name(shard));
                for record in read_shard(&path).expect("shard reads") {
                    let job = spec.job_at(record.index).expect("in range");
                    let digest = spec_digest(&job);
                    assert_eq!(record.id, job.id_from_digest(record.index, digest));
                    assert_eq!(record.digest, digest_hex(digest));
                    let want = JobOutcome::from(Execution::Completed(execute(&job)));
                    assert_eq!(record.outcome, want, "job {}", record.index);
                }
            }
            wipe(&cfg);
        }
    }

    #[test]
    fn invalid_spec_is_rejected_before_any_io() {
        let mut spec = tiny_spec();
        spec.policies.clear();
        let cfg = config("invalid", 2, false);
        wipe(&cfg);
        assert!(run(&spec, &cfg).is_err());
        assert!(!cfg.out_dir.exists(), "no run directory for invalid specs");
    }

    #[test]
    fn nominal_cost_model_is_fixed() {
        assert!((nominal_seconds(100, 0, 0) - 1e-3).abs() < 1e-12);
        assert!((nominal_seconds(0, 500, 500) - 1e-3).abs() < 1e-12);
        assert_eq!(nominal_seconds(0, 0, 0), 0.0);
    }

    /// Renames a promoted shard back to its partial checkpoint — the
    /// on-disk state a `kill -9` leaves when the shard finished
    /// checkpointing but was never promoted. With `torn`, the last
    /// record is half-written.
    fn demote_shard_to_partial(dir: &Path, shard: u64, torn: bool) {
        let partial = dir.join(partial_file_name(shard));
        std::fs::rename(dir.join(shard_file_name(shard)), &partial).expect("demotes");
        if torn {
            let bytes = std::fs::read(&partial).expect("reads");
            let body = &bytes[..bytes.len() - 1];
            let last = body
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |at| at + 1);
            let cut = last + (bytes.len() - last) / 2;
            std::fs::write(&partial, &bytes[..cut]).expect("tears");
        }
    }

    #[test]
    fn partial_checkpoint_resumes_as_cache_hits_with_identical_aggregate() {
        let spec = tiny_spec();
        let cfg = config("partial-resume", 3, false);
        wipe(&cfg);
        let first = run(&spec, &cfg).expect("runs");
        let bytes = std::fs::read(first.dir.join("aggregate.json")).expect("reads");
        demote_shard_to_partial(&first.dir, 1, false);

        let state = status(&first.dir).expect("status reads");
        assert_eq!(state.partial_shards, 1, "in-flight shard is visible");
        assert_eq!(state.checkpointed, 3, "all three records recoverable");
        assert_eq!(state.torn_lines, 0);

        let resumed = run(&spec, &config("partial-resume", 3, true)).expect("resumes");
        assert_eq!(resumed.recovered_jobs, 3, "partial replayed, not rerun");
        assert_eq!(resumed.recomputed, 0);
        assert_eq!(resumed.cache_hits, 8);
        let after = std::fs::read(resumed.dir.join("aggregate.json")).expect("reads");
        assert_eq!(bytes, after, "aggregate.json is byte-identical");
        assert!(
            !resumed.dir.join(partial_file_name(1)).exists(),
            "promoted shard retires its checkpoint"
        );
        wipe(&cfg);
    }

    #[test]
    fn partial_out_of_index_order_replays_fully() {
        let spec = tiny_spec();
        let cfg = config("unordered-resume", 8, false);
        wipe(&cfg);
        let first = run(&spec, &cfg).expect("runs");
        let shard_path = first.dir.join(shard_file_name(0));
        let shard_bytes = std::fs::read(&shard_path).expect("reads");
        let aggregate = std::fs::read(first.dir.join("aggregate.json")).expect("reads");

        // Resume keys checkpoint lines by index and digest, not by
        // position: demote the shard into a partial whose lines run
        // backwards.
        let mut records = read_shard(&shard_path).expect("shard reads");
        records.reverse();
        std::fs::remove_file(&shard_path).expect("shard removed");
        PartialShardWriter::create(&first.dir, 0)
            .and_then(|mut writer| writer.append(&records))
            .expect("writes partial");

        let resumed = run(&spec, &config("unordered-resume", 8, true)).expect("resumes");
        assert_eq!(
            resumed.recovered_jobs, 8,
            "every line replays, whatever its order"
        );
        assert_eq!(resumed.recomputed, 0);
        assert_eq!(std::fs::read(&shard_path).expect("reads"), shard_bytes);
        let after = std::fs::read(resumed.dir.join("aggregate.json")).expect("reads");
        assert_eq!(aggregate, after, "aggregate.json is byte-identical");
        wipe(&cfg);
    }

    #[test]
    fn torn_partial_tail_recomputes_only_the_lost_job() {
        let spec = tiny_spec();
        let cfg = config("torn-resume", 4, false);
        wipe(&cfg);
        let first = run(&spec, &cfg).expect("runs");
        let bytes = std::fs::read(first.dir.join("aggregate.json")).expect("reads");
        demote_shard_to_partial(&first.dir, 0, true);

        let state = status(&first.dir).expect("status reads");
        assert_eq!(state.checkpointed, 3, "valid prefix survives the tear");
        assert_eq!(state.torn_lines, 1, "the torn record is counted as lost");

        let resumed = run(&spec, &config("torn-resume", 4, true)).expect("resumes");
        assert_eq!(resumed.recovered_jobs, 3);
        assert_eq!(resumed.recomputed, 1, "only the torn record reruns");
        assert_eq!(resumed.cache_hits, 7);
        let after = std::fs::read(resumed.dir.join("aggregate.json")).expect("reads");
        assert_eq!(bytes, after, "aggregate.json is byte-identical");
        wipe(&cfg);
    }

    #[test]
    fn injected_panic_recovers_under_retry_and_aggregate_records_it() {
        let mut spec = tiny_spec();
        spec.inject_panic = Some(true);
        let mut cfg = config("retry", 8, false);
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            backoff: std::time::Duration::ZERO,
        };
        wipe(&cfg);
        let run_result = run(&spec, &cfg).expect("runs");
        assert_eq!(run_result.aggregate.completed, 8, "transient faults clear");
        assert_eq!(run_result.aggregate.retried, 8, "every job needed a retry");
        assert_eq!(run_result.aggregate.quarantined, 0);
        wipe(&cfg);
    }

    #[test]
    fn rollup_quarantines_jobs_that_exhaust_their_attempts() {
        let mut rollup = Rollup::default();
        rollup.fold_shard(
            0,
            &[
                (JobOutcome::Failed("always broken".into()), 3),
                (JobOutcome::TimedOut, 3),
                (JobOutcome::Failed("first try".into()), 1),
            ],
        );
        assert_eq!(rollup.totals.retried, 0, "no retried success here");
        assert_eq!(
            rollup.totals.quarantined, 2,
            "multi-attempt non-completions quarantine; single-attempt failures do not"
        );
    }

    #[test]
    fn checkpointing_does_not_change_results() {
        let spec = tiny_spec();
        let with_ckpt = config("ckpt-on", 4, false);
        let mut without = config("ckpt-off", 4, false);
        without.checkpoint_batch = 0;
        wipe(&with_ckpt);
        wipe(&without);
        let a = run(&spec, &with_ckpt).expect("runs");
        let b = run(&spec, &without).expect("runs");
        let a_bytes = std::fs::read(a.dir.join("aggregate.json")).expect("reads");
        let b_bytes = std::fs::read(b.dir.join("aggregate.json")).expect("reads");
        assert_eq!(a_bytes, b_bytes, "checkpointing is invisible in results");
        wipe(&with_ckpt);
        wipe(&without);
    }
}
