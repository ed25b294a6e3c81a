//! The sharded streaming executor: bounded memory, spill, resume.
//!
//! [`run`] lowers a [`GridSpec`] once into the runner's job-grid
//! decoder ([`fcdpm_runner::Axes`]) and walks it shard by shard. Per
//! shard it decodes at most `shard_size` specs (the only job state ever
//! resident) and hashes each once — the digest keys the cache and the
//! job ID is formatted from it — checks each digest against any
//! previously spilled record, executes the misses in one streaming call
//! on the [`fcdpm_runner::pool`] worker pool, streams the shard's
//! records in index order into `shard-NNNNN.jsonl`, folds them into the
//! run aggregate, and drops everything before moving on. A 100k-job grid therefore peaks at
//! `shard_size` resident jobs plus two `f64` columns (fuel and
//! deficit-time per completed job, 8 B each) kept for the p50/p99
//! quantiles.
//!
//! Resume is digest-keyed, not timestamp-keyed: a record is reused iff
//! the spec decoded at its index hashes to the digest stored on disk.
//! Re-running an untouched grid recomputes zero jobs; editing one axis
//! value recomputes exactly the jobs whose specs changed.
//!
//! The [`GridAggregate`] written to `aggregate.json` is deliberately
//! free of wall-clock or cache statistics, so a fresh run and a fully
//! cached resume of the same grid produce byte-identical aggregates —
//! CI diffs them directly. Timings live only on the returned
//! [`GridRun`].
//!
//! # Crash safety
//!
//! The calling thread is the committer. It checkpoints a shard's
//! replayed records to `shard-NNNNN.partial.jsonl` as one fsync'd batch
//! first; then the pool hands it each fresh result in index order, and
//! it encodes the record's JSON once, appends `checksum\t` + that JSON,
//! and fsyncs every [`GridConfig::checkpoint_batch`] records while the
//! workers keep computing. Resume keys lines by index and digest, not
//! by position. A `kill -9` loses only the records not yet in an
//! fsync'd batch (at most the open batch, one shard's results waiting
//! behind a slower earlier job, and the running jobs): `resume` replays
//! every checksum-valid line of the checkpoint's maximal valid prefix
//! as a cache hit (surfaced as [`GridRun::recovered_jobs`]) and
//! recomputes only the rest. The same JSON lines go, slot by slot, into
//! `shard-NNNNN.jsonl.tmp`, renamed into place when the shard
//! completes; that promotion and every whole-file artifact
//! (`grid.json`, `aggregate.json`) go through
//! [`fcdpm_runner::AtomicFile`], so no reader ever observes a torn
//! committed artifact. The [`CrashPoint`]
//! hooks exist solely so the integration harness can kill the process
//! at each of these moments deterministically.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fcdpm_runner::pool::{stream, RetryPolicy};
use fcdpm_runner::{execute, spec_digest, write_atomic, JobMetrics, JobOutcome, JobSpec};
use serde::{Deserialize, Serialize};

use crate::gen::GridSpec;
use crate::manifest::{
    digest_hex, encode_record, partial_file_name, read_partial, read_shard, shard_file_name,
    GridJobRecord, PartialShardWriter, ShardWriter,
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
}

impl std::str::FromStr for CrashPoint {
    type Err = String;

    /// Parses `after-job:N`, `before-promote:N` or `mid-write:N` — the
    /// spelling the crash harness and the CI kill-resume gate use.
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
    /// while the workers run (0 disables mid-shard
    /// checkpointing: a kill then loses the whole in-flight shard,
    /// exactly the pre-checkpointing behavior).
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Jobs actually executed this invocation.
    pub recomputed: u64,
    /// Largest number of jobs resident at once (≤ shard size).
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

/// Streaming accumulator for the deterministic aggregate: scalar sums
/// plus the two quantile columns (structure of arrays, not a
/// `Vec<JobMetrics>`).
#[derive(Debug, Default)]
struct Rollup {
    completed: u64,
    failed: u64,
    timed_out: u64,
    retried: u64,
    quarantined: u64,
    total_fuel_as: f64,
    total_deficit_time_s: f64,
    total_sim_time_s: f64,
    stack_current_sum_a: f64,
    chunks_stepped: u64,
    chunks_coalesced: u64,
    policy_consultations: u64,
    fuel_column: Vec<f64>,
    deficit_column: Vec<f64>,
    per_shard: Vec<ShardSummary>,
}

impl Rollup {
    /// Folds one shard's `(outcome, attempts)` pairs, in index order.
    fn fold_shard(&mut self, shard: u64, records: &[(JobOutcome, u32)]) {
        let mut summary = ShardSummary {
            shard,
            jobs: records.len() as u64,
            completed: 0,
            failed: 0,
            timed_out: 0,
            fuel_as: 0.0,
            deficit_time_s: 0.0,
        };
        for (outcome, attempts) in records {
            if *attempts > 1 {
                // Attempt counts fold deterministically: retries are
                // driven by the spec (the inject-panic fixture), never
                // by scheduling, so resumes reproduce them.
                if matches!(outcome, JobOutcome::Completed(_)) {
                    self.retried += 1;
                } else {
                    self.quarantined += 1;
                }
            }
            match outcome {
                JobOutcome::Completed(m) => {
                    summary.completed += 1;
                    summary.fuel_as += m.fuel_as;
                    summary.deficit_time_s += m.deficit_time_s;
                    self.total_sim_time_s += m.duration_s;
                    self.stack_current_sum_a += m.mean_stack_current_a;
                    self.chunks_stepped += m.chunks_stepped;
                    self.chunks_coalesced += m.chunks_coalesced;
                    self.policy_consultations += m.policy_consultations;
                    self.fuel_column.push(m.fuel_as);
                    self.deficit_column.push(m.deficit_time_s);
                }
                JobOutcome::Failed(_) => summary.failed += 1,
                JobOutcome::TimedOut => summary.timed_out += 1,
            }
        }
        self.completed += summary.completed;
        self.failed += summary.failed;
        self.timed_out += summary.timed_out;
        self.total_fuel_as += summary.fuel_as;
        self.total_deficit_time_s += summary.deficit_time_s;
        self.per_shard.push(summary);
    }

    fn finish(self, spec: &GridSpec, jobs: u64, shard_size: u64) -> GridAggregate {
        let nominal = nominal_seconds(
            self.chunks_stepped,
            self.chunks_coalesced,
            self.policy_consultations,
        );
        GridAggregate {
            schema: "fcdpm-grid/2".to_owned(),
            spec_digest: digest_hex(spec.digest()),
            jobs,
            shards: self.per_shard.len() as u64,
            shard_size,
            completed: self.completed,
            failed: self.failed,
            timed_out: self.timed_out,
            retried: self.retried,
            quarantined: self.quarantined,
            total_fuel_as: self.total_fuel_as,
            fuel_p50_as: quantile(&self.fuel_column, 0.50),
            fuel_p99_as: quantile(&self.fuel_column, 0.99),
            total_deficit_time_s: self.total_deficit_time_s,
            deficit_p50_s: quantile(&self.deficit_column, 0.50),
            deficit_p99_s: quantile(&self.deficit_column, 0.99),
            mean_stack_current_a: if self.completed == 0 {
                0.0
            } else {
                self.stack_current_sum_a / self.completed as f64
            },
            total_sim_time_s: self.total_sim_time_s,
            chunks_stepped: self.chunks_stepped,
            chunks_coalesced: self.chunks_coalesced,
            policy_consultations: self.policy_consultations,
            jobs_per_sec_nominal: if nominal > 0.0 {
                jobs as f64 / nominal
            } else {
                0.0
            },
            per_shard: self.per_shard,
        }
    }
}

/// Parses the shard index out of a spill file name, final
/// (`shard-NNNNN.jsonl`) or partial (`shard-NNNNN.partial.jsonl`).
pub(crate) fn shard_index_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("shard-")?
        .strip_suffix(".jsonl")?
        .trim_end_matches(".partial")
        .parse::<u64>()
        .ok()
}

/// Removes spill that must not leak into this run: on a fresh run every
/// old shard and checkpoint, on a resume only those past the current
/// shard count.
fn clean_stale(dir: &Path, shards: u64, resume: bool) -> Result<(), String> {
    let mut spill = crate::manifest::shard_files(dir)?;
    spill.extend(crate::manifest::partial_files(dir)?);
    for path in spill {
        let keep = resume && shard_index_of(&path).is_some_and(|n| n < shards);
        if !keep {
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove stale `{}`: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The checkpoint stream for one invocation: owns the per-shard partial
/// writer, the invocation-wide checkpointed-job and commit counters,
/// and the crash-injection hooks (which fire *inside* the commit path,
/// so the on-disk state at the abort instant is exactly what a kill
/// would leave).
struct Checkpointer {
    writer: Option<PartialShardWriter>,
    crash: Option<CrashPoint>,
    appended: u64,
    /// Commits that wrote pending lines — one `sync_data` each.
    commits: u64,
}

impl Checkpointer {
    fn open(&mut self, dir: &Path, shard: u64, batch: u64) -> Result<(), String> {
        self.writer = if batch > 0 {
            Some(PartialShardWriter::create(dir, shard)?)
        } else {
            None
        };
        Ok(())
    }

    /// Buffers one record's line; `AfterJob(n)` commits and dies once
    /// the n-th line of the invocation is in.
    fn push(&mut self, json: &str) -> Result<(), String> {
        let Some(writer) = self.writer.as_mut() else {
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

    /// Lines buffered since the last commit.
    fn pending(&self) -> u64 {
        self.writer.as_ref().map_or(0, PartialShardWriter::pending)
    }

    /// Writes and fsyncs the buffered lines as one batch.
    fn commit(&mut self, shard: u64) -> Result<(), String> {
        let Some(writer) = self.writer.as_mut() else {
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

    fn before_promote(&self, shard: u64) {
        if self.crash == Some(CrashPoint::BeforeShardPromote(shard)) {
            std::process::abort();
        }
    }

    /// Drops the writer and removes the shard's checkpoint file, if
    /// any — the shard has been promoted, so the partial is now
    /// redundant. With checkpointing off there is no writer, but a
    /// resume may still have replayed a crashed run's partial.
    fn retire(&mut self, dir: &Path, shard: u64) -> Result<(), String> {
        self.writer = None;
        let path = dir.join(partial_file_name(shard));
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("cannot remove `{}`: {e}", path.display()))
            }
            _ => Ok(()),
        }
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

/// Executes `spec` under `config`: shard by shard, spilling records,
/// reusing digest-matching spill when `config.resume` is set, and
/// writing the deterministic `aggregate.json` last.
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

    let mut rollup = Rollup::default();
    let mut cache_hits = 0u64;
    let mut recovered_jobs = 0u64;
    let mut recomputed = 0u64;
    let mut peak_resident_jobs = 0u64;
    let mut checkpointer = Checkpointer {
        writer: None,
        crash: config.crash_point,
        appended: 0,
        commits: 0,
    };

    for shard in 0..shards {
        let lo = shard * shard_size;
        let hi = (lo + shard_size).min(total);

        // The shard's job state, structure-of-arrays style: parallel
        // columns indexed by slot, never a Vec of whole-job rows.
        let mut specs = Vec::with_capacity(usize::try_from(hi - lo).unwrap_or(0));
        let mut digests = Vec::with_capacity(specs.capacity());
        for index in lo..hi {
            let job = axes
                .job_at(index)
                .ok_or_else(|| format!("index {index} out of range (decoder bug)"))?;
            digests.push(spec_digest(&job));
            specs.push(job);
        }
        peak_resident_jobs = peak_resident_jobs.max(specs.len() as u64);

        // Digest-keyed reuse: first from a promoted shard of a previous
        // run, then from a crash-interrupted run's partial checkpoint
        // (its maximal checksum-valid prefix — torn tails never replay).
        // Attempt counts replay with the outcome, so a resumed run folds
        // the same retry statistics as the run that computed them.
        let mut outcomes: Vec<Option<(JobOutcome, u32)>> = vec![None; specs.len()];
        let replay =
            |record: GridJobRecord, outcomes: &mut Vec<Option<(JobOutcome, u32)>>| -> bool {
                let Some(slot) = record.index.checked_sub(lo) else {
                    return false;
                };
                let Ok(slot) = usize::try_from(slot) else {
                    return false;
                };
                if slot < outcomes.len()
                    && outcomes[slot].is_none()
                    && record.digest == digest_hex(digests[slot])
                {
                    outcomes[slot] = Some((record.outcome, record.attempts));
                    return true;
                }
                false
            };
        if config.resume {
            let shard_path = dir.join(shard_file_name(shard));
            if shard_path.is_file() {
                for record in read_shard(&shard_path)? {
                    replay(record, &mut outcomes);
                }
            }
            let partial_path = dir.join(partial_file_name(shard));
            if partial_path.is_file() {
                for record in read_partial(&partial_path)?.records {
                    if replay(record, &mut outcomes) {
                        recovered_jobs += 1;
                    }
                }
            }
        }

        let misses: Vec<usize> = (0..specs.len())
            .filter(|&s| outcomes[s].is_none())
            .collect();
        cache_hits += (specs.len() - misses.len()) as u64;
        recomputed += misses.len() as u64;

        let specs: Arc<[JobSpec]> = specs.into();
        let record_at = |slot: usize, outcome: JobOutcome, attempts: u32| {
            let index = lo + slot as u64;
            GridJobRecord {
                index,
                id: specs[slot].id_from_digest(index, digests[slot]),
                digest: digest_hex(digests[slot]),
                outcome,
                attempts,
            }
        };

        // Open the shard's checkpoint and persist the replayed records
        // first, as one batch, so a crash during the fresh work below
        // never loses what was already known. Each record is encoded
        // once, on this thread; the same line goes to the checkpoint
        // now and to the promoted shard when its slot comes up.
        checkpointer.open(&dir, shard, config.checkpoint_batch)?;
        let mut replayed: Vec<Option<String>> = vec![None; specs.len()];
        for (slot, known) in outcomes.iter_mut().enumerate() {
            if let Some((outcome, attempts)) = known.take() {
                let record = record_at(slot, outcome, attempts);
                let line = encode_record(&record)?;
                checkpointer.push(&line)?;
                replayed[slot] = Some(line);
                *known = Some((record.outcome, record.attempts));
            }
        }
        checkpointer.commit(shard)?;

        // Execute the misses in one streaming pool call under the retry
        // policy. Results arrive here in index order while the workers
        // keep computing; every `checkpoint_batch` of them is committed
        // as one fsync'd batch, and each goes into the shard after the
        // replayed lines of the slots before it.
        let mut promoted = ShardWriter::create(&dir, shard)?;
        let jobs: Vec<_> = misses
            .iter()
            .map(|&slot| {
                let specs = Arc::clone(&specs);
                move |attempt: u32| execute_attempt(&specs[slot], attempt)
            })
            .collect();
        stream(
            jobs,
            config.workers,
            None,
            &config.retry,
            |result| -> Result<(), String> {
                let slot = misses[result.index];
                let record = record_at(slot, result.execution.into(), result.attempts);
                let line = encode_record(&record)?;
                checkpointer.push(&line)?;
                if checkpointer.pending() >= config.checkpoint_batch {
                    checkpointer.commit(shard)?;
                }
                promoted.put_replayed(&mut replayed)?;
                promoted.put(slot, &line)?;
                outcomes[slot] = Some((record.outcome, record.attempts));
                Ok(())
            },
        )?;
        checkpointer.commit(shard)?;
        promoted.put_replayed(&mut replayed)?;

        // Promote the shard (atomic tmp+rename; it fails unless every
        // slot arrived), retire its checkpoint, fold it in index order,
        // drop it.
        checkpointer.before_promote(shard);
        promoted.finish(specs.len())?;
        checkpointer.retire(&dir, shard)?;
        let folded: Vec<(JobOutcome, u32)> = outcomes.into_iter().flatten().collect();
        rollup.fold_shard(shard, &folded);
    }

    let aggregate = rollup.finish(spec, total, shard_size);
    write_atomic(&dir.join("aggregate.json"), &aggregate.to_pretty_json())
        .map_err(|e| format!("cannot write aggregate.json in `{}`: {e}", dir.display()))?;

    let wall_s = start.elapsed().as_secs_f64();
    Ok(GridRun {
        run_id,
        dir,
        cache_hits,
        recovered_jobs,
        recomputed,
        peak_resident_jobs,
        checkpoint_commits: checkpointer.commits,
        wall_s,
        jobs_per_sec_wall: if wall_s > 0.0 {
            total as f64 / wall_s
        } else {
            0.0
        },
        aggregate,
    })
}

/// Parses a run directory's `grid.json`; the error names the file.
pub(crate) fn read_spec(dir: &Path) -> Result<GridSpec, String> {
    let path = dir.join("grid.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("`{}` does not parse as a GridSpec: {e}", path.display()))
}

/// What `fcdpm grid status` reports about a run directory on disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridStatus {
    /// Run directory name.
    pub run_id: String,
    /// Jobs the stored `grid.json` expands to.
    pub expected_jobs: u64,
    /// Records present across shard files.
    pub records: u64,
    /// Completed records.
    pub completed: u64,
    /// Failed records.
    pub failed: u64,
    /// Timed-out records.
    pub timed_out: u64,
    /// Shard files present.
    pub shards: u64,
    /// In-flight partial checkpoints present (`shard-*.partial.jsonl`).
    pub partial_shards: u64,
    /// Checksum-valid records recoverable from partial checkpoints.
    pub checkpointed: u64,
    /// Torn line fragments past the valid prefix of partial checkpoints
    /// — work a crashed run lost mid-write and will recompute.
    pub torn_lines: u64,
    /// Whether `aggregate.json` has been written.
    pub has_aggregate: bool,
}

impl GridStatus {
    /// True when every expected record is on disk and aggregated.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.has_aggregate && self.records == self.expected_jobs
    }
}

/// Inspects a run directory without executing anything: parses its
/// `grid.json`, streams the shard files, and counts outcomes.
///
/// # Errors
///
/// Returns a message when the directory or its `grid.json` is
/// unreadable.
pub fn status(dir: &Path) -> Result<GridStatus, String> {
    let spec = read_spec(dir)?;
    let mut state = GridStatus {
        run_id: dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("<unnamed>")
            .to_owned(),
        expected_jobs: spec.total_jobs(),
        records: 0,
        completed: 0,
        failed: 0,
        timed_out: 0,
        shards: 0,
        partial_shards: 0,
        checkpointed: 0,
        torn_lines: 0,
        has_aggregate: dir.join("aggregate.json").is_file(),
    };
    for path in crate::manifest::shard_files(dir)? {
        state.shards += 1;
        for record in read_shard(&path)? {
            state.records += 1;
            match record.outcome {
                JobOutcome::Completed(_) => state.completed += 1,
                JobOutcome::Failed(_) => state.failed += 1,
                JobOutcome::TimedOut => state.timed_out += 1,
            }
        }
    }
    // An in-flight shard's checkpoint is progress, not absence: count
    // what a resume would replay and what a tear lost.
    for path in crate::manifest::partial_files(dir)? {
        let partial = read_partial(&path)?;
        state.partial_shards += 1;
        state.checkpointed += partial.records.len() as u64;
        state.torn_lines += partial.torn_lines;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcdpm_runner::{FaultPreset, PolicySpec, SeedAxis, SeedRange, WorkloadKind};

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

        // Hits and misses alternate inside the one shard; the resumed
        // files must still be exactly a fresh run's of the edited spec.
        let fresh_cfg = config("partial-fresh", 8, false);
        wipe(&fresh_cfg);
        let fresh = run(&edited, &fresh_cfg).expect("runs");
        for name in [shard_file_name(0).as_str(), "aggregate.json"] {
            assert_eq!(
                std::fs::read(resumed.dir.join(name)).expect("reads"),
                std::fs::read(fresh.dir.join(name)).expect("reads"),
                "{name} is byte-identical to a fresh run"
            );
        }
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

    /// Replaces a promoted shard with a partial checkpoint holding the
    /// same records — the on-disk state a `kill -9` leaves when the
    /// shard finished checkpointing but was never promoted. With
    /// `torn`, the last record is half-written.
    fn demote_shard_to_partial(dir: &Path, shard: u64, torn: bool) {
        let records = read_shard(&dir.join(shard_file_name(shard))).expect("shard reads");
        std::fs::remove_file(dir.join(shard_file_name(shard))).expect("shard removed");
        let mut writer = crate::manifest::PartialShardWriter::create(dir, shard).expect("creates");
        if torn {
            let (head, tail) = records.split_at(records.len() - 1);
            writer.append(head).expect("appends");
            writer.append_torn(&tail[0]).expect("tears");
        } else {
            writer.append(&records).expect("appends");
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
        assert_eq!(rollup.retried, 0, "no retried success here");
        assert_eq!(
            rollup.quarantined, 2,
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
