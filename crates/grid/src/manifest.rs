//! Chunked manifest spill: the on-disk record stream of a grid run.
//!
//! A grid run's job records live in `shard-NNNNN.jsonl` files under the
//! run directory — one compact JSON record per line, ordered by global
//! job index — so a million-job run is never resident at once: writers
//! spill one shard at a time and readers stream line by line.
//!
//! Records deliberately carry *no spec*: the spec is reconstructable
//! from the [`GridSpec`](crate::GridSpec) plus the index, and *no
//! scheduling metadata* (wall time, worker), so shard bytes are
//! identical across runs and worker counts — resume diffs them
//! directly.
//!
//! While a shard is in flight, completed records stream into an
//! append-only `shard-NNNNN.partial.jsonl` checkpoint, in completion
//! order: each line is `<16-hex FNV-1a of the JSON>\t<JSON>\n`, written
//! in fsync'd batches by [`PartialShardWriter`]. A `kill -9` mid-shard
//! can therefore tear at most the last batch's tail; [`read_partial`]
//! recovers the maximal checksum-valid prefix and resume replays it as
//! cache hits. The same JSON ([`encode_record`], rendered once per
//! record) streams in index order through a `ShardWriter` into
//! `shard-NNNNN.jsonl.tmp`, which is renamed into place when the shard
//! completes; then the partial file is removed.
//!
//! [`for_each_record`] is the one reader. It also migrates the legacy
//! single-file [`RunManifest`](fcdpm_runner::RunManifest) format that
//! `fcdpm batch` writes: pointing it at a `*.json` manifest yields the
//! same record stream, with digests recomputed from the embedded specs.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};

use fcdpm_runner::{JobOutcome, RunManifest};
use serde::{Deserialize, Serialize};

use crate::gen::spec_digest;

/// One job's record in a shard file: identity, cache key and outcome —
/// nothing scheduling-dependent, nothing reconstructable from the spec.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GridJobRecord {
    /// Global index in the expanded grid.
    pub index: u64,
    /// Deterministic job ID (index + spec digest).
    pub id: String,
    /// Full 64-bit FNV-1a spec digest, as 16 hex digits — the
    /// incremental-run cache key.
    pub digest: String,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Executions the job took under the retry policy (1 = first try).
    pub attempts: u32,
}

// Hand-written so shard lines written before retry accounting existed
// (no `attempts` key) still parse: a missing count means the job ran
// exactly once.
impl Deserialize for GridJobRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom(format!("expected object, got {}", v.kind())))?;
        Ok(Self {
            index: serde::field(m, "index")?,
            id: serde::field(m, "id")?,
            digest: serde::field(m, "digest")?,
            outcome: serde::field(m, "outcome")?,
            attempts: serde::field::<Option<u32>>(m, "attempts")?.unwrap_or(1),
        })
    }
}

/// Renders a 64-bit digest as the 16-hex-digit on-disk form.
#[must_use]
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// The shard file name for shard `shard` (zero-padded so lexicographic
/// directory order is shard order).
#[must_use]
pub fn shard_file_name(shard: u64) -> String {
    format!("shard-{shard:05}.jsonl")
}

/// The in-flight checkpoint file name for shard `shard`.
#[must_use]
pub fn partial_file_name(shard: u64) -> String {
    format!("shard-{shard:05}.partial.jsonl")
}

/// Writes `contents` to `path` atomically: a sibling `.tmp` file is
/// written, flushed, and renamed into place, so readers never observe a
/// half-written artifact. This is the one sanctioned way to produce a
/// whole-file artifact inside a run directory — the `atomic-artifact`
/// analyze rule flags raw `fs::write` calls there.
///
/// # Errors
///
/// Returns a message for I/O failures.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot move `{}` into place: {e}", path.display()))
}

/// Renders one record as the compact JSON both the checkpoint line and
/// the promoted shard line carry — the one encoding a record gets.
///
/// # Errors
///
/// Returns a message when the record does not serialize.
pub fn encode_record(record: &GridJobRecord) -> Result<String, String> {
    serde_json::to_string(record)
        .map_err(|e| format!("record {} does not serialize: {e}", record.index))
}

/// Append-only writer for a shard's in-flight checkpoint file.
///
/// Lines are buffered one per record, in whatever order the caller
/// produces them; each commit ([`append`](Self::append) is one) writes
/// the buffered lines and fsyncs, so after a `kill -9` the file holds
/// every previously committed batch intact plus at most one torn tail.
#[derive(Debug)]
pub struct PartialShardWriter {
    path: PathBuf,
    file: File,
    /// Checkpoint lines pushed since the last commit.
    buffered: String,
    /// How many lines `buffered` holds.
    lines: u64,
    /// Byte offset in `buffered` where its last line starts.
    last_line: usize,
}

impl PartialShardWriter {
    /// Creates (truncating) the checkpoint file for `shard` under `dir`.
    ///
    /// Call [`read_partial`] *before* this: creation truncates whatever
    /// a previous invocation left behind.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures.
    pub fn create(dir: &Path, shard: u64) -> Result<Self, String> {
        let path = dir.join(partial_file_name(shard));
        let file =
            File::create(&path).map_err(|e| format!("cannot create `{}`: {e}", path.display()))?;
        Ok(Self {
            path,
            file,
            buffered: String::new(),
            lines: 0,
            last_line: 0,
        })
    }

    /// The checkpoint file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Buffers one record's checkpoint line,
    /// `<16-hex FNV-1a of the JSON>\t<JSON>\n`, where `json` is the
    /// record's [`encode_record`] form. The checksum covers exactly the
    /// JSON bytes, so a torn tail (or a bit flip) fails validation and
    /// [`read_partial`] stops there.
    pub(crate) fn push(&mut self, json: &str) {
        self.last_line = self.buffered.len();
        self.buffered
            .push_str(&digest_hex(fcdpm_runner::spec::fnv1a(json.as_bytes())));
        self.buffered.push('\t');
        self.buffered.push_str(json);
        self.buffered.push('\n');
        self.lines += 1;
    }

    /// Lines pushed since the last commit.
    pub(crate) fn pending(&self) -> u64 {
        self.lines
    }

    /// Writes every pushed line and fsyncs (a no-op with none pending).
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures.
    pub(crate) fn commit(&mut self) -> Result<(), String> {
        if self.lines == 0 {
            return Ok(());
        }
        self.write_synced(self.buffered.len())
    }

    /// Appends one fsync'd batch of checksummed record lines.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O or serialization failures.
    pub fn append(&mut self, records: &[GridJobRecord]) -> Result<(), String> {
        for record in records {
            self.push(&encode_record(record)?);
        }
        self.commit()
    }

    /// Commits every pushed line but the *back half* of the last one —
    /// no newline, no complete checksum payload. Crash-injection only:
    /// this simulates the torn tail a `kill -9` mid-batch leaves behind.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures.
    pub(crate) fn commit_torn(&mut self) -> Result<(), String> {
        let last = self.buffered.len() - self.last_line;
        self.write_synced(self.last_line + last / 2)
    }

    /// Appends `record`'s line torn: every line buffered before it
    /// intact, then the front half of its own. Crash-injection only.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O or serialization failures.
    #[doc(hidden)]
    pub fn append_torn(&mut self, record: &GridJobRecord) -> Result<(), String> {
        self.push(&encode_record(record)?);
        self.commit_torn()
    }

    /// Writes the first `len` buffered bytes, fsyncs, and empties the
    /// buffer.
    fn write_synced(&mut self, len: usize) -> Result<(), String> {
        let written = self
            .file
            .write_all(&self.buffered.as_bytes()[..len])
            .and_then(|()| self.file.sync_data());
        self.buffered.clear();
        self.lines = 0;
        self.last_line = 0;
        written.map_err(|e| format!("cannot checkpoint `{}`: {e}", self.path.display()))
    }
}

/// What [`read_partial`] recovered from a checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialRead {
    /// Records in the maximal checksum-valid prefix, file order.
    pub records: Vec<GridJobRecord>,
    /// Bytes making up that valid prefix.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (0 = the file is clean).
    pub torn_bytes: u64,
    /// Line fragments past the valid prefix (≥ 1 whenever torn).
    pub torn_lines: u64,
}

/// Validating reader for a `shard-NNNNN.partial.jsonl` checkpoint:
/// returns the maximal prefix of lines whose per-line checksum matches
/// their JSON payload, and accounts for whatever torn tail follows.
/// Never yields a torn record — a line is either checksum-valid and
/// parsed whole, or it (and everything after it) is counted as torn.
///
/// # Errors
///
/// Returns a message when the file cannot be read (a *torn* file is not
/// an error — that is the case this reader exists for).
pub fn read_partial(path: &Path) -> Result<PartialRead, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let mut read = PartialRead {
        records: Vec::new(),
        valid_bytes: 0,
        torn_bytes: 0,
        torn_lines: 0,
    };
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let line_end = rest.iter().position(|&b| b == b'\n');
        let line = &rest[..line_end.unwrap_or(rest.len())];
        let consumed = line.len() + usize::from(line_end.is_some());
        let record = validate_line(line);
        let Some(record) = record else { break };
        read.records.push(record);
        offset += consumed;
    }
    read.valid_bytes = offset as u64;
    read.torn_bytes = (bytes.len() - offset) as u64;
    read.torn_lines = bytes[offset..]
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count() as u64;
    Ok(read)
}

/// Parses one checkpoint line if (and only if) its checksum matches.
fn validate_line(line: &[u8]) -> Option<GridJobRecord> {
    let text = std::str::from_utf8(line).ok()?;
    let (sum, json) = text.split_once('\t')?;
    if sum.len() != 16 || sum != digest_hex(fcdpm_runner::spec::fnv1a(json.as_bytes())) {
        return None;
    }
    serde_json::from_str(json).ok()
}

/// Checkpoint files under `dir`, in shard order.
///
/// # Errors
///
/// Returns a message when the directory cannot be listed.
pub fn partial_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    list_matching(dir, |name| {
        name.starts_with("shard-") && name.ends_with(".partial.jsonl")
    })
}

/// Directory entries whose file name satisfies `keep`, sorted.
fn list_matching(dir: &Path, keep: impl Fn(&str) -> bool) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list `{}`: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list `{}`: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if keep(name) {
            files.push(entry.path());
        }
    }
    files.sort();
    Ok(files)
}

/// Streaming writer for a promoted shard file.
///
/// Records arrive as encoded lines in any order, keyed by their slot
/// (index within the shard); lines go out in slot order, so a line that
/// arrives early waits in a small reorder buffer until the slots before
/// it have been written. The file is written as `shard-NNNNN.jsonl.tmp`
/// and renamed into place by [`finish`](Self::finish), so a crashed run
/// never leaves a half shard behind.
#[derive(Debug)]
pub(crate) struct ShardWriter {
    tmp: PathBuf,
    path: PathBuf,
    out: BufWriter<File>,
    /// The next slot to write.
    next: usize,
    /// Lines that arrived ahead of `next`, keyed by slot.
    ahead: BTreeMap<usize, String>,
}

impl ShardWriter {
    /// Creates (truncating) the temporary file for `shard` under `dir`.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures.
    pub(crate) fn create(dir: &Path, shard: u64) -> Result<Self, String> {
        let path = dir.join(shard_file_name(shard));
        let tmp = dir.join(format!("{}.tmp", shard_file_name(shard)));
        let file =
            File::create(&tmp).map_err(|e| format!("cannot create `{}`: {e}", tmp.display()))?;
        Ok(Self {
            tmp,
            path,
            out: BufWriter::new(file),
            next: 0,
            ahead: BTreeMap::new(),
        })
    }

    /// Takes the encoded line (no newline) of the record in `slot`.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures.
    pub(crate) fn put(&mut self, slot: usize, line: String) -> Result<(), String> {
        if slot != self.next {
            self.ahead.insert(slot, line);
            return Ok(());
        }
        self.write_line(&line)?;
        while let Some(line) = self.ahead.remove(&self.next) {
            self.write_line(&line)?;
        }
        Ok(())
    }

    fn write_line(&mut self, line: &str) -> Result<(), String> {
        self.next += 1;
        self.out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .map_err(|e| format!("cannot write `{}`: {e}", self.tmp.display()))
    }

    /// Flushes the file and renames it into place once slots
    /// `0..slots` have all been written.
    ///
    /// # Errors
    ///
    /// Returns a message when a slot is missing or for I/O failures.
    pub(crate) fn finish(mut self, slots: usize) -> Result<PathBuf, String> {
        if self.next != slots || !self.ahead.is_empty() {
            return Err(format!(
                "`{}`: slot {} of {slots} never arrived",
                self.tmp.display(),
                self.next
            ));
        }
        self.out
            .flush()
            .map_err(|e| format!("cannot flush `{}`: {e}", self.tmp.display()))?;
        drop(self.out);
        std::fs::rename(&self.tmp, &self.path).map_err(|e| {
            format!(
                "cannot move shard into place at `{}`: {e}",
                self.path.display()
            )
        })?;
        Ok(self.path)
    }
}

/// Writes one shard's records, in order, as JSON lines through a
/// [`ShardWriter`].
///
/// # Errors
///
/// Returns a message for I/O or serialization failures.
pub fn write_shard(dir: &Path, shard: u64, records: &[GridJobRecord]) -> Result<PathBuf, String> {
    let mut out = ShardWriter::create(dir, shard)?;
    for (slot, record) in records.iter().enumerate() {
        out.put(slot, encode_record(record)?)?;
    }
    out.finish(records.len())
}

/// Reads one shard file into records (one shard is bounded by the
/// engine's shard size, so this is the largest unit ever resident).
///
/// # Errors
///
/// Returns a message for I/O failures or malformed lines.
pub fn read_shard(path: &Path) -> Result<Vec<GridJobRecord>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open `{}`: {e}", path.display()))?;
    let mut records = Vec::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        if line.trim().is_empty() {
            continue;
        }
        let record: GridJobRecord = serde_json::from_str(&line)
            .map_err(|e| format!("`{}` line {}: {e}", path.display(), lineno + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// Promoted (final) shard files under `dir`, in shard order. In-flight
/// `*.partial.jsonl` checkpoints are deliberately excluded — they are
/// not part of the committed record stream.
///
/// # Errors
///
/// Returns a message when the directory cannot be listed.
pub fn shard_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    list_matching(dir, |name| {
        name.starts_with("shard-") && name.ends_with(".jsonl") && !name.contains(".partial.")
    })
}

/// Converts one legacy [`RunManifest`] job record into the chunked
/// form, recomputing the digest from the embedded spec.
fn migrate_record(record: &fcdpm_runner::JobRecord) -> GridJobRecord {
    GridJobRecord {
        index: record.index as u64,
        id: record.id.clone(),
        digest: digest_hex(spec_digest(&record.spec)),
        outcome: record.outcome.clone(),
        attempts: 1,
    }
}

/// Streams every record reachable from `path`, in index order, calling
/// `visit` once per record. Two layouts are accepted:
///
/// * a **run directory** holding chunked `shard-*.jsonl` files — shards
///   are read one at a time, so memory stays bounded by the shard size;
/// * a **legacy single-file manifest** (the `*.json` written by
///   `fcdpm batch`) — migrated on the fly to the same record stream.
///
/// # Errors
///
/// Returns a message when the path is neither layout, or on I/O or
/// parse failures.
pub fn for_each_record(path: &Path, mut visit: impl FnMut(GridJobRecord)) -> Result<(), String> {
    if path.is_dir() {
        let files = shard_files(path)?;
        if files.is_empty() {
            return Err(format!("`{}` holds no shard-*.jsonl files", path.display()));
        }
        for file in files {
            for record in read_shard(&file)? {
                visit(record);
            }
        }
        return Ok(());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let legacy: RunManifest = serde_json::from_str(&text).map_err(|e| {
        format!(
            "`{}` is not a run directory and does not parse as a legacy RunManifest: {e}",
            path.display()
        )
    })?;
    for record in &legacy.records {
        visit(migrate_record(record));
    }
    Ok(())
}

/// [`for_each_record`] collected into memory — for tests and small runs
/// only; production paths stream.
///
/// # Errors
///
/// Same as [`for_each_record`].
pub fn read_records(path: &Path) -> Result<Vec<GridJobRecord>, String> {
    let mut records = Vec::new();
    for_each_record(path, |record| records.push(record))?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcdpm_runner::{JobSpec, PolicySpec, RunConfig, WorkloadSpec};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fcdpm-grid-manifest-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn record(index: u64) -> GridJobRecord {
        let spec = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(index));
        GridJobRecord {
            index,
            id: spec.id(usize::try_from(index).expect("small")),
            digest: digest_hex(spec_digest(&spec)),
            outcome: JobOutcome::Failed("not run".to_owned()),
            attempts: 1,
        }
    }

    #[test]
    fn chunked_shards_round_trip_in_order() {
        let dir = temp_dir("roundtrip");
        write_shard(&dir, 1, &[record(2), record(3)]).expect("writes");
        write_shard(&dir, 0, &[record(0), record(1)]).expect("writes");
        let back = read_records(&dir).expect("reads");
        assert_eq!(back.len(), 4);
        for (i, r) in back.iter().enumerate() {
            assert_eq!(r.index, i as u64, "records stream in shard order");
            assert_eq!(*r, record(i as u64), "round trip is lossless");
        }
        // Shard bytes are stable: rewriting produces identical files.
        let path = dir.join(shard_file_name(0));
        let first = std::fs::read(&path).expect("reads");
        write_shard(&dir, 0, &[record(0), record(1)]).expect("writes");
        assert_eq!(first, std::fs::read(&path).expect("reads"));
    }

    #[test]
    fn shard_writer_reorders_lines_into_index_order() {
        let dir = temp_dir("reorder");
        write_shard(&dir, 0, &[record(0), record(1), record(2), record(3)]).expect("writes");
        let in_order = std::fs::read(dir.join(shard_file_name(0))).expect("reads");

        let mut out = ShardWriter::create(&dir, 0).expect("creates");
        for slot in [2usize, 0, 3, 1] {
            let line = encode_record(&record(slot as u64)).expect("encodes");
            out.put(slot, line).expect("puts");
        }
        out.finish(4).expect("all four slots arrived");
        assert_eq!(
            std::fs::read(dir.join(shard_file_name(0))).expect("reads"),
            in_order
        );

        let mut gap = ShardWriter::create(&dir, 1).expect("creates");
        gap.put(1, encode_record(&record(5)).expect("encodes"))
            .expect("puts");
        assert!(gap.finish(2).unwrap_err().contains("slot 0 of 2"));
        assert!(!dir.join(shard_file_name(1)).exists(), "nothing promoted");
    }

    #[test]
    fn legacy_single_file_manifest_migrates() {
        let dir = temp_dir("legacy");
        let grid = fcdpm_runner::JobGrid::new(
            vec![PolicySpec::Conv, PolicySpec::FcDpm],
            vec![WorkloadSpec::Experiment1(0xDAC0_2007)],
        );
        let manifest = fcdpm_runner::run_grid(&grid, &RunConfig::with_workers(2));
        let path = dir.join("batch.manifest.json");
        std::fs::write(&path, manifest.to_json()).expect("writes");

        let migrated = read_records(&path).expect("migrates");
        assert_eq!(migrated.len(), manifest.records.len());
        for (old, new) in manifest.records.iter().zip(&migrated) {
            assert_eq!(new.index, old.index as u64);
            assert_eq!(new.id, old.id);
            assert_eq!(new.outcome, old.outcome);
            assert_eq!(new.digest, digest_hex(spec_digest(&old.spec)));
        }

        // And the migrated records round-trip through the chunked form.
        write_shard(&dir, 0, &migrated).expect("writes");
        let back = read_shard(&dir.join(shard_file_name(0))).expect("reads");
        assert_eq!(back, migrated);
    }

    #[test]
    fn legacy_records_without_attempts_parse_as_one_attempt() {
        let line =
            r#"{"index":0,"id":"job-0000","digest":"0000000000000000","outcome":{"Failed":"x"}}"#;
        let back: GridJobRecord = serde_json::from_str(line).expect("parses");
        assert_eq!(back.attempts, 1, "pre-retry records default to 1 attempt");
    }

    #[test]
    fn partial_checkpoint_round_trips_in_batches() {
        let dir = temp_dir("partial");
        let mut writer = PartialShardWriter::create(&dir, 7).expect("creates");
        writer.append(&[record(0), record(1)]).expect("appends");
        writer.append(&[record(2)]).expect("appends");
        writer.append(&[]).expect("empty batch is a no-op");
        drop(writer);
        let back = read_partial(&dir.join(partial_file_name(7))).expect("reads");
        assert_eq!(back.records, vec![record(0), record(1), record(2)]);
        assert_eq!(back.torn_bytes, 0);
        assert_eq!(back.torn_lines, 0);
        assert!(back.valid_bytes > 0);
    }

    #[test]
    fn torn_tail_recovers_maximal_valid_prefix() {
        let dir = temp_dir("torn");
        let mut writer = PartialShardWriter::create(&dir, 0).expect("creates");
        writer.append(&[record(0), record(1)]).expect("appends");
        writer.append_torn(&record(2)).expect("tears");
        drop(writer);
        let back = read_partial(&dir.join(partial_file_name(0))).expect("reads");
        assert_eq!(back.records, vec![record(0), record(1)]);
        assert!(back.torn_bytes > 0, "the torn half-line is accounted for");
        assert_eq!(back.torn_lines, 1);
    }

    #[test]
    fn corrupted_line_invalidates_itself_and_everything_after() {
        let dir = temp_dir("corrupt");
        let mut writer = PartialShardWriter::create(&dir, 0).expect("creates");
        writer
            .append(&[record(0), record(1), record(2)])
            .expect("appends");
        drop(writer);
        let path = dir.join(partial_file_name(0));
        let mut bytes = std::fs::read(&path).expect("reads");
        // Flip one byte inside the second line's JSON payload.
        let first_nl = bytes.iter().position(|&b| b == b'\n').expect("line") + 1;
        bytes[first_nl + 30] ^= 0x01;
        std::fs::write(&path, &bytes).expect("writes");
        let back = read_partial(&path).expect("reads");
        assert_eq!(back.records, vec![record(0)], "stops at the bad checksum");
        assert_eq!(back.torn_lines, 2, "the flipped line and the one after");
    }

    #[test]
    fn partials_stay_out_of_the_committed_record_stream() {
        let dir = temp_dir("exclude");
        write_shard(&dir, 0, &[record(0)]).expect("writes");
        let mut writer = PartialShardWriter::create(&dir, 1).expect("creates");
        writer.append(&[record(1)]).expect("appends");
        drop(writer);
        assert_eq!(shard_files(&dir).expect("lists").len(), 1);
        assert_eq!(partial_files(&dir).expect("lists").len(), 1);
        let back = read_records(&dir).expect("reads");
        assert_eq!(back, vec![record(0)], "only promoted shards stream");
    }

    #[test]
    fn write_atomic_replaces_whole_files() {
        let dir = temp_dir("atomic");
        let path = dir.join("aggregate.json");
        write_atomic(&path, "first").expect("writes");
        write_atomic(&path, "second").expect("rewrites");
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), "second");
        assert!(
            !dir.join("aggregate.json.tmp").exists(),
            "no tmp file survives"
        );
    }

    #[test]
    fn unreadable_paths_are_named_errors() {
        let dir = temp_dir("errors");
        assert!(read_records(&dir).unwrap_err().contains("no shard"));
        let bogus = dir.join("bogus.json");
        std::fs::write(&bogus, "not json").expect("writes");
        assert!(read_records(&bogus).unwrap_err().contains("legacy"));
        assert!(read_records(&dir.join("missing.json")).is_err());
    }
}
