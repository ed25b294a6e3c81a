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
//! append-only `shard-NNNNN.partial.jsonl` checkpoint: each line is
//! `<16-hex FNV-1a of the JSON>\t<JSON>\n`, written in fsync'd batches
//! by [`PartialShardWriter`]. A `kill -9` mid-shard can therefore tear
//! at most the last batch's tail; [`read_partial`] recovers the maximal
//! checksum-valid prefix and resume replays it as cache hits, keyed by
//! index and digest, whatever order the lines are in. The same JSON
//! ([`encode_record`], rendered once per record) goes, slot by slot in
//! index order, through a `ShardWriter` into `shard-NNNNN.jsonl.tmp` (an
//! [`AtomicFile`]), which is synced, renamed into place and made durable
//! by a sync of the run directory when the shard completes; only then
//! is the partial file removed.
//!
//! [`read_shard`] reads one promoted shard and [`read_partial`] one
//! checkpoint; the engine, `status` and `gc` all read through them.

use std::fs::File;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};

use fcdpm_runner::{AtomicFile, JobOutcome};
use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Default, PartialEq)]
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
pub(crate) fn list_matching(
    dir: &Path,
    keep: impl Fn(&str) -> bool,
) -> Result<Vec<PathBuf>, String> {
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

/// Sequential writer for a promoted shard file: an [`AtomicFile`] at
/// `shard-NNNNN.jsonl` that takes one encoded line per slot, in slot
/// order, so a crashed run never leaves a half shard behind.
#[derive(Debug)]
pub(crate) struct ShardWriter {
    dir: PathBuf,
    out: AtomicFile,
    /// The next slot to write.
    next: usize,
}

impl ShardWriter {
    /// Creates (truncating) the temporary file for `shard` under `dir`.
    pub(crate) fn create(dir: &Path, shard: u64) -> Result<Self, String> {
        Ok(Self {
            dir: dir.to_owned(),
            out: AtomicFile::create(&dir.join(shard_file_name(shard)))?,
            next: 0,
        })
    }

    /// Writes the encoded line (no newline) of the record in `slot`,
    /// which must be the next slot.
    pub(crate) fn put(&mut self, slot: usize, line: &str) -> Result<(), String> {
        let next = self.next;
        if slot != next {
            return Err(format!("shard slot {slot} arrived before slot {next}"));
        }
        self.next += 1;
        self.out.write(line)?;
        self.out.write("\n")
    }

    /// Renames the file into place if slots `0..slots` have all been
    /// written; otherwise nothing is promoted. The file's data is
    /// synced before the rename and the directory after it, so once
    /// this returns an OS crash or a power loss cannot take the shard
    /// back — the caller may then remove its checkpoint.
    pub(crate) fn finish(mut self, slots: usize) -> Result<PathBuf, String> {
        if self.next != slots {
            return Err(format!("shard slot {} of {slots} never arrived", self.next));
        }
        self.out.sync_data()?;
        let path = self.out.finish()?;
        File::open(&self.dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| format!("cannot sync `{}`: {e}", self.dir.display()))?;
        Ok(path)
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
        out.put(slot, &encode_record(record)?)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use fcdpm_runner::{spec_digest, JobSpec, PolicySpec, WorkloadSpec};

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
        let mut back = Vec::new();
        for file in shard_files(&dir).expect("lists") {
            back.extend(read_shard(&file).expect("reads"));
        }
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
    fn shard_writer_takes_slots_in_order_and_promotes_only_whole_shards() {
        let dir = temp_dir("slots");
        let line = |index: u64| encode_record(&record(index)).expect("encodes");
        write_shard(&dir, 0, &[record(0), record(1), record(2)]).expect("writes");
        let mut out = ShardWriter::create(&dir, 1).expect("creates");
        for slot in 0..3 {
            out.put(slot, &line(slot as u64)).expect("puts");
        }
        out.finish(3).expect("all three slots arrived");
        let bytes = |shard| std::fs::read(dir.join(shard_file_name(shard))).expect("reads");
        assert_eq!(bytes(1), bytes(0));

        let tmp = dir.join(format!("{}.tmp", shard_file_name(2)));
        let mut early = ShardWriter::create(&dir, 2).expect("creates");
        let err = early.put(1, &line(1)).unwrap_err();
        assert!(err.contains("slot 1 arrived before slot 0"), "{err}");
        drop(early);
        assert!(
            !tmp.exists(),
            "a writer dropped after an error removes its tmp"
        );
        let mut gap = ShardWriter::create(&dir, 2).expect("creates");
        gap.put(0, &line(0)).expect("puts");
        let err = gap.finish(2).unwrap_err();
        assert!(err.contains("slot 1 of 2 never arrived"), "{err}");
        assert!(!dir.join(shard_file_name(2)).exists(), "nothing promoted");
        assert!(!tmp.exists(), "a failed finish removes its tmp");
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
        let back = read_shard(&shard_files(&dir).expect("lists")[0]).expect("reads");
        assert_eq!(back, vec![record(0)], "only promoted shards stream");
    }
}
