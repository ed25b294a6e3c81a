//! Chunked manifest spill: the on-disk record stream of a grid run.
//!
//! A grid run's job records live in `shard-NNNNN.jsonl` files under the
//! run directory, one record line per job, ordered by global job index,
//! so a million-job run is never resident at once: writers spill one
//! shard at a time and readers stream line by line.
//!
//! Records deliberately carry *no spec*: the spec is reconstructable
//! from the [`GridSpec`](crate::GridSpec) plus the index, and *no
//! scheduling metadata* (wall time, worker), so shard bytes are
//! identical across runs and worker counts — resume diffs them
//! directly.
//!
//! Every line, in a checkpoint and in a shard alike, is
//! `<16-hex FNV-1a of the JSON>\t<JSON>\n`, where the JSON is the
//! record's [`encode_record`] form. While a shard is in flight its lines
//! go into an append-only `shard-NNNNN.partial.jsonl` checkpoint, in
//! fsync'd batches, through [`PartialShardWriter`]. A `kill -9`
//! mid-shard can therefore tear at most the last batch's tail. When the
//! shard completes, the checkpoint *is* the shard: it is renamed to
//! `shard-NNNNN.jsonl` and the run directory is synced. [`write_shard`]
//! publishes the same bytes from records in one tmp+rename, for a
//! checkpoint that is not in slot order.
//!
//! One validating reader parses both files. [`read_partial`] returns the
//! maximal checksum-valid prefix and counts the torn tail after it;
//! resume replays that prefix as cache hits, keyed by index and digest,
//! whatever order the lines are in, and `grid status` and `grid gc`
//! judge a file by the same prefix. [`read_shard`] is the same reading
//! with no torn bytes allowed, for a caller that needs a whole shard.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use fcdpm_runner::{AtomicFile, JobOutcome};
use serde::{Deserialize, Serialize};

/// One job's record in a shard file: identity, cache key and outcome —
/// nothing scheduling-dependent, nothing reconstructable from the spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Renders one record as the compact JSON its line carries — the one
/// encoding a record gets.
///
/// # Errors
///
/// Returns a message when the record does not serialize.
pub fn encode_record(record: &GridJobRecord) -> Result<String, String> {
    serde_json::to_string(record)
        .map_err(|e| format!("record {} does not serialize: {e}", record.index))
}

/// Appends one record's line, `<16-hex FNV-1a of the JSON>\t<JSON>\n`,
/// to `lines`, where `json` is the record's [`encode_record`] form. The
/// checksum covers exactly the JSON bytes, so a torn tail (or a bit
/// flip, even one that leaves the JSON parseable) fails validation and
/// [`read_partial`] stops there.
pub(crate) fn push_line(lines: &mut String, json: &str) {
    lines.push_str(&digest_hex(fcdpm_runner::spec::fnv1a(json.as_bytes())));
    lines.push('\t');
    lines.push_str(json);
    lines.push('\n');
}

/// Append-only writer for a shard's in-flight checkpoint file, which
/// becomes the shard file when it is promoted.
///
/// Lines are buffered one per record, in whatever order the caller
/// produces them; each commit ([`append`](Self::append) is one) writes
/// the buffered lines and fsyncs, so after a `kill -9` the file holds
/// every previously committed batch intact plus at most one torn tail.
#[derive(Debug)]
pub struct PartialShardWriter {
    path: PathBuf,
    shard: u64,
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
            shard,
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

    /// Buffers one record's line (see [`push_line`]).
    pub(crate) fn push(&mut self, json: &str) {
        self.last_line = self.buffered.len();
        push_line(&mut self.buffered, json);
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

    /// Commits the pending lines, renames the checkpoint into place as
    /// `shard-NNNNN.jsonl` and syncs the run directory, so that neither
    /// a killed process nor an OS crash can take the shard back. The
    /// caller must have pushed the shard's lines in slot order.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures.
    pub(crate) fn promote(mut self) -> Result<PathBuf, String> {
        self.commit()?;
        let shard = self.path.with_file_name(shard_file_name(self.shard));
        std::fs::rename(&self.path, &shard)
            .map_err(|e| format!("cannot promote `{}`: {e}", self.path.display()))?;
        sync_dir(&shard)?;
        Ok(shard)
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

/// What [`read_partial`] recovered from a checkpoint or shard file.
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

/// Validating reader for a `shard-NNNNN.partial.jsonl` checkpoint or a
/// `shard-NNNNN.jsonl` shard: returns the maximal prefix of lines whose
/// per-line checksum matches their JSON payload, and accounts for
/// whatever torn tail follows. Never yields a torn record — a line is
/// either checksum-valid and parsed whole, or it (and everything after
/// it) is counted as torn. A shard in the format before checksums
/// (plain JSON lines) reads as all torn.
///
/// # Errors
///
/// Returns a message when the file cannot be read (a *torn* file is not
/// an error — that is the case this reader exists for).
pub fn read_partial(path: &Path) -> Result<PartialRead, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let mut read = PartialRead::default();
    let mut offset = 0usize;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let Some(record) = validate_line(line.strip_suffix(b"\n").unwrap_or(line)) else {
            break;
        };
        read.records.push(record);
        offset += line.len();
    }
    read.valid_bytes = offset as u64;
    read.torn_bytes = (bytes.len() - offset) as u64;
    read.torn_lines = bytes[offset..]
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count() as u64;
    Ok(read)
}

/// Parses one record line if (and only if) its checksum matches.
fn validate_line(line: &[u8]) -> Option<GridJobRecord> {
    let text = std::str::from_utf8(line).ok()?;
    let (sum, json) = text.split_once('\t')?;
    if sum.len() != 16 || sum != digest_hex(fcdpm_runner::spec::fnv1a(json.as_bytes())) {
        return None;
    }
    serde_json::from_str(json).ok()
}

/// Publishes one shard's records, in order, with exactly the bytes a
/// promoted checkpoint of them has.
///
/// # Errors
///
/// Returns a message for I/O or serialization failures.
pub fn write_shard(dir: &Path, shard: u64, records: &[GridJobRecord]) -> Result<PathBuf, String> {
    let mut lines = String::new();
    for record in records {
        push_line(&mut lines, &encode_record(record)?);
    }
    publish_shard(dir, shard, &lines)
}

/// Publishes a shard's lines through an [`AtomicFile`]: the `.tmp`
/// file's data is synced before the rename and the run directory after
/// it, so once this returns the caller may remove the checkpoint.
pub(crate) fn publish_shard(dir: &Path, shard: u64, lines: &str) -> Result<PathBuf, String> {
    let mut out = AtomicFile::create(&dir.join(shard_file_name(shard)))?;
    out.write(lines)?;
    out.sync_data()?;
    let path = out.finish()?;
    sync_dir(&path)?;
    Ok(path)
}

/// Syncs the directory holding `path`, so a rename into it survives an
/// OS crash or a power loss.
fn sync_dir(path: &Path) -> Result<(), String> {
    let dir = path.parent().unwrap_or(Path::new("."));
    File::open(dir)
        .and_then(|dir| dir.sync_all())
        .map_err(|e| format!("cannot sync `{}`: {e}", dir.display()))
}

/// Reads one promoted shard file into records: [`read_partial`] with no
/// torn bytes allowed (one shard is bounded by the engine's shard size,
/// so this is the largest unit ever resident).
///
/// # Errors
///
/// Returns a message for I/O failures, or naming the first line that is
/// not a checksum-valid record.
pub fn read_shard(path: &Path) -> Result<Vec<GridJobRecord>, String> {
    let read = read_partial(path)?;
    if read.torn_bytes > 0 {
        let line = read.records.len() + 1;
        return Err(format!(
            "`{}` line {line}: not a checksum-valid record",
            path.display()
        ));
    }
    Ok(read.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::Inventory;
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
        // A promoted checkpoint is the shard `write_shard` writes.
        let mut writer = PartialShardWriter::create(&dir, 0).expect("creates");
        writer.append(&[record(0)]).expect("appends");
        writer.push(&encode_record(&record(1)).expect("encodes"));
        let promoted = writer.promote().expect("the pending line commits first");
        let files = Inventory::read(&dir).expect("lists");
        assert_eq!(files.checkpoints().count(), 0, "renamed");
        let bytes = std::fs::read(&promoted).expect("reads");
        write_shard(&dir, 0, &[record(0), record(1)]).expect("writes");
        assert_eq!(bytes, std::fs::read(&promoted).expect("reads"));
        let mut back = Vec::new();
        for (_, file) in Inventory::read(&dir).expect("lists").shards() {
            back.extend(read_shard(file).expect("reads"));
        }
        let want: Vec<_> = (0..4).map(record).collect();
        assert_eq!(back, want, "records stream in shard order, losslessly");
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
        writer.push(&encode_record(&record(2)).expect("encodes"));
        writer.commit_torn().expect("tears");
        drop(writer);
        let back = read_partial(&dir.join(partial_file_name(0))).expect("reads");
        assert_eq!(back.records, vec![record(0), record(1)]);
        assert!(back.torn_bytes > 0, "the torn half-line is accounted for");
        assert_eq!(back.torn_lines, 1);
    }

    #[test]
    fn corrupted_line_invalidates_itself_and_everything_after() {
        let dir = temp_dir("corrupt");
        let path = write_shard(&dir, 0, &[record(0), record(1), record(2)]).expect("writes");
        let mut bytes = std::fs::read(&path).expect("reads");
        // Flip the second line's `"index":1` to `"index":0`: its JSON
        // still parses, as a record of the wrong job, but its checksum
        // no longer matches.
        let second = bytes.iter().position(|&b| b == b'\n').expect("line") + 1;
        let at = second + "0123456789abcdef\t{\"index\":".len();
        assert_eq!(bytes[at], b'1');
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).expect("writes");
        let back = read_partial(&path).expect("reads");
        assert_eq!(back.records, vec![record(0)], "stops at the bad checksum");
        assert_eq!(back.torn_lines, 2, "the flipped line and the one after");
        let err = read_shard(&path).unwrap_err();
        assert!(err.contains("line 2: not a checksum-valid record"), "{err}");
    }
}
