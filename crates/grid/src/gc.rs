//! A run directory's files, and what reads them without executing a job.
//!
//! [`RunFile::of`] names each file of a run directory by its name alone,
//! and [`Inventory::read`] lists a directory once and applies it to every
//! entry. `grid run` and `grid resume` clean stale spill through that
//! listing, and [`status`] and [`gc`] read it; nothing else parses a
//! run-directory file name. Both judge a shard as a resume does, by
//! [`read_partial`]'s checksum-valid prefix: [`status`] counts the prefix
//! as records and the rest as torn lines, and [`gc`] compacts the file
//! to it.
//!
//! A `kill -9` (or a crashing job) can leave a run directory in any of
//! a handful of recoverable-but-untidy states: a torn partial
//! checkpoint, an orphaned `*.tmp` from an interrupted atomic rename,
//! shard files beyond the spec's shard count, or a corrupt aggregate.
//! [`gc`] walks an output root, classifies every run directory's
//! damage, and either reports it (`dry_run`) or repairs it: torn
//! checkpoints and damaged shards are compacted to their maximal
//! checksum-valid prefix, redundant and orphaned artifacts are deleted,
//! and directories whose `grid.json` is gone — unresumable, since
//! records can no longer be matched to spec digests — are removed
//! wholesale.
//!
//! Safety property: a directory containing anything that is *not* a
//! grid artifact is never deleted, whatever its `grid.json` says.

use std::path::{Path, PathBuf};

use fcdpm_runner::JobOutcome;

use crate::gen::GridSpec;
use crate::manifest::{partial_file_name, read_partial, shard_file_name, GridJobRecord};

/// What one file of a run directory is, told by its name alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunFile {
    /// `grid.json`: the spec the run expands.
    Spec,
    /// `aggregate.json`: the rollup, published after every shard.
    Aggregate,
    /// `shard-NNNNN.jsonl`: a promoted shard.
    Shard(u64),
    /// `shard-NNNNN.partial.jsonl`: a shard's in-flight checkpoint.
    Checkpoint(u64),
    /// `*.tmp`: an atomic rename that was interrupted.
    Tmp,
    /// Anything else: not the engine's.
    Foreign,
}

impl RunFile {
    /// Classifies one file name. A shard or a checkpoint is only ever
    /// named exactly as [`shard_file_name`] or [`partial_file_name`]
    /// formats it; any other `shard-*` name is foreign.
    #[must_use]
    pub fn of(name: &str) -> Self {
        let index = name
            .strip_prefix("shard-")
            .and_then(|rest| rest.split_once('.'))
            .and_then(|(digits, _)| digits.parse().ok());
        match (name, index) {
            ("grid.json", _) => Self::Spec,
            ("aggregate.json", _) => Self::Aggregate,
            _ if name.ends_with(".tmp") => Self::Tmp,
            (_, Some(n)) if name == shard_file_name(n) => Self::Shard(n),
            (_, Some(n)) if name == partial_file_name(n) => Self::Checkpoint(n),
            _ => Self::Foreign,
        }
    }
}

/// A run directory's entries, listed once and each classified by
/// [`RunFile::of`].
#[derive(Debug)]
pub struct Inventory {
    /// Every entry and its kind, sorted by path (so shards and
    /// checkpoints come in shard order).
    pub files: Vec<(RunFile, PathBuf)>,
}

impl Inventory {
    /// Lists `dir` and classifies every entry; a name that is not UTF-8
    /// is foreign.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory cannot be listed.
    pub fn read(dir: &Path) -> Result<Self, String> {
        let unlisted = |e: std::io::Error| format!("cannot list `{}`: {e}", dir.display());
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(unlisted)? {
            let path = entry.map_err(unlisted)?.path();
            let name = path.file_name().and_then(|name| name.to_str());
            files.push((name.map_or(RunFile::Foreign, RunFile::of), path));
        }
        files.sort_by(|a, b| a.1.cmp(&b.1));
        Ok(Self { files })
    }

    /// The paths of the entries of kind `kind`.
    pub fn paths(&self, kind: RunFile) -> impl Iterator<Item = &Path> {
        let files = self.files.iter().filter(move |(file, _)| *file == kind);
        files.map(|(_, path)| path.as_path())
    }

    /// The promoted shards, with their indices, in shard order.
    pub fn shards(&self) -> impl Iterator<Item = (u64, &Path)> {
        self.files.iter().filter_map(|(file, path)| match file {
            RunFile::Shard(n) => Some((*n, path.as_path())),
            _ => None,
        })
    }

    /// The in-flight checkpoints, with their shard indices, in shard
    /// order.
    pub fn checkpoints(&self) -> impl Iterator<Item = (u64, &Path)> {
        self.files.iter().filter_map(|(file, path)| match file {
            RunFile::Checkpoint(n) => Some((*n, path.as_path())),
            _ => None,
        })
    }
}

/// What [`gc`] decided about one artifact (or directory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcKind {
    /// `grid.json` missing or unparseable and only grid artifacts
    /// inside: the directory cannot be resumed and is removed.
    AbandonedDir,
    /// A `*.tmp` left behind by an interrupted atomic rename of
    /// `grid.json`, `aggregate.json` or a shard published from records.
    /// A run republishes each of those files, so `grid run` and `grid
    /// resume` remove it too.
    OrphanedTmp,
    /// A partial checkpoint with torn bytes past its valid prefix;
    /// compacted in place so a resume replays only whole records.
    TornPartial,
    /// A partial checkpoint whose shard was already promoted with every
    /// job the checkpoint holds; the final `shard-NNNNN.jsonl`
    /// supersedes it.
    RedundantPartial,
    /// A shard file with an index beyond what the spec expands to.
    StaleShard,
    /// A shard file with a line that is not a checksum-valid record:
    /// torn, flipped, or in the plain-JSON format from before record
    /// lines carried a checksum. It is compacted to the valid prefix a
    /// resume would replay; a resume recomputes the rest.
    CorruptShard,
    /// An `aggregate.json` that no longer parses; a resume rewrites it.
    CorruptAggregate,
    /// A directory with non-grid content: never touched, only noted.
    Foreign,
}

impl GcKind {
    /// Stable lowercase label used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            GcKind::AbandonedDir => "abandoned-dir",
            GcKind::OrphanedTmp => "orphaned-tmp",
            GcKind::TornPartial => "torn-partial",
            GcKind::RedundantPartial => "redundant-partial",
            GcKind::StaleShard => "stale-shard",
            GcKind::CorruptShard => "corrupt-shard",
            GcKind::CorruptAggregate => "corrupt-aggregate",
            GcKind::Foreign => "foreign-content",
        }
    }
}

/// One classified artifact and what was (or would be) done about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcAction {
    /// The artifact (file or directory).
    pub path: PathBuf,
    /// Damage class.
    pub kind: GcKind,
    /// Human-readable specifics (byte counts, indices).
    pub detail: String,
    /// Bytes the action reclaims (0 for [`GcKind::Foreign`]).
    pub bytes: u64,
}

/// Everything one [`gc`] sweep found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Run directories inspected.
    pub scanned_dirs: u64,
    /// Classified artifacts in deterministic (path) order.
    pub actions: Vec<GcAction>,
    /// True when nothing was modified.
    pub dry_run: bool,
}

impl GcReport {
    /// Total bytes reclaimed (or reclaimable, under `dry_run`).
    #[must_use]
    pub fn bytes_reclaimed(&self) -> u64 {
        self.actions.iter().map(|a| a.bytes).sum()
    }

    /// Renders the report as stable, line-oriented text (one action per
    /// line) — the artifact CI uploads after its kill-resume gate.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mode = if self.dry_run { "dry-run" } else { "applied" };
        let mut out = format!(
            "grid gc ({mode}): {} dirs scanned, {} actions, {} bytes reclaimable\n",
            self.scanned_dirs,
            self.actions.len(),
            self.bytes_reclaimed()
        );
        for action in &self.actions {
            out.push_str(&format!(
                "  {:<18} {:>9}B  {}  ({})\n",
                action.kind.label(),
                action.bytes,
                action.path.display(),
                action.detail
            ));
        }
        out
    }

    fn note(&mut self, path: &Path, kind: GcKind, detail: impl Into<String>, bytes: u64) {
        self.actions.push(GcAction {
            path: path.to_path_buf(),
            kind,
            detail: detail.into(),
            bytes,
        });
    }

    /// Notes `path` as `kind` and, unless this is a dry run, removes it.
    fn discard(
        &mut self,
        path: &Path,
        kind: GcKind,
        detail: impl Into<String>,
    ) -> Result<(), String> {
        self.note(path, kind, detail, file_len(path));
        if self.dry_run {
            return Ok(());
        }
        std::fs::remove_file(path).map_err(|e| format!("cannot remove `{}`: {e}", path.display()))
    }

    /// Notes a checkpoint or a shard as `kind` when bytes follow its
    /// checksum-valid prefix and, unless this is a dry run, truncates it
    /// to that prefix, which is what a resume replays.
    fn compact(&mut self, path: &Path, kind: GcKind) -> Result<(), String> {
        let read = read_partial(path)?;
        let (records, torn) = (read.records.len(), read.torn_bytes);
        if torn == 0 {
            return Ok(());
        }
        let detail = format!("{records} valid records kept, {torn} torn bytes dropped");
        self.note(path, kind, detail, torn);
        if self.dry_run {
            return Ok(());
        }
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot open `{}`: {e}", path.display()))?;
        file.set_len(read.valid_bytes)
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("cannot truncate `{}`: {e}", path.display()))
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Sweeps every run directory under `root`, classifying and (unless
/// `dry_run`) repairing crash damage. `root` is the grid output root —
/// the `--out` directory whose children are run directories.
///
/// # Errors
///
/// Returns a message when `root` is unreadable or a repair fails; a
/// directory that is merely damaged is an action, not an error.
pub fn gc(root: &Path, dry_run: bool) -> Result<GcReport, String> {
    let mut report = GcReport {
        scanned_dirs: 0,
        actions: Vec::new(),
        dry_run,
    };
    for (_, dir) in Inventory::read(root)?.files {
        if !dir.is_dir() {
            continue;
        }
        report.scanned_dirs += 1;
        gc_run_dir(&dir, &mut report)?;
    }
    Ok(report)
}

fn gc_run_dir(dir: &Path, report: &mut GcReport) -> Result<(), String> {
    let files = Inventory::read(dir)?;

    // Unresumable directory: no usable grid.json means no spec digests
    // to match records against. Delete it — but only when everything
    // inside is recognisably ours.
    let Ok(spec) = read_spec(dir) else {
        let foreign = files.paths(RunFile::Foreign).filter_map(Path::file_name);
        let foreign: Vec<_> = foreign.map(|name| name.to_string_lossy()).collect();
        if foreign.is_empty() {
            let bytes = files.files.iter().map(|(_, path)| file_len(path)).sum();
            let detail = "grid.json missing or unparseable";
            report.note(dir, GcKind::AbandonedDir, detail, bytes);
            if !report.dry_run {
                std::fs::remove_dir_all(dir)
                    .map_err(|e| format!("cannot remove `{}`: {e}", dir.display()))?;
            }
        } else {
            let detail = format!(
                "unresumable but contains non-grid files: {}",
                foreign.join(", ")
            );
            report.note(dir, GcKind::Foreign, detail, 0);
        }
        return Ok(());
    };

    // Orphaned tmp files from interrupted atomic renames.
    for path in files.paths(RunFile::Tmp) {
        report.discard(path, GcKind::OrphanedTmp, "interrupted atomic rename")?;
    }

    // Partial checkpoints: redundant once the promoted shard's valid
    // prefix holds every job they hold, so a resume would replay nothing
    // from them; otherwise compacted if torn.
    for (shard, path) in files.checkpoints() {
        let promoted = files.paths(RunFile::Shard(shard)).next();
        let promoted = promoted.map(read_partial).transpose()?;
        let held = |record: &GridJobRecord| {
            let mut records = promoted.iter().flat_map(|shard| &shard.records);
            records.any(|r| r.index == record.index && r.digest == record.digest)
        };
        if promoted.is_some() && read_partial(path)?.records.iter().all(held) {
            let detail = format!("shard {shard} already promoted");
            report.discard(path, GcKind::RedundantPartial, detail)?;
        } else {
            report.compact(path, GcKind::TornPartial)?;
        }
    }

    // Shard files: stale beyond the spec's expansion, or compacted if
    // damaged.
    let aggregate = read_aggregate(dir);
    let expected = shard_count(&spec, aggregate.as_ref());
    for (index, path) in files.shards() {
        match expected.filter(|&expected| index >= expected) {
            Some(expected) => {
                let detail = format!("index {index} beyond the spec's {expected} shards");
                report.discard(path, GcKind::StaleShard, detail)?;
            }
            None => report.compact(path, GcKind::CorruptShard)?,
        }
    }

    // Aggregate: regenerated on resume, so a corrupt one just goes.
    if aggregate.is_none() {
        for path in files.paths(RunFile::Aggregate) {
            let detail = "does not parse; resume rewrites it";
            report.discard(path, GcKind::CorruptAggregate, detail)?;
        }
    }
    Ok(())
}

/// Parses a run directory's `grid.json`; the error names the file.
fn read_spec(dir: &Path) -> Result<GridSpec, String> {
    let path = dir.join("grid.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("`{}` does not parse as a GridSpec: {e}", path.display()))
}

/// A run directory's `aggregate.json` as JSON; `None` when it is missing
/// or does not parse.
fn read_aggregate(dir: &Path) -> Option<serde_json::Value> {
    let text = std::fs::read_to_string(dir.join("aggregate.json")).ok()?;
    serde_json::from_str(&text).ok()
}

/// The number of shards `spec` expands to at the shard size recorded in
/// `aggregate.json`; a shard file at or past it is stale. `None` when
/// the aggregate is missing, does not parse or records no positive shard
/// size: staleness cannot be judged then, and no shard counts as stale.
fn shard_count(spec: &GridSpec, aggregate: Option<&serde_json::Value>) -> Option<u64> {
    let size = aggregate?.get("shard_size")?.as_u64()?;
    (size > 0).then(|| spec.total_jobs().div_ceil(size))
}

/// What `fcdpm grid status` reports about a run directory on disk.
#[derive(Debug, Clone)]
pub struct GridStatus {
    /// Run directory name.
    pub run_id: String,
    /// Jobs the stored `grid.json` expands to.
    pub expected_jobs: u64,
    /// Checksum-valid records across shard files: each shard's valid
    /// prefix, as a resume replays it.
    pub records: u64,
    /// Completed records.
    pub completed: u64,
    /// Failed records.
    pub failed: u64,
    /// Timed-out records.
    pub timed_out: u64,
    /// Shard files present within the spec's shard count.
    pub shards: u64,
    /// Shard files past the spec's shard count, judged as [`gc`] judges
    /// them; their records are not counted.
    pub stale_shards: u64,
    /// In-flight partial checkpoints present (`shard-*.partial.jsonl`).
    pub partial_shards: u64,
    /// Checksum-valid records recoverable from partial checkpoints.
    pub checkpointed: u64,
    /// Line fragments past the valid prefix of shards and partial
    /// checkpoints — work that was lost or damaged and that a resume
    /// recomputes.
    pub torn_lines: u64,
    /// Whether a parseable `aggregate.json` is present.
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
/// `grid.json`, reads every shard and checkpoint to its checksum-valid
/// prefix, and counts outcomes. A shard past the spec's shard count is
/// counted as stale and not read.
///
/// # Errors
///
/// Returns a message when the directory, its `grid.json` or one of its
/// spill files is unreadable; a damaged file is counted, not an error.
pub fn status(dir: &Path) -> Result<GridStatus, String> {
    let spec = read_spec(dir)?;
    let files = Inventory::read(dir)?;
    let aggregate = read_aggregate(dir);
    let expected_shards = shard_count(&spec, aggregate.as_ref());
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
        stale_shards: 0,
        partial_shards: 0,
        checkpointed: 0,
        torn_lines: 0,
        has_aggregate: aggregate.is_some(),
    };
    for (index, path) in files.shards() {
        if expected_shards.is_some_and(|expected| index >= expected) {
            state.stale_shards += 1;
            continue;
        }
        let shard = read_partial(path)?;
        state.shards += 1;
        state.torn_lines += shard.torn_lines;
        for record in shard.records {
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
    for (_, path) in files.checkpoints() {
        let partial = read_partial(path)?;
        state.partial_shards += 1;
        state.checkpointed += partial.records.len() as u64;
        state.torn_lines += partial.torn_lines;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, GridConfig};
    use crate::gen::GridSpec;
    use fcdpm_runner::{PolicySpec, SeedAxis, SeedRange, WorkloadKind};

    fn spec() -> GridSpec {
        GridSpec::new(
            SeedAxis::Range(SeedRange {
                start: 0xDAC0_2007,
                count: 2,
            }),
            vec![WorkloadKind::Experiment1],
            vec![PolicySpec::Conv, PolicySpec::FcDpm],
        )
    }

    fn run_into(root: &Path) -> PathBuf {
        let cfg = GridConfig {
            workers: 2,
            shard_size: 2,
            out_dir: root.to_path_buf(),
            ..GridConfig::default()
        };
        run(&spec(), &cfg).expect("runs").dir
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("fcdpm-grid-gc-{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("creates root");
        root
    }

    #[test]
    fn each_file_kind_has_exactly_one_name() {
        let names = [
            ("grid.json", RunFile::Spec),
            ("aggregate.json", RunFile::Aggregate),
            ("shard-00007.jsonl", RunFile::Shard(7)),
            ("shard-00007.partial.jsonl", RunFile::Checkpoint(7)),
            ("shard-123456.jsonl", RunFile::Shard(123_456)),
            ("shard-00007.jsonl.tmp", RunFile::Tmp),
            ("aggregate.json.tmp", RunFile::Tmp),
            ("shard-7.jsonl", RunFile::Foreign),
            ("shard-00007.json", RunFile::Foreign),
            ("shard-0000x.jsonl", RunFile::Foreign),
            ("notes.txt", RunFile::Foreign),
        ];
        for (name, kind) in names {
            assert_eq!(RunFile::of(name), kind, "{name}");
        }

        // A checkpoint never lists as a promoted shard, nor the reverse.
        let root = temp_root("inventory");
        crate::manifest::write_shard(&root, 0, &[]).expect("writes");
        std::fs::write(root.join(crate::manifest::partial_file_name(1)), b"").expect("writes");
        let files = Inventory::read(&root).expect("lists");
        assert_eq!(files.shards().map(|(n, _)| n).collect::<Vec<_>>(), [0]);
        assert_eq!(files.checkpoints().map(|(n, _)| n).collect::<Vec<_>>(), [1]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn clean_run_dir_produces_no_actions() {
        let root = temp_root("clean");
        run_into(&root);
        let report = gc(&root, true).expect("gc runs");
        assert_eq!(report.scanned_dirs, 1);
        assert!(report.actions.is_empty(), "{:?}", report.actions);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dry_run_reports_but_repairs_nothing() {
        let root = temp_root("dry");
        let dir = run_into(&root);
        std::fs::write(dir.join("aggregate.json.tmp"), b"half").expect("writes");
        std::fs::write(dir.join("aggregate.json"), b"{ torn").expect("writes");
        let report = gc(&root, true).expect("gc runs");
        let kinds: Vec<_> = report.actions.iter().map(|a| a.kind.clone()).collect();
        assert!(kinds.contains(&GcKind::OrphanedTmp));
        assert!(kinds.contains(&GcKind::CorruptAggregate));
        assert!(
            dir.join("aggregate.json.tmp").is_file(),
            "dry run touched disk"
        );
        assert!(report.to_text().contains("dry-run"));
        assert!(report.bytes_reclaimed() > 0);

        let applied = gc(&root, false).expect("gc applies");
        assert_eq!(applied.actions.len(), report.actions.len());
        assert!(!dir.join("aggregate.json.tmp").exists());
        assert!(!dir.join("aggregate.json").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_partial_is_compacted_to_its_valid_prefix() {
        let root = temp_root("torn");
        let dir = run_into(&root);
        // Demote shard 1 to a torn partial: one whole record, one torn.
        let path = dir.join(crate::manifest::partial_file_name(1));
        std::fs::rename(dir.join(shard_file_name(1)), &path).expect("demotes");
        let bytes = std::fs::read(&path).expect("reads");
        let second = bytes.iter().position(|&b| b == b'\n').expect("two lines") + 1;
        let cut = second + (bytes.len() - second) / 2;
        std::fs::write(&path, &bytes[..cut]).expect("tears");

        let report = gc(&root, false).expect("gc applies");
        assert!(report
            .actions
            .iter()
            .any(|a| a.kind == GcKind::TornPartial && a.path == path));
        let partial = read_partial(&path).expect("reads back");
        assert_eq!(partial.records.len(), 1);
        assert_eq!(partial.torn_bytes, 0, "compaction removed the torn tail");
        assert_eq!(file_len(&path), partial.valid_bytes);

        // Second sweep: nothing left to do.
        let again = gc(&root, false).expect("gc runs");
        assert!(again.actions.is_empty(), "{:?}", again.actions);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn damaged_shard_is_counted_and_compacted_to_its_valid_prefix() {
        let root = temp_root("damaged");
        let dir = run_into(&root);
        // Flip a byte in shard 1's second line: its first record stays.
        // The checkpoint left beside it still holds both records, so it
        // is not redundant: a resume recovers the second from it.
        let path = dir.join(shard_file_name(1));
        let checkpoint = dir.join(crate::manifest::partial_file_name(1));
        std::fs::copy(&path, &checkpoint).expect("copies");
        let mut bytes = std::fs::read(&path).expect("reads");
        let second = bytes.iter().position(|&b| b == b'\n').expect("two lines") + 1;
        bytes[second + 20] ^= 0x01;
        std::fs::write(&path, &bytes).expect("flips");

        let state = status(&dir).expect("a damaged shard is counted, not an error");
        assert_eq!((state.records, state.torn_lines), (3, 1));
        assert_eq!(state.checkpointed, 2);
        assert!(!state.is_complete());

        let report = gc(&root, false).expect("gc applies");
        let kinds: Vec<_> = report.actions.iter().map(|a| (&a.kind, &a.path)).collect();
        assert_eq!(kinds, [(&GcKind::CorruptShard, &path)]);
        assert_eq!(file_len(&path), u64::try_from(second).expect("small"));
        assert!(
            checkpoint.is_file(),
            "the checkpoint holds a job the shard lost"
        );
        let again = gc(&root, false).expect("gc runs");
        assert!(again.actions.is_empty(), "{:?}", again.actions);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn promoted_shard_supersedes_its_partial() {
        let root = temp_root("redundant");
        let dir = run_into(&root);
        let partial_path = dir.join(crate::manifest::partial_file_name(0));
        std::fs::copy(dir.join(shard_file_name(0)), &partial_path).expect("copies");

        let report = gc(&root, false).expect("gc applies");
        assert!(report
            .actions
            .iter()
            .any(|a| a.kind == GcKind::RedundantPartial));
        assert!(!partial_path.exists());
        assert!(dir.join(shard_file_name(0)).is_file(), "final shard kept");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn abandoned_dir_goes_but_foreign_content_is_sacred() {
        let root = temp_root("abandoned");
        let gone = root.join("grid-dead");
        std::fs::create_dir_all(&gone).expect("creates");
        std::fs::write(gone.join("shard-00000.jsonl"), b"{}\n").expect("writes");

        let kept = root.join("grid-notours");
        std::fs::create_dir_all(&kept).expect("creates");
        std::fs::write(kept.join("notes.txt"), b"do not delete").expect("writes");

        let report = gc(&root, false).expect("gc applies");
        assert!(report
            .actions
            .iter()
            .any(|a| a.kind == GcKind::AbandonedDir && a.path == gone));
        assert!(report
            .actions
            .iter()
            .any(|a| a.kind == GcKind::Foreign && a.path == kept));
        assert!(!gone.exists(), "abandoned dir removed");
        assert!(kept.join("notes.txt").is_file(), "foreign dir untouched");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_shards_beyond_the_spec_are_deleted() {
        let root = temp_root("stale");
        let dir = run_into(&root);
        // 4 jobs at shard_size 2 → shards 0 and 1; index 7 is stale.
        std::fs::write(dir.join(shard_file_name(7)), b"").expect("writes");
        let report = gc(&root, false).expect("gc applies");
        assert!(report.actions.iter().any(|a| a.kind == GcKind::StaleShard));
        assert!(!dir.join(shard_file_name(7)).exists());
        let _ = std::fs::remove_dir_all(&root);
    }
}
