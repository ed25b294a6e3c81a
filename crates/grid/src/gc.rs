//! Garbage collection for grid run directories.
//!
//! A `kill -9` (or a crashing job) can leave a run directory in any of
//! a handful of recoverable-but-untidy states: a torn partial
//! checkpoint, an orphaned `*.tmp` from an interrupted atomic rename,
//! shard files beyond the spec's shard count, or a corrupt aggregate.
//! [`gc`] walks an output root, classifies every run directory's
//! damage, and either reports it (`dry_run`) or repairs it: torn
//! partials are compacted to their maximal checksum-valid prefix,
//! redundant and orphaned artifacts are deleted, and directories whose
//! `grid.json` is gone — unresumable, since records can no longer be
//! matched to spec digests — are removed wholesale.
//!
//! Safety property: a directory containing anything that is *not* a
//! grid artifact is never deleted, whatever its `grid.json` says.

use std::path::{Path, PathBuf};

use crate::gen::GridSpec;
use crate::manifest::{partial_files, read_partial, read_shard, shard_file_name, shard_files};

/// What [`gc`] decided about one artifact (or directory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcKind {
    /// `grid.json` missing or unparseable and only grid artifacts
    /// inside: the directory cannot be resumed and is removed.
    AbandonedDir,
    /// A `*.tmp` left behind by an interrupted atomic rename — among
    /// them the half-streamed `shard-NNNNN.jsonl.tmp` of a shard that
    /// was killed before promotion.
    OrphanedTmp,
    /// A partial checkpoint with torn bytes past its valid prefix;
    /// compacted in place so a resume replays only whole records.
    TornPartial,
    /// A partial checkpoint whose shard was already promoted; the
    /// final `shard-NNNNN.jsonl` supersedes it.
    RedundantPartial,
    /// A shard file with an index beyond what the spec expands to.
    StaleShard,
    /// A shard file that no longer parses; a resume would fail on it,
    /// so it is removed and its jobs recompute.
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
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Names the engine writes into a run directory (besides shard files).
fn is_grid_artifact(name: &str) -> bool {
    name == "grid.json"
        || name == "aggregate.json"
        || name.ends_with(".tmp")
        || (name.starts_with("shard-") && name.ends_with(".jsonl"))
}

/// Lists a directory's entry names, sorted for deterministic reports.
fn sorted_entries(dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let reader =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list `{}`: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for entry in reader {
        let entry = entry.map_err(|e| format!("cannot list `{}`: {e}", dir.display()))?;
        let Some(name) = entry.file_name().to_str().map(str::to_owned) else {
            continue;
        };
        entries.push((name, entry.path()));
    }
    entries.sort();
    Ok(entries)
}

fn dir_size(dir: &Path) -> u64 {
    sorted_entries(dir)
        .map(|entries| entries.iter().map(|(_, p)| file_len(p)).sum())
        .unwrap_or(0)
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
    for (_, dir) in sorted_entries(root)? {
        if !dir.is_dir() {
            continue;
        }
        report.scanned_dirs += 1;
        gc_run_dir(&dir, dry_run, &mut report)?;
    }
    Ok(report)
}

/// True when the directory's `grid.json` exists and parses.
fn spec_parses(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("grid.json"))
        .ok()
        .and_then(|text| serde_json::from_str::<GridSpec>(&text).ok())
        .is_some()
}

fn gc_run_dir(dir: &Path, dry_run: bool, report: &mut GcReport) -> Result<(), String> {
    let entries = sorted_entries(dir)?;
    let foreign: Vec<&str> = entries
        .iter()
        .filter(|(name, _)| !is_grid_artifact(name))
        .map(|(name, _)| name.as_str())
        .collect();

    // Unresumable directory: no usable grid.json means no spec digests
    // to match records against. Delete it — but only when everything
    // inside is recognisably ours.
    let spec_ok = spec_parses(dir);
    if !spec_ok {
        if foreign.is_empty() {
            let bytes = dir_size(dir);
            report.actions.push(GcAction {
                path: dir.to_path_buf(),
                kind: GcKind::AbandonedDir,
                detail: "grid.json missing or unparseable".into(),
                bytes,
            });
            if !dry_run {
                std::fs::remove_dir_all(dir)
                    .map_err(|e| format!("cannot remove `{}`: {e}", dir.display()))?;
            }
        } else {
            report.actions.push(GcAction {
                path: dir.to_path_buf(),
                kind: GcKind::Foreign,
                detail: format!(
                    "unresumable but contains non-grid files: {}",
                    foreign.join(", ")
                ),
                bytes: 0,
            });
        }
        return Ok(());
    }

    let remove = |path: &Path| -> Result<(), String> {
        if dry_run {
            return Ok(());
        }
        std::fs::remove_file(path).map_err(|e| format!("cannot remove `{}`: {e}", path.display()))
    };

    // Orphaned tmp files from interrupted atomic renames.
    for (name, path) in &entries {
        if name.ends_with(".tmp") {
            report.actions.push(GcAction {
                path: path.clone(),
                kind: GcKind::OrphanedTmp,
                detail: "interrupted atomic rename".into(),
                bytes: file_len(path),
            });
            remove(path)?;
        }
    }

    // Partial checkpoints: redundant once promoted, compacted if torn.
    for path in partial_files(dir)? {
        let Some(shard) = super_shard_index(&path) else {
            continue;
        };
        if dir.join(shard_file_name(shard)).is_file() {
            report.actions.push(GcAction {
                path: path.clone(),
                kind: GcKind::RedundantPartial,
                detail: format!("shard {shard} already promoted"),
                bytes: file_len(&path),
            });
            remove(&path)?;
            continue;
        }
        let partial = read_partial(&path)?;
        if partial.torn_bytes > 0 {
            report.actions.push(GcAction {
                path: path.clone(),
                kind: GcKind::TornPartial,
                detail: format!(
                    "{} valid records kept, {} torn bytes dropped",
                    partial.records.len(),
                    partial.torn_bytes
                ),
                bytes: partial.torn_bytes,
            });
            if !dry_run {
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| format!("cannot open `{}`: {e}", path.display()))?;
                file.set_len(partial.valid_bytes)
                    .map_err(|e| format!("cannot truncate `{}`: {e}", path.display()))?;
                file.sync_data()
                    .map_err(|e| format!("cannot sync `{}`: {e}", path.display()))?;
            }
        }
    }

    // Shard files: stale beyond the spec's expansion, or corrupt.
    let shards = expected_shards(dir);
    for path in shard_files(dir)? {
        let Some(index) = super_shard_index(&path) else {
            continue;
        };
        if let Some(expected) = shards {
            if index >= expected {
                report.actions.push(GcAction {
                    path: path.clone(),
                    kind: GcKind::StaleShard,
                    detail: format!("index {index} beyond the spec's {expected} shards"),
                    bytes: file_len(&path),
                });
                remove(&path)?;
                continue;
            }
        }
        if read_shard(&path).is_err() {
            report.actions.push(GcAction {
                path: path.clone(),
                kind: GcKind::CorruptShard,
                detail: "records no longer parse; jobs will recompute".into(),
                bytes: file_len(&path),
            });
            remove(&path)?;
        }
    }

    // Aggregate: regenerated on resume, so a corrupt one just goes.
    let aggregate = dir.join("aggregate.json");
    if aggregate.is_file() {
        let parses = std::fs::read_to_string(&aggregate)
            .ok()
            .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
            .is_some();
        if !parses {
            report.actions.push(GcAction {
                path: aggregate.clone(),
                kind: GcKind::CorruptAggregate,
                detail: "does not parse; resume rewrites it".into(),
                bytes: file_len(&aggregate),
            });
            remove(&aggregate)?;
        }
    }
    Ok(())
}

/// `ceil(jobs / shard_size)` for the run, from its `grid.json` and the
/// shard size recorded in `aggregate.json` when available. Without a
/// parseable aggregate the shard size is unknown, so staleness cannot
/// be judged and `None` disables that check.
fn expected_shards(dir: &Path) -> Option<u64> {
    let spec_text = std::fs::read_to_string(dir.join("grid.json")).ok()?;
    let spec: GridSpec = serde_json::from_str(&spec_text).ok()?;
    let agg_text = std::fs::read_to_string(dir.join("aggregate.json")).ok()?;
    let agg: serde_json::Value = serde_json::from_str(&agg_text).ok()?;
    let shard_size = agg.get("shard_size")?.as_u64()?;
    if shard_size == 0 {
        return None;
    }
    Some(spec.total_jobs().div_ceil(shard_size))
}

/// The shard index embedded in a `shard-NNNNN[.partial].jsonl` name.
fn super_shard_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("shard-")?
        .strip_suffix(".jsonl")?
        .trim_end_matches(".partial")
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, GridConfig};
    use crate::gen::{GridSpec, SeedAxis, SeedRange, WorkloadKind};
    use fcdpm_runner::PolicySpec;

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
        let records = crate::manifest::read_shard(&dir.join(shard_file_name(1))).expect("reads");
        std::fs::remove_file(dir.join(shard_file_name(1))).expect("removes");
        let mut writer = crate::manifest::PartialShardWriter::create(&dir, 1).expect("creates");
        writer.append(&records[..1]).expect("appends");
        writer.append_torn(&records[1]).expect("tears");
        let path = writer.path().to_path_buf();

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
    fn promoted_shard_supersedes_its_partial() {
        let root = temp_root("redundant");
        let dir = run_into(&root);
        let records = crate::manifest::read_shard(&dir.join(shard_file_name(0))).expect("reads");
        let mut writer = crate::manifest::PartialShardWriter::create(&dir, 0).expect("creates");
        writer.append(&records).expect("appends");
        let partial_path = writer.path().to_path_buf();

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
        // 8 jobs at shard_size 2 → shards 0..3; index 7 is stale.
        std::fs::write(dir.join(shard_file_name(7)), b"").expect("writes");
        let report = gc(&root, false).expect("gc applies");
        assert!(report.actions.iter().any(|a| a.kind == GcKind::StaleShard));
        assert!(!dir.join(shard_file_name(7)).exists());
        let _ = std::fs::remove_dir_all(&root);
    }
}
