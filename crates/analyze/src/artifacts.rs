//! Atomic-artifact discipline: writes into grid run directories must go
//! through the crash-safe helpers.
//!
//! The crash-safety contract (resume after `kill -9` replays a valid
//! prefix and recomputes the rest) holds only if every byte that lands
//! in a run directory is either (a) published atomically — written to a
//! `*.tmp` sibling and renamed into place by `write_atomic`/
//! `write_shard`, both over the runner's one tmp+rename type
//! `AtomicFile` — or (b) appended through the checksummed
//! `PartialShardWriter`, whose per-line digests let the reader truncate
//! a torn tail, and whose checkpoint becomes the shard file by a rename
//! once it is whole. A raw `fs::write`/`File::create` anywhere else in
//! the run-dir-owning files can leave a half-written artifact that a
//! later resume happily parses.
//!
//! This pass is lexical and file-scoped: in each of [`RUN_DIR_FILES`],
//! any raw file-creation call outside the `SANCTIONED` helper
//! functions (and outside test code) is a finding. `manifest.rs` itself
//! is exempt by construction — it *is* the sanctioned writer layer
//! (every one of its publishers goes tmp+rename or checksummed-append).
//! The pass deliberately does not try to prove a write targets a run
//! directory — in these files every production write does, and a false
//! positive is an invitation to route the new write through the
//! helpers, which is the point.

use crate::syntax;
use crate::{Finding, Rule, Scan};

/// The files that orchestrate run-directory bytes above the manifest
/// writer layer: the grid engine (spec, aggregate, checkpoints) and the
/// gc repairs.
pub const RUN_DIR_FILES: [&str; 2] = ["crates/grid/src/engine.rs", "crates/grid/src/gc.rs"];

/// Raw file-creation needles (substring-matched on cleaned text; each
/// ends in `(` so an occurrence is always a call site).
const RAW_WRITES: [&str; 3] = ["fs::write(", "File::create(", "OpenOptions::new("];

/// `(file, function)` pairs allowed to touch the filesystem raw: only
/// the gc compaction that truncates a torn checkpoint or a damaged shard
/// to its checksum-valid prefix (truncation cannot be expressed as
/// tmp+rename without losing the crash-safety of the append-only file it
/// repairs).
const SANCTIONED: [(&str, &str); 1] = [("crates/grid/src/gc.rs", "compact")];

/// Runs the pass over one file. Only [`RUN_DIR_FILES`] can produce
/// findings; other paths return empty immediately.
#[must_use]
pub fn check_file(rel_path: &str, scan: &Scan) -> Vec<Finding> {
    if !RUN_DIR_FILES.contains(&rel_path) {
        return Vec::new();
    }
    let cleaned = &scan.cleaned;
    let mut findings = Vec::new();

    for (fn_off, body) in syntax::function_bodies(cleaned) {
        if scan.is_test_line(scan.line_of(fn_off)) {
            continue;
        }
        let name = syntax::ident_after(cleaned, fn_off + "fn".len());
        if SANCTIONED.contains(&(rel_path, name)) {
            continue;
        }
        let text = &cleaned[body.clone()];
        for needle in RAW_WRITES {
            let mut from = 0usize;
            while let Some(rel) = text[from..].find(needle) {
                let at = from + rel;
                from = at + needle.len();
                let line = scan.line_of(body.start + at);
                if scan.is_test_line(line) {
                    continue;
                }
                let call = needle.trim_end_matches('(');
                findings.push(Finding {
                    rule: Rule::AtomicArtifact.id(),
                    path: rel_path.to_owned(),
                    line,
                    message: format!(
                        "`{call}` in `{name}` writes into a run directory without the \
                         tmp+rename or checksummed-append helpers; use `write_atomic`, \
                         `write_shard` or `PartialShardWriter`"
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_run_dir_files_are_skipped() {
        let src = "fn f(p: &Path) { std::fs::write(p, b\"x\").ok(); }";
        assert!(check_file("crates/sim/src/lib.rs", &Scan::new(src)).is_empty());
    }

    #[test]
    fn raw_write_outside_the_helpers_is_flagged() {
        let src = "fn publish(dir: &Path, text: &str) {\n    std::fs::write(dir.join(\"aggregate.json\"), text).ok();\n}\n";
        let findings = check_file("crates/grid/src/engine.rs", &Scan::new(src));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("write_atomic"));
    }

    #[test]
    fn the_sanctioned_gc_compaction_may_write_raw() {
        let src = "fn compact(dir: &Path) {\n    let f = std::fs::OpenOptions::new().write(true).open(dir);\n}\n";
        assert!(check_file("crates/grid/src/gc.rs", &Scan::new(src)).is_empty());
    }

    #[test]
    fn the_manifest_writer_layer_is_exempt_by_construction() {
        let src = "fn write_atomic(path: &Path, contents: &str) {\n    std::fs::write(path, contents).ok();\n}\n";
        assert!(check_file("crates/grid/src/manifest.rs", &Scan::new(src)).is_empty());
    }

    #[test]
    fn the_sanctioned_name_is_not_sanctioned_elsewhere() {
        let src = "fn compact(path: &Path) { std::fs::write(path, b\"x\").ok(); }";
        let findings = check_file("crates/grid/src/engine.rs", &Scan::new(src));
        assert_eq!(findings.len(), 1, "engine.rs has no sanctioned writers");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn seed(p: &Path) { std::fs::write(p, b\"x\").ok(); }\n}\n";
        assert!(check_file("crates/grid/src/gc.rs", &Scan::new(src)).is_empty());
    }

    #[test]
    fn open_options_counts_as_a_raw_write() {
        let src = "fn truncate(p: &Path) {\n    let f = std::fs::OpenOptions::new().write(true).open(p);\n}\n";
        let findings = check_file("crates/grid/src/gc.rs", &Scan::new(src));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("OpenOptions"));
    }
}
