//! Digest-keyed pass cache (`analyze-cache.json`).
//!
//! Every run reads, digests (FNV-1a, the grid-resume idiom) and scans
//! every workspace file — that part is cheap and parallel — but *pass
//! execution* is cached:
//!
//! * intra-file passes (`unit-dataflow`, `digest-stability`) are valid
//!   while the file's content digest is unchanged;
//! * the interprocedural pass (`determinism-taint`) is valid while
//!   the content digest **and** the dependency digest are
//!   unchanged, where the dependency digest folds the (key, summary
//!   digest) pairs of every resolved cross-file callee
//!   ([`SummaryContext::file_deps`](crate::summaries::SummaryContext::file_deps))
//!   — editing a helper re-runs exactly its callers' interprocedural
//!   passes, nothing else;
//! * graph passes (layering, lock cycles, paper constants, grid
//!   feasibility) are recomputed every run from the always-fresh
//!   extraction — they are global and already cheap.
//!
//! Cached findings are stored *pre-suppression*; inline suppressions
//! are re-applied from the live scan, so editing only a suppression
//! comment behaves correctly even on a full-hit run. The file is
//! written atomically (unique tmp + rename), and a corrupt or
//! version-skewed cache degrades to a cold run, never an error.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use fcdpm_lint::{json, json::Json, Finding};
use fcdpm_runner::spec::fnv1a;

use crate::ALL_RULES;

/// Conventional cache file name, resolved against the analysis root.
pub const CACHE_FILE: &str = "analyze-cache.json";

/// One finding as cached (the rule id is interned back against
/// [`ALL_RULES`] on load; the path is implied by the owning entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedFinding {
    /// Rule id (must name a catalogue rule to replay).
    pub rule: &'static str,
    /// 1-indexed line.
    pub line: usize,
    /// Finding message.
    pub message: String,
}

impl CachedFinding {
    /// Rehydrates a [`Finding`] for `path`.
    #[must_use]
    pub fn to_finding(&self, path: &str) -> Finding {
        Finding {
            rule: self.rule,
            path: path.to_owned(),
            line: self.line,
            message: self.message.clone(),
        }
    }

    /// Captures a computed [`Finding`] (the path is dropped — it is the
    /// entry's key).
    #[must_use]
    pub fn from_finding(finding: &Finding) -> Self {
        Self {
            rule: finding.rule,
            line: finding.line,
            message: finding.message.clone(),
        }
    }
}

/// The cached state of one source file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CachedFile {
    /// FNV-1a digest of the file's bytes.
    pub digest: u64,
    /// Sorted `(callee key, summary digest)` dependency list backing
    /// the interprocedural results.
    pub deps: Vec<(String, u64)>,
    /// Pre-suppression findings per pass bucket.
    pub passes: BTreeMap<String, Vec<CachedFinding>>,
}

/// The whole persisted cache.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    /// Per-source-file entries, keyed by workspace-relative path.
    pub files: BTreeMap<String, CachedFile>,
    /// Content digests of non-source inputs (`paper-constants.toml`,
    /// `examples/*.json`) — tracked so `--changed` sees their edits.
    pub inputs: BTreeMap<String, u64>,
}

/// Interns a rule id against the catalogue.
fn rule_by_id(id: &str) -> Option<&'static str> {
    ALL_RULES.iter().map(|r| r.id()).find(|r| *r == id)
}

impl Cache {
    /// True when nothing was loaded (a cold run).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.files.is_empty() && self.inputs.is_empty()
    }

    /// Loads the cache at `path`. Any miss — absent file, parse error,
    /// version skew, unknown rule id — degrades to an empty cache.
    #[must_use]
    pub fn load(path: &Path) -> Self {
        fs::read_to_string(path)
            .ok()
            .and_then(|text| Self::from_json(&text))
            .unwrap_or_default()
    }

    fn from_json(text: &str) -> Option<Self> {
        let doc = json::parse(text).ok()?;
        if doc.get("version")?.as_u64()? != 1 {
            return None;
        }
        let mut cache = Cache::default();
        for entry in doc.get("files")?.as_arr()? {
            let path = entry.get("path")?.as_str()?.to_owned();
            let mut file = CachedFile {
                digest: entry.get("digest")?.as_u64()?,
                ..CachedFile::default()
            };
            for dep in entry.get("deps")?.as_arr()? {
                file.deps.push((
                    dep.get("fn")?.as_str()?.to_owned(),
                    dep.get("digest")?.as_u64()?,
                ));
            }
            for pass in entry.get("passes")?.as_arr()? {
                let bucket = pass.get("pass")?.as_str()?.to_owned();
                let mut findings = Vec::new();
                for f in pass.get("findings")?.as_arr()? {
                    findings.push(CachedFinding {
                        rule: rule_by_id(f.get("rule")?.as_str()?)?,
                        line: usize::try_from(f.get("line")?.as_u64()?).ok()?,
                        message: f.get("message")?.as_str()?.to_owned(),
                    });
                }
                file.passes.insert(bucket, findings);
            }
            cache.files.insert(path, file);
        }
        for input in doc.get("inputs")?.as_arr()? {
            cache.inputs.insert(
                input.get("path")?.as_str()?.to_owned(),
                input.get("digest")?.as_u64()?,
            );
        }
        Some(cache)
    }

    fn to_json(&self) -> String {
        let files = self
            .files
            .iter()
            .map(|(path, file)| {
                let deps = file
                    .deps
                    .iter()
                    .map(|(key, digest)| {
                        Json::Obj(vec![
                            ("fn".into(), Json::Str(key.clone())),
                            ("digest".into(), Json::Num(*digest)),
                        ])
                    })
                    .collect();
                let passes = file
                    .passes
                    .iter()
                    .map(|(bucket, findings)| {
                        let list = findings
                            .iter()
                            .map(|f| {
                                Json::Obj(vec![
                                    ("rule".into(), Json::Str(f.rule.into())),
                                    ("line".into(), Json::Num(f.line as u64)),
                                    ("message".into(), Json::Str(f.message.clone())),
                                ])
                            })
                            .collect();
                        Json::Obj(vec![
                            ("pass".into(), Json::Str(bucket.clone())),
                            ("findings".into(), Json::Arr(list)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("path".into(), Json::Str(path.clone())),
                    ("digest".into(), Json::Num(file.digest)),
                    ("deps".into(), Json::Arr(deps)),
                    ("passes".into(), Json::Arr(passes)),
                ])
            })
            .collect();
        let inputs = self
            .inputs
            .iter()
            .map(|(path, digest)| {
                Json::Obj(vec![
                    ("path".into(), Json::Str(path.clone())),
                    ("digest".into(), Json::Num(*digest)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("version".into(), Json::Num(1)),
            ("files".into(), Json::Arr(files)),
            ("inputs".into(), Json::Arr(inputs)),
        ])
        .to_pretty()
    }

    /// Writes the cache atomically: a uniquely named sibling tmp file,
    /// then rename, so concurrent analyzers never observe a torn cache.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the write or rename.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp-{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        fs::write(&tmp, self.to_json())?;
        fs::rename(&tmp, path)
    }
}

/// Digest of one file's raw bytes.
#[must_use]
pub fn content_digest(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

/// Hit/miss accounting for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Source files considered.
    pub files_total: usize,
    /// Files whose every cached pass replayed (content and dependency
    /// digests both unchanged).
    pub files_reused: usize,
    /// Individual pass results replayed from cache.
    pub pass_hits: usize,
    /// Individual pass results recomputed.
    pub pass_misses: usize,
    /// No usable cache was loaded.
    pub cold: bool,
}

impl CacheStats {
    /// Human-format summary line (deliberately absent from JSON/SARIF so
    /// cold and warm artifacts stay byte-identical).
    #[must_use]
    pub fn human_line(&self) -> String {
        let pct = if self.files_total == 0 {
            100.0
        } else {
            self.files_reused as f64 / self.files_total as f64 * 100.0
        };
        format!(
            "analyze cache: {}/{} file(s) reused ({pct:.1}%); pass results: {} hit, {} recomputed{}",
            self.files_reused,
            self.files_total,
            self.pass_hits,
            self.pass_misses,
            if self.cold { " (cold run)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cache {
        let mut cache = Cache::default();
        cache.files.insert(
            "crates/a/src/lib.rs".into(),
            CachedFile {
                digest: 0xdead_beef,
                deps: vec![("crates/b/src/lib.rs::helper#0".into(), 42)],
                passes: BTreeMap::from([
                    (
                        "taint".to_owned(),
                        vec![CachedFinding {
                            rule: "determinism-taint",
                            line: 7,
                            message: "m".into(),
                        }],
                    ),
                    ("dataflow".to_owned(), Vec::new()),
                ]),
            },
        );
        cache.inputs.insert("paper-constants.toml".into(), 9);
        cache
    }

    #[test]
    fn round_trips_through_json() {
        let cache = sample();
        let text = cache.to_json();
        let back = Cache::from_json(&text).unwrap();
        assert_eq!(back.files, cache.files);
        assert_eq!(back.inputs, cache.inputs);
        // Serialization is deterministic.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn corrupt_or_skewed_caches_degrade_to_cold() {
        assert!(Cache::from_json("not json").is_none());
        assert!(Cache::from_json("{\"version\": 2, \"files\": [], \"inputs\": []}").is_none());
        let unknown_rule = "{\"version\": 1, \"files\": [{\"path\": \"a\", \"digest\": 1, \"deps\": [], \"passes\": [{\"pass\": \"taint\", \"findings\": [{\"rule\": \"no-such-rule\", \"line\": 1, \"message\": \"m\"}]}]}], \"inputs\": []}";
        assert!(Cache::from_json(unknown_rule).is_none());
        assert!(Cache::load(Path::new("/no/such/analyze-cache.json")).is_empty());
    }

    #[test]
    fn save_is_atomic_and_reloadable() {
        let dir = std::env::temp_dir().join(format!("fcdpm-cache-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CACHE_FILE);
        let cache = sample();
        cache.save(&path).unwrap();
        let back = Cache::load(&path);
        assert_eq!(back.files, cache.files);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_render_the_human_line() {
        let stats = CacheStats {
            files_total: 127,
            files_reused: 127,
            pass_hits: 508,
            pass_misses: 0,
            cold: false,
        };
        assert_eq!(
            stats.human_line(),
            "analyze cache: 127/127 file(s) reused (100.0%); pass results: 508 hit, 0 recomputed"
        );
    }
}
