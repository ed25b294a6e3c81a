//! The committed-debt baseline.
//!
//! `analyze-baseline.json` records pre-existing findings so the analysis
//! can gate *new* violations without first requiring the whole workspace
//! to be cleaned up. Entries are keyed by `(rule, path)` with an allowance
//! `count`: up to `count` findings of that rule in that file are
//! tolerated. The allowance shrinks as debt is burned down — when a file
//! drops below its allowance the run reports the entry as stale so the
//! baseline can be tightened, and it never grows silently because any
//! finding beyond the allowance fails the run.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::Finding;

/// One `(rule, path)` allowance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// Rule identifier (e.g. `panic-policy`).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Number of findings tolerated.
    pub count: usize,
    /// Why the debt exists / where its burn-down is tracked.
    pub note: String,
}

/// A set of baseline entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// The allowances, kept sorted by `(path, rule)`.
    pub entries: Vec<BaselineEntry>,
}

/// The committed file format; field order is the key order.
#[derive(Serialize, Deserialize)]
struct BaselineFile {
    version: u64,
    entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Builds a baseline that exactly covers `findings`, grouping them
    /// by `(rule, path)`.
    #[must_use]
    pub fn from_findings(findings: &[Finding], note: &str) -> Self {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for f in findings {
            *counts
                .entry((f.path.clone(), f.rule.to_owned()))
                .or_insert(0) += 1;
        }
        let entries = counts
            .into_iter()
            .map(|((path, rule), count)| BaselineEntry {
                rule,
                path,
                count,
                note: note.to_owned(),
            })
            .collect();
        Self { entries }
    }

    /// Parses the JSON baseline file format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let file: BaselineFile = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if file.version != 1 {
            return Err(format!("unsupported baseline version {}", file.version));
        }
        let mut baseline = Self {
            entries: file.entries,
        };
        baseline.sort();
        Ok(baseline)
    }

    /// Serializes to the committed file format (sorted, pretty, stable).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut sorted = self.clone();
        sorted.sort();
        crate::to_pretty_json(&BaselineFile {
            version: 1,
            entries: sorted.entries,
        })
    }

    fn sort(&mut self) {
        self.entries
            .sort_by(|a, b| (&a.path, &a.rule).cmp(&(&b.path, &b.rule)));
    }

    /// Splits `findings` into (non-baselined, baselined-count) and
    /// reports stale entries whose allowance was not fully used.
    ///
    /// `scanned` is the set of workspace-relative paths the run actually
    /// visited. An entry whose path is not in that set names a file that
    /// no longer exists (or was never scanned); it is reported as stale
    /// even when its allowance is zero, so deleted files cannot keep
    /// ghost entries in the ledger forever. Pass `None` when no path set
    /// is available (e.g. when matching synthetic findings in tests) —
    /// then only unused allowances are stale.
    #[must_use]
    pub fn apply(
        &self,
        findings: Vec<Finding>,
        scanned: Option<&BTreeSet<String>>,
    ) -> BaselineOutcome {
        let mut remaining: BTreeMap<(String, String), usize> = self
            .entries
            .iter()
            .map(|e| ((e.rule.clone(), e.path.clone()), e.count))
            .collect();
        let mut outstanding = Vec::new();
        let mut baselined = 0usize;
        for finding in findings {
            let key = (finding.rule.to_owned(), finding.path.clone());
            match remaining.get_mut(&key) {
                Some(allowance) if *allowance > 0 => {
                    *allowance -= 1;
                    baselined += 1;
                }
                _ => outstanding.push(finding),
            }
        }
        let stale = remaining
            .into_iter()
            .filter_map(|((rule, path), unused)| {
                let missing_path = scanned.is_some_and(|set| !set.contains(&path));
                (unused > 0 || missing_path).then_some(StaleEntry {
                    rule,
                    path,
                    unused,
                    missing_path,
                })
            })
            .collect();
        BaselineOutcome {
            findings: outstanding,
            baselined,
            stale,
        }
    }
}

/// A baseline allowance that exceeds the findings actually present —
/// debt that has been paid down and should be removed from the file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StaleEntry {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// Unused allowance.
    pub unused: usize,
    /// Whether the entry's path was absent from the scanned file set
    /// (the file was deleted or renamed since the entry was written).
    pub missing_path: bool,
}

/// The result of matching findings against a baseline.
#[derive(Debug)]
pub struct BaselineOutcome {
    /// Findings not covered by any allowance.
    pub findings: Vec<Finding>,
    /// Number of findings absorbed by the baseline.
    pub baselined: usize,
    /// Entries with unused allowance, sorted by `(rule, path)`.
    pub stale: Vec<StaleEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: usize) -> Finding {
        Finding {
            rule,
            path: path.to_owned(),
            line,
            message: "m".to_owned(),
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let findings = vec![
            finding("panic-policy", "crates/a/src/lib.rs", 3),
            finding("panic-policy", "crates/a/src/lib.rs", 9),
            finding("determinism", "crates/b/src/x.rs", 1),
        ];
        let baseline = Baseline::from_findings(&findings, "tracked debt");
        let text = baseline.to_json();
        let back = Baseline::from_json(&text).unwrap();
        assert_eq!(back, baseline);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn apply_absorbs_up_to_allowance() {
        let baseline = Baseline {
            entries: vec![BaselineEntry {
                rule: "panic-policy".into(),
                path: "crates/a/src/lib.rs".into(),
                count: 1,
                note: String::new(),
            }],
        };
        let outcome = baseline.apply(
            vec![
                finding("panic-policy", "crates/a/src/lib.rs", 3),
                finding("panic-policy", "crates/a/src/lib.rs", 9),
            ],
            None,
        );
        assert_eq!(outcome.baselined, 1);
        assert_eq!(outcome.findings.len(), 1);
        assert!(outcome.stale.is_empty());
    }

    #[test]
    fn unused_allowance_is_stale() {
        let baseline = Baseline {
            entries: vec![BaselineEntry {
                rule: "panic-policy".into(),
                path: "crates/a/src/lib.rs".into(),
                count: 5,
                note: String::new(),
            }],
        };
        let outcome = baseline.apply(
            vec![finding("panic-policy", "crates/a/src/lib.rs", 3)],
            None,
        );
        assert_eq!(outcome.baselined, 1);
        assert_eq!(
            outcome.stale,
            vec![StaleEntry {
                rule: "panic-policy".into(),
                path: "crates/a/src/lib.rs".into(),
                unused: 4,
                missing_path: false,
            }]
        );
    }

    #[test]
    fn entry_for_unscanned_path_is_stale_even_with_zero_allowance() {
        let baseline = Baseline {
            entries: vec![
                BaselineEntry {
                    rule: "panic-policy".into(),
                    path: "crates/gone/src/lib.rs".into(),
                    count: 0,
                    note: String::new(),
                },
                BaselineEntry {
                    rule: "panic-policy".into(),
                    path: "crates/a/src/lib.rs".into(),
                    count: 1,
                    note: String::new(),
                },
            ],
        };
        let scanned: BTreeSet<String> = ["crates/a/src/lib.rs".to_owned()].into_iter().collect();
        let outcome = baseline.apply(
            vec![finding("panic-policy", "crates/a/src/lib.rs", 3)],
            Some(&scanned),
        );
        assert_eq!(outcome.baselined, 1);
        assert_eq!(
            outcome.stale,
            vec![StaleEntry {
                rule: "panic-policy".into(),
                path: "crates/gone/src/lib.rs".into(),
                unused: 0,
                missing_path: true,
            }]
        );
    }

    #[test]
    fn rejects_malformed_baselines() {
        assert!(Baseline::from_json("{}").is_err());
        assert!(Baseline::from_json("{\"version\": 2, \"entries\": []}").is_err());
        assert!(Baseline::from_json("{\"version\": 1, \"entries\": [{\"rule\": \"x\"}]}").is_err());
    }
}
