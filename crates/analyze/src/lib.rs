//! In-repo static analysis for the `fcdpm` workspace.
//!
//! The paper's headline number (FC-DPM consuming 30.8 % of Conv-DPM's
//! fuel) is only reproducible if the simulator is bit-deterministic,
//! dimensionally sound and fed the DAC'07 constants, so the invariants
//! the workspace relies on are machine-checked instead of left to
//! convention. Each rule lives in exactly one checker. Clippy
//! (`clippy.toml` and `[workspace.lints]`) enforces determinism and the
//! panic policy; `tests/manifests.rs` pins crate hygiene and layering;
//! `tests/paper_constants.rs` pins the DAC'07 constants and
//! `tests/serde_roundtrips.rs` the digest keys; grid feasibility is a
//! load-time check in `fcdpm-runner`; unit mixing is a compile error
//! pinned by `fcdpm-units` doctests. The [`Rule`] catalogue here holds
//! the three rules no other tool can express:
//!
//! * [`Rule::UnitSafety`] — physical quantities in public signatures of
//!   physics crates use `fcdpm-units` newtypes, and physics code avoids
//!   narrowing `as` casts (`lexical.rs`).
//! * [`Rule::UnitDataflow`] — follows raw `f64` projections of unit
//!   newtypes (`i.amps()`) through `let`-bindings and arithmetic inside
//!   function bodies, where the compiler sees only `f64` ([`dataflow`]).
//! * [`Rule::AtomicArtifact`] — writes into a grid run directory go
//!   through the tmp+rename publishers or the checksummed-append
//!   checkpoint writer ([`artifacts`]).
//!
//! The crate is std-only (the workspace builds offline, so no
//! `syn`/`clippy-utils`): [`scan`] is a hand-rolled lexer that blanks
//! comments and literals, run once per file, and every rule works on its
//! cleaned text. Findings are sorted by `(path, line, rule, message)`,
//! so two runs over the same tree print byte-identical reports.

pub mod artifacts;
pub mod dataflow;
mod lexical;
pub mod scan;
mod syntax;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use scan::Scan;

/// The rule catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Physical quantities in public signatures of physics crates use
    /// `fcdpm-units` newtypes, and physics code avoids narrowing casts.
    UnitSafety,
    /// No raw `f64` projections of distinct dimensions mixed inside
    /// function bodies.
    UnitDataflow,
    /// Run-directory writes must use the atomic/checksummed helpers.
    AtomicArtifact,
}

impl Rule {
    /// Every rule, in catalogue order.
    pub const ALL: [Rule; 3] = [Rule::UnitSafety, Rule::UnitDataflow, Rule::AtomicArtifact];

    /// Stable identifier used in reports.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnitSafety => "unit-safety",
            Rule::UnitDataflow => "unit-dataflow",
            Rule::AtomicArtifact => "atomic-artifact",
        }
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable identifier of the rule that fired (see [`Rule::id`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The aggregate result of analyzing a workspace tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, sorted by `(path, line, rule, message)`.
    pub findings: Vec<Finding>,
    /// Number of source files analyzed.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run should exit zero: no rule fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the report: one `path:line: [rule] message` line per
    /// finding, then a summary line (deterministic ordering).
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for finding in &self.findings {
            out.push_str(&finding.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} file(s) scanned: {} finding(s)\n",
            self.files_scanned,
            self.findings.len(),
        ));
        out
    }
}

/// Crates whose `src/` trees model physical quantities: the unit-safety
/// and unit-dataflow rules cover exactly these.
const PHYSICS_CRATES: [&str; 8] = [
    "sim", "core", "predict", "fuelcell", "storage", "device", "dvs", "workload",
];

/// Returns the crate name if `rel_path` is a library source file of a
/// workspace crate (e.g. `crates/sim/src/simulator.rs` → `sim`). The
/// facade crate's root `src/` is reported as `fcdpm`.
fn crate_of(rel_path: &str) -> Option<&str> {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        let (name, tail) = rest.split_once('/')?;
        tail.starts_with("src/").then_some(name)
    } else if rel_path.starts_with("src/") {
        Some("fcdpm")
    } else {
        None
    }
}

fn is_physics_file(rel_path: &str) -> bool {
    crate_of(rel_path).is_some_and(|name| PHYSICS_CRATES.contains(&name))
}

/// Collects the workspace-relative paths of all library/binary sources
/// the analysis covers: `src/**/*.rs` and `crates/*/src/**/*.rs` under
/// `root`, sorted so traversal order never depends on the OS. `vendor/`
/// (offline dependency shims), `target/` and test/bench/example trees
/// are outside the walk by construction.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal.
fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect_rs(&src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let dir = entry?.path().join("src");
            if dir.is_dir() {
                collect_rs(&dir, &mut files)?;
            }
        }
    }
    let mut rel: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter_map(|path| {
            let rel = path
                .strip_prefix(root)
                .ok()?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            Some((rel, path))
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes the workspace under `root`.
///
/// Every source file is read and lexed once and the per-file rules run
/// on that scan.
///
/// # Errors
///
/// Propagates I/O errors from traversal or file reads.
pub fn run(root: &Path) -> io::Result<Report> {
    let files = workspace_files(root)?;
    let mut findings = Vec::new();
    for (rel, path) in &files {
        let source = fs::read_to_string(path)?;
        let scan = Scan::new(&source);
        if is_physics_file(rel) {
            findings.extend(lexical::check_file(rel, &scan));
            findings.extend(dataflow::check_file(rel, &scan));
        }
        findings.extend(artifacts::check_file(rel, &scan));
    }

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_stable() {
        let ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        assert_eq!(ids, ["unit-safety", "unit-dataflow", "atomic-artifact"]);
    }

    #[test]
    fn report_renderings_are_deterministic() {
        let report = Report {
            findings: vec![Finding {
                rule: "unit-safety",
                path: "crates/a/src/lib.rs".into(),
                line: 4,
                message: "m \"quoted\"".into(),
            }],
            files_scanned: 7,
        };
        assert_eq!(report.to_human(), report.to_human());
        assert_eq!(
            report.to_human(),
            "crates/a/src/lib.rs:4: [unit-safety] m \"quoted\"\n7 file(s) scanned: 1 finding(s)\n"
        );
        assert!(!report.is_clean());
    }

    #[test]
    fn empty_report_is_clean() {
        let report = Report::default();
        assert!(report.is_clean());
        assert!(report.to_human().contains("0 finding(s)"));
    }

    #[test]
    fn crate_scoping_by_path() {
        assert_eq!(crate_of("crates/sim/src/simulator.rs"), Some("sim"));
        assert_eq!(crate_of("src/lib.rs"), Some("fcdpm"));
        assert_eq!(crate_of("crates/sim/tests/integration.rs"), None);
        assert!(is_physics_file("crates/fuelcell/src/stack.rs"));
        assert!(!is_physics_file("crates/units/src/current.rs"));
    }
}
