//! In-repo static analysis for the `fcdpm` workspace.
//!
//! The paper's headline number (FC-DPM consuming 30.8 % of Conv-DPM's
//! fuel) is only reproducible if the simulator is bit-deterministic,
//! dimensionally sound and fed the DAC'07 constants, so the invariants
//! the workspace relies on are machine-checked instead of left to
//! convention. One [`Rule`] catalogue covers three kinds of check.
//! Each rule guards a property nothing cheaper already checks: grid
//! feasibility is a load-time check in `fcdpm-runner`, unit mixing is a
//! compile error pinned by `fcdpm-units` doctests, and the worker pool
//! holds no lock.
//!
//! Per-file lexical rules (`lexical.rs`):
//!
//! * [`Rule::Determinism`] — no wall-clock reads and no
//!   iteration-order-nondeterministic containers in simulation crates;
//!   timing belongs in `fcdpm-runner`.
//! * [`Rule::UnitSafety`] — physical quantities in public signatures of
//!   physics crates use `fcdpm-units` newtypes, and physics code avoids
//!   narrowing `as` casts.
//! * [`Rule::PanicPolicy`] — no `unwrap`/`expect`/`panic!` in non-test
//!   library code.
//! * [`Rule::CrateHygiene`] — every crate root carries
//!   `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.
//!
//! Workspace-aware rules:
//!
//! * [`Rule::Layering`] — `use fcdpm_*` edges respect the intended
//!   dependency DAG ([`symbols`]).
//! * [`Rule::UnitDataflow`] — follows raw `f64` projections of unit
//!   newtypes (`i.amps()`) through `let`-bindings and arithmetic inside
//!   function bodies, where the compiler sees only `f64` ([`dataflow`]).
//! * [`Rule::PaperConstants`] — every DAC'07 constant recorded in
//!   `paper-constants.toml` appears verbatim as a literal in the source
//!   file its manifest section names ([`constants`]).
//!
//! Rules guarding the byte-identical-artifact contract:
//!
//! * [`Rule::DigestStability`] — digest-keyed structs (`GridSpec`,
//!   `JobSpec`) account for every serde field in an explicit
//!   folded/masked manifest pair ([`digest`]).
//! * [`Rule::AtomicArtifact`] — writes into a grid run directory go
//!   through the tmp+rename publishers or the checksummed-append
//!   checkpoint writer ([`artifacts`]).
//!
//! The crate is dependency-free apart from the vendored serde shims (the
//! workspace builds offline, so no `syn`/`clippy-utils`): [`scan`] is a
//! hand-rolled lexer that blanks comments and literals, run once per
//! file, and every rule works on its cleaned text.
//!
//! Findings are suppressed either inline
//! (`// fcdpm-lint: allow(panic-policy)` on the offending line or the
//! line above) or via the committed [`Baseline`]
//! (`analyze-baseline.json`) that records pre-existing debt. Output is
//! deterministic — findings are sorted by `(path, line, rule, message)`
//! — so two runs over the same tree produce byte-identical human, JSON
//! and SARIF reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod baseline;
pub mod constants;
pub mod dataflow;
pub mod digest;
mod lexical;
mod sarif;
pub mod scan;
pub mod symbols;
mod syntax;
pub mod toml;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

pub use baseline::{Baseline, BaselineEntry, BaselineOutcome, StaleEntry};
pub use constants::MANIFEST_PATH;
pub use scan::Scan;

/// The rule catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No wall-clock or iteration-order nondeterminism in simulation
    /// crates. Timing belongs in `fcdpm-runner`.
    Determinism,
    /// Physical quantities in public signatures of physics crates use
    /// `fcdpm-units` newtypes, and physics code avoids narrowing casts.
    UnitSafety,
    /// No `unwrap`/`expect`/`panic!` (or `unreachable!`/`todo!`/
    /// `unimplemented!`) in non-test library code.
    PanicPolicy,
    /// Every crate root carries `#![forbid(unsafe_code)]` and
    /// `#![warn(missing_docs)]`.
    CrateHygiene,
    /// No raw `f64` projections of distinct dimensions mixed inside
    /// function bodies.
    UnitDataflow,
    /// Cross-crate `use` edges respect the intended dependency layering.
    Layering,
    /// Hard-coded paper constants match `paper-constants.toml`.
    PaperConstants,
    /// Digest-keyed structs account for every field (folded or masked).
    DigestStability,
    /// Run-directory writes must use the atomic/checksummed helpers.
    AtomicArtifact,
}

impl Rule {
    /// Every rule, in catalogue order.
    pub const ALL: [Rule; 9] = [
        Rule::Determinism,
        Rule::UnitSafety,
        Rule::PanicPolicy,
        Rule::CrateHygiene,
        Rule::UnitDataflow,
        Rule::Layering,
        Rule::PaperConstants,
        Rule::DigestStability,
        Rule::AtomicArtifact,
    ];

    /// Stable identifier used in reports, baselines and suppressions.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::UnitSafety => "unit-safety",
            Rule::PanicPolicy => "panic-policy",
            Rule::CrateHygiene => "crate-hygiene",
            Rule::UnitDataflow => "unit-dataflow",
            Rule::Layering => "layering",
            Rule::PaperConstants => "paper-constants",
            Rule::DigestStability => "digest-stability",
            Rule::AtomicArtifact => "atomic-artifact",
        }
    }

    /// Parses a rule identifier.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// One-line description (also the SARIF rule short description).
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::Determinism => {
                "no wall-clock reads or iteration-order nondeterminism in simulation crates"
            }
            Rule::UnitSafety => {
                "physical quantities use fcdpm-units newtypes; no narrowing casts in physics code"
            }
            Rule::PanicPolicy => "no unwrap/expect/panic! in non-test library code",
            Rule::CrateHygiene => {
                "crate roots carry #![forbid(unsafe_code)] and #![warn(missing_docs)]"
            }
            Rule::UnitDataflow => {
                "arithmetic must not mix raw f64 projections of distinct dimensions"
            }
            Rule::Layering => "cross-crate use edges must follow the workspace dependency DAG",
            Rule::PaperConstants => "hard-coded paper constants must match paper-constants.toml",
            Rule::DigestStability => {
                "every field of a digest-keyed struct must be explicitly folded or masked"
            }
            Rule::AtomicArtifact => {
                "run-directory writes must go through the tmp+rename or \
                 checksummed-append helpers"
            }
        }
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
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
    /// Findings not absorbed by an inline suppression or the baseline,
    /// sorted by `(path, line, rule, message)`.
    pub findings: Vec<Finding>,
    /// Findings silenced by inline allow directives.
    pub inline_suppressed: usize,
    /// Findings absorbed by baseline allowances.
    pub baselined: usize,
    /// Baseline allowances that exceed the findings actually present.
    pub stale: Vec<StaleEntry>,
    /// Number of input files (sources and the paper manifest) analyzed.
    pub files_scanned: usize,
}

/// The `--format json` document; field order is the key order.
#[derive(Serialize)]
struct JsonReport {
    version: u64,
    files_scanned: usize,
    findings: Vec<Finding>,
    counts: JsonCounts,
    stale_baseline_entries: Vec<StaleEntry>,
}

#[derive(Serialize)]
struct JsonCounts {
    findings: usize,
    baselined: usize,
    inline_suppressed: usize,
}

/// Two-space-indented JSON with a trailing newline. Every document this
/// crate writes holds only integers, strings, booleans and nesting, and
/// serialization can only fail on a non-finite float.
pub(crate) fn to_pretty_json(value: &impl Serialize) -> String {
    let mut text = serde_json::to_string_pretty(value).unwrap_or_default();
    text.push('\n');
    text
}

impl Report {
    /// Whether the run should exit zero: no finding escaped both the
    /// inline suppressions and the baseline.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report (deterministic ordering).
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for finding in &self.findings {
            out.push_str(&finding.to_string());
            out.push('\n');
        }
        for stale in &self.stale {
            if stale.missing_path {
                out.push_str(&format!(
                    "stale baseline entry: {} [{}] names a file that no longer exists — remove it from the baseline\n",
                    stale.path, stale.rule
                ));
            } else {
                out.push_str(&format!(
                    "stale baseline entry: {} [{}] allows {} more finding(s) than exist — tighten the baseline\n",
                    stale.path, stale.rule, stale.unused
                ));
            }
        }
        out.push_str(&format!(
            "{} file(s) scanned: {} finding(s), {} baselined, {} inline-suppressed, {} stale baseline entr{}\n",
            self.files_scanned,
            self.findings.len(),
            self.baselined,
            self.inline_suppressed,
            self.stale.len(),
            if self.stale.len() == 1 { "y" } else { "ies" },
        ));
        out
    }

    /// Renders the `--format json` report. Byte-identical across runs
    /// over the same tree: findings and stale entries are sorted and
    /// keys are emitted in a fixed order.
    #[must_use]
    pub fn to_json(&self) -> String {
        to_pretty_json(&JsonReport {
            version: 1,
            files_scanned: self.files_scanned,
            findings: self.findings.clone(),
            counts: JsonCounts {
                findings: self.findings.len(),
                baselined: self.baselined,
                inline_suppressed: self.inline_suppressed,
            },
            stale_baseline_entries: self.stale.clone(),
        })
    }

    /// Renders the `--format sarif` report: SARIF 2.1.0 with every result
    /// at `level: error`.
    #[must_use]
    pub fn to_sarif(&self) -> String {
        sarif::to_sarif(self)
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
pub(crate) fn crate_of(rel_path: &str) -> Option<&str> {
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
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
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

/// Analyzes the workspace under `root` and matches the result against
/// `baseline` (conventionally `analyze-baseline.json`).
///
/// Every source file is read and lexed once. The per-file rules run on
/// that scan; the symbol graph built from the same scans feeds the
/// layering pass; then the paper manifest is checked.
///
/// # Errors
///
/// Propagates I/O errors from traversal or file reads.
pub fn run(root: &Path, baseline: &Baseline) -> io::Result<Report> {
    let files = workspace_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for (rel, path) in &files {
        let source = fs::read_to_string(path)?;
        let scan = Scan::new(&source);
        sources.push((rel.as_str(), source, scan));
    }

    let symbols: Vec<symbols::FileSymbols> = sources
        .iter()
        .map(|(rel, _, scan)| symbols::file_symbols(rel, scan))
        .collect();

    let mut findings = Vec::new();
    let mut inline_suppressed = 0usize;
    for (rel, source, scan) in &sources {
        let mut raw = lexical::check_file(rel, scan);
        if is_physics_file(rel) {
            raw.extend(dataflow::check_file(rel, scan));
        }
        raw.extend(digest::check_file(rel, source, scan));
        raw.extend(artifacts::check_file(rel, scan));
        for finding in raw {
            if scan.is_suppressed(finding.rule, finding.line) {
                inline_suppressed += 1;
            } else {
                findings.push(finding);
            }
        }
    }
    findings.extend(symbols::check_layering(&symbols));

    let mut scanned: BTreeSet<String> = files.iter().map(|(rel, _)| rel.clone()).collect();

    // Paper-constants conformance — skipped entirely when the manifest
    // is absent (scratch workspaces in tests have none).
    if let Ok(text) = fs::read_to_string(root.join(MANIFEST_PATH)) {
        scanned.insert(MANIFEST_PATH.to_owned());
        findings.extend(constants::check(root, &text));
    }

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    let files_scanned = scanned.len();
    let outcome = baseline.apply(findings, Some(&scanned));
    Ok(Report {
        findings: outcome.findings,
        inline_suppressed,
        baselined: outcome.baselined,
        stale: outcome.stale,
        files_scanned,
    })
}

/// Analyzes the tree and builds a baseline that exactly covers the
/// current findings (the `--write-baseline` workflow).
///
/// # Errors
///
/// Propagates I/O errors from traversal or file reads.
pub fn snapshot_baseline(root: &Path, note: &str) -> io::Result<Baseline> {
    let report = run(root, &Baseline::default())?;
    Ok(Baseline::from_findings(&report.findings, note))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_stable_and_round_trip() {
        let ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        assert_eq!(
            ids,
            [
                "determinism",
                "unit-safety",
                "panic-policy",
                "crate-hygiene",
                "unit-dataflow",
                "layering",
                "paper-constants",
                "digest-stability",
                "atomic-artifact"
            ]
        );
        for rule in Rule::ALL {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("nope"), None);
    }

    #[test]
    fn report_renderings_are_deterministic() {
        let report = Report {
            findings: vec![Finding {
                rule: "panic-policy",
                path: "crates/a/src/lib.rs".into(),
                line: 4,
                message: "m \"quoted\"".into(),
            }],
            inline_suppressed: 2,
            baselined: 3,
            stale: vec![StaleEntry {
                rule: "determinism".into(),
                path: "crates/b/src/lib.rs".into(),
                unused: 1,
                missing_path: false,
            }],
            files_scanned: 7,
        };
        assert_eq!(report.to_human(), report.to_human());
        assert!(report.to_human().contains("crates/a/src/lib.rs:4"));
        assert!(!report.is_clean());
        assert_eq!(
            report.to_json(),
            r#"{
  "version": 1,
  "files_scanned": 7,
  "findings": [
    {
      "rule": "panic-policy",
      "path": "crates/a/src/lib.rs",
      "line": 4,
      "message": "m \"quoted\""
    }
  ],
  "counts": {
    "findings": 1,
    "baselined": 3,
    "inline_suppressed": 2
  },
  "stale_baseline_entries": [
    {
      "rule": "determinism",
      "path": "crates/b/src/lib.rs",
      "unused": 1,
      "missing_path": false
    }
  ]
}
"#
        );
    }

    #[test]
    fn empty_report_is_clean() {
        let report = Report::default();
        assert!(report.is_clean());
        assert!(report.to_human().contains("0 finding(s)"));
        assert!(report.to_json().contains("\"findings\": []"));
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
