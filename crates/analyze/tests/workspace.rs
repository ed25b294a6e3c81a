//! End-to-end tests for `fcdpm-analyze`: the committed workspace is
//! clean, reports are deterministic, every rule with a fixture pair
//! fires on its bad file and stays quiet on its ok file, and a seeded
//! dimensional mix behind a re-export is detected in a scratch
//! workspace.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use std::fs;
use std::path::{Path, PathBuf};

use fcdpm_analyze::{Report, Rule};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A scratch workspace under the target dir, deleted on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(name: &str) -> Self {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        fs::remove_dir_all(&root).ok();
        fs::create_dir_all(&root).expect("scratch root");
        Self { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("dirs");
        fs::write(path, contents).expect("write");
    }

    fn analyze(&self) -> Report {
        fcdpm_analyze::run(&self.root).expect("analysis runs")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.root).ok();
    }
}

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// One bad/ok fixture pair: both files are analyzed, alone, under
/// `path` by the full engine.
struct Pair {
    rule: Rule,
    path: &'static str,
    bad: &'static str,
    /// Exact number of findings the bad file produces.
    bad_findings: usize,
    /// Phrases that must each appear in some bad-file finding.
    mentions: &'static [&'static str],
    ok: &'static str,
}

const PAIRS: [Pair; 2] = [
    Pair {
        rule: Rule::UnitSafety,
        path: "crates/fuelcell/src/signatures.rs",
        bad: "unit_safety_bad.rs",
        bad_findings: 5,
        mentions: &["duration_s", "current_a", "as u32", "as f32"],
        ok: "unit_safety_ok.rs",
    },
    Pair {
        rule: Rule::UnitDataflow,
        path: "crates/sim/src/dimension.rs",
        bad: "dimension_bad.rs",
        bad_findings: 3,
        mentions: &["Amps and Seconds", "Seconds and Amps", "Amps and Charge"],
        ok: "dimension_ok.rs",
    },
];

#[test]
fn each_fixture_pair_fires_only_its_rule() {
    for pair in &PAIRS {
        let id = pair.rule.id();
        let scratch = Scratch::new(&format!("analyze-pair-{id}"));
        scratch.write(pair.path, &fixture(pair.bad));
        let report = scratch.analyze();
        let human = report.to_human();
        assert_eq!(report.findings.len(), pair.bad_findings, "{id}:\n{human}");
        assert!(
            report.findings.iter().all(|f| f.rule == id),
            "{} fires another rule:\n{human}",
            pair.bad
        );
        for phrase in pair.mentions {
            assert!(
                report.findings.iter().any(|f| f.message.contains(phrase)),
                "{id}: no finding mentions {phrase:?}:\n{human}"
            );
        }

        scratch.write(pair.path, &fixture(pair.ok));
        let report = scratch.analyze();
        assert!(
            report.is_clean(),
            "{} fired:\n{}",
            pair.ok,
            report.to_human()
        );
    }
}

#[test]
fn committed_workspace_is_clean() {
    let report = fcdpm_analyze::run(&repo_root()).expect("analysis runs");
    assert!(
        report.is_clean(),
        "committed workspace must analyze clean:\n{}",
        report.to_human()
    );
}

#[test]
fn seeded_findings_are_byte_identical_across_runs() {
    // Every fixture-pair rule in one scratch workspace: two full runs
    // must print byte-identical reports.
    let scratch = Scratch::new("analyze-double-run");
    for pair in &PAIRS {
        scratch.write(pair.path, &fixture(pair.bad));
    }

    let a = scratch.analyze();
    let b = scratch.analyze();
    for rule in PAIRS.iter().map(|p| p.rule) {
        assert!(
            a.findings.iter().any(|f| f.rule == rule.id()),
            "no {} finding:\n{}",
            rule.id(),
            a.to_human()
        );
    }
    assert_eq!(a.to_human(), b.to_human());
}

#[test]
fn mixing_behind_the_core_reexport_is_detected() {
    // `fcdpm-core` re-exports the unit newtypes. The pass keys on the
    // accessor names, not the imports, so a mix behind the re-export is
    // still caught, at the line of the `+`.
    let scratch = Scratch::new("analyze-core-reexport");
    scratch.write(
        "crates/sim/src/mix.rs",
        "use fcdpm_core::{Amps, Seconds};\n\npub fn f(i: Amps, t: Seconds) -> f64 {\n    let mixed = i.amps() + t.seconds();\n    mixed\n}\n",
    );
    let report = scratch.analyze();
    assert_eq!(report.findings.len(), 1, "{}", report.to_human());
    assert_eq!(report.findings[0].rule, Rule::UnitDataflow.id());
    assert_eq!(report.findings[0].line, 4);
}
