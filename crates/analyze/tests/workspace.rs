//! End-to-end tests for `fcdpm-analyze`: the committed workspace is
//! clean, reports are deterministic, every rule with a fixture pair
//! fires on its bad file and stays quiet on its ok file, and seeded
//! defects (a drifted paper constant, a dimensional mix behind a
//! re-export, an unmasked digest field) are detected in scratch
//! workspaces.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use std::fs;
use std::path::{Path, PathBuf};

use fcdpm_analyze::{digest, Report, Rule, Scan};

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

const PAIRS: [Pair; 3] = [
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
    Pair {
        rule: Rule::DigestStability,
        path: "crates/grid/src/gen.rs",
        bad: "digest_unmasked.rs",
        bad_findings: 2,
        mentions: &["neither folded", "masks `name` which"],
        ok: "digest_masked.rs",
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
fn seeded_alpha_drift_in_efficiency_copy_is_detected() {
    let committed = fs::read_to_string(repo_root().join("crates/fuelcell/src/efficiency.rs"))
        .expect("committed efficiency.rs");
    let drifted = committed.replace("0.45", "0.46");
    assert_ne!(committed, drifted, "seeding must change the file");

    let scratch = Scratch::new("analyze-alpha-drift");
    scratch.write("crates/fuelcell/src/efficiency.rs", &drifted);
    scratch.write(
        "paper-constants.toml",
        "[efficiency]\npath = \"crates/fuelcell/src/efficiency.rs\"\nalpha = 0.45\nbeta = 0.13\nv_bus_v = 12.0\n",
    );
    let report = scratch.analyze();
    assert_eq!(report.findings.len(), 1, "{}", report.to_human());
    let finding = &report.findings[0];
    assert_eq!(finding.rule, Rule::PaperConstants.id());
    assert_eq!(finding.path, "crates/fuelcell/src/efficiency.rs");
    assert!(finding.message.contains("alpha = 0.45"), "{finding}");

    // The undrifted copy is conformant.
    scratch.write("crates/fuelcell/src/efficiency.rs", &committed);
    let report = scratch.analyze();
    assert!(report.is_clean(), "{}", report.to_human());
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

#[test]
fn removing_the_gridspec_name_mask_fails_digest_stability() {
    // The acceptance check runs against the *real* gen.rs, not a
    // fixture: dropping `name` from the committed mask manifest must
    // fail the pass.
    let committed = fs::read_to_string(repo_root().join("crates/grid/src/gen.rs")).expect("gen.rs");
    let clean = digest::check_file("crates/grid/src/gen.rs", &committed, &Scan::new(&committed));
    assert!(clean.is_empty(), "{clean:#?}");

    let drifted = committed.replace(r#"&["name"]"#, "&[]");
    assert_ne!(committed, drifted, "seeding must change the file");
    let findings = digest::check_file("crates/grid/src/gen.rs", &drifted, &Scan::new(&drifted));
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::DigestStability.id() && f.message.contains("`name`")),
        "{findings:#?}"
    );
}
