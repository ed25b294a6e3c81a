//! End-to-end tests for `fcdpm-analyze`: the committed workspace is
//! clean, reports are deterministic, and seeded defects (a drifted
//! paper constant, an infeasible job grid, a dimensional mix behind a
//! re-export, tainted artifact flows, lock-order cycles, unaccounted
//! digest fields) are detected in scratch workspaces and fixture pairs.

use std::fs;
use std::path::{Path, PathBuf};

use fcdpm_analyze::{cache, digest, locks, rule_catalogue, taint, AnalyzeRule, EngineOptions};
use fcdpm_lint::sarif::to_sarif;
use fcdpm_lint::{Baseline, Scan};

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
}

impl Drop for Scratch {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.root).ok();
    }
}

#[test]
fn committed_workspace_is_clean_against_committed_baseline() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("analyze-baseline.json")).expect("baseline exists");
    let baseline = Baseline::from_json(&text).expect("baseline parses");
    let report = fcdpm_analyze::run(&root, &baseline).expect("analysis runs");
    assert!(
        report.is_clean(),
        "committed workspace must analyze clean:\n{}",
        report.to_human()
    );
    assert!(
        report.stale.is_empty(),
        "committed analyze baseline has stale entries:\n{}",
        report.to_human()
    );
}

#[test]
fn reports_are_byte_identical_across_runs() {
    let root = repo_root();
    let a = fcdpm_analyze::run(&root, &Baseline::default()).expect("first run");
    let b = fcdpm_analyze::run(&root, &Baseline::default()).expect("second run");
    assert_eq!(a.to_human(), b.to_human());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(
        to_sarif(&a, "fcdpm-analyze", &rule_catalogue()),
        to_sarif(&b, "fcdpm-analyze", &rule_catalogue())
    );
}

#[test]
fn sarif_output_carries_the_analyze_catalogue() {
    let root = repo_root();
    let report = fcdpm_analyze::run(&root, &Baseline::default()).expect("analysis runs");
    let sarif = to_sarif(&report, "fcdpm-analyze", &rule_catalogue());
    for rule in fcdpm_analyze::ALL_RULES {
        assert!(sarif.contains(rule.id()), "missing rule {}", rule.id());
    }
    assert!(sarif.contains("\"fcdpm-analyze\""));
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
    let report = fcdpm_analyze::run(&scratch.root, &Baseline::default()).expect("runs");
    assert_eq!(report.findings.len(), 1, "{}", report.to_human());
    let finding = &report.findings[0];
    assert_eq!(finding.rule, AnalyzeRule::PaperConstants.id());
    assert_eq!(finding.path, "crates/fuelcell/src/efficiency.rs");
    assert!(finding.message.contains("alpha = 0.45"), "{finding}");

    // The undrifted copy is conformant.
    scratch.write("crates/fuelcell/src/efficiency.rs", &committed);
    let report = fcdpm_analyze::run(&scratch.root, &Baseline::default()).expect("runs");
    assert!(report.is_clean(), "{}", report.to_human());
}

#[test]
fn out_of_range_grid_setpoint_is_rejected() {
    let scratch = Scratch::new("analyze-bad-grid");
    // Minimal conformant manifest so the range parameters resolve.
    scratch.write(
        "crates/x/src/lib.rs",
        "pub const A: f64 = 0.45;\npub const V: f64 = 12.0;\npub const LO: f64 = 0.1;\npub const HI: f64 = 1.2;\n",
    );
    scratch.write(
        "paper-constants.toml",
        "[efficiency]\npath = \"crates/x/src/lib.rs\"\nalpha = 0.45\nv_bus_v = 12.0\n\n[load_following]\npath = \"crates/x/src/lib.rs\"\ni_f_min_a = 0.1\ni_f_max_a = 1.2\n",
    );
    scratch.write(
        "examples/good_grid.json",
        r#"{"policies": ["Conv", {"Constant": 0.6}], "workloads": [{"Experiment1": 1}]}"#,
    );
    scratch.write(
        "examples/bad_grid.json",
        r#"{"policies": [{"Constant": 1.3}], "workloads": [{"Experiment1": 1}]}"#,
    );
    let report = fcdpm_analyze::run(&scratch.root, &Baseline::default()).expect("runs");
    assert_eq!(report.findings.len(), 1, "{}", report.to_human());
    let finding = &report.findings[0];
    assert_eq!(finding.rule, AnalyzeRule::GridFeasibility.id());
    assert_eq!(finding.path, "examples/bad_grid.json");
    assert!(
        finding.message.contains("load-following range"),
        "{finding}"
    );
}

#[test]
fn mixing_behind_the_core_reexport_is_detected() {
    // `fcdpm-core` re-exports the unit newtypes; physics code importing
    // them through core instead of fcdpm-units must still be tracked.
    let scratch = Scratch::new("analyze-core-reexport");
    scratch.write(
        "crates/sim/src/lib.rs",
        "use fcdpm_core::{Amps, Seconds};\n\npub fn f(i: Amps, t: Seconds) -> f64 {\n    let mixed = i.amps() + t.seconds();\n    mixed\n}\n",
    );
    let report = fcdpm_analyze::run(&scratch.root, &Baseline::default()).expect("runs");
    assert_eq!(report.findings.len(), 1, "{}", report.to_human());
    assert_eq!(report.findings[0].rule, AnalyzeRule::UnitDataflow.id());
    assert_eq!(report.findings[0].line, 4);
}

#[test]
fn inline_suppression_silences_the_dataflow_rule() {
    let scratch = Scratch::new("analyze-suppression");
    scratch.write(
        "crates/sim/src/lib.rs",
        "pub fn f(i: Amps, t: Seconds) -> f64 {\n    // fcdpm-lint: allow(unit-dataflow)\n    let mixed = i.amps() + t.seconds();\n    mixed\n}\n",
    );
    let report = fcdpm_analyze::run(&scratch.root, &Baseline::default()).expect("runs");
    assert!(report.is_clean(), "{}", report.to_human());
    assert_eq!(report.inline_suppressed, 1);
}

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

#[test]
fn taint_fixture_pair_splits_cleanly() {
    // Fixtures masquerade as a sink file — only those can produce
    // findings.
    let bad = fixture("taint_tainted.rs");
    let findings = taint::check_file("crates/grid/src/manifest.rs", &Scan::new(&bad), None);
    assert_eq!(findings.len(), 4, "{findings:#?}");
    assert!(findings
        .iter()
        .all(|f| f.rule == AnalyzeRule::DeterminismTaint.id()));
    for carried in [
        "wall-clock time",
        "thread identity",
        "hash-order iteration",
        "channel arrival order",
    ] {
        assert!(
            findings.iter().any(|f| f.message.contains(carried)),
            "no finding carries {carried}: {findings:#?}"
        );
    }

    let ok = fixture("taint_clean.rs");
    let findings = taint::check_file("crates/grid/src/manifest.rs", &Scan::new(&ok), None);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn lock_fixture_pair_splits_cleanly() {
    let bad = fixture("locks_cyclic.rs");
    let findings = locks::check_file("crates/runner/src/pool.rs", &Scan::new(&bad));
    assert_eq!(findings.len(), 5, "{findings:#?}");
    assert!(findings
        .iter()
        .all(|f| f.rule == AnalyzeRule::LockDiscipline.id()));
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.message.contains("cycle"))
            .count(),
        2,
        "both halves of the A<->B inversion: {findings:#?}"
    );
    assert!(findings
        .iter()
        .any(|f| f.message.contains("another `deques[_]` instance")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("held across a call into `run_guarded`")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("poison handling")));

    let ok = fixture("locks_acyclic.rs");
    let findings = locks::check_file("crates/runner/src/pool.rs", &Scan::new(&ok));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn digest_fixture_pair_splits_cleanly() {
    let bad = fixture("digest_unmasked.rs");
    let findings = digest::check_file("crates/grid/src/gen.rs", &bad, &Scan::new(&bad));
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings
        .iter()
        .all(|f| f.rule == AnalyzeRule::DigestStability.id()));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("neither folded")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("masks `name` which")));

    let ok = fixture("digest_masked.rs");
    let findings = digest::check_file("crates/grid/src/gen.rs", &ok, &Scan::new(&ok));
    assert!(findings.is_empty(), "{findings:#?}");
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
            .any(|f| f.rule == AnalyzeRule::DigestStability.id() && f.message.contains("`name`")),
        "{findings:#?}"
    );
}

#[test]
fn seeded_new_layer_findings_are_byte_identical_across_runs() {
    // The double-run gate matters most when there *are* findings: seed
    // all three new-pass fixtures into one scratch workspace and demand
    // byte-identical JSON and SARIF across two full runs.
    let scratch = Scratch::new("analyze-new-layer-determinism");
    scratch.write("crates/grid/src/manifest.rs", &fixture("taint_tainted.rs"));
    scratch.write("crates/runner/src/pool.rs", &fixture("locks_cyclic.rs"));
    scratch.write("crates/grid/src/gen.rs", &fixture("digest_unmasked.rs"));

    let a = fcdpm_analyze::run(&scratch.root, &Baseline::default()).expect("first run");
    let b = fcdpm_analyze::run(&scratch.root, &Baseline::default()).expect("second run");
    for rule in [
        AnalyzeRule::DeterminismTaint,
        AnalyzeRule::LockDiscipline,
        AnalyzeRule::DigestStability,
    ] {
        assert!(
            a.findings.iter().any(|f| f.rule == rule.id()),
            "no {} finding: {}",
            rule.id(),
            a.to_human()
        );
    }
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(
        to_sarif(&a, "fcdpm-analyze", &rule_catalogue()),
        to_sarif(&b, "fcdpm-analyze", &rule_catalogue())
    );
}

#[test]
fn unbaselined_repo_findings_are_empty() {
    // Even with no baseline at all, the tree analyzes clean.
    let report = fcdpm_analyze::run(&repo_root(), &Baseline::default()).expect("analysis runs");
    assert!(report.findings.is_empty(), "{}", report.to_human());
}

#[test]
fn cross_file_taint_needs_summaries_and_respects_laundering() {
    let caller = fixture("interproc_caller.rs");
    // The per-function pass provably misses the cross-file flow...
    let solo = taint::check_file("crates/grid/src/manifest.rs", &Scan::new(&caller), None);
    assert!(solo.is_empty(), "{solo:#?}");

    // ...while the full engine resolves the helper and flags it.
    let scratch = Scratch::new("analyze-interproc-taint");
    scratch.write("crates/grid/src/manifest.rs", &caller);
    scratch.write(
        "crates/grid/src/util.rs",
        &fixture("interproc_helper_tainted.rs"),
    );
    let report = fcdpm_analyze::run(&scratch.root, &Baseline::default()).expect("runs");
    assert_eq!(report.findings.len(), 1, "{}", report.to_human());
    assert_eq!(report.findings[0].rule, AnalyzeRule::DeterminismTaint.id());
    assert_eq!(report.findings[0].path, "crates/grid/src/manifest.rs");
    assert!(
        report.findings[0].message.contains("wall-clock time"),
        "{}",
        report.findings[0]
    );

    // Swapping in the laundering variant of the same helper cleans the
    // caller's flow without the caller changing at all.
    scratch.write(
        "crates/grid/src/util.rs",
        &fixture("interproc_helper_laundering.rs"),
    );
    let report = fcdpm_analyze::run(&scratch.root, &Baseline::default()).expect("runs");
    assert!(report.is_clean(), "{}", report.to_human());
}

fn cache_options(scratch: &Scratch) -> EngineOptions {
    EngineOptions {
        cache_path: Some(scratch.root.join(cache::CACHE_FILE)),
        workers: Some(2),
    }
}

#[test]
fn warm_cache_reuses_every_file_and_replays_byte_identical_artifacts() {
    let scratch = Scratch::new("analyze-cache-warm");
    scratch.write("crates/grid/src/manifest.rs", &fixture("taint_tainted.rs"));
    scratch.write("crates/runner/src/pool.rs", &fixture("locks_acyclic.rs"));
    scratch.write("crates/sim/src/lib.rs", "pub fn idle() {}\n");
    let options = cache_options(&scratch);

    let a = fcdpm_analyze::run_with(&scratch.root, &Baseline::default(), &options).expect("cold");
    assert!(a.stats.cold);
    assert_eq!(a.stats.files_reused, 0);
    assert_eq!(a.stats.pass_hits, 0);
    assert_eq!(a.changed.len(), 3, "{:?}", a.changed);

    let b = fcdpm_analyze::run_with(&scratch.root, &Baseline::default(), &options).expect("warm");
    assert!(!b.stats.cold);
    assert_eq!(b.stats.files_total, 3);
    assert_eq!(b.stats.files_reused, 3);
    assert_eq!(b.stats.pass_hits, 12);
    assert_eq!(b.stats.pass_misses, 0);
    assert!(b.changed.is_empty(), "{:?}", b.changed);
    assert!(
        b.stats.human_line().contains("(100.0%)"),
        "{}",
        b.stats.human_line()
    );

    // The warm run replays the cold run's findings byte-for-byte.
    assert!(!b.report.findings.is_empty());
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(
        to_sarif(&a.report, "fcdpm-analyze", &rule_catalogue()),
        to_sarif(&b.report, "fcdpm-analyze", &rule_catalogue())
    );
}

#[test]
fn editing_one_file_invalidates_only_its_own_passes() {
    let scratch = Scratch::new("analyze-cache-edit");
    scratch.write("crates/device/src/lib.rs", "pub fn a() {}\n");
    scratch.write("crates/sim/src/lib.rs", "pub fn b() {}\n");
    scratch.write("crates/workload/src/lib.rs", "pub fn c() {}\n");
    let options = cache_options(&scratch);
    let cold =
        fcdpm_analyze::run_with(&scratch.root, &Baseline::default(), &options).expect("cold");
    assert!(cold.stats.cold);

    scratch.write("crates/sim/src/lib.rs", "pub fn b() {}\npub fn b2() {}\n");
    let warm =
        fcdpm_analyze::run_with(&scratch.root, &Baseline::default(), &options).expect("warm");
    assert_eq!(warm.stats.files_total, 3);
    assert_eq!(warm.stats.files_reused, 2);
    assert_eq!(warm.stats.pass_hits, 8);
    assert_eq!(warm.stats.pass_misses, 4);
    let changed: Vec<&str> = warm.changed.iter().map(String::as_str).collect();
    assert_eq!(changed, ["crates/sim/src/lib.rs"]);
}

#[test]
fn editing_a_helper_reruns_the_callers_interprocedural_passes() {
    let scratch = Scratch::new("analyze-cache-deps");
    scratch.write(
        "crates/grid/src/manifest.rs",
        &fixture("interproc_caller.rs"),
    );
    scratch.write(
        "crates/grid/src/util.rs",
        "pub fn gather() -> Vec<u64> {\n    Vec::new()\n}\n",
    );
    let options = cache_options(&scratch);
    let cold =
        fcdpm_analyze::run_with(&scratch.root, &Baseline::default(), &options).expect("cold");
    assert!(cold.report.is_clean(), "{}", cold.report.to_human());

    // Swap in the tainted helper: the caller's bytes are untouched, so
    // its content-keyed passes replay, but the dependency-digest
    // mismatch forces its taint pass to re-run...
    scratch.write(
        "crates/grid/src/util.rs",
        &fixture("interproc_helper_tainted.rs"),
    );
    let warm =
        fcdpm_analyze::run_with(&scratch.root, &Baseline::default(), &options).expect("warm");
    assert_eq!(warm.stats.files_total, 2);
    assert_eq!(warm.stats.files_reused, 0);
    assert_eq!(warm.stats.pass_hits, 3);
    assert_eq!(warm.stats.pass_misses, 5);
    let changed: Vec<&str> = warm.changed.iter().map(String::as_str).collect();
    assert_eq!(changed, ["crates/grid/src/util.rs"]);

    // ...and the new cross-file flow surfaces on the unchanged caller.
    assert_eq!(warm.report.findings.len(), 1, "{}", warm.report.to_human());
    assert_eq!(
        warm.report.findings[0].rule,
        AnalyzeRule::DeterminismTaint.id()
    );
    assert_eq!(warm.report.findings[0].path, "crates/grid/src/manifest.rs");
}

#[test]
fn dimension_fixture_pair_splits_cleanly() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let bad = fs::read_to_string(dir.join("dimension_bad.rs")).expect("bad fixture");
    let ok = fs::read_to_string(dir.join("dimension_ok.rs")).expect("ok fixture");

    let bad_findings =
        fcdpm_analyze::dataflow::check_file("crates/sim/src/dimension_bad.rs", &Scan::new(&bad));
    // One finding per mixing-class function in the fixture.
    assert_eq!(bad_findings.len(), 5, "{bad_findings:#?}");
    assert!(bad_findings
        .iter()
        .any(|f| f.message.contains("raw f64 projections")));
    assert!(bad_findings
        .iter()
        .any(|f| f.message.contains("unit newtypes")));
    assert!(bad_findings.iter().any(|f| f.message.contains("`.0`")));

    let ok_findings =
        fcdpm_analyze::dataflow::check_file("crates/sim/src/dimension_ok.rs", &Scan::new(&ok));
    assert!(ok_findings.is_empty(), "{ok_findings:#?}");
}
