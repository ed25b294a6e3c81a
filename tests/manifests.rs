//! Crate hygiene and layering, pinned on the Cargo manifests.
//!
//! `[workspace.lints.rust]` forbids `unsafe_code` and warns on
//! `missing_docs` (and `[workspace.lints.clippy]` carries the panic
//! policy), but only for members that opt in with `[lints] workspace =
//! true`, so every member must. rustc refuses a `use` of a crate the
//! manifest does not declare, so pinning each member's `fcdpm-*`
//! dependencies to [`ALLOWED_DEPS`] pins the import graph too. The
//! release profile is pinned where cargo reads it: in the root manifest
//! only, and unwinding.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use std::fs;
use std::path::Path;

/// The intended dependency DAG: each member (its directory under
/// `crates/`, or `fcdpm` for the root package) and the `fcdpm-*` crates
/// its `[dependencies]` may name. A new member must be added here.
const ALLOWED_DEPS: [(&str, &[&str]); 16] = [
    ("units", &[]),
    ("analyze", &[]),
    ("device", &["units"]),
    ("fuelcell", &["units"]),
    ("storage", &["units"]),
    ("workload", &["units", "device"]),
    ("predict", &["units", "workload"]),
    ("faults", &["fuelcell", "units"]),
    ("dvs", &["units", "fuelcell", "workload"]),
    (
        "core",
        &[
            "units", "device", "fuelcell", "predict", "storage", "workload",
        ],
    ),
    (
        "sim",
        &[
            "core", "device", "faults", "fuelcell", "predict", "storage", "units", "workload",
        ],
    ),
    (
        "runner",
        &[
            "core", "device", "dvs", "faults", "fuelcell", "predict", "sim", "storage", "units",
            "workload",
        ],
    ),
    (
        "grid",
        &[
            "core", "device", "faults", "fuelcell", "predict", "runner", "sim", "storage", "units",
            "workload",
        ],
    ),
    (
        "cli",
        &[
            "analyze", "core", "device", "faults", "fuelcell", "grid", "predict", "runner", "sim",
            "storage", "units", "workload",
        ],
    ),
    (
        "experiments",
        &[
            "core", "device", "dvs", "fuelcell", "runner", "sim", "units", "workload",
        ],
    ),
    (
        "fcdpm",
        &[
            "core", "device", "dvs", "faults", "fuelcell", "predict", "sim", "storage", "units",
            "workload",
        ],
    ),
];

/// Every member's name and manifest text: the root package as `fcdpm`,
/// then `crates/*` by directory name, sorted.
fn members() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &Path| {
        fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let mut members = vec![("fcdpm".to_owned(), read(&root.join("Cargo.toml")))];
    let mut crates: Vec<_> = fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    for dir in crates {
        let name = dir
            .file_name()
            .expect("named")
            .to_string_lossy()
            .into_owned();
        members.push((name, read(&dir.join("Cargo.toml"))));
    }
    members
}

/// The `key = value` lines of the manifest table `[name]`, trimmed, with
/// blank and comment lines dropped.
fn table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

/// The key of a `key = value` line, up to any dotted suffix
/// (`fcdpm-units.workspace = true` → `fcdpm-units`).
fn key(line: &str) -> &str {
    let key = line.split('=').next().unwrap_or_default().trim();
    key.split('.').next().unwrap_or_default()
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let members = members();
    assert!(members.len() > 1, "no crates found");
    let (_, root) = &members[0];
    let rust = table(root, "workspace.lints.rust");
    for lint in ["unsafe_code = \"forbid\"", "missing_docs = \"warn\""] {
        assert!(rust.contains(&lint), "[workspace.lints.rust] lacks {lint}");
    }
    for (name, manifest) in &members {
        assert!(
            table(manifest, "lints").contains(&"workspace = true"),
            "`{name}` must opt into the workspace lints with `[lints] workspace = true`"
        );
    }
}

#[test]
fn fcdpm_dependencies_follow_the_layering() {
    let members = members();
    let mut found: Vec<&str> = members.iter().map(|(name, _)| name.as_str()).collect();
    let mut listed: Vec<&str> = ALLOWED_DEPS.iter().map(|(name, _)| *name).collect();
    found.sort_unstable();
    listed.sort_unstable();
    assert_eq!(found, listed, "ALLOWED_DEPS must name every member once");

    let mut edges = 0;
    for (name, manifest) in &members {
        let allowed = ALLOWED_DEPS
            .iter()
            .find(|(member, _)| member == name)
            .map(|(_, deps)| *deps)
            .unwrap_or_default();
        for line in table(manifest, "dependencies") {
            let Some(dep) = key(line).strip_prefix("fcdpm-") else {
                continue;
            };
            assert!(
                allowed.contains(&dep),
                "`{name}` must not depend on `fcdpm-{dep}`: the workspace layering has no such edge"
            );
            edges += 1;
        }
    }
    assert!(edges > 0, "no `fcdpm-*` dependency was read");
}

/// The names of `manifest`'s `[profile.*]` tables (`profile.release`).
fn profile_tables(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .filter_map(|line| line.strip_prefix('[')?.strip_suffix(']'))
        .filter(|name| name.starts_with("profile."))
        .collect()
}

#[test]
fn release_profile_lives_in_the_root_and_unwinds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest reads");
    let profiles = profile_tables(&manifest);
    assert!(
        profiles.contains(&"profile.release"),
        "the root Cargo.toml must declare [profile.release]"
    );
    // The pool's panic isolation and `--max-attempts` retries catch
    // unwinding panics; under "abort" a panicking job kills the run.
    for name in profiles {
        for line in table(&manifest, name) {
            let value = line.split_once('=').map(|(_, value)| value.trim());
            assert!(
                key(line) != "panic" || value == Some("\"unwind\""),
                "[{name}] sets `{line}`: release binaries must unwind"
            );
        }
    }

    // Cargo reads profiles from the workspace root only and ignores a
    // member's with nothing but a warning.
    let mut checked = 0;
    for members in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(members)).expect("member directory lists") {
            let path = entry.expect("member entry").path().join("Cargo.toml");
            let Ok(member) = fs::read_to_string(&path) else {
                continue;
            };
            let profiles = profile_tables(&member);
            assert!(
                profiles.is_empty(),
                "{} declares {profiles:?}: cargo ignores a member's profiles; set them in the root Cargo.toml",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(checked > 1, "no member manifest was read");
}
