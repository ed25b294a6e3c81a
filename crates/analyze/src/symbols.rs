//! `use` edges and the crate layering rule.
//!
//! The per-file rules see one file at a time; this module lifts each
//! file's `use` declarations into edges so the `layering` rule can
//! reason about the workspace as a graph: every `use fcdpm_*::` edge
//! must match the Cargo dependency DAG, so an accidental upward import
//! (e.g. a physics crate reaching into the runner) is caught even before
//! `cargo` rejects it, including through a `pub use` re-export.

use std::collections::BTreeMap;

use crate::{crate_of, Finding, Rule, Scan};

/// One `use` edge out of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseEdge {
    /// First path segment (`fcdpm_units`, `crate`, `std`, ...).
    pub target: String,
    /// 1-indexed line of the `use`.
    pub line: usize,
}

/// The `use` edges of one source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSymbols {
    /// Workspace-relative path.
    pub path: String,
    /// Owning crate (`None` for paths outside crate `src/` trees).
    pub krate: Option<String>,
    /// `use` edges in file order (test-span uses excluded).
    pub uses: Vec<UseEdge>,
}

/// Extracts the `use` edges of one file.
#[must_use]
pub fn file_symbols(rel_path: &str, scan: &Scan) -> FileSymbols {
    let mut uses = Vec::new();
    let mut offset = 0usize;
    for raw_line in scan.cleaned.split_inclusive('\n') {
        let line_no = scan.line_of(offset);
        offset += raw_line.len();
        if scan.is_test_line(line_no) {
            continue;
        }
        let Some(tail) = strip_visibility(raw_line.trim_start()).strip_prefix("use ") else {
            continue;
        };
        let target: String = tail
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !target.is_empty() {
            uses.push(UseEdge {
                target,
                line: line_no,
            });
        }
    }
    FileSymbols {
        path: rel_path.to_owned(),
        krate: crate_of(rel_path).map(str::to_owned),
        uses,
    }
}

/// Strips a leading `pub` / `pub(...)` qualifier.
fn strip_visibility(line: &str) -> &str {
    if let Some(rest) = line.strip_prefix("pub") {
        if let Some(tail) = rest.strip_prefix('(') {
            if let Some(close) = tail.find(')') {
                return tail[close + 1..].trim_start();
            }
        }
        if rest.starts_with(char::is_whitespace) {
            return rest.trim_start();
        }
    }
    line
}

/// The Cargo dependency DAG, mirrored so `use` edges can be checked
/// without parsing Cargo.toml at analysis time. A crate may import
/// itself, `std`/`core`/`alloc`, external shims and anything listed
/// here; everything else `fcdpm_*` is a layering violation.
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
            "core", "device", "dvs", "fuelcell", "predict", "runner", "sim", "storage", "units",
            "workload",
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

/// Checks every `use fcdpm_*` edge against `ALLOWED_DEPS`.
#[must_use]
pub fn check_layering(files: &[FileSymbols]) -> Vec<Finding> {
    let allowed: BTreeMap<&str, &[&str]> = ALLOWED_DEPS.iter().copied().collect();
    let mut findings = Vec::new();
    for file in files {
        let Some(krate) = &file.krate else { continue };
        for edge in &file.uses {
            let Some(dep) = edge.target.strip_prefix("fcdpm_") else {
                continue;
            };
            let dep = dep.replace('_', "-");
            // A bin target importing its own package's lib is always a
            // legal edge, whatever the DAG table says.
            if dep == *krate {
                continue;
            }
            let ok = match allowed.get(krate.as_str()) {
                Some(deps) => deps.contains(&dep.as_str()),
                // Unknown crates (new additions) are not judged until
                // they are added to the table.
                None => true,
            };
            if !ok {
                findings.push(Finding {
                    rule: Rule::Layering.id(),
                    path: file.path.clone(),
                    line: edge.line,
                    message: format!(
                        "crate `{krate}` must not import `fcdpm_{}`: the workspace layering (Cargo DAG) has no such edge",
                        dep.replace('-', "_")
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
    fn extracts_uses_outside_test_spans() {
        let src = "\
use fcdpm_units::Amps;
pub use fcdpm_units::Volts;
pub(crate) use crate::stack::Stack;
pub fn current() -> Amps { Amps::new(0.1) }
#[cfg(test)]
mod tests {
    use fcdpm_runner::JobSpec;
}
";
        let sym = file_symbols("crates/fuelcell/src/stack.rs", &Scan::new(src));
        assert_eq!(sym.krate.as_deref(), Some("fuelcell"));
        let targets: Vec<(&str, usize)> = sym
            .uses
            .iter()
            .map(|u| (u.target.as_str(), u.line))
            .collect();
        assert_eq!(
            targets,
            [("fcdpm_units", 1), ("fcdpm_units", 2), ("crate", 3)]
        );
    }

    #[test]
    fn layering_flags_upward_imports() {
        let files = [file_symbols(
            "crates/fuelcell/src/bad.rs",
            &Scan::new("use fcdpm_runner::JobSpec;\nuse fcdpm_units::Amps;\n"),
        )];
        let findings = check_layering(&files);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].message.contains("fcdpm_runner"));
    }

    #[test]
    fn allowed_edges_are_quiet() {
        let files = [file_symbols(
            "crates/core/src/ok.rs",
            &Scan::new(
                "use fcdpm_units::Amps;\nuse fcdpm_fuelcell::LinearEfficiency;\nuse std::fmt;\n",
            ),
        )];
        assert!(check_layering(&files).is_empty());
    }
}
