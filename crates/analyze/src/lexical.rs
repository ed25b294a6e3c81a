//! The per-file lexical rules: determinism, unit safety, panic policy
//! and crate hygiene.
//!
//! Every rule works on the cleaned text produced by [`Scan`] and is
//! scoped by the file's workspace-relative path, so the rules can be
//! exercised against fixture sources by supplying a synthetic path (see
//! `tests/workspace.rs`).

use crate::scan::{token_occurrences, Scan};
use crate::{crate_of, is_physics_file, Finding, Rule};

/// Crates whose `src/` trees must be bit-deterministic.
const DETERMINISTIC_CRATES: [&str; 7] = [
    "sim", "core", "predict", "fuelcell", "storage", "device", "faults",
];

/// Identifier suffixes that mark an `f64` parameter as carrying a unit
/// for which `fcdpm-units` has a newtype.
const UNIT_SUFFIXES: [&str; 18] = [
    "_s", "_secs", "_seconds", "_a", "_amps", "_ma", "_mamin", "_as", "_w", "_watts", "_mw", "_v",
    "_volts", "_j", "_joules", "_wh", "_ah", "_charge",
];

/// Integer/float target types considered narrowing for physics values.
const NARROWING_TARGETS: [&str; 7] = ["f32", "u8", "i8", "u16", "i16", "u32", "i32"];

/// Whether a path is library (not binary/test/bench/example) source.
fn is_library_source(rel_path: &str) -> bool {
    crate_of(rel_path).is_some()
        && !rel_path.contains("/src/bin/")
        && !rel_path.ends_with("/main.rs")
}

fn determinism_applies(rel_path: &str) -> bool {
    crate_of(rel_path).is_some_and(|name| DETERMINISTIC_CRATES.contains(&name))
}

fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || (rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs"))
}

/// Runs the four lexical rules over one scanned file and returns their
/// findings before inline suppressions are applied. `rel_path` must use
/// `/` separators and be relative to the workspace root, because rule
/// scoping keys off it.
#[must_use]
pub(crate) fn check_file(rel_path: &str, scan: &Scan) -> Vec<Finding> {
    let mut out = Vec::new();
    if determinism_applies(rel_path) {
        check_determinism(rel_path, scan, &mut out);
    }
    if is_physics_file(rel_path) {
        check_unit_safety(rel_path, scan, &mut out);
    }
    if is_library_source(rel_path) {
        check_panic_policy(rel_path, scan, &mut out);
    }
    if is_crate_root(rel_path) {
        check_crate_hygiene(rel_path, scan, &mut out);
    }
    out
}

fn push(out: &mut Vec<Finding>, rule: Rule, rel_path: &str, line: usize, message: String) {
    out.push(Finding {
        rule: rule.id(),
        path: rel_path.to_owned(),
        line,
        message,
    });
}

fn check_determinism(rel_path: &str, scan: &Scan, out: &mut Vec<Finding>) {
    let banned: [(&str, &str); 4] = [
        (
            "Instant::now",
            "reads the wall clock; simulation code must be reproducible — take time as an input or move timing to `fcdpm-runner`",
        ),
        (
            "SystemTime",
            "reads the wall clock; simulation code must be reproducible — take time as an input or move timing to `fcdpm-runner`",
        ),
        (
            "HashMap",
            "has nondeterministic iteration order (randomized hasher); use `BTreeMap` so runs are bit-identical",
        ),
        (
            "HashSet",
            "has nondeterministic iteration order (randomized hasher); use `BTreeSet` so runs are bit-identical",
        ),
    ];
    for (needle, why) in banned {
        for at in token_occurrences(&scan.cleaned, needle) {
            let line = scan.line_of(at);
            if scan.is_test_line(line) {
                continue;
            }
            push(
                out,
                Rule::Determinism,
                rel_path,
                line,
                format!("`{needle}` {why}"),
            );
        }
    }
}

fn check_panic_policy(rel_path: &str, scan: &Scan, out: &mut Vec<Finding>) {
    let banned: [&str; 6] = [
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
    ];
    for needle in banned {
        for at in token_occurrences(&scan.cleaned, needle) {
            let line = scan.line_of(at);
            if scan.is_test_line(line) {
                continue;
            }
            let shown = needle.trim_start_matches('.').trim_end_matches('(');
            push(
                out,
                Rule::PanicPolicy,
                rel_path,
                line,
                format!(
                    "`{shown}` in library code; propagate a `Result` or document the invariant and add `// fcdpm-lint: allow(panic-policy)`"
                ),
            );
        }
    }
}

fn check_crate_hygiene(rel_path: &str, scan: &Scan, out: &mut Vec<Finding>) {
    for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
        if !scan.cleaned.contains(attr) {
            push(
                out,
                Rule::CrateHygiene,
                rel_path,
                1,
                format!("crate root is missing `{attr}`"),
            );
        }
    }
}

fn check_unit_safety(rel_path: &str, scan: &Scan, out: &mut Vec<Finding>) {
    check_narrowing_casts(rel_path, scan, out);
    check_pub_fn_f64(rel_path, scan, out);
}

fn check_narrowing_casts(rel_path: &str, scan: &Scan, out: &mut Vec<Finding>) {
    for at in token_occurrences(&scan.cleaned, "as ") {
        // `token_occurrences` guarantees `as` is not the tail of an
        // identifier; require it to be a standalone keyword followed by
        // a narrowing target type.
        let rest = &scan.cleaned[at + 3..];
        let target: String = rest
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !NARROWING_TARGETS.contains(&target.as_str()) {
            continue;
        }
        let line = scan.line_of(at);
        if scan.is_test_line(line) {
            continue;
        }
        push(
            out,
            Rule::UnitSafety,
            rel_path,
            line,
            format!(
                "narrowing cast `as {target}` in physics code can silently truncate; use `try_from`/a wider type, or document the invariant and add `// fcdpm-lint: allow(unit-safety)`"
            ),
        );
    }
}

fn check_pub_fn_f64(rel_path: &str, scan: &Scan, out: &mut Vec<Finding>) {
    let bytes = scan.cleaned.as_bytes();
    for at in token_occurrences(&scan.cleaned, "pub fn ") {
        let line = scan.line_of(at);
        if scan.is_test_line(line) {
            continue;
        }
        // Capture the balanced parameter list that follows the name.
        let Some(open_rel) = scan.cleaned[at..].find('(') else {
            continue;
        };
        let open = at + open_rel;
        let mut depth = 0usize;
        let mut close = open;
        for (i, &b) in bytes.iter().enumerate().skip(open) {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        close = i;
                        break;
                    }
                }
                _ => {}
            }
        }
        if close == open {
            continue;
        }
        let params = &scan.cleaned[open + 1..close];
        for (offset, name) in f64_params(params) {
            if !has_unit_suffix(&name) {
                continue;
            }
            // Anchor to the parameter's own line so line-anchored
            // suppressions work on multi-line signatures.
            let param_line = scan.line_of(open + 1 + offset);
            push(
                out,
                Rule::UnitSafety,
                rel_path,
                param_line,
                format!(
                    "public parameter `{name}: f64` names a physical quantity; use the matching `fcdpm-units` newtype"
                ),
            );
        }
    }
}

/// Extracts `(offset_of_name, name)` for every `name: f64` parameter in
/// a cleaned parameter list.
fn f64_params(params: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for at in token_occurrences(params, "f64") {
        // Walk left past whitespace and one `:`.
        let before = &params[..at];
        let trimmed = before.trim_end();
        let Some(colon_stripped) = trimmed.strip_suffix(':') else {
            continue;
        };
        let name_part = colon_stripped.trim_end();
        let name: String = name_part
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        if name.is_empty() {
            continue;
        }
        let name_offset = name_part.len() - name.len();
        found.push((name_offset, name));
    }
    found
}

fn has_unit_suffix(name: &str) -> bool {
    UNIT_SUFFIXES.iter().any(|suffix| name.ends_with(suffix))
        || matches!(
            name,
            "seconds" | "amps" | "watts" | "volts" | "joules" | "charge"
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_by_path() {
        assert!(determinism_applies("crates/sim/src/simulator.rs"));
        assert!(!determinism_applies("crates/runner/src/pool.rs"));
        assert!(!determinism_applies("crates/sim/tests/integration.rs"));
        assert!(is_library_source("crates/cli/src/commands.rs"));
        assert!(!is_library_source("crates/cli/src/main.rs"));
        assert!(!is_library_source("crates/experiments/src/bin/all.rs"));
        assert!(is_crate_root("crates/sim/src/lib.rs"));
        assert!(is_crate_root("src/lib.rs"));
        assert!(!is_crate_root("crates/sim/src/metrics.rs"));
    }

    #[test]
    fn f64_param_extraction() {
        let params = "&self, capacity_mamin: f64, ratio: f64, t: Seconds";
        let names: Vec<String> = f64_params(params).into_iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["capacity_mamin", "ratio"]);
        assert!(has_unit_suffix("capacity_mamin"));
        assert!(!has_unit_suffix("ratio"));
    }
}
