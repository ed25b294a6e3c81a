//! The per-file lexical rule: unit safety.
//!
//! The rule works on the cleaned text produced by [`Scan`]; the caller
//! runs it on physics-crate sources only, so it can be exercised against
//! fixture sources by supplying a synthetic path (see
//! `tests/workspace.rs`).

use crate::scan::{token_occurrences, Scan};
use crate::{Finding, Rule};

/// Identifier suffixes that mark an `f64` parameter as carrying a unit
/// for which `fcdpm-units` has a newtype.
const UNIT_SUFFIXES: [&str; 18] = [
    "_s", "_secs", "_seconds", "_a", "_amps", "_ma", "_mamin", "_as", "_w", "_watts", "_mw", "_v",
    "_volts", "_j", "_joules", "_wh", "_ah", "_charge",
];

/// Integer/float target types considered narrowing for physics values.
const NARROWING_TARGETS: [&str; 7] = ["f32", "u8", "i8", "u16", "i16", "u32", "i32"];

/// Runs the unit-safety rule over one scanned physics-crate file.
/// `rel_path` must use `/` separators and be relative to the workspace
/// root; findings carry it.
#[must_use]
pub(crate) fn check_file(rel_path: &str, scan: &Scan) -> Vec<Finding> {
    let mut out = Vec::new();
    check_narrowing_casts(rel_path, scan, &mut out);
    check_pub_fn_f64(rel_path, scan, &mut out);
    out
}

fn push(out: &mut Vec<Finding>, rel_path: &str, line: usize, message: String) {
    out.push(Finding {
        rule: Rule::UnitSafety.id(),
        path: rel_path.to_owned(),
        line,
        message,
    });
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
            rel_path,
            line,
            format!(
                "narrowing cast `as {target}` in physics code can silently truncate; use `try_from` or a wider type"
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
            // Anchor to the parameter's own line in multi-line
            // signatures.
            let param_line = scan.line_of(open + 1 + offset);
            push(
                out,
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
    fn f64_param_extraction() {
        let params = "&self, capacity_mamin: f64, ratio: f64, t: Seconds";
        let names: Vec<String> = f64_params(params).into_iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["capacity_mamin", "ratio"]);
        assert!(has_unit_suffix("capacity_mamin"));
        assert!(!has_unit_suffix("ratio"));
    }
}
