//! Paper-constants conformance.
//!
//! `paper-constants.toml` at the workspace root is the machine-readable
//! ledger of every DAC'07 constant the code hard-codes (α, β, V_F, ζ,
//! the load-following range, device presets, storage sizing). Each
//! manifest section names one source file via its `path` key; every
//! other value in the section must appear verbatim as a numeric literal
//! in that file. A constant that drifts — someone "tunes" α from 0.45 to
//! 0.46 — no longer matches its literal and becomes a finding, so paper
//! conformance is a CI property instead of a code-review hope.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use crate::toml::{self, Value};
use crate::{Finding, Rule, Scan};

/// The manifest's workspace-relative path.
pub const MANIFEST_PATH: &str = "paper-constants.toml";

/// Checks every manifest section against its target file. `root` is the
/// workspace root; `text` is the manifest contents.
#[must_use]
pub fn check(root: &Path, text: &str) -> Vec<Finding> {
    let sections = match toml::parse(text) {
        Ok(sections) => sections,
        Err(err) => {
            return vec![finding(
                MANIFEST_PATH.to_owned(),
                1,
                format!("manifest does not parse: {err}"),
            )];
        }
    };
    let mut findings = Vec::new();
    for section in &sections {
        let Some(Value::Str(path)) = section
            .pairs
            .iter()
            .find(|(key, _)| key == "path")
            .map(|(_, value)| value.clone())
        else {
            findings.push(finding(
                MANIFEST_PATH.to_owned(),
                section.line,
                format!("section [{}] has no string `path` key", section.name),
            ));
            continue;
        };
        let Ok(source) = fs::read_to_string(root.join(&path)) else {
            findings.push(finding(
                MANIFEST_PATH.to_owned(),
                section.line,
                format!("section [{}] names unreadable file `{path}`", section.name),
            ));
            continue;
        };
        let literals = literal_bits(&Scan::new(&source));
        for (key, value) in &section.pairs {
            if key == "path" {
                continue;
            }
            let expected: Vec<f64> = match value {
                Value::Num(x) => vec![*x],
                Value::Arr(xs) => xs.clone(),
                Value::Str(_) => continue,
            };
            for x in expected {
                if !literals.contains(&x.to_bits()) {
                    findings.push(finding(
                        path.clone(),
                        1,
                        format!(
                            "paper constant {}.{key} = {x:?} (from {MANIFEST_PATH}) has no matching numeric literal in this file — the paper value drifted or the manifest is stale",
                            section.name
                        ),
                    ));
                }
            }
        }
    }
    findings
}

fn finding(path: String, line: usize, message: String) -> Finding {
    Finding {
        rule: Rule::PaperConstants.id(),
        path,
        line,
        message,
    }
}

/// All numeric literals on non-test lines of scanned Rust source, as
/// `f64` bit patterns. Test spans are excluded so a constant that
/// drifted in library code cannot hide behind an old literal in a test.
/// `_` separators and type suffixes (`1.0_f64`, `20usize`) are stripped
/// before parsing; integers widen exactly (manifest values ≪ 2^53).
fn literal_bits(scan: &Scan) -> BTreeSet<u64> {
    let cleaned = scan.cleaned.as_str();
    let bytes = cleaned.as_bytes();
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let prev_ident = i > 0 && {
            let p = bytes[i - 1] as char;
            p.is_alphanumeric() || p == '_'
        };
        if !c.is_ascii_digit() || prev_ident {
            i += 1;
            continue;
        }
        let start = i;
        i += 1;
        while i < bytes.len() {
            let d = bytes[i] as char;
            let continues = d.is_ascii_alphanumeric()
                || d == '_'
                || (d == '.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
                || ((d == '+' || d == '-')
                    && matches!(bytes[i - 1] as char, 'e' | 'E')
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit));
            if !continues {
                break;
            }
            i += 1;
        }
        let token: String = cleaned[start..i].chars().filter(|&ch| ch != '_').collect();
        // Strip a type suffix (`f64`, `u32`, `usize`...). Hex literals
        // (`0xDAC0`) fail the f64 parse below and are simply skipped —
        // no manifest constant is written in hex.
        let digits_end = token
            .char_indices()
            .find(|(pos, ch)| {
                ch.is_alphabetic() && !matches!(ch, 'e' | 'E' if token[..*pos].chars().all(|d| d.is_ascii_digit() || d == '.'))
            })
            .map_or(token.len(), |(pos, _)| pos);
        let body = &token[..digits_end];
        if scan.is_test_line(scan.line_of(start)) {
            continue;
        }
        if let Ok(x) = body.parse::<f64>() {
            if x.is_finite() {
                out.insert(x.to_bits());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_literals_with_suffixes_and_separators() {
        let bits = literal_bits(&Scan::new(
            "let a = 0.45; let b = 1_000.5f64; let c = 20usize; let d = 1.2e-3; ident2 = 7;",
        ));
        assert!(bits.contains(&0.45f64.to_bits()));
        assert!(bits.contains(&1000.5f64.to_bits()));
        assert!(bits.contains(&20f64.to_bits()));
        assert!(bits.contains(&1.2e-3f64.to_bits()));
        assert!(bits.contains(&7f64.to_bits()));
        // `2` inside `ident2` is not a literal.
        assert!(!bits.contains(&2f64.to_bits()));
    }

    #[test]
    fn drifted_constant_is_flagged_and_matching_one_is_not() {
        let dir = std::env::temp_dir().join("fcdpm-analyze-constants-test");
        let src_dir = dir.join("src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(src_dir.join("eff.rs"), "pub const ALPHA: f64 = 0.46;\n").unwrap();
        let manifest = "[efficiency]\npath = \"src/eff.rs\"\nalpha = 0.45\n";
        let got = check(&dir, manifest);
        assert_eq!(got.len(), 1, "{got:#?}");
        assert_eq!(got[0].path, "src/eff.rs");
        assert!(got[0].message.contains("alpha = 0.45"));

        fs::write(src_dir.join("eff.rs"), "pub const ALPHA: f64 = 0.45;\n").unwrap();
        assert!(check(&dir, manifest).is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_and_missing_path_key_are_findings() {
        let dir = std::env::temp_dir().join("fcdpm-analyze-constants-missing");
        fs::create_dir_all(&dir).unwrap();
        let got = check(&dir, "[a]\npath = \"src/nope.rs\"\nx = 1.0\n[b]\ny = 2.0\n");
        assert_eq!(got.len(), 2, "{got:#?}");
        assert!(got[0].message.contains("unreadable"));
        assert!(got[1].message.contains("no string `path`"));
        fs::remove_dir_all(&dir).ok();
    }
}
