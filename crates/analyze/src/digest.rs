//! Digest-stability check: every serde field of a digest-keyed struct
//! is either folded into the digest or explicitly masked.
//!
//! Resume caches, run identities and the bench payload are all keyed by
//! FNV-1a digests of serialized specs (`GridSpec::digest` masks the
//! informational `name`; `spec_digest` hashes a `JobSpec` whole).
//! Adding a field to either struct silently changes — or, with
//! `#[serde(skip)]`, silently *fails* to change — every digest, which
//! aliases or orphans existing run directories. This pass makes that
//! decision explicit: each digest-keyed struct carries a pair of const
//! manifests (`*_DIGEST_FIELDS`, `*_DIGEST_MASK`) next to its
//! definition, and the check statically requires
//!
//! * declared fields = folded ∪ masked, with the two lists disjoint,
//! * every masked field is actually neutralized in the digest fn body
//!   (a `canonical.<field> = …` assignment), and nothing else is.
//!
//! So a new field fails `fcdpm analyze` until its author decides — in
//! the diff, reviewably — whether it is part of the cache key.

use crate::syntax;
use crate::{Finding, Rule, Scan};

/// One digest-keyed struct the workspace must keep stable.
#[derive(Debug)]
pub struct DigestKeyed {
    /// Workspace-relative file holding the struct and its manifests.
    pub file: &'static str,
    /// Struct name.
    pub strukt: &'static str,
    /// Const listing the fields folded into the digest.
    pub fields_const: &'static str,
    /// Const listing the fields masked out before hashing.
    pub mask_const: &'static str,
    /// The masking digest fn in the same file (`None` when the struct
    /// is hashed whole and the mask list must stay empty).
    pub digest_fn: Option<&'static str>,
}

/// The catalogue of digest-keyed structs (grows with every new digest).
pub const DIGEST_KEYED: [DigestKeyed; 2] = [
    DigestKeyed {
        file: "crates/grid/src/gen.rs",
        strukt: "GridSpec",
        fields_const: "GRIDSPEC_DIGEST_FIELDS",
        mask_const: "GRIDSPEC_DIGEST_MASK",
        digest_fn: Some("digest"),
    },
    DigestKeyed {
        file: "crates/runner/src/spec.rs",
        strukt: "JobSpec",
        fields_const: "JOBSPEC_DIGEST_FIELDS",
        mask_const: "JOBSPEC_DIGEST_MASK",
        digest_fn: None,
    },
];

/// Declared field names of `struct {name} { … }` in cleaned text, with
/// the struct's line.
fn struct_fields(cleaned: &str, name: &str, scan: &Scan) -> Option<(usize, Vec<String>)> {
    let at = syntax::word_occurrences(cleaned, name)
        .into_iter()
        .find(|&at| cleaned[..at].trim_end().ends_with("struct"))?;
    let open = at + cleaned[at..].find('{')?;
    let close = syntax::matching(cleaned, open, b'{', b'}')?;
    let body = &cleaned[open + 1..close];

    let mut fields = Vec::new();
    let mut depth = 0usize;
    let mut decl = String::new();
    for c in body.chars().chain(",".chars()) {
        match c {
            '{' | '(' | '[' | '<' => depth += 1,
            '}' | ')' | ']' | '>' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                if let Some(field) = decl_field(&decl) {
                    fields.push(field);
                }
                decl.clear();
                continue;
            }
            _ => {}
        }
        decl.push(c);
    }
    Some((scan.line_of(at), fields))
}

/// The field name of one struct-body declaration (attributes already
/// blank in cleaned text still carry their `#[…]` skeleton — stripped
/// here), or `None` for empty/attr-only fragments.
fn decl_field(decl: &str) -> Option<String> {
    let mut rest = decl.trim();
    while rest.starts_with("#[") {
        let close = syntax::matching(rest, 1, b'[', b']')?;
        rest = rest[close + 1..].trim_start();
    }
    let lhs = rest.split(':').next()?.trim();
    let name: String = lhs
        .rsplit(|c: char| !syntax::is_ident_char(c))
        .next()?
        .to_owned();
    if name.is_empty() || lhs.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// The string entries of `const {name}: &[&str] = &[…];`, parsed from
/// the *raw* source (cleaned text blanks the very strings we need).
fn const_entries(source: &str, name: &str) -> Option<(usize, Vec<String>)> {
    let at = syntax::word_occurrences(source, name)
        .into_iter()
        .find(|&at| source[..at].trim_end().ends_with("const"))?;
    let eq = at + source[at..].find('=')?;
    let open = eq + source[eq..].find('[')?;
    let close = syntax::matching(source, open, b'[', b']')?;
    let mut entries = Vec::new();
    let mut rest = &source[open + 1..close];
    while let Some(q1) = rest.find('"') {
        let Some(q2) = rest[q1 + 1..].find('"') else {
            break;
        };
        entries.push(rest[q1 + 1..q1 + 1 + q2].to_owned());
        rest = &rest[q1 + q2 + 2..];
    }
    Some((at, entries))
}

/// Field names assigned through the `canonical` clone inside the digest
/// fn's body (`canonical.name = None;` ⇒ `name`).
fn masked_in_body(cleaned: &str, digest_fn: &str) -> Option<Vec<String>> {
    let at = syntax::word_occurrences(cleaned, digest_fn)
        .into_iter()
        .find(|&at| cleaned[..at].trim_end().ends_with("fn"))?;
    let open = at + cleaned[at..].find('{')?;
    let close = syntax::matching(cleaned, open, b'{', b'}')?;
    let body = &cleaned[open + 1..close];
    let mut masked = Vec::new();
    for off in syntax::word_occurrences(body, "canonical") {
        let rest = &body[off + "canonical".len()..];
        if let Some(field_part) = rest.strip_prefix('.') {
            let field: String = field_part
                .chars()
                .take_while(|&c| syntax::is_ident_char(c))
                .collect();
            if field_part[field.len()..].trim_start().starts_with('=') && !field.is_empty() {
                masked.push(field);
            }
        }
    }
    Some(masked)
}

/// Runs the check over one file (raw source *and* scan: the const
/// manifests live in string literals the scan blanks out).
#[must_use]
pub fn check_file(rel_path: &str, source: &str, scan: &Scan) -> Vec<Finding> {
    let mut findings = Vec::new();
    let rule = Rule::DigestStability.id();
    let mut push = |line: usize, message: String| {
        findings.push(Finding {
            rule,
            path: rel_path.to_owned(),
            line,
            message,
        });
    };

    for keyed in DIGEST_KEYED.iter().filter(|k| k.file == rel_path) {
        let Some((struct_line, fields)) = struct_fields(&scan.cleaned, keyed.strukt, scan) else {
            push(
                1,
                format!(
                    "digest-keyed struct `{}` not found (update the digest-stability catalogue \
                     if it moved)",
                    keyed.strukt
                ),
            );
            continue;
        };
        let folded = const_entries(source, keyed.fields_const);
        let masked = const_entries(source, keyed.mask_const);
        let (Some((fields_at, folded)), Some((_, masked))) = (folded, masked) else {
            push(
                struct_line,
                format!(
                    "`{}` needs digest manifests `{}` and `{}` next to its definition",
                    keyed.strukt, keyed.fields_const, keyed.mask_const
                ),
            );
            continue;
        };
        let manifest_line = scan.line_of(fields_at);

        for field in &fields {
            match (folded.contains(field), masked.contains(field)) {
                (false, false) => push(
                    struct_line,
                    format!(
                        "field `{field}` of `{}` is neither folded into the digest \
                         (`{}`) nor masked (`{}`); decide before it silently aliases \
                         or orphans resume caches",
                        keyed.strukt, keyed.fields_const, keyed.mask_const
                    ),
                ),
                (true, true) => push(
                    manifest_line,
                    format!(
                        "field `{field}` of `{}` is listed as both folded and masked",
                        keyed.strukt
                    ),
                ),
                _ => {}
            }
        }
        for entry in folded.iter().chain(&masked) {
            if !fields.contains(entry) {
                push(
                    manifest_line,
                    format!(
                        "digest manifest entry `{entry}` does not name a field of `{}`",
                        keyed.strukt
                    ),
                );
            }
        }

        match keyed.digest_fn {
            Some(digest_fn) => {
                let Some(assigned) = masked_in_body(&scan.cleaned, digest_fn) else {
                    push(
                        manifest_line,
                        format!(
                            "masking digest fn `{digest_fn}` for `{}` not found",
                            keyed.strukt
                        ),
                    );
                    continue;
                };
                for field in &masked {
                    if !assigned.contains(field) {
                        push(
                            manifest_line,
                            format!(
                                "`{digest_fn}()` does not neutralize masked field `{field}` \
                                 of `{}` (no `canonical.{field} = …` assignment)",
                                keyed.strukt
                            ),
                        );
                    }
                }
                for field in &assigned {
                    if !masked.contains(field) {
                        push(
                            manifest_line,
                            format!(
                                "`{digest_fn}()` masks `{field}` which `{}` does not list",
                                keyed.mask_const
                            ),
                        );
                    }
                }
            }
            None => {
                for field in &masked {
                    push(
                        manifest_line,
                        format!(
                            "`{}` is hashed whole, but `{}` masks `{field}`",
                            keyed.strukt, keyed.mask_const
                        ),
                    );
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"
pub const GRIDSPEC_DIGEST_FIELDS: &[&str] =
    &["seeds", "workloads", "policies", "faults", "capacities_mamin", "resilient"];
pub const GRIDSPEC_DIGEST_MASK: &[&str] = &["name"];

pub struct GridSpec {
    pub name: Option<String>,
    pub seeds: SeedAxis,
    pub workloads: Vec<WorkloadKind>,
    pub policies: Vec<PolicySpec>,
    #[serde(default)]
    pub faults: Option<Vec<FaultPreset>>,
    pub capacities_mamin: Option<Vec<f64>>,
    pub resilient: Option<Vec<bool>>,
}

impl GridSpec {
    pub fn digest(&self) -> u64 {
        let mut canonical = self.clone();
        canonical.name = None;
        fnv1a(serde_json::to_string(&canonical).unwrap_or_default().as_bytes())
    }
}
"#;

    fn run_on(src: &str) -> Vec<Finding> {
        check_file("crates/grid/src/gen.rs", src, &Scan::new(src))
    }

    #[test]
    fn complete_partition_is_clean() {
        assert!(run_on(OK).is_empty(), "{:?}", run_on(OK));
    }

    #[test]
    fn unlisted_field_is_flagged() {
        let src = OK.replace(
            "pub resilient: Option<Vec<bool>>,",
            "pub resilient: Option<Vec<bool>>,\n    pub priority: Option<u8>,",
        );
        let findings = run_on(&src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`priority`"));
        assert!(findings[0].message.contains("neither folded"));
    }

    #[test]
    fn removing_the_name_mask_is_flagged_twice() {
        // `name` leaves the mask list: the field is now unlisted AND the
        // digest body's assignment is unsanctioned.
        let src = OK.replace(r#"&["name"]"#, "&[]");
        let findings = run_on(&src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.message.contains("neither folded")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("masks `name` which")));
    }

    #[test]
    fn stale_manifest_entry_is_flagged() {
        let src = OK.replace("pub seeds: SeedAxis,\n", "");
        let findings = run_on(&src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0]
            .message
            .contains("`seeds` does not name a field"));
    }

    #[test]
    fn unneutralized_mask_is_flagged() {
        let src = OK.replace("        canonical.name = None;\n", "");
        let findings = run_on(&src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("does not neutralize"));
    }

    #[test]
    fn other_files_are_ignored() {
        assert!(check_file("crates/sim/src/lib.rs", OK, &Scan::new(OK)).is_empty());
    }
}
