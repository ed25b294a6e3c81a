//! Small lexical helpers for the body-walking
//! [`artifacts`](crate::artifacts) pass.
//!
//! Everything here operates on a [`Scan`](crate::Scan)'s `cleaned`
//! text — comments, strings and char literals already blanked, line
//! structure preserved — so brace matching and token search never
//! trip over quoted braces.

use std::ops::Range;

use crate::scan::{is_ident_char, token_occurrences};

/// Body ranges (between the braces, exclusive) of every *top-level*
/// `fn` in `cleaned`, in source order, paired with the offset of the
/// `fn` keyword. Nested `fn` items stay inside their parent's range;
/// `fn(…)` pointer types are not items and never match.
pub(crate) fn function_bodies(cleaned: &str) -> Vec<(usize, Range<usize>)> {
    let mut out: Vec<(usize, Range<usize>)> = Vec::new();
    for off in token_occurrences(cleaned, "fn ") {
        if out.last().is_some_and(|(_, body)| off < body.end) {
            continue; // nested item — covered by the enclosing body walk
        }
        let rest = &cleaned[off..];
        let Some(rel_stop) = rest.find(['{', ';']) else {
            continue;
        };
        if rest.as_bytes()[rel_stop] != b'{' {
            continue; // trait method / extern declaration without a body
        }
        let open = off + rel_stop;
        let Some(close) = closing_brace(cleaned, open) else {
            continue;
        };
        out.push((off, open + 1..close));
    }
    out
}

/// Offset of the `}` matching the `{` at `open`, honouring nesting.
/// `None` when unbalanced.
fn closing_brace(text: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in text.bytes().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// The identifier starting at the first non-whitespace byte at or after
/// `from` (used to read the name out of `fn <name>` and `impl .. for
/// <Type>` headers). Empty when the next token is not an identifier.
pub(crate) fn ident_after(text: &str, from: usize) -> &str {
    let rest = &text[from..];
    let start = rest.len() - rest.trim_start().len();
    let tail = &rest[start..];
    let end = tail
        .char_indices()
        .find(|&(_, c)| !is_ident_char(c))
        .map_or(tail.len(), |(i, _)| i);
    &tail[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_bodies_swallow_nested_items() {
        let src = "fn outer() { let a = 1; fn inner() { let b = 2; } }\nfn second() {}\nfn fnv1a(f: fn(u8)) {}";
        let bodies = function_bodies(src);
        assert_eq!(bodies.len(), 3);
        assert!(src[bodies[0].1.clone()].contains("inner"));
        assert_eq!(&src[bodies[1].1.clone()], "");
    }

    #[test]
    fn ident_after_reads_the_next_token() {
        assert_eq!(
            ident_after("fn  begin_segment(&mut self)", 2),
            "begin_segment"
        );
        assert_eq!(ident_after("for Conv {", 3), "Conv");
        assert_eq!(ident_after("fn (", 2), "");
    }
}
