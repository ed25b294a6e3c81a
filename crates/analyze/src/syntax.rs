//! Small lexical helpers shared by the body-walking passes
//! ([`digest`](crate::digest), [`artifacts`](crate::artifacts)).
//!
//! Everything here operates on a [`Scan`](crate::Scan)'s `cleaned`
//! text — comments, strings and char literals already blanked, line
//! structure preserved — so delimiter matching and token search never
//! trip over quoted braces.

use std::ops::Range;

/// True for characters that may appear inside a Rust identifier.
pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of every occurrence of `needle`, token-delimited on
/// each side whose edge is an identifier character (the scanner's
/// `token_occurrences` only guards the left edge, which is wrong for
/// short needles like `fn` that prefix longer identifiers). Needles
/// edged by punctuation (`.lock().unwrap()`) match verbatim there.
pub(crate) fn word_occurrences(text: &str, needle: &str) -> Vec<usize> {
    let guard_left = needle.chars().next().is_some_and(is_ident_char);
    let guard_right = needle.chars().next_back().is_some_and(is_ident_char);
    let mut hits = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = text[from..].find(needle) {
        let at = from + rel;
        from = at + needle.len().max(1);
        let left_ok =
            !guard_left || at == 0 || !text[..at].chars().next_back().is_some_and(is_ident_char);
        let end = at + needle.len();
        let right_ok = !guard_right
            || end >= text.len()
            || !text[end..].chars().next().is_some_and(is_ident_char);
        if left_ok && right_ok {
            hits.push(at);
        }
    }
    hits
}

/// Offset of the delimiter matching the opener at `open` (which must
/// hold `openc`), honouring nesting. `None` when unbalanced.
pub(crate) fn matching(text: &str, open: usize, openc: u8, closec: u8) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == openc {
            depth += 1;
        } else if b == closec {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Body ranges (between the braces, exclusive) of every *top-level*
/// `fn` in `cleaned`, in source order, paired with the offset of the
/// `fn` keyword. Nested `fn` items stay inside their parent's range.
pub(crate) fn function_bodies(cleaned: &str) -> Vec<(usize, Range<usize>)> {
    let mut out: Vec<(usize, Range<usize>)> = Vec::new();
    for off in word_occurrences(cleaned, "fn") {
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
        let Some(close) = matching(cleaned, open, b'{', b'}') else {
            continue;
        };
        out.push((off, open + 1..close));
    }
    out
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
    fn word_occurrences_need_both_boundaries() {
        let text = "fn fnv1a(x: u64) { myfn(); fn inner() {} }";
        let hits = word_occurrences(text, "fn");
        assert_eq!(hits, vec![0, 27], "fnv1a and myfn must not match");
    }

    #[test]
    fn top_level_bodies_swallow_nested_items() {
        let src = "fn outer() { let a = 1; fn inner() { let b = 2; } }\nfn second() {}";
        let bodies = function_bodies(src);
        assert_eq!(bodies.len(), 2);
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
