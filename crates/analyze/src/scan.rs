//! A hand-rolled Rust source scanner.
//!
//! The workspace is offline, so the analysis cannot lean on `syn` or
//! `clippy-utils`. Instead this module implements the one preprocessing
//! pass every rule needs: a *cleaned* view of a source file in which the
//! contents of comments, string literals and char literals are blanked
//! out (replaced by spaces) while the line structure is preserved
//! exactly. Rules then do token-level pattern matching on the cleaned
//! text without ever tripping over `"Amps"` inside a doc comment or a
//! diagnostic message.
//!
//! The scanner also records the spans of `#[cfg(test)]` items, so that
//! rules can exempt test code.

use std::ops::Range;

/// The result of scanning one source file.
#[derive(Debug, Clone)]
pub struct Scan {
    /// The source with comment/string/char-literal contents blanked.
    /// Newlines are preserved, so line numbers in `cleaned` match the
    /// original file.
    pub cleaned: String,
    /// Byte offsets (into `cleaned`) at which each line starts.
    line_starts: Vec<usize>,
    /// 1-indexed line ranges (inclusive) of `#[cfg(test)]` items.
    pub test_spans: Vec<Range<usize>>,
}

impl Scan {
    /// Scans `source`, producing the cleaned text and test spans.
    #[must_use]
    pub fn new(source: &str) -> Self {
        let cleaned = blank_non_code(source);
        let line_starts = line_starts(&cleaned);
        let test_spans = find_test_spans(&cleaned, &line_starts);
        Self {
            cleaned,
            line_starts,
            test_spans,
        }
    }

    /// Maps a byte offset into `cleaned` to a 1-indexed line number.
    #[must_use]
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(idx) => idx + 1,
            Err(idx) => idx,
        }
    }

    /// Whether the given 1-indexed line falls inside a `#[cfg(test)]`
    /// item.
    #[must_use]
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_spans.iter().any(|span| span.contains(&line))
    }
}

fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// True for characters that may appear inside a Rust identifier.
pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Blanks comments and literal contents.
fn blank_non_code(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0usize;

    while i < chars.len() {
        let c = chars[i];
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            // Line comment: blank to end of line.
            while i < chars.len() && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            // Block comment, possibly nested.
            let mut depth = 1usize;
            out.push_str("  ");
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '\n' {
                    out.push('\n');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        } else if is_raw_string_start(&chars, i) {
            // r"...", r#"..."#, br"...", with any number of hashes.
            let mut j = i;
            while chars[j] != 'r' {
                out.push(chars[j]);
                j += 1;
            }
            out.push('r');
            j += 1;
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                out.push('#');
                hashes += 1;
                j += 1;
            }
            out.push('"');
            j += 1; // opening quote
            loop {
                match chars.get(j) {
                    None => break,
                    Some('"') if closes_raw(&chars, j, hashes) => {
                        out.push('"');
                        for _ in 0..hashes {
                            out.push('#');
                        }
                        j += 1 + hashes;
                        break;
                    }
                    Some('\n') => {
                        out.push('\n');
                        j += 1;
                    }
                    Some(_) => {
                        out.push(' ');
                        j += 1;
                    }
                }
            }
            i = j;
        } else if c == '"'
            || (c == 'b' && chars.get(i + 1) == Some(&'"') && !prev_is_ident(&chars, i))
        {
            // Ordinary (or byte) string literal.
            if c == 'b' {
                out.push('b');
                i += 1;
            }
            out.push('"');
            i += 1;
            while i < chars.len() {
                match chars[i] {
                    '\\' => {
                        out.push(' ');
                        if chars.get(i + 1) == Some(&'\n') {
                            out.push('\n');
                        } else {
                            out.push(' ');
                        }
                        i += 2;
                    }
                    '"' => {
                        out.push('"');
                        i += 1;
                        break;
                    }
                    '\n' => {
                        out.push('\n');
                        i += 1;
                    }
                    _ => {
                        out.push(' ');
                        i += 1;
                    }
                }
            }
        } else if c == '\'' {
            // Char literal vs lifetime. A char literal is `'` followed by
            // an escape, or by one char and a closing `'`.
            if chars.get(i + 1) == Some(&'\\') {
                out.push('\'');
                out.push_str("  ");
                i += 3; // ', \, escaped char
                while i < chars.len() && chars[i] != '\'' {
                    out.push(' ');
                    i += 1;
                }
                if i < chars.len() {
                    out.push('\'');
                    i += 1;
                }
            } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                out.push('\'');
                out.push(' ');
                out.push('\'');
                i += 3;
            } else {
                // A lifetime such as `'a`: keep it.
                out.push('\'');
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }

    out
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && is_ident_char(chars[i - 1])
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let (r_pos, base_ok) = match chars[i] {
        'r' => (i, !prev_is_ident(chars, i)),
        'b' if chars.get(i + 1) == Some(&'r') => (i + 1, !prev_is_ident(chars, i)),
        _ => return false,
    };
    if !base_ok {
        return false;
    }
    let mut j = r_pos + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn closes_raw(chars: &[char], quote: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(quote + k) == Some(&'#'))
}

/// Finds the (inclusive) line spans of `#[cfg(test)]` items by matching
/// the brace block that follows the attribute.
fn find_test_spans(cleaned: &str, line_starts: &[usize]) -> Vec<Range<usize>> {
    const ATTR: &str = "#[cfg(test)]";
    let bytes = cleaned.as_bytes();
    let mut spans = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = cleaned[from..].find(ATTR) {
        let attr_at = from + rel;
        from = attr_at + ATTR.len();
        let start_line = offset_line(line_starts, attr_at);
        // Scan forward to the item's opening brace (or a `;` for an
        // out-of-line `mod foo;`, which has no inline span).
        let mut j = attr_at + ATTR.len();
        while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] == b';' {
            continue;
        }
        let mut depth = 0usize;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let end_line = offset_line(line_starts, j.min(bytes.len().saturating_sub(1)));
        spans.push(start_line..end_line + 1);
    }
    spans
}

fn offset_line(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(idx) => idx + 1,
        Err(idx) => idx,
    }
}

/// Returns the byte offsets (into `cleaned`) of every occurrence of
/// `needle`. When the needle begins with an identifier character the
/// occurrence must be token-delimited on the left (so `HashMap` matches
/// but `MyHashMapLike` does not); needles such as `.unwrap()` that start
/// with punctuation are matched verbatim.
#[must_use]
pub fn token_occurrences(cleaned: &str, needle: &str) -> Vec<usize> {
    let needs_left_boundary = needle.chars().next().is_some_and(is_ident_char);
    let mut hits = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = cleaned[from..].find(needle) {
        let at = from + rel;
        from = at + needle.len().max(1);
        let left_ok = !needs_left_boundary
            || at == 0
            || !cleaned[..at].chars().next_back().is_some_and(is_ident_char);
        if left_ok {
            hits.push(at);
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet y = 1; /* HashMap */\n";
        let scan = Scan::new(src);
        assert!(!scan.cleaned.contains("HashMap"));
        assert_eq!(scan.cleaned.lines().count(), src.lines().count());
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let p = r#\"panic!(\"boom\")\"#;\nlet q = br\"unwrap()\";\n";
        let scan = Scan::new(src);
        assert!(!scan.cleaned.contains("panic!"));
        assert!(!scan.cleaned.contains("unwrap"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\n";
        let scan = Scan::new(src);
        assert!(scan.cleaned.contains("<'a>"));
        assert!(!scan.cleaned.contains("'x'"));
    }

    #[test]
    fn escaped_quote_in_string() {
        let src = "let s = \"a\\\"b\"; let t = HashMap::new();\n";
        let scan = Scan::new(src);
        assert!(scan.cleaned.contains("HashMap"));
    }

    #[test]
    fn test_spans_cover_cfg_test_mod() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
        let scan = Scan::new(src);
        assert!(!scan.is_test_line(1));
        assert!(scan.is_test_line(2));
        assert!(scan.is_test_line(4));
        assert!(scan.is_test_line(5));
        assert!(!scan.is_test_line(6));
    }

    #[test]
    fn token_occurrences_respect_boundaries() {
        let cleaned = "MyHashMap HashMap x.HashMap";
        let hits = token_occurrences(cleaned, "HashMap");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn line_of_maps_offsets() {
        let scan = Scan::new("ab\ncd\nef\n");
        assert_eq!(scan.line_of(0), 1);
        assert_eq!(scan.line_of(3), 2);
        assert_eq!(scan.line_of(7), 3);
    }
}
