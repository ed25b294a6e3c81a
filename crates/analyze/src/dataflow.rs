//! Raw-projection dataflow through function bodies.
//!
//! Mixing two unit newtypes (`Amps + Seconds`) or reaching into one with
//! `.0` is a compile error (`fcdpm-units` pins both with `compile_fail`
//! doctests). What the compiler cannot see is arithmetic on the raw
//! `f64` accessors: `i.amps() + t.seconds()` type-checks. This pass
//! follows those projections through `let`-bindings and flags `+`/`-`
//! over two of *distinct* dimensions.
//!
//! The lattice is deliberately conservative: multiplication or division
//! involving any raw projection yields `Unknown`, because a raw factor
//! may legitimately carry inverse units (a fitted slope in 1/A, say).
//! Every guardrail loses coverage, never soundness of reported
//! findings — anything flagged is a definite dimensional mix.

use crate::{Finding, Rule, Scan};

/// The dimension a projection method's raw `f64` result carries (the
/// `fcdpm-units` newtype it came from).
fn projection_dimension(method: &str) -> Option<&'static str> {
    Some(match method {
        "amps" | "milliamps" => "Amps",
        "volts" => "Volts",
        "watts" => "Watts",
        "seconds" | "minutes" => "Seconds",
        "amp_seconds" | "milliamp_minutes" | "amp_hours" => "Charge",
        "joules" => "Energy",
        "value" => "Efficiency",
        _ => return None,
    })
}

/// The abstract type of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    /// A raw `f64` known to carry this dimension (a projection result).
    Raw(&'static str),
    /// A dimensionless number (a literal).
    Scalar,
    /// Anything the pass cannot or will not track.
    Unknown,
}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Number(String),
    LParen,
    RParen,
    Plus,
    Minus,
    Star,
    Slash,
    Dot,
    PathSep,
    Comma,
    Semi,
    Eq,
    Amp,
    /// Anything else — aborts the surrounding expression conservatively.
    Other(char),
}

/// One token plus its byte offset in the cleaned source.
#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    at: usize,
}

fn tokenize(cleaned: &str) -> Vec<Spanned> {
    let bytes = cleaned.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let at = i;
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < bytes.len() {
                let d = bytes[j] as char;
                let continues = d.is_ascii_alphanumeric()
                    || d == '_'
                    || (d == '.' && bytes.get(j + 1).is_some_and(u8::is_ascii_digit))
                    || ((d == '+' || d == '-')
                        && matches!(bytes[j - 1] as char, 'e' | 'E')
                        && bytes.get(j + 1).is_some_and(u8::is_ascii_digit));
                if !continues {
                    break;
                }
                j += 1;
            }
            out.push(Spanned {
                tok: Tok::Number(cleaned[i..j].to_owned()),
                at,
            });
            i = j;
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < bytes.len() && ((bytes[j] as char).is_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            out.push(Spanned {
                tok: Tok::Ident(cleaned[i..j].to_owned()),
                at,
            });
            i = j;
            continue;
        }
        if c == ':' && bytes.get(i + 1) == Some(&b':') {
            out.push(Spanned {
                tok: Tok::PathSep,
                at,
            });
            i += 2;
            continue;
        }
        let tok = match c {
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            '+' => Tok::Plus,
            '-' => Tok::Minus,
            '*' => Tok::Star,
            '/' => Tok::Slash,
            '.' => Tok::Dot,
            ',' => Tok::Comma,
            ';' => Tok::Semi,
            '=' => Tok::Eq,
            '&' => Tok::Amp,
            other => Tok::Other(other),
        };
        out.push(Spanned { tok, at });
        i += 1;
    }
    out
}

/// Methods that return the receiver's own type.
const PRESERVING_METHODS: [&str; 7] = ["min", "max", "clamp", "abs", "max_zero", "floor", "ceil"];

// ---------------------------------------------------------------------
// The per-file pass
// ---------------------------------------------------------------------

struct Pass<'a> {
    scan: &'a Scan,
    rel_path: &'a str,
    toks: Vec<Spanned>,
    pos: usize,
    scope: std::collections::BTreeMap<String, Ty>,
    findings: Vec<Finding>,
}

impl<'a> Pass<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek_at(&self, ahead: usize) -> Option<&Tok> {
        self.toks.get(self.pos + ahead).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let tok = self.toks.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        tok
    }

    fn line_here(&self) -> usize {
        let at = self.toks.get(self.pos).map_or(0, |s| s.at);
        self.scan.line_of(at)
    }

    fn report(&mut self, line: usize, message: String) {
        if self.scan.is_test_line(line) {
            return;
        }
        self.findings.push(Finding {
            rule: Rule::UnitDataflow.id(),
            path: self.rel_path.to_owned(),
            line,
            message,
        });
    }

    /// Skips ahead until just past the next token equal to `needle` at
    /// paren depth zero relative to the current position.
    fn skip_past(&mut self, needle: &Tok) {
        let mut depth = 0i32;
        while let Some(tok) = self.bump() {
            match tok {
                Tok::LParen => depth += 1,
                Tok::RParen => depth -= 1,
                ref t if t == needle && depth <= 0 => return,
                _ => {}
            }
        }
    }

    /// Drives the statement-level walk: `fn` resets the scope (bindings
    /// do not flow across function boundaries), `let` statements bind
    /// and analyze.
    fn run(&mut self) {
        while self.pos < self.toks.len() {
            match self.peek() {
                Some(Tok::Ident(word)) if word == "fn" => {
                    self.pos += 1;
                    self.scope.clear();
                }
                Some(Tok::Ident(word)) if word == "let" => {
                    self.pos += 1;
                    self.let_statement();
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Parses `let [mut] name [: Type] = expr;`. Non-identifier patterns
    /// and bodies containing control flow are skipped conservatively.
    /// An annotation says nothing about a raw projection, so it is
    /// skipped.
    fn let_statement(&mut self) {
        if matches!(self.peek(), Some(Tok::Ident(w)) if w == "mut") {
            self.pos += 1;
        }
        let Some(Tok::Ident(name)) = self.peek().cloned() else {
            // Tuple/struct/ref pattern: skip the statement wholesale.
            self.skip_past(&Tok::Semi);
            return;
        };
        self.pos += 1;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Eq | Tok::Semi => break,
                _ => self.pos += 1,
            }
        }
        if self.peek() != Some(&Tok::Eq) {
            self.skip_past(&Tok::Semi);
            return;
        }
        self.pos += 1;
        // Guardrail: blocks, closures, branches and let-else in the RHS
        // are out of scope for the lattice — bind Unknown, skip.
        if self.rhs_has_control_flow() {
            self.skip_past(&Tok::Semi);
            self.scope.insert(name, Ty::Unknown);
            return;
        }
        let ty = self.expr();
        self.skip_past(&Tok::Semi);
        self.scope.insert(name, ty);
    }

    /// Whether the tokens between here and the statement's `;` contain
    /// constructs the expression lattice does not model.
    fn rhs_has_control_flow(&self) -> bool {
        let mut depth = 0i32;
        for spanned in &self.toks[self.pos..] {
            match &spanned.tok {
                Tok::LParen => depth += 1,
                Tok::RParen => depth -= 1,
                Tok::Semi if depth <= 0 => return false,
                Tok::Other('{' | '}' | '|' | '?') => return true,
                Tok::Ident(w) if matches!(w.as_str(), "if" | "match" | "loop" | "while") => {
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    // -- expression grammar -------------------------------------------

    fn expr(&mut self) -> Ty {
        let mut acc = self.term();
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => Tok::Plus,
                Some(Tok::Minus) => Tok::Minus,
                _ => return acc,
            };
            let line = self.line_here();
            self.pos += 1;
            let rhs = self.term();
            acc = self.additive(op.clone(), acc, rhs, line);
        }
    }

    fn additive(&mut self, op: Tok, a: Ty, b: Ty, line: usize) -> Ty {
        let op_str = if op == Tok::Plus { "+" } else { "-" };
        match (a, b) {
            (Ty::Raw(x), Ty::Raw(y)) if x != y => {
                self.report(
                    line,
                    format!(
                        "`{op_str}` mixes raw f64 projections of distinct dimensions: {x} and {y}"
                    ),
                );
                Ty::Unknown
            }
            (Ty::Raw(x), Ty::Raw(_)) => Ty::Raw(x),
            (Ty::Raw(x), Ty::Scalar) | (Ty::Scalar, Ty::Raw(x)) => Ty::Raw(x),
            (Ty::Scalar, Ty::Scalar) => Ty::Scalar,
            _ => Ty::Unknown,
        }
    }

    fn term(&mut self) -> Ty {
        let mut acc = self.unary();
        while matches!(self.peek(), Some(Tok::Star | Tok::Slash)) {
            self.pos += 1;
            let rhs = self.unary();
            // A raw factor may carry inverse units (a fitted slope in
            // 1/A), so anything it touches is untracked rather than
            // misreported.
            acc = if (acc, rhs) == (Ty::Scalar, Ty::Scalar) {
                Ty::Scalar
            } else {
                Ty::Unknown
            };
        }
        acc
    }

    fn unary(&mut self) -> Ty {
        while matches!(self.peek(), Some(Tok::Minus | Tok::Amp)) {
            self.pos += 1;
        }
        let base = self.primary();
        self.postfix(base)
    }

    fn primary(&mut self) -> Ty {
        match self.bump() {
            Some(Tok::LParen) => {
                let inner = self.expr();
                if self.peek() == Some(&Tok::RParen) {
                    self.pos += 1;
                }
                inner
            }
            Some(Tok::Number(_)) => Ty::Scalar,
            Some(Tok::Ident(name)) => {
                // `a::b::c` is a path, never a tracked binding.
                let mut path = false;
                while self.peek() == Some(&Tok::PathSep)
                    && matches!(self.peek_at(1), Some(Tok::Ident(_)))
                {
                    self.pos += 2;
                    path = true;
                }
                if self.peek() == Some(&Tok::LParen) {
                    // A call: analyze the arguments, untracked result.
                    self.pos += 1;
                    self.call_args();
                    return Ty::Unknown;
                }
                match self.scope.get(&name) {
                    Some(&ty) if !path => ty,
                    _ => Ty::Unknown,
                }
            }
            _ => Ty::Unknown,
        }
    }

    /// Method calls and field projections on a computed receiver.
    fn postfix(&mut self, mut ty: Ty) -> Ty {
        while self.peek() == Some(&Tok::Dot) {
            match self.peek_at(1) {
                Some(Tok::Number(_)) => {
                    // Tuple index: untracked.
                    ty = Ty::Unknown;
                    self.pos += 2;
                }
                Some(Tok::Ident(method)) => {
                    let method = method.clone();
                    self.pos += 2;
                    if self.peek() == Some(&Tok::LParen) {
                        self.pos += 1;
                        self.call_args();
                        ty = method_result(&method, ty);
                    } else {
                        // Plain field access: untracked.
                        ty = Ty::Unknown;
                    }
                }
                _ => return Ty::Unknown,
            }
        }
        ty
    }

    /// Parses a parenthesized argument list (the `(` is already
    /// consumed), analyzing each argument expression for findings.
    fn call_args(&mut self) {
        loop {
            match self.peek() {
                None | Some(Tok::Semi) => return,
                Some(Tok::RParen) => {
                    self.pos += 1;
                    return;
                }
                Some(Tok::Comma) => {
                    self.pos += 1;
                }
                _ => {
                    let before = self.pos;
                    let _ = self.expr();
                    if self.pos == before {
                        // Unparseable argument token: skip it so the
                        // loop always advances.
                        self.pos += 1;
                    }
                }
            }
        }
    }
}

fn method_result(method: &str, receiver: Ty) -> Ty {
    if let Some(kind) = projection_dimension(method) {
        return Ty::Raw(kind);
    }
    if PRESERVING_METHODS.contains(&method) {
        return receiver;
    }
    Ty::Unknown
}

/// Runs the dataflow pass over one physics source file.
#[must_use]
pub fn check_file(rel_path: &str, scan: &Scan) -> Vec<Finding> {
    let mut pass = Pass {
        scan,
        rel_path,
        toks: tokenize(&scan.cleaned),
        pos: 0,
        scope: std::collections::BTreeMap::new(),
        findings: Vec::new(),
    };
    pass.run();
    pass.findings
        .sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
    pass.findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        check_file("crates/fuelcell/src/fixture.rs", &Scan::new(src))
    }

    #[test]
    fn flags_raw_projection_mixing() {
        let got = findings("fn f(i: Amps, t: Seconds) {\n    let x = i.amps() + t.seconds();\n}\n");
        assert_eq!(got.len(), 1, "{got:#?}");
        assert_eq!(got[0].line, 2);
        assert!(got[0].message.contains("Amps"));
        assert!(got[0].message.contains("Seconds"));
    }

    #[test]
    fn same_dimension_projections_are_fine() {
        let got = findings(
            "fn f(a: Amps, b: Amps) {\n    let x = a.amps() - b.amps();\n    let y = x + 1.0;\n}\n",
        );
        assert!(got.is_empty(), "{got:#?}");
    }

    #[test]
    fn multiplication_with_raw_factors_is_untracked() {
        // slope carries 1/A — must NOT be flagged.
        let got = findings(
            "fn f(e: Efficiency, i: Amps, intercept: f64, slope: f64) {\n    let r = e.value() - (intercept + slope * i.amps());\n}\n",
        );
        assert!(got.is_empty(), "{got:#?}");
    }

    #[test]
    fn shadowing_tracks_the_latest_binding() {
        let got = findings(
            "fn f(i: Amps, t: Seconds) {\n    let x = i.amps();\n    let x = t.seconds();\n    let y = x + i.amps();\n}\n",
        );
        assert_eq!(got.len(), 1, "shadowed x is Seconds now: {got:#?}");
        assert_eq!(got[0].line, 4);
    }

    #[test]
    fn method_chains_preserve_and_project() {
        let got = findings(
            "fn f(i: Amps, cap: Charge) {\n    let clamped = i.max_zero().amps();\n    let x = clamped + cap.amp_seconds();\n}\n",
        );
        assert_eq!(got.len(), 1, "{got:#?}");
        assert!(got[0].message.contains("Amps"));
        assert!(got[0].message.contains("Charge"));
    }

    #[test]
    fn control_flow_rhs_is_skipped() {
        let got = findings(
            "fn f(i: Amps, t: Seconds) {\n    let x = if true { i.amps() } else { t.seconds() };\n    let y = x + i.amps();\n}\n",
        );
        assert!(got.is_empty(), "x is Unknown, y untracked: {got:#?}");
    }

    #[test]
    fn findings_inside_call_arguments_fire() {
        let got =
            findings("fn f(i: Amps, t: Seconds) {\n    let x = g(i.amps() + t.seconds());\n}\n");
        assert_eq!(got.len(), 1, "{got:#?}");
    }

    #[test]
    fn test_spans_are_excluded() {
        let got = findings(
            "#[cfg(test)]\nmod tests {\n    fn f(i: Amps, t: Seconds) {\n        let x = i.amps() + t.seconds();\n    }\n}\n",
        );
        assert!(got.is_empty(), "{got:#?}");
    }
}
