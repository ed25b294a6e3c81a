//! Unit-dimension dataflow through function bodies.
//!
//! The `unit-safety` rule checks *signatures*; this pass follows
//! the quantities through `let`-bindings and arithmetic, so dimension
//! errors hidden inside a body are caught too:
//!
//! * adding or subtracting raw `f64` projections of *distinct*
//!   dimensions (`i.amps() + t.seconds()`),
//! * mixing distinct unit newtypes under `+`/`-`,
//! * `.0` tuple projections of a unit newtype in physics code (the
//!   named accessor keeps the dimension visible; `.0` erases it).
//!
//! The lattice is deliberately conservative: multiplication or division
//! involving any raw projection yields `Unknown`, because a raw factor
//! may legitimately carry inverse units (a fitted slope in 1/A, say).
//! Every guardrail loses coverage, never soundness of reported
//! findings — anything flagged is a definite dimensional mix.

use crate::{Finding, Rule, Scan};

/// A physical dimension tracked by the pass (one per `fcdpm-units`
/// newtype the workspace passes around).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// `Amps`.
    Amps,
    /// `Volts`.
    Volts,
    /// `Watts`.
    Watts,
    /// `Seconds`.
    Seconds,
    /// `Charge` (A·s).
    Charge,
    /// `Energy` (J).
    Energy,
    /// `Efficiency` (dimensionless but newtyped).
    Efficiency,
}

impl UnitKind {
    fn from_type_name(name: &str) -> Option<Self> {
        Some(match name {
            "Amps" => UnitKind::Amps,
            "Volts" => UnitKind::Volts,
            "Watts" => UnitKind::Watts,
            "Seconds" => UnitKind::Seconds,
            "Charge" => UnitKind::Charge,
            "Energy" => UnitKind::Energy,
            "Efficiency" => UnitKind::Efficiency,
            _ => return None,
        })
    }

    /// The dimension a projection method's raw `f64` result carries.
    fn from_projection(method: &str) -> Option<Self> {
        Some(match method {
            "amps" | "milliamps" => UnitKind::Amps,
            "volts" => UnitKind::Volts,
            "watts" => UnitKind::Watts,
            "seconds" | "minutes" => UnitKind::Seconds,
            "amp_seconds" | "milliamp_minutes" | "amp_hours" => UnitKind::Charge,
            "joules" => UnitKind::Energy,
            "value" => UnitKind::Efficiency,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            UnitKind::Amps => "Amps",
            UnitKind::Volts => "Volts",
            UnitKind::Watts => "Watts",
            UnitKind::Seconds => "Seconds",
            UnitKind::Charge => "Charge",
            UnitKind::Energy => "Energy",
            UnitKind::Efficiency => "Efficiency",
        }
    }
}

/// The abstract type of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// A unit newtype value.
    Unit(UnitKind),
    /// A raw `f64` known to carry this dimension (a projection result).
    Raw(UnitKind),
    /// A dimensionless number (literal or ratio of equal dimensions).
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
    Colon,
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
            ':' => Tok::Colon,
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

// ---------------------------------------------------------------------
// Lattice operations
// ---------------------------------------------------------------------

/// `Unit(a) op Unit(b)` for `*` and `/` — the operator impls that exist
/// in `crates/units/src/electrical.rs`, mirrored.
fn unit_algebra(op: Tok, a: UnitKind, b: UnitKind) -> Option<UnitKind> {
    use UnitKind::{Amps, Charge, Energy, Seconds, Volts, Watts};
    match op {
        Tok::Star => Some(match (a, b) {
            (Volts, Amps) | (Amps, Volts) => Watts,
            (Amps, Seconds) | (Seconds, Amps) => Charge,
            (Watts, Seconds) | (Seconds, Watts) => Energy,
            _ => return None,
        }),
        Tok::Slash => Some(match (a, b) {
            (Watts, Volts) => Amps,
            (Watts, Amps) => Volts,
            (Charge, Seconds) => Amps,
            (Charge, Amps) => Seconds,
            (Energy, Seconds) => Watts,
            (Energy, Watts) => Seconds,
            _ => return None,
        }),
        _ => None,
    }
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

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |s| s.at)
    }

    fn line_here(&self) -> usize {
        self.scan.line_of(self.offset())
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

    /// Drives the statement-level walk: function headers bind typed
    /// parameters (resetting the scope — bindings do not flow across
    /// function boundaries), `let` statements bind and analyze.
    fn run(&mut self) {
        while self.pos < self.toks.len() {
            match self.peek() {
                Some(Tok::Ident(word)) if word == "fn" => {
                    self.pos += 1;
                    self.enter_fn();
                }
                Some(Tok::Ident(word)) if word == "let" => {
                    self.pos += 1;
                    self.let_statement();
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Parses `fn name(params...)`, binding unit-typed parameters.
    fn enter_fn(&mut self) {
        self.scope.clear();
        let Some(Tok::Ident(_)) = self.peek() else {
            return;
        };
        self.pos += 1;
        // Skip generics, if any, up to the opening paren on this header.
        while let Some(tok) = self.peek() {
            match tok {
                Tok::LParen => break,
                // A brace before the paren means this wasn't a header.
                Tok::Other('{') | Tok::Semi => return,
                _ => self.pos += 1,
            }
        }
        self.pos += 1; // consume '('
        let mut depth = 1i32;
        // Collect `name: Type` pairs at depth 1.
        while depth > 0 {
            match self.bump() {
                None => return,
                Some(Tok::LParen) => depth += 1,
                Some(Tok::RParen) => depth -= 1,
                Some(Tok::Ident(name)) if depth == 1 && self.peek() == Some(&Tok::Colon) => {
                    self.pos += 1;
                    // `&`/`mut` prefixes, then the type name.
                    while matches!(self.peek(), Some(Tok::Amp))
                        || matches!(self.peek(), Some(Tok::Ident(w)) if w == "mut")
                    {
                        self.pos += 1;
                    }
                    if let Some(Tok::Ident(ty_name)) = self.peek() {
                        let ty = UnitKind::from_type_name(ty_name).map_or(Ty::Unknown, Ty::Unit);
                        self.scope.insert(name, ty);
                    }
                }
                _ => {}
            }
        }
    }

    /// Parses `let [mut] name [: Type] = expr;`. Non-identifier patterns
    /// and bodies containing control flow are skipped conservatively.
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
        let mut annotated: Option<Ty> = None;
        if self.peek() == Some(&Tok::Colon) {
            self.pos += 1;
            if let Some(Tok::Ident(ty_name)) = self.peek() {
                annotated = UnitKind::from_type_name(ty_name).map(Ty::Unit);
            }
            // Skip the rest of the annotation up to `=` (or `;`).
            while let Some(tok) = self.peek() {
                match tok {
                    Tok::Eq | Tok::Semi => break,
                    _ => self.pos += 1,
                }
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
        self.scope.insert(name, annotated.unwrap_or(ty));
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
                        "`{op_str}` mixes raw f64 projections of distinct dimensions: {} and {}",
                        x.name(),
                        y.name()
                    ),
                );
                Ty::Unknown
            }
            (Ty::Raw(x), Ty::Raw(_)) => Ty::Raw(x),
            (Ty::Raw(x), Ty::Scalar) | (Ty::Scalar, Ty::Raw(x)) => Ty::Raw(x),
            (Ty::Unit(x), Ty::Unit(y)) if x != y => {
                self.report(
                    line,
                    format!(
                        "`{op_str}` mixes distinct unit newtypes: {} and {}",
                        x.name(),
                        y.name()
                    ),
                );
                Ty::Unknown
            }
            (Ty::Unit(x), Ty::Unit(_)) => Ty::Unit(x),
            (Ty::Scalar, Ty::Scalar) => Ty::Scalar,
            _ => Ty::Unknown,
        }
    }

    fn term(&mut self) -> Ty {
        let mut acc = self.unary();
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => Tok::Star,
                Some(Tok::Slash) => Tok::Slash,
                _ => return acc,
            };
            self.pos += 1;
            let rhs = self.unary();
            acc = multiplicative(op, acc, rhs);
        }
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
                if self.peek() == Some(&Tok::PathSep) {
                    return self.path_tail(&name);
                }
                if self.peek() == Some(&Tok::LParen) {
                    // Free function call: evaluate args, unknown result.
                    self.pos += 1;
                    self.call_args();
                    return Ty::Unknown;
                }
                self.scope.get(&name).copied().unwrap_or(Ty::Unknown)
            }
            _ => Ty::Unknown,
        }
    }

    /// `Name::segment...` — a constructor/associated item of a unit
    /// newtype yields `Unit(kind)` whatever the segment is.
    fn path_tail(&mut self, head: &str) -> Ty {
        let kind = UnitKind::from_type_name(head);
        while self.peek() == Some(&Tok::PathSep) {
            self.pos += 1;
            if matches!(self.peek(), Some(Tok::Ident(_))) {
                self.pos += 1;
            } else {
                return Ty::Unknown;
            }
        }
        if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            self.call_args();
        }
        kind.map_or(Ty::Unknown, Ty::Unit)
    }

    /// Method calls and field projections on a computed receiver.
    fn postfix(&mut self, mut ty: Ty) -> Ty {
        while self.peek() == Some(&Tok::Dot) {
            let line = self.line_here();
            match self.peek_at(1) {
                Some(Tok::Number(n)) => {
                    // `.0` (or any tuple index) on a unit newtype erases
                    // the dimension — flag it in physics code.
                    if let Ty::Unit(kind) = ty {
                        let n = n.clone();
                        self.report(
                            line,
                            format!(
                                "`.{n}` projects the {} newtype to a bare f64; use the named accessor so the dimension stays visible",
                                kind.name()
                            ),
                        );
                        ty = Ty::Raw(kind);
                    } else {
                        ty = Ty::Unknown;
                    }
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

fn multiplicative(op: Tok, a: Ty, b: Ty) -> Ty {
    match (a, b) {
        (Ty::Unit(x), Ty::Unit(y)) => match (op.clone(), x == y) {
            (Tok::Slash, true) => Ty::Scalar,
            _ => unit_algebra(op, x, y).map_or(Ty::Unknown, Ty::Unit),
        },
        (Ty::Unit(x), Ty::Scalar) | (Ty::Scalar, Ty::Unit(x)) => Ty::Unit(x),
        (Ty::Scalar, Ty::Scalar) => Ty::Scalar,
        // A raw factor may carry inverse units (a fitted slope in 1/A),
        // so anything it touches is untracked rather than misreported.
        _ => Ty::Unknown,
    }
}

fn method_result(method: &str, receiver: Ty) -> Ty {
    if let Some(kind) = UnitKind::from_projection(method) {
        return Ty::Raw(kind);
    }
    if PRESERVING_METHODS.contains(&method) {
        return receiver;
    }
    match method {
        // Amps::at_volts(Volts) -> Watts; Watts::current_at(Volts) -> Amps.
        "at_volts" => Ty::Unit(UnitKind::Watts),
        "current_at" => Ty::Unit(UnitKind::Amps),
        _ => Ty::Unknown,
    }
}

/// Runs the dataflow pass over one physics source file, returning raw
/// findings (inline suppression is applied by the caller).
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
    fn unit_algebra_tracks_ohms_law() {
        let got = findings(
            "fn f(v: Volts, i: Amps, t: Seconds) {\n    let p = v * i;\n    let e = p * t;\n    let bad = p + t;\n}\n",
        );
        assert_eq!(got.len(), 1, "{got:#?}");
        assert!(got[0].message.contains("Watts"));
        assert!(got[0].message.contains("Seconds"));
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
    fn tuple_projection_of_unit_is_flagged() {
        let got = findings("fn f(i: Amps) {\n    let raw = i.0;\n}\n");
        assert_eq!(got.len(), 1, "{got:#?}");
        assert!(got[0].message.contains(".0"));
        assert!(got[0].message.contains("Amps"));
    }

    #[test]
    fn control_flow_rhs_is_skipped() {
        let got = findings(
            "fn f(i: Amps, t: Seconds) {\n    let x = if true { i.amps() } else { t.seconds() };\n    let y = x + i.amps();\n}\n",
        );
        assert!(got.is_empty(), "x is Unknown, y untracked: {got:#?}");
    }

    #[test]
    fn constructors_and_annotations_bind_units() {
        let got = findings(
            "fn f() {\n    let i = Amps::new(0.5);\n    let t: Seconds = Seconds::ZERO;\n    let bad = i + t;\n}\n",
        );
        assert_eq!(got.len(), 1, "{got:#?}");
        assert!(got[0].message.contains("unit newtypes"));
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
