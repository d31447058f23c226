//! The paradigm error generator: seeded, text-surgical mutations that
//! reproduce the human error patterns of Table I.

use crate::taxonomy::{ErrorCategory, ErrorKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use uvllm_verilog::ast::*;
use uvllm_verilog::parser::parse_with_tokens;
use uvllm_verilog::span::{LineMap, Span};
use uvllm_verilog::token::{Keyword, Token, TokenKind};
use uvllm_verilog::{parse, SourceFile};

/// Mutation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateError {
    /// The source does not offer a site for this operator — the "×"
    /// cells of the paper's Fig. 7 heat map.
    NoApplicableSite(ErrorKind),
    /// The input itself does not parse.
    BadInput(String),
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::NoApplicableSite(k) => {
                write!(f, "no applicable site for mutation '{k}'")
            }
            MutateError::BadInput(m) => write!(f, "input does not parse: {m}"),
        }
    }
}

impl std::error::Error for MutateError {}

/// What the oracle (and the evaluation harness) knows about an injected
/// error. The repair pipeline never sees this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    pub kind: ErrorKind,
    pub category: ErrorCategory,
    /// 1-based line of the edit in the *mutated* source.
    pub line: u32,
    /// Full text of the broken line (mutated source, trimmed).
    pub buggy_line: String,
    /// Full text of the original line (trimmed).
    pub fixed_line: String,
    /// Minimal wrong text (may be empty for deletions).
    pub buggy_snippet: String,
    /// Minimal right text.
    pub fixed_snippet: String,
    /// Exact multi-line window around the edit in the mutated source —
    /// suitable as the `original` half of an exact-match repair pair.
    pub buggy_window: String,
    /// The same window in the pristine source — the `patched` half.
    pub fixed_window: String,
    /// Human-style explanation, used as the oracle's "analysis".
    pub description: String,
}

/// A mutated benchmark instance.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationOutcome {
    pub mutated_src: String,
    pub ground_truth: GroundTruth,
}

/// One candidate text edit.
#[derive(Debug, Clone)]
struct Edit {
    span: Span,
    replacement: String,
    description: String,
}

/// Applies mutation operator `kind` to `src` with deterministic `seed`.
///
/// # Errors
///
/// As [`Prepared::new`] and [`Prepared::mutate`].
pub fn mutate(src: &str, kind: ErrorKind, seed: u64) -> Result<MutationOutcome, MutateError> {
    Prepared::new(src)?.mutate(kind, seed)
}

/// Operators that have at least one candidate site in `src` (before
/// validation). Used to build the Fig. 7 applicability matrix.
pub fn applicable_kinds(src: &str) -> Vec<ErrorKind> {
    Prepared::new(src).map(|p| p.applicable_kinds()).unwrap_or_default()
}

/// A source lexed and parsed once, to be mutated any number of times: a
/// dataset build prepares each golden design once.
#[derive(Debug)]
pub struct Prepared<'s> {
    src: &'s str,
    file: SourceFile,
    tokens: Vec<Token>,
}

impl<'s> Prepared<'s> {
    /// Lexes and parses `src`.
    ///
    /// # Errors
    ///
    /// [`MutateError::BadInput`] when `src` does not parse.
    pub fn new(src: &'s str) -> Result<Self, MutateError> {
        let (file, mut tokens) =
            parse_with_tokens(src).map_err(|e| MutateError::BadInput(e.to_string()))?;
        // Held for a whole dataset build: give back the capacity
        // `tokenize` reserves for its worst case.
        tokens.shrink_to_fit();
        Ok(Prepared { src, file, tokens })
    }

    /// Applies mutation operator `kind` with deterministic `seed`. A
    /// syntax mutant is guaranteed not to parse, a functional one to
    /// parse.
    ///
    /// # Errors
    ///
    /// [`MutateError::NoApplicableSite`] when the operator has nowhere
    /// to apply (or every candidate fails validation).
    pub fn mutate(&self, kind: ErrorKind, seed: u64) -> Result<MutationOutcome, MutateError> {
        let src = self.src;
        let mut candidates = collect_candidates(src, &self.file, &self.tokens, kind);
        if candidates.is_empty() {
            return Err(MutateError::NoApplicableSite(kind));
        }
        let mut rng =
            StdRng::seed_from_u64(seed ^ (kind as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        candidates.shuffle(&mut rng);
        for edit in candidates {
            let mutated = apply_edit(src, &edit);
            if mutated == src || parse(&mutated).is_ok() == kind.is_syntax() {
                continue;
            }
            let gt = ground_truth(src, &mutated, &edit, kind);
            return Ok(MutationOutcome { mutated_src: mutated, ground_truth: gt });
        }
        Err(MutateError::NoApplicableSite(kind))
    }

    /// Operators that have at least one candidate site (before
    /// validation).
    pub fn applicable_kinds(&self) -> Vec<ErrorKind> {
        ErrorKind::ALL
            .iter()
            .copied()
            .filter(|k| !collect_candidates(self.src, &self.file, &self.tokens, *k).is_empty())
            .collect()
    }
}

fn apply_edit(src: &str, edit: &Edit) -> String {
    let mut out = String::with_capacity(src.len() + 8);
    out.push_str(&src[..edit.span.start]);
    out.push_str(&edit.replacement);
    out.push_str(&src[edit.span.end..]);
    out
}

fn line_text(src: &str, line: u32) -> String {
    src.lines().nth((line - 1) as usize).unwrap_or("").trim().to_string()
}

fn ground_truth(src: &str, mutated: &str, edit: &Edit, kind: ErrorKind) -> GroundTruth {
    let line = LineMap::new(mutated).line(edit.span.start);
    let orig_line = LineMap::new(src).line(edit.span.start);
    let fixed_snippet = edit.span.text(src).to_string();
    // Exact-text windows spanning from the line before the edit through
    // the last edited line, in each version. These survive as
    // exact-match anchors even for pure deletions (e.g. a dropped
    // `end` leaves an empty line that alone could never anchor a patch).
    let buggy_window = window(mutated, edit.span.start, edit.span.start + edit.replacement.len());
    let fixed_window = window(src, edit.span.start, edit.span.end);
    GroundTruth {
        kind,
        category: kind.category(),
        line,
        buggy_line: line_text(mutated, line),
        fixed_line: line_text(src, orig_line),
        buggy_snippet: edit.replacement.clone(),
        fixed_snippet,
        buggy_window,
        fixed_window,
        description: edit.description.clone(),
    }
}

/// Extracts the exact text from the start of the line preceding `start`
/// through the end of the line containing the edit, without the final
/// newline.
fn window(text: &str, start: usize, end: usize) -> String {
    let map = LineMap::new(text);
    let start = start.min(text.len());
    // Last byte actually covered by the edit (for empty edits, `start`).
    let anchor_end = if end > start { (end - 1).min(text.len().saturating_sub(1)) } else { start };
    let first_line = map.line(start).saturating_sub(1).max(1);
    let last_line = map.line(anchor_end).max(first_line);
    let from = map.line_start(first_line).unwrap_or(0);
    let to = match map.line_start(last_line + 1) {
        Some(next) => next.saturating_sub(1), // exclude trailing '\n'
        None => text.len(),
    };
    text[from..to.max(from)].to_string()
}

// ----------------------------------------------------------------------
// Candidate collection
// ----------------------------------------------------------------------

fn collect_candidates(
    src: &str,
    file: &SourceFile,
    tokens: &[Token],
    kind: ErrorKind,
) -> Vec<Edit> {
    match kind {
        ErrorKind::MissingSemicolon => tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Semi)
            .map(|t| Edit {
                span: t.span(),
                replacement: String::new(),
                description: "a statement is missing its terminating ';'".into(),
            })
            .collect(),
        ErrorKind::MissingEnd => tokens
            .iter()
            .filter(|t| {
                matches!(
                    t.kind,
                    TokenKind::Keyword(Keyword::End) | TokenKind::Keyword(Keyword::Endcase)
                )
            })
            .map(|t| Edit {
                span: t.span(),
                replacement: String::new(),
                description: "a block is missing its closing 'end'".into(),
            })
            .collect(),
        ErrorKind::UnbalancedBlock => tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Keyword(Keyword::Begin))
            .map(|t| Edit {
                span: t.span(),
                replacement: String::new(),
                description: "a block is missing its opening 'begin'".into(),
            })
            .collect(),
        ErrorKind::OperatorTypo => tokens
            .iter()
            .filter_map(|t| {
                let rep = match t.kind {
                    TokenKind::LeAssign => "=<",
                    TokenKind::EqEq => "=!",
                    TokenKind::AndAnd => "&&&",
                    TokenKind::OrOr => "|||",
                    TokenKind::Ge => "=>",
                    _ => return None,
                };
                Some(Edit {
                    span: t.span(),
                    replacement: rep.to_string(),
                    description: format!(
                        "operator '{}' was mistyped as '{rep}'",
                        t.span().text(src)
                    ),
                })
            })
            .collect(),
        ErrorKind::KeywordTypo => tokens
            .iter()
            .filter_map(|t| {
                let TokenKind::Keyword(kw) = t.kind else { return None };
                let rep = match kw {
                    Keyword::Always => "alway",
                    Keyword::Assign => "asign",
                    Keyword::Module => "modul",
                    Keyword::Endmodule => "endmodul",
                    Keyword::Begin => "begn",
                    Keyword::Case => "caes",
                    Keyword::Endcase => "endcas",
                    Keyword::Wire => "wir",
                    Keyword::Posedge => "posege",
                    Keyword::Output => "outpu",
                    Keyword::Input => "inpu",
                    _ => return None,
                };
                Some(Edit {
                    span: t.span(),
                    replacement: rep.to_string(),
                    description: format!("keyword '{}' was misspelled as '{rep}'", kw.as_str()),
                })
            })
            .collect(),
        ErrorKind::MalformedLiteral => tokens
            .iter()
            .filter_map(|t| {
                if t.kind != TokenKind::Number {
                    return None;
                }
                let text = t.span().text(src);
                let apos = text.find('\'')?;
                let base_at = t.span().start + apos + 1;
                // Skip a signedness marker.
                let off = if src[base_at..].starts_with(['s', 'S']) { 1 } else { 0 };
                Some(Edit {
                    span: Span::new(base_at + off, base_at + off + 1),
                    replacement: "q".to_string(),
                    description: format!("literal '{text}' has an invalid base specifier"),
                })
            })
            .collect(),
        ErrorKind::DeclTypeMisuse => decl_type_sites(src, tokens),
        ErrorKind::BitwidthMisuse => bitwidth_sites(src, file),
        ErrorKind::OperatorMisuse => operator_sites(src, file, tokens),
        ErrorKind::ValueMisuse => value_sites(src, file, tokens),
        ErrorKind::VariableMisuse => variable_sites(src, file, tokens),
        ErrorKind::WrongJudgment => judgment_sites(src, tokens),
        ErrorKind::WrongSensitivity => sensitivity_sites(src, file),
        ErrorKind::PortMismatch => port_sites(src, file),
    }
}

/// `output reg` → `output` (drops the storage class).
fn decl_type_sites(src: &str, tokens: &[Token]) -> Vec<Edit> {
    let mut out = Vec::new();
    for pair in tokens.windows(2) {
        if pair[0].kind == TokenKind::Keyword(Keyword::Output)
            && pair[1].kind == TokenKind::Keyword(Keyword::Reg)
        {
            // Delete `reg` plus the following whitespace run.
            let mut end = pair[1].span().end;
            while src.as_bytes().get(end).is_some_and(|b| *b == b' ') {
                end += 1;
            }
            out.push(Edit {
                span: Span::new(pair[1].span().start, end),
                replacement: String::new(),
                description: "an 'output reg' port lost its reg storage class \
                              (type misuse in declaration)"
                    .into(),
            });
        }
    }
    out
}

/// Shrinks a declared `[msb:lsb]` range by one bit.
fn bitwidth_sites(src: &str, file: &SourceFile) -> Vec<Edit> {
    let mut out = Vec::new();
    let mut push_range = |r: &Range| {
        let (Expr::Number(m), Expr::Number(l)) = (&r.msb, &r.lsb) else { return };
        if m.xz != 0 || l.xz != 0 || m.value <= l.value + 1 {
            return;
        }
        let new_msb = m.value - 1;
        out.push(Edit {
            span: r.span,
            replacement: format!("[{}:{}]", new_msb, l.value),
            description: format!(
                "declared range {} was narrowed to [{new_msb}:{}] (bitwidth misuse)",
                r.span.text(src),
                l.value
            ),
        });
    };
    for module in &file.modules {
        for p in &module.ports {
            if let Some(r) = &p.range {
                push_range(r);
            }
        }
        for item in &module.items {
            if let Item::Net(d) = item {
                if let Some(r) = &d.range {
                    push_range(r);
                }
            }
        }
    }
    // Port ranges may be shared between the header and a body decl at
    // identical spans; dedupe.
    out.sort_by_key(|e| e.span.start);
    out.dedup_by_key(|e| e.span.start);
    out
}

/// Spans of every procedural/continuous assignment statement.
fn assignment_regions(file: &SourceFile) -> Vec<(Span, bool)> {
    let mut out = Vec::new();
    for module in &file.modules {
        for item in &module.items {
            match item {
                Item::Assign(a) => out.push((a.span, true)),
                Item::Always(a) => collect_assign_spans(&a.body, &mut out),
                Item::Initial(i) => collect_assign_spans(&i.body, &mut out),
                _ => {}
            }
        }
    }
    out
}

fn collect_assign_spans(stmt: &Stmt, out: &mut Vec<(Span, bool)>) {
    match stmt {
        Stmt::Block(b) => {
            for s in &b.stmts {
                collect_assign_spans(s, out);
            }
        }
        Stmt::Blocking(a) => out.push((a.span, true)),
        Stmt::NonBlocking(a) => out.push((a.span, false)),
        Stmt::If(i) => {
            collect_assign_spans(&i.then_branch, out);
            if let Some(e) = &i.else_branch {
                collect_assign_spans(e, out);
            }
        }
        Stmt::Case(c) => {
            for arm in &c.arms {
                collect_assign_spans(&arm.body, out);
            }
            if let Some(d) = &c.default {
                collect_assign_spans(d, out);
            }
        }
        Stmt::For(f) => collect_assign_spans(&f.body, out),
        _ => {}
    }
}

/// Swaps an arithmetic/bitwise operator inside an assignment.
fn operator_sites(src: &str, file: &SourceFile, tokens: &[Token]) -> Vec<Edit> {
    let regions = assignment_regions(file);
    let mut out = Vec::new();
    for (span, blocking) in &regions {
        let mut seen_assign_op = false;
        for t in tokens.iter().filter(|t| t.span().start >= span.start && t.span().end <= span.end)
        {
            // Skip the assignment operator itself.
            if !seen_assign_op {
                match t.kind {
                    TokenKind::Assign if *blocking => {
                        seen_assign_op = true;
                        continue;
                    }
                    TokenKind::LeAssign if !*blocking => {
                        seen_assign_op = true;
                        continue;
                    }
                    _ => continue,
                }
            }
            let rep = match t.kind {
                TokenKind::Plus => "-",
                TokenKind::Minus => "+",
                TokenKind::Amp => "|",
                TokenKind::Pipe => "&",
                TokenKind::Caret => "&",
                TokenKind::Shl => ">>",
                TokenKind::Shr => "<<",
                TokenKind::Star => "+",
                _ => continue,
            };
            out.push(Edit {
                span: t.span(),
                replacement: rep.to_string(),
                description: format!(
                    "operator '{}' should be used instead of '{rep}' (operator misuse)",
                    t.span().text(src)
                ),
            });
        }
    }
    out
}

/// Perturbs a literal value inside an assignment RHS.
fn value_sites(src: &str, file: &SourceFile, tokens: &[Token]) -> Vec<Edit> {
    let regions = assignment_regions(file);
    let mut out = Vec::new();
    for (span, _) in &regions {
        for t in tokens.iter().filter(|t| t.span().start >= span.start && t.span().end <= span.end)
        {
            let Some(n) = t.number(src) else { continue };
            if !n.digit_chars(src).all(|c| c.is_ascii_hexdigit()) {
                continue;
            }
            let text = t.span().text(src);
            let new_text = perturb_literal(text);
            if new_text == text {
                continue;
            }
            out.push(Edit {
                span: t.span(),
                replacement: new_text.clone(),
                description: format!(
                    "constant '{text}' was miswritten as '{new_text}' (value misuse)"
                ),
            });
        }
    }
    out
}

/// `8'd0` → `8'd1`, `4'hf` → `4'he`, plain `7` → `8` — a one-step
/// perturbation that stays lexically valid.
fn perturb_literal(text: &str) -> String {
    match text.rfind(['d', 'h', 'b', 'o', 'D', 'H', 'B', 'O', '\'']) {
        Some(pos) if text.contains('\'') => {
            let (head, digits) = text.split_at(pos + 1);
            let radix = match head.to_ascii_lowercase().chars().rev().find(|c| c.is_alphabetic()) {
                Some('h') => 16,
                Some('b') => 2,
                Some('o') => 8,
                _ => 10,
            };
            match u128::from_str_radix(&digits.replace('_', ""), radix) {
                Ok(v) => {
                    let nv = if v == 0 { 1 } else { v - 1 };
                    let rendered = match radix {
                        16 => format!("{nv:x}"),
                        2 => format!("{nv:b}"),
                        8 => format!("{nv:o}"),
                        _ => format!("{nv}"),
                    };
                    format!("{head}{rendered}")
                }
                Err(_) => text.to_string(),
            }
        }
        _ => match text.parse::<u128>() {
            Ok(v) => format!("{}", v + 1),
            Err(_) => text.to_string(),
        },
    }
}

/// Replaces an identifier in an assignment RHS with another declared
/// signal of the same width.
fn variable_sites(src: &str, file: &SourceFile, tokens: &[Token]) -> Vec<Edit> {
    // Declared name → width per module (flat, first module wins).
    let mut widths: Vec<(&str, Option<u32>)> = Vec::new();
    for module in &file.modules {
        for p in &module.ports {
            widths.push((module.name_of(p.name), range_width_of(&p.range)));
        }
        for item in &module.items {
            if let Item::Net(d) = item {
                for decl in &d.decls {
                    if decl.array.is_none() {
                        widths.push((module.name_of(decl.name), range_width_of(&d.range)));
                    }
                }
            }
        }
    }
    let regions = assignment_regions(file);
    let mut out = Vec::new();
    for (span, blocking) in &regions {
        let mut seen_assign_op = false;
        for t in tokens.iter().filter(|t| t.span().start >= span.start && t.span().end <= span.end)
        {
            if !seen_assign_op {
                match t.kind {
                    TokenKind::Assign if *blocking => seen_assign_op = true,
                    TokenKind::LeAssign if !*blocking => seen_assign_op = true,
                    _ => {}
                }
                continue;
            }
            if t.kind != TokenKind::Ident {
                continue;
            }
            let name = t.span().text(src);
            let Some((_, w)) = widths.iter().find(|(n, _)| *n == name) else { continue };
            // Deterministic partner: the next declared signal of the
            // same width (candidate order is then shuffled by seed).
            for (other, ow) in &widths {
                if *other != name && ow == w {
                    out.push(Edit {
                        span: t.span(),
                        replacement: other.to_string(),
                        description: format!(
                            "signal '{name}' was mistaken for '{other}' (variable name misuse)"
                        ),
                    });
                    break;
                }
            }
        }
    }
    out
}

fn range_width_of(range: &Option<Range>) -> Option<u32> {
    match range {
        None => Some(1),
        Some(r) => match (&r.msb, &r.lsb) {
            (Expr::Number(m), Expr::Number(l)) => Some((m.value.abs_diff(l.value)) as u32 + 1),
            _ => None,
        },
    }
}

/// Perturbs a comparison constant or flips a relational operator inside
/// `if (…)` / `for (…; cond; …)` conditions.
fn judgment_sites(src: &str, tokens: &[Token]) -> Vec<Edit> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_if = tokens[i].kind == TokenKind::Keyword(Keyword::If);
        let is_for = tokens[i].kind == TokenKind::Keyword(Keyword::For);
        if !(is_if || is_for) {
            i += 1;
            continue;
        }
        // Find the parenthesised region.
        let mut j = i + 1;
        while j < tokens.len() && tokens[j].kind != TokenKind::LParen {
            j += 1;
        }
        let mut depth = 0;
        let start = j;
        let mut end = j;
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::LParen => depth += 1,
                TokenKind::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        end = j;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        for t in &tokens[start..=end.min(tokens.len() - 1)] {
            match &t.kind {
                TokenKind::Number
                    if t.number(src)
                        .is_some_and(|n| n.digit_chars(src).all(|c| c.is_ascii_hexdigit())) =>
                {
                    let text = t.span().text(src);
                    let doubled = double_literal(text);
                    if doubled != text {
                        out.push(Edit {
                            span: t.span(),
                            replacement: doubled.clone(),
                            description: format!(
                                "condition constant '{text}' was miswritten as \
                                 '{doubled}' (wrong judgment value)"
                            ),
                        });
                    }
                }
                TokenKind::Lt => out.push(flip_edit(src, t, "<=")),
                TokenKind::LeAssign => out.push(flip_edit(src, t, "<")),
                TokenKind::Gt => out.push(flip_edit(src, t, ">=")),
                TokenKind::Ge => out.push(flip_edit(src, t, ">")),
                TokenKind::EqEq => out.push(flip_edit(src, t, "!=")),
                TokenKind::NotEq => out.push(flip_edit(src, t, "==")),
                _ => {}
            }
        }
        i = end.max(i) + 1;
    }
    out
}

fn flip_edit(src: &str, t: &Token, rep: &str) -> Edit {
    Edit {
        span: t.span(),
        replacement: rep.to_string(),
        description: format!(
            "comparison '{}' should not be '{rep}' (wrong judgment)",
            t.span().text(src)
        ),
    }
}

/// `7` → `15`-style: `v*2+1` keeps loop-bound mutations in the paper's
/// idiom (`i < 7` → `i < 15`).
fn double_literal(text: &str) -> String {
    match text.rfind(['d', 'h', 'b', 'o', 'D', 'H', 'B', 'O', '\'']) {
        Some(pos) if text.contains('\'') => {
            let (head, digits) = text.split_at(pos + 1);
            let radix = match head.to_ascii_lowercase().chars().rev().find(|c| c.is_alphabetic()) {
                Some('h') => 16,
                Some('b') => 2,
                Some('o') => 8,
                _ => 10,
            };
            match u128::from_str_radix(&digits.replace('_', ""), radix) {
                Ok(v) => {
                    let nv = v.wrapping_mul(2).wrapping_add(1) & 0xffff;
                    let rendered = match radix {
                        16 => format!("{nv:x}"),
                        2 => format!("{nv:b}"),
                        8 => format!("{nv:o}"),
                        _ => format!("{nv}"),
                    };
                    format!("{head}{rendered}")
                }
                Err(_) => text.to_string(),
            }
        }
        _ => match text.parse::<u128>() {
            Ok(v) => format!("{}", v * 2 + 1),
            Err(_) => text.to_string(),
        },
    }
}

/// Drops an item from a multi-entry sensitivity list or flips an edge.
fn sensitivity_sites(src: &str, file: &SourceFile) -> Vec<Edit> {
    let mut out = Vec::new();
    for module in &file.modules {
        for item in &module.items {
            let Item::Always(a) = item else { continue };
            let Sensitivity::List(items) = &a.sensitivity else { continue };
            // Drop the trailing item (with its `or` separator).
            if items.len() >= 2 {
                let prev = &items[items.len() - 2];
                let last = &items[items.len() - 1];
                out.push(Edit {
                    span: Span::new(prev.span.end, last.span.end),
                    replacement: String::new(),
                    description: format!(
                        "sensitivity list lost 'or {}' (wrong sensitivity)",
                        last.span.text(src)
                    ),
                });
            }
            // Flip posedge <-> negedge on each edge item.
            for s in items {
                let Some(edge) = s.edge else { continue };
                let text = s.span.text(src);
                let (from, to) = match edge {
                    Edge::Pos => ("posedge", "negedge"),
                    Edge::Neg => ("negedge", "posedge"),
                };
                if let Some(rel) = text.find(from) {
                    out.push(Edit {
                        span: Span::new(s.span.start + rel, s.span.start + rel + from.len()),
                        replacement: to.to_string(),
                        description: format!(
                            "'{from} {}' was written as '{to} {}' (wrong sensitivity)",
                            &file.names[s.signal], &file.names[s.signal]
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Swaps the expressions of two adjacent port connections, or truncates
/// a concatenation connection to its last element.
fn port_sites(src: &str, file: &SourceFile) -> Vec<Edit> {
    let mut out = Vec::new();
    for module in &file.modules {
        for item in &module.items {
            let Item::Instance(inst) = item else { continue };
            // Truncate `{…, x}` concat connections to `x` (the paper's
            // `.inbd({bdg, 1'b1})` → `.inbd(1'b1)` example).
            for conn in &inst.conns {
                if let Some(Expr::Concat(_)) = &conn.expr {
                    let text = conn.span.text(src);
                    let Some(open) = text.find('{') else { continue };
                    let Some(close) = text.rfind('}') else { continue };
                    let inner = &text[open + 1..close];
                    let Some(last) = inner.rsplit(',').next() else { continue };
                    out.push(Edit {
                        span: Span::new(conn.span.start + open, conn.span.start + close + 1),
                        replacement: last.trim().to_string(),
                        description: format!(
                            "connection '{}' lost part of its concatenation \
                             (port mismatch)",
                            text
                        ),
                    });
                }
            }
            // Swap adjacent connection expressions.
            for pair in inst.conns.windows(2) {
                let (Some(e0), Some(e1)) = (&pair[0].expr, &pair[1].expr) else { continue };
                let (Some(t0), Some(t1)) =
                    (conn_expr_span(src, &pair[0]), conn_expr_span(src, &pair[1]))
                else {
                    continue;
                };
                let s0 = t0.text(src).to_string();
                let s1 = t1.text(src).to_string();
                if s0 == s1 {
                    continue;
                }
                let _ = (e0, e1);
                // One combined edit spanning both connections.
                let whole = Span::new(pair[0].span.start, pair[1].span.end);
                let text = whole.text(src);
                let r0 = t0.start - whole.start..t0.end - whole.start;
                let r1 = t1.start - whole.start..t1.end - whole.start;
                let mut newt = String::new();
                newt.push_str(&text[..r0.start]);
                newt.push_str(&s1);
                newt.push_str(&text[r0.end..r1.start]);
                newt.push_str(&s0);
                newt.push_str(&text[r1.end..]);
                out.push(Edit {
                    span: whole,
                    replacement: newt,
                    description: format!(
                        "connections '{s0}' and '{s1}' were swapped (port mismatch)"
                    ),
                });
            }
        }
    }
    out
}

/// The span of the expression inside a connection (`.p(expr)` → `expr`).
fn conn_expr_span(src: &str, conn: &Connection) -> Option<Span> {
    let text = conn.span.text(src);
    if conn.port.is_some() {
        let open = text.find('(')?;
        let close = text.rfind(')')?;
        if open + 1 > close {
            return None;
        }
        Some(Span::new(conn.span.start + open + 1, conn.span.start + close))
    } else {
        Some(conn.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = "module c(input clk, input rst_n, input en, output reg [3:0] q);\n\
                           always @(posedge clk or negedge rst_n) begin\n\
                           if (!rst_n) q <= 4'd0;\n\
                           else if (en) q <= q + 4'd1;\n\
                           end\nendmodule\n";

    const HIER: &str =
        "module top(input [1:0] a, input [1:0] b, output [1:0] x, output [1:0] y);\n\
                        pass u0(.i(a), .o(x));\npass u1(.i(b), .o(y));\nendmodule\n\
                        module pass(input [1:0] i, output [1:0] o);\nassign o = i;\nendmodule\n";

    #[test]
    fn syntax_mutations_break_parse() {
        for kind in ErrorKind::ALL.into_iter().filter(ErrorKind::is_syntax) {
            match mutate(COUNTER, kind, 1) {
                Ok(out) => {
                    assert!(
                        parse(&out.mutated_src).is_err(),
                        "{kind}: mutated source still parses"
                    );
                    assert_eq!(out.ground_truth.kind, kind);
                    assert!(out.ground_truth.category.is_syntax());
                }
                Err(MutateError::NoApplicableSite(_)) => {
                    // MalformedLiteral etc. may not apply to all inputs.
                }
                Err(e) => panic!("{kind}: {e}"),
            }
        }
    }

    #[test]
    fn functional_mutations_still_parse() {
        for kind in ErrorKind::ALL.into_iter().filter(|k| !k.is_syntax()) {
            match mutate(COUNTER, kind, 2) {
                Ok(out) => {
                    assert!(parse(&out.mutated_src).is_ok(), "{kind}: broke parse");
                    assert_ne!(out.mutated_src, COUNTER, "{kind}: no-op mutation");
                    assert!(!out.ground_truth.category.is_syntax());
                }
                Err(MutateError::NoApplicableSite(_)) => {}
                Err(e) => panic!("{kind}: {e}"),
            }
        }
    }

    #[test]
    fn mutation_is_deterministic() {
        let a = mutate(COUNTER, ErrorKind::ValueMisuse, 42).unwrap();
        let b = mutate(COUNTER, ErrorKind::ValueMisuse, 42).unwrap();
        assert_eq!(a, b);
        let c = mutate(COUNTER, ErrorKind::ValueMisuse, 43).unwrap();
        // Different seeds usually pick different sites; at minimum the
        // result is still a valid mutation.
        assert!(parse(&c.mutated_src).is_ok());
    }

    #[test]
    fn missing_semicolon_ground_truth() {
        let out = mutate(COUNTER, ErrorKind::MissingSemicolon, 0).unwrap();
        assert_eq!(out.ground_truth.fixed_snippet, ";");
        assert!(out.ground_truth.buggy_snippet.is_empty());
        assert!(out.ground_truth.line >= 1);
    }

    #[test]
    fn decl_type_misuse_drops_reg() {
        let out = mutate(COUNTER, ErrorKind::DeclTypeMisuse, 0).unwrap();
        assert!(out.mutated_src.contains("output [3:0] q"), "{}", out.mutated_src);
        assert!(out.ground_truth.fixed_line.contains("output reg"));
    }

    #[test]
    fn bitwidth_misuse_shrinks_range() {
        let out = mutate(COUNTER, ErrorKind::BitwidthMisuse, 0).unwrap();
        assert!(out.mutated_src.contains("[2:0]"), "{}", out.mutated_src);
    }

    #[test]
    fn wrong_sensitivity_alters_edges() {
        let out = mutate(COUNTER, ErrorKind::WrongSensitivity, 5).unwrap();
        let s = &out.mutated_src;
        let dropped = !s.contains("negedge rst_n");
        let flipped = s.contains("negedge clk") || s.contains("posedge rst_n");
        assert!(dropped || flipped, "{s}");
    }

    #[test]
    fn wrong_judgment_perturbs_condition() {
        let src = "module f(input [7:0] d, output reg [7:0] q);\ninteger i;\n\
                   always @(*) begin\nq = 8'd0;\nfor (i = 0; i < 7; i = i + 1)\n\
                   q[i] = d[i];\nend\nendmodule\n";
        let out = mutate(src, ErrorKind::WrongJudgment, 3).unwrap();
        assert!(parse(&out.mutated_src).is_ok());
        assert_ne!(out.mutated_src, src);
    }

    #[test]
    fn port_mismatch_swaps_connections() {
        let out = mutate(HIER, ErrorKind::PortMismatch, 1).unwrap();
        assert!(parse(&out.mutated_src).is_ok());
        assert_ne!(out.mutated_src, HIER);
    }

    #[test]
    fn port_mismatch_truncates_concat() {
        let src = "module top(input a, output [1:0] y);\n\
                   sub u(.i({a, 1'b1}), .o(y));\nendmodule\n\
                   module sub(input [1:0] i, output [1:0] o);\nassign o = i;\nendmodule\n";
        // Try several seeds; at least one should pick the truncation.
        let mut truncated = false;
        for seed in 0..8 {
            if let Ok(out) = mutate(src, ErrorKind::PortMismatch, seed) {
                if out.mutated_src.contains(".i(1'b1)") {
                    truncated = true;
                    break;
                }
            }
        }
        assert!(truncated);
    }

    #[test]
    fn applicability_matrix() {
        let kinds = applicable_kinds(COUNTER);
        assert!(kinds.contains(&ErrorKind::MissingSemicolon));
        assert!(kinds.contains(&ErrorKind::WrongSensitivity));
        // No instances in COUNTER: port mismatch is not applicable.
        assert!(!kinds.contains(&ErrorKind::PortMismatch));
        let hier_kinds = applicable_kinds(HIER);
        assert!(hier_kinds.contains(&ErrorKind::PortMismatch));
    }

    #[test]
    fn no_site_error_for_missing_constructs() {
        let comb = "module inv(input a, output y);\nassign y = ~a;\nendmodule\n";
        assert!(matches!(
            mutate(comb, ErrorKind::WrongSensitivity, 0),
            Err(MutateError::NoApplicableSite(_))
        ));
    }

    #[test]
    fn bad_input_rejected() {
        assert!(matches!(
            mutate("not verilog", ErrorKind::MissingSemicolon, 0),
            Err(MutateError::BadInput(_))
        ));
    }

    #[test]
    fn perturb_literal_forms() {
        assert_eq!(perturb_literal("8'd0"), "8'd1");
        assert_eq!(perturb_literal("8'd5"), "8'd4");
        assert_eq!(perturb_literal("4'hf"), "4'he");
        assert_eq!(perturb_literal("7"), "8");
        assert_eq!(double_literal("7"), "15");
        assert_eq!(double_literal("4'd7"), "4'd15");
    }

    #[test]
    fn value_misuse_changes_rhs_constant() {
        let out = mutate(COUNTER, ErrorKind::ValueMisuse, 9).unwrap();
        assert!(parse(&out.mutated_src).is_ok());
        assert_ne!(out.mutated_src, COUNTER);
        assert!(!out.ground_truth.description.is_empty());
    }

    #[test]
    fn variable_misuse_uses_declared_signal() {
        let src = "module m(input [3:0] a, input [3:0] b, output [3:0] y);\n\
                   assign y = a;\nendmodule\n";
        let out = mutate(src, ErrorKind::VariableMisuse, 0).unwrap();
        assert!(out.mutated_src.contains("assign y = b") || out.mutated_src.contains("= y"));
    }
}
