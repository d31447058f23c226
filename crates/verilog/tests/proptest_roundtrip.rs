//! Property tests: printer/parser round-trips and lexer totality over
//! generated inputs.
//!
//! Written as seeded randomised loops with a hand-rolled AST/string
//! generator (the workspace builds without the `proptest` crate). The
//! printer below prints exactly what the generators emit and panics on
//! any other node.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write;
use uvllm_verilog::ast::*;
use uvllm_verilog::token::NumberBase;
use uvllm_verilog::{parse, parse_expr, Names, Symbol};

/// The spelling of each operator `expr` generates.
const BINARY: [(BinaryOp, &str); 3] =
    [(BinaryOp::Add, "+"), (BinaryOp::BitXor, "^"), (BinaryOp::Lt, "<")];
const UNARY: [(UnaryOp, &str); 2] = [(UnaryOp::BitNot, "~"), (UnaryOp::LogNot, "!")];

fn spelling<T: Copy + PartialEq + std::fmt::Debug>(
    table: &[(T, &'static str)],
    op: T,
) -> &'static str {
    match table.iter().find(|(o, _)| *o == op) {
        Some((_, text)) => text,
        None => panic!("the generators emit no {op:?}"),
    }
}

/// Renders an expression whose identifiers are in `names`.
fn print_expr(e: &Expr, names: &Names) -> String {
    let mut out = String::new();
    expr_into(&mut out, names, e, 0);
    out
}

/// Writes `e`, in parentheses when it binds looser than `parent`: the
/// precedence its operator position needs, 0 at the top.
fn expr_into(out: &mut String, nm: &Names, e: &Expr, parent: u8) {
    match e {
        Expr::Number(Number {
            width: None,
            base: NumberBase::Dec,
            value,
            xz: 0,
            signed: false,
        }) => {
            let _ = write!(out, "{value}");
        }
        Expr::Number(Number {
            width: Some(w),
            base: NumberBase::Hex,
            value,
            xz: 0,
            signed: false,
        }) => {
            let _ = write!(out, "{w}'h{value:x}");
        }
        Expr::Ident(name) => out.push_str(&nm[*name]),
        Expr::Unary(op, a) => {
            out.push_str(spelling(&UNARY, *op));
            let wrap = !matches!(**a, Expr::Number(_) | Expr::Ident(_));
            out.push_str(if wrap { "(" } else { "" });
            expr_into(out, nm, a, 0);
            out.push_str(if wrap { ")" } else { "" });
        }
        Expr::Binary(op, operands) => {
            let [a, b] = &**operands;
            let prec = op.precedence();
            out.push_str(if prec < parent { "(" } else { "" });
            expr_into(out, nm, a, prec);
            let _ = write!(out, " {} ", spelling(&BINARY, *op));
            expr_into(out, nm, b, prec + 1);
            out.push_str(if prec < parent { ")" } else { "" });
        }
        Expr::Ternary(operands) => {
            let [c, t, f] = &**operands;
            out.push_str(if parent > 0 { "(" } else { "" });
            expr_into(out, nm, c, 1);
            out.push_str(" ? ");
            expr_into(out, nm, t, 0);
            out.push_str(" : ");
            expr_into(out, nm, f, 0);
            out.push_str(if parent > 0 { ")" } else { "" });
        }
        Expr::Concat(items) => {
            out.push('{');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { ", " } else { "" });
                expr_into(out, nm, item, 0);
            }
            out.push('}');
        }
        other => panic!("the generators emit no {other:?}"),
    }
}

/// Renders the one module shape `module_roundtrip` generates:
/// `module N(input [a:0] din, output [b:0] dout); assign dout = E; endmodule`.
fn print_source(file: &SourceFile) -> String {
    let nm = &file.names;
    let [m] = &file.modules[..] else { panic!("the generators emit one module") };
    let [Item::Assign(assign)] = &m.items[..] else {
        panic!("the generators emit one `assign`: {:?}", m.items)
    };
    let ContAssign { lhs: LValue::Ident(lhs, _), rhs, .. } = &**assign else {
        panic!("the generators assign to a name: {assign:?}")
    };
    let port = |p: &Port, dir: PortDir, word: &str| match p {
        Port { dir: d, net: NetKind::Wire, range: Some(r), signed: false, .. } if *d == dir => {
            format!(
                "{word} [{}:{}] {}",
                print_expr(&r.msb, nm),
                print_expr(&r.lsb, nm),
                &nm[p.name]
            )
        }
        other => panic!("the generators emit no port {other:?}"),
    };
    let [din, dout] = &m.ports[..] else { panic!("the generators emit two ports") };
    format!(
        "module {}({}, {});\nassign {} = {};\nendmodule\n",
        &nm[m.name],
        port(din, PortDir::Input, "input"),
        port(dout, PortDir::Output, "output"),
        &nm[*lhs],
        print_expr(rhs, nm),
    )
}

/// Random identifier that is never a keyword: `[a-z][a-z0-9_]{0,6}`.
fn ident(rng: &mut StdRng) -> String {
    loop {
        let len = rng.random_range(1..8usize);
        let mut s = String::new();
        s.push((b'a' + rng.random_range(0..26u32) as u8) as char);
        for _ in 1..len {
            let c = match rng.random_range(0..37u32) {
                0..=25 => (b'a' + rng.random_range(0..26u32) as u8) as char,
                26..=35 => (b'0' + rng.random_range(0..10u32) as u8) as char,
                _ => '_',
            };
            s.push(c);
        }
        if uvllm_verilog::token::Keyword::lookup(&s).is_none() {
            return s;
        }
    }
}

/// Random number literal (sized hex or unsized decimal).
fn number(rng: &mut StdRng) -> Expr {
    if rng.random::<bool>() {
        let w = rng.random_range(1..=32u32);
        let v = rng.random::<u64>();
        Expr::Number(Number::sized(
            w,
            uvllm_verilog::token::NumberBase::Hex,
            (v as u128) & ((1u128 << w) - 1),
        ))
    } else {
        Expr::number(rng.random_range(0..100_000u64) as u128)
    }
}

/// Random expression tree of bounded depth, its identifiers interned
/// into `names`.
fn expr(rng: &mut StdRng, names: &mut Names, depth: usize) -> Expr {
    if depth == 0 || rng.random_range(0..4u32) == 0 {
        return if rng.random::<bool>() {
            number(rng)
        } else {
            let name = ident(rng);
            Expr::Ident(names.intern(&name))
        };
    }
    match rng.random_range(0..7u32) {
        0 => Expr::Binary(
            BinaryOp::Add,
            Box::new([expr(rng, names, depth - 1), expr(rng, names, depth - 1)]),
        ),
        1 => Expr::Binary(
            BinaryOp::BitXor,
            Box::new([expr(rng, names, depth - 1), expr(rng, names, depth - 1)]),
        ),
        2 => Expr::Binary(
            BinaryOp::Lt,
            Box::new([expr(rng, names, depth - 1), expr(rng, names, depth - 1)]),
        ),
        3 => Expr::Ternary(Box::new([
            expr(rng, names, depth - 1),
            expr(rng, names, depth - 1),
            expr(rng, names, depth - 1),
        ])),
        4 => Expr::Unary(UnaryOp::BitNot, Box::new(expr(rng, names, depth - 1))),
        5 => Expr::Unary(UnaryOp::LogNot, Box::new(expr(rng, names, depth - 1))),
        _ => {
            let n = rng.random_range(1..4usize);
            Expr::Concat((0..n).map(|_| expr(rng, names, depth - 1)).collect())
        }
    }
}

/// Random printable-ish string drawn from `alphabet`.
fn random_text(rng: &mut StdRng, alphabet: &[char], max_len: usize) -> String {
    let len = rng.random_range(0..=max_len as u64) as usize;
    (0..len).map(|_| alphabet[rng.random_range(0..alphabet.len())]).collect()
}

/// ASCII printable + newline (the parser's natural input alphabet).
fn ascii_alphabet() -> Vec<char> {
    let mut v: Vec<char> = (b' '..=b'~').map(|b| b as char).collect();
    v.push('\n');
    v
}

/// Printable chars including some multi-byte UTF-8 (lexer totality).
fn unicode_alphabet() -> Vec<char> {
    let mut v = ascii_alphabet();
    v.extend(['é', 'Ω', '—', '≤', '𝄞', 'µ', '中']);
    v
}

/// print → parse is the identity on expression ASTs.
#[test]
fn expr_print_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xE19A);
    for _ in 0..256 {
        let mut names = Names::new();
        let e = expr(&mut rng, &mut names, 4);
        let printed = print_expr(&e, &names);
        let reparsed = parse_expr(&printed, &mut names)
            .unwrap_or_else(|err| panic!("`{printed}` failed to parse: {err}"));
        assert_eq!(reparsed, e, "printed: {printed}");
    }
}

/// The lexer never panics on arbitrary input (totality).
#[test]
fn lexer_is_total() {
    let mut rng = StdRng::seed_from_u64(0x7E7A);
    let alphabet = unicode_alphabet();
    for _ in 0..256 {
        let s = random_text(&mut rng, &alphabet, 200);
        let _ = uvllm_verilog::lexer::tokenize(&s);
    }
}

/// The parser never panics on arbitrary ASCII-ish input.
#[test]
fn parser_is_total() {
    let mut rng = StdRng::seed_from_u64(0xAA5C);
    let alphabet = ascii_alphabet();
    for _ in 0..256 {
        let s = random_text(&mut rng, &alphabet, 300);
        let _ = parse(&s);
    }
}

/// Simple generated modules round-trip through print_source.
#[test]
fn module_roundtrip() {
    fn rename(e: &Expr, to: Symbol) -> Expr {
        match e {
            Expr::Ident(_) => Expr::Ident(to),
            Expr::Number(n) => Expr::Number(n.clone()),
            Expr::Unary(op, a) => Expr::Unary(*op, Box::new(rename(a, to))),
            Expr::Binary(op, operands) => {
                Expr::Binary(*op, Box::new(operands.each_ref().map(|e| rename(e, to))))
            }
            Expr::Ternary(operands) => {
                Expr::Ternary(Box::new(operands.each_ref().map(|e| rename(e, to))))
            }
            Expr::Concat(items) => Expr::Concat(items.iter().map(|i| rename(i, to)).collect()),
            other => other.clone(),
        }
    }
    let mut rng = StdRng::seed_from_u64(0x30D0);
    for _ in 0..128 {
        let name = ident(&mut rng);
        if name == "din" || name == "dout" {
            continue;
        }
        let in_w = rng.random_range(1..16u32);
        let out_w = rng.random_range(1..16u32);
        // Restrict the RHS to declared identifiers by renaming all
        // identifiers to the input port.
        let mut names = Names::new();
        let din = names.intern("din");
        let rhs = rename(&expr(&mut rng, &mut names, 4), din);
        let src = format!(
            "module {name}(input [{0}:0] din, output [{1}:0] dout);\nassign dout = {2};\nendmodule\n",
            in_w - 1,
            out_w - 1,
            print_expr(&rhs, &names),
        );
        let ast1 = parse(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let printed = print_source(&ast1);
        let ast2 = parse(&printed).unwrap_or_else(|e| panic!("{printed}\n{e}"));
        assert_eq!(print_source(&ast2), printed, "print not idempotent");
    }
}

/// Spans reported by the lexer always slice validly into the input.
#[test]
fn token_spans_are_valid() {
    let mut rng = StdRng::seed_from_u64(0x59A7);
    let alphabet = unicode_alphabet();
    for _ in 0..256 {
        let s = random_text(&mut rng, &alphabet, 200);
        if let Ok(tokens) = uvllm_verilog::lexer::tokenize(&s) {
            for t in tokens.iter().map(|t| t.span()) {
                assert!(t.end <= s.len());
                assert!(t.start <= t.end);
                // Spans must lie on char boundaries.
                assert!(s.is_char_boundary(t.start));
                assert!(s.is_char_boundary(t.end));
            }
        }
    }
}
