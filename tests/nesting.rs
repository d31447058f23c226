//! Nesting is bounded: input that nests expressions or statements past
//! [`MAX_NESTING`] is a typed syntax error, not a stack overflow, even on
//! the 2 MB stack of a campaign pool thread; a text exactly at the bound
//! still parses, lints, elaborates and simulates there. That the bound
//! sits above every text of the default corpus is `tests/front_end.rs`'s
//! to check: a `TooDeep` there would move its outcome counts.

use uvllm_sim::{Logic, Simulator};
use uvllm_verilog::parser::MAX_NESTING;
use uvllm_verilog::SyntaxErrorKind;

/// The stack a campaign pool thread gets.
const POOL_STACK: usize = 2 << 20;

fn on_pool_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new().stack_size(POOL_STACK).spawn(f).unwrap().join().unwrap()
}

/// `m(a) -> y` with `body` as its only item.
fn module(body: &str) -> String {
    format!("module m(input a, output reg y);\n{body}\nendmodule\n")
}

/// `levels` parentheses around the right-hand side.
fn parens(levels: usize) -> String {
    module(&format!("always @(*) y = {}a{};", "(".repeat(levels), ")".repeat(levels)))
}

/// `levels` unary `~` in front of the right-hand side.
fn tildes(levels: usize) -> String {
    module(&format!("always @(*) y = {}a;", "~".repeat(levels)))
}

/// An assignment inside `levels` nested `begin`s.
fn begins(levels: usize) -> String {
    module(&format!("always @(*) {}y = a;{}", "begin ".repeat(levels), " end".repeat(levels)))
}

/// An `if` followed by `levels - 1` `else if` arms.
fn else_ifs(levels: usize) -> String {
    module(&format!("always @(*) if (a) y = a;{}", " else if (a) y = a;".repeat(levels - 1)))
}

/// The deepest level count of each shape that parses: the outer
/// statement and the innermost assignment's target or right-hand side
/// take the two levels the shape does not.
const AT_BOUND: usize = MAX_NESTING - 2;

/// A text nesting its construct the given number of levels.
type Shape = fn(usize) -> String;

/// The five shapes. `y` reads `a` through each (an even number of `~`
/// at the bound).
const SHAPES: [(&str, Shape); 5] = [
    ("parentheses", parens),
    ("unary ~", tildes),
    ("nested begin", begins),
    ("else if", else_ifs),
    ("flat & chain", |n| module(&format!("always @(*) y = a{};", " & a".repeat(n)))),
];

#[test]
fn deep_nesting_is_a_typed_error_on_a_pool_stack() {
    for (name, shape) in SHAPES {
        for levels in [AT_BOUND + 1, 100_000] {
            let src = shape(levels);
            let err = on_pool_stack(move || uvllm_verilog::parse(&src).unwrap_err());
            assert_eq!(err.kind, SyntaxErrorKind::TooDeep { limit: MAX_NESTING }, "{name}");
            assert_eq!(
                err.message,
                format!("syntax error, nesting deeper than {MAX_NESTING} levels"),
                "{name}"
            );
        }
    }
}

#[test]
fn a_text_at_the_bound_parses_lints_elaborates_and_runs_on_a_pool_stack() {
    for (name, shape) in SHAPES {
        let src = shape(AT_BOUND);
        let y = on_pool_stack(move || {
            uvllm_verilog::parse(&src).unwrap_or_else(|e| panic!("{e}"));
            let report = uvllm_lint::lint(&src);
            assert!(report.errors().is_empty(), "{:?}", report.errors());
            let design = uvllm_sim::elaborate_source(&src, "m").unwrap();
            let (a, y) = (design.signal_id("a").unwrap(), design.signal_id("y").unwrap());
            let mut sim = Simulator::from_arc(design).unwrap();
            sim.poke(a, Logic::bit(true)).unwrap();
            sim.settle().unwrap();
            sim.peek(y).to_u128()
        });
        assert_eq!(y, Some(1), "{name}");
    }
}
