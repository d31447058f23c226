//! # uvllm-verilog
//!
//! Verilog HDL frontend for the UVLLM framework: lexer, recursive-descent
//! parser, abstract syntax tree and visitors.
//!
//! The supported subset covers the synthesizable behavioural Verilog used
//! by the UVLLM benchmark designs: modules with ANSI or non-ANSI ports,
//! parameters, `wire`/`reg`/`integer` declarations (including memories),
//! continuous assignments, `always`/`initial` blocks with full
//! statement forms (`begin/end`, `if`, `case/casez/casex`, bounded `for`),
//! module instantiation, and the IEEE 1364 expression operators with
//! four-state sized literals.
//!
//! Every token, statement and item records its source [`span::Span`], so
//! downstream tools can render compiler-style diagnostics and perform
//! text-surgical rewrites — both are load-bearing for the UVLLM pipeline:
//! repairs are exchanged as `(original, patched)` text snippets.
//!
//! ## Example
//!
//! ```rust
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use uvllm_verilog::{parse, Item};
//!
//! let src = "module inv(input a, output y);\nassign y = ~a;\nendmodule\n";
//! let file = parse(src)?;
//! let top = file.top().unwrap();
//! assert_eq!(top.name_of(top.name), "inv");
//! let outputs: Vec<&str> = top.outputs().map(|p| top.name_of(p.name)).collect();
//! assert_eq!(outputs, ["y"]);
//! assert!(top.port("a").is_some());
//! assert!(matches!(top.items[..], [Item::Assign(_)]));
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod names;
pub mod parser;
pub mod span;
pub mod token;
pub mod visit;

pub use ast::{Expr, Item, LValue, List, Module, SourceFile, Stmt};
pub use error::{SyntaxError, SyntaxErrorKind};
pub use names::{Names, Symbol};
pub use parser::{parse, parse_expr, parse_with_tokens};
pub use span::{LineMap, Span};
