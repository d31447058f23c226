//! Pretty-printer: renders an AST back to canonical Verilog text.
//!
//! Round-tripping `parse(print(ast))` yields an equal AST (modulo spans);
//! this property is exercised in the crate's proptest suite. The printer
//! is used by the "complete code" repair ablation and by the error
//! generator when a mutation cannot be expressed as a local text edit.

use crate::ast::*;
use crate::names::Names;
use crate::token::NumberBase;
use std::fmt::Write;

/// Renders a full source file.
pub fn print_source(file: &SourceFile) -> String {
    let mut out = String::new();
    for (i, m) in file.modules.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_module(&mut out, &file.names, m);
    }
    out
}

/// Renders a single module.
pub fn print_module_str(module: &Module) -> String {
    let mut out = String::new();
    print_module(&mut out, &module.names, module);
    out
}

/// Renders an expression whose identifiers are in `nm`.
pub fn print_expr(expr: &Expr, nm: &Names) -> String {
    let mut out = String::new();
    expr_into(&mut out, nm, expr, 0);
    out
}

/// Renders a statement at indent level 0; its identifiers are in `nm`.
pub fn print_stmt(stmt: &Stmt, nm: &Names) -> String {
    let mut out = String::new();
    stmt_into(&mut out, nm, stmt, 0);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_module(out: &mut String, nm: &Names, m: &Module) {
    let _ = write!(out, "module {}", &nm[m.name]);
    if m.ports.is_empty() {
        out.push_str(";\n");
    } else {
        out.push_str(" (\n");
        for (i, p) in m.ports.iter().enumerate() {
            indent(out, 1);
            let _ = write!(out, "{}", p.dir);
            if p.net == NetKind::Reg {
                out.push_str(" reg");
            }
            if p.signed {
                out.push_str(" signed");
            }
            if let Some(r) = &p.range {
                out.push(' ');
                range_into(out, nm, r);
            }
            let _ = write!(out, " {}", &nm[p.name]);
            if i + 1 < m.ports.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(");\n");
    }
    for item in &m.items {
        item_into(out, nm, item, 1);
    }
    out.push_str("endmodule\n");
}

fn range_into(out: &mut String, nm: &Names, r: &Range) {
    out.push('[');
    expr_into(out, nm, &r.msb, 0);
    out.push(':');
    expr_into(out, nm, &r.lsb, 0);
    out.push(']');
}

fn item_into(out: &mut String, nm: &Names, item: &Item, level: usize) {
    match item {
        Item::Net(d) => {
            // Skip storage declarations synthesised from `output reg`
            // body ports? No: printing them is harmless and keeps the
            // printer total; the parser tolerates re-declaration.
            indent(out, level);
            let _ = write!(out, "{}", d.kind);
            if d.signed {
                out.push_str(" signed");
            }
            if let Some(r) = &d.range {
                out.push(' ');
                range_into(out, nm, r);
            }
            for (i, decl) in d.decls.iter().enumerate() {
                out.push(if i == 0 { ' ' } else { ',' });
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&nm[decl.name]);
                if let Some(a) = &decl.array {
                    out.push(' ');
                    range_into(out, nm, a);
                }
                if let Some(init) = &decl.init {
                    out.push_str(" = ");
                    expr_into(out, nm, init, 0);
                }
            }
            out.push_str(";\n");
        }
        Item::Param(p) => {
            indent(out, level);
            out.push_str(if p.local { "localparam" } else { "parameter" });
            if let Some(r) = &p.range {
                out.push(' ');
                range_into(out, nm, r);
            }
            for (i, (name, value)) in p.params.iter().enumerate() {
                out.push(if i == 0 { ' ' } else { ',' });
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{} = ", &nm[*name]);
                expr_into(out, nm, value, 0);
            }
            out.push_str(";\n");
        }
        Item::Integer(d) => {
            indent(out, level);
            out.push_str("integer ");
            for (i, name) in d.names.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&nm[*name]);
            }
            out.push_str(";\n");
        }
        Item::Assign(a) => {
            indent(out, level);
            out.push_str("assign ");
            lvalue_into(out, nm, &a.lhs);
            out.push_str(" = ");
            expr_into(out, nm, &a.rhs, 0);
            out.push_str(";\n");
        }
        Item::Always(a) => {
            indent(out, level);
            out.push_str("always @(");
            match &a.sensitivity {
                Sensitivity::Star => out.push('*'),
                Sensitivity::List(items) => {
                    for (i, s) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" or ");
                        }
                        if let Some(e) = s.edge {
                            let _ = write!(out, "{e} ");
                        }
                        out.push_str(&nm[s.signal]);
                    }
                }
            }
            out.push_str(") ");
            stmt_tail(out, nm, &a.body, level);
        }
        Item::Initial(i) => {
            indent(out, level);
            out.push_str("initial ");
            stmt_tail(out, nm, &i.body, level);
        }
        Item::Instance(inst) => {
            indent(out, level);
            out.push_str(&nm[inst.module]);
            if !inst.params.is_empty() {
                out.push_str(" #(");
                conns_into(out, nm, &inst.params);
                out.push(')');
            }
            let _ = write!(out, " {} (", &nm[inst.name]);
            conns_into(out, nm, &inst.conns);
            out.push_str(");\n");
        }
    }
}

fn conns_into(out: &mut String, nm: &Names, conns: &[Connection]) {
    for (i, c) in conns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match (&c.port, &c.expr) {
            (Some(p), Some(e)) => {
                let _ = write!(out, ".{}(", &nm[*p]);
                expr_into(out, nm, e, 0);
                out.push(')');
            }
            (Some(p), None) => {
                let _ = write!(out, ".{}()", &nm[*p]);
            }
            (None, Some(e)) => expr_into(out, nm, e, 0),
            (None, None) => {}
        }
    }
}

/// Prints a statement that follows a header (`always @(…) `), writing the
/// body inline for blocks and on the same line otherwise.
fn stmt_tail(out: &mut String, nm: &Names, stmt: &Stmt, level: usize) {
    match stmt {
        Stmt::Block(_) => {
            stmt_into_inline(out, nm, stmt, level);
        }
        _ => {
            out.push('\n');
            stmt_into(out, nm, stmt, level + 1);
        }
    }
}

fn stmt_into(out: &mut String, nm: &Names, stmt: &Stmt, level: usize) {
    indent(out, level);
    stmt_into_inline(out, nm, stmt, level);
}

fn stmt_into_inline(out: &mut String, nm: &Names, stmt: &Stmt, level: usize) {
    match stmt {
        Stmt::Block(b) => {
            out.push_str("begin");
            if let Some(l) = &b.label {
                let _ = write!(out, " : {}", &nm[*l]);
            }
            out.push('\n');
            for s in &b.stmts {
                stmt_into(out, nm, s, level + 1);
            }
            indent(out, level);
            out.push_str("end\n");
        }
        Stmt::Blocking(a) => {
            lvalue_into(out, nm, &a.lhs);
            out.push_str(" = ");
            expr_into(out, nm, &a.rhs, 0);
            out.push_str(";\n");
        }
        Stmt::NonBlocking(a) => {
            lvalue_into(out, nm, &a.lhs);
            out.push_str(" <= ");
            expr_into(out, nm, &a.rhs, 0);
            out.push_str(";\n");
        }
        Stmt::If(i) => {
            out.push_str("if (");
            expr_into(out, nm, &i.cond, 0);
            out.push_str(") ");
            branch_into(out, nm, &i.then_branch, level);
            if let Some(e) = &i.else_branch {
                indent(out, level);
                out.push_str("else ");
                branch_into(out, nm, e, level);
            }
        }
        Stmt::Case(c) => {
            let _ = write!(out, "{} (", c.kind);
            expr_into(out, nm, &c.expr, 0);
            out.push_str(")\n");
            for arm in &c.arms {
                indent(out, level + 1);
                for (i, l) in arm.labels.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    expr_into(out, nm, l, 0);
                }
                out.push_str(": ");
                branch_into(out, nm, &arm.body, level + 1);
            }
            if let Some(d) = &c.default {
                indent(out, level + 1);
                out.push_str("default: ");
                branch_into(out, nm, d, level + 1);
            }
            indent(out, level);
            out.push_str("endcase\n");
        }
        Stmt::For(f) => {
            out.push_str("for (");
            lvalue_into(out, nm, &f.init.0);
            out.push_str(" = ");
            expr_into(out, nm, &f.init.1, 0);
            out.push_str("; ");
            expr_into(out, nm, &f.cond, 0);
            out.push_str("; ");
            lvalue_into(out, nm, &f.step.0);
            out.push_str(" = ");
            expr_into(out, nm, &f.step.1, 0);
            out.push_str(") ");
            branch_into(out, nm, &f.body, level);
        }
        Stmt::SysCall(s) => {
            out.push_str(&nm[s.name]);
            if !s.args.is_empty() {
                out.push('(');
                for (i, a) in s.args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    expr_into(out, nm, a, 0);
                }
                out.push(')');
            }
            out.push_str(";\n");
        }
        Stmt::Null(_) => out.push_str(";\n"),
    }
}

/// Prints a branch body: blocks inline, single statements on a new line.
fn branch_into(out: &mut String, nm: &Names, stmt: &Stmt, level: usize) {
    match stmt {
        Stmt::Block(_) => stmt_into_inline(out, nm, stmt, level),
        _ => {
            out.push('\n');
            stmt_into(out, nm, stmt, level + 1);
        }
    }
}

fn lvalue_into(out: &mut String, nm: &Names, lv: &LValue) {
    match lv {
        LValue::Ident(n, _) => out.push_str(&nm[*n]),
        LValue::Index(n, i, _) => {
            out.push_str(&nm[*n]);
            out.push('[');
            expr_into(out, nm, i, 0);
            out.push(']');
        }
        LValue::Part(n, m, l, _) => {
            out.push_str(&nm[*n]);
            out.push('[');
            expr_into(out, nm, m, 0);
            out.push(':');
            expr_into(out, nm, l, 0);
            out.push(']');
        }
        LValue::Concat(parts, _) => {
            out.push('{');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                lvalue_into(out, nm, p);
            }
            out.push('}');
        }
    }
}

fn number_into(out: &mut String, n: &Number) {
    match (n.width, n.base) {
        (None, NumberBase::Dec) if n.xz == 0 => {
            let _ = write!(out, "{}", n.value);
        }
        _ => {
            if let Some(w) = n.width {
                let _ = write!(out, "{w}");
            }
            out.push('\'');
            if n.signed {
                out.push('s');
            }
            out.push(n.base.letter());
            digits_into(out, n);
        }
    }
}

fn digits_into(out: &mut String, n: &Number) {
    let width = n.effective_width();
    let bits = n.base.bits_per_digit();
    if n.base == NumberBase::Dec {
        if n.xz == 0 {
            let _ = write!(out, "{}", n.value);
        } else if n.value & n.xz != 0 {
            out.push('z');
        } else {
            out.push('x');
        }
        return;
    }
    let ndigits = width.div_ceil(bits);
    let mut digits = Vec::with_capacity(ndigits as usize);
    for i in 0..ndigits {
        let shift = i * bits;
        let v = ((n.value >> shift) as u32) & ((1 << bits) - 1);
        let z = ((n.xz >> shift) as u32) & ((1 << bits) - 1);
        let ch = if z != 0 {
            // Mixed X/Z within one digit cannot occur from our parser;
            // render by the dominant flavour.
            if v & z == z {
                'z'
            } else {
                'x'
            }
        } else {
            char::from_digit(v, 16).unwrap_or('0')
        };
        digits.push(ch);
    }
    digits.reverse();
    // Strip redundant leading zeros but keep at least one digit.
    let text: String = digits.into_iter().collect();
    let trimmed = text.trim_start_matches('0');
    out.push_str(if trimmed.is_empty() { "0" } else { trimmed });
}

fn expr_into(out: &mut String, nm: &Names, expr: &Expr, parent_prec: u8) {
    match expr {
        Expr::Number(n) => number_into(out, n),
        Expr::Ident(n) => out.push_str(&nm[*n]),
        Expr::Unary(op, e) => {
            out.push_str(op.as_str());
            // Parenthesise compound operands for readability/correctness.
            match **e {
                Expr::Number(_) | Expr::Ident(_) | Expr::Index(_, _) | Expr::Part(_, _, _) => {
                    expr_into(out, nm, e, u8::MAX)
                }
                _ => {
                    out.push('(');
                    expr_into(out, nm, e, 0);
                    out.push(')');
                }
            }
        }
        Expr::Binary(op, a, b) => {
            let prec = op.precedence();
            let need_paren = prec < parent_prec;
            if need_paren {
                out.push('(');
            }
            expr_into(out, nm, a, prec);
            let _ = write!(out, " {} ", op.as_str());
            expr_into(out, nm, b, prec + 1);
            if need_paren {
                out.push(')');
            }
        }
        Expr::Ternary(c, t, e) => {
            let need_paren = parent_prec > 0;
            if need_paren {
                out.push('(');
            }
            expr_into(out, nm, c, 1);
            out.push_str(" ? ");
            expr_into(out, nm, t, 0);
            out.push_str(" : ");
            expr_into(out, nm, e, 0);
            if need_paren {
                out.push(')');
            }
        }
        Expr::Index(b, i) => {
            expr_into(out, nm, b, u8::MAX);
            out.push('[');
            expr_into(out, nm, i, 0);
            out.push(']');
        }
        Expr::Part(b, m, l) => {
            expr_into(out, nm, b, u8::MAX);
            out.push('[');
            expr_into(out, nm, m, 0);
            out.push(':');
            expr_into(out, nm, l, 0);
            out.push(']');
        }
        Expr::Concat(items) => {
            out.push('{');
            for (i, e) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr_into(out, nm, e, 0);
            }
            out.push('}');
        }
        Expr::Repeat(count, items) => {
            out.push('{');
            expr_into(out, nm, count, u8::MAX);
            out.push('{');
            for (i, e) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr_into(out, nm, e, 0);
            }
            out.push_str("}}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    fn strip_spans_eq(src: &str) {
        let ast1 = parse(src).unwrap();
        let printed = print_source(&ast1);
        let ast2 = parse(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n--- printed ---\n{printed}"));
        // Compare structure via a second print (spans differ between the
        // two parses, so direct AST equality does not hold).
        assert_eq!(printed, print_source(&ast2), "print not idempotent for:\n{src}");
    }

    #[test]
    fn round_trips_simple_module() {
        strip_spans_eq(
            "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
             assign y = a + b;\nendmodule\n",
        );
    }

    #[test]
    fn round_trips_sequential_module() {
        strip_spans_eq(
            "module c(input clk, input rst_n, output reg [3:0] q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
             if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\nend\nendmodule\n",
        );
    }

    #[test]
    fn round_trips_case_for_instance() {
        strip_spans_eq(
            "module top(input [1:0] s, input [7:0] d, output reg [7:0] q);\n\
             integer i;\nwire [7:0] w;\nsub u0(.a(d), .y(w));\n\
             always @(*) begin\ncase (s)\n2'b00: q = w;\n2'b01: q = d;\n\
             default: begin\nfor (i = 0; i < 8; i = i + 1) q[i] = d[7 - i];\nend\n\
             endcase\nend\nendmodule\n\
             module sub(input [7:0] a, output [7:0] y);\nassign y = ~a;\nendmodule\n",
        );
    }

    #[test]
    fn expr_precedence_preserved() {
        for src in [
            "a + b * c",
            "(a + b) * c",
            "a ? b : c",
            "(a ? b : c) + 1",
            "~(a & b) | c",
            "{a, b[3:0], 2'b01}",
            "{4{x}}",
            "a[i]",
            "a - (b - c)",
            "a - b - c",
            "(a == b) & c",
        ] {
            let mut names = Names::new();
            let e1 = parse_expr(src, &mut names).unwrap();
            let printed = print_expr(&e1, &names);
            let e2 = parse_expr(&printed, &mut names)
                .unwrap_or_else(|err| panic!("re-parse of `{printed}` failed: {err}"));
            assert_eq!(e1, e2, "round-trip changed `{src}` -> `{printed}`");
        }
    }

    #[test]
    fn numbers_render_canonically() {
        let names = Names::new();
        let print = |src| print_expr(&parse_expr(src, &mut Names::new()).unwrap(), &names);
        assert_eq!(print("8'hff"), "8'hff");
        assert_eq!(print("42"), "42");
        assert_eq!(print("4'b1010"), "4'b1010");
        assert_eq!(print("1'b0"), "1'b0");
        assert_eq!(print("4'bxxxx"), "4'bxxxx");
    }
}
