//! AST walkers: a read-only [`Visitor`] and helpers for collecting
//! assignments and references, used by the linter and the DFG builder.

use crate::ast::*;
use crate::names::Symbol;

/// A read-only visitor over a module's behavioural constructs.
///
/// Default method bodies recurse, so implementors override only the hooks
/// they care about and call the free `walk_*` functions to continue.
pub trait Visitor {
    fn visit_item(&mut self, item: &Item) {
        walk_item(self, item);
    }
    fn visit_stmt(&mut self, stmt: &Stmt) {
        walk_stmt(self, stmt);
    }
    fn visit_expr(&mut self, expr: &Expr) {
        walk_expr(self, expr);
    }
    fn visit_lvalue(&mut self, lv: &LValue) {
        walk_lvalue(self, lv);
    }
}

/// Recurses into an item's children.
pub fn walk_item<V: Visitor + ?Sized>(v: &mut V, item: &Item) {
    match item {
        Item::Net(d) => {
            for decl in &d.decls {
                if let Some(init) = &decl.init {
                    v.visit_expr(init);
                }
            }
        }
        Item::Param(p) => {
            for (_, value) in &p.params {
                v.visit_expr(value);
            }
        }
        Item::Integer(_) => {}
        Item::Assign(a) => {
            v.visit_lvalue(&a.lhs);
            v.visit_expr(&a.rhs);
        }
        Item::Always(a) => v.visit_stmt(&a.body),
        Item::Initial(i) => v.visit_stmt(&i.body),
        Item::Instance(inst) => {
            for c in inst.params.iter().chain(&inst.conns) {
                if let Some(e) = &c.expr {
                    v.visit_expr(e);
                }
            }
        }
    }
}

/// Recurses into a statement's children.
pub fn walk_stmt<V: Visitor + ?Sized>(v: &mut V, stmt: &Stmt) {
    match stmt {
        Stmt::Block(b) => {
            for s in &b.stmts {
                v.visit_stmt(s);
            }
        }
        Stmt::Blocking(a) | Stmt::NonBlocking(a) => {
            v.visit_lvalue(&a.lhs);
            v.visit_expr(&a.rhs);
        }
        Stmt::If(i) => {
            v.visit_expr(&i.cond);
            v.visit_stmt(&i.then_branch);
            if let Some(e) = &i.else_branch {
                v.visit_stmt(e);
            }
        }
        Stmt::Case(c) => {
            v.visit_expr(&c.expr);
            for arm in &c.arms {
                for l in &arm.labels {
                    v.visit_expr(l);
                }
                v.visit_stmt(&arm.body);
            }
            if let Some(d) = &c.default {
                v.visit_stmt(d);
            }
        }
        Stmt::For(f) => {
            v.visit_lvalue(&f.init.0);
            v.visit_expr(&f.init.1);
            v.visit_expr(&f.cond);
            v.visit_lvalue(&f.step.0);
            v.visit_expr(&f.step.1);
            v.visit_stmt(&f.body);
        }
        Stmt::SysCall(s) => {
            for a in &s.args {
                v.visit_expr(a);
            }
        }
        Stmt::Null(_) => {}
    }
}

/// Recurses into an expression's children.
pub fn walk_expr<V: Visitor + ?Sized>(v: &mut V, expr: &Expr) {
    match expr {
        Expr::Number(_) | Expr::Ident(_) => {}
        Expr::Unary(_, e) => v.visit_expr(e),
        Expr::Binary(_, a, b) => {
            v.visit_expr(a);
            v.visit_expr(b);
        }
        Expr::Ternary(c, t, e) => {
            v.visit_expr(c);
            v.visit_expr(t);
            v.visit_expr(e);
        }
        Expr::Index(b, i) => {
            v.visit_expr(b);
            v.visit_expr(i);
        }
        Expr::Part(b, m, l) => {
            v.visit_expr(b);
            v.visit_expr(m);
            v.visit_expr(l);
        }
        Expr::Concat(es) => {
            for e in es {
                v.visit_expr(e);
            }
        }
        Expr::Repeat(c, es) => {
            v.visit_expr(c);
            for e in es {
                v.visit_expr(e);
            }
        }
    }
}

/// Recurses into index expressions inside an lvalue.
pub fn walk_lvalue<V: Visitor + ?Sized>(v: &mut V, lv: &LValue) {
    match lv {
        LValue::Ident(_, _) => {}
        LValue::Index(_, i, _) => v.visit_expr(i),
        LValue::Part(_, m, l, _) => {
            v.visit_expr(m);
            v.visit_expr(l);
        }
        LValue::Concat(parts, _) => {
            for p in parts {
                v.visit_lvalue(p);
            }
        }
    }
}

/// Collects every signal name assigned anywhere in a module, paired with
/// whether the write happens in an edge-triggered block.
pub fn assigned_signals(module: &Module) -> Vec<(Symbol, bool)> {
    let mut out = Vec::new();
    for item in &module.items {
        match item {
            Item::Assign(a) => {
                for n in a.lhs.base_names() {
                    out.push((n, false));
                }
            }
            Item::Always(a) => {
                let seq = a.sensitivity.is_edge_triggered();
                collect_stmt_writes(&a.body, seq, &mut out);
            }
            Item::Initial(i) => collect_stmt_writes(&i.body, false, &mut out),
            _ => {}
        }
    }
    out
}

fn collect_stmt_writes(stmt: &Stmt, seq: bool, out: &mut Vec<(Symbol, bool)>) {
    struct W<'a> {
        seq: bool,
        out: &'a mut Vec<(Symbol, bool)>,
    }
    impl Visitor for W<'_> {
        fn visit_stmt(&mut self, stmt: &Stmt) {
            if let Stmt::Blocking(a) | Stmt::NonBlocking(a) = stmt {
                for n in a.lhs.base_names() {
                    self.out.push((n, self.seq));
                }
            }
            walk_stmt(self, stmt);
        }
    }
    let mut w = W { seq, out };
    w.visit_stmt(stmt);
}

/// Collects every identifier read anywhere in a module (not written).
pub fn referenced_signals(module: &Module) -> Vec<Symbol> {
    struct R {
        out: Vec<Symbol>,
    }
    impl Visitor for R {
        fn visit_expr(&mut self, expr: &Expr) {
            if let Expr::Ident(n) = expr {
                self.out.push(*n);
            }
            walk_expr(self, expr);
        }
    }
    let mut r = R { out: Vec::new() };
    for item in &module.items {
        r.visit_item(item);
    }
    r.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn collects_writes_with_kind() {
        let src = "module m(input clk, input a, output reg q, output w);\n\
                   assign w = a;\nalways @(posedge clk) q <= a;\nendmodule\n";
        let file = parse(src).unwrap();
        let m = file.top().unwrap();
        let writes: Vec<(&str, bool)> =
            assigned_signals(m).into_iter().map(|(n, seq)| (m.name_of(n), seq)).collect();
        assert!(writes.contains(&("w", false)));
        assert!(writes.contains(&("q", true)));
    }

    #[test]
    fn collects_reads() {
        let src = "module m(input a, input b, output y);\nassign y = a ? b : 1'b0;\nendmodule\n";
        let file = parse(src).unwrap();
        let m = file.top().unwrap();
        let reads: Vec<&str> = referenced_signals(m).into_iter().map(|n| m.name_of(n)).collect();
        assert!(reads.contains(&"a"));
        assert!(reads.contains(&"b"));
    }
}
