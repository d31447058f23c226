//! AST walkers: a read-only [`Visitor`] and the `walk_*` functions its
//! default methods recurse through, used by the linter.

use crate::ast::*;

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
                for l in arm.labels.iter() {
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
        Expr::Binary(_, operands) | Expr::Index(operands) => {
            operands.iter().for_each(|e| v.visit_expr(e))
        }
        Expr::Ternary(operands) | Expr::Part(operands) => {
            operands.iter().for_each(|e| v.visit_expr(e))
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
