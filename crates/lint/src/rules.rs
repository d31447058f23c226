//! Lint passes over the AST.

use crate::diag::{Diagnostic, LintCode, LintReport};
use std::collections::{HashMap, HashSet};
use uvllm_verilog::ast::*;
use uvllm_verilog::lexer::tokenize;
use uvllm_verilog::span::Span;
use uvllm_verilog::token::TokenKind;
use uvllm_verilog::visit::{walk_expr, Visitor};
use uvllm_verilog::{parse, SourceFile, Symbol, SyntaxError};

/// Lints `src`, returning every finding.
///
/// A lex/parse failure produces a single [`LintCode::Syntax`] error (the
/// file cannot be analysed further), mirroring how a real compiler stops
/// at the first syntax error.
pub fn lint(src: &str) -> LintReport {
    lint_parsed(src, parse(src).as_ref())
}

/// [`lint`] of `src` from `parsed`, its parse.
pub fn lint_parsed(src: &str, parsed: Result<&SourceFile, &SyntaxError>) -> LintReport {
    let mut report = LintReport::default();
    match parsed {
        Ok(file) => file.modules.iter().for_each(|m| lint_module(src, file, m, &mut report)),
        Err(e) => {
            report.diagnostics.push(Diagnostic::error(LintCode::Syntax, e.span, e.message.clone()))
        }
    }
    report
}

/// Declared-name table for one module.
struct Symbols {
    /// name → declared width (None when unknown).
    widths: HashMap<Symbol, Option<u32>>,
    params: HashSet<Symbol>,
    /// Names with `reg`/`integer` storage (procedurally assignable).
    regs: HashSet<Symbol>,
}

impl Symbols {
    fn build(module: &Module) -> Self {
        let mut widths = HashMap::new();
        let mut params = HashSet::new();
        let mut regs = HashSet::new();
        for p in &module.ports {
            widths.insert(p.name, range_width(&p.range));
            if p.net == NetKind::Reg {
                regs.insert(p.name);
            }
        }
        for item in &module.items {
            match item {
                Item::Net(d) => {
                    for decl in &d.decls {
                        widths.entry(decl.name).or_insert_with(|| range_width(&d.range));
                        if d.kind == NetKind::Reg {
                            regs.insert(decl.name);
                        }
                    }
                }
                Item::Integer(d) => {
                    for &n in &d.names {
                        widths.insert(n, Some(32));
                        regs.insert(n);
                    }
                }
                Item::Param(p) => {
                    for &(n, _) in &p.params {
                        widths.insert(n, Some(32));
                        params.insert(n);
                    }
                }
                _ => {}
            }
        }
        Symbols { widths, params, regs }
    }

    fn contains(&self, name: Symbol) -> bool {
        self.widths.contains_key(&name)
    }

    fn width(&self, name: Symbol) -> Option<u32> {
        self.widths.get(&name).copied().flatten()
    }
}

fn range_width(range: &Option<Range>) -> Option<u32> {
    match range {
        None => Some(1),
        Some(r) => match (lit_value(&r.msb), lit_value(&r.lsb)) {
            (Some(m), Some(l)) => Some(m.abs_diff(l) as u32 + 1),
            _ => None,
        },
    }
}

fn lit_value(e: &Expr) -> Option<i64> {
    match e {
        Expr::Number(n) if n.xz == 0 => Some(n.value as i64),
        Expr::Unary(UnaryOp::Neg, inner) => lit_value(inner).map(|v| -v),
        Expr::Binary(op, operands) => {
            let [a, b] = &**operands;
            let x = lit_value(a)?;
            let y = lit_value(b)?;
            Some(match op {
                BinaryOp::Add => x + y,
                BinaryOp::Sub => x - y,
                BinaryOp::Mul => x * y,
                _ => return None,
            })
        }
        _ => None,
    }
}

fn lint_module(src: &str, file: &SourceFile, module: &Module, report: &mut LintReport) {
    let symbols = Symbols::build(module);
    check_undeclared(module, &symbols, report);
    check_proc_wire(module, &symbols, report);
    check_instances(file, module, &symbols, report);
    check_assign_kinds(src, module, report);
    check_width_trunc(module, &symbols, report);
    check_missing_sens(src, module, report);
    check_case_completeness(module, &symbols, report);
    check_drivers(module, report);
    check_latches(module, report);
    check_unused(module, &symbols, report);
}

// ----------------------------------------------------------------------
// Undeclared identifiers
// ----------------------------------------------------------------------

fn check_undeclared(module: &Module, symbols: &Symbols, report: &mut LintReport) {
    struct U<'a> {
        symbols: &'a Symbols,
        loop_vars: HashSet<Symbol>,
        found: Vec<(Symbol, Span)>,
        current_span: Span,
    }
    impl Visitor for U<'_> {
        fn visit_stmt(&mut self, stmt: &Stmt) {
            let prev = self.current_span;
            self.current_span = stmt.span();
            if let Stmt::For(f) = stmt {
                // For-loop variables may be implicitly used even when the
                // `integer` declaration was dropped by a mutation; they
                // are still reported (Verilator does too), so no special
                // casing beyond tracking them once.
                for n in f.init.0.base_names() {
                    self.loop_vars.insert(n);
                }
            }
            uvllm_verilog::visit::walk_stmt(self, stmt);
            self.current_span = prev;
        }
        fn visit_expr(&mut self, expr: &Expr) {
            if let Expr::Ident(name) = expr {
                if !self.symbols.contains(*name) {
                    self.found.push((*name, self.current_span));
                }
            }
            walk_expr(self, expr);
        }
        fn visit_lvalue(&mut self, lv: &LValue) {
            for name in lv.base_names() {
                if !self.symbols.contains(name) {
                    self.found.push((name, lv.span()));
                }
            }
            uvllm_verilog::visit::walk_lvalue(self, lv);
        }
    }
    let mut u =
        U { symbols, loop_vars: HashSet::new(), found: Vec::new(), current_span: module.span };
    for item in &module.items {
        // Instance connections reference parent-scope signals; port
        // names themselves are checked separately.
        u.current_span = item.span();
        u.visit_item(item);
    }
    // Sensitivity lists.
    for item in &module.items {
        if let Item::Always(a) = item {
            if let Sensitivity::List(items) = &a.sensitivity {
                for s in items {
                    if !symbols.contains(s.signal) {
                        u.found.push((s.signal, s.span));
                    }
                }
            }
        }
    }
    let mut seen = HashSet::new();
    for (name, span) in u.found {
        if seen.insert(name) {
            report.diagnostics.push(Diagnostic::error(
                LintCode::Undeclared,
                span,
                format!("signal '{}' is used but not declared", module.name_of(name)),
            ));
        }
    }
}

// ----------------------------------------------------------------------
// Procedural assignment to nets
// ----------------------------------------------------------------------

fn check_proc_wire(module: &Module, symbols: &Symbols, report: &mut LintReport) {
    struct P<'a> {
        symbols: &'a Symbols,
        module: &'a Module,
        report: &'a mut LintReport,
    }
    impl Visitor for P<'_> {
        fn visit_stmt(&mut self, stmt: &Stmt) {
            if let Stmt::Blocking(a) | Stmt::NonBlocking(a) = stmt {
                for name in a.lhs.base_names() {
                    if self.symbols.contains(name) && !self.symbols.regs.contains(&name) {
                        self.report.diagnostics.push(Diagnostic::error(
                            LintCode::ProcWire,
                            a.span,
                            format!(
                                "procedural assignment to wire '{}'; \
                                 declare it as reg",
                                self.module.name_of(name)
                            ),
                        ));
                    }
                }
            }
            if let Stmt::For(f) = stmt {
                // Loop variables are handled by the integer declaration
                // check; skip the init/step writes here if declared.
                let _ = f;
            }
            uvllm_verilog::visit::walk_stmt(self, stmt);
        }
    }
    let mut p = P { symbols, module, report };
    for item in &module.items {
        match item {
            Item::Always(a) => p.visit_stmt(&a.body),
            Item::Initial(i) => p.visit_stmt(&i.body),
            _ => {}
        }
    }
}

// ----------------------------------------------------------------------
// Instances
// ----------------------------------------------------------------------

fn check_instances(file: &SourceFile, module: &Module, symbols: &Symbols, report: &mut LintReport) {
    for item in &module.items {
        let Item::Instance(inst) = item else { continue };
        let module_name = module.name_of(inst.module);
        let Some(child) = file.module_named(inst.module) else {
            report.diagnostics.push(Diagnostic::error(
                LintCode::UnknownModule,
                inst.span,
                format!("cannot find module '{module_name}'"),
            ));
            continue;
        };
        if inst.conns.iter().all(|c| c.port.is_none()) && inst.conns.len() > child.ports.len() {
            report.diagnostics.push(Diagnostic::error(
                LintCode::PortCount,
                inst.span,
                format!(
                    "instance '{}' has {} connections but '{module_name}' has {} ports",
                    module.name_of(inst.name),
                    inst.conns.len(),
                    child.ports.len()
                ),
            ));
        }
        for (idx, conn) in inst.conns.iter().enumerate() {
            let port = match conn.port {
                Some(name) => match child.port_named(name) {
                    Some(p) => p,
                    None => {
                        report.diagnostics.push(Diagnostic::error(
                            LintCode::UnknownPort,
                            conn.span,
                            format!(
                                "module '{module_name}' has no port '{}'",
                                module.name_of(name)
                            ),
                        ));
                        continue;
                    }
                },
                None => match child.ports.get(idx) {
                    Some(p) => p,
                    None => continue,
                },
            };
            let (Some(pw), Some(cw)) =
                (range_width(&port.range), conn.expr.as_ref().and_then(|e| expr_width(e, symbols)))
            else {
                continue;
            };
            if pw != cw {
                report.diagnostics.push(Diagnostic::warning(
                    LintCode::PortWidth,
                    conn.span,
                    format!(
                        "port '{}' of '{module_name}' is {pw} bit(s) but connection is {cw} bit(s)",
                        module.name_of(port.name)
                    ),
                ));
            }
        }
    }
}

/// Best-effort self-determined width of an expression.
fn expr_width(e: &Expr, symbols: &Symbols) -> Option<u32> {
    match e {
        Expr::Number(n) => n.width,
        Expr::Ident(name) => symbols.width(*name),
        Expr::Index(_) => Some(1),
        Expr::Part(operands) => {
            let [_, m, l] = &**operands;
            let m = lit_value(m)?;
            let l = lit_value(l)?;
            Some(m.abs_diff(l) as u32 + 1)
        }
        Expr::Concat(items) => {
            let mut w = 0;
            for i in items {
                w += expr_width(i, symbols)?;
            }
            Some(w)
        }
        Expr::Repeat(count, items) => {
            let c = lit_value(count)? as u32;
            let mut w = 0;
            for i in items {
                w += expr_width(i, symbols)?;
            }
            Some(c * w)
        }
        _ => None,
    }
}

// ----------------------------------------------------------------------
// COMBDLY / BLKSEQ (the scripted timing fixes of Algorithm 1)
// ----------------------------------------------------------------------

fn check_assign_kinds(src: &str, module: &Module, report: &mut LintReport) {
    for item in &module.items {
        let Item::Always(a) = item else { continue };
        let seq = a.sensitivity.is_edge_triggered();
        collect_assign_kind(src, &a.body, seq, report);
    }
}

fn collect_assign_kind(src: &str, stmt: &Stmt, seq: bool, report: &mut LintReport) {
    match stmt {
        Stmt::Block(b) => {
            for s in &b.stmts {
                collect_assign_kind(src, s, seq, report);
            }
        }
        Stmt::NonBlocking(a) if !seq => {
            if let Some(op_span) = assign_op_span(src, a) {
                report.diagnostics.push(
                    Diagnostic::warning(
                        LintCode::CombDly,
                        a.span,
                        "non-blocking assignment in combinational logic; \
                         expect '=' (delayed assignment in always block with \
                         non-clocked sensitivity)",
                    )
                    .with_fix(op_span, "="),
                );
            }
        }
        Stmt::Blocking(a) if seq => {
            if let Some(op_span) = assign_op_span(src, a) {
                report.diagnostics.push(
                    Diagnostic::warning(
                        LintCode::BlkSeq,
                        a.span,
                        "blocking assignment in sequential logic; expect '<=' \
                         (blocking assignment in clocked always block)",
                    )
                    .with_fix(op_span, "<="),
                );
            }
        }
        Stmt::If(i) => {
            collect_assign_kind(src, &i.then_branch, seq, report);
            if let Some(e) = &i.else_branch {
                collect_assign_kind(src, e, seq, report);
            }
        }
        Stmt::Case(c) => {
            for arm in &c.arms {
                collect_assign_kind(src, &arm.body, seq, report);
            }
            if let Some(d) = &c.default {
                collect_assign_kind(src, d, seq, report);
            }
        }
        Stmt::For(f) => collect_assign_kind(src, &f.body, seq, report),
        _ => {}
    }
}

/// Finds the span of the assignment operator (`=` or `<=`) between the
/// target and the right-hand side by re-lexing the statement slice.
fn assign_op_span(src: &str, a: &Assign) -> Option<Span> {
    let start = a.lhs.span().end;
    let end = a.span.end.min(src.len());
    if start >= end {
        return None;
    }
    let slice = &src[start..end];
    let tokens = tokenize(slice).ok()?;
    for t in tokens {
        match t.kind {
            TokenKind::Assign | TokenKind::LeAssign => {
                return Some(Span::new(start + t.span().start, start + t.span().end));
            }
            TokenKind::Eof => break,
            _ => {}
        }
    }
    None
}

// ----------------------------------------------------------------------
// Width truncation
// ----------------------------------------------------------------------

fn check_width_trunc(module: &Module, symbols: &Symbols, report: &mut LintReport) {
    let mut check = |lhs: &LValue, rhs: &Expr, span: Span, report: &mut LintReport| {
        let LValue::Ident(name, _) = lhs else { return };
        let (Some(lw), Expr::Number(n)) = (symbols.width(*name), rhs) else { return };
        if let Some(rw) = n.width {
            if rw > lw {
                report.diagnostics.push(Diagnostic::warning(
                    LintCode::WidthTrunc,
                    span,
                    format!(
                        "operator ASSIGN expects {lw} bits on the assign RHS but \
                         RHS's CONST generates {rw} bits"
                    ),
                ));
            }
        }
    };
    struct W<'a, F: FnMut(&LValue, &Expr, Span, &mut LintReport)> {
        f: F,
        report: &'a mut LintReport,
    }
    impl<F: FnMut(&LValue, &Expr, Span, &mut LintReport)> Visitor for W<'_, F> {
        fn visit_stmt(&mut self, stmt: &Stmt) {
            if let Stmt::Blocking(a) | Stmt::NonBlocking(a) = stmt {
                (self.f)(&a.lhs, &a.rhs, a.span, self.report);
            }
            uvllm_verilog::visit::walk_stmt(self, stmt);
        }
    }
    let mut w = W { f: &mut check, report };
    for item in &module.items {
        if let Item::Assign(a) = item {
            (w.f)(&a.lhs, &a.rhs, a.span, w.report);
        }
        if let Item::Always(a) = item {
            w.visit_stmt(&a.body);
        }
    }
}

// ----------------------------------------------------------------------
// Missing sensitivity entries
// ----------------------------------------------------------------------

fn check_missing_sens(src: &str, module: &Module, report: &mut LintReport) {
    for item in &module.items {
        let Item::Always(a) = item else { continue };
        let Sensitivity::List(items) = &a.sensitivity else { continue };
        if a.sensitivity.is_edge_triggered() || items.is_empty() {
            continue;
        }
        let listed: HashSet<Symbol> = items.iter().map(|i| i.signal).collect();
        let mut read = HashSet::new();
        collect_reads(&a.body, &mut read);
        let written: HashSet<Symbol> = written_names(&a.body);
        let missing: Vec<&str> = read
            .into_iter()
            .filter(|r| !listed.contains(r) && !written.contains(r))
            .map(|r| module.name_of(r))
            .collect();
        if missing.is_empty() {
            continue;
        }
        // Scripted fix: replace the parenthesised list with `(*)`.
        let fix_span = sens_paren_span(src, items);
        let mut missing = missing;
        missing.sort();
        let mut diag = Diagnostic::warning(
            LintCode::MissingSens,
            a.span,
            format!("sensitivity list misses signal(s) read in the block: {}", missing.join(", ")),
        );
        if let Some(span) = fix_span {
            diag = diag.with_fix(span, "(*)");
        }
        report.diagnostics.push(diag);
    }
}

fn sens_paren_span(src: &str, items: &[SensItem]) -> Option<Span> {
    let first = items.first()?.span.start;
    let last = items.last()?.span.end;
    let open = src[..first].rfind('(')?;
    let close = src[last..].find(')')? + last;
    Some(Span::new(open, close + 1))
}

fn collect_reads(stmt: &Stmt, out: &mut HashSet<Symbol>) {
    struct R<'a> {
        out: &'a mut HashSet<Symbol>,
    }
    impl Visitor for R<'_> {
        fn visit_expr(&mut self, expr: &Expr) {
            if let Expr::Ident(n) = expr {
                self.out.insert(*n);
            }
            walk_expr(self, expr);
        }
        fn visit_stmt(&mut self, stmt: &Stmt) {
            if let Stmt::For(f) = stmt {
                // The loop variable is loop-local.
                for n in f.init.0.base_names() {
                    self.out.remove(&n);
                }
            }
            uvllm_verilog::visit::walk_stmt(self, stmt);
            if let Stmt::For(f) = stmt {
                for n in f.init.0.base_names() {
                    self.out.remove(&n);
                }
            }
        }
    }
    let mut r = R { out };
    r.visit_stmt(stmt);
}

fn written_names(stmt: &Stmt) -> HashSet<Symbol> {
    let mut out = HashSet::new();
    struct W<'a> {
        out: &'a mut HashSet<Symbol>,
    }
    impl Visitor for W<'_> {
        fn visit_stmt(&mut self, stmt: &Stmt) {
            if let Stmt::Blocking(a) | Stmt::NonBlocking(a) = stmt {
                for n in a.lhs.base_names() {
                    self.out.insert(n);
                }
            }
            uvllm_verilog::visit::walk_stmt(self, stmt);
        }
    }
    let mut w = W { out: &mut out };
    w.visit_stmt(stmt);
    out
}

// ----------------------------------------------------------------------
// Case completeness
// ----------------------------------------------------------------------

fn check_case_completeness(module: &Module, symbols: &Symbols, report: &mut LintReport) {
    struct C<'a> {
        symbols: &'a Symbols,
        report: &'a mut LintReport,
    }
    impl Visitor for C<'_> {
        fn visit_stmt(&mut self, stmt: &Stmt) {
            if let Stmt::Case(c) = stmt {
                if c.default.is_none() {
                    let sel_width = expr_width(&c.expr, self.symbols);
                    let labels: usize = c.arms.iter().map(|a| a.labels.len()).sum();
                    let covered = match sel_width {
                        Some(w) if w <= 16 => (labels as u128) >= (1u128 << w),
                        _ => false,
                    };
                    if !covered {
                        self.report.diagnostics.push(Diagnostic::warning(
                            LintCode::CaseIncomplete,
                            c.span,
                            "case statement has no default and does not cover \
                             all selector values",
                        ));
                    }
                }
            }
            uvllm_verilog::visit::walk_stmt(self, stmt);
        }
    }
    let mut c = C { symbols, report };
    for item in &module.items {
        if let Item::Always(a) = item {
            c.visit_stmt(&a.body);
        }
    }
}

// ----------------------------------------------------------------------
// Drivers
// ----------------------------------------------------------------------

fn check_drivers(module: &Module, report: &mut LintReport) {
    // Count whole-signal continuous drivers (assign / always writes count
    // per item; multiple writes inside one block are fine).
    let mut drivers: HashMap<Symbol, u32> = HashMap::new();
    for item in &module.items {
        match item {
            Item::Assign(a) => {
                for n in a.lhs.base_names() {
                    *drivers.entry(n).or_default() += 1;
                }
            }
            Item::Always(a) => {
                for n in written_names(&a.body) {
                    *drivers.entry(n).or_default() += 1;
                }
            }
            Item::Instance(inst) => {
                for conn in &inst.conns {
                    // Output connections drive parent signals; direction
                    // is unknown here without the child, so skip.
                    let _ = conn;
                }
            }
            _ => {}
        }
    }
    for (name, count) in &drivers {
        if *count > 1 {
            report.diagnostics.push(Diagnostic::warning(
                LintCode::MultiDriven,
                module.span,
                format!("signal '{}' has {count} drivers", module.name_of(*name)),
            ));
        }
    }
    // Undriven outputs (ignore modules with instances: child outputs may
    // drive them).
    let has_instances = module.items.iter().any(|i| matches!(i, Item::Instance(_)));
    if !has_instances {
        for port in module.outputs() {
            if !drivers.contains_key(&port.name) {
                report.diagnostics.push(Diagnostic::warning(
                    LintCode::Undriven,
                    port.span,
                    format!("output port '{}' is never driven", module.name_of(port.name)),
                ));
            }
        }
    }
}

// ----------------------------------------------------------------------
// Latch inference
// ----------------------------------------------------------------------

fn check_latches(module: &Module, report: &mut LintReport) {
    for item in &module.items {
        let Item::Always(a) = item else { continue };
        if a.sensitivity.is_edge_triggered() {
            continue;
        }
        let all = written_names(&a.body);
        let definite = definitely_assigned(&a.body);
        let mut partial: Vec<&str> =
            all.iter().filter(|n| !definite.contains(*n)).map(|&n| module.name_of(n)).collect();
        partial.sort();
        for name in partial {
            report.diagnostics.push(Diagnostic::warning(
                LintCode::Latch,
                a.span,
                format!("signal '{name}' is not assigned on all paths; latch inferred"),
            ));
        }
    }
}

fn definitely_assigned(stmt: &Stmt) -> HashSet<Symbol> {
    match stmt {
        Stmt::Block(b) => {
            let mut out = HashSet::new();
            for s in &b.stmts {
                out.extend(definitely_assigned(s));
            }
            out
        }
        Stmt::Blocking(a) | Stmt::NonBlocking(a) => {
            // Only whole-signal writes count as definite.
            match &a.lhs {
                LValue::Ident(n, _) => [*n].into(),
                _ => HashSet::new(),
            }
        }
        Stmt::If(i) => match &i.else_branch {
            Some(e) => {
                let t = definitely_assigned(&i.then_branch);
                let f = definitely_assigned(e);
                t.intersection(&f).cloned().collect()
            }
            None => HashSet::new(),
        },
        Stmt::Case(c) => {
            let Some(d) = &c.default else { return HashSet::new() };
            let mut acc = definitely_assigned(d);
            for arm in &c.arms {
                let s = definitely_assigned(&arm.body);
                acc = acc.intersection(&s).cloned().collect();
            }
            acc
        }
        Stmt::For(f) => definitely_assigned(&f.body),
        _ => HashSet::new(),
    }
}

// ----------------------------------------------------------------------
// Unused signals
// ----------------------------------------------------------------------

fn check_unused(module: &Module, symbols: &Symbols, report: &mut LintReport) {
    let mut read: HashSet<Symbol> = HashSet::new();
    for item in &module.items {
        struct R<'a> {
            out: &'a mut HashSet<Symbol>,
        }
        impl Visitor for R<'_> {
            fn visit_expr(&mut self, expr: &Expr) {
                if let Expr::Ident(n) = expr {
                    self.out.insert(*n);
                }
                walk_expr(self, expr);
            }
            fn visit_lvalue(&mut self, lv: &LValue) {
                // Index expressions read signals.
                uvllm_verilog::visit::walk_lvalue(self, lv);
            }
        }
        let mut r = R { out: &mut read };
        r.visit_item(item);
        if let Item::Always(a) = item {
            if let Sensitivity::List(items) = &a.sensitivity {
                for s in items {
                    read.insert(s.signal);
                }
            }
        }
    }
    for item in &module.items {
        let Item::Net(d) = item else { continue };
        for decl in &d.decls {
            if module.port_named(decl.name).is_some() {
                continue;
            }
            if symbols.params.contains(&decl.name) {
                continue;
            }
            if !read.contains(&decl.name) {
                report.diagnostics.push(Diagnostic::warning(
                    LintCode::Unused,
                    decl.span,
                    format!("signal '{}' is declared but never read", module.name_of(decl.name)),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn codes(src: &str) -> Vec<LintCode> {
        lint(src).diagnostics.into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_module_has_no_findings() {
        let report = lint(
            "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
             assign y = a + b;\nendmodule\n",
        );
        assert!(report.is_clean(), "unexpected findings: {:?}", report.diagnostics);
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn syntax_error_reported() {
        let cs = codes("module m(input a, output y);\nassign y = a\nendmodule\n");
        assert_eq!(cs, vec![LintCode::Syntax]);
    }

    #[test]
    fn undeclared_signal_reported() {
        let cs = codes("module m(input a, output y);\nassign y = a & ghost;\nendmodule\n");
        assert!(cs.contains(&LintCode::Undeclared));
    }

    #[test]
    fn combdly_detected_with_fix() {
        let src = "module m(input a, input b, output reg y);\n\
                   always @(*) y <= a & b;\nendmodule\n";
        let report = lint(src);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::CombDly)
            .expect("COMBDLY expected");
        let fix = d.fix.as_ref().expect("fix template expected");
        assert_eq!(fix.span.text(src), "<=");
        assert_eq!(fix.replacement, "=");
    }

    #[test]
    fn blkseq_detected_with_fix() {
        let src = "module m(input clk, input d, output reg q);\n\
                   always @(posedge clk) q = d;\nendmodule\n";
        let report = lint(src);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::BlkSeq)
            .expect("BLKSEQ expected");
        let fix = d.fix.as_ref().expect("fix template expected");
        assert_eq!(fix.span.text(src), "=");
        assert_eq!(fix.replacement, "<=");
    }

    #[test]
    fn missing_sensitivity_detected() {
        let src = "module m(input a, input b, output reg y);\n\
                   always @(a) y = a & b;\nendmodule\n";
        let report = lint(src);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::MissingSens)
            .expect("MissingSens expected");
        assert!(d.message.contains('b'));
        let fix = d.fix.as_ref().expect("fix");
        assert_eq!(fix.span.text(src), "(a)");
        assert_eq!(fix.replacement, "(*)");
    }

    #[test]
    fn case_incomplete_detected() {
        let src = "module m(input [1:0] s, output reg y);\nalways @(*) begin\ny = 1'b0;\n\
                   case (s)\n2'b00: y = 1'b1;\n2'b01: y = 1'b0;\nendcase\nend\nendmodule\n";
        assert!(codes(src).contains(&LintCode::CaseIncomplete));
        // With default: clean.
        let src2 = "module m(input [1:0] s, output reg y);\nalways @(*) begin\n\
                    case (s)\n2'b00: y = 1'b1;\ndefault: y = 1'b0;\nendcase\nend\nendmodule\n";
        assert!(!codes(src2).contains(&LintCode::CaseIncomplete));
    }

    #[test]
    fn undriven_and_unused_detected() {
        let src = "module m(input a, output y, output z);\nwire dead;\n\
                   assign y = a;\nendmodule\n";
        let cs = codes(src);
        assert!(cs.contains(&LintCode::Undriven));
        assert!(cs.contains(&LintCode::Unused));
    }

    #[test]
    fn multidriven_detected() {
        let src = "module m(input a, input b, output y);\n\
                   assign y = a;\nassign y = b;\nendmodule\n";
        assert!(codes(src).contains(&LintCode::MultiDriven));
    }

    #[test]
    fn latch_detected() {
        let src = "module m(input en, input d, output reg q);\n\
                   always @(*) begin\nif (en) q = d;\nend\nendmodule\n";
        assert!(codes(src).contains(&LintCode::Latch));
        // Default assignment first: no latch.
        let src2 = "module m(input en, input d, output reg q);\n\
                    always @(*) begin\nq = 1'b0;\nif (en) q = d;\nend\nendmodule\n";
        assert!(!codes(src2).contains(&LintCode::Latch));
    }

    #[test]
    fn width_trunc_detected() {
        let src = "module m(input a, output reg [3:0] y);\n\
                   always @(*) y = 8'hff;\nendmodule\n";
        assert!(codes(src).contains(&LintCode::WidthTrunc));
    }

    #[test]
    fn unknown_module_and_port() {
        let src = "module top(input a, output y);\nghost u(.i(a), .o(y));\nendmodule\n";
        assert!(codes(src).contains(&LintCode::UnknownModule));
        let src2 = "module top(input a, output y);\nsub u(.bad(a), .o(y));\nendmodule\n\
                    module sub(input i, output o);\nassign o = i;\nendmodule\n";
        assert!(codes(src2).contains(&LintCode::UnknownPort));
    }

    #[test]
    fn port_width_mismatch_warned() {
        let src = "module top(input a, output [1:0] y);\n\
                   sub u(.i(a), .o(y));\nendmodule\n\
                   module sub(input [1:0] i, output [1:0] o);\nassign o = i;\nendmodule\n";
        let report = lint(src);
        let d = report.diagnostics.iter().find(|d| d.code == LintCode::PortWidth);
        assert!(d.is_some());
        assert_eq!(d.unwrap().severity, Severity::Warning);
    }

    #[test]
    fn errors_precede_in_severity() {
        let report = lint("module m(input a, output y);\nassign y = zz;\nendmodule\n");
        assert_eq!(report.errors().len(), 1);
        assert!(!report.is_clean());
    }
}
