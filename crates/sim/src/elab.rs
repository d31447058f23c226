//! Elaboration: lowers a parsed [`SourceFile`] into an executable
//! [`Design`].
//!
//! Elaboration resolves parameters and ranges to constants, unrolls
//! bounded `for` loops, flattens module hierarchy (child instances are
//! inlined with `inst.` name prefixes and port connections become
//! continuous assignments), resolves identifiers to dense [`SignalId`]s
//! and computes self-determined widths for every expression node.

use crate::logic::{mask, Logic};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use uvllm_verilog::ast::*;
use uvllm_verilog::span::Span;
use uvllm_verilog::SourceFile;

/// Maximum `for`-loop iterations unrolled before elaboration fails.
pub const MAX_UNROLL: u64 = 4096;

/// Dense index of a signal in a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub u32);

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Storage class of a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalKind {
    /// `wire` — driven by continuous assignments / port connections.
    Net,
    /// `reg` / `integer` — written by procedural code.
    Var,
}

/// Metadata for one elaborated signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalInfo {
    /// Hierarchical name (`u0.sum` for signals inside instances).
    pub name: String,
    pub width: u32,
    pub kind: SignalKind,
    /// Number of array words; 1 for scalars and plain vectors.
    pub words: u32,
    /// Declared LSB index (for `[7:4]` style ranges).
    pub lsb: u32,
    /// Array low index for memories (`mem [2:17]` has `array_lo == 2`).
    pub array_lo: u32,
    /// True for top-level input ports.
    pub is_input: bool,
    /// True for top-level output ports.
    pub is_output: bool,
}

/// A lowered expression with its self-determined width.
#[derive(Debug, Clone, PartialEq)]
pub struct LExpr {
    pub kind: LExprKind,
    pub width: u32,
}

/// Lowered expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum LExprKind {
    Const(Logic),
    Sig(SignalId),
    /// Array word read `mem[addr]`.
    Word(SignalId, Box<LExpr>),
    /// Dynamic bit select `v[i]` (index is bit offset after LSB shift).
    BitSel(SignalId, Box<LExpr>),
    /// Constant part select: `(signal, lsb_offset)`, width in `LExpr`.
    PartSel(SignalId, u32),
    Unary(UnaryOp, Box<LExpr>),
    Binary(BinaryOp, Box<LExpr>, Box<LExpr>),
    Ternary(Box<LExpr>, Box<LExpr>, Box<LExpr>),
    /// Concatenation, most-significant first.
    Concat(Vec<LExpr>),
}

/// A lowered assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum LTarget {
    Whole(SignalId),
    /// Dynamic bit select (index is bit offset after LSB shift).
    Bit(SignalId, LExpr),
    /// Constant part select `(signal, lsb_offset, width)`.
    Part(SignalId, u32, u32),
    /// Array word write.
    Word(SignalId, LExpr),
    /// Concatenated targets, most-significant first.
    Concat(Vec<LTarget>),
}

impl LTarget {
    /// Total bit width written by this target.
    pub fn width(&self, design: &Design) -> u32 {
        match self {
            LTarget::Whole(s) => design.signal(*s).width,
            LTarget::Bit(_, _) => 1,
            LTarget::Part(_, _, w) => *w,
            LTarget::Word(s, _) => design.signal(*s).width,
            LTarget::Concat(parts) => parts.iter().map(|p| p.width(design)).sum(),
        }
    }

    /// Signals written by this target.
    pub fn signals(&self) -> Vec<SignalId> {
        match self {
            LTarget::Whole(s)
            | LTarget::Bit(s, _)
            | LTarget::Part(s, _, _)
            | LTarget::Word(s, _) => {
                vec![*s]
            }
            LTarget::Concat(parts) => parts.iter().flat_map(|p| p.signals()).collect(),
        }
    }
}

/// A lowered statement. Spans point back at the *original* source so the
/// localization engine can report suspicious lines.
#[derive(Debug, Clone, PartialEq)]
pub enum LStmt {
    Block(Vec<LStmt>),
    Assign {
        lhs: LTarget,
        rhs: LExpr,
        blocking: bool,
        span: Span,
    },
    If {
        cond: LExpr,
        then_branch: Box<LStmt>,
        else_branch: Option<Box<LStmt>>,
        span: Span,
    },
    Case {
        kind: CaseKind,
        expr: LExpr,
        arms: Vec<(Vec<LExpr>, LStmt)>,
        default: Option<Box<LStmt>>,
        span: Span,
    },
    Nop,
}

/// Trigger condition of a process.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Combinational: run when any of these signals changes.
    Comb(Vec<SignalId>),
    /// Sequential: run on the listed edges (`None` edge = any change).
    Seq(Vec<(SignalId, Option<Edge>)>),
    /// Run once at time zero.
    Initial,
}

/// Index of a process in a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(pub u32);

/// An executable process.
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    pub trigger: Trigger,
    pub body: LStmt,
    /// Span of the originating item (always block / assign / connection).
    pub span: Span,
}

/// A fully elaborated, executable design.
///
/// Equality is structural (same signals, processes and port lists in
/// the same order).
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Name of the top module.
    pub top: String,
    signals: Vec<SignalInfo>,
    by_name: HashMap<String, SignalId>,
    processes: Vec<Process>,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
}

impl Design {
    /// All signals.
    pub fn signals(&self) -> &[SignalInfo] {
        &self.signals
    }

    /// Metadata for `id`.
    pub fn signal(&self, id: SignalId) -> &SignalInfo {
        &self.signals[id.0 as usize]
    }

    /// Looks up a signal by (hierarchical) name.
    pub fn signal_id(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// All processes.
    pub fn processes(&self) -> &[Process] {
        &self.processes
    }

    /// Top-level input ports.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Top-level output ports.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }
}

/// Elaboration failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ElabError {
    pub message: String,
    pub span: Span,
}

impl ElabError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        ElabError { message: message.into(), span }
    }
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elaboration error: {}", self.message)
    }
}

impl std::error::Error for ElabError {}

/// Elaborates `file` with `top` as the root module.
///
/// # Errors
///
/// Fails on undeclared identifiers, non-constant ranges, unknown child
/// modules, unsupported constructs and loop-unroll overflow.
pub fn elaborate(file: &SourceFile, top: &str) -> Result<Design, ElabError> {
    let top_module = file
        .module(top)
        .ok_or_else(|| ElabError::new(format!("top module '{top}' not found"), Span::default()))?;
    let mut ctx = Elab {
        file,
        design: Design {
            top: top.to_string(),
            signals: Vec::new(),
            by_name: HashMap::new(),
            processes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        },
        depth: 0,
    };
    ctx.module(top_module, "", &HashMap::new(), true)?;
    Ok(ctx.design)
}

/// Parses `src` and elaborates it with `top` as the root module — the
/// one way from source text to a shareable [`Design`]. Uncached: a
/// caller that meets a text repeatedly keeps the result (a campaign
/// keeps it in its dataset's stage memo). Counted in
/// `sim.elaborations`; the `parse` and `elab` spans time the two halves.
///
/// # Errors
///
/// The parse or elaboration error message.
pub fn elaborate_source(src: &str, top: &str) -> Result<Arc<Design>, String> {
    crate::metrics::elaborations().inc();
    let file = {
        let _span = uvllm_obs::Span::enter("parse");
        uvllm_verilog::parse(src).map_err(|e| e.to_string())?
    };
    let _span = uvllm_obs::Span::enter("elab");
    elaborate(&file, top).map(Arc::new).map_err(|e| e.to_string())
}

struct Elab<'a> {
    file: &'a SourceFile,
    design: Design,
    depth: u32,
}

/// Per-module lowering scope.
struct Scope {
    /// Hierarchical prefix, e.g. `"u0."`.
    prefix: String,
    /// Parameter and loop-variable constants.
    consts: HashMap<String, i64>,
}

impl Scope {
    fn resolve(&self, design: &Design, name: &str) -> Option<SignalId> {
        design.signal_id(&format!("{}{}", self.prefix, name))
    }
}

impl<'a> Elab<'a> {
    fn module(
        &mut self,
        module: &Module,
        prefix: &str,
        param_overrides: &HashMap<String, i64>,
        is_top: bool,
    ) -> Result<(), ElabError> {
        self.depth += 1;
        if self.depth > 16 {
            return Err(ElabError::new("module nesting exceeds 16 levels", module.span));
        }
        let mut scope = Scope { prefix: prefix.to_string(), consts: HashMap::new() };

        // Resolve parameters first (headers and body, in order).
        for item in &module.items {
            if let Item::Param(p) = item {
                for (name, value) in &p.params {
                    let v = match param_overrides.get(name) {
                        Some(v) if !p.local => *v,
                        _ => const_eval(value, &scope.consts, p.span)?,
                    };
                    scope.consts.insert(name.clone(), v);
                }
            }
        }

        // Declare ports.
        for port in &module.ports {
            let width = range_width(&port.range, &scope.consts)?;
            let lsb = range_lsb(&port.range, &scope.consts)?;
            let kind = if port.net == NetKind::Reg { SignalKind::Var } else { SignalKind::Net };
            let id = self.declare(
                &scope,
                &port.name,
                width,
                kind,
                1,
                lsb,
                0,
                is_top && port.dir == PortDir::Input,
                is_top && port.dir == PortDir::Output,
                port.span,
            )?;
            if is_top {
                match port.dir {
                    PortDir::Input => self.design.inputs.push(id),
                    PortDir::Output => self.design.outputs.push(id),
                    PortDir::Inout => {
                        return Err(ElabError::new("inout ports are not supported", port.span))
                    }
                }
            }
        }

        // Declare nets, regs, integers.
        for item in &module.items {
            match item {
                Item::Net(d) => {
                    let width = range_width(&d.range, &scope.consts)?;
                    let lsb = range_lsb(&d.range, &scope.consts)?;
                    for decl in &d.decls {
                        if scope.resolve(&self.design, &decl.name).is_some() {
                            // Port re-declaration (`output reg q;` + `reg q;`).
                            continue;
                        }
                        let (words, array_lo) = match &decl.array {
                            Some(r) => {
                                let a = const_eval(&r.msb, &scope.consts, r.span)?;
                                let b = const_eval(&r.lsb, &scope.consts, r.span)?;
                                let lo = a.min(b);
                                let hi = a.max(b);
                                ((hi - lo + 1) as u32, lo as u32)
                            }
                            None => (1, 0),
                        };
                        let kind =
                            if d.kind == NetKind::Reg { SignalKind::Var } else { SignalKind::Net };
                        self.declare(
                            &scope, &decl.name, width, kind, words, lsb, array_lo, false, false,
                            decl.span,
                        )?;
                    }
                }
                Item::Integer(d) => {
                    for name in &d.names {
                        if scope.resolve(&self.design, name).is_none() {
                            self.declare(
                                &scope,
                                name,
                                32,
                                SignalKind::Var,
                                1,
                                0,
                                0,
                                false,
                                false,
                                d.span,
                            )?;
                        }
                    }
                }
                _ => {}
            }
        }

        // Wire initialisers become continuous assigns; reg initialisers
        // become initial blocks.
        for item in &module.items {
            if let Item::Net(d) = item {
                for decl in &d.decls {
                    if let Some(init) = &decl.init {
                        let id = scope.resolve(&self.design, &decl.name).expect("just declared");
                        let rhs = self.lower_expr(init, &scope, d.span)?;
                        let body = LStmt::Assign {
                            lhs: LTarget::Whole(id),
                            rhs: rhs.clone(),
                            blocking: true,
                            span: decl.span,
                        };
                        let trigger = if d.kind == NetKind::Wire {
                            Trigger::Comb(expr_signals(&rhs))
                        } else {
                            Trigger::Initial
                        };
                        self.design.processes.push(Process { trigger, body, span: decl.span });
                    }
                }
            }
        }

        // Lower behavioural items.
        for item in &module.items {
            match item {
                Item::Assign(a) => {
                    let lhs = self.lower_lvalue(&a.lhs, &scope, a.span)?;
                    let rhs = self.lower_expr(&a.rhs, &scope, a.span)?;
                    let deps = expr_signals(&rhs);
                    self.design.processes.push(Process {
                        trigger: Trigger::Comb(deps),
                        body: LStmt::Assign { lhs, rhs, blocking: true, span: a.span },
                        span: a.span,
                    });
                }
                Item::Always(a) => {
                    let mut scope_consts = scope.consts.clone();
                    let body = self.lower_stmt(&a.body, &scope, &mut scope_consts)?;
                    self.check_procedural_targets(&body, a.span)?;
                    let trigger = match &a.sensitivity {
                        Sensitivity::Star => Trigger::Comb(stmt_read_signals(&body)),
                        Sensitivity::List(items) => {
                            let any_edge = items.iter().any(|i| i.edge.is_some());
                            if any_edge {
                                let mut edges = Vec::new();
                                for i in items {
                                    let id = scope.resolve(&self.design, &i.signal).ok_or_else(
                                        || {
                                            ElabError::new(
                                                format!(
                                                    "undeclared signal '{}' in sensitivity list",
                                                    i.signal
                                                ),
                                                i.span,
                                            )
                                        },
                                    )?;
                                    edges.push((id, i.edge));
                                }
                                Trigger::Seq(edges)
                            } else {
                                let mut deps = Vec::new();
                                for i in items {
                                    let id = scope.resolve(&self.design, &i.signal).ok_or_else(
                                        || {
                                            ElabError::new(
                                                format!(
                                                    "undeclared signal '{}' in sensitivity list",
                                                    i.signal
                                                ),
                                                i.span,
                                            )
                                        },
                                    )?;
                                    deps.push(id);
                                }
                                Trigger::Comb(deps)
                            }
                        }
                    };
                    self.design.processes.push(Process { trigger, body, span: a.span });
                }
                Item::Initial(i) => {
                    let mut scope_consts = scope.consts.clone();
                    let body = self.lower_stmt(&i.body, &scope, &mut scope_consts)?;
                    self.check_procedural_targets(&body, i.span)?;
                    self.design.processes.push(Process {
                        trigger: Trigger::Initial,
                        body,
                        span: i.span,
                    });
                }
                Item::Instance(inst) => self.instance(inst, &scope)?,
                _ => {}
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Rejects procedural writes to nets, as IEEE 1364 compilers do —
    /// this is what makes the `output reg` → `output` mutation (Table I,
    /// Declare/Type Misuse) an actual error instead of a silent no-op.
    fn check_procedural_targets(&self, body: &LStmt, span: Span) -> Result<(), ElabError> {
        for sig in stmt_written_signals(body) {
            let info = self.design.signal(sig);
            if info.kind != SignalKind::Var {
                return Err(ElabError::new(
                    format!("procedural assignment to wire '{}' (declare it as reg)", info.name),
                    span,
                ));
            }
        }
        Ok(())
    }

    fn instance(&mut self, inst: &Instance, scope: &Scope) -> Result<(), ElabError> {
        let child = self
            .file
            .module(&inst.module)
            .ok_or_else(|| ElabError::new(format!("unknown module '{}'", inst.module), inst.span))?
            .clone();
        // Resolve parameter overrides.
        let mut overrides = HashMap::new();
        let child_params: Vec<String> = child
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Param(p) if !p.local => {
                    Some(p.params.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>())
                }
                _ => None,
            })
            .flatten()
            .collect();
        for (idx, conn) in inst.params.iter().enumerate() {
            let value = match &conn.expr {
                Some(e) => const_eval(e, &scope.consts, conn.span)?,
                None => continue,
            };
            let name = match &conn.port {
                Some(n) => n.clone(),
                None => child_params.get(idx).cloned().ok_or_else(|| {
                    ElabError::new("too many positional parameter overrides", conn.span)
                })?,
            };
            overrides.insert(name, value);
        }

        let child_prefix = format!("{}{}.", scope.prefix, inst.name);
        self.module(&child, &child_prefix, &overrides, false)?;

        // Port connections become continuous assignments.
        for (idx, conn) in inst.conns.iter().enumerate() {
            let port = match &conn.port {
                Some(name) => child.port(name).cloned().ok_or_else(|| {
                    ElabError::new(
                        format!("module '{}' has no port '{}'", inst.module, name),
                        conn.span,
                    )
                })?,
                None => child.ports.get(idx).cloned().ok_or_else(|| {
                    ElabError::new(
                        format!("too many positional connections for '{}'", inst.module),
                        conn.span,
                    )
                })?,
            };
            let Some(expr) = &conn.expr else { continue };
            let child_id = self
                .design
                .signal_id(&format!("{child_prefix}{}", port.name))
                .expect("child port declared");
            match port.dir {
                PortDir::Input => {
                    let rhs = self.lower_expr(expr, scope, conn.span)?;
                    let deps = expr_signals(&rhs);
                    self.design.processes.push(Process {
                        trigger: Trigger::Comb(deps),
                        body: LStmt::Assign {
                            lhs: LTarget::Whole(child_id),
                            rhs,
                            blocking: true,
                            span: conn.span,
                        },
                        span: conn.span,
                    });
                }
                PortDir::Output => {
                    let lhs = self.expr_as_target(expr, scope, conn.span)?;
                    let width = self.design.signal(child_id).width;
                    self.design.processes.push(Process {
                        trigger: Trigger::Comb(vec![child_id]),
                        body: LStmt::Assign {
                            lhs,
                            rhs: LExpr { kind: LExprKind::Sig(child_id), width },
                            blocking: true,
                            span: conn.span,
                        },
                        span: conn.span,
                    });
                }
                PortDir::Inout => {
                    return Err(ElabError::new("inout ports are not supported", conn.span))
                }
            }
        }
        Ok(())
    }

    /// Interprets a port-connection expression as an assignment target
    /// (for output ports).
    fn expr_as_target(
        &mut self,
        expr: &Expr,
        scope: &Scope,
        span: Span,
    ) -> Result<LTarget, ElabError> {
        match expr {
            Expr::Ident(name) => {
                let id = scope
                    .resolve(&self.design, name)
                    .ok_or_else(|| ElabError::new(format!("undeclared signal '{name}'"), span))?;
                Ok(LTarget::Whole(id))
            }
            Expr::Index(base, index) => {
                let Expr::Ident(name) = base.as_ref() else {
                    return Err(ElabError::new("unsupported output connection", span));
                };
                let id = scope
                    .resolve(&self.design, name)
                    .ok_or_else(|| ElabError::new(format!("undeclared signal '{name}'"), span))?;
                let info = self.design.signal(id).clone();
                let idx = self.lower_expr(index, scope, span)?;
                let idx = offset_index(idx, info.lsb);
                Ok(LTarget::Bit(id, idx))
            }
            Expr::Part(base, msb, lsb) => {
                let Expr::Ident(name) = base.as_ref() else {
                    return Err(ElabError::new("unsupported output connection", span));
                };
                let id = scope
                    .resolve(&self.design, name)
                    .ok_or_else(|| ElabError::new(format!("undeclared signal '{name}'"), span))?;
                let info = self.design.signal(id).clone();
                let m = const_eval(msb, &scope.consts, span)?;
                let l = const_eval(lsb, &scope.consts, span)?;
                let (off, w) = part_offset(m, l, info.lsb, span)?;
                Ok(LTarget::Part(id, off, w))
            }
            Expr::Concat(items) => {
                let mut parts = Vec::new();
                for item in items {
                    parts.push(self.expr_as_target(item, scope, span)?);
                }
                concat_target(parts, &self.design, span)
            }
            _ => {
                Err(ElabError::new("output port connections must be assignable expressions", span))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn declare(
        &mut self,
        scope: &Scope,
        name: &str,
        width: u32,
        kind: SignalKind,
        words: u32,
        lsb: u32,
        array_lo: u32,
        is_input: bool,
        is_output: bool,
        span: Span,
    ) -> Result<SignalId, ElabError> {
        let full = format!("{}{}", scope.prefix, name);
        if self.design.by_name.contains_key(&full) {
            return Err(ElabError::new(format!("duplicate declaration of '{full}'"), span));
        }
        if width == 0 || width > 128 {
            return Err(ElabError::new(
                format!("signal '{full}' width {width} out of supported range 1..=128"),
                span,
            ));
        }
        let id = SignalId(self.design.signals.len() as u32);
        self.design.signals.push(SignalInfo {
            name: full.clone(),
            width,
            kind,
            words,
            lsb,
            array_lo,
            is_input,
            is_output,
        });
        self.design.by_name.insert(full, id);
        Ok(id)
    }

    fn lower_stmt(
        &mut self,
        stmt: &Stmt,
        scope: &Scope,
        consts: &mut HashMap<String, i64>,
    ) -> Result<LStmt, ElabError> {
        match stmt {
            Stmt::Block(b) => {
                let mut out = Vec::with_capacity(b.stmts.len());
                for s in &b.stmts {
                    out.push(self.lower_stmt(s, scope, consts)?);
                }
                Ok(LStmt::Block(out))
            }
            Stmt::Blocking(a) | Stmt::NonBlocking(a) => {
                let blocking = matches!(stmt, Stmt::Blocking(_));
                // Writes to loop variables inside unrolled bodies are
                // evaluated at elaboration time when possible.
                if let LValue::Ident(name, _) = &a.lhs {
                    if consts.contains_key(name) {
                        let v = const_eval_with(&a.rhs, consts, a.span)?;
                        consts.insert(name.clone(), v);
                        return Ok(LStmt::Nop);
                    }
                }
                let lhs = self.lower_lvalue_in(&a.lhs, scope, consts, a.span)?;
                let rhs = self.lower_expr_in(&a.rhs, scope, consts, a.span)?;
                Ok(LStmt::Assign { lhs, rhs, blocking, span: a.span })
            }
            Stmt::If(i) => {
                let cond = self.lower_expr_in(&i.cond, scope, consts, i.span)?;
                let then_branch = Box::new(self.lower_stmt(&i.then_branch, scope, consts)?);
                let else_branch = match &i.else_branch {
                    Some(e) => Some(Box::new(self.lower_stmt(e, scope, consts)?)),
                    None => None,
                };
                Ok(LStmt::If { cond, then_branch, else_branch, span: i.span })
            }
            Stmt::Case(c) => {
                let expr = self.lower_expr_in(&c.expr, scope, consts, c.span)?;
                let mut arms = Vec::with_capacity(c.arms.len());
                for arm in &c.arms {
                    let mut labels = Vec::with_capacity(arm.labels.len());
                    for l in &arm.labels {
                        labels.push(self.lower_expr_in(l, scope, consts, arm.span)?);
                    }
                    arms.push((labels, self.lower_stmt(&arm.body, scope, consts)?));
                }
                let default = match &c.default {
                    Some(d) => Some(Box::new(self.lower_stmt(d, scope, consts)?)),
                    None => None,
                };
                Ok(LStmt::Case { kind: c.kind, expr, arms, default, span: c.span })
            }
            Stmt::For(f) => {
                let LValue::Ident(var, _) = &f.init.0 else {
                    return Err(ElabError::new("for-loop variable must be a plain name", f.span));
                };
                let init = const_eval_with(&f.init.1, consts, f.span)?;
                consts.insert(var.clone(), init);
                if runs_past_unroll_limit(f, var, consts) {
                    return Err(ElabError::new(
                        format!("for loop exceeds {MAX_UNROLL} unrolled iterations"),
                        f.span,
                    ));
                }
                let mut body = Vec::new();
                let mut iters: u64 = 0;
                loop {
                    let c = const_eval_with(&f.cond, consts, f.span)?;
                    if c == 0 {
                        break;
                    }
                    iters += 1;
                    if iters > MAX_UNROLL {
                        return Err(ElabError::new(
                            format!("for loop exceeds {MAX_UNROLL} unrolled iterations"),
                            f.span,
                        ));
                    }
                    body.push(self.lower_stmt(&f.body, scope, consts)?);
                    let next = const_eval_with(&f.step.1, consts, f.span)?;
                    consts.insert(var.clone(), next);
                }
                consts.remove(var);
                Ok(LStmt::Block(body))
            }
            // System tasks have no behavioural effect in this subset.
            Stmt::SysCall(_) | Stmt::Null(_) => Ok(LStmt::Nop),
        }
    }

    fn lower_lvalue(
        &mut self,
        lv: &LValue,
        scope: &Scope,
        span: Span,
    ) -> Result<LTarget, ElabError> {
        let consts = scope.consts.clone();
        self.lower_lvalue_in(lv, scope, &consts, span)
    }

    fn lower_lvalue_in(
        &mut self,
        lv: &LValue,
        scope: &Scope,
        consts: &HashMap<String, i64>,
        span: Span,
    ) -> Result<LTarget, ElabError> {
        match lv {
            LValue::Ident(name, sp) => {
                let id = scope
                    .resolve(&self.design, name)
                    .ok_or_else(|| ElabError::new(format!("undeclared signal '{name}'"), *sp))?;
                Ok(LTarget::Whole(id))
            }
            LValue::Index(name, index, sp) => {
                let id = scope
                    .resolve(&self.design, name)
                    .ok_or_else(|| ElabError::new(format!("undeclared signal '{name}'"), *sp))?;
                let info = self.design.signal(id).clone();
                let idx = self.lower_expr_in(index, scope, consts, span)?;
                if info.words > 1 {
                    Ok(LTarget::Word(id, offset_index(idx, info.array_lo)))
                } else {
                    Ok(LTarget::Bit(id, offset_index(idx, info.lsb)))
                }
            }
            LValue::Part(name, msb, lsb, sp) => {
                let id = scope
                    .resolve(&self.design, name)
                    .ok_or_else(|| ElabError::new(format!("undeclared signal '{name}'"), *sp))?;
                let info = self.design.signal(id).clone();
                let m = const_eval_with(msb, consts, *sp)?;
                let l = const_eval_with(lsb, consts, *sp)?;
                let (off, w) = part_offset(m, l, info.lsb, *sp)?;
                Ok(LTarget::Part(id, off, w))
            }
            LValue::Concat(parts, _) => {
                let mut out = Vec::with_capacity(parts.len());
                for p in parts {
                    out.push(self.lower_lvalue_in(p, scope, consts, span)?);
                }
                concat_target(out, &self.design, span)
            }
        }
    }

    fn lower_expr(&mut self, e: &Expr, scope: &Scope, span: Span) -> Result<LExpr, ElabError> {
        let consts = scope.consts.clone();
        self.lower_expr_in(e, scope, &consts, span)
    }

    fn lower_expr_in(
        &mut self,
        e: &Expr,
        scope: &Scope,
        consts: &HashMap<String, i64>,
        span: Span,
    ) -> Result<LExpr, ElabError> {
        Ok(match e {
            Expr::Number(n) => {
                let width = n.width.unwrap_or(32);
                LExpr { kind: LExprKind::Const(Logic::from_planes(width, n.value, n.xz)), width }
            }
            Expr::Ident(name) => {
                if let Some(v) = consts.get(name) {
                    return Ok(LExpr {
                        kind: LExprKind::Const(Logic::from_u128(32, *v as u128 & mask(32))),
                        width: 32,
                    });
                }
                let id = scope
                    .resolve(&self.design, name)
                    .ok_or_else(|| ElabError::new(format!("undeclared signal '{name}'"), span))?;
                let info = self.design.signal(id);
                if info.words > 1 {
                    return Err(ElabError::new(format!("memory '{name}' must be indexed"), span));
                }
                LExpr { kind: LExprKind::Sig(id), width: info.width }
            }
            Expr::Unary(op, inner) => {
                let e = self.lower_expr_in(inner, scope, consts, span)?;
                let width = match op {
                    UnaryOp::LogNot
                    | UnaryOp::RedAnd
                    | UnaryOp::RedOr
                    | UnaryOp::RedXor
                    | UnaryOp::RedNand
                    | UnaryOp::RedNor
                    | UnaryOp::RedXnor => 1,
                    _ => e.width,
                };
                LExpr { kind: LExprKind::Unary(*op, Box::new(e)), width }
            }
            Expr::Binary(op, a, b) => {
                let la = self.lower_expr_in(a, scope, consts, span)?;
                let lb = self.lower_expr_in(b, scope, consts, span)?;
                let width = match op {
                    BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge
                    | BinaryOp::Eq
                    | BinaryOp::Ne
                    | BinaryOp::CaseEq
                    | BinaryOp::CaseNe
                    | BinaryOp::LogAnd
                    | BinaryOp::LogOr => 1,
                    BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr | BinaryOp::Pow => la.width,
                    _ => la.width.max(lb.width),
                };
                LExpr { kind: LExprKind::Binary(*op, Box::new(la), Box::new(lb)), width }
            }
            Expr::Ternary(c, t, f) => {
                let lc = self.lower_expr_in(c, scope, consts, span)?;
                let lt = self.lower_expr_in(t, scope, consts, span)?;
                let lf = self.lower_expr_in(f, scope, consts, span)?;
                let width = lt.width.max(lf.width);
                LExpr { kind: LExprKind::Ternary(Box::new(lc), Box::new(lt), Box::new(lf)), width }
            }
            Expr::Index(base, index) => {
                let Expr::Ident(name) = base.as_ref() else {
                    return Err(ElabError::new("only named signals can be indexed", span));
                };
                let id = scope
                    .resolve(&self.design, name)
                    .ok_or_else(|| ElabError::new(format!("undeclared signal '{name}'"), span))?;
                let info = self.design.signal(id).clone();
                let idx = self.lower_expr_in(index, scope, consts, span)?;
                if info.words > 1 {
                    LExpr {
                        kind: LExprKind::Word(id, Box::new(offset_index(idx, info.array_lo))),
                        width: info.width,
                    }
                } else {
                    LExpr {
                        kind: LExprKind::BitSel(id, Box::new(offset_index(idx, info.lsb))),
                        width: 1,
                    }
                }
            }
            Expr::Part(base, msb, lsb) => {
                let Expr::Ident(name) = base.as_ref() else {
                    return Err(ElabError::new("only named signals can be part-selected", span));
                };
                let id = scope
                    .resolve(&self.design, name)
                    .ok_or_else(|| ElabError::new(format!("undeclared signal '{name}'"), span))?;
                let info = self.design.signal(id).clone();
                let m = const_eval_with(msb, consts, span)?;
                let l = const_eval_with(lsb, consts, span)?;
                let (off, w) = part_offset(m, l, info.lsb, span)?;
                LExpr { kind: LExprKind::PartSel(id, off), width: w }
            }
            Expr::Concat(items) => {
                let mut out = Vec::with_capacity(items.len());
                let mut width = 0;
                for item in items {
                    let e = self.lower_expr_in(item, scope, consts, span)?;
                    width += e.width;
                    out.push(e);
                }
                LExpr { kind: LExprKind::Concat(out), width: width.min(128) }
            }
            Expr::Repeat(count, items) => {
                let n = const_eval_with(count, consts, span)?;
                if !(0..=128).contains(&n) {
                    return Err(ElabError::new(
                        format!("replication count {n} out of range"),
                        span,
                    ));
                }
                let mut out = Vec::new();
                let mut width = 0;
                for _ in 0..n {
                    for item in items {
                        let e = self.lower_expr_in(item, scope, consts, span)?;
                        width += e.width;
                        out.push(e);
                    }
                }
                if out.is_empty() {
                    LExpr { kind: LExprKind::Const(Logic::zeros(1)), width: 1 }
                } else {
                    LExpr { kind: LExprKind::Concat(out), width: width.min(128) }
                }
            }
        })
    }
}

/// Shifts a lowered index expression down by a declared LSB offset.
fn offset_index(idx: LExpr, lsb: u32) -> LExpr {
    if lsb == 0 {
        return idx;
    }
    let w = idx.width;
    LExpr {
        kind: LExprKind::Binary(
            BinaryOp::Sub,
            Box::new(idx),
            Box::new(LExpr { kind: LExprKind::Const(Logic::from_u128(w, lsb as u128)), width: w }),
        ),
        width: w,
    }
}

/// Computes `(bit_offset, width)` for a `[msb:lsb]` part select against a
/// signal declared with LSB index `decl_lsb`.
fn part_offset(msb: i64, lsb: i64, decl_lsb: u32, span: Span) -> Result<(u32, u32), ElabError> {
    if msb < lsb {
        return Err(ElabError::new(format!("reversed part select [{msb}:{lsb}]"), span));
    }
    let off = lsb - decl_lsb as i64;
    if off < 0 {
        return Err(ElabError::new(
            format!("part select [{msb}:{lsb}] below declared range"),
            span,
        ));
    }
    let width = msb - lsb + 1;
    if width > 128 || off > u32::MAX as i64 {
        return Err(ElabError::new(
            format!("part select [{msb}:{lsb}] out of supported range (at most 128 bits)"),
            span,
        ));
    }
    Ok((off as u32, width as u32))
}

/// A concatenated assignment target, rejected when it is wider than a
/// value can be (128 bits).
fn concat_target(parts: Vec<LTarget>, design: &Design, span: Span) -> Result<LTarget, ElabError> {
    let target = LTarget::Concat(parts);
    let width = target.width(design);
    if width > 128 {
        return Err(ElabError::new(
            format!("concatenated assignment target of {width} bits (at most 128)"),
            span,
        ));
    }
    Ok(target)
}

fn range_width(range: &Option<Range>, consts: &HashMap<String, i64>) -> Result<u32, ElabError> {
    match range {
        None => Ok(1),
        Some(r) => {
            let m = const_eval(&r.msb, consts, r.span)?;
            let l = const_eval(&r.lsb, consts, r.span)?;
            let w = (m - l).abs() + 1;
            if !(1..=128).contains(&w) {
                Err(ElabError::new(format!("range width {w} out of range 1..=128"), r.span))
            } else {
                Ok(w as u32)
            }
        }
    }
}

fn range_lsb(range: &Option<Range>, consts: &HashMap<String, i64>) -> Result<u32, ElabError> {
    match range {
        None => Ok(0),
        Some(r) => {
            let m = const_eval(&r.msb, consts, r.span)?;
            let l = const_eval(&r.lsb, consts, r.span)?;
            Ok(m.min(l).max(0) as u32)
        }
    }
}

/// True when `f` is certain to run past [`MAX_UNROLL`] trips: a body
/// that writes no elaboration-time constant leaves the trip count to
/// the condition and the step, so it is counted without lowering
/// anything. Anything short of that certainty (such a write, a
/// condition or step that does not evaluate) answers `false` and the
/// unrolling loop decides as it goes. `consts[var]` holds the initial
/// value on entry and on return.
fn runs_past_unroll_limit(f: &ForStmt, var: &str, consts: &mut HashMap<String, i64>) -> bool {
    if writes_constant(&f.body, consts) {
        return false;
    }
    let init = consts[var];
    let mut trips: u64 = 0;
    let past = loop {
        if !matches!(const_eval_with(&f.cond, consts, f.span), Ok(c) if c != 0) {
            break false;
        }
        trips += 1;
        if trips > MAX_UNROLL {
            break true;
        }
        let Ok(next) = const_eval_with(&f.step.1, consts, f.span) else { break false };
        *consts.get_mut(var).expect("the caller inserted the loop variable") = next;
    };
    *consts.get_mut(var).expect("the caller inserted the loop variable") = init;
    past
}

/// True when lowering `stmt` can change `consts`: it assigns a name
/// held there (see `Stmt::Blocking` in `lower_stmt`) or reuses one as
/// the variable of a nested loop.
fn writes_constant(stmt: &Stmt, consts: &HashMap<String, i64>) -> bool {
    match stmt {
        Stmt::Block(b) => b.stmts.iter().any(|s| writes_constant(s, consts)),
        Stmt::Blocking(a) | Stmt::NonBlocking(a) => {
            matches!(&a.lhs, LValue::Ident(name, _) if consts.contains_key(name))
        }
        Stmt::If(i) => {
            writes_constant(&i.then_branch, consts)
                || i.else_branch.as_deref().is_some_and(|e| writes_constant(e, consts))
        }
        Stmt::Case(c) => {
            c.arms.iter().any(|arm| writes_constant(&arm.body, consts))
                || c.default.as_deref().is_some_and(|d| writes_constant(d, consts))
        }
        Stmt::For(f) => match &f.init.0 {
            LValue::Ident(name, _) if !consts.contains_key(name) => {
                writes_constant(&f.body, consts)
            }
            _ => true,
        },
        Stmt::SysCall(_) | Stmt::Null(_) => false,
    }
}

/// Evaluates a constant expression with the given name environment.
pub fn const_eval(e: &Expr, consts: &HashMap<String, i64>, span: Span) -> Result<i64, ElabError> {
    const_eval_with(e, consts, span)
}

fn const_eval_with(e: &Expr, consts: &HashMap<String, i64>, span: Span) -> Result<i64, ElabError> {
    Ok(match e {
        Expr::Number(n) => {
            if n.xz != 0 {
                return Err(ElabError::new("X/Z literal in constant expression", span));
            }
            n.value as i64
        }
        Expr::Ident(name) => *consts
            .get(name)
            .ok_or_else(|| ElabError::new(format!("'{name}' is not a constant"), span))?,
        Expr::Unary(op, inner) => {
            let v = const_eval_with(inner, consts, span)?;
            match op {
                UnaryOp::Neg => -v,
                UnaryOp::Plus => v,
                UnaryOp::LogNot => (v == 0) as i64,
                UnaryOp::BitNot => !v,
                _ => {
                    return Err(ElabError::new(
                        "reduction operators are not constant-foldable here",
                        span,
                    ))
                }
            }
        }
        Expr::Binary(op, a, b) => {
            let x = const_eval_with(a, consts, span)?;
            let y = const_eval_with(b, consts, span)?;
            match op {
                BinaryOp::Add => x.wrapping_add(y),
                BinaryOp::Sub => x.wrapping_sub(y),
                BinaryOp::Mul => x.wrapping_mul(y),
                BinaryOp::Div => {
                    if y == 0 {
                        return Err(ElabError::new("constant division by zero", span));
                    }
                    x / y
                }
                BinaryOp::Mod => {
                    if y == 0 {
                        return Err(ElabError::new("constant modulo by zero", span));
                    }
                    x % y
                }
                BinaryOp::Pow => {
                    let mut acc = 1i64;
                    for _ in 0..y.clamp(0, 63) {
                        acc = acc.wrapping_mul(x);
                    }
                    acc
                }
                BinaryOp::Shl => x.wrapping_shl(y.clamp(0, 63) as u32),
                BinaryOp::Shr | BinaryOp::AShr => x.wrapping_shr(y.clamp(0, 63) as u32),
                BinaryOp::Lt => (x < y) as i64,
                BinaryOp::Le => (x <= y) as i64,
                BinaryOp::Gt => (x > y) as i64,
                BinaryOp::Ge => (x >= y) as i64,
                BinaryOp::Eq | BinaryOp::CaseEq => (x == y) as i64,
                BinaryOp::Ne | BinaryOp::CaseNe => (x != y) as i64,
                BinaryOp::LogAnd => ((x != 0) && (y != 0)) as i64,
                BinaryOp::LogOr => ((x != 0) || (y != 0)) as i64,
                BinaryOp::BitAnd => x & y,
                BinaryOp::BitOr => x | y,
                BinaryOp::BitXor => x ^ y,
                BinaryOp::BitXnor => !(x ^ y),
            }
        }
        Expr::Ternary(c, t, f) => {
            if const_eval_with(c, consts, span)? != 0 {
                const_eval_with(t, consts, span)?
            } else {
                const_eval_with(f, consts, span)?
            }
        }
        _ => return Err(ElabError::new("expression is not constant", span)),
    })
}

/// Collects every signal read by a lowered expression.
fn expr_signals(e: &LExpr) -> Vec<SignalId> {
    let mut out = Vec::new();
    collect_expr_signals(e, &mut out);
    out.sort();
    out.dedup();
    out
}

fn collect_expr_signals(e: &LExpr, out: &mut Vec<SignalId>) {
    match &e.kind {
        LExprKind::Const(_) => {}
        LExprKind::Sig(s) => out.push(*s),
        LExprKind::Word(s, i) | LExprKind::BitSel(s, i) => {
            out.push(*s);
            collect_expr_signals(i, out);
        }
        LExprKind::PartSel(s, _) => out.push(*s),
        LExprKind::Unary(_, a) => collect_expr_signals(a, out),
        LExprKind::Binary(_, a, b) => {
            collect_expr_signals(a, out);
            collect_expr_signals(b, out);
        }
        LExprKind::Ternary(c, t, f) => {
            collect_expr_signals(c, out);
            collect_expr_signals(t, out);
            collect_expr_signals(f, out);
        }
        LExprKind::Concat(items) => {
            for i in items {
                collect_expr_signals(i, out);
            }
        }
    }
}

/// Collects every signal read anywhere in a lowered statement (used to
/// infer `@(*)` sensitivity).
pub fn stmt_read_signals(s: &LStmt) -> Vec<SignalId> {
    let mut out = Vec::new();
    collect_stmt_reads(s, &mut out);
    out.sort();
    out.dedup();
    out
}

fn collect_stmt_reads(s: &LStmt, out: &mut Vec<SignalId>) {
    match s {
        LStmt::Block(stmts) => {
            for s in stmts {
                collect_stmt_reads(s, out);
            }
        }
        LStmt::Assign { lhs, rhs, .. } => {
            collect_expr_signals(rhs, out);
            // Index expressions in the target are also reads.
            collect_target_reads(lhs, out);
        }
        LStmt::If { cond, then_branch, else_branch, .. } => {
            collect_expr_signals(cond, out);
            collect_stmt_reads(then_branch, out);
            if let Some(e) = else_branch {
                collect_stmt_reads(e, out);
            }
        }
        LStmt::Case { expr, arms, default, .. } => {
            collect_expr_signals(expr, out);
            for (labels, body) in arms {
                for l in labels {
                    collect_expr_signals(l, out);
                }
                collect_stmt_reads(body, out);
            }
            if let Some(d) = default {
                collect_stmt_reads(d, out);
            }
        }
        LStmt::Nop => {}
    }
}

fn collect_target_reads(t: &LTarget, out: &mut Vec<SignalId>) {
    match t {
        LTarget::Whole(_) | LTarget::Part(_, _, _) => {}
        LTarget::Bit(_, i) | LTarget::Word(_, i) => collect_expr_signals(i, out),
        LTarget::Concat(parts) => {
            for p in parts {
                collect_target_reads(p, out);
            }
        }
    }
}

/// Collects every signal written anywhere in a lowered statement.
pub fn stmt_written_signals(s: &LStmt) -> Vec<SignalId> {
    let mut out = Vec::new();
    collect_stmt_writes(s, &mut out);
    out.sort();
    out.dedup();
    out
}

fn collect_stmt_writes(s: &LStmt, out: &mut Vec<SignalId>) {
    match s {
        LStmt::Block(stmts) => {
            for s in stmts {
                collect_stmt_writes(s, out);
            }
        }
        LStmt::Assign { lhs, .. } => out.extend(lhs.signals()),
        LStmt::If { then_branch, else_branch, .. } => {
            collect_stmt_writes(then_branch, out);
            if let Some(e) = else_branch {
                collect_stmt_writes(e, out);
            }
        }
        LStmt::Case { arms, default, .. } => {
            for (_, body) in arms {
                collect_stmt_writes(body, out);
            }
            if let Some(d) = default {
                collect_stmt_writes(d, out);
            }
        }
        LStmt::Nop => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm_verilog::parse;

    fn elab(src: &str) -> Design {
        let file = parse(src).unwrap();
        let top = &file.top().unwrap().name;
        elaborate(&file, top).unwrap()
    }

    #[test]
    fn elaborates_simple_module() {
        let d = elab(
            "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
             assign y = a + b;\nendmodule\n",
        );
        assert_eq!(d.inputs().len(), 2);
        assert_eq!(d.outputs().len(), 1);
        assert_eq!(d.signal(d.signal_id("y").unwrap()).width, 9);
        assert_eq!(d.processes().len(), 1);
    }

    #[test]
    fn parameter_resolution() {
        let d = elab(
            "module p #(parameter W = 8)(input [W-1:0] d, output [W-1:0] q);\n\
             assign q = d;\nendmodule\n",
        );
        assert_eq!(d.signal(d.signal_id("d").unwrap()).width, 8);
    }

    #[test]
    fn hierarchy_is_flattened() {
        let d = elab(
            "module top(input a, output y);\nwire w;\n\
             inv u1(.in(a), .out(w));\ninv u2(.in(w), .out(y));\nendmodule\n\
             module inv(input in, output out);\nassign out = ~in;\nendmodule\n",
        );
        assert!(d.signal_id("u1.in").is_some());
        assert!(d.signal_id("u2.out").is_some());
        // 2 child assigns + 4 port connection processes.
        assert_eq!(d.processes().len(), 6);
    }

    #[test]
    fn parameter_override_through_instance() {
        let d = elab(
            "module top(input [3:0] a, output [3:0] y);\n\
             pass #(.W(4)) u(.d(a), .q(y));\nendmodule\n\
             module pass #(parameter W = 8)(input [W-1:0] d, output [W-1:0] q);\n\
             assign q = d;\nendmodule\n",
        );
        assert_eq!(d.signal(d.signal_id("u.d").unwrap()).width, 4);
    }

    #[test]
    fn for_loop_unrolls() {
        let d = elab(
            "module f(input [7:0] d, output reg [7:0] q);\ninteger i;\n\
             always @(*) begin\nfor (i = 0; i < 8; i = i + 1) q[i] = d[7 - i];\nend\nendmodule\n",
        );
        let p = &d.processes()[0];
        match &p.body {
            LStmt::Block(stmts) => match &stmts[0] {
                LStmt::Block(unrolled) => assert_eq!(unrolled.len(), 8),
                other => panic!("expected unrolled block, got {other:?}"),
            },
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn runaway_loop_fails() {
        let file = parse(
            "module f(output reg q);\ninteger i;\nalways @(*) begin\n\
             for (i = 0; i < 100000; i = i + 1) q = 1'b0;\nend\nendmodule\n",
        )
        .unwrap();
        assert!(elaborate(&file, "f").is_err());
    }

    /// The unrolled bodies of the one `for` in an `always @(*) begin … end`.
    fn unrolled_bodies(d: &Design) -> usize {
        match &d.processes()[0].body {
            LStmt::Block(stmts) => match &stmts[0] {
                LStmt::Block(unrolled) => unrolled.len(),
                other => panic!("expected unrolled block, got {other:?}"),
            },
            other => panic!("expected block, got {other:?}"),
        }
    }

    fn looping(header: &str, body: &str) -> String {
        format!(
            "module f(input [7:0] d, output reg [7:0] q);\ninteger i;\ninteger j;\n\
             always @(*) begin\nfor ({header}) {body}\nend\nendmodule\n"
        )
    }

    #[test]
    fn a_loop_that_never_ends_is_rejected_before_any_body_is_lowered() {
        // The divider's step with its sign flipped. `missing` is not
        // declared: lowering one body would report that instead.
        let src = looping("i = 7; i >= 0; i = i + 1", "q[0] = d[i] & missing;");
        let err = elaborate(&parse(&src).unwrap(), "f").unwrap_err();
        assert_eq!(err.message, "for loop exceeds 4096 unrolled iterations");
        assert!(err.span.text(&src).starts_with("for (i = 7; i >= 0; i = i + 1)"));
        // The same message and span as the loop that is unrolled until
        // the limit (its body steps the variable, so it is not counted
        // ahead).
        let unrolled = looping("i = 7; i >= 0; i = i", "begin q[0] = d[0]; i = i + 1; end");
        let late = elaborate(&parse(&unrolled).unwrap(), "f").unwrap_err();
        assert_eq!(late.message, err.message);
        assert!(late.span.text(&unrolled).starts_with("for (i = 7; i >= 0; i = i)"));
    }

    #[test]
    fn a_body_that_writes_its_loop_variable_decides_the_trip_count() {
        let skipping = looping("i = 0; i < 8; i = i + 1", "begin q[i] = d[i]; i = i + 1; end");
        assert_eq!(unrolled_bodies(&elab(&skipping)), 4);
        // Condition and step alone never end; the body's write does.
        let stepping = looping("i = 0; i < 8; i = i", "begin q[i] = d[i]; i = i + 1; end");
        assert_eq!(unrolled_bodies(&elab(&stepping)), 8);
    }

    #[test]
    fn nested_loops_and_the_unroll_limit_are_unchanged() {
        let nested = looping(
            "i = 0; i < 4; i = i + 1",
            "for (j = 0; j < 2; j = j + 1) q[i * 2 + j] = d[i * 2 + j];",
        );
        let d = elab(&nested);
        match &d.processes()[0].body {
            LStmt::Block(stmts) => match &stmts[0] {
                LStmt::Block(outer) => {
                    assert_eq!(outer.len(), 4);
                    for inner in outer {
                        assert!(matches!(inner, LStmt::Block(b) if b.len() == 2), "{inner:?}");
                    }
                }
                other => panic!("expected unrolled block, got {other:?}"),
            },
            other => panic!("expected block, got {other:?}"),
        }
        let at_limit = looping("i = 0; i < 4096; i = i + 1", "q[0] = d[0];");
        assert_eq!(unrolled_bodies(&elab(&at_limit)), 4096);
        let past_limit = looping("i = 0; i < 4097; i = i + 1", "q[0] = d[0];");
        assert!(elaborate(&parse(&past_limit).unwrap(), "f").is_err());
    }

    #[test]
    fn undeclared_signal_fails() {
        let file =
            parse("module m(input a, output y);\nassign y = a & missing;\nendmodule\n").unwrap();
        let err = elaborate(&file, "m").unwrap_err();
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn memory_declaration() {
        let d = elab(
            "module r(input clk, input [3:0] addr, input [7:0] din, input we,\n\
             output [7:0] dout);\nreg [7:0] mem [0:15];\n\
             always @(posedge clk) if (we) mem[addr] <= din;\n\
             assign dout = mem[addr];\nendmodule\n",
        );
        let mem = d.signal(d.signal_id("mem").unwrap());
        assert_eq!(mem.width, 8);
        assert_eq!(mem.words, 16);
    }

    #[test]
    fn star_sensitivity_is_inferred() {
        let d = elab(
            "module m(input a, input b, input s, output reg y);\n\
             always @(*) begin\nif (s) y = a; else y = b;\nend\nendmodule\n",
        );
        match &d.processes()[0].trigger {
            Trigger::Comb(deps) => {
                assert_eq!(deps.len(), 3, "expects a, b, s in sensitivity");
            }
            other => panic!("expected comb, got {other:?}"),
        }
    }

    #[test]
    fn edge_sensitivity() {
        let d = elab(
            "module m(input clk, input rst_n, output reg q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
             if (!rst_n) q <= 1'b0; else q <= 1'b1;\nend\nendmodule\n",
        );
        match &d.processes()[0].trigger {
            Trigger::Seq(edges) => {
                assert_eq!(edges.len(), 2);
                assert_eq!(edges[0].1, Some(Edge::Pos));
                assert_eq!(edges[1].1, Some(Edge::Neg));
            }
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn nonzero_lsb_range() {
        let d = elab("module m(input [8:1] a, output [8:1] y);\nassign y = a;\nendmodule\n");
        let a = d.signal(d.signal_id("a").unwrap());
        assert_eq!(a.width, 8);
        assert_eq!(a.lsb, 1);
    }

    #[test]
    fn port_redeclaration_tolerated() {
        // `input a; wire a;` is legal Verilog (net re-declaration of a
        // port); elaboration keeps the port's signal.
        let d = elab("module m(input a, output y);\nwire a;\nassign y = a;\nendmodule\n");
        assert!(d.signal_id("a").is_some());
        assert_eq!(d.signals().len(), 2);
    }

    #[test]
    fn port_width_mismatch_tolerated() {
        // Connecting a 1-bit literal to a 2-bit port elaborates (zero
        // extension happens at evaluation) — required by the Port
        // Mismatch error class.
        let d = elab(
            "module top(input a, output [1:0] y);\n\
             sub u(.i({a, 1'b1}), .o(y));\nendmodule\n\
             module sub(input [1:0] i, output [1:0] o);\nassign o = i;\nendmodule\n",
        );
        assert!(d.signal_id("u.i").is_some());
    }
}
