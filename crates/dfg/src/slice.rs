//! DFG construction and static / time-aware dynamic slicing.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use uvllm_sim::logic::{Logic, Tri};
use uvllm_sim::Frame;
use uvllm_verilog::ast::*;
use uvllm_verilog::span::{LineMap, Span};
use uvllm_verilog::{Names, Symbol};

/// A guard under which an assignment site executes.
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    /// `if (cond)` — `taken_then` records which branch the site is in.
    If { cond: Expr, taken_then: bool },
    /// A `case` arm: the site executes when `sel` matches one of
    /// `labels` (or none of `all_labels` for the default arm).
    Case { sel: Expr, labels: Vec<Expr>, all_labels: Vec<Expr>, is_default: bool },
}

/// One assignment site in the data-flow graph.
#[derive(Debug, Clone)]
pub struct Site {
    /// Signals written (base names).
    pub targets: Vec<Symbol>,
    /// Signals read by the right-hand side and by index expressions.
    pub reads: Vec<Symbol>,
    /// Guard stack (outermost first).
    pub guards: Vec<Guard>,
    /// Span of the assignment statement.
    pub span: Span,
    /// True when this site is a continuous assignment.
    pub continuous: bool,
}

impl Site {
    /// All signals read by this site including guard conditions — the
    /// edges followed during slicing.
    pub fn influence_reads(&self) -> Vec<Symbol> {
        let mut out = self.reads.clone();
        for g in &self.guards {
            match g {
                Guard::If { cond, .. } => cond.collect_idents(&mut out),
                Guard::Case { sel, .. } => sel.collect_idents(&mut out),
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Backward traversal depth of a dynamic slice: signals more than this
/// many assignments upstream of the sliced one are not followed.
const DYNAMIC_DEPTH: usize = 8;

/// Backward traversal depth of a static slice: the whole cone.
const STATIC_DEPTH: usize = usize::MAX;

/// The result of a slice: contributing sites and the signal frontier.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Indices into [`Dfg::sites`] in discovery (breadth-first) order.
    pub sites: Vec<usize>,
    /// Signals visited during traversal.
    pub signals: Vec<Symbol>,
}

impl Slice {
    /// Source lines (1-based, deduplicated, ascending) of the slice.
    pub fn lines(&self, dfg: &Dfg, src: &str) -> Vec<u32> {
        let map = LineMap::new(src);
        let mut lines: Vec<u32> =
            self.sites.iter().map(|i| map.line(dfg.sites[*i].span.start)).collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }
}

/// A per-module data-flow graph over assignment sites.
#[derive(Debug, Clone)]
pub struct Dfg {
    /// Every assignment site in the module.
    pub sites: Vec<Site>,
    /// The sites writing each symbol, indexed by symbol.
    by_target: Vec<Vec<usize>>,
    /// The module's identifiers.
    names: Arc<Names>,
}

/// Signal values by symbol, for [`eval_ast`]: `None` where unknown.
pub type SymbolValues = [Option<Logic>];

/// Signal values by name, as a dynamic slice reads them: a name → value
/// map, or a recorded waveform [`Frame`].
pub trait Snapshot {
    /// The value of signal `name`, if the snapshot holds it.
    fn value(&self, name: &str) -> Option<Logic>;
    /// True when the snapshot holds no signal (the slice is static).
    fn is_empty(&self) -> bool;
}

impl Snapshot for HashMap<String, Logic> {
    fn value(&self, name: &str) -> Option<Logic> {
        self.get(name).copied()
    }

    fn is_empty(&self) -> bool {
        HashMap::is_empty(self)
    }
}

impl Snapshot for Frame {
    fn value(&self, name: &str) -> Option<Logic> {
        self.get(name)
    }

    fn is_empty(&self) -> bool {
        Frame::is_empty(self)
    }
}

impl Dfg {
    /// The symbol of signal `name`, if the module's text has one.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.names.get(name)
    }

    /// The values of `snapshot` by symbol of this module's text.
    fn values<S: Snapshot + ?Sized>(&self, snapshot: &S) -> Vec<Option<Logic>> {
        self.names.iter().map(|(_, name)| snapshot.value(name)).collect()
    }

    /// Builds the DFG for `module`.
    pub fn build(module: &Module) -> Self {
        let mut sites = Vec::new();
        for item in &module.items {
            match item {
                Item::Assign(a) => {
                    sites.push(site_from_assign(&a.lhs, &a.rhs, a.span, &[], true));
                }
                Item::Always(a) => {
                    let mut guards = Vec::new();
                    collect_sites(&a.body, &mut guards, &mut sites);
                }
                Item::Initial(i) => {
                    let mut guards = Vec::new();
                    collect_sites(&i.body, &mut guards, &mut sites);
                }
                _ => {}
            }
        }
        let mut by_target: Vec<Vec<usize>> = vec![Vec::new(); module.names.len()];
        for (i, s) in sites.iter().enumerate() {
            for t in &s.targets {
                by_target[t.0 as usize].push(i);
            }
        }
        Dfg { sites, by_target, names: Arc::clone(&module.names) }
    }

    /// Sites that write `signal`.
    pub fn writers(&self, signal: &str) -> &[usize] {
        self.symbol(signal).map_or(&[], |s| self.writers_of(s))
    }

    fn writers_of(&self, signal: Symbol) -> &[usize] {
        &self.by_target[signal.0 as usize]
    }

    /// Static cone of influence of `signal` (unbounded depth).
    pub fn static_slice(&self, signal: &str) -> Slice {
        self.slice(signal, None)
    }

    /// Time-aware dynamic slice, `DYNAMIC_DEPTH` deep: only sites whose
    /// guard conditions are satisfied or unknown (conservative) under
    /// `snapshot` are followed.
    pub fn dynamic_slice(&self, signal: &str, snapshot: &HashMap<String, Logic>) -> Slice {
        self.slice(signal, Some(&self.values(snapshot)))
    }

    /// The slice of `signal` under `values` (by symbol; `None` for a
    /// static slice).
    fn slice(&self, signal: &str, values: Option<&SymbolValues>) -> Slice {
        let max_depth = if values.is_some() { DYNAMIC_DEPTH } else { STATIC_DEPTH };
        let mut out = Slice::default();
        let Some(signal) = self.symbol(signal) else { return out };
        let mut seen_sites = vec![false; self.sites.len()];
        let mut seen_signals = vec![false; self.names.len()];
        let mut queue: VecDeque<(Symbol, usize)> = VecDeque::new();
        queue.push_back((signal, 0));
        seen_signals[signal.0 as usize] = true;
        while let Some((sig, depth)) = queue.pop_front() {
            out.signals.push(sig);
            if depth >= max_depth {
                continue;
            }
            for &site_idx in self.writers_of(sig) {
                let site = &self.sites[site_idx];
                if let Some(values) = values {
                    if !guards_active(&site.guards, values) {
                        continue;
                    }
                }
                if !std::mem::replace(&mut seen_sites[site_idx], true) {
                    out.sites.push(site_idx);
                }
                for read in site.influence_reads() {
                    if !std::mem::replace(&mut seen_signals[read.0 as usize], true) {
                        queue.push_back((read, depth + 1));
                    }
                }
            }
        }
        out
    }
}

fn site_from_assign(
    lhs: &LValue,
    rhs: &Expr,
    span: Span,
    guards: &[Guard],
    continuous: bool,
) -> Site {
    let mut reads = rhs.idents();
    collect_lvalue_index_reads(lhs, &mut reads);
    reads.sort_unstable();
    reads.dedup();
    Site { targets: lhs.base_names(), reads, guards: guards.to_vec(), span, continuous }
}

fn collect_lvalue_index_reads(lv: &LValue, out: &mut Vec<Symbol>) {
    match lv {
        LValue::Ident(_, _) => {}
        LValue::Index(_, i, _) => i.collect_idents(out),
        LValue::Part(_, m, l, _) => {
            m.collect_idents(out);
            l.collect_idents(out);
        }
        LValue::Concat(parts, _) => {
            for p in parts {
                collect_lvalue_index_reads(p, out);
            }
        }
    }
}

fn collect_sites(stmt: &Stmt, guards: &mut Vec<Guard>, sites: &mut Vec<Site>) {
    match stmt {
        Stmt::Block(b) => {
            for s in &b.stmts {
                collect_sites(s, guards, sites);
            }
        }
        Stmt::Blocking(a) | Stmt::NonBlocking(a) => {
            sites.push(site_from_assign(&a.lhs, &a.rhs, a.span, guards, false));
        }
        Stmt::If(i) => {
            guards.push(Guard::If { cond: i.cond.clone(), taken_then: true });
            collect_sites(&i.then_branch, guards, sites);
            guards.pop();
            if let Some(e) = &i.else_branch {
                guards.push(Guard::If { cond: i.cond.clone(), taken_then: false });
                collect_sites(e, guards, sites);
                guards.pop();
            }
        }
        Stmt::Case(c) => {
            let all_labels: Vec<Expr> =
                c.arms.iter().flat_map(|a| a.labels.iter().cloned()).collect();
            for arm in &c.arms {
                guards.push(Guard::Case {
                    sel: c.expr.clone(),
                    labels: arm.labels.clone(),
                    all_labels: all_labels.clone(),
                    is_default: false,
                });
                collect_sites(&arm.body, guards, sites);
                guards.pop();
            }
            if let Some(d) = &c.default {
                guards.push(Guard::Case {
                    sel: c.expr.clone(),
                    labels: Vec::new(),
                    all_labels,
                    is_default: true,
                });
                collect_sites(d, guards, sites);
                guards.pop();
            }
        }
        Stmt::For(f) => {
            // Loop guards are not evaluated dynamically; the body is
            // included unconditionally (conservative).
            collect_sites(&f.body, guards, sites);
        }
        Stmt::SysCall(_) | Stmt::Null(_) => {}
    }
}

/// Checks whether every guard on a site is compatible with `snapshot`;
/// a guard that evaluates to unknown (X) counts as compatible.
fn guards_active(guards: &[Guard], snapshot: &SymbolValues) -> bool {
    for g in guards {
        let verdict = match g {
            Guard::If { cond, taken_then } => match eval_ast(cond, snapshot).truthiness() {
                Tri::True => *taken_then,
                Tri::False => !*taken_then,
                Tri::Unknown => true,
            },
            Guard::Case { sel, labels, all_labels, is_default } => {
                let sv = eval_ast(sel, snapshot);
                if !sv.is_fully_known() {
                    true
                } else if *is_default {
                    // Default fires when no label matches.
                    !all_labels.iter().any(|l| label_matches(&sv, l, snapshot))
                } else {
                    labels.iter().any(|l| label_matches(&sv, l, snapshot))
                }
            }
        };
        if !verdict {
            return false;
        }
    }
    true
}

fn label_matches(sel: &Logic, label: &Expr, snapshot: &SymbolValues) -> bool {
    let lv = eval_ast(label, snapshot);
    match (sel.to_u128(), lv.to_u128()) {
        (Some(a), Some(b)) => a == b,
        _ => sel.wildcard_eq(&lv, false),
    }
}

/// Best-effort AST-level expression evaluation against a snapshot held
/// by symbol (`Dfg::values`).
///
/// Used only for guard truthiness during dynamic slicing; widths are
/// approximated (32-bit context), unknown names evaluate to X.
pub fn eval_ast(e: &Expr, env: &SymbolValues) -> Logic {
    match e {
        Expr::Number(n) => Logic::from_planes(n.width.unwrap_or(32), n.value, n.xz),
        Expr::Ident(name) => {
            env.get(name.0 as usize).copied().flatten().unwrap_or_else(|| Logic::xs(32))
        }
        Expr::Unary(op, a) => {
            let v = eval_ast(a, env);
            let w = v.width();
            match op {
                UnaryOp::LogNot => v.log_not(),
                UnaryOp::BitNot => v.bitnot(w),
                UnaryOp::Neg => v.neg(w),
                UnaryOp::Plus => v,
                UnaryOp::RedAnd => v.red_and(),
                UnaryOp::RedOr => v.red_or(),
                UnaryOp::RedXor => v.red_xor(),
                UnaryOp::RedNand => v.red_and().bitnot(1),
                UnaryOp::RedNor => v.red_or().bitnot(1),
                UnaryOp::RedXnor => v.red_xor().bitnot(1),
            }
        }
        Expr::Binary(op, a, b) => {
            let x = eval_ast(a, env);
            let y = eval_ast(b, env);
            let w = x.width().max(y.width());
            match op {
                BinaryOp::Add => x.add(&y, w),
                BinaryOp::Sub => x.sub(&y, w),
                BinaryOp::Mul => x.mul(&y, w),
                BinaryOp::Div => x.div(&y, w),
                BinaryOp::Mod => x.rem(&y, w),
                BinaryOp::Pow => x.pow(&y, w),
                BinaryOp::Shl => x.shl(&y, w),
                BinaryOp::Shr => x.shr(&y, w),
                BinaryOp::AShr => x.ashr(&y, w),
                BinaryOp::Lt => x.cmp_lt(&y),
                BinaryOp::Le => y.cmp_lt(&x).log_not(),
                BinaryOp::Gt => y.cmp_lt(&x),
                BinaryOp::Ge => x.cmp_lt(&y).log_not(),
                BinaryOp::Eq => x.log_eq(&y),
                BinaryOp::Ne => x.log_ne(&y),
                BinaryOp::CaseEq => x.case_eq(&y),
                BinaryOp::CaseNe => x.case_eq(&y).bitnot(1),
                BinaryOp::LogAnd => x.log_and(&y),
                BinaryOp::LogOr => x.log_or(&y),
                BinaryOp::BitAnd => x.bitand(&y, w),
                BinaryOp::BitOr => x.bitor(&y, w),
                BinaryOp::BitXor => x.bitxor(&y, w),
                BinaryOp::BitXnor => x.bitxnor(&y, w),
            }
        }
        Expr::Ternary(c, t, f) => match eval_ast(c, env).truthiness() {
            Tri::True => eval_ast(t, env),
            Tri::False => eval_ast(f, env),
            Tri::Unknown => {
                let tv = eval_ast(t, env);
                let fv = eval_ast(f, env);
                let w = tv.width().max(fv.width());
                tv.merge(&fv, w)
            }
        },
        Expr::Index(base, index) => {
            let b = eval_ast(base, env);
            match eval_ast(index, env).to_u128() {
                Some(i) if i < 128 => b.get_bit(i as u32),
                _ => Logic::xs(1),
            }
        }
        Expr::Part(base, msb, lsb) => {
            let b = eval_ast(base, env);
            match (eval_ast(msb, env).to_u128(), eval_ast(lsb, env).to_u128()) {
                (Some(m), Some(l)) if m >= l && m < 128 => {
                    b.get_slice(l as u32, (m - l + 1) as u32)
                }
                _ => Logic::xs(1),
            }
        }
        Expr::Concat(items) => {
            let mut acc: Option<Logic> = None;
            for item in items {
                let v = eval_ast(item, env);
                acc = Some(match acc {
                    None => v,
                    Some(hi) => Logic::concat(hi, v),
                });
            }
            acc.unwrap_or_else(|| Logic::zeros(1))
        }
        Expr::Repeat(count, items) => {
            let n = eval_ast(count, env).to_u128().unwrap_or(0).min(128);
            let mut acc: Option<Logic> = None;
            for _ in 0..n {
                for item in items {
                    let v = eval_ast(item, env);
                    acc = Some(match acc {
                        None => v,
                        Some(hi) => Logic::concat(hi, v),
                    });
                }
            }
            acc.unwrap_or_else(|| Logic::zeros(1))
        }
    }
}

/// Convenience used by the repair pipeline: suspicious `(line, text)`
/// pairs for a set of mismatch signals under a waveform snapshot.
pub fn suspicious_lines<S: Snapshot + ?Sized>(
    module: &Module,
    src: &str,
    mismatch_signals: &[String],
    snapshot: &S,
) -> Vec<(u32, String)> {
    let dfg = Dfg::build(module);
    let values = (!snapshot.is_empty()).then(|| dfg.values(snapshot));
    let mut lines: Vec<u32> = Vec::new();
    for sig in mismatch_signals {
        let slice = match &values {
            None => dfg.static_slice(sig),
            Some(values) => dfg.slice(sig, Some(values)),
        };
        lines.extend(slice.lines(&dfg, src));
    }
    lines.sort_unstable();
    lines.dedup();
    let src_lines: Vec<&str> = src.lines().collect();
    lines
        .into_iter()
        .filter_map(|l| src_lines.get((l - 1) as usize).map(|t| (l, t.trim().to_string())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm_verilog::parse;

    fn module_of(src: &str) -> Module {
        parse(src).unwrap().top().unwrap().clone()
    }

    #[test]
    fn builds_sites_with_guards() {
        let m = module_of(
            "module m(input s, input a, input b, output reg y);\n\
             always @(*) begin\nif (s) y = a; else y = b;\nend\nendmodule\n",
        );
        let dfg = Dfg::build(&m);
        assert_eq!(dfg.sites.len(), 2);
        assert_eq!(dfg.writers("y").len(), 2);
        assert!(matches!(dfg.sites[0].guards[0], Guard::If { taken_then: true, .. }));
        assert!(matches!(dfg.sites[1].guards[0], Guard::If { taken_then: false, .. }));
    }

    #[test]
    fn static_slice_follows_chain() {
        let m = module_of(
            "module m(input a, output y);\nwire t1, t2;\n\
             assign t1 = ~a;\nassign t2 = t1;\nassign y = t2;\nendmodule\n",
        );
        let dfg = Dfg::build(&m);
        let slice = dfg.static_slice("y");
        assert_eq!(slice.sites.len(), 3);
        assert!(slice.signals.contains(&dfg.symbol("a").unwrap()));
    }

    #[test]
    fn dynamic_slice_prunes_untaken_branch() {
        let src = "module m(input s, input a, input b, output reg y);\n\
                   always @(*) begin\nif (s) y = a; else y = b;\nend\nendmodule\n";
        let m = module_of(src);
        let dfg = Dfg::build(&m);
        let mut snap = HashMap::new();
        snap.insert("s".to_string(), Logic::bit(true));
        let slice = dfg.dynamic_slice("y", &snap);
        assert_eq!(slice.sites.len(), 1);
        assert!(dfg.sites[slice.sites[0]].reads.contains(&dfg.symbol("a").unwrap()));
        // Unknown condition keeps both (conservative).
        let slice2 = dfg.dynamic_slice("y", &HashMap::new());
        assert_eq!(slice2.sites.len(), 2);
    }

    #[test]
    fn dynamic_slice_through_case() {
        let src = "module m(input [1:0] s, input a, input b, output reg y);\n\
                   always @(*) begin\ncase (s)\n2'b00: y = a;\n2'b01: y = b;\n\
                   default: y = 1'b0;\nendcase\nend\nendmodule\n";
        let m = module_of(src);
        let dfg = Dfg::build(&m);
        let mut snap = HashMap::new();
        snap.insert("s".to_string(), Logic::from_u128(2, 1));
        let slice = dfg.dynamic_slice("y", &snap);
        assert_eq!(slice.sites.len(), 1);
        assert!(dfg.sites[slice.sites[0]].reads.contains(&dfg.symbol("b").unwrap()));
        // Selector 3 matches no arm -> default.
        snap.insert("s".to_string(), Logic::from_u128(2, 3));
        let slice = dfg.dynamic_slice("y", &snap);
        assert_eq!(slice.sites.len(), 1);
        assert!(matches!(
            dfg.sites[slice.sites[0]].guards[0],
            Guard::Case { is_default: true, .. }
        ));
    }

    #[test]
    fn slice_lines_point_at_source() {
        let src =
            "module m(input a, output y);\nwire t;\nassign t = ~a;\nassign y = t;\nendmodule\n";
        let m = module_of(src);
        let dfg = Dfg::build(&m);
        let slice = dfg.static_slice("y");
        let lines = slice.lines(&dfg, src);
        assert_eq!(lines, vec![3, 4]);
    }

    #[test]
    fn suspicious_lines_helper() {
        let src = "module m(input s, input a, input b, output reg y);\n\
                   always @(*) begin\nif (s) y = a;\nelse y = b;\nend\nendmodule\n";
        let m = module_of(src);
        let mut snap = HashMap::new();
        snap.insert("s".to_string(), Logic::bit(false));
        let lines = suspicious_lines(&m, src, &["y".to_string()], &snap);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].1.contains("else"), "got {:?}", lines);
    }

    #[test]
    fn slice_depth_limit_respected() {
        let mut src = String::from("module m(input a, output y);\n");
        let n = 4 * DYNAMIC_DEPTH;
        src.push_str("wire ");
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        src.push_str(&names.join(", "));
        src.push_str(";\n");
        src.push_str("assign t0 = a;\n");
        for i in 1..n {
            src.push_str(&format!("assign t{} = t{};\n", i, i - 1));
        }
        src.push_str(&format!("assign y = t{};\nendmodule\n", n - 1));
        let m = module_of(&src);
        let dfg = Dfg::build(&m);
        // One site per level: y's writer, then t{n-1}'s, and so on.
        let slice = dfg.dynamic_slice("y", &HashMap::new());
        assert_eq!(slice.sites.len(), DYNAMIC_DEPTH);
        assert_eq!(slice.signals.len(), DYNAMIC_DEPTH + 1, "the frontier is visited, not expanded");
        let full = dfg.static_slice("y");
        assert_eq!(full.sites.len(), n + 1);
    }

    #[test]
    fn eval_ast_basics() {
        let mut names = Names::new();
        let mut env = vec![None; 2];
        env[names.intern("a").0 as usize] = Some(Logic::from_u128(8, 5));
        env[names.intern("b").0 as usize] = Some(Logic::from_u128(8, 3));
        let e = uvllm_verilog::parse_expr("a + b * 2", &mut names).unwrap();
        assert_eq!(eval_ast(&e, &env).to_u128(), Some(11));
        let cmp = uvllm_verilog::parse_expr("a >= 5", &mut names).unwrap();
        assert_eq!(eval_ast(&cmp, &env).truthiness(), Tri::True);
        let unk = uvllm_verilog::parse_expr("missing == 1", &mut names).unwrap();
        assert_eq!(eval_ast(&unk, &env).truthiness(), Tri::Unknown);
    }
}
