//! Abstract syntax tree for the supported Verilog subset.
//!
//! Statements and module items carry [`Span`]s so that the linter, the
//! localization engine and the error generator can map constructs back to
//! source lines and perform text-surgical edits.

use crate::names::{with_debug_names, Names, Symbol};
use crate::span::Span;
use crate::token::NumberBase;
use std::fmt;
use std::sync::Arc;

/// A parsed source file: one or more module definitions.
#[derive(Clone, PartialEq)]
pub struct SourceFile {
    /// Modules in source order.
    pub modules: Vec<Module>,
    /// The text's identifiers: every [`Symbol`] in the tree names one.
    pub names: Arc<Names>,
}

impl SourceFile {
    /// Finds a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        let name = self.names.get(name)?;
        self.module_named(name)
    }

    /// Finds a module by its symbol.
    pub fn module_named(&self, name: Symbol) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// The first (usually only) module — conventionally the DUT.
    pub fn top(&self) -> Option<&Module> {
        self.modules.first()
    }
}

/// A `module … endmodule` definition.
#[derive(Clone, PartialEq)]
pub struct Module {
    /// Module identifier.
    pub name: Symbol,
    /// Ports in header order (ANSI or non-ANSI style, normalised).
    pub ports: Vec<Port>,
    /// Body items in source order.
    pub items: Vec<Item>,
    /// Span of the entire definition.
    pub span: Span,
    /// The identifiers of the text the module was parsed from (shared
    /// with its [`SourceFile`]).
    pub names: Arc<Names>,
}

/// Spells symbols out as names ([`with_debug_names`]); the table
/// itself is not printed.
impl fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        with_debug_names(&self.names, || {
            f.debug_struct("SourceFile").field("modules", &self.modules).finish()
        })
    }
}

/// Spells symbols out as names ([`with_debug_names`]); the table
/// itself is not printed.
impl fmt::Debug for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        with_debug_names(&self.names, || {
            f.debug_struct("Module")
                .field("name", &self.name)
                .field("ports", &self.ports)
                .field("items", &self.items)
                .field("span", &self.span)
                .finish()
        })
    }
}

impl Module {
    /// The name of `symbol`, a symbol of this module's text.
    pub fn name_of(&self, symbol: Symbol) -> &str {
        &self.names[symbol]
    }

    /// Looks up a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.port_named(self.names.get(name)?)
    }

    /// Looks up a port by its symbol.
    pub fn port_named(&self, name: Symbol) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Iterates over input ports.
    pub fn inputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Input)
    }

    /// Iterates over output ports.
    pub fn outputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Output)
    }
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    Input,
    Output,
    Inout,
}

/// Net kind of a declaration or port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    Wire,
    Reg,
}

/// A module port.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    pub name: Symbol,
    pub dir: PortDir,
    /// `reg` for ports declared `output reg`, otherwise `wire`.
    pub net: NetKind,
    /// Packed range `[msb:lsb]`, if the port is a vector.
    pub range: Option<Range>,
    pub signed: bool,
    /// Span of the port declaration in the header.
    pub span: Span,
}

/// A packed range `[msb:lsb]`; bounds are constant expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    pub msb: Expr,
    pub lsb: Expr,
    pub span: Span,
}

/// An item in a module body.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `wire`/`reg` declaration (possibly multiple names, arrays, inits).
    Net(NetDecl),
    /// `parameter`/`localparam` declaration.
    Param(ParamDecl),
    /// `integer i, j;`
    Integer(IntegerDecl),
    /// `assign lhs = rhs;`
    Assign(ContAssign),
    /// `always @(…) stmt`
    Always(AlwaysBlock),
    /// `initial stmt`
    Initial(InitialBlock),
    /// Module instantiation.
    Instance(Instance),
}

impl Item {
    /// Span of the item.
    pub fn span(&self) -> Span {
        match self {
            Item::Net(d) => d.span,
            Item::Param(d) => d.span,
            Item::Integer(d) => d.span,
            Item::Assign(a) => a.span,
            Item::Always(a) => a.span,
            Item::Initial(i) => i.span,
            Item::Instance(i) => i.span,
        }
    }
}

/// One declarator inside a net declaration: a name with optional
/// unpacked array dimension and optional initialiser.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    pub name: Symbol,
    /// Unpacked dimension `[lo:hi]` for memories.
    pub array: Option<Range>,
    /// `wire x = expr;` style initialiser.
    pub init: Option<Expr>,
    pub span: Span,
}

/// A `wire`/`reg` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetDecl {
    pub kind: NetKind,
    pub signed: bool,
    pub range: Option<Range>,
    pub decls: Vec<Declarator>,
    pub span: Span,
}

/// A `parameter` or `localparam` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// True for `localparam`.
    pub local: bool,
    pub range: Option<Range>,
    /// `(name, value)` pairs.
    pub params: Vec<(Symbol, Expr)>,
    pub span: Span,
}

/// An `integer` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegerDecl {
    pub names: Vec<Symbol>,
    pub span: Span,
}

/// A continuous assignment `assign lhs = rhs;`.
#[derive(Debug, Clone, PartialEq)]
pub struct ContAssign {
    pub lhs: LValue,
    pub rhs: Expr,
    pub span: Span,
}

/// An `always` block.
#[derive(Debug, Clone, PartialEq)]
pub struct AlwaysBlock {
    pub sensitivity: Sensitivity,
    pub body: Stmt,
    pub span: Span,
}

/// An `initial` block.
#[derive(Debug, Clone, PartialEq)]
pub struct InitialBlock {
    pub body: Stmt,
    pub span: Span,
}

/// Sensitivity list of an `always` block.
#[derive(Debug, Clone, PartialEq)]
pub enum Sensitivity {
    /// `@(*)` or `@*`.
    Star,
    /// `@(a or posedge clk, …)`.
    List(Vec<SensItem>),
}

impl Sensitivity {
    /// True when every item has an edge qualifier (a sequential block).
    pub fn is_edge_triggered(&self) -> bool {
        match self {
            Sensitivity::Star => false,
            Sensitivity::List(items) => !items.is_empty() && items.iter().all(|i| i.edge.is_some()),
        }
    }
}

/// One entry in a sensitivity list.
#[derive(Debug, Clone, PartialEq)]
pub struct SensItem {
    pub edge: Option<Edge>,
    pub signal: Symbol,
    pub span: Span,
}

/// Edge qualifier in a sensitivity list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    Pos,
    Neg,
}

/// A module instantiation `mod name (.a(x), …);`.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Name of the instantiated module.
    pub module: Symbol,
    /// Instance identifier.
    pub name: Symbol,
    /// Parameter overrides `#(.P(1))`, empty when absent.
    pub params: Vec<Connection>,
    /// Port connections (named or positional).
    pub conns: Vec<Connection>,
    pub span: Span,
}

/// A single `.port(expr)` (named) or `expr` (positional) connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Connection {
    /// Port name for named connections.
    pub port: Option<Symbol>,
    /// Connected expression; `None` for explicitly empty `.port()`.
    pub expr: Option<Expr>,
    pub span: Span,
}

/// A behavioural statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `begin … end`
    Block(Block),
    /// Blocking assignment `lhs = rhs;`
    Blocking(Assign),
    /// Non-blocking assignment `lhs <= rhs;`
    NonBlocking(Assign),
    /// `if (…) … else …`
    If(IfStmt),
    /// `case`/`casez`/`casex`
    Case(CaseStmt),
    /// `for (i = …; cond; i = …) body`
    For(ForStmt),
    /// A system task call such as `$display(…);` (executed as no-op).
    SysCall(SysCall),
    /// Lone `;`
    Null(Span),
}

impl Stmt {
    /// Span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Block(b) => b.span,
            Stmt::Blocking(a) | Stmt::NonBlocking(a) => a.span,
            Stmt::If(i) => i.span,
            Stmt::Case(c) => c.span,
            Stmt::For(f) => f.span,
            Stmt::SysCall(s) => s.span,
            Stmt::Null(s) => *s,
        }
    }
}

/// A `begin … end` block, optionally named.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub label: Option<Symbol>,
    pub stmts: Vec<Stmt>,
    pub span: Span,
}

/// A procedural assignment (blocking or non-blocking decided by the
/// enclosing [`Stmt`] variant).
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    pub lhs: LValue,
    pub rhs: Expr,
    pub span: Span,
}

/// An `if` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct IfStmt {
    pub cond: Expr,
    pub then_branch: Box<Stmt>,
    pub else_branch: Option<Box<Stmt>>,
    pub span: Span,
}

/// Flavour of a case statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    Case,
    Casez,
    Casex,
}

/// A `case` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStmt {
    pub kind: CaseKind,
    pub expr: Expr,
    pub arms: Vec<CaseArm>,
    /// `default:` arm, if present.
    pub default: Option<Box<Stmt>>,
    pub span: Span,
}

/// One labelled arm of a case statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseArm {
    /// Comma-separated label expressions.
    pub labels: Vec<Expr>,
    pub body: Stmt,
    pub span: Span,
}

/// A bounded `for` loop (unrolled at elaboration).
#[derive(Debug, Clone, PartialEq)]
pub struct ForStmt {
    /// `i = init`
    pub init: (LValue, Expr),
    pub cond: Expr,
    /// `i = step`
    pub step: (LValue, Expr),
    pub body: Box<Stmt>,
    pub span: Span,
}

/// A system task invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SysCall {
    /// Task name including `$`.
    pub name: Symbol,
    pub args: Vec<Expr>,
    pub span: Span,
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// `name`
    Ident(Symbol, Span),
    /// `name[expr]` — bit-select of a vector or word-select of a memory.
    Index(Symbol, Box<Expr>, Span),
    /// `name[msb:lsb]` — constant part-select.
    Part(Symbol, Box<Expr>, Box<Expr>, Span),
    /// `{a, b, …}` concatenated targets.
    Concat(Vec<LValue>, Span),
}

impl LValue {
    /// Span of the target.
    pub fn span(&self) -> Span {
        match self {
            LValue::Ident(_, s)
            | LValue::Index(_, _, s)
            | LValue::Part(_, _, _, s)
            | LValue::Concat(_, s) => *s,
        }
    }

    /// The base signal names written by this target.
    pub fn base_names(&self) -> Vec<Symbol> {
        match self {
            LValue::Ident(n, _) | LValue::Index(n, _, _) | LValue::Part(n, _, _, _) => {
                vec![*n]
            }
            LValue::Concat(parts, _) => parts.iter().flat_map(|p| p.base_names()).collect(),
        }
    }
}

/// A numeric literal with resolved value bits.
///
/// `value`/`xz` encode four-state constants: bit *i* is X when
/// `xz[i] == 1 && value[i] == 0`, Z when `xz[i] == 1 && value[i] == 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number {
    /// Explicit width, if the literal was sized.
    pub width: Option<u32>,
    pub base: NumberBase,
    pub value: u128,
    pub xz: u128,
    pub signed: bool,
}

impl Number {
    /// An unsized decimal constant.
    pub fn dec(value: u128) -> Self {
        Number { width: None, base: NumberBase::Dec, value, xz: 0, signed: false }
    }

    /// A sized constant with the given base.
    pub fn sized(width: u32, base: NumberBase, value: u128) -> Self {
        Number { width: Some(width), base, value, xz: 0, signed: false }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `!`
    LogNot,
    /// `~`
    BitNot,
    /// `-`
    Neg,
    /// `+`
    Plus,
    /// `&`
    RedAnd,
    /// `|`
    RedOr,
    /// `^`
    RedXor,
    /// `~&`
    RedNand,
    /// `~|`
    RedNor,
    /// `~^`
    RedXnor,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
    Shl,
    Shr,
    AShr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    CaseEq,
    CaseNe,
    LogAnd,
    LogOr,
    BitAnd,
    BitOr,
    BitXor,
    BitXnor,
}

impl BinaryOp {
    /// The parser's binding power; higher binds tighter. Mirrors IEEE
    /// 1364 precedence.
    pub fn precedence(&self) -> u8 {
        use BinaryOp::*;
        match self {
            Pow => 12,
            Mul | Div | Mod => 11,
            Add | Sub => 10,
            Shl | Shr | AShr => 9,
            Lt | Le | Gt | Ge => 8,
            Eq | Ne | CaseEq | CaseNe => 7,
            BitAnd => 6,
            BitXor | BitXnor => 5,
            BitOr => 4,
            LogAnd => 3,
            LogOr => 2,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Number(Number),
    /// Signal / parameter reference.
    Ident(Symbol),
    /// `op expr`
    Unary(UnaryOp, Box<Expr>),
    /// `lhs op rhs`
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// `cond ? then : else`
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>),
    /// `base[msb:lsb]`
    Part(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `{a, b, …}`
    Concat(Vec<Expr>),
    /// `{count{expr, …}}`
    Repeat(Box<Expr>, Vec<Expr>),
}

impl Expr {
    /// Shorthand for an unsized decimal constant expression.
    pub fn number(value: u128) -> Expr {
        Expr::Number(Number::dec(value))
    }

    /// Collects every identifier referenced in the expression.
    pub fn idents(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_idents(&mut out);
        out
    }

    /// Appends every identifier referenced in the expression to `out`.
    pub fn collect_idents(&self, out: &mut Vec<Symbol>) {
        match self {
            Expr::Number(_) => {}
            Expr::Ident(name) => out.push(*name),
            Expr::Unary(_, e) => e.collect_idents(out),
            Expr::Binary(_, a, b) => {
                a.collect_idents(out);
                b.collect_idents(out);
            }
            Expr::Ternary(c, t, e) => {
                c.collect_idents(out);
                t.collect_idents(out);
                e.collect_idents(out);
            }
            Expr::Index(b, i) => {
                b.collect_idents(out);
                i.collect_idents(out);
            }
            Expr::Part(b, m, l) => {
                b.collect_idents(out);
                m.collect_idents(out);
                l.collect_idents(out);
            }
            Expr::Concat(es) => {
                for e in es {
                    e.collect_idents(out);
                }
            }
            Expr::Repeat(c, es) => {
                c.collect_idents(out);
                for e in es {
                    e.collect_idents(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_edge_detection() {
        let mut names = Names::new();
        let seq = Sensitivity::List(vec![SensItem {
            edge: Some(Edge::Pos),
            signal: names.intern("clk"),
            span: Span::default(),
        }]);
        assert!(seq.is_edge_triggered());
        let comb = Sensitivity::List(vec![SensItem {
            edge: None,
            signal: names.intern("a"),
            span: Span::default(),
        }]);
        assert!(!comb.is_edge_triggered());
        assert!(!Sensitivity::Star.is_edge_triggered());
    }

    #[test]
    fn expr_ident_collection() {
        let mut names = Names::new();
        let mut ident = |name| Box::new(Expr::Ident(names.intern(name)));
        let e = Expr::Binary(
            BinaryOp::Add,
            ident("a"),
            Box::new(Expr::Ternary(ident("sel"), ident("b"), Box::new(Expr::number(0)))),
        );
        let idents: Vec<&str> = e.idents().into_iter().map(|s| &names[s]).collect();
        assert_eq!(idents, vec!["a", "sel", "b"]);
    }

    #[test]
    fn lvalue_base_names() {
        let mut names = Names::new();
        let lv = LValue::Concat(
            vec![
                LValue::Ident(names.intern("carry"), Span::default()),
                LValue::Index(names.intern("sum"), Box::new(Expr::number(0)), Span::default()),
            ],
            Span::default(),
        );
        let bases: Vec<&str> = lv.base_names().into_iter().map(|s| &names[s]).collect();
        assert_eq!(bases, vec!["carry", "sum"]);
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinaryOp::Mul.precedence() > BinaryOp::Add.precedence());
        assert!(BinaryOp::Add.precedence() > BinaryOp::Eq.precedence());
        assert!(BinaryOp::BitAnd.precedence() > BinaryOp::BitOr.precedence());
        assert!(BinaryOp::LogAnd.precedence() > BinaryOp::LogOr.precedence());
    }
}
