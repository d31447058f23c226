//! Recursive-descent parser producing the [`crate::ast`] types.

use crate::ast::*;
use crate::error::{SyntaxError, SyntaxErrorKind};
use crate::lexer::tokenize;
use crate::names::{Names, Symbol};
use crate::span::Span;
use crate::token::{Keyword, NumberBase, NumberToken, Token, TokenKind};
use std::sync::{Arc, OnceLock};

/// How deep expressions, statements and assignment targets may nest: a
/// parenthesis, a unary operator, an operator of a chain, a `begin`,
/// an `if` arm each add a level. Deeper input is a
/// [`SyntaxErrorKind::TooDeep`] error instead of a stack overflow, here
/// or in the recursive passes over the AST.
/// A text at the bound parses, lints, elaborates and simulates on a
/// 2 MB thread even unoptimised (`tests/nesting.rs`); the default
/// corpus nests far less deeply.
pub const MAX_NESTING: usize = 128;

/// Parses a complete Verilog source file.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered. Error
/// messages are phrased in compiler-log style (see
/// [`SyntaxError::render`]) so the pre-processing stage can feed them to
/// repair back-ends unchanged.
pub fn parse(src: &str) -> Result<SourceFile, SyntaxError> {
    parse_with_tokens(src).map(|(file, _)| file).map_err(|e| *e)
}

/// [`parse`], also returning the tokens it parsed, for callers that read
/// both: the text is lexed once. Every parse comes through here and is
/// counted in `verilog.parses`.
///
/// # Errors
///
/// As [`parse`].
pub fn parse_with_tokens(src: &str) -> Result<(SourceFile, Vec<Token>), Box<SyntaxError>> {
    parses().inc();
    let tokens = tokenize(src)?;
    // Room for every identifier token, so the table never grows.
    let (count, bytes) = tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::Ident | TokenKind::SysIdent))
        .fold((0, 0), |(n, b), t| (n + 1, b + t.len as usize));
    let mut names = Names::with_capacity(count, bytes);
    let mut modules = Parser::new(src, &tokens, &mut names).parse_source_file()?;
    let names = Arc::new(names);
    match &mut modules {
        List::One(module) => module.names = Arc::clone(&names),
        List::Many(modules) => modules.iter_mut().for_each(|m| m.names = Arc::clone(&names)),
    }
    Ok((SourceFile { modules, names }, tokens))
}

/// `verilog.parses`: calls of [`parse_with_tokens`] (and so of
/// [`parse`]), failed ones included.
fn parses() -> &'static uvllm_obs::Counter {
    static COUNTER: OnceLock<&'static uvllm_obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| uvllm_obs::registry().counter("verilog.parses"))
}

/// Parses a single expression (used by tests and patch validation),
/// interning its identifiers into `names`.
///
/// # Errors
///
/// Returns an error when `src` is not exactly one expression.
pub fn parse_expr(src: &str, names: &mut Names) -> Result<Expr, Box<SyntaxError>> {
    let tokens = tokenize(src)?;
    let mut p = Parser::new(src, &tokens, names);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// A module's table until its text's is finished.
fn unfinished() -> Arc<Names> {
    static EMPTY: OnceLock<Arc<Names>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(Default::default))
}

struct Parser<'a> {
    src: &'a str,
    /// `src` lexed; the last token is `Eof`.
    tokens: &'a [Token],
    pos: usize,
    /// Productions open under [`Parser::nested`].
    depth: usize,
    /// The text's identifiers.
    names: &'a mut Names,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, tokens: &'a [Token], names: &'a mut Names) -> Self {
        Parser { src, tokens, pos: 0, depth: 0, names }
    }

    fn peek(&self) -> &'a Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &'a TokenKind {
        &self.peek().kind
    }

    fn bump(&mut self) -> Token {
        let t = *self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// The identifier at `span`, as the AST keeps it.
    fn symbol(&mut self, span: Span) -> Symbol {
        self.names.intern(span.text(self.src))
    }

    /// Runs `production` one nesting level deeper, failing past
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        production: impl FnOnce(&mut Self) -> Result<T, Box<SyntaxError>>,
    ) -> Result<T, Box<SyntaxError>> {
        if self.depth == MAX_NESTING {
            return Err(SyntaxError::new(
                SyntaxErrorKind::TooDeep { limit: MAX_NESTING },
                self.peek().span(),
                format!("syntax error, nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        let out = production(self);
        self.depth -= 1;
        out
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek_kind(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        self.at(kind).then(|| self.bump()).is_some()
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        self.at_kw(kw).then(|| self.bump()).is_some()
    }

    fn error(&self, expected: &str) -> Box<SyntaxError> {
        let tok = self.peek();
        if tok.kind == TokenKind::Eof {
            SyntaxError::new(
                SyntaxErrorKind::UnexpectedEof { expected: expected.to_string() },
                tok.span(),
                format!("unexpected end of input, expected {expected}"),
            )
        } else {
            SyntaxError::new(
                SyntaxErrorKind::UnexpectedToken {
                    found: tok.display(self.src).to_string(),
                    expected: expected.to_string(),
                },
                tok.span(),
                format!(
                    "syntax error, unexpected '{}', expected {expected}",
                    tok.display(self.src)
                ),
            )
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<Token, Box<SyntaxError>> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.error(what))
        }
    }

    fn expect_kw(&mut self, kw: Keyword, what: &str) -> Result<Token, Box<SyntaxError>> {
        if self.at_kw(kw) {
            Ok(self.bump())
        } else {
            Err(self.error(what))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(Symbol, Span), Box<SyntaxError>> {
        if self.at(&TokenKind::Ident) {
            let span = self.bump().span();
            Ok((self.symbol(span), span))
        } else {
            Err(self.error(what))
        }
    }

    fn expect_eof(&mut self) -> Result<(), Box<SyntaxError>> {
        if self.at(&TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error("end of input"))
        }
    }

    // ------------------------------------------------------------------
    // Source file and module structure
    // ------------------------------------------------------------------

    fn parse_source_file(&mut self) -> Result<List<Module>, Box<SyntaxError>> {
        if self.at(&TokenKind::Eof) {
            return Err(self.error("a module definition"));
        }
        let first = self.module()?;
        if self.at(&TokenKind::Eof) {
            return Ok(List::One(first));
        }
        let mut modules = vec![first];
        while !self.at(&TokenKind::Eof) {
            modules.push(self.module()?);
        }
        Ok(List::Many(modules))
    }

    /// `entry`s separated by commas (or, in a sensitivity list, `or`s),
    /// sized before filled; a lone entry is kept inline.
    fn list<T>(
        &mut self,
        sensitivity: bool,
        mut entry: impl FnMut(&mut Self) -> Result<T, Box<SyntaxError>>,
    ) -> Result<List<T>, Box<SyntaxError>> {
        let separated =
            |p: &mut Self| (sensitivity && p.eat_kw(Keyword::Or)) || p.eat(&TokenKind::Comma);
        let first = entry(self)?;
        if !separated(self) {
            return Ok(List::One(first));
        }
        let mut entries = Vec::with_capacity(self.entries(true) + 1);
        entries.push(first);
        loop {
            entries.push(entry(self)?);
            if !separated(self) {
                return Ok(List::Many(entries));
            }
        }
    }

    fn module(&mut self) -> Result<Module, Box<SyntaxError>> {
        let start = self.expect_kw(Keyword::Module, "'module'")?.span();
        let (name, _) = self.expect_ident("module name")?;
        let mut ports: Vec<Port> = Vec::new();
        let mut items: Vec<Item> = Vec::new();

        // Optional parameter header `#(parameter W = 8, …)`.
        if self.eat(&TokenKind::Hash) {
            self.expect(&TokenKind::LParen, "'(' after '#'")?;
            loop {
                let pstart = self.peek().span();
                self.eat_kw(Keyword::Parameter);
                let range = self.optional_range()?;
                let (pname, _) = self.expect_ident("parameter name")?;
                self.expect(&TokenKind::Assign, "'=' in parameter")?;
                let value = self.expr()?;
                let pspan = pstart.merge(self.prev_span());
                items.push(Item::Param(Box::new(ParamDecl {
                    local: false,
                    range,
                    params: List::One((pname, value)),
                    span: pspan,
                })));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, "')' closing parameter list")?;
        }

        // Port header: ANSI declarations or bare names.
        if self.eat(&TokenKind::LParen) {
            if !self.at(&TokenKind::RParen) {
                ports.reserve_exact(self.entries(false));
                // The port a bare name continues, if any.
                let mut last: Option<usize> = None;
                loop {
                    let pstart = self.peek().span();
                    let port = match self.port_dir() {
                        // ANSI-style declared port.
                        Some(dir) => {
                            let net = self.net_kind();
                            let signed = self.eat_kw(Keyword::Signed);
                            let range = self.optional_range()?;
                            let (name, pspan) = self.expect_ident("port name")?;
                            last = Some(ports.len());
                            Port { name, dir, net, range, signed, span: pstart.merge(pspan) }
                        }
                        // Bare name: continuation of previous ANSI decl,
                        // or a non-ANSI port completed in the body.
                        None => {
                            let (name, span) = self.expect_ident("port name")?;
                            match last {
                                Some(i) => Port { name, span, ..ports[i].clone() },
                                None => Port {
                                    name,
                                    dir: PortDir::Input,
                                    net: NetKind::Wire,
                                    range: None,
                                    signed: false,
                                    span,
                                },
                            }
                        }
                    };
                    ports.push(port);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen, "')' closing port list")?;
        }
        self.expect(&TokenKind::Semi, "';' after module header")?;

        while !self.at_kw(Keyword::Endmodule) {
            if self.at(&TokenKind::Eof) {
                return Err(self.error("'endmodule'"));
            }
            self.item(&mut ports, &mut items)?;
        }
        let end = self.expect_kw(Keyword::Endmodule, "'endmodule'")?.span();
        Ok(Module { name, ports, items, span: start.merge(end), names: unfinished() })
    }

    /// Entries of the list at the cursor: one more than its commas (and
    /// `or`s) outside brackets before a closing bracket, a `;` or, with
    /// `to_colon`, a `:`. Lists are sized before they are filled.
    fn entries(&self, to_colon: bool) -> usize {
        let (mut depth, mut entries) = (0usize, 1);
        for token in &self.tokens[self.pos..] {
            match token.kind {
                TokenKind::LParen | TokenKind::LBracket | TokenKind::LBrace => depth += 1,
                TokenKind::RParen | TokenKind::RBracket | TokenKind::RBrace if depth > 0 => {
                    depth -= 1
                }
                TokenKind::Comma | TokenKind::Keyword(Keyword::Or) if depth == 0 => entries += 1,
                TokenKind::Colon if depth == 0 && to_colon => break,
                TokenKind::RParen | TokenKind::RBracket | TokenKind::RBrace | TokenKind::Semi => {
                    break
                }
                TokenKind::Eof => break,
                _ => {}
            }
        }
        entries
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span()
    }

    fn optional_range(&mut self) -> Result<Option<Range>, Box<SyntaxError>> {
        if !self.at(&TokenKind::LBracket) {
            return Ok(None);
        }
        let start = self.bump().span();
        let msb = self.expr()?;
        self.expect(&TokenKind::Colon, "':' in range")?;
        let lsb = self.expr()?;
        let end = self.expect(&TokenKind::RBracket, "']' closing range")?.span();
        Ok(Some(Range { msb, lsb, span: start.merge(end) }))
    }

    // ------------------------------------------------------------------
    // Module items
    // ------------------------------------------------------------------

    fn item(
        &mut self,
        ports: &mut Vec<Port>,
        items: &mut Vec<Item>,
    ) -> Result<(), Box<SyntaxError>> {
        let start = self.peek().span();
        if let Some(dir) = self.port_dir() {
            return self.body_port_decl(start, dir, ports, items);
        }
        let item = match self.peek_kind() {
            TokenKind::Keyword(Keyword::Wire) => Item::Net(Box::new(self.net_decl(NetKind::Wire)?)),
            TokenKind::Keyword(Keyword::Reg) => {
                let d = self.net_decl(NetKind::Reg)?;
                // `reg` re-declaration of an output port upgrades it.
                for decl in &d.decls {
                    if let Some(p) = ports.iter_mut().find(|p| p.name == decl.name) {
                        p.net = NetKind::Reg;
                        if p.range.is_none() {
                            p.range = d.range.clone();
                        }
                    }
                }
                Item::Net(Box::new(d))
            }
            TokenKind::Keyword(Keyword::Integer) => {
                let start = self.bump().span();
                let names = self.list(false, |p| Ok(p.expect_ident("integer name")?.0))?;
                let end = self.expect(&TokenKind::Semi, "';' after integer declaration")?.span();
                Item::Integer(IntegerDecl { names, span: start.merge(end) })
            }
            TokenKind::Keyword(Keyword::Parameter) => {
                Item::Param(Box::new(self.param_decl(false)?))
            }
            TokenKind::Keyword(Keyword::Localparam) => {
                Item::Param(Box::new(self.param_decl(true)?))
            }
            TokenKind::Keyword(Keyword::Assign) => {
                let start = self.bump().span();
                let lhs = self.lvalue()?;
                self.expect(&TokenKind::Assign, "'=' in continuous assignment")?;
                let rhs = self.expr()?;
                let end = self.expect(&TokenKind::Semi, "';' after assignment")?.span();
                Item::Assign(Box::new(ContAssign { lhs, rhs, span: start.merge(end) }))
            }
            TokenKind::Keyword(Keyword::Always) => Item::Always(Box::new(self.always_block()?)),
            TokenKind::Keyword(Keyword::Initial) => {
                let start = self.bump().span();
                let body = self.stmt()?;
                let span = start.merge(body.span());
                Item::Initial(Box::new(InitialBlock { body, span }))
            }
            TokenKind::Ident => Item::Instance(Box::new(self.instance()?)),
            _ => return Err(self.error("a module item")),
        };
        items.push(item);
        Ok(())
    }

    /// The direction keyword at the cursor, consumed.
    fn port_dir(&mut self) -> Option<PortDir> {
        let dir = match self.peek_kind() {
            TokenKind::Keyword(Keyword::Input) => PortDir::Input,
            TokenKind::Keyword(Keyword::Output) => PortDir::Output,
            TokenKind::Keyword(Keyword::Inout) => PortDir::Inout,
            _ => return None,
        };
        self.pos += 1;
        Some(dir)
    }

    /// An optional `reg` or `wire` after a direction.
    fn net_kind(&mut self) -> NetKind {
        if self.eat_kw(Keyword::Reg) {
            return NetKind::Reg;
        }
        self.eat_kw(Keyword::Wire);
        NetKind::Wire
    }

    /// A port declaration in the body; `start` is its direction's span.
    fn body_port_decl(
        &mut self,
        start: Span,
        dir: PortDir,
        ports: &mut Vec<Port>,
        items: &mut Vec<Item>,
    ) -> Result<(), Box<SyntaxError>> {
        let net = self.net_kind();
        let signed = self.eat_kw(Keyword::Signed);
        let range = self.optional_range()?;
        let decls = self.list(false, |p| {
            let (name, nspan) = p.expect_ident("port name")?;
            match ports.iter_mut().find(|p| p.name == name) {
                Some(p) => {
                    p.dir = dir;
                    if net == NetKind::Reg {
                        p.net = NetKind::Reg;
                    }
                    p.signed |= signed;
                    if p.range.is_none() {
                        p.range = range.clone();
                    }
                }
                None => {
                    ports.push(Port { name, dir, net, range: range.clone(), signed, span: nspan })
                }
            }
            Ok(Declarator { name, array: None, init: None, span: nspan })
        })?;
        let end = self.expect(&TokenKind::Semi, "';' after port declaration")?.span();
        // Body port declarations for `output reg` also declare storage.
        if net == NetKind::Reg {
            items.push(Item::Net(Box::new(NetDecl {
                kind: NetKind::Reg,
                signed,
                range,
                decls,
                span: start.merge(end),
            })));
        }
        Ok(())
    }

    fn net_decl(&mut self, kind: NetKind) -> Result<NetDecl, Box<SyntaxError>> {
        let start = self.bump().span();
        let signed = self.eat_kw(Keyword::Signed);
        let range = self.optional_range()?;
        let decls = self.list(false, |p| {
            let (name, nspan) = p.expect_ident("net name")?;
            let array = p.optional_range()?;
            let init = if p.eat(&TokenKind::Assign) { Some(p.expr()?) } else { None };
            Ok(Declarator { name, array, init, span: nspan.merge(p.prev_span()) })
        })?;
        let end = self.expect(&TokenKind::Semi, "';' after declaration")?.span();
        Ok(NetDecl { kind, signed, range, decls, span: start.merge(end) })
    }

    fn param_decl(&mut self, local: bool) -> Result<ParamDecl, Box<SyntaxError>> {
        let start = self.bump().span();
        let range = self.optional_range()?;
        let params = self.list(false, |p| {
            let (name, _) = p.expect_ident("parameter name")?;
            p.expect(&TokenKind::Assign, "'=' in parameter")?;
            Ok((name, p.expr()?))
        })?;
        let end = self.expect(&TokenKind::Semi, "';' after parameter")?.span();
        Ok(ParamDecl { local, range, params, span: start.merge(end) })
    }

    fn always_block(&mut self) -> Result<AlwaysBlock, Box<SyntaxError>> {
        let start = self.bump().span();
        self.expect(&TokenKind::At, "'@' after 'always'")?;
        let sensitivity = if self.eat(&TokenKind::Star) {
            Sensitivity::Star
        } else {
            self.expect(&TokenKind::LParen, "'(' after '@'")?;
            if self.eat(&TokenKind::Star) {
                self.expect(&TokenKind::RParen, "')' after '*'")?;
                Sensitivity::Star
            } else {
                let list = self.list(true, |p| {
                    let istart = p.peek().span();
                    let edge = if p.eat_kw(Keyword::Posedge) {
                        Some(Edge::Pos)
                    } else if p.eat_kw(Keyword::Negedge) {
                        Some(Edge::Neg)
                    } else {
                        None
                    };
                    let (signal, sspan) = p.expect_ident("signal in sensitivity list")?;
                    Ok(SensItem { edge, signal, span: istart.merge(sspan) })
                })?;
                self.expect(&TokenKind::RParen, "')' closing sensitivity list")?;
                Sensitivity::List(list)
            }
        };
        let body = self.stmt()?;
        let span = start.merge(body.span());
        Ok(AlwaysBlock { sensitivity, body, span })
    }

    fn instance(&mut self) -> Result<Instance, Box<SyntaxError>> {
        let (module, start) = self.expect_ident("module name")?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::Hash) {
            self.expect(&TokenKind::LParen, "'(' after '#'")?;
            params = self.connection_list()?;
            self.expect(&TokenKind::RParen, "')' closing parameter overrides")?;
        }
        let (name, _) = self.expect_ident("instance name")?;
        self.expect(&TokenKind::LParen, "'(' opening port connections")?;
        let conns = if self.at(&TokenKind::RParen) { Vec::new() } else { self.connection_list()? };
        self.expect(&TokenKind::RParen, "')' closing port connections")?;
        let end = self.expect(&TokenKind::Semi, "';' after instantiation")?.span();
        Ok(Instance { module, name, params, conns, span: start.merge(end) })
    }

    fn connection_list(&mut self) -> Result<Vec<Connection>, Box<SyntaxError>> {
        let mut out = Vec::with_capacity(self.entries(false));
        loop {
            let start = self.peek().span();
            if self.eat(&TokenKind::Dot) {
                let (port, _) = self.expect_ident("port name after '.'")?;
                self.expect(&TokenKind::LParen, "'(' after port name")?;
                let expr = if self.at(&TokenKind::RParen) { None } else { Some(self.expr()?) };
                let end = self.expect(&TokenKind::RParen, "')' closing connection")?.span();
                out.push(Connection { port: Some(port), expr, span: start.merge(end) });
            } else {
                let expr = self.expr()?;
                out.push(Connection {
                    port: None,
                    expr: Some(expr),
                    span: start.merge(self.prev_span()),
                });
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt, Box<SyntaxError>> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, Box<SyntaxError>> {
        // Tolerate (and discard) simple delay controls `#N`.
        if self.at(&TokenKind::Hash) {
            self.bump();
            if self.at(&TokenKind::Number) {
                self.bump();
            }
        }
        // One function per statement form keeps this frame, the one
        // every nesting level stacks, small.
        match self.peek_kind() {
            TokenKind::Keyword(Keyword::Begin) => self.block(),
            TokenKind::Keyword(Keyword::If) => self.if_stmt(),
            TokenKind::Keyword(Keyword::Case) => self.case_stmt(CaseKind::Case),
            TokenKind::Keyword(Keyword::Casez) => self.case_stmt(CaseKind::Casez),
            TokenKind::Keyword(Keyword::Casex) => self.case_stmt(CaseKind::Casex),
            TokenKind::Keyword(Keyword::For) => self.for_stmt(),
            TokenKind::SysIdent => self.sys_task(),
            TokenKind::Semi => Ok(Stmt::Null(self.bump().span())),
            _ => self.assignment(),
        }
    }

    /// `begin [: label] … end`.
    fn block(&mut self) -> Result<Stmt, Box<SyntaxError>> {
        let start = self.bump().span();
        let label = if self.eat(&TokenKind::Colon) {
            Some(self.expect_ident("block label")?.0)
        } else {
            None
        };
        let mut stmts = Vec::new();
        while !self.at_kw(Keyword::End) {
            if self.at(&TokenKind::Eof) {
                return Err(self.error("'end'"));
            }
            stmts.push(self.stmt()?);
        }
        let end = self.bump().span(); // `end`
        Ok(Stmt::Block(Block { label, stmts, span: start.merge(end) }))
    }

    /// `if (…) … [else …]`.
    fn if_stmt(&mut self) -> Result<Stmt, Box<SyntaxError>> {
        let start = self.bump().span();
        self.expect(&TokenKind::LParen, "'(' after 'if'")?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen, "')' closing condition")?;
        let then_branch = self.stmt()?;
        let else_branch = if self.eat_kw(Keyword::Else) { Some(self.stmt()?) } else { None };
        let end = else_branch.as_ref().unwrap_or(&then_branch).span();
        Ok(Stmt::If(Box::new(IfStmt { cond, then_branch, else_branch, span: start.merge(end) })))
    }

    /// `case`/`casez`/`casex` (`kind`) through `endcase`.
    fn case_stmt(&mut self, kind: CaseKind) -> Result<Stmt, Box<SyntaxError>> {
        let start = self.bump().span();
        self.expect(&TokenKind::LParen, "'(' after 'case'")?;
        let expr = self.expr()?;
        self.expect(&TokenKind::RParen, "')' closing case expression")?;
        let mut arms = Vec::new();
        let mut default = None;
        while !self.at_kw(Keyword::Endcase) {
            if self.at(&TokenKind::Eof) {
                return Err(self.error("'endcase'"));
            }
            if self.eat_kw(Keyword::Default) {
                self.eat(&TokenKind::Colon);
                default = Some(self.stmt()?);
            } else {
                let astart = self.peek().span();
                let labels = self.list(false, Self::expr)?;
                self.expect(&TokenKind::Colon, "':' after case label")?;
                let body = self.stmt()?;
                let span = astart.merge(body.span());
                arms.push(CaseArm { labels, body, span });
            }
        }
        let end = self.bump().span(); // `endcase`
        Ok(Stmt::Case(Box::new(CaseStmt { kind, expr, arms, default, span: start.merge(end) })))
    }

    /// `for (init; cond; step) body`.
    fn for_stmt(&mut self) -> Result<Stmt, Box<SyntaxError>> {
        let start = self.bump().span();
        self.expect(&TokenKind::LParen, "'(' after 'for'")?;
        let init_lhs = self.lvalue()?;
        self.expect(&TokenKind::Assign, "'=' in for initialiser")?;
        let init_rhs = self.expr()?;
        self.expect(&TokenKind::Semi, "';' after for initialiser")?;
        let cond = self.expr()?;
        self.expect(&TokenKind::Semi, "';' after for condition")?;
        let step_lhs = self.lvalue()?;
        self.expect(&TokenKind::Assign, "'=' in for step")?;
        let step_rhs = self.expr()?;
        self.expect(&TokenKind::RParen, "')' closing for header")?;
        let body = self.stmt()?;
        let span = start.merge(body.span());
        Ok(Stmt::For(Box::new(ForStmt {
            init: (init_lhs, init_rhs),
            cond,
            step: (step_lhs, step_rhs),
            body,
            span,
        })))
    }

    /// A system task call such as `$display(…);`.
    fn sys_task(&mut self) -> Result<Stmt, Box<SyntaxError>> {
        let start = self.bump().span();
        let name = self.symbol(start);
        let mut args = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if !self.at(&TokenKind::RParen) {
                args.reserve_exact(self.entries(false));
                loop {
                    // String arguments to $display etc. are kept
                    // as zero literals; they have no behavioural
                    // meaning in this subset.
                    if self.eat(&TokenKind::Str) {
                        args.push(Expr::number(0));
                    } else {
                        args.push(self.expr()?);
                    }
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen, "')' closing call")?;
        }
        let end = self.expect(&TokenKind::Semi, "';' after system task")?.span();
        Ok(Stmt::SysCall(SysCall { name, args, span: start.merge(end) }))
    }

    /// A blocking or non-blocking assignment statement.
    fn assignment(&mut self) -> Result<Stmt, Box<SyntaxError>> {
        let lhs = self.lvalue()?;
        let start = lhs.span();
        if self.eat(&TokenKind::Assign) {
            let rhs = self.expr()?;
            let end = self.expect(&TokenKind::Semi, "';' after assignment")?.span();
            Ok(Stmt::Blocking(Box::new(Assign { lhs, rhs, span: start.merge(end) })))
        } else if self.eat(&TokenKind::LeAssign) {
            let rhs = self.expr()?;
            let end = self.expect(&TokenKind::Semi, "';' after assignment")?.span();
            Ok(Stmt::NonBlocking(Box::new(Assign { lhs, rhs, span: start.merge(end) })))
        } else {
            Err(self.error("'=' or '<='"))
        }
    }

    fn lvalue(&mut self) -> Result<LValue, Box<SyntaxError>> {
        self.nested(Self::lvalue_body)
    }

    fn lvalue_body(&mut self) -> Result<LValue, Box<SyntaxError>> {
        if self.at(&TokenKind::LBrace) {
            let start = self.bump().span();
            let mut parts = Vec::with_capacity(self.entries(false));
            parts.push(self.lvalue()?);
            while self.eat(&TokenKind::Comma) {
                parts.push(self.lvalue()?);
            }
            let end = self.expect(&TokenKind::RBrace, "'}' closing concatenation")?.span();
            return Ok(LValue::Concat(parts, start.merge(end)));
        }
        let (name, start) = self.expect_ident("assignment target")?;
        if self.at(&TokenKind::LBracket) {
            self.bump();
            let first = self.expr()?;
            if self.eat(&TokenKind::Colon) {
                let lsb = self.expr()?;
                let end = self.expect(&TokenKind::RBracket, "']' closing part-select")?.span();
                Ok(LValue::Part(name, Box::new(first), Box::new(lsb), start.merge(end)))
            } else {
                let end = self.expect(&TokenKind::RBracket, "']' closing index")?.span();
                Ok(LValue::Index(name, Box::new(first), start.merge(end)))
            }
        } else {
            Ok(LValue::Ident(name, start))
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, Box<SyntaxError>> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, Box<SyntaxError>> {
        let cond = self.binary(0)?;
        if self.eat(&TokenKind::Question) {
            let then = self.expr()?;
            self.expect(&TokenKind::Colon, "':' in conditional expression")?;
            let els = self.expr()?;
            Ok(Expr::Ternary(Box::new([cond, then, els])))
        } else {
            Ok(cond)
        }
    }

    fn binop_of(&self) -> Option<BinaryOp> {
        Some(match self.peek_kind() {
            TokenKind::Plus => BinaryOp::Add,
            TokenKind::Minus => BinaryOp::Sub,
            TokenKind::Star => BinaryOp::Mul,
            TokenKind::Slash => BinaryOp::Div,
            TokenKind::Percent => BinaryOp::Mod,
            TokenKind::Power => BinaryOp::Pow,
            TokenKind::Shl | TokenKind::AShl => BinaryOp::Shl,
            TokenKind::Shr => BinaryOp::Shr,
            TokenKind::AShr => BinaryOp::AShr,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LeAssign => BinaryOp::Le,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::Ge => BinaryOp::Ge,
            TokenKind::EqEq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::Ne,
            TokenKind::CaseEq => BinaryOp::CaseEq,
            TokenKind::CaseNe => BinaryOp::CaseNe,
            TokenKind::AndAnd => BinaryOp::LogAnd,
            TokenKind::OrOr => BinaryOp::LogOr,
            TokenKind::Amp => BinaryOp::BitAnd,
            TokenKind::Pipe => BinaryOp::BitOr,
            TokenKind::Caret => BinaryOp::BitXor,
            TokenKind::TildeCaret => BinaryOp::BitXnor,
            _ => return None,
        })
    }

    /// Each operator folded into the left spine nests it one level
    /// deeper, so a flat chain counts against [`MAX_NESTING`] as
    /// parentheses do (an error ends the parse, so only `Ok` restores).
    fn binary(&mut self, min_prec: u8) -> Result<Expr, Box<SyntaxError>> {
        let depth = self.depth;
        let mut lhs = self.unary()?;
        while let Some(op) = self.binop_of() {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.nested(|p| p.binary(prec + 1))?;
            lhs = Expr::Binary(op, Box::new([lhs, rhs]));
            self.depth += 1;
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Box<SyntaxError>> {
        let op = match self.peek_kind() {
            TokenKind::Not => Some(UnaryOp::LogNot),
            TokenKind::Tilde => Some(UnaryOp::BitNot),
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Plus => Some(UnaryOp::Plus),
            TokenKind::Amp => Some(UnaryOp::RedAnd),
            TokenKind::Pipe => Some(UnaryOp::RedOr),
            TokenKind::Caret => Some(UnaryOp::RedXor),
            TokenKind::TildeAmp => Some(UnaryOp::RedNand),
            TokenKind::TildePipe => Some(UnaryOp::RedNor),
            TokenKind::TildeCaret => Some(UnaryOp::RedXnor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.nested(Self::unary)?;
            return Ok(Expr::Unary(op, Box::new(operand)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, Box<SyntaxError>> {
        let mut e = self.primary()?;
        while self.at(&TokenKind::LBracket) {
            self.bump();
            let first = self.expr()?;
            if self.eat(&TokenKind::Colon) {
                let lsb = self.expr()?;
                self.expect(&TokenKind::RBracket, "']' closing part-select")?;
                e = Expr::Part(Box::new([e, first, lsb]));
            } else {
                self.expect(&TokenKind::RBracket, "']' closing index")?;
                e = Expr::Index(Box::new([e, first]));
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, Box<SyntaxError>> {
        match self.peek_kind() {
            TokenKind::Number => {
                let token = self.bump();
                let n = token.number(self.src).expect("a number token");
                Ok(Expr::Number(self.number_from_token(&n, token.span())?))
            }
            TokenKind::Ident => {
                let span = self.bump().span();
                Ok(Expr::Ident(self.symbol(span)))
            }
            TokenKind::SysIdent => {
                // `$signed(x)` / `$unsigned(x)` are treated as transparent.
                self.bump();
                self.expect(&TokenKind::LParen, "'(' after system function")?;
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen, "')' closing system function")?;
                Ok(inner)
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "')' closing parenthesis")?;
                Ok(e)
            }
            TokenKind::LBrace => {
                let start = self.bump().span();
                let first = self.expr()?;
                // `{count{items}}` replication.
                if self.at(&TokenKind::LBrace) {
                    self.bump();
                    let mut items = Vec::with_capacity(self.entries(false));
                    items.push(self.expr()?);
                    while self.eat(&TokenKind::Comma) {
                        items.push(self.expr()?);
                    }
                    self.expect(&TokenKind::RBrace, "'}' closing replication body")?;
                    self.expect(&TokenKind::RBrace, "'}' closing replication")?;
                    return Ok(Expr::Repeat(Box::new(first), items));
                }
                let mut items = Vec::with_capacity(self.entries(false));
                items.push(first);
                while self.eat(&TokenKind::Comma) {
                    items.push(self.expr()?);
                }
                self.expect(&TokenKind::RBrace, "'}' closing concatenation")?;
                let _ = start;
                Ok(Expr::Concat(items))
            }
            _ => Err(self.error("an expression")),
        }
    }

    fn number_from_token(&self, n: &NumberToken, span: Span) -> Result<Number, Box<SyntaxError>> {
        let mut value: u128 = 0;
        let mut xz: u128 = 0;
        let digits = || n.digit_chars(self.src);
        if n.base == NumberBase::Dec && !digits().any(|c| matches!(c, 'x' | 'z' | '?')) {
            for ch in digits() {
                let d = ch.to_digit(10).unwrap_or(0) as u128;
                value = value.wrapping_mul(10).wrapping_add(d);
            }
        } else if n.base == NumberBase::Dec {
            // `'dx` style: all bits X or Z.
            let all = n.width.map(mask).unwrap_or(u128::MAX);
            xz = all;
            if digits().next() == Some('z') {
                value = all;
            }
        } else {
            let bits = n.base.bits_per_digit();
            for ch in digits() {
                value <<= bits;
                xz <<= bits;
                match ch {
                    'x' | '?' => xz |= mask(bits),
                    'z' => {
                        xz |= mask(bits);
                        value |= mask(bits);
                    }
                    _ => {
                        let d = ch.to_digit(16).ok_or_else(|| {
                            SyntaxError::new(
                                SyntaxErrorKind::MalformedNumber,
                                span,
                                format!("invalid digit '{ch}'"),
                            )
                        })? as u128;
                        value |= d;
                    }
                }
            }
        }
        if let Some(w) = n.width {
            if w == 0 || w > 128 {
                return Err(SyntaxError::unsupported_width(span, w));
            }
            value &= mask(w);
            xz &= mask(w);
        }
        Ok(Number { width: n.width, base: n.base, value, xz, signed: n.signed })
    }
}

fn mask(bits: u32) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ansi_module() {
        let src = "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
                   assign y = a + b;\nendmodule\n";
        let file = parse(src).unwrap();
        let m = file.top().unwrap();
        assert_eq!(m.name_of(m.name), "add");
        assert_eq!(m.ports.len(), 3);
        assert_eq!(m.ports[2].dir, PortDir::Output);
        assert_eq!(m.items.len(), 1);
    }

    #[test]
    fn parses_non_ansi_module() {
        let src = "module m(a, b, y);\ninput a, b;\noutput reg [3:0] y;\n\
                   always @(*) y = a & b;\nendmodule\n";
        let file = parse(src).unwrap();
        let m = file.top().unwrap();
        assert_eq!(m.ports.len(), 3);
        let y = m.port("y").unwrap();
        assert_eq!(y.dir, PortDir::Output);
        assert_eq!(y.net, NetKind::Reg);
        assert!(y.range.is_some());
    }

    #[test]
    fn parses_always_ff_with_reset() {
        let src = "module c(input clk, input rst_n, output reg [3:0] q);\n\
                   always @(posedge clk or negedge rst_n) begin\n\
                   if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\nend\nendmodule\n";
        let file = parse(src).unwrap();
        let m = file.top().unwrap();
        let always = m
            .items
            .iter()
            .find_map(|i| match i {
                Item::Always(a) => Some(a),
                _ => None,
            })
            .unwrap();
        assert!(always.sensitivity.is_edge_triggered());
    }

    #[test]
    fn parses_case_with_default() {
        let src = "module mx(input [1:0] s, output reg o);\nalways @(*) begin\n\
                   case (s)\n2'b00: o = 1'b0;\n2'b01, 2'b10: o = 1'b1;\n\
                   default: o = 1'b0;\nendcase\nend\nendmodule\n";
        let file = parse(src).unwrap();
        let m = file.top().unwrap();
        let always = m
            .items
            .iter()
            .find_map(|i| match i {
                Item::Always(a) => Some(a),
                _ => None,
            })
            .unwrap();
        match &always.body {
            Stmt::Block(b) => match &b.stmts[0] {
                Stmt::Case(c) => {
                    assert_eq!(c.arms.len(), 2);
                    assert_eq!(c.arms[1].labels.len(), 2);
                    assert!(c.default.is_some());
                }
                other => panic!("expected case, got {other:?}"),
            },
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn parses_for_loop() {
        let src = "module f(input [7:0] d, output reg [7:0] q);\ninteger i;\n\
                   always @(*) begin\nfor (i = 0; i < 8; i = i + 1) q[i] = d[7 - i];\n\
                   end\nendmodule\n";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn parses_instance_with_named_ports() {
        let src = "module top(input a, output y);\nwire w;\n\
                   inv u1(.in(a), .out(w));\ninv u2(.in(w), .out(y));\nendmodule\n\
                   module inv(input in, output out);\nassign out = ~in;\nendmodule\n";
        let file = parse(src).unwrap();
        assert_eq!(file.modules.len(), 2);
        let top = file.module("top").unwrap();
        let insts: Vec<_> = top
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Instance(inst) => Some(inst),
                _ => None,
            })
            .collect();
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0].conns[0].port.map(|p| top.name_of(p)), Some("in"));
    }

    #[test]
    fn parses_parameter_header() {
        let src = "module p #(parameter W = 8)(input [W-1:0] d, output [W-1:0] q);\n\
                   assign q = d;\nendmodule\n";
        let file = parse(src).unwrap();
        let m = file.top().unwrap();
        assert!(m.items.iter().any(|i| matches!(i, Item::Param(_))));
    }

    #[test]
    fn missing_semicolon_is_error() {
        let src = "module m(input a, output y);\nassign y = a\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("';'"), "got: {}", err.message);
    }

    #[test]
    fn missing_end_is_error() {
        let src = "module m(input a, output reg y);\nalways @(*) begin\ny = a;\nendmodule\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn concat_and_repeat_expressions() {
        let e = parse_expr("{2{a, 1'b0}}", &mut Names::new()).unwrap();
        assert!(matches!(e, Expr::Repeat(_, _)));
        let e = parse_expr("{c, s[3:0]}", &mut Names::new()).unwrap();
        assert!(matches!(e, Expr::Concat(_)));
    }

    #[test]
    fn precedence_in_expressions() {
        let e = parse_expr("a + b * c", &mut Names::new()).unwrap();
        match e {
            Expr::Binary(BinaryOp::Add, operands) => {
                assert!(matches!(operands[1], Expr::Binary(BinaryOp::Mul, _)));
            }
            other => panic!("expected add at top, got {other:?}"),
        }
        let e = parse_expr("a == b & c", &mut Names::new()).unwrap();
        // `&` binds tighter than `==` in IEEE 1364? No: equality (7) binds
        // tighter than bitand (6), so the top node is `&`.
        assert!(matches!(e, Expr::Binary(BinaryOp::BitAnd, _)));
    }

    #[test]
    fn ternary_nesting() {
        let e = parse_expr("s ? a : t ? b : c", &mut Names::new()).unwrap();
        match e {
            Expr::Ternary(operands) => assert!(matches!(operands[2], Expr::Ternary(_))),
            other => panic!("expected ternary, got {other:?}"),
        }
    }

    #[test]
    fn xz_literals_resolve() {
        let e = parse_expr("4'b1x0z", &mut Names::new()).unwrap();
        match e {
            Expr::Number(n) => {
                assert_eq!(n.value & !n.xz, 0b1000);
                assert_eq!(n.xz, 0b0101);
            }
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn lvalue_forms() {
        let src = "module m(input [7:0] a, output reg [7:0] y);\nreg [7:0] mem [0:3];\n\
                   always @(*) begin\ny = 8'd0;\ny[0] = a[0];\ny[3:1] = a[3:1];\n\
                   {y[7], y[6]} = a[1:0];\nmem[0] = a;\nend\nendmodule\n";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn undeclared_keyword_typo_is_error() {
        // `alway` lexes as identifier; parser then expects instantiation
        // syntax and fails at '@'.
        let src = "module m(input a, output reg y);\nalway @(*) y = a;\nendmodule\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn wrong_operator_sequence_is_error() {
        let src = "module m(input a, b, output y);\nassign y = a + * b;\nendmodule\n";
        assert!(parse(src).is_err());
    }
}
