//! Hand-written lexer for the supported Verilog subset.

use crate::error::{SyntaxError, SyntaxErrorKind};
use crate::span::Span;
use crate::token::{Keyword, NumberBase, NumberToken, Token, TokenKind};

/// Converts Verilog source text into a token stream.
///
/// The lexer is lossless with respect to spans: every token records the
/// byte range it came from, so later stages can rewrite source text
/// surgically.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer { src, bytes: src.as_bytes(), pos: 0 }
    }

    /// Lexes the entire input, returning tokens (including a final
    /// [`TokenKind::Eof`]) or the first lexical error.
    ///
    /// The token vector is the one allocation, sized by an upper bound
    /// on the input's token count.
    ///
    /// # Errors
    ///
    /// Returns a [`SyntaxError`] for unterminated comments/strings,
    /// malformed based literals, unexpected characters and 4 GiB texts.
    pub fn tokenize(mut self) -> Result<Vec<Token>, Box<SyntaxError>> {
        if self.bytes.len() >= u32::MAX as usize {
            return Err(SyntaxError::new(
                SyntaxErrorKind::TooLong,
                Span::point(0),
                "text of 4 GiB or more",
            ));
        }
        let mut out = Vec::with_capacity(token_bound(self.bytes));
        loop {
            let tok = self.next_token()?;
            let eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> u8 {
        *self.bytes.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.bytes.get(self.pos + 1).unwrap_or(&0)
    }

    fn skip_trivia(&mut self) -> Result<(), Box<SyntaxError>> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.bytes.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        if self.pos + 1 >= self.bytes.len() {
                            return Err(SyntaxError::new(
                                SyntaxErrorKind::UnterminatedComment,
                                Span::new(start, self.bytes.len()),
                                "unterminated block comment",
                            ));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                // Compiler directives such as `timescale are skipped to
                // end of line; they do not affect behavioural semantics
                // in this subset.
                b'`' => {
                    while self.pos < self.bytes.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Consumes the current byte as (the last byte of) a `kind` token.
    fn bump_as(&mut self, kind: TokenKind) -> TokenKind {
        self.pos += 1;
        kind
    }

    /// Consumes the current byte, and `next` if it follows: `long` then.
    fn one_or_two(&mut self, next: u8, long: TokenKind, short: TokenKind) -> TokenKind {
        self.pos += 1;
        if self.peek() == next {
            return self.bump_as(long);
        }
        short
    }

    fn next_token(&mut self) -> Result<Token, Box<SyntaxError>> {
        use TokenKind::*;
        self.skip_trivia()?;
        let start = self.pos;
        if self.pos >= self.bytes.len() {
            return Ok(Token::new(Eof, Span::point(start)));
        }
        let single = match self.peek() {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => return Ok(self.lex_ident(start)),
            b'0'..=b'9' => return self.lex_number(start),
            b'\'' => return self.lex_based_literal(start, None),
            b'$' => return Ok(self.lex_sys_ident(start)),
            b'"' => return self.lex_string(start),
            b'(' => Some(LParen),
            b')' => Some(RParen),
            b'[' => Some(LBracket),
            b']' => Some(RBracket),
            b'{' => Some(LBrace),
            b'}' => Some(RBrace),
            b';' => Some(Semi),
            b',' => Some(Comma),
            b':' => Some(Colon),
            b'.' => Some(Dot),
            b'#' => Some(Hash),
            b'@' => Some(At),
            b'?' => Some(Question),
            b'/' => Some(Slash),
            b'%' => Some(Percent),
            _ => None,
        };
        let kind = match (single, self.peek()) {
            (Some(kind), _) => self.bump_as(kind),
            (None, b'+') => self.one_or_two(b':', PlusColon, Plus),
            (None, b'-') => self.one_or_two(b':', MinusColon, Minus),
            (None, b'*') => self.one_or_two(b'*', Power, Star),
            (None, b'&') => self.one_or_two(b'&', AndAnd, Amp),
            (None, b'|') => self.one_or_two(b'|', OrOr, Pipe),
            (None, b'^') => self.one_or_two(b'~', TildeCaret, Caret),
            (None, b'!') => match self.one_or_two(b'=', NotEq, Not) {
                NotEq if self.peek() == b'=' => self.bump_as(CaseNe),
                kind => kind,
            },
            (None, b'=') => match self.one_or_two(b'=', EqEq, Assign) {
                EqEq if self.peek() == b'=' => self.bump_as(CaseEq),
                kind => kind,
            },
            (None, b'~') => match self.one_or_two(b'&', TildeAmp, Tilde) {
                Tilde if self.peek() == b'|' => self.bump_as(TildePipe),
                Tilde if self.peek() == b'^' => self.bump_as(TildeCaret),
                kind => kind,
            },
            (None, b'<') => match self.one_or_two(b'=', LeAssign, Lt) {
                Lt if self.peek() == b'<' => self.one_or_two(b'<', AShl, Shl),
                kind => kind,
            },
            (None, b'>') => match self.one_or_two(b'=', Ge, Gt) {
                Gt if self.peek() == b'>' => self.one_or_two(b'>', AShr, Shr),
                kind => kind,
            },
            (None, other) => {
                return Err(SyntaxError::new(
                    SyntaxErrorKind::UnexpectedChar(other as char),
                    Span::new(start, start + 1),
                    format!("unexpected character '{}'", other as char),
                ));
            }
        };
        Ok(Token::new(kind, Span::new(start, self.pos)))
    }

    fn lex_ident(&mut self, start: usize) -> Token {
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'$') {
            self.pos += 1;
        }
        let kind = match Keyword::lookup(&self.src[start..self.pos]) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident,
        };
        Token::new(kind, Span::new(start, self.pos))
    }

    fn lex_sys_ident(&mut self, start: usize) -> Token {
        self.pos += 1; // `$`
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.pos += 1;
        }
        Token::new(TokenKind::SysIdent, Span::new(start, self.pos))
    }

    fn lex_string(&mut self, start: usize) -> Result<Token, Box<SyntaxError>> {
        self.pos += 1; // opening quote
        while self.pos < self.bytes.len() && self.peek() != b'"' {
            if self.peek() == b'\\' {
                self.pos += 1;
            }
            self.pos += 1;
        }
        if self.pos >= self.bytes.len() {
            return Err(SyntaxError::new(
                SyntaxErrorKind::UnterminatedString,
                Span::new(start, self.bytes.len()),
                "unterminated string literal",
            ));
        }
        self.pos += 1; // closing quote
        Ok(Token::new(TokenKind::Str, Span::new(start, self.pos)))
    }

    fn lex_number(&mut self, start: usize) -> Result<Token, Box<SyntaxError>> {
        while matches!(self.peek(), b'0'..=b'9' | b'_') {
            self.pos += 1;
        }
        let digits = Span::new(start, self.pos);
        if self.peek() != b'\'' {
            return Ok(Token::new(TokenKind::Number, digits));
        }
        let written = digits.text(self.src);
        let width = written
            .bytes()
            .filter(|b| *b != b'_')
            .try_fold(0u32, |w, b| w.checked_mul(10)?.checked_add(u32::from(b - b'0')));
        let token = self.lex_based_literal(start, width)?;
        match width {
            Some(_) => Ok(token),
            None => Err(SyntaxError::unsupported_width(token.span(), written.replace('_', ""))),
        }
    }

    /// Lexes the `'b0101` part of a based literal; `width` was already
    /// consumed by the caller if present.
    fn lex_based_literal(
        &mut self,
        start: usize,
        width: Option<u32>,
    ) -> Result<Token, Box<SyntaxError>> {
        debug_assert_eq!(self.peek(), b'\'');
        self.pos += 1;
        let mut signed = false;
        if matches!(self.peek(), b's' | b'S')
            && matches!(self.peek2(), b'b' | b'B' | b'o' | b'O' | b'd' | b'D' | b'h' | b'H')
        {
            signed = true;
            self.pos += 1;
        }
        let base = NumberBase::of_letter(self.peek()).ok_or_else(|| {
            SyntaxError::new(
                SyntaxErrorKind::MalformedNumber,
                Span::new(start, self.pos + 1),
                format!("invalid base specifier '{}' in literal", self.peek() as char),
            )
        })?;
        self.pos += 1;
        // Digits may include x/z/? plus underscores; validate per base.
        let digits_start = self.pos;
        while matches!(
            self.peek(),
            b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F' | b'x' | b'X' | b'z' | b'Z' | b'?' | b'_'
        ) {
            self.pos += 1;
        }
        let span = Span::new(start, self.pos);
        let number = NumberToken { width, base, digits: Span::new(digits_start, self.pos), signed };
        let count = number.digit_chars(self.src).count();
        if count == 0 {
            return Err(SyntaxError::new(
                SyntaxErrorKind::MalformedNumber,
                span,
                "based literal has no digits",
            ));
        }
        for ch in number.digit_chars(self.src) {
            let ok = match ch {
                'x' | 'z' | '?' => base != NumberBase::Dec || count == 1,
                _ => ch.to_digit(16).map(|d| d < base.radix()).unwrap_or(false),
            };
            if !ok {
                return Err(SyntaxError::new(
                    SyntaxErrorKind::MalformedNumber,
                    span,
                    format!("digit '{ch}' is invalid for base {}", base.radix()),
                ));
            }
        }
        Ok(Token::new(TokenKind::Number, span))
    }
}

/// At least as many tokens as `bytes` lexes to, `Eof` included: a token
/// starts at a byte that is not whitespace and starts a word (a run of
/// `[A-Za-z0-9_]`, or a letter after a digit or `_`) or is no word byte,
/// save a name glued to a based literal (`8'hffgo`), which is counted at
/// the literal's `'` and base letter instead.
fn token_bound(bytes: &[u8]) -> usize {
    // Each byte's class, bit 0 a word byte, bit 1 a letter, bit 2 space.
    const CLASS: [u8; 256] = {
        let (mut class, mut b) = ([0; 256], 0);
        while b < 256 {
            let c = b as u8;
            class[b] = (c.is_ascii_alphanumeric() || c == b'_') as u8
                | (c.is_ascii_alphabetic() as u8) << 1
                | (c.is_ascii_whitespace() as u8) << 2;
            b += 1;
        }
        class
    };
    let (mut prev, mut bound) = (CLASS[b' ' as usize], 1);
    for &b in bytes {
        let class = CLASS[b as usize];
        let glued = class & prev & 1 & !((class >> 1) & (!prev >> 1));
        bound += usize::from(((class >> 2) | glued) == 0);
        prev = class;
    }
    bound
}

/// Convenience wrapper: lexes `src` in one call.
///
/// # Errors
///
/// Propagates the first [`SyntaxError`] found by the lexer.
pub fn tokenize(src: &str) -> Result<Vec<Token>, Box<SyntaxError>> {
    Lexer::new(src).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn number(src: &str, index: usize) -> NumberToken {
        tokenize(src).unwrap()[index].number(src).expect("a number")
    }

    fn digits(src: &str, index: usize) -> String {
        number(src, index).digit_chars(src).collect()
    }

    #[test]
    fn lexes_module_header() {
        let ks = kinds("module m(input a);");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Module),
                TokenKind::Ident,
                TokenKind::LParen,
                TokenKind::Keyword(Keyword::Input),
                TokenKind::Ident,
                TokenKind::RParen,
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_based_literals() {
        let src = "8'hFF 4'b10x1 'd15 12'o777 3'sb101";
        assert_eq!((number(src, 0).width, number(src, 0).base), (Some(8), NumberBase::Hex));
        assert_eq!(digits(src, 0), "ff");
        assert_eq!(digits(src, 1), "10x1");
        assert_eq!((number(src, 2).width, number(src, 2).base), (None, NumberBase::Dec));
        assert_eq!((number(src, 3).width, number(src, 3).base), (Some(12), NumberBase::Oct));
        assert!(number(src, 4).signed && !number(src, 3).signed);
    }

    #[test]
    fn lexes_operators() {
        let ks = kinds("=== !== == != <= >= << >> >>> ~& ~| ~^ ^~ && || ** +: -:");
        assert_eq!(
            ks[..18],
            [
                TokenKind::CaseEq,
                TokenKind::CaseNe,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::LeAssign,
                TokenKind::Ge,
                TokenKind::Shl,
                TokenKind::Shr,
                TokenKind::AShr,
                TokenKind::TildeAmp,
                TokenKind::TildePipe,
                TokenKind::TildeCaret,
                TokenKind::TildeCaret,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Power,
                TokenKind::PlusColon,
                TokenKind::MinusColon,
            ]
        );
    }

    #[test]
    fn skips_comments_and_directives() {
        let ks = kinds("// line\n/* block\nmulti */ `timescale 1ns/1ps\nwire");
        assert_eq!(ks, vec![TokenKind::Keyword(Keyword::Wire), TokenKind::Eof]);
    }

    #[test]
    fn spans_are_exact() {
        let src = "assign y = a;";
        let toks = tokenize(src).unwrap();
        assert_eq!(toks[0].span().text(src), "assign");
        assert_eq!(toks[1].span().text(src), "y");
        assert_eq!(toks[3].span().text(src), "a");
    }

    #[test]
    fn unterminated_comment_errors() {
        let err = tokenize("/* oops").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::UnterminatedComment));
    }

    #[test]
    fn malformed_literal_errors() {
        assert!(tokenize("8'q12").is_err());
        assert!(tokenize("4'b").is_err());
        assert!(tokenize("8'b2").is_err());
    }

    #[test]
    fn underscores_in_numbers() {
        let src = "32'hDEAD_BEEF 1_000";
        assert_eq!(digits(src, 0), "deadbeef");
        assert_eq!(digits(src, 1), "1000");
    }

    #[test]
    fn width_past_u32_is_malformed() {
        let err = tokenize("99999999999'd1").unwrap_err();
        assert_eq!(err.kind, SyntaxErrorKind::MalformedNumber);
        assert_eq!(err.message, "unsupported literal width 99999999999 (1..=128)");
        assert_eq!(err.span, Span::new(0, 14));
        let err = tokenize("99_999_999_999'd1").unwrap_err();
        assert_eq!(err.message, "unsupported literal width 99999999999 (1..=128)");
        // A width that fits in 32 bits lexes; the parser rejects it.
        let src = "module m(output y);\nassign y = 4000000000'd1;\nendmodule\n";
        let err = crate::parse(src).unwrap_err();
        assert_eq!(err.kind, SyntaxErrorKind::MalformedNumber);
        assert_eq!(err.message, "unsupported literal width 4000000000 (1..=128)");
        let err = crate::parse(&src.replace("4000000000", "99999999999")).unwrap_err();
        assert_eq!(err.kind, SyntaxErrorKind::MalformedNumber);
        assert_eq!(err.message, "unsupported literal width 99999999999 (1..=128)");
    }

    #[test]
    fn tokens_own_no_text() {
        let src = "assign y = $f(\"s\") + 8'sh_A;";
        let toks = tokenize(src).unwrap();
        let texts: Vec<&str> = toks.iter().map(|t| t.span().text(src)).collect();
        assert_eq!(texts, ["assign", "y", "=", "$f", "(", "\"s\"", ")", "+", "8'sh_A", ";", ""]);
        assert_eq!(toks[1].kind, TokenKind::Ident);
        assert_eq!(toks[3].kind, TokenKind::SysIdent);
        assert_eq!(toks[5].kind, TokenKind::Str);
        let n = toks[8].number(src).expect("a number");
        assert_eq!((n.width, n.base, n.signed), (Some(8), NumberBase::Hex, true));
        assert_eq!(n.digits.text(src), "_A");
    }

    #[test]
    fn the_token_bound_holds() {
        for src in
            ["8'hffgo 123abc 123_abc 8'sh_A_b 'hF?x a$b$c x8'd1", "", "  ", "a", "8'hAAgo'hBBgo"]
        {
            let tokens = tokenize(src).unwrap().len();
            assert!(token_bound(src.as_bytes()) >= tokens, "{src:?}: {tokens} tokens");
        }
        assert_eq!(token_bound(b"assign y = a_1 + 8'hFF;"), 10);
    }

    #[test]
    fn unexpected_char_errors() {
        let err = tokenize("wire \\bad").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::UnexpectedChar('\\')));
    }
}
