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
    /// The token vector is the one allocation: every token covers at
    /// least one byte, so it is sized for one token per byte plus `Eof`.
    ///
    /// # Errors
    ///
    /// Returns a [`SyntaxError`] for unterminated comments/strings,
    /// malformed based literals and unexpected characters.
    pub fn tokenize(mut self) -> Result<Vec<Token>, SyntaxError> {
        let mut out = Vec::with_capacity(self.bytes.len() + 1);
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

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn skip_trivia(&mut self) -> Result<(), SyntaxError> {
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

    fn next_token(&mut self) -> Result<Token, SyntaxError> {
        self.skip_trivia()?;
        let start = self.pos;
        if self.pos >= self.bytes.len() {
            return Ok(Token::new(TokenKind::Eof, Span::point(start)));
        }
        let c = self.peek();
        let kind = match c {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => return Ok(self.lex_ident(start)),
            b'0'..=b'9' => return self.lex_number(start),
            b'\'' => return self.lex_based_literal(start, None),
            b'$' => return Ok(self.lex_sys_ident(start)),
            b'"' => return self.lex_string(start),
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b'[' => {
                self.bump();
                TokenKind::LBracket
            }
            b']' => {
                self.bump();
                TokenKind::RBracket
            }
            b'{' => {
                self.bump();
                TokenKind::LBrace
            }
            b'}' => {
                self.bump();
                TokenKind::RBrace
            }
            b';' => {
                self.bump();
                TokenKind::Semi
            }
            b',' => {
                self.bump();
                TokenKind::Comma
            }
            b':' => {
                self.bump();
                TokenKind::Colon
            }
            b'.' => {
                self.bump();
                TokenKind::Dot
            }
            b'#' => {
                self.bump();
                TokenKind::Hash
            }
            b'@' => {
                self.bump();
                TokenKind::At
            }
            b'?' => {
                self.bump();
                TokenKind::Question
            }
            b'+' => {
                self.bump();
                if self.peek() == b':' {
                    self.bump();
                    TokenKind::PlusColon
                } else {
                    TokenKind::Plus
                }
            }
            b'-' => {
                self.bump();
                if self.peek() == b':' {
                    self.bump();
                    TokenKind::MinusColon
                } else {
                    TokenKind::Minus
                }
            }
            b'*' => {
                self.bump();
                if self.peek() == b'*' {
                    self.bump();
                    TokenKind::Power
                } else {
                    TokenKind::Star
                }
            }
            b'/' => {
                self.bump();
                TokenKind::Slash
            }
            b'%' => {
                self.bump();
                TokenKind::Percent
            }
            b'!' => {
                self.bump();
                if self.peek() == b'=' {
                    self.bump();
                    if self.peek() == b'=' {
                        self.bump();
                        TokenKind::CaseNe
                    } else {
                        TokenKind::NotEq
                    }
                } else {
                    TokenKind::Not
                }
            }
            b'~' => {
                self.bump();
                match self.peek() {
                    b'&' => {
                        self.bump();
                        TokenKind::TildeAmp
                    }
                    b'|' => {
                        self.bump();
                        TokenKind::TildePipe
                    }
                    b'^' => {
                        self.bump();
                        TokenKind::TildeCaret
                    }
                    _ => TokenKind::Tilde,
                }
            }
            b'&' => {
                self.bump();
                if self.peek() == b'&' {
                    self.bump();
                    TokenKind::AndAnd
                } else {
                    TokenKind::Amp
                }
            }
            b'|' => {
                self.bump();
                if self.peek() == b'|' {
                    self.bump();
                    TokenKind::OrOr
                } else {
                    TokenKind::Pipe
                }
            }
            b'^' => {
                self.bump();
                if self.peek() == b'~' {
                    self.bump();
                    TokenKind::TildeCaret
                } else {
                    TokenKind::Caret
                }
            }
            b'=' => {
                self.bump();
                if self.peek() == b'=' {
                    self.bump();
                    if self.peek() == b'=' {
                        self.bump();
                        TokenKind::CaseEq
                    } else {
                        TokenKind::EqEq
                    }
                } else {
                    TokenKind::Assign
                }
            }
            b'<' => {
                self.bump();
                match self.peek() {
                    b'=' => {
                        self.bump();
                        TokenKind::LeAssign
                    }
                    b'<' => {
                        self.bump();
                        if self.peek() == b'<' {
                            self.bump();
                            TokenKind::AShl
                        } else {
                            TokenKind::Shl
                        }
                    }
                    _ => TokenKind::Lt,
                }
            }
            b'>' => {
                self.bump();
                match self.peek() {
                    b'=' => {
                        self.bump();
                        TokenKind::Ge
                    }
                    b'>' => {
                        self.bump();
                        if self.peek() == b'>' {
                            self.bump();
                            TokenKind::AShr
                        } else {
                            TokenKind::Shr
                        }
                    }
                    _ => TokenKind::Gt,
                }
            }
            other => {
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

    fn lex_string(&mut self, start: usize) -> Result<Token, SyntaxError> {
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

    fn lex_number(&mut self, start: usize) -> Result<Token, SyntaxError> {
        while matches!(self.peek(), b'0'..=b'9' | b'_') {
            self.pos += 1;
        }
        let digits = Span::new(start, self.pos);
        if self.peek() != b'\'' {
            let number = NumberToken { width: None, base: NumberBase::Dec, digits, signed: false };
            return Ok(Token::new(TokenKind::Number(number), digits));
        }
        let written = digits.text(self.src);
        let width = written
            .bytes()
            .filter(|b| *b != b'_')
            .try_fold(0u32, |w, b| w.checked_mul(10)?.checked_add(u32::from(b - b'0')));
        let token = self.lex_based_literal(start, width)?;
        match width {
            Some(_) => Ok(token),
            None => Err(SyntaxError::unsupported_width(token.span, written.replace('_', ""))),
        }
    }

    /// Lexes the `'b0101` part of a based literal; `width` was already
    /// consumed by the caller if present.
    fn lex_based_literal(
        &mut self,
        start: usize,
        width: Option<u32>,
    ) -> Result<Token, SyntaxError> {
        debug_assert_eq!(self.peek(), b'\'');
        self.pos += 1;
        let mut signed = false;
        if matches!(self.peek(), b's' | b'S')
            && matches!(self.peek2(), b'b' | b'B' | b'o' | b'O' | b'd' | b'D' | b'h' | b'H')
        {
            signed = true;
            self.pos += 1;
        }
        let base = match self.peek() {
            b'b' | b'B' => NumberBase::Bin,
            b'o' | b'O' => NumberBase::Oct,
            b'd' | b'D' => NumberBase::Dec,
            b'h' | b'H' => NumberBase::Hex,
            other => {
                return Err(SyntaxError::new(
                    SyntaxErrorKind::MalformedNumber,
                    Span::new(start, self.pos + 1),
                    format!("invalid base specifier '{}' in literal", other as char),
                ));
            }
        };
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
        Ok(Token::new(TokenKind::Number(number), span))
    }
}

/// Convenience wrapper: lexes `src` in one call.
///
/// # Errors
///
/// Propagates the first [`SyntaxError`] found by the lexer.
pub fn tokenize(src: &str) -> Result<Vec<Token>, SyntaxError> {
    Lexer::new(src).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn digits(src: &str, kind: &TokenKind) -> String {
        match kind {
            TokenKind::Number(n) => n.digit_chars(src).collect(),
            other => panic!("expected number, got {other:?}"),
        }
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
        let ks = kinds(src);
        match &ks[0] {
            TokenKind::Number(n) => {
                assert_eq!(n.width, Some(8));
                assert_eq!(n.base, NumberBase::Hex);
            }
            other => panic!("expected number, got {other:?}"),
        }
        assert_eq!(digits(src, &ks[0]), "ff");
        assert_eq!(digits(src, &ks[1]), "10x1");
        match &ks[2] {
            TokenKind::Number(n) => {
                assert_eq!(n.width, None);
                assert_eq!(n.base, NumberBase::Dec);
            }
            other => panic!("expected number, got {other:?}"),
        }
        match &ks[4] {
            TokenKind::Number(n) => assert!(n.signed),
            other => panic!("expected number, got {other:?}"),
        }
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
        assert_eq!(toks[0].span.text(src), "assign");
        assert_eq!(toks[1].span.text(src), "y");
        assert_eq!(toks[3].span.text(src), "a");
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
        let ks = kinds(src);
        assert_eq!(digits(src, &ks[0]), "deadbeef");
        assert_eq!(digits(src, &ks[1]), "1000");
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
        let texts: Vec<&str> = toks.iter().map(|t| t.span.text(src)).collect();
        assert_eq!(texts, ["assign", "y", "=", "$f", "(", "\"s\"", ")", "+", "8'sh_A", ";", ""]);
        assert_eq!(toks[1].kind, TokenKind::Ident);
        assert_eq!(toks[3].kind, TokenKind::SysIdent);
        assert_eq!(toks[5].kind, TokenKind::Str);
        let TokenKind::Number(n) = toks[8].kind else { panic!("{:?}", toks[8]) };
        assert_eq!((n.width, n.base, n.signed), (Some(8), NumberBase::Hex, true));
        assert_eq!(n.digits.text(src), "_A");
    }

    #[test]
    fn unexpected_char_errors() {
        let err = tokenize("wire \\bad").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::UnexpectedChar('\\')));
    }
}
