//! Token definitions for the Verilog lexer.

use crate::span::Span;
use std::fmt::{self, Write as _};

/// A lexed token: its kind and where in the source it was read.
///
/// A token owns no text: identifiers, literals and strings are read
/// back from the source through [`Token::span`], and a literal's parts
/// through [`Token::number`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Byte offset of the token's first character.
    pub start: u32,
    /// Length of the token in bytes.
    pub len: u32,
}

impl Token {
    /// A token of `kind` at `span` (texts are under 4 GiB).
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, start: span.start as u32, len: span.len() as u32 }
    }

    /// The source range the token was read from.
    pub fn span(&self) -> Span {
        let start = self.start as usize;
        Span::new(start, start + self.len as usize)
    }

    /// The parts of a number token lexed from `src`.
    pub fn number(&self, src: &str) -> Option<NumberToken> {
        (self.kind == TokenKind::Number).then(|| NumberToken::read(self.span(), src))
    }

    /// The token as error messages show it, read from `src` (the text
    /// it was lexed from): literals normalised the way
    /// [`NumberToken::digit_chars`] reads them, widths without
    /// underscores and no signedness marker (`8'sh_FF` shows as `8'hff`).
    pub(crate) fn display<'s>(&'s self, src: &'s str) -> impl fmt::Display + 's {
        Shown { token: self, src }
    }
}

// A golden design lexes to a few hundred of these.
const _: () = assert!(std::mem::size_of::<Token>() == 12);

/// [`Token::display`]'s rendering.
struct Shown<'s> {
    token: &'s Token,
    src: &'s str,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.token.kind {
            TokenKind::Ident | TokenKind::SysIdent | TokenKind::Str => {
                f.write_str(self.token.span().text(self.src))
            }
            TokenKind::Number => {
                let n = NumberToken::read(self.token.span(), self.src);
                if let Some(w) = n.width {
                    write!(f, "{w}'{}", n.base.letter())?;
                } else if n.base != NumberBase::Dec {
                    write!(f, "'{}", n.base.letter())?;
                }
                n.digit_chars(self.src).try_for_each(|c| f.write_char(c))
            }
            kind => f.write_str(kind.spelling()),
        }
    }
}

/// Declares [`Keyword`], each keyword with its source spelling.
macro_rules! keywords {
    ($($keyword:ident $spelling:literal),* $(,)?) => {
        /// Verilog keywords recognised by the lexer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Keyword {
            $($keyword,)*
        }

        impl Keyword {
            /// Looks up a keyword from its source spelling.
            pub fn lookup(s: &str) -> Option<Keyword> {
                Some(match s {
                    $($spelling => Keyword::$keyword,)*
                    _ => return None,
                })
            }

            /// The canonical source spelling of the keyword.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(Keyword::$keyword => $spelling,)*
                }
            }
        }
    };
}

keywords! {
    Module "module", Endmodule "endmodule", Input "input", Output "output",
    Inout "inout", Wire "wire", Reg "reg", Integer "integer",
    Parameter "parameter", Localparam "localparam", Assign "assign", Always "always",
    Initial "initial", Begin "begin", End "end", If "if",
    Else "else", Case "case", Casez "casez", Casex "casex",
    Endcase "endcase", Default "default", For "for", While "while",
    Posedge "posedge", Negedge "negedge", Or "or", Signed "signed",
    Function "function", Endfunction "endfunction", Genvar "genvar", Generate "generate",
    Endgenerate "endgenerate",
}

/// A numeric literal as written in the source, read back from a
/// [`TokenKind::Number`] token ([`Token::number`]).
///
/// `32'hDEAD_beef` reads as `width: Some(32)`, `base: Hex` and `digits`
/// spanning `DEAD_beef`, which [`NumberToken::digit_chars`] reads as
/// `deadbeef`. Plain decimal numbers have `width: None` and `base: Dec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumberToken {
    /// Explicit bit width before the base marker, if any.
    pub width: Option<u32>,
    /// Radix of the digits.
    pub base: NumberBase,
    /// Where the digit characters are, underscores and case as written
    /// (may contain `x`/`z`/`?`).
    pub digits: Span,
    /// Whether the literal used a signed base marker such as `'sd`.
    pub signed: bool,
}

impl NumberToken {
    /// The parts of the literal at `span` of `src`, which the lexer
    /// accepted as one (so a width fits in `u32`).
    fn read(span: Span, src: &str) -> NumberToken {
        let text = span.text(src);
        let Some(apos) = text.find('\'') else {
            return NumberToken { width: None, base: NumberBase::Dec, digits: span, signed: false };
        };
        let width = (apos > 0).then(|| {
            text[..apos].bytes().filter(|b| *b != b'_').fold(0, |w, b| w * 10 + u32::from(b - b'0'))
        });
        let signed = matches!(text.as_bytes()[apos + 1], b's' | b'S');
        let at = apos + 1 + usize::from(signed);
        let base = NumberBase::of_letter(text.as_bytes()[at]).expect("the lexer read a base");
        NumberToken { width, base, digits: Span::new(span.start + at + 1, span.end), signed }
    }

    /// The digits read from `src` with underscores dropped and letters
    /// lower-cased.
    pub fn digit_chars<'s>(&self, src: &'s str) -> impl Iterator<Item = char> + 's {
        self.digits.text(src).chars().filter(|c| *c != '_').map(|c| c.to_ascii_lowercase())
    }
}

/// Radix of a based literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumberBase {
    Bin,
    Oct,
    Dec,
    Hex,
}

impl NumberBase {
    /// The base a letter (`b`, `o`, `d`, `h`, either case) names.
    pub fn of_letter(letter: u8) -> Option<NumberBase> {
        let bases = [NumberBase::Bin, NumberBase::Oct, NumberBase::Dec, NumberBase::Hex];
        bases.into_iter().find(|base| base.letter() as u8 == (letter | 0x20))
    }

    /// The numeric radix.
    pub fn radix(&self) -> u32 {
        match self {
            NumberBase::Bin => 2,
            NumberBase::Oct => 8,
            NumberBase::Dec => 10,
            NumberBase::Hex => 16,
        }
    }

    /// Bits encoded by one digit in this base (decimal reports 4).
    pub fn bits_per_digit(&self) -> u32 {
        match self {
            NumberBase::Bin => 1,
            NumberBase::Oct => 3,
            NumberBase::Dec => 4,
            NumberBase::Hex => 4,
        }
    }

    /// The base letter used in source (`b`, `o`, `d`, `h`).
    pub fn letter(&self) -> char {
        match self {
            NumberBase::Bin => 'b',
            NumberBase::Oct => 'o',
            NumberBase::Dec => 'd',
            NumberBase::Hex => 'h',
        }
    }
}

/// Declares [`TokenKind`] with the fixed spelling of each punctuation
/// and operator kind.
macro_rules! token_kinds {
    ($($kind:ident $spelling:literal),* $(,)?) => {
        /// The kind of a lexed token.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TokenKind {
            /// Identifier (not a keyword); the token's span is its name.
            Ident,
            /// Reserved word.
            Keyword(Keyword),
            /// Numeric literal; [`Token::number`] reads its parts.
            Number,
            /// String literal; the token's span covers it with its quotes.
            Str,
            /// System task/function name including the `$`, e.g.
            /// `$display`; the token's span is the name.
            SysIdent,
            /// End of input.
            Eof,
            $($kind,)*
        }

        impl TokenKind {
            /// The fixed source spelling of a keyword or punctuation kind
            /// (`^~` spells as `~^`, `<=` is `LeAssign` whichever it
            /// means); identifiers, literals and strings, whose text is
            /// in the source, spell as the empty string.
            fn spelling(&self) -> &'static str {
                match self {
                    TokenKind::Keyword(k) => k.as_str(),
                    TokenKind::Ident | TokenKind::Number | TokenKind::Str | TokenKind::SysIdent => "",
                    TokenKind::Eof => "<eof>",
                    $(TokenKind::$kind => $spelling,)*
                }
            }
        }
    };
}

token_kinds! {
    LParen "(", RParen ")", LBracket "[", RBracket "]", LBrace "{",
    RBrace "}", Semi ";", Comma ",", Colon ":", Dot ".",
    Hash "#", At "@", Question "?", Assign "=", PlusColon "+:",
    MinusColon "-:", Plus "+", Minus "-", Star "*", Slash "/",
    Percent "%", Power "**", Not "!", Tilde "~", Amp "&",
    Pipe "|", Caret "^", TildeAmp "~&", TildePipe "~|", TildeCaret "~^",
    AndAnd "&&", OrOr "||", EqEq "==", NotEq "!=", CaseEq "===",
    CaseNe "!==", Lt "<", Gt ">", Ge ">=", Shl "<<",
    Shr ">>", AShr ">>>", AShl "<<<", LeAssign "<=",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in [
            Keyword::Module,
            Keyword::Endmodule,
            Keyword::Always,
            Keyword::Posedge,
            Keyword::Casez,
            Keyword::Localparam,
        ] {
            assert_eq!(Keyword::lookup(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::lookup("alway"), None);
    }

    #[test]
    fn number_token_display() {
        let src = "8'sh_FF 4_2 'O1_7 ^~ \"a_b\" $x";
        let shown: Vec<String> = crate::lexer::tokenize(src)
            .unwrap()
            .iter()
            .map(|t| t.display(src).to_string())
            .collect();
        assert_eq!(shown, ["8'hff", "42", "'o17", "~^", "\"a_b\"", "$x", "<eof>"]);
    }

    #[test]
    fn base_properties() {
        assert_eq!(NumberBase::Bin.radix(), 2);
        assert_eq!(NumberBase::Hex.bits_per_digit(), 4);
        assert_eq!(NumberBase::Oct.letter(), 'o');
    }
}
