//! Token definitions for the Verilog lexer.

use crate::span::Span;
use std::fmt::{self, Write as _};

/// A lexed token: kind plus the source span it was read from.
///
/// A token owns no text: identifiers, literals and strings are read
/// back from the source through [`Token::span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

impl Token {
    /// Creates a token of `kind` covering `span`.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// The token as error messages show it, read from `src` (the text
    /// it was lexed from): literals normalised the way
    /// [`NumberToken::digit_chars`] reads them, widths without
    /// underscores and no signedness marker (`8'sh_FF` shows as `8'hff`).
    pub(crate) fn display<'s>(&'s self, src: &'s str) -> impl fmt::Display + 's {
        Shown { token: self, src }
    }
}

/// [`Token::display`]'s rendering.
struct Shown<'s> {
    token: &'s Token,
    src: &'s str,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.token.kind {
            TokenKind::Ident | TokenKind::SysIdent | TokenKind::Str => {
                f.write_str(self.token.span.text(self.src))
            }
            TokenKind::Number(n) => {
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

/// Verilog keywords recognised by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Keyword {
    Module,
    Endmodule,
    Input,
    Output,
    Inout,
    Wire,
    Reg,
    Integer,
    Parameter,
    Localparam,
    Assign,
    Always,
    Initial,
    Begin,
    End,
    If,
    Else,
    Case,
    Casez,
    Casex,
    Endcase,
    Default,
    For,
    While,
    Posedge,
    Negedge,
    Or,
    Signed,
    Function,
    Endfunction,
    Genvar,
    Generate,
    Endgenerate,
}

impl Keyword {
    /// Looks up a keyword from its source spelling.
    pub fn lookup(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "module" => Module,
            "endmodule" => Endmodule,
            "input" => Input,
            "output" => Output,
            "inout" => Inout,
            "wire" => Wire,
            "reg" => Reg,
            "integer" => Integer,
            "parameter" => Parameter,
            "localparam" => Localparam,
            "assign" => Assign,
            "always" => Always,
            "initial" => Initial,
            "begin" => Begin,
            "end" => End,
            "if" => If,
            "else" => Else,
            "case" => Case,
            "casez" => Casez,
            "casex" => Casex,
            "endcase" => Endcase,
            "default" => Default,
            "for" => For,
            "while" => While,
            "posedge" => Posedge,
            "negedge" => Negedge,
            "or" => Or,
            "signed" => Signed,
            "function" => Function,
            "endfunction" => Endfunction,
            "genvar" => Genvar,
            "generate" => Generate,
            "endgenerate" => Endgenerate,
            _ => return None,
        })
    }

    /// The canonical source spelling of the keyword.
    pub fn as_str(&self) -> &'static str {
        use Keyword::*;
        match self {
            Module => "module",
            Endmodule => "endmodule",
            Input => "input",
            Output => "output",
            Inout => "inout",
            Wire => "wire",
            Reg => "reg",
            Integer => "integer",
            Parameter => "parameter",
            Localparam => "localparam",
            Assign => "assign",
            Always => "always",
            Initial => "initial",
            Begin => "begin",
            End => "end",
            If => "if",
            Else => "else",
            Case => "case",
            Casez => "casez",
            Casex => "casex",
            Endcase => "endcase",
            Default => "default",
            For => "for",
            While => "while",
            Posedge => "posedge",
            Negedge => "negedge",
            Or => "or",
            Signed => "signed",
            Function => "function",
            Endfunction => "endfunction",
            Genvar => "genvar",
            Generate => "generate",
            Endgenerate => "endgenerate",
        }
    }
}

/// A numeric literal as written in the source.
///
/// `32'hDEAD_beef` lexes to `width: Some(32)`, `base: Hex` and `digits`
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

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier (not a keyword); the token's span is its name.
    Ident,
    /// Reserved word.
    Keyword(Keyword),
    /// Numeric literal.
    Number(NumberToken),
    /// String literal; the token's span covers it with its quotes.
    Str,
    /// System task/function name including the `$`, e.g. `$display`;
    /// the token's span is the name.
    SysIdent,

    // Punctuation and operators.
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Semi,
    Comma,
    Colon,
    Dot,
    Hash,
    At,
    Question,
    Assign,     // =
    PlusColon,  // +:
    MinusColon, // -:

    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Power, // **

    Not,        // !
    Tilde,      // ~
    Amp,        // &
    Pipe,       // |
    Caret,      // ^
    TildeAmp,   // ~&
    TildePipe,  // ~|
    TildeCaret, // ~^ or ^~

    AndAnd, // &&
    OrOr,   // ||

    EqEq,   // ==
    NotEq,  // !=
    CaseEq, // ===
    CaseNe, // !==

    Lt,
    Le,
    Gt,
    Ge,

    Shl,  // <<
    Shr,  // >>
    AShr, // >>>
    AShl, // <<<

    LeAssign, // <= (non-blocking assign / less-equal, disambiguated by parser)

    /// End of input.
    Eof,
}

impl TokenKind {
    /// The fixed source spelling of a keyword or punctuation kind
    /// (`^~` spells as `~^`); identifiers, literals and strings, whose
    /// text is in the source, spell as the empty string.
    fn spelling(&self) -> &'static str {
        use TokenKind::*;
        match self {
            Keyword(k) => k.as_str(),
            Ident | Number(_) | Str | SysIdent => "",
            LParen => "(",
            RParen => ")",
            LBracket => "[",
            RBracket => "]",
            LBrace => "{",
            RBrace => "}",
            Semi => ";",
            Comma => ",",
            Colon => ":",
            Dot => ".",
            Hash => "#",
            At => "@",
            Question => "?",
            Assign => "=",
            PlusColon => "+:",
            MinusColon => "-:",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Power => "**",
            Not => "!",
            Tilde => "~",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            TildeAmp => "~&",
            TildePipe => "~|",
            TildeCaret => "~^",
            AndAnd => "&&",
            OrOr => "||",
            EqEq => "==",
            NotEq => "!=",
            CaseEq => "===",
            CaseNe => "!==",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            Shl => "<<",
            Shr => ">>",
            AShr => ">>>",
            AShl => "<<<",
            LeAssign => "<=",
            Eof => "<eof>",
        }
    }
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
