//! Syntax error types shared by the lexer and parser.

use crate::span::{LineMap, Span};
use std::fmt;

/// Classification of a syntax error, used by the pre-processing stage to
/// route errors to the right repair strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyntaxErrorKind {
    /// A character that can never start a token.
    UnexpectedChar(char),
    /// `/*` without a matching `*/`.
    UnterminatedComment,
    /// `"` without a matching closing quote.
    UnterminatedString,
    /// A based literal with a bad base or digits.
    MalformedNumber,
    /// The parser found a token it cannot use here.
    UnexpectedToken {
        /// What the parser found, rendered as source text.
        found: String,
        /// What the parser was looking for.
        expected: String,
    },
    /// Input ended while a construct was still open (e.g. missing
    /// `end`/`endmodule`).
    UnexpectedEof {
        /// What the parser was looking for.
        expected: String,
    },
    /// Expressions or statements nest deeper than the parser follows
    /// ([`crate::parser::MAX_NESTING`]).
    TooDeep {
        /// The nesting bound that was exceeded.
        limit: usize,
    },
    /// The text is 4 GiB or longer, past what a token's offsets hold.
    TooLong,
}

/// A fatal syntax error with location information.
///
/// Rendered messages follow the `file.v:LINE:COL: message` convention so
/// that prompt builders and the heuristic repair backend can parse them
/// the same way they would parse a real compiler log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    /// Error classification.
    pub kind: SyntaxErrorKind,
    /// Where in the source the error was detected.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
}

impl SyntaxError {
    /// Creates an error of `kind` at `span` with `message`, boxed: every
    /// `?` of the lexer and the parser moves a `Result` of one.
    pub fn new(kind: SyntaxErrorKind, span: Span, message: impl Into<String>) -> Box<Self> {
        Box::new(SyntaxError { kind, span, message: message.into() })
    }

    /// A literal at `span` whose width, `written` without underscores,
    /// is outside 1..=128.
    pub(crate) fn unsupported_width(span: Span, written: impl fmt::Display) -> Box<Self> {
        SyntaxError::new(
            SyntaxErrorKind::MalformedNumber,
            span,
            format!("unsupported literal width {written} (1..=128)"),
        )
    }

    /// Renders the error in compiler-log style against `src`.
    pub fn render(&self, src: &str) -> String {
        let map = LineMap::new(src);
        let (line, col) = map.line_col(self.span.start);
        format!("%Error: dut.v:{line}:{col}: {}", self.message)
    }

    /// The 1-based line of the error within `src`.
    pub fn line(&self, src: &str) -> u32 {
        LineMap::new(src).line(self.span.start)
    }
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "syntax error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for SyntaxError {}

const _: () = assert!(std::mem::size_of::<Result<crate::Expr, Box<SyntaxError>>>() <= 48);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_line_and_column() {
        let src = "module m;\nwire @;\nendmodule\n";
        let at = src.find('@').unwrap();
        let err = SyntaxError::new(
            SyntaxErrorKind::UnexpectedChar('@'),
            Span::new(at, at + 1),
            "unexpected character '@'",
        );
        let rendered = err.render(src);
        assert!(rendered.contains("dut.v:2:6"), "got: {rendered}");
        assert_eq!(err.line(src), 2);
    }

    #[test]
    fn display_is_nonempty() {
        let err = SyntaxError::new(
            SyntaxErrorKind::UnexpectedEof { expected: "endmodule".into() },
            Span::point(3),
            "unexpected end of input",
        );
        assert!(!err.to_string().is_empty());
    }
}
