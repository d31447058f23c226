//! Byte-offset source spans and line/column resolution.

use std::fmt;

/// A half-open byte range `[start, end)` into a source string.
///
/// Spans are attached to tokens, statements and module items so that
/// downstream tools (the linter, the localization engine, the error
/// generator) can point at, extract, or surgically rewrite the exact
/// source text of a construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// A zero-width span at `pos`, used for "insert here" diagnostics.
    pub fn point(pos: usize) -> Self {
        Span { start: pos, end: pos }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Extracts the spanned text from `src`.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of bounds for `src`.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Maps byte offsets to 1-based line and column numbers.
///
/// Construct once per source file; lookups are `O(log lines)`.
#[derive(Debug, Clone)]
pub struct LineMap {
    /// Byte offset at which each line starts; `line_starts[0] == 0`.
    line_starts: Vec<usize>,
    len: usize,
}

impl LineMap {
    /// Builds a line map for `src`.
    pub fn new(src: &str) -> Self {
        let mut line_starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        LineMap { line_starts, len: src.len() }
    }

    /// Returns the 1-based line number containing byte `offset`.
    pub fn line(&self, offset: usize) -> u32 {
        let offset = offset.min(self.len);
        match self.line_starts.binary_search(&offset) {
            Ok(idx) => idx as u32 + 1,
            Err(idx) => idx as u32,
        }
    }

    /// Returns 1-based `(line, column)` for byte `offset`.
    pub fn line_col(&self, offset: usize) -> (u32, u32) {
        let line = self.line(offset);
        let line_start = self.line_starts[(line - 1) as usize];
        (line, (offset.saturating_sub(line_start)) as u32 + 1)
    }

    /// Byte offset at which 1-based `line` starts, if it exists.
    pub fn line_start(&self, line: u32) -> Option<usize> {
        self.line_starts.get((line as usize).checked_sub(1)?).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_and_text() {
        let a = Span::new(2, 5);
        let b = Span::new(4, 9);
        assert_eq!(a.merge(b), Span::new(2, 9));
        assert_eq!(Span::new(0, 5).text("module m;"), "modul");
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Span::point(3).is_empty());
    }

    #[test]
    fn line_map_basic() {
        let src = "abc\ndef\nghi";
        let map = LineMap::new(src);
        assert_eq!(map.line_col(0), (1, 1));
        assert_eq!(map.line_col(3), (1, 4));
        assert_eq!(map.line_col(4), (2, 1));
        assert_eq!(map.line_col(9), (3, 2));
        assert_eq!(map.line_start(2), Some(4));
        assert_eq!(map.line_start(9), None);
    }

    #[test]
    fn line_map_offset_past_end_clamps() {
        let map = LineMap::new("x\ny");
        assert_eq!(map.line(100), 2);
    }

    #[test]
    fn line_map_empty_source() {
        let map = LineMap::new("");
        assert_eq!(map.line_start(1), Some(0));
        assert_eq!(map.line_start(2), None);
        assert_eq!(map.line_col(0), (1, 1));
    }
}
