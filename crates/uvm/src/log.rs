//! UVM-style simulation log: the artefact Algorithm 2's `getMismatch`
//! reads. Entries are kept typed — a scoreboard mismatch is its record,
//! not its text — and formatted only when rendered, so a reader of the
//! records ([`crate::RunSummary::mismatches`]) pays for no text and a
//! reader of the text gets the same bytes as ever.

use crate::scoreboard::Mismatch;
use std::fmt::{self, Write as _};
use uvllm_sim::Logic;

/// Log severity, following UVM report levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UvmSeverity {
    Info,
    Warning,
    Error,
    Fatal,
}

impl fmt::Display for UvmSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UvmSeverity::Info => "UVM_INFO",
            UvmSeverity::Warning => "UVM_WARNING",
            UvmSeverity::Error => "UVM_ERROR",
            UvmSeverity::Fatal => "UVM_FATAL",
        })
    }
}

/// What one log entry says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogMessage {
    Text(String),
    /// A scoreboard mismatch, rendered in the canonical format
    /// [`UvmLog::parse_mismatch_line`] reads back.
    Mismatch {
        signal: String,
        expected: Logic,
        actual: Logic,
    },
}

impl fmt::Display for LogMessage {
    /// The signal name is quote-escaped so [`UvmLog::parse_mismatches`]
    /// recovers it byte-exactly whatever characters it contains.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogMessage::Text(text) => f.write_str(text),
            LogMessage::Mismatch { signal, expected, actual } => {
                f.write_str("mismatch on signal '")?;
                for c in signal.chars() {
                    if c == '\\' || c == '\'' {
                        f.write_char('\\')?;
                    }
                    f.write_char(c)?;
                }
                write!(f, "': expected {expected} actual {actual}")
            }
        }
    }
}

/// One log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    pub severity: UvmSeverity,
    pub time: u64,
    /// Emitting component, e.g. `scoreboard`, `driver`.
    pub component: &'static str,
    pub message: LogMessage,
}

impl fmt::Display for LogEntry {
    /// UVM log style:
    /// `UVM_ERROR @ 125 [scoreboard] mismatch on signal 'sum': …`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {} [{}] {}", self.severity, self.time, self.component, self.message)
    }
}

/// The whole log of one UVM run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UvmLog {
    pub entries: Vec<LogEntry>,
}

impl UvmLog {
    /// New empty log.
    pub fn new() -> Self {
        UvmLog::default()
    }

    /// Appends an info entry.
    pub fn info(&mut self, time: u64, component: &'static str, message: impl Into<String>) {
        self.push(UvmSeverity::Info, time, component, LogMessage::Text(message.into()));
    }

    /// Appends an error entry.
    pub fn error(&mut self, time: u64, component: &'static str, message: impl Into<String>) {
        self.push(UvmSeverity::Error, time, component, LogMessage::Text(message.into()));
    }

    /// Records a scoreboard mismatch (typed; formatted when rendered).
    pub fn mismatch(&mut self, m: &Mismatch) {
        let message = LogMessage::Mismatch {
            signal: m.signal.clone(),
            expected: m.expected,
            actual: m.actual,
        };
        self.push(UvmSeverity::Error, m.time, "scoreboard", message);
    }

    fn push(
        &mut self,
        severity: UvmSeverity,
        time: u64,
        component: &'static str,
        message: LogMessage,
    ) {
        self.entries.push(LogEntry { severity, time, component, message });
    }

    /// Number of error entries.
    pub fn error_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.severity, UvmSeverity::Error | UvmSeverity::Fatal))
            .count()
    }

    /// Renders the full log, one entry per line.
    pub fn render(&self) -> String {
        render_entries(&self.entries)
    }

    /// The last `n` lines of [`UvmLog::render`] — `tail_lines(&log.render(),
    /// n)` byte for byte — rendering only the entries they come from.
    pub fn render_tail(&self, n: usize) -> String {
        let mut lines = 0;
        let mut from = self.entries.len();
        while from > 0 && lines < n {
            from -= 1;
            lines += self.entries[from].to_string().lines().count();
        }
        tail_lines(&render_entries(&self.entries[from..]), n)
    }

    /// Parses mismatch lines back out of a rendered log:
    /// `(time, signal, expected, actual)` as strings. This mirrors the
    /// `PAT_MS` pattern matching of Algorithm 2.
    pub fn parse_mismatches(rendered: &str) -> Vec<(u64, String, String, String)> {
        rendered.lines().filter_map(UvmLog::parse_mismatch_line).collect()
    }

    /// [`UvmLog::parse_mismatches`] for one rendered line — for a reader
    /// that stops before the end of the log.
    pub fn parse_mismatch_line(line: &str) -> Option<(u64, String, String, String)> {
        if !line.starts_with("UVM_ERROR") {
            return None;
        }
        let time = line
            .split('@')
            .nth(1)
            .and_then(|s| s.trim().split(' ').next())
            .and_then(|s| s.parse::<u64>().ok())?;
        let rest = line.split("mismatch on signal '").nth(1)?;
        let (signal, tail) = split_quoted(rest)?;
        let expected =
            tail.split("expected ").nth(1).and_then(|s| s.split(' ').next()).unwrap_or_default();
        let actual =
            tail.split("actual ").nth(1).and_then(|s| s.split(' ').next()).unwrap_or_default();
        Some((time, signal, expected.to_string(), actual.to_string()))
    }
}

/// `entries` rendered and joined with newlines.
fn render_entries(entries: &[LogEntry]) -> String {
    let mut out = String::new();
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = write!(out, "{entry}");
    }
    out
}

/// The last `n` lines of `text` (as [`str::lines`] splits it), joined
/// with newlines.
pub fn tail_lines(text: &str, n: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(n)..].join("\n")
}

/// Splits `rest` at its first *unescaped* closing quote, returning the
/// unescaped signal name and the tail after the quote.
fn split_quoted(rest: &str) -> Option<(String, &str)> {
    let mut signal = String::new();
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            signal.push(c);
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '\'' {
            return Some((signal, &rest[i + 1..]));
        } else {
            signal.push(c);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm_sim::Logic;

    #[test]
    fn render_and_parse_round_trip() {
        let mut log = UvmLog::new();
        log.info(0, "driver", "reset released");
        log.mismatch(&Mismatch {
            time: 125,
            cycle: 12,
            signal: "sum".to_string(),
            expected: Logic::from_u128(8, 0x1a),
            actual: Logic::from_u128(8, 0x0a),
        });
        let rendered = log.render();
        assert!(rendered.contains("UVM_ERROR @ 125 [scoreboard]"));
        let parsed = UvmLog::parse_mismatches(&rendered);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, 125);
        assert_eq!(parsed[0].1, "sum");
        assert_eq!(parsed[0].2, "8'h1a");
        assert_eq!(parsed[0].3, "8'h0a");
    }

    #[test]
    fn render_tail_is_the_tail_of_the_rendered_log() {
        let mut log = UvmLog::new();
        assert_eq!(log.render_tail(10), "");
        log.info(0, "driver", "reset sequence complete");
        log.mismatch(&Mismatch {
            time: 10,
            cycle: 0,
            signal: "it's".to_string(),
            expected: Logic::from_u128(4, 0x3),
            actual: Logic::xs(4),
        });
        log.error(20, "env", "aborted: first line\nsecond line\n\nfourth line");
        log.error(30, "assert", "ends with a newline\n");
        log.error(40, "assert", "carriage return\r\nthen more\r");
        log.info(50, "env", "run complete: 5 cycles, pass rate 20.00%, 1 mismatches");
        let rendered = log.render();
        assert!(rendered.lines().count() > 8, "multi-line entries:\n{rendered}");
        for n in 0..rendered.lines().count() + 3 {
            assert_eq!(log.render_tail(n), tail_lines(&rendered, n), "n = {n}");
        }
    }

    #[test]
    fn error_count_ignores_info() {
        let mut log = UvmLog::new();
        log.info(0, "env", "starting");
        log.error(5, "scoreboard", "boom");
        assert_eq!(log.error_count(), 1);
    }

    #[test]
    fn parse_skips_malformed_lines() {
        let parsed = UvmLog::parse_mismatches("UVM_ERROR nonsense\nplain text\n");
        assert!(parsed.is_empty());
        // An unterminated quote is malformed, not a panic or a bogus row.
        let parsed = UvmLog::parse_mismatches(
            "UVM_ERROR @ 5 [scoreboard] mismatch on signal 'dangling: expected 1 actual 0",
        );
        assert!(parsed.is_empty());
    }

    #[test]
    fn awkward_signal_names_round_trip_exactly() {
        // Names with spaces, '=', quotes and backslashes used to render
        // unescaped, silently truncating the parsed signal (and with a
        // stray quote, corrupting the expected/actual fields too).
        for signal in ["bus [3]", "a=b", "don't", "path\\leaf", "mix 'q' = \\x", "it's 'nested'"] {
            let mut log = UvmLog::new();
            log.mismatch(&Mismatch {
                time: 7,
                cycle: 1,
                signal: signal.to_string(),
                expected: Logic::from_u128(4, 0x3),
                actual: Logic::from_u128(4, 0x1),
            });
            let parsed = UvmLog::parse_mismatches(&log.render());
            assert_eq!(parsed.len(), 1, "signal {signal:?}");
            assert_eq!(parsed[0].1, signal, "signal must round-trip byte-exactly");
            assert_eq!(parsed[0].2, "4'h3", "expected field intact for {signal:?}");
            assert_eq!(parsed[0].3, "4'h1", "actual field intact for {signal:?}");
        }
    }
}
