//! UVM-style simulation log: the artefact the post-processing stage
//! parses (Algorithm 2's `getMismatch` consumes these lines).

use crate::scoreboard::Mismatch;
use std::fmt;

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

/// One log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    pub severity: UvmSeverity,
    pub time: u64,
    /// Emitting component, e.g. `scoreboard`, `driver`.
    pub component: String,
    pub message: String,
}

impl LogEntry {
    /// Renders in UVM log style:
    /// `UVM_ERROR @ 125 [scoreboard] mismatch on signal 'sum': …`.
    pub fn render(&self) -> String {
        format!("{} @ {} [{}] {}", self.severity, self.time, self.component, self.message)
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
    pub fn info(&mut self, time: u64, component: &str, message: impl Into<String>) {
        self.entries.push(LogEntry {
            severity: UvmSeverity::Info,
            time,
            component: component.to_string(),
            message: message.into(),
        });
    }

    /// Appends an error entry.
    pub fn error(&mut self, time: u64, component: &str, message: impl Into<String>) {
        self.entries.push(LogEntry {
            severity: UvmSeverity::Error,
            time,
            component: component.to_string(),
            message: message.into(),
        });
    }

    /// Records a scoreboard mismatch in the canonical format parsed by
    /// the localization engine. The signal name is quote-escaped so
    /// [`UvmLog::parse_mismatches`] recovers it byte-exactly whatever
    /// characters it contains.
    pub fn mismatch(&mut self, m: &Mismatch) {
        self.entries.push(LogEntry {
            severity: UvmSeverity::Error,
            time: m.time,
            component: "scoreboard".to_string(),
            message: format!(
                "mismatch on signal '{}': expected {} actual {}",
                escape_signal(&m.signal),
                m.expected,
                m.actual
            ),
        });
    }

    /// Number of error entries.
    pub fn error_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.severity, UvmSeverity::Error | UvmSeverity::Fatal))
            .count()
    }

    /// Renders the full log.
    pub fn render(&self) -> String {
        self.entries.iter().map(LogEntry::render).collect::<Vec<_>>().join("\n")
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

/// Escapes a signal name for embedding between single quotes:
/// `\` → `\\`, `'` → `\'`. Inverse of the scan in [`split_quoted`].
fn escape_signal(signal: &str) -> String {
    let mut out = String::with_capacity(signal.len());
    for c in signal.chars() {
        if c == '\\' || c == '\'' {
            out.push('\\');
        }
        out.push(c);
    }
    out
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
