//! A genuinely rule-based repair backend for syntax errors.
//!
//! Unlike [`crate::OracleLlm`], this backend has **no ground truth**: it
//! reads the rendered lint log out of the prompt and applies compiler-
//! style heuristics (insert the missing `;`, fix a keyword typo by edit
//! distance, repair a malformed literal base). It demonstrates that the
//! pre-processing stage's contract is honest — any backend that can turn
//! error logs into `(original, patched)` pairs slots in.

use crate::model::{count_tokens, Completion, LanguageModel, LatencyModel, LlmError, Usage};
use crate::oracle::module_name_of;
use crate::prompt::{ErrorInfo, RepairPair, RepairPrompt};
use crate::response::RepairResponse;
use uvllm_verilog::token::Keyword;

/// Rule-based syntax fixer (see module docs).
#[derive(Debug, Default)]
pub struct HeuristicLlm {
    usage: Usage,
    latency: LatencyModel,
}

impl HeuristicLlm {
    /// Creates the backend.
    pub fn new() -> Self {
        HeuristicLlm::default()
    }

    /// Attempts to derive a repair pair from a lint log and the code.
    pub fn repair_from_log(log: &str, code: &str) -> Option<RepairPair> {
        // First error line: `%Error[-TAG]: dut.v:LINE:COL: message`.
        let line = log.lines().find(|l| l.starts_with("%Error"))?;
        let loc = line.split("dut.v:").nth(1)?;
        let mut parts = loc.splitn(3, ':');
        let err_line: usize = parts.next()?.trim().parse().ok()?;
        let _col: usize = parts.next()?.trim().parse().ok()?;
        let message = parts.next()?.trim();
        let lines: Vec<&str> = code.lines().collect();

        if message.contains("expected ';'") {
            // The parser trips on the token *after* the missing
            // semicolon; append one to the previous non-empty line.
            let mut idx = err_line.saturating_sub(2);
            loop {
                let text = lines.get(idx)?;
                if !text.trim().is_empty() {
                    return Some(RepairPair {
                        original: text.to_string(),
                        patched: format!("{text};"),
                    });
                }
                if idx == 0 {
                    return None;
                }
                idx -= 1;
            }
        }

        if message.contains("invalid base specifier") {
            let text = lines.get(err_line - 1)?;
            let at = text.find("'q")?;
            let digits: String =
                text[at + 2..].chars().take_while(|c| c.is_ascii_alphanumeric()).collect();
            let base = if digits.chars().any(|c| matches!(c, 'a'..='f' | 'A'..='F')) {
                'h'
            } else if digits.chars().all(|c| matches!(c, '0' | '1' | 'x' | 'z')) {
                'b'
            } else {
                'd'
            };
            let mut patched = text.to_string();
            patched.replace_range(at + 1..at + 2, &base.to_string());
            return Some(RepairPair { original: text.to_string(), patched });
        }

        // Keyword typo: `unexpected 'IDENT'` where IDENT is close to a
        // keyword by edit distance.
        if let Some(rest) = message.split("unexpected '").nth(1) {
            let found = rest.split('\'').next()?;
            // Search the error line and the one before for a token that
            // is a near-miss of a keyword.
            for idx in [err_line.saturating_sub(1), err_line.saturating_sub(2)] {
                let Some(text) = lines.get(idx) else { continue };
                for word in text.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
                    if word.len() < 3 || Keyword::lookup(word).is_some() {
                        continue;
                    }
                    if let Some(kw) = nearest_keyword(word) {
                        let patched = text.replacen(word, kw, 1);
                        if patched != *text {
                            return Some(RepairPair { original: text.to_string(), patched });
                        }
                    }
                }
            }
            let _ = found;
        }
        None
    }
}

/// The closest keyword within edit distance 2, if any.
fn nearest_keyword(word: &str) -> Option<&'static str> {
    const KEYWORDS: [&str; 16] = [
        "module",
        "endmodule",
        "always",
        "assign",
        "begin",
        "end",
        "case",
        "endcase",
        "wire",
        "reg",
        "input",
        "output",
        "posedge",
        "negedge",
        "if",
        "else",
    ];
    KEYWORDS
        .iter()
        .map(|kw| (*kw, edit_distance(word, kw)))
        .filter(|(kw, d)| *d > 0 && *d <= 2 && kw.len() >= 3)
        .min_by_key(|(_, d)| *d)
        .map(|(kw, _)| kw)
}

/// Levenshtein distance.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

impl LanguageModel for HeuristicLlm {
    fn name(&self) -> &str {
        "heuristic syntax fixer"
    }

    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        let ErrorInfo::LintLog(log) = &prompt.error_info else {
            return Err(LlmError::NoResponse(
                "heuristic backend only consumes lint logs".to_string(),
            ));
        };
        let pair = Self::repair_from_log(log, &prompt.code)
            .ok_or_else(|| LlmError::NoResponse("no heuristic matched".to_string()))?;
        let content = RepairResponse {
            module_name: module_name_of(&prompt.code),
            analysis: "Heuristic repair derived from the compiler message.".to_string(),
            correct: vec![pair],
        }
        .to_json();
        let prompt_tokens = count_tokens(&prompt.render());
        let completion_tokens = count_tokens(&content);
        let completion = Completion {
            content,
            prompt_tokens,
            completion_tokens,
            // Rule-based repairs are effectively instant; keep a small
            // epsilon so time accounting stays monotone.
            latency: std::time::Duration::from_millis(1),
        };
        self.usage.record(&completion);
        let _ = self.latency;
        Ok(completion)
    }

    fn usage(&self) -> Usage {
        self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm_lint::lint;

    fn fix_once(src: &str) -> String {
        let report = lint(src);
        let log = report.render(src);
        let pair = HeuristicLlm::repair_from_log(&log, src)
            .unwrap_or_else(|| panic!("no heuristic for log:\n{log}"));
        assert!(src.contains(&pair.original), "anchor must exist");
        src.replacen(&pair.original, &pair.patched, 1)
    }

    #[test]
    fn fixes_missing_semicolon() {
        let src = "module m(input a, output y);\nassign y = a\nendmodule\n";
        let fixed = fix_once(src);
        assert!(uvllm_verilog::parse(&fixed).is_ok(), "still broken:\n{fixed}");
    }

    #[test]
    fn fixes_keyword_typo() {
        let src = "module m(input a, output reg y);\nalway @(*) y = a;\nendmodule\n";
        let fixed = fix_once(src);
        assert!(fixed.contains("always @(*)"), "got:\n{fixed}");
        assert!(uvllm_verilog::parse(&fixed).is_ok());
    }

    #[test]
    fn fixes_malformed_literal() {
        let src = "module m(output reg [7:0] y);\nalways @(*) y = 8'qff;\nendmodule\n";
        let fixed = fix_once(src);
        assert!(fixed.contains("8'hff"), "got:\n{fixed}");
        assert!(uvllm_verilog::parse(&fixed).is_ok());
    }

    #[test]
    fn no_response_without_lint_info() {
        let mut h = HeuristicLlm::new();
        let prompt = crate::prompt::RepairPrompt::new(
            crate::prompt::AgentRole::MismatchDebugger,
            "spec",
            "module m; endmodule",
        );
        assert!(h.complete(&prompt).is_err());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("alway", "always"), 1);
        assert_eq!(edit_distance("asign", "assign"), 1);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(nearest_keyword("alway"), Some("always"));
        assert_eq!(nearest_keyword("zzzzz"), None);
    }
}
