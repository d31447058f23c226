//! A scripted backend that replays canned completions — used by unit
//! and integration tests to drive the pipeline deterministically.

use crate::model::{count_tokens, Completion, LanguageModel, LlmError, Usage};
use crate::prompt::RepairPrompt;
use std::collections::VecDeque;

/// Replays a fixed queue of response strings.
#[derive(Debug, Default)]
pub struct ScriptedLlm {
    responses: VecDeque<String>,
    usage: Usage,
}

impl ScriptedLlm {
    /// Creates a backend that returns `responses` in order.
    pub fn new(responses: impl IntoIterator<Item = String>) -> Self {
        ScriptedLlm { responses: responses.into_iter().collect(), usage: Usage::default() }
    }

    /// Remaining queued responses.
    pub fn remaining(&self) -> usize {
        self.responses.len()
    }
}

impl LanguageModel for ScriptedLlm {
    fn name(&self) -> &str {
        "scripted"
    }

    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        let content = self
            .responses
            .pop_front()
            .ok_or_else(|| LlmError::NoResponse("scripted backend exhausted".to_string()))?;
        let prompt_tokens = count_tokens(&prompt.render());
        let completion_tokens = count_tokens(&content);
        let completion = Completion {
            content,
            prompt_tokens,
            completion_tokens,
            latency: std::time::Duration::from_millis(10),
        };
        self.usage.record(&completion);
        Ok(completion)
    }

    fn usage(&self) -> Usage {
        self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::AgentRole;

    #[test]
    fn replays_in_order_then_errors() {
        let mut s = ScriptedLlm::new(["one".to_string(), "two".to_string()]);
        let p = RepairPrompt::new(AgentRole::SyntaxFixer, "s", "c");
        assert_eq!(s.complete(&p).unwrap().content, "one");
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.complete(&p).unwrap().content, "two");
        assert!(s.complete(&p).is_err());
        assert_eq!(s.usage().calls, 2);
    }
}
