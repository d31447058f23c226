//! The common interface every repair method implements, so the
//! experiment harness can evaluate them uniformly.

use uvllm_designs::Design;
use uvllm_llm::Usage;

/// The result a repair method reports for one instance. It holds no
/// time: Texec is `usage.latency`, the modelled LLM latency.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// The candidate the method settled on.
    pub final_code: String,
    /// Whether the method itself believes the repair succeeded (its own
    /// acceptance test passed). HR/FR are judged externally.
    pub claimed_success: bool,
    /// Iterations / candidates attempted.
    pub iterations: usize,
    /// LLM accounting (zero for purely script-based methods).
    pub usage: Usage,
}

/// A repair method under evaluation.
pub trait RepairMethod {
    /// Display name used in result tables.
    fn name(&self) -> &str;

    /// Attempts to repair `src` for `design`.
    fn repair(&mut self, design: &Design, src: &str) -> MethodOutcome;
}
