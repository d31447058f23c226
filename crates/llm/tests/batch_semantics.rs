//! Partial-failure semantics of a batch on the service loop: a faulted
//! session's prompts, and failures of the model itself.
//!
//! The contract under test: a failed prompt fails *its own* ticket and
//! nothing else. Sibling prompts in the same batch get exactly the
//! completions a failure-free run would have delivered, and the
//! accounting ([`Usage`]) reflects only the completions that actually
//! arrived — a batch with failures in it never books phantom calls.

use std::time::Duration;
use uvllm_llm::{
    AgentRole, BatchConfig, BatchedLlm, FaultPlan, LlmError, LlmService, RepairPrompt, ScriptedLlm,
    Usage,
};

fn prompt(tag: &str) -> RepairPrompt {
    RepairPrompt::new(
        AgentRole::SyntaxFixer,
        format!("spec {tag}"),
        format!("module {tag}; endmodule"),
    )
}

fn scripts(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{{\"module name\": \"m{i}\", \"analysis\": \"a\"}}")).collect()
}

/// A model's own failure lands in its own ticket: in one batch of four
/// from two sessions, the session whose script runs out fails its
/// second prompt while the other session's answers arrive untouched.
#[test]
fn batch_failures_land_in_their_own_slots() {
    let service = BatchedLlm::start(BatchConfig {
        max_batch: 4,
        max_wait: Duration::from_secs(3600),
        ..BatchConfig::default()
    });
    let mut short = service.client(ScriptedLlm::new(scripts(1)));
    let mut long = service.client(ScriptedLlm::new(scripts(2)));
    let tickets =
        [short.submit(&prompt("a")), long.submit(&prompt("b")), short.submit(&prompt("c"))];
    let last = long.submit(&prompt("d"));
    let first = short.await_completion(tickets[0]);
    let exhausted = short.await_completion(tickets[2]);
    let answers = [long.await_completion(tickets[1]), long.await_completion(last)];
    assert_eq!(short.wait_stats().max_batch, 4, "one batch of four");
    assert!(first.is_ok());
    assert!(
        matches!(&exhausted, Err(LlmError::NoResponse(_))),
        "the exhausted slot fails as NoResponse: {exhausted:?}"
    );
    let contents: Vec<String> = answers.into_iter().map(|a| a.unwrap().content).collect();
    assert_eq!(contents, scripts(2), "the sibling session's answers are untouched");
    assert_eq!(short.usage().calls, 1, "a failure books no call");
    assert_eq!(long.usage().calls, 2);
}

/// Injected faults error their own slot; sibling slots receive the
/// fault-free completions in script order (a faulted prompt never
/// reaches the model, so it does not consume or shift the script).
#[test]
fn injected_batch_faults_do_not_shift_sibling_answers() {
    use uvllm_llm::LanguageModel;
    let service = BatchedLlm::start(BatchConfig {
        max_batch: 8,
        max_wait: Duration::from_secs(3600),
        ..BatchConfig::default()
    });
    let plan = FaultPlan { error_rate: 0.4, ..FaultPlan::default() };
    let mut session = service.session(ScriptedLlm::new(scripts(8)), Some(plan), None);
    let tickets: Vec<_> = (0..8).map(|i| session.submit(&prompt(&format!("p{i}")))).collect();
    let results: Vec<_> = tickets.into_iter().map(|t| session.await_completion(t)).collect();
    assert_eq!(session.wait_stats().max_batch, 8, "one batch of eight");
    let errors = results.iter().filter(|r| r.is_err()).count();
    assert!(errors > 0 && errors < 8, "0.4 over 8 draws must fault some but not all: {errors}");
    // The k-th delivered completion is the k-th script.
    let delivered: Vec<&str> = results.iter().flatten().map(|c| c.content.as_str()).collect();
    let expected = scripts(8);
    for (k, content) in delivered.iter().enumerate() {
        assert_eq!(*content, expected[k], "delivered completion #{k} shifted");
    }
    let model = service.stop().pop().expect("the session's model");
    assert_eq!(model.remaining(), 8 - delivered.len(), "faults never drain the script");
    assert_eq!(model.usage().calls, delivered.len() as u64);
}

/// The batched service routes per-slot failures to the right tickets
/// and books usage only for delivered completions: a 4-ticket flush
/// with 2 failures accounts exactly like a 2-ticket failure-free run.
#[test]
fn service_tickets_isolate_batch_failures() {
    let service = BatchedLlm::start(BatchConfig { max_batch: 4, ..BatchConfig::default() });
    let mut client = service.client(ScriptedLlm::new(scripts(2)));
    let tickets: Vec<_> = ["a", "b", "c", "d"].iter().map(|t| client.submit(&prompt(t))).collect();
    let mut outcomes = Vec::new();
    for ticket in tickets {
        outcomes.push(client.await_completion(ticket));
    }
    assert!(outcomes[0].is_ok() && outcomes[1].is_ok(), "scripted slots answer");
    assert!(
        matches!(&outcomes[2], Err(LlmError::NoResponse(_)))
            && matches!(&outcomes[3], Err(LlmError::NoResponse(_))),
        "exhausted slots fail their own tickets: {outcomes:?}"
    );
    let mixed_usage = client.usage();

    // Reference: the same two surviving prompts, no failures.
    let mut reference = service.client(ScriptedLlm::new(scripts(2)));
    let tickets: Vec<_> = ["a", "b"].iter().map(|t| reference.submit(&prompt(t))).collect();
    for ticket in tickets {
        reference.await_completion(ticket).expect("failure-free run");
    }
    assert_eq!(mixed_usage, reference.usage(), "failed siblings must not perturb accounting");
    assert_ne!(mixed_usage, Usage::default(), "the comparison is not vacuous");
}
