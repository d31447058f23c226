//! The LLM wire texts of a default campaign, pinned: every prompt a job
//! sends (`RepairPrompt::render`) and every answer it gets back
//! (`Completion::content`), digested per method.
//!
//! The texts are what the model reads and writes, so a change to how
//! prompts or answers are built — a faster JSON writer, typed mismatch
//! records instead of parsed log lines, a cheaper waveform — must leave
//! them byte-identical. `tests/golden/llm_texts.txt` was generated
//! before those paths were rewritten and is not regenerated by them.
//!
//! The jobs run one at a time on this thread through
//! `evaluate_one_on`, with a tap in front of each job's LLM handle. A
//! job's texts are a pure function of the job, so this walk sees what
//! `Campaign::run` sends at any worker count.
//!
//! Regenerate (only for a change that moves the texts on purpose):
//! `UVLLM_WRITE_GOLDEN=1 cargo test --release --test llm_texts`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;
use std::task::{Poll, Waker};
use uvllm::StageMemo;
use uvllm_campaign::{evaluate_one_on, expand_jobs, CampaignConfig, LlmPolicy, MethodKind};
use uvllm_llm::{
    Completion, LlmError, LlmService, RepairPrompt, ResilienceStats, Ticket, Usage, WaitStats,
};

thread_local! {
    /// The texts of the job running on this thread, in wire order.
    static TEXTS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn record(text: String) {
    TEXTS.with(|texts| texts.borrow_mut().push(text));
}

/// A job's handle with every prompt and answer copied to [`TEXTS`].
struct Tap(Box<dyn LlmService>);

impl Tap {
    fn answered(&self, reply: &Result<Completion, LlmError>) {
        match reply {
            Ok(completion) => record(completion.content.clone()),
            Err(e) => record(format!("error: {e}")),
        }
    }
}

impl LlmService for Tap {
    fn backend_name(&self) -> &str {
        self.0.backend_name()
    }
    fn submit(&mut self, prompt: &RepairPrompt) -> Ticket {
        record(prompt.render());
        self.0.submit(prompt)
    }
    fn await_completion(&mut self, ticket: Ticket) -> Result<Completion, LlmError> {
        let reply = self.0.await_completion(ticket);
        self.answered(&reply);
        reply
    }
    fn poll_completion(
        &mut self,
        ticket: Ticket,
        waker: &Waker,
    ) -> Poll<Result<Completion, LlmError>> {
        let polled = self.0.poll_completion(ticket, waker);
        if let Poll::Ready(reply) = &polled {
            self.answered(reply);
        }
        polled
    }
    fn usage(&self) -> Usage {
        self.0.usage()
    }
    fn wait_stats(&self) -> WaitStats {
        self.0.wait_stats()
    }
    fn resilience_stats(&self) -> ResilienceStats {
        self.0.resilience_stats()
    }
}

/// FNV-1a over a stream of byte chunks.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Per LLM method: jobs, texts, bytes and the digest of every job's id
/// and texts in job order.
fn digest_of_a_default_campaign() -> String {
    let config = CampaignConfig::default();
    let memo = StageMemo::new();
    let instances: Vec<Arc<uvllm::BenchInstance>> =
        uvllm::build_dataset(config.dataset_size, config.dataset_seed, &memo, 2)
            .instances
            .into_iter()
            .map(Arc::new)
            .collect();
    let policy = LlmPolicy::direct().with_wrap(|inner| Box::new(Tap(inner)));
    let methods =
        [MethodKind::Uvllm, MethodKind::UvllmComplete, MethodKind::Meic, MethodKind::GptDirect];
    let mut out = String::new();
    for method in methods {
        let (mut jobs, mut texts, mut bytes, mut digest) = (0, 0, 0, Fnv::new());
        for job in expand_jobs(&instances, &[method]) {
            evaluate_one_on(method, &job.instance, &policy, &memo);
            let sent = TEXTS.with(|t| std::mem::take(&mut *t.borrow_mut()));
            jobs += 1;
            digest.feed(job.id().as_bytes());
            for text in &sent {
                texts += 1;
                bytes += text.len();
                digest.feed(format!("\n{}:", text.len()).as_bytes());
                digest.feed(text.as_bytes());
            }
            digest.feed(b"\n\n");
        }
        let _ = writeln!(
            out,
            "{} jobs {jobs} texts {texts} bytes {bytes} digest {:016x}",
            method.label(),
            digest.0
        );
    }
    out
}

#[test]
fn a_default_campaign_sends_and_receives_the_pinned_texts() {
    let actual = digest_of_a_default_campaign();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/llm_texts.txt");
    if std::env::var_os("UVLLM_WRITE_GOLDEN").is_some() {
        std::fs::write(path, &actual).expect("write the golden");
        return;
    }
    let golden = include_str!("golden/llm_texts.txt");
    assert_eq!(actual, golden, "the LLM wire texts moved; this run read:\n{actual}");
}
