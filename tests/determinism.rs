//! Whole-stack determinism: identical seeds reproduce identical
//! datasets, repairs and evaluation records — the property that makes
//! every campaign replayable bit-for-bit (README, "Running a campaign").

use std::cell::RefCell;
use std::task::{Poll, Waker};
use uvllm_campaign::{evaluate_one, evaluate_one_on, FaultPlan, LlmPolicy, MethodKind};
use uvllm_llm::{
    Completion, LlmError, LlmService, RepairPrompt, ResilienceStats, Ticket, Usage, WaitStats,
};

#[test]
fn dataset_builds_identically() {
    let a = uvllm::build_dataset(30, 0x1234, &uvllm::StageMemo::new(), 1);
    let b = uvllm::build_dataset(30, 0x1234, &uvllm::StageMemo::new(), 1);
    assert_eq!(a.instances.len(), b.instances.len());
    for (x, y) in a.instances.iter().zip(&b.instances) {
        assert_eq!(x.id(), y.id());
        assert_eq!(x.mutated_src, y.mutated_src);
        assert_eq!(x.ground_truth, y.ground_truth);
    }
    let c = uvllm::build_dataset(30, 0x9999, &uvllm::StageMemo::new(), 1);
    let ids_a: Vec<_> = a.instances.iter().map(|i| i.id()).collect();
    let ids_c: Vec<_> = c.instances.iter().map(|i| i.id()).collect();
    assert_ne!(ids_a, ids_c, "different seeds should differ");
}

#[test]
fn full_evaluation_is_reproducible() {
    let ds = uvllm::build_dataset(8, 0x42, &uvllm::StageMemo::new(), 1);
    for method in [MethodKind::Uvllm, MethodKind::Meic, MethodKind::GptDirect] {
        for inst in &ds.instances {
            let a = evaluate_one(method, inst);
            let b = evaluate_one(method, inst);
            assert_eq!(a.fixed, b.fixed, "{method:?} {}", inst.id());
            assert_eq!(a.hit, b.hit);
            assert_eq!(a.claimed, b.claimed);
            assert_eq!(a.usage.prompt_tokens, b.usage.prompt_tokens);
            assert_eq!(a.fixed_by, b.fixed_by);
        }
    }
}

thread_local! {
    /// Which answers of the job running on this thread were errors, in
    /// wire order.
    static ERRORS: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
}

/// A job's handle that notes, for every answer, whether it was an error.
struct Tap(Box<dyn LlmService>);

impl LlmService for Tap {
    fn backend_name(&self) -> &str {
        self.0.backend_name()
    }
    fn submit(&mut self, prompt: &RepairPrompt) -> Ticket {
        self.0.submit(prompt)
    }
    fn await_completion(&mut self, ticket: Ticket) -> Result<Completion, LlmError> {
        let reply = self.0.await_completion(ticket);
        ERRORS.with(|e| e.borrow_mut().push(reply.is_err()));
        reply
    }
    fn poll_completion(
        &mut self,
        ticket: Ticket,
        waker: &Waker,
    ) -> Poll<Result<Completion, LlmError>> {
        let polled = self.0.poll_completion(ticket, waker);
        if let Poll::Ready(reply) = &polled {
            ERRORS.with(|e| e.borrow_mut().push(reply.is_err()));
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

#[test]
fn methods_draw_independent_randomness() {
    // A job's oracle and its fault stream are both seeded from the
    // instance seed salted by the method. Faults are drawn one per sent
    // prompt whatever its text, so two methods on one instance get the
    // same error schedule (over the prompts both send) whenever their
    // seeds are equal: with one unsalted seed every pair would agree on
    // every instance.
    let ds = uvllm::build_dataset(6, 0x77, &uvllm::StageMemo::new(), 1);
    let memo = uvllm::StageMemo::new();
    let policy = LlmPolicy::direct()
        .with_faults(Some(FaultPlan { error_rate: 0.5, ..FaultPlan::default() }))
        .with_wrap(|inner| Box::new(Tap(inner)));
    let schedule = |method, inst| {
        evaluate_one_on(method, inst, &policy, &memo);
        ERRORS.with(|e| e.take())
    };
    let methods =
        [MethodKind::Uvllm, MethodKind::UvllmComplete, MethodKind::Meic, MethodKind::GptDirect];
    let schedules: Vec<Vec<Vec<bool>>> = ds
        .instances
        .iter()
        .map(|inst| methods.iter().map(|&method| schedule(method, inst)).collect())
        .collect();
    for (i, a) in methods.iter().enumerate() {
        for (j, b) in methods.iter().enumerate().skip(i + 1) {
            let independent = schedules.iter().any(|per_method| {
                let (x, y) = (&per_method[i], &per_method[j]);
                let n = x.len().min(y.len());
                x[..n] != y[..n]
            });
            assert!(independent, "{a:?} and {b:?} drew the same faults on every instance");
        }
    }
    // Each stays deterministic: a second walk replays every schedule.
    for (inst, per_method) in ds.instances.iter().zip(&schedules) {
        for (&method, errors) in methods.iter().zip(per_method) {
            assert_eq!(&schedule(method, inst), errors, "{method:?} {}", inst.id());
        }
    }

    for inst in &ds.instances {
        let u = evaluate_one(MethodKind::Uvllm, inst);
        let m = evaluate_one(MethodKind::Meic, inst);
        // Only UVLLM attributes a fix to a stage, and only a claimed one.
        assert!(u.fixed_by.is_none() || u.claimed);
        assert!(m.fixed_by.is_none());
    }
}
