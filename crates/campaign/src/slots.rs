//! CPU slots: how a batched pool keeps more jobs in flight than it lets
//! compute.
//!
//! A job on a batched LLM service spends most of its wall-clock waiting
//! for flushes, round trips and retry backoff. The pool therefore runs
//! [`JOBS_IN_FLIGHT_PER_SLOT`] threads per worker, and [`CpuSlots`] — a
//! counting semaphore with one slot per worker — keeps at most `workers`
//! of them computing: a thread holds a slot while it evaluates a job,
//! and its service handle ([`SlotLending`]) lends the slot out for every
//! wait on the LLM. Which thread computes when changes wall-clock only;
//! every row is still a pure function of its job.
//!
//! No [`uvllm::StageMemo`] fill waits on the LLM (fills lint, elaborate,
//! simulate and localize), so a thread never lends its slot out while
//! another thread is parked on a memo slot it is filling: a parked
//! thread always waits on a filler that holds a slot of its own.

use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Instant;
use uvllm_llm::{
    Completion, LlmError, LlmService, RepairPrompt, ResilienceStats, Ticket, Usage, WaitStats,
};

/// Threads a batched pool runs per CPU slot.
///
/// Throughput on the LLM-bound `llm_wait` workload (2 slots) grows
/// linearly with the jobs in flight — 2 → ~41, 4 → ~80, 6 → ~118,
/// 8 → ~160 op/s — but every extra thread gets a glibc malloc arena of
/// its own and keeps ~0.3 MB of it: at 8 in flight `peak_rss_mb` read
/// +21–29 % over one thread per slot in two sweeps (6.4–6.6 MB with
/// `MALLOC_ARENA_MAX=2`, so arenas, not stacks or product data), at or
/// past the benchmark's 25 % memory bound. Two doubles throughput for
/// +8–19 % memory. Re-read `peak_rss_mb` before raising it.
pub(crate) const JOBS_IN_FLIGHT_PER_SLOT: usize = 2;

/// `campaign.cpu_slot.wait_us`: time a thread that found no free slot
/// waited for one, at a job's start or after an LLM reply.
fn wait_us() -> &'static uvllm_obs::Histogram {
    static WAIT_US: OnceLock<&'static uvllm_obs::Histogram> = OnceLock::new();
    WAIT_US.get_or_init(|| uvllm_obs::registry().histogram("campaign.cpu_slot.wait_us"))
}

/// A counting semaphore over a pool's CPU slots (module docs).
#[derive(Debug)]
pub(crate) struct CpuSlots {
    /// Slots nobody holds. Every update is one whole step under the
    /// lock, so a poisoned guard still holds a valid count.
    free: Mutex<usize>,
    freed: Condvar,
}

impl CpuSlots {
    /// `slots` free slots.
    pub(crate) fn new(slots: usize) -> CpuSlots {
        CpuSlots { free: Mutex::new(slots), freed: Condvar::new() }
    }

    /// Takes a slot, waiting for one when none is free; only a wait
    /// reads the clock and records into `campaign.cpu_slot.wait_us`.
    fn acquire(&self) {
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        if *free == 0 {
            let asked = Instant::now();
            while *free == 0 {
                free = self.freed.wait(free).unwrap_or_else(PoisonError::into_inner);
            }
            wait_us().record(asked.elapsed().as_micros() as u64);
        }
        *free -= 1;
    }

    fn release(&self) {
        *self.free.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.freed.notify_one();
    }

    /// Takes a slot and holds it until the guard drops.
    pub(crate) fn hold(&self) -> Held<'_> {
        self.acquire();
        Held(self)
    }

    /// Gives a held slot back until the guard drops, then takes one
    /// again — in a panic's unwind too, so the holder's own release
    /// stays balanced.
    fn lend(&self) -> Lent<'_> {
        self.release();
        Lent(self)
    }

    #[cfg(test)]
    fn free(&self) -> usize {
        *self.free.lock().unwrap()
    }
}

/// A held slot ([`CpuSlots::hold`]).
#[must_use = "the slot is released when the guard drops"]
pub(crate) struct Held<'s>(&'s CpuSlots);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// A slot lent out ([`CpuSlots::lend`]).
struct Lent<'s>(&'s CpuSlots);

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        self.0.acquire();
    }
}

/// A job's outermost service handle on a batched pool: lends the job's
/// CPU slot out for the whole of every `await_completion` — flush
/// window, round trip, and the retry backoff of a
/// [`uvllm_llm::ResilientService`] beneath it.
pub(crate) struct SlotLending {
    inner: Box<dyn LlmService>,
    slots: Arc<CpuSlots>,
}

impl SlotLending {
    pub(crate) fn new(inner: Box<dyn LlmService>, slots: Arc<CpuSlots>) -> SlotLending {
        SlotLending { inner, slots }
    }
}

impl LlmService for SlotLending {
    fn backend_name(&self) -> &str {
        self.inner.backend_name()
    }

    fn submit(&mut self, prompt: &RepairPrompt) -> Ticket {
        self.inner.submit(prompt)
    }

    fn await_completion(&mut self, ticket: Ticket) -> Result<Completion, LlmError> {
        let _lent = self.slots.lend();
        self.inner.await_completion(ticket)
    }

    fn usage(&self) -> Usage {
        self.inner.usage()
    }

    fn wait_stats(&self) -> WaitStats {
        self.inner.wait_stats()
    }

    fn resilience_stats(&self) -> ResilienceStats {
        self.inner.resilience_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Barrier;
    use uvllm_llm::{AgentRole, DirectService, ScriptedLlm};

    /// Answers through a direct service once the test says so, or
    /// panics when told to, after announcing that its wait began.
    struct Gated {
        inner: DirectService<ScriptedLlm>,
        entered: Sender<()>,
        go: Receiver<bool>,
    }

    impl LlmService for Gated {
        fn backend_name(&self) -> &str {
            "gated"
        }

        fn submit(&mut self, prompt: &RepairPrompt) -> Ticket {
            self.inner.submit(prompt)
        }

        fn await_completion(&mut self, ticket: Ticket) -> Result<Completion, LlmError> {
            self.entered.send(()).expect("the test listens");
            if !self.go.recv().expect("the test decides") {
                panic!("injected panic inside the wait");
            }
            self.inner.await_completion(ticket)
        }

        fn usage(&self) -> Usage {
            self.inner.usage()
        }

        fn wait_stats(&self) -> WaitStats {
            self.inner.wait_stats()
        }
    }

    /// A lending handle on one slot over a [`Gated`] stub, with the
    /// stub's "wait began" receiver and "answer or panic" sender.
    fn gated(slots: &Arc<CpuSlots>) -> (SlotLending, Receiver<()>, Sender<bool>) {
        let (entered, entered_rx) = channel();
        let (go_tx, go) = channel();
        let stub = Gated {
            inner: DirectService::new(ScriptedLlm::new(["fixed".to_string()])),
            entered,
            go,
        };
        (SlotLending::new(Box::new(stub), Arc::clone(slots)), entered_rx, go_tx)
    }

    fn prompt() -> RepairPrompt {
        RepairPrompt::new(AgentRole::SyntaxFixer, "spec", "module m; endmodule")
    }

    #[test]
    fn a_job_lends_its_slot_for_the_wait_and_holds_it_again_after() {
        let slots = Arc::new(CpuSlots::new(1));
        let (mut service, entered, go) = gated(&slots);
        std::thread::scope(|scope| {
            let job = scope.spawn(|| {
                let _cpu = slots.hold();
                let answer = service.complete(&prompt());
                (answer.map(|c| c.content), slots.free())
            });
            entered.recv().unwrap();
            assert_eq!(slots.free(), 1, "the waiting job lent its slot out");
            // Another thread can compute on it meanwhile.
            drop(slots.hold());
            go.send(true).unwrap();
            let (answer, free_after) = job.join().unwrap();
            assert_eq!(answer.as_deref(), Ok("fixed"));
            assert_eq!(free_after, 0, "the job holds its slot again once the answer is in");
        });
        assert_eq!(slots.free(), 1, "and releases it when the job ends");
    }

    #[test]
    fn a_panic_inside_the_wait_leaves_the_count_balanced() {
        let slots = Arc::new(CpuSlots::new(1));
        let (mut service, entered, go) = gated(&slots);
        std::thread::scope(|scope| {
            let job = scope.spawn(|| {
                let _cpu = slots.hold();
                let outcome = catch_unwind(AssertUnwindSafe(|| service.complete(&prompt())));
                (outcome.is_err(), slots.free())
            });
            entered.recv().unwrap();
            assert_eq!(slots.free(), 1);
            go.send(false).unwrap();
            let (panicked, free_after) = job.join().unwrap();
            assert!(panicked);
            assert_eq!(free_after, 0, "the unwind took the slot back");
        });
        assert_eq!(slots.free(), 1, "released once, not twice");
    }

    #[test]
    fn no_more_threads_compute_than_there_are_slots() {
        const THREADS: usize = 8;
        for capacity in [1, 2, 3] {
            let slots = CpuSlots::new(capacity);
            let (inside, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let start = Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        start.wait();
                        for _ in 0..200 {
                            let _cpu = slots.hold();
                            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                            most.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            inside.fetch_sub(1, Ordering::SeqCst);
                        }
                    });
                }
            });
            assert!(most.into_inner() <= capacity, "{capacity} slots");
            assert_eq!(slots.free(), capacity);
        }
    }
}
