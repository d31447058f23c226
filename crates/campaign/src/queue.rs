//! The shared work queue and the supervised worker pool that drains it.
//!
//! Deliberately boring concurrency: one `Mutex` over the job list,
//! popped by the pool's threads: the calling thread and `workers − 1`
//! scoped ones (`std::thread::scope`). Jobs are coarse — one job is a
//! full verification run with hundreds of simulated cycles — so a
//! single uncontended lock per job is noise, and plain
//! `std` keeps the engine dependency-free. Determinism does not depend
//! on pop order: every record is a pure function of its job.
//!
//! **Parked jobs.** The pool runs `workers` threads, batched or not. A
//! job is resumable state ([`crate::eval`]): a thread steps it until it
//! needs the LLM, submits the prompt through the job's handle and polls
//! once. A ready answer (always, on an inline direct service) is stepped
//! on; a pending one *parks* the job — data in the pool's table, no
//! thread — until the service loop wakes it. A thread takes, in order: a
//! woken parked job (re-polled, then stepped); else a new job, while
//! fewer than the cap are in flight; else it waits. The cap is
//! `workers + 2 × max_batch` on a service loop — `workers` computing,
//! one batch on the wire and one filling — and `workers` on inline
//! direct services, whose jobs never park. No [`StageMemo`] fill spans an LLM wait, so a thread
//! waiting on a memo slot always waits on a filler that is computing.
//!
//! The list is cut into **one contiguous stretch per thread**: thread
//! *k* of *t* starts at job `k·n/t` and walks forward. A thread whose
//! stretch is empty **steals the back half of the largest remaining
//! stretch**, so the pool drains to the end without idling. The list is
//! instance-major, so threads walking it side by side would hold two
//! methods of the same mutant and park on each other's in-flight
//! [`StageMemo`] slots; stretches keep them on different instances,
//! mostly of different designs. Requeued jobs sit in a small shared
//! deque every thread checks first.
//!
//! The pool is *supervision-grade* (fault isolation, the campaign-side
//! half of the resilience layer):
//!
//! * Every step of a job runs inside `catch_unwind`, so one panicking
//!   job cannot kill its worker thread (which would abort the scope and
//!   the whole run) or poison the shared mutexes. A panic drops the
//!   job's state, which closes its LLM session.
//! * A failed job is **requeued once** — transient failures (a flaky
//!   model, an OOM-killed subprocess in a real deployment) get one more
//!   chance; a second failure quarantines the job as a distinct
//!   [`Verdict::WorkerPanic`] row so the campaign stays complete and
//!   honest instead of silently losing coverage.
//! * Shared-state locks recover from poisoning (`PoisonError::into_inner`)
//!   — a defense-in-depth layer behind `catch_unwind`: even a panic in
//!   an observability callback cannot wedge the remaining workers.
//!
//! Only a panic fails an attempt: no setting of the pool reads the
//! clock, so every row stays a pure function of its job. The
//! deterministic failure-injection knob
//! ([`CampaignConfig::inject_panic`](crate::CampaignConfig::inject_panic))
//! exists so the supervision machinery is testable end-to-end: it fires
//! by job-id substring match inside the supervised region, exactly where
//! a real fault would.

use crate::eval::{EvalRecord, JobRun, LlmPolicy};
use crate::job::Job;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Poll, Wake, Waker};
use std::time::Duration;
use uvllm::{StageMemo, Verdict};
use uvllm_llm::Usage;

/// Registry handles for pool supervision (`campaign.*`), resolved once.
#[derive(Debug)]
struct PoolMetrics {
    /// Job evaluations that panicked (every attempt counts).
    panics: &'static uvllm_obs::Counter,
    /// Jobs given their one retry after a failed attempt.
    requeues: &'static uvllm_obs::Counter,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        panics: uvllm_obs::registry().counter("campaign.panics"),
        requeues: uvllm_obs::registry().counter("campaign.requeues"),
    })
}

/// A multi-consumer queue of jobs, cut into one stretch per consumer
/// thread (module docs).
#[derive(Debug)]
pub(crate) struct WorkQueue {
    state: Mutex<Stretches>,
}

/// What a [`WorkQueue`]'s one lock guards.
#[derive(Debug)]
struct Stretches {
    /// The job list; a claimed job's cell is empty.
    jobs: Vec<Option<Job>>,
    /// Thread *k*'s unclaimed stretch of `jobs`.
    owned: Vec<Range<usize>>,
    /// Jobs handed back for their retry, served before any stretch.
    requeued: VecDeque<Job>,
}

impl WorkQueue {
    /// Cuts `jobs` into `threads` contiguous stretches (`threads == 0`
    /// is treated as 1): thread *k* owns `k·n/t .. (k+1)·n/t`.
    pub fn new(jobs: Vec<Job>, threads: usize) -> Self {
        let (n, threads) = (jobs.len(), threads.max(1));
        let owned = (0..threads).map(|k| k * n / threads..(k + 1) * n / threads).collect();
        let jobs = jobs.into_iter().map(Some).collect();
        WorkQueue { state: Mutex::new(Stretches { jobs, owned, requeued: VecDeque::new() }) }
    }

    /// Thread `thread`'s next job: a requeued one if any, else the next
    /// of its stretch, else the first of the back half it steals from
    /// the largest remaining stretch; `None` when drained.
    ///
    /// # Panics
    ///
    /// If `thread` is not below the thread count the queue was cut for.
    pub fn pop(&self, thread: usize) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(job) = state.requeued.pop_front() {
            return Some(job);
        }
        if state.owned[thread].is_empty() {
            let (victim, len) = state
                .owned
                .iter()
                .map(ExactSizeIterator::len)
                .enumerate()
                .max_by_key(|&(_, len)| len)?;
            if len == 0 {
                return None;
            }
            let stretch = &mut state.owned[victim];
            let back = stretch.start + len / 2..stretch.end;
            stretch.end = back.start;
            state.owned[thread] = back;
        }
        let index = state.owned[thread].next()?;
        state.jobs[index].take()
    }

    /// Hands a job back for its retry (supervision requeue): the next
    /// pop of any thread takes it.
    pub fn push(&self, job: Job) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).requeued.push_back(job);
    }

    /// Jobs not yet claimed.
    pub fn remaining(&self) -> usize {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.owned.iter().map(ExactSizeIterator::len).sum::<usize>() + state.requeued.len()
    }
}

/// What supervision did during one pool run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Job attempts that panicked.
    pub panicked: u64,
    /// Jobs requeued for their single retry.
    pub requeued: u64,
    /// Jobs quarantined with a `worker_panic` row.
    pub quarantined_panics: u64,
}

/// The row recorded for a quarantined job: every identity field comes
/// from the job itself (the evaluation never produced a record), the
/// verdict marks the panic, and all result fields are the honest zeros.
fn quarantine_record(job: &Job) -> EvalRecord {
    EvalRecord {
        instance_id: job.instance.id(),
        design: job.instance.design.name,
        group: job.instance.design.category,
        kind: job.instance.kind,
        category: job.instance.ground_truth.category,
        method: job.method,
        backend: Default::default(),
        hit: false,
        fixed: false,
        fix_outcome: Verdict::WorkerPanic,
        claimed: false,
        texec: 0.0,
        stage_times: None,
        fixed_by: None,
        usage: Usage::default(),
        llm_wait: Duration::ZERO,
        llm_batch_max: 0,
        degraded: false,
    }
}

/// A job in flight: taken from the queue, not yet recorded or requeued.
struct Flight {
    /// Keyed on its job's index while it is parked: a stale wake (from
    /// an attempt that panicked) costs its retry one spurious poll.
    job: Job,
    /// `None` until the job's first step starts it.
    run: Option<JobRun>,
    /// Moves the flight from the parked table to the woken queue.
    waker: Waker,
}

/// A pool's shared state, under one lock.
#[derive(Default)]
struct Board {
    state: Mutex<BoardState>,
    changed: Condvar,
}

#[derive(Default)]
struct BoardState {
    /// Jobs in flight, parked ones included.
    in_flight: usize,
    /// Threads waiting on `changed` (a notify is a syscall: skip it
    /// when nobody waits).
    waiting: usize,
    parked: HashMap<usize, Flight>,
    /// Parked jobs whose answer is in, in wake order.
    woken: VecDeque<Flight>,
    /// Flights woken before they were parked: they do not park.
    early: HashSet<usize>,
    /// Job indices that already used their single retry.
    retried: HashSet<usize>,
    /// Set once `on_record` refuses a record: no new job starts.
    stopped: bool,
    stats: PoolStats,
}

impl Board {
    /// Every update is one whole step under the lock, and no job code
    /// runs under it, so a poisoned guard still holds valid state.
    fn lock(&self) -> MutexGuard<'_, BoardState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl BoardState {
    /// Books a panicked attempt of `job`: its first failure requeues it
    /// (while it still counts as in flight, so no thread exits while
    /// its retry is owed); its second quarantines it with a distinct
    /// outcome row, so coverage stays complete and the failure visible.
    fn failed(
        &mut self,
        job: &Job,
        queue: &WorkQueue,
        depth: &uvllm_obs::Gauge,
    ) -> Option<EvalRecord> {
        self.stats.panicked += 1;
        if self.retried.insert(job.index) {
            self.stats.requeued += 1;
            metrics().requeues.inc();
            depth.inc();
            queue.push(job.clone());
            return None;
        }
        self.stats.quarantined_panics += 1;
        Some(quarantine_record(job))
    }
}

/// The waker of one flight.
struct FlightWaker {
    board: Arc<Board>,
    index: usize,
}

impl Wake for FlightWaker {
    fn wake(self: Arc<Self>) {
        let mut state = self.board.lock();
        match state.parked.remove(&self.index) {
            Some(flight) => {
                state.woken.push_back(flight);
                if state.waiting > 0 {
                    self.board.changed.notify_one();
                }
            }
            None => {
                state.early.insert(self.index);
            }
        }
    }
}

/// Steps `flight` until it is done (its record) or waits on an answer
/// that is not in yet. A new flight starts here, under the caller's
/// `catch_unwind`, where an injected panic fires.
fn fly(
    flight: &mut Flight,
    llm: &LlmPolicy<'_>,
    memo: &StageMemo,
    inject_panic: Option<&str>,
) -> Poll<EvalRecord> {
    let Flight { job, run, waker } = flight;
    let run = match run {
        Some(run) => run,
        None => {
            let job_id = job.id();
            if inject_panic.is_some_and(|pattern| job_id.contains(pattern)) {
                panic!("injected worker panic for job {job_id}");
            }
            run.insert(JobRun::start(job.method, &job.instance, llm))
        }
    };
    run.advance(&job.instance, memo, waker)
}

/// Runs `jobs` on `workers` threads (`0` is treated as 1), the calling
/// thread as worker 0 and `workers − 1` spawned ones, drawing LLM
/// service handles from `llm` (a per-job [`uvllm_llm::DirectService`],
/// or sessions of the shared [`crate::SharedLlm`], on which a job
/// waiting for an answer is parked — module docs), panicking jobs whose
/// id contains `inject_panic`, on the caller's stage memo (the
/// dataset's, so shards and resumed runs share what they learn about a
/// text).
/// `on_record` takes every finished job's record (on any of the pool's
/// threads, the caller's included, in completion order) and is the only
/// place it goes; once it returns `false` no new job starts, and the
/// jobs still in flight finish and are handed to it too. Returns what
/// supervision did.
pub(crate) fn run_pool_supervised(
    jobs: Vec<Job>,
    workers: usize,
    llm: &LlmPolicy<'_>,
    memo: &StageMemo,
    inject_panic: Option<&str>,
    on_record: impl Fn(&Job, &EvalRecord) -> bool + Sync,
) -> PoolStats {
    let workers = workers.max(1);
    let threads = workers.min(jobs.len().max(1));
    let cap = llm.jobs_in_flight(workers);
    let queue = WorkQueue::new(jobs, threads);
    let board = Arc::new(Board::default());
    // `campaign.queue_depth` tracks unclaimed jobs; gauges are absolute,
    // so concurrent pools would fight over it — campaigns run one pool
    // at a time, which is the case the snapshot documents.
    let depth = uvllm_obs::registry().gauge("campaign.queue_depth");
    depth.set(queue.remaining() as i64);

    // Worker `thread`'s loop. Worker 0 runs it on the calling thread,
    // which would otherwise sit idle in the join: one thread fewer also
    // means one malloc arena fewer holding freed memory.
    let work = |thread: usize| {
        let thread_jobs = uvllm_obs::registry().counter(&format!("campaign.worker.{thread}.jobs"));
        loop {
            // A woken job first, then a new one while in flight
            // stays below the cap and the pool is not stopped;
            // otherwise wait for either.
            let mut flight = {
                let mut state = board.lock();
                loop {
                    if let Some(flight) = state.woken.pop_front() {
                        break flight;
                    }
                    if state.in_flight < cap {
                        let job = if state.stopped { None } else { queue.pop(thread) };
                        if let Some(job) = job {
                            depth.dec();
                            state.in_flight += 1;
                            let waker = FlightWaker { board: Arc::clone(&board), index: job.index };
                            let waker = Waker::from(Arc::new(waker));
                            break Flight { job, run: None, waker };
                        }
                        if state.in_flight == 0 {
                            return;
                        }
                    }
                    state.waiting += 1;
                    state = board.changed.wait(state).unwrap_or_else(PoisonError::into_inner);
                    state.waiting -= 1;
                }
            };
            let outcome =
                catch_unwind(AssertUnwindSafe(|| fly(&mut flight, llm, memo, inject_panic)));
            let record = match outcome {
                Ok(Poll::Pending) => {
                    let mut state = board.lock();
                    if state.early.remove(&flight.job.index) {
                        state.woken.push_back(flight);
                    } else {
                        state.parked.insert(flight.job.index, flight);
                    }
                    continue;
                }
                Ok(Poll::Ready(record)) => Some(record),
                Err(_) => {
                    metrics().panics.inc();
                    board.lock().failed(&flight.job, &queue, depth)
                }
            };
            let accepted = record.is_none_or(|record| {
                thread_jobs.inc();
                on_record(&flight.job, &record)
            });
            let mut state = board.lock();
            state.in_flight -= 1;
            state.stopped |= !accepted;
            let wake = state.waiting > 0;
            drop(state);
            if wake {
                board.changed.notify_all();
            }
        }
    };
    std::thread::scope(|scope| {
        for thread in 1..threads {
            let work = &work;
            scope.spawn(move || work(thread));
        }
        work(0);
    });

    let stats = board.lock().stats;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::MethodKind;
    use crate::job::expand_jobs;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use uvllm::build_instance;
    use uvllm_designs::by_name;
    use uvllm_errgen::ErrorKind;
    use uvllm_llm::Ticket;

    /// [`run_pool_supervised`] on a memo of its own, panicking the jobs
    /// whose id contains `inject_panic`: the records `on_record` took,
    /// in job order, and what supervision did.
    fn run_pool(
        jobs: Vec<Job>,
        workers: usize,
        llm: &LlmPolicy<'_>,
        inject_panic: Option<&str>,
    ) -> (Vec<EvalRecord>, PoolStats) {
        let records = Mutex::new(Vec::new());
        let memo = StageMemo::new();
        let stats = run_pool_supervised(jobs, workers, llm, &memo, inject_panic, |job, record| {
            records.lock().unwrap().push((job.index, record.clone()));
            true
        });
        let mut records = records.into_inner().unwrap();
        records.sort_by_key(|&(index, _)| index);
        (records.into_iter().map(|(_, record)| record).collect(), stats)
    }

    fn jobs_on(design: &str, methods: &[MethodKind], seeds: u64) -> Vec<Job> {
        let d = by_name(design).unwrap();
        let instances: Vec<_> = (0..seeds)
            .filter_map(|s| {
                build_instance(d, ErrorKind::MissingSemicolon, s, &uvllm::StageMemo::new())
            })
            .map(Arc::new)
            .collect();
        assert!(!instances.is_empty());
        expand_jobs(&instances, methods)
    }

    /// `n` jobs numbered `0..n`, all of one instance (the queue never
    /// looks inside a job).
    fn numbered_jobs(n: usize) -> Vec<Job> {
        let mut jobs = jobs_on("mux4", &[MethodKind::Strider], 1);
        let job = jobs.pop().unwrap();
        (0..n).map(|index| Job { index, ..job.clone() }).collect()
    }

    fn index_of(job: Option<Job>) -> Option<usize> {
        job.map(|job| job.index)
    }

    #[test]
    fn stretches_partition_the_list() {
        for n in [0, 1, 5, 12, 331 * 6] {
            for workers in 1..=8 {
                let queue = WorkQueue::new(numbered_jobs(n), workers);
                let state = queue.state.lock().unwrap();
                assert_eq!(state.owned.len(), workers);
                let mut next = 0;
                for (k, stretch) in state.owned.iter().enumerate() {
                    assert_eq!(stretch.start, next, "n {n}, worker {k} of {workers}");
                    assert_eq!(stretch.start, k * n / workers);
                    next = stretch.end;
                }
                assert_eq!(next, n, "n {n}, {workers} workers");
                drop(state);
                assert_eq!(queue.remaining(), n);
            }
        }
    }

    #[test]
    fn worker_k_starts_at_job_k_n_over_w() {
        let (n, workers) = (20, 3);
        let queue = WorkQueue::new(numbered_jobs(n), workers);
        for k in 0..workers {
            assert_eq!(index_of(queue.pop(k)), Some(k * n / workers));
        }
        // Each worker then walks forward through its own stretch.
        assert_eq!(index_of(queue.pop(1)), Some(7));
        assert_eq!(index_of(queue.pop(0)), Some(1));
    }

    #[test]
    fn an_emptied_worker_steals_the_back_half_of_the_largest_stretch() {
        // Stretches 0..4, 4..8, 8..12.
        let queue = WorkQueue::new(numbered_jobs(12), 3);
        for expected in 0..4 {
            assert_eq!(index_of(queue.pop(0)), Some(expected));
        }
        assert_eq!(index_of(queue.pop(1)), Some(4));
        // Worker 0 is empty; 8..12 (4 left) beats 5..8 (3 left).
        assert_eq!(index_of(queue.pop(0)), Some(10));
        assert_eq!(index_of(queue.pop(0)), Some(11));
        assert_eq!(index_of(queue.pop(2)), Some(8));
        assert_eq!(index_of(queue.pop(2)), Some(9));
        // 5..8 is now the largest: its back half (2 of 3) goes.
        assert_eq!(index_of(queue.pop(2)), Some(6));
        assert_eq!(index_of(queue.pop(1)), Some(5));
        // A one-job stretch is stolen whole.
        assert_eq!(index_of(queue.pop(1)), Some(7));
        for worker in 0..3 {
            assert_eq!(index_of(queue.pop(worker)), None);
        }
        assert_eq!(queue.remaining(), 0);
    }

    #[test]
    fn a_requeued_job_is_served_before_stretch_jobs() {
        let queue = WorkQueue::new(numbered_jobs(6), 2);
        let first = queue.pop(0).unwrap();
        assert_eq!(first.index, 0);
        queue.push(first);
        assert_eq!(queue.remaining(), 6);
        assert_eq!(index_of(queue.pop(1)), Some(0), "the retry goes to whoever pops next");
        assert_eq!(index_of(queue.pop(1)), Some(3));
        assert_eq!(index_of(queue.pop(0)), Some(1));
    }

    #[test]
    fn remaining_stays_exact() {
        let n = 50;
        let queue = WorkQueue::new(numbered_jobs(n), 4);
        let mut outstanding = n;
        let mut retried = HashSet::new();
        let mut step = 0usize;
        while let Some(job) = queue.pop(step % 4) {
            outstanding -= 1;
            // Every seventh job is handed back once.
            if job.index % 7 == 0 && retried.insert(job.index) {
                queue.push(job);
                outstanding += 1;
            }
            assert_eq!(queue.remaining(), outstanding, "after step {step}");
            step += 1;
        }
        assert_eq!(outstanding, 0);
        assert_eq!(queue.remaining(), 0);
    }

    #[test]
    fn eight_threads_drain_every_job_exactly_once() {
        const THREADS: usize = 8;
        let n = 2000;
        let queue = WorkQueue::new(numbered_jobs(n), THREADS);
        let start = std::sync::Barrier::new(THREADS);
        let mut popped: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|worker| {
                    let (queue, start) = (&queue, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut mine = Vec::new();
                        while let Some(job) = queue.pop(worker) {
                            mine.push(job.index);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        popped.sort_unstable();
        assert_eq!(popped, (0..n).collect::<Vec<_>>());
        assert_eq!(queue.remaining(), 0);
    }

    #[test]
    fn on_record_takes_every_job_once() {
        let jobs = jobs_on("mux4", &[MethodKind::Strider, MethodKind::RtlRepair], 3);
        let expected: Vec<String> = jobs.iter().map(Job::id).collect();
        let (records, _) = run_pool(jobs, 4, &LlmPolicy::direct(), None);
        let got: Vec<String> = records.iter().map(EvalRecord::job_id).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn a_refused_record_stops_new_jobs() {
        let jobs = jobs_on("mux4", &[MethodKind::Strider, MethodKind::RtlRepair], 3);
        let offered = AtomicUsize::new(0);
        let stats =
            run_pool_supervised(jobs, 1, &LlmPolicy::direct(), &StageMemo::new(), None, |_, _| {
                offered.fetch_add(1, Ordering::Relaxed);
                false
            });
        assert_eq!(offered.into_inner(), 1, "one thread, one job in flight");
        assert_eq!(stats, PoolStats::default());
    }

    /// A batched pool parks a job waiting on the LLM and starts another
    /// on the same thread: one worker keeps enough jobs in flight to
    /// fill a four-prompt flush, which one job per thread never can.
    #[test]
    fn one_batched_worker_fills_a_four_prompt_flush_from_four_jobs() {
        let llm = LlmPolicy::direct().with_batch(Some(uvllm_llm::BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(20),
            ..uvllm_llm::BatchConfig::default()
        }));
        let methods = [MethodKind::Uvllm, MethodKind::Meic, MethodKind::GptDirect];
        let (records, _) = run_pool(jobs_on("alu_8bit", &methods, 6), 1, &llm, None);
        let batch_max = records.iter().map(|r| r.llm_batch_max).max();
        assert_eq!(batch_max, Some(4), "no flush carried four jobs' prompts");
    }

    /// Tickets submitted and not yet answered, across every job.
    static OUTSTANDING: AtomicUsize = AtomicUsize::new(0);
    /// The most [`OUTSTANDING`] ever was.
    static MOST_OUTSTANDING: AtomicUsize = AtomicUsize::new(0);
    /// The pool threads that submitted.
    static SUBMITTERS: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
    /// Holds each of the two pool threads at its first submission until
    /// the other has submitted too, so both take part.
    static BOTH_SUBMIT: std::sync::Barrier = std::sync::Barrier::new(2);

    /// Counts a job's outstanding tickets in front of its real handle.
    struct Counting(Box<dyn uvllm_llm::LlmService>);

    impl uvllm_llm::LlmService for Counting {
        fn backend_name(&self) -> &str {
            self.0.backend_name()
        }

        fn submit(&mut self, prompt: &uvllm_llm::RepairPrompt) -> Ticket {
            let first = {
                let mut submitters = SUBMITTERS.lock().unwrap();
                let me = std::thread::current().id();
                !submitters.contains(&me) && {
                    submitters.push(me);
                    true
                }
            };
            if first {
                BOTH_SUBMIT.wait();
            }
            let now = OUTSTANDING.fetch_add(1, Ordering::SeqCst) + 1;
            MOST_OUTSTANDING.fetch_max(now, Ordering::SeqCst);
            self.0.submit(prompt)
        }

        fn await_completion(
            &mut self,
            _: Ticket,
        ) -> Result<uvllm_llm::Completion, uvllm_llm::LlmError> {
            unreachable!("a pool polls")
        }

        fn poll_completion(
            &mut self,
            ticket: Ticket,
            waker: &Waker,
        ) -> Poll<Result<uvllm_llm::Completion, uvllm_llm::LlmError>> {
            let answer = self.0.poll_completion(ticket, waker);
            if answer.is_ready() {
                OUTSTANDING.fetch_sub(1, Ordering::SeqCst);
            }
            answer
        }

        fn usage(&self) -> Usage {
            self.0.usage()
        }

        fn wait_stats(&self) -> uvllm_llm::WaitStats {
            self.0.wait_stats()
        }
    }

    #[test]
    fn a_batched_pool_runs_workers_threads_and_parks_up_to_the_cap() {
        let (workers, max_batch) = (2, 2);
        let service = crate::SharedLlm::start(uvllm_llm::BatchConfig {
            max_batch,
            round_trip: Duration::from_millis(10),
            ..uvllm_llm::BatchConfig::default()
        });
        let llm = LlmPolicy::batched(&service).with_wrap(|inner| Box::new(Counting(inner)));
        // Syntax mutants: every job of these methods asks the LLM.
        let methods = [MethodKind::Uvllm, MethodKind::Meic, MethodKind::GptDirect];
        let jobs = jobs_on("alu_8bit", &methods, 6);
        let expected = jobs.len();
        let (records, _) = run_pool(jobs, workers, &llm, None);
        assert_eq!(records.len(), expected);
        assert_eq!(SUBMITTERS.lock().unwrap().len(), workers, "one thread per worker");
        assert_eq!(OUTSTANDING.load(Ordering::SeqCst), 0);
        let most = MOST_OUTSTANDING.load(Ordering::SeqCst);
        let cap = workers + 2 * max_batch;
        assert!(most <= cap, "{most} jobs waited at once, over the cap of {cap}");
        assert!(most > workers, "jobs waiting on the LLM are parked, not holding threads");
    }

    #[test]
    fn empty_queue_is_fine() {
        let (records, _) = run_pool(Vec::new(), 8, &LlmPolicy::direct(), None);
        assert!(records.is_empty());
    }

    #[test]
    fn injected_panic_is_requeued_then_quarantined() {
        let jobs = jobs_on("mux4", &[MethodKind::Strider], 3);
        let expected: Vec<String> = jobs.iter().map(Job::id).collect();
        // Deterministic panic on the first job: it fails, gets its one
        // retry, fails again and quarantines — the other jobs complete.
        let (records, stats) = run_pool(jobs, 2, &LlmPolicy::direct(), Some(&expected[0]));
        let got: Vec<String> = records.iter().map(EvalRecord::job_id).collect();
        assert_eq!(got, expected, "quarantine keeps coverage complete and ordered");
        assert_eq!(records[0].fix_outcome, Verdict::WorkerPanic);
        assert!(!records[0].hit && !records[0].fixed && !records[0].claimed);
        assert!(records[1..].iter().all(|r| r.fix_outcome != Verdict::WorkerPanic));
        assert_eq!(stats.panicked, 2, "first attempt + retry");
        assert_eq!(stats.requeued, 1);
        assert_eq!(stats.quarantined_panics, 1);
    }

    #[test]
    fn panic_rows_serialize_with_the_worker_panic_outcome() {
        let jobs = jobs_on("mux4", &[MethodKind::Strider], 1);
        let record = quarantine_record(&jobs[0]);
        let row = record.to_row();
        assert_eq!(row.outcome, "worker_panic");
        let line = row.to_json_line();
        let back = crate::eval::EvalRow::from_json_line(&line).unwrap();
        assert_eq!(back, row, "worker_panic rows round-trip through JSONL");
    }
}
