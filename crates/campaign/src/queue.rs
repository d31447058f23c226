//! The shared work queue and the supervised worker pool that drains it.
//!
//! Deliberately boring concurrency: one `Mutex` over the job list,
//! popped by the pool's threads (`std::thread::scope`). Jobs are coarse
//! — one job is a full verification run with hundreds of simulated
//! cycles — so a single uncontended lock per job is noise, and plain
//! `std` keeps the engine dependency-free. Determinism does not depend
//! on pop order: every record is a pure function of its job.
//!
//! **Threads and CPU slots.** `workers` is how many jobs may compute at
//! once. An unbatched pool runs one thread per worker. A pool on a
//! batched LLM service runs `JOBS_IN_FLIGHT_PER_SLOT` (2) threads per
//! worker under one CPU slot per worker: a thread holds a slot while it
//! evaluates a job and lends it out while it waits on the LLM, so a
//! second job computes while the first waits and the service's flushes
//! fill (`crate::slots`).
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
//! * Every evaluation runs inside `catch_unwind`, so one panicking job
//!   cannot kill its worker thread (which would abort the scope and the
//!   whole run) or poison the shared mutexes.
//! * A failed job is **requeued once** — transient failures (a flaky
//!   model, an OOM-killed subprocess in a real deployment) get one more
//!   chance; a second failure quarantines the job as a distinct
//!   [`Verdict::WorkerPanic`] row so the campaign stays complete and
//!   honest instead of silently losing coverage.
//! * An optional per-job wall-clock deadline is checked when the
//!   evaluation returns (safe Rust cannot preempt a compute-bound
//!   thread): a job that took longer has its late result discarded and
//!   is requeued once / quarantined as [`Verdict::JobTimeout`]. (The row
//!   is pure wall-clock policy and therefore only meaningful when the
//!   deadline knob is set — deadline-free campaigns keep the
//!   determinism contract.)
//! * Shared-state locks recover from poisoning (`PoisonError::into_inner`)
//!   — a defense-in-depth layer behind `catch_unwind`: even a panic in
//!   an observability callback cannot wedge the remaining workers.
//!
//! Deterministic failure-injection knobs ([`PoolPolicy::inject_panic`],
//! [`PoolPolicy::inject_stall`]) exist so the supervision machinery is
//! testable end-to-end: they fire by job-id substring match inside the
//! supervised region, exactly where a real fault would.

use crate::eval::{evaluate_one_on, EvalRecord, LlmPolicy};
use crate::job::Job;
use crate::slots::{CpuSlots, JOBS_IN_FLIGHT_PER_SLOT};
use std::collections::{HashSet, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use uvllm::{StageMemo, Verdict};
use uvllm_llm::Usage;

/// Registry handles for pool supervision (`campaign.*`), resolved once.
#[derive(Debug)]
struct PoolMetrics {
    /// Job evaluations that panicked (every attempt counts).
    panics: &'static uvllm_obs::Counter,
    /// Jobs given their one retry after a failed attempt.
    requeues: &'static uvllm_obs::Counter,
    /// Job attempts that blew the wall-clock deadline.
    job_timeouts: &'static uvllm_obs::Counter,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        panics: uvllm_obs::registry().counter("campaign.panics"),
        requeues: uvllm_obs::registry().counter("campaign.requeues"),
        job_timeouts: uvllm_obs::registry().counter("campaign.job_timeouts"),
    })
}

/// A multi-consumer queue of jobs, cut into one stretch per consumer
/// thread (module docs).
#[derive(Debug)]
pub struct WorkQueue {
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

/// Supervision policy of a worker pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolPolicy {
    /// Per-job wall-clock budget. `None` (default) disables the
    /// deadline — the deterministic configuration.
    pub job_deadline: Option<Duration>,
    /// Fault injection: panic any job whose id contains this substring
    /// (deterministic, so the job fails its retry too and quarantines).
    pub inject_panic: Option<String>,
    /// Fault injection: stall any job whose id contains the substring
    /// by the given duration before evaluating (used with
    /// [`PoolPolicy::job_deadline`] to exercise the deadline).
    pub inject_stall: Option<(String, Duration)>,
}

/// What supervision did during one pool run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Job attempts that panicked.
    pub panicked: u64,
    /// Jobs requeued for their single retry (panic or timeout).
    pub requeued: u64,
    /// Job attempts that blew the wall-clock deadline.
    pub timed_out: u64,
    /// Jobs quarantined with a `worker_panic` row.
    pub quarantined_panics: u64,
    /// Jobs quarantined with a `job_timeout` row.
    pub quarantined_timeouts: u64,
}

/// The row recorded for a quarantined job: every identity field comes
/// from the job itself (the evaluation never produced a record), the
/// verdict marks why, and all result fields are the honest zeros.
fn quarantine_record(job: &Job, verdict: Verdict) -> EvalRecord {
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
        fix_outcome: verdict,
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

/// Runs `jobs` with at most `workers` computing at once, drawing LLM
/// service handles from `llm` (a per-job
/// [`uvllm_llm::DirectService`], or sessions of the shared
/// [`crate::SharedLlm`], on which a pool thread waiting for an answer
/// lends its CPU slot to another — module docs); `on_record` observes
/// every finished job (from pool threads, in completion order) and the
/// returned list is sorted back into job order.
///
/// `workers == 0` is treated as 1. The pool analyses on a memo of its
/// own ([`run_pool_supervised`] takes the caller's).
pub fn run_pool(
    jobs: Vec<Job>,
    workers: usize,
    llm: &LlmPolicy<'_>,
    on_record: impl Fn(&Job, &EvalRecord) + Sync,
) -> Vec<EvalRecord> {
    let memo = StageMemo::new();
    run_pool_supervised(jobs, workers, llm, &memo, &PoolPolicy::default(), on_record).0
}

/// [`run_pool`] under an explicit supervision policy and on the
/// caller's stage memo (the dataset's, so shards and resumed runs
/// share what they learn about a text), also returning what supervision did (module docs
/// describe the semantics).
pub fn run_pool_supervised(
    jobs: Vec<Job>,
    workers: usize,
    llm: &LlmPolicy<'_>,
    memo: &StageMemo,
    policy: &PoolPolicy,
    on_record: impl Fn(&Job, &EvalRecord) + Sync,
) -> (Vec<EvalRecord>, PoolStats) {
    let workers = workers.max(1);
    let (threads, slots) = if llm.is_batched() {
        (workers * JOBS_IN_FLIGHT_PER_SLOT, Some(Arc::new(CpuSlots::new(workers))))
    } else {
        (workers, None)
    };
    let threads = threads.min(jobs.len().max(1));
    let lending = slots.as_ref().map(|slots| llm.lending(Arc::clone(slots)));
    let llm = lending.as_ref().unwrap_or(llm);
    let slots = slots.as_deref();
    let queue = WorkQueue::new(jobs, threads);
    let results: Mutex<Vec<(usize, EvalRecord)>> = Mutex::new(Vec::new());
    // Job indices that already used their single retry.
    let retried: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
    let panicked = AtomicU64::new(0);
    let requeued = AtomicU64::new(0);
    let timed_out = AtomicU64::new(0);
    let quarantined_panics = AtomicU64::new(0);
    let quarantined_timeouts = AtomicU64::new(0);
    // `campaign.queue_depth` tracks unclaimed jobs; gauges are absolute,
    // so concurrent pools would fight over it — campaigns run one pool
    // at a time, which is the case the snapshot documents.
    let depth = uvllm_obs::registry().gauge("campaign.queue_depth");
    depth.set(queue.remaining() as i64);

    std::thread::scope(|scope| {
        for thread in 0..threads {
            let thread_jobs =
                uvllm_obs::registry().counter(&format!("campaign.worker.{thread}.jobs"));
            let queue = &queue;
            let results = &results;
            let retried = &retried;
            let on_record = &on_record;
            let panicked = &panicked;
            let requeued = &requeued;
            let timed_out = &timed_out;
            let quarantined_panics = &quarantined_panics;
            let quarantined_timeouts = &quarantined_timeouts;
            scope.spawn(move || {
                while let Some(job) = queue.pop(thread) {
                    depth.dec();
                    // Held until this job's row is in (or it is
                    // requeued), lent out while it waits on the LLM.
                    let _cpu = slots.map(CpuSlots::hold);
                    let started = Instant::now();
                    let job_id = job.id();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if let Some(pattern) = &policy.inject_panic {
                            if job_id.contains(pattern.as_str()) {
                                panic!("injected worker panic for job {job_id}");
                            }
                        }
                        if let Some((pattern, stall)) = &policy.inject_stall {
                            if job_id.contains(pattern.as_str()) {
                                std::thread::sleep(*stall);
                            }
                        }
                        evaluate_one_on(job.method, &job.instance, llm, memo)
                    }));

                    // Classify the attempt: a panic always fails it; a
                    // completed evaluation fails when it took longer
                    // than the deadline — the late result is discarded,
                    // never half-trusted.
                    let failure = match outcome {
                        Err(_) => {
                            panicked.fetch_add(1, Ordering::Relaxed);
                            metrics().panics.inc();
                            Some(Verdict::WorkerPanic)
                        }
                        Ok(_)
                            if policy
                                .job_deadline
                                .is_some_and(|deadline| started.elapsed() >= deadline) =>
                        {
                            timed_out.fetch_add(1, Ordering::Relaxed);
                            metrics().job_timeouts.inc();
                            Some(Verdict::JobTimeout)
                        }
                        Ok(record) => {
                            thread_jobs.inc();
                            on_record(&job, &record);
                            results
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push((job.index, record));
                            None
                        }
                    };

                    if let Some(verdict) = failure {
                        let first_failure = retried
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(job.index);
                        if first_failure {
                            // Requeue once: the worker stays in its
                            // loop, so the retried job cannot starve
                            // even if every other worker has exited.
                            requeued.fetch_add(1, Ordering::Relaxed);
                            metrics().requeues.inc();
                            depth.inc();
                            queue.push(job);
                        } else {
                            // Second failure: quarantine with a
                            // distinct outcome row so coverage stays
                            // complete and the failure visible.
                            match verdict {
                                Verdict::JobTimeout => {
                                    quarantined_timeouts.fetch_add(1, Ordering::Relaxed)
                                }
                                _ => quarantined_panics.fetch_add(1, Ordering::Relaxed),
                            };
                            let record = quarantine_record(&job, verdict);
                            thread_jobs.inc();
                            on_record(&job, &record);
                            results
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push((job.index, record));
                        }
                    }
                }
            });
        }
    });

    let mut results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_by_key(|(index, _)| *index);
    (
        results.into_iter().map(|(_, record)| record).collect(),
        PoolStats {
            panicked: panicked.into_inner(),
            requeued: requeued.into_inner(),
            timed_out: timed_out.into_inner(),
            quarantined_panics: quarantined_panics.into_inner(),
            quarantined_timeouts: quarantined_timeouts.into_inner(),
        },
    )
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
    fn pool_preserves_job_order_in_results() {
        let jobs = jobs_on("mux4", &[MethodKind::Strider, MethodKind::RtlRepair], 3);
        let expected: Vec<String> = jobs.iter().map(Job::id).collect();
        let seen = AtomicUsize::new(0);
        let records = run_pool(jobs, 4, &LlmPolicy::direct(), |_, _| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), expected.len());
        let got: Vec<String> = records.iter().map(EvalRecord::job_id).collect();
        assert_eq!(got, expected, "results must come back in job order");
    }

    #[test]
    fn empty_queue_is_fine() {
        let records = run_pool(Vec::new(), 8, &LlmPolicy::direct(), |_, _| {});
        assert!(records.is_empty());
    }

    #[test]
    fn injected_panic_is_requeued_then_quarantined() {
        let jobs = jobs_on("mux4", &[MethodKind::Strider], 3);
        let expected: Vec<String> = jobs.iter().map(Job::id).collect();
        // Deterministic panic on the first job: it fails, gets its one
        // retry, fails again and quarantines — the other jobs complete.
        let policy = PoolPolicy { inject_panic: Some(expected[0].clone()), ..Default::default() };
        let (records, stats) = run_pool_supervised(
            jobs,
            2,
            &LlmPolicy::direct(),
            &StageMemo::new(),
            &policy,
            |_, _| {},
        );
        let got: Vec<String> = records.iter().map(EvalRecord::job_id).collect();
        assert_eq!(got, expected, "quarantine keeps coverage complete and ordered");
        assert_eq!(records[0].fix_outcome, Verdict::WorkerPanic);
        assert!(!records[0].hit && !records[0].fixed && !records[0].claimed);
        assert!(records[1..].iter().all(|r| r.fix_outcome != Verdict::WorkerPanic));
        assert_eq!(stats.panicked, 2, "first attempt + retry");
        assert_eq!(stats.requeued, 1);
        assert_eq!(stats.quarantined_panics, 1);
        assert_eq!(stats.quarantined_timeouts, 0);
    }

    #[test]
    fn stalled_job_blows_the_deadline_and_quarantines() {
        let jobs = jobs_on("mux4", &[MethodKind::Strider], 2);
        let expected: Vec<String> = jobs.iter().map(Job::id).collect();
        let policy = PoolPolicy {
            job_deadline: Some(Duration::from_millis(100)),
            inject_stall: Some((expected[1].clone(), Duration::from_millis(400))),
            ..Default::default()
        };
        let (records, stats) = run_pool_supervised(
            jobs,
            2,
            &LlmPolicy::direct(),
            &StageMemo::new(),
            &policy,
            |_, _| {},
        );
        let got: Vec<String> = records.iter().map(EvalRecord::job_id).collect();
        assert_eq!(got, expected);
        assert_eq!(records[1].fix_outcome, Verdict::JobTimeout);
        assert_ne!(records[0].fix_outcome, Verdict::JobTimeout, "only the stalled job overran");
        assert_eq!(stats.timed_out, 2, "stall is deterministic: attempt + retry both overrun");
        assert_eq!(stats.quarantined_timeouts, 1);
    }

    #[test]
    fn panic_rows_serialize_with_the_worker_panic_outcome() {
        let jobs = jobs_on("mux4", &[MethodKind::Strider], 1);
        let record = quarantine_record(&jobs[0], Verdict::WorkerPanic);
        let row = record.to_row();
        assert_eq!(row.outcome, "worker_panic");
        let line = row.to_json_line();
        let back = crate::eval::EvalRow::from_json_line(&line).unwrap();
        assert_eq!(back, row, "worker_panic rows round-trip through JSONL");
    }
}
