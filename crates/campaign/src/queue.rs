//! The shared work queue and the supervised worker pool that drains it.
//!
//! Deliberately boring concurrency: a `Mutex<VecDeque<Job>>` popped by
//! `N` OS threads (`std::thread::scope`). Jobs are coarse — one job is
//! a full verification run with hundreds of simulated cycles — so a
//! single uncontended lock per job is noise, and plain `std` keeps the
//! engine dependency-free. Determinism does not depend on pop order:
//! every record is a pure function of its job.
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
//! * An optional per-job wall-clock deadline is enforced by a watchdog
//!   thread that flags overrunning jobs. Safe Rust cannot preempt a
//!   compute-bound thread, so the flag is honored when the evaluation
//!   returns: the late result is discarded and the job is requeued once
//!   / quarantined as [`Verdict::JobTimeout`]. (The row is pure
//!   wall-clock policy and therefore only meaningful when the deadline
//!   knob is set — deadline-free campaigns keep the determinism
//!   contract.)
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
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
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

/// A multi-consumer queue of jobs.
#[derive(Debug)]
pub struct WorkQueue {
    jobs: Mutex<VecDeque<Job>>,
}

impl WorkQueue {
    /// Wraps a job list.
    pub fn new(jobs: Vec<Job>) -> Self {
        WorkQueue { jobs: Mutex::new(jobs.into()) }
    }

    /// Takes the next job, or `None` when drained.
    pub fn pop(&self) -> Option<Job> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner).pop_front()
    }

    /// Returns a job to the back of the queue (supervision requeue).
    pub fn push(&self, job: Job) {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner).push_back(job);
    }

    /// Jobs not yet claimed.
    pub fn remaining(&self) -> usize {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// Supervision policy of a worker pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolPolicy {
    /// Per-job wall-clock budget. `None` (default) disables the
    /// watchdog — the deterministic configuration.
    pub job_deadline: Option<Duration>,
    /// Fault injection: panic any job whose id contains this substring
    /// (deterministic, so the job fails its retry too and quarantines).
    pub inject_panic: Option<String>,
    /// Fault injection: stall any job whose id contains the substring
    /// by the given duration before evaluating (used with
    /// [`PoolPolicy::job_deadline`] to exercise the watchdog).
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

/// Runs `jobs` on `workers` OS threads, drawing LLM service handles
/// from `llm` (a per-job
/// [`uvllm_llm::DirectService`], or sessions of the shared
/// [`crate::SharedLlm`] so workers' LLM round trips overlap);
/// `on_record` observes every finished job (from worker threads, in
/// completion order) and the returned list is sorted back into job
/// order.
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
    let workers = workers.max(1).min(jobs.len().max(1));
    let queue = WorkQueue::new(jobs);
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

    // Watchdog state: per-worker start instant of the in-flight job and
    // the overrun flag the watchdog raises.
    let inflight: Vec<Mutex<Option<Instant>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    let overrun: Vec<AtomicBool> = (0..workers).map(|_| AtomicBool::new(false)).collect();
    let active = AtomicUsize::new(workers);

    std::thread::scope(|scope| {
        if let Some(deadline) = policy.job_deadline {
            let inflight = &inflight;
            let overrun = &overrun;
            let active = &active;
            // Poll a few times per deadline window; safe Rust cannot
            // preempt a compute-bound worker, so the flag is the whole
            // mechanism — workers honor it when the evaluation returns.
            let tick = (deadline / 4).clamp(Duration::from_millis(1), Duration::from_millis(200));
            scope.spawn(move || {
                while active.load(Ordering::Acquire) > 0 {
                    for (slot, flag) in inflight.iter().zip(overrun) {
                        let started = *slot.lock().unwrap_or_else(PoisonError::into_inner);
                        if let Some(started) = started {
                            if started.elapsed() >= deadline {
                                flag.store(true, Ordering::Release);
                            }
                        }
                    }
                    std::thread::sleep(tick);
                }
            });
        }

        for worker in 0..workers {
            let worker_jobs =
                uvllm_obs::registry().counter(&format!("campaign.worker.{worker}.jobs"));
            let queue = &queue;
            let results = &results;
            let retried = &retried;
            let on_record = &on_record;
            let slot = &inflight[worker];
            let flag = &overrun[worker];
            let active = &active;
            let panicked = &panicked;
            let requeued = &requeued;
            let timed_out = &timed_out;
            let quarantined_panics = &quarantined_panics;
            let quarantined_timeouts = &quarantined_timeouts;
            scope.spawn(move || {
                while let Some(job) = queue.pop() {
                    depth.dec();
                    flag.store(false, Ordering::Release);
                    let started = Instant::now();
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(started);
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
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;

                    // Classify the attempt: a panic always fails it; a
                    // completed evaluation fails when the watchdog (or
                    // the elapsed clock, covering polling granularity)
                    // says the deadline was blown — the late result is
                    // discarded, never half-trusted.
                    let failure = match outcome {
                        Err(_) => {
                            panicked.fetch_add(1, Ordering::Relaxed);
                            metrics().panics.inc();
                            Some(Verdict::WorkerPanic)
                        }
                        Ok(_)
                            if flag.load(Ordering::Acquire)
                                || policy
                                    .job_deadline
                                    .is_some_and(|deadline| started.elapsed() >= deadline) =>
                        {
                            timed_out.fetch_add(1, Ordering::Relaxed);
                            metrics().job_timeouts.inc();
                            Some(Verdict::JobTimeout)
                        }
                        Ok(record) => {
                            worker_jobs.inc();
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
                            worker_jobs.inc();
                            on_record(&job, &record);
                            results
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push((job.index, record));
                        }
                    }
                }
                active.fetch_sub(1, Ordering::Release);
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
        assert!(stats.timed_out >= 2, "stall is deterministic: attempt + retry both overrun");
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
