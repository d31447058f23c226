//! Fault-tolerance guarantees of the serving stack, end to end:
//!
//! * **byte-identity under faults** — a campaign with LLM faults
//!   injected at double-digit rates, absorbed by the resilient
//!   service's retries, produces rows byte-identical to the fault-free
//!   run (the injector fabricates faults
//!   without consuming the model's stream, so a retried ticket lands on
//!   exactly the completion the clean run saw);
//! * **replay** — the same `--fault-seed` produces the same fault
//!   sequence, rows and resilience counters, twice;
//! * **panic isolation** — an injected worker panic quarantines its own
//!   job as a `worker_panic` row while every other job completes and
//!   the run exits cleanly;
//! * **honest degradation** — when the retry budget genuinely cannot
//!   absorb the fault rate, affected rows carry `"degraded": true` and
//!   every *other* row still matches the fault-free baseline.

use std::sync::Mutex;
use std::time::Duration;
use uvllm_campaign::{
    Campaign, CampaignConfig, FaultPlan, MemorySink, MethodKind, ResiliencePolicy,
};

/// The replay test measures *deltas* of the process-global resilience
/// counters; every test that injects faults takes this lock so a
/// concurrent sibling cannot bleed into the measured window.
static FAULT_COUNTERS: Mutex<()> = Mutex::new(());

fn config() -> CampaignConfig {
    CampaignConfig {
        dataset_size: 8,
        dataset_seed: 0xFA11,
        // LLM-heavy methods: the pipeline, a baseline conversation and
        // the one-shot direct method all route through the resilient
        // service; Strider covers the LLM-free path staying untouched.
        methods: vec![MethodKind::Uvllm, MethodKind::GptDirect, MethodKind::Strider],
        workers: 2,
        ..CampaignConfig::default()
    }
}

fn faults() -> FaultPlan {
    FaultPlan { error_rate: 0.15, malform_rate: 0.10, ..FaultPlan::default() }
}

fn retries(budget: u32) -> ResiliencePolicy {
    ResiliencePolicy {
        retries: budget,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_micros(400),
        breaker_threshold: 100,
        validate: true,
        ..ResiliencePolicy::default()
    }
}

fn sorted_rows(config: CampaignConfig) -> Vec<String> {
    let mut sink = MemorySink::new();
    Campaign::new(config).unwrap().run(&mut sink).unwrap();
    let mut rows: Vec<String> = sink.rows().iter().map(|r| r.to_json_line()).collect();
    rows.sort();
    rows
}

#[test]
fn faulted_rows_match_the_fault_free_baseline() {
    let _serial = FAULT_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = sorted_rows(config());
    assert_eq!(baseline.len(), 24, "8 instances x 3 methods");
    let mut faulted = config();
    faulted.fault = Some(faults());
    faulted.resilience = Some(retries(8));
    let rows = sorted_rows(faulted);
    assert!(
        !rows.iter().any(|r| r.contains("\"degraded\"")),
        "8 retries must absorb 25% fault rates without degrading"
    );
    assert_eq!(rows, baseline, "faulted rows must match the fault-free run");
}

#[test]
fn the_same_fault_seed_replays_rows_and_counters() {
    let _serial = FAULT_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let run = || {
        let mut faulted = config();
        faulted.fault = Some(FaultPlan { seed: 0xBAD5EED, ..faults() });
        faulted.resilience = Some(retries(8));
        let before = |name: &str| uvllm_obs::registry().counter(name).get();
        let (retries0, faults0) = (before("llm.retries"), before("llm.faults.errors"));
        let rows = sorted_rows(faulted);
        (rows, before("llm.retries") - retries0, before("llm.faults.errors") - faults0)
    };
    let (rows_a, retries_a, faults_a) = run();
    let (rows_b, retries_b, faults_b) = run();
    assert!(faults_a > 0, "the plan must inject something for replay to mean anything");
    assert_eq!(rows_a, rows_b, "same fault seed, same rows");
    assert_eq!(retries_a, retries_b, "same fault seed, same retry count");
    assert_eq!(faults_a, faults_b, "same fault seed, same injected-fault count");
}

#[test]
fn an_injected_panic_quarantines_one_job_and_the_rest_complete() {
    let mut with_panic = config();
    let victim = "@GPT-4-turbo";
    with_panic.inject_panic = Some(victim.to_string());
    let mut sink = MemorySink::new();
    let outcome = Campaign::new(with_panic).unwrap().run(&mut sink).unwrap();
    assert_eq!(sink.rows().len(), 24, "every job answers, crashed ones included");
    let panicked: Vec<_> = sink.rows().iter().filter(|r| r.outcome == "worker_panic").collect();
    assert_eq!(panicked.len(), 8, "each GPT-direct job quarantines after its one requeue");
    assert!(panicked.iter().all(|r| r.id.contains(victim)));
    assert_eq!(outcome.pool_stats.requeued, 8, "every panicking job gets one second chance");
    assert_eq!(outcome.pool_stats.quarantined_panics, 8);

    // Rows the panic did not touch are byte-identical to a clean run.
    let baseline = sorted_rows(config());
    let mut unaffected: Vec<String> =
        sink.rows().iter().filter(|r| !r.id.contains(victim)).map(|r| r.to_json_line()).collect();
    unaffected.sort();
    let expected: Vec<String> =
        baseline.iter().filter(|line| !line.contains(victim)).cloned().collect();
    assert_eq!(unaffected, expected, "surviving jobs must be untouched by the sibling panics");
}

#[test]
fn a_starved_retry_budget_degrades_honestly() {
    let _serial = FAULT_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    // No retries, no validation gate on top — every injected error
    // lands on the degradation chain. The heuristic fallback cannot
    // answer most prompts, so NoResponse surfaces; the engine treats
    // that like any other per-call model failure, and the campaign
    // still completes with every row present.
    let mut starved = config();
    starved.fault = Some(FaultPlan { error_rate: 0.35, ..FaultPlan::default() });
    starved.resilience =
        Some(ResiliencePolicy { retries: 0, breaker_threshold: 100, ..retries(0) });
    let mut sink = MemorySink::new();
    let outcome = Campaign::new(starved).unwrap().run(&mut sink).unwrap();
    assert_eq!(sink.rows().len(), 24, "degradation never loses rows");
    let degraded: Vec<_> = sink.rows().iter().filter(|r| r.degraded == Some(true)).collect();
    assert!(!degraded.is_empty(), "a 35% error rate with zero retries must degrade something");
    assert!(degraded.iter().all(|r| r.method != "Strider"), "LLM-free methods cannot degrade");
    assert!(outcome.metrics.counter("llm.degraded").unwrap_or(0) > 0);

    // Rows that did not degrade match the fault-free baseline exactly.
    let baseline = sorted_rows(config());
    let kept: Vec<String> =
        sink.rows().iter().filter(|r| r.degraded != Some(true)).map(|r| r.to_json_line()).collect();
    for line in &kept {
        assert!(baseline.contains(line), "non-degraded row diverged from the baseline: {line}");
    }
}
