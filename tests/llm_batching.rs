//! The batched-LLM determinism contract, end to end: a campaign run
//! through the shared `BatchedLlm` service produces byte-identical rows
//! to the per-job direct path, at any worker count, with or without
//! injected endpoint latency — batching changes wall-clock only.

use std::time::Duration;
use uvllm_campaign::{
    BatchConfig, Campaign, CampaignConfig, EvalRow, FaultPlan, MemorySink, MethodKind,
    ResiliencePolicy, ShardSpec,
};

/// LLM-heavy slice: the pipeline method plus both LLM baselines, so
/// every service code path (multi-iteration repair loops, MEIC's log
/// feedback, GPT-direct sampling) crosses the batch boundary.
fn llm_config(workers: usize) -> CampaignConfig {
    CampaignConfig {
        dataset_size: 8,
        dataset_seed: 0xBA7C,
        methods: vec![MethodKind::Uvllm, MethodKind::Meic, MethodKind::GptDirect],
        workers,
        shard: ShardSpec::default(),
        ..CampaignConfig::default()
    }
}

fn sorted_lines(config: CampaignConfig) -> Vec<String> {
    let mut sink = MemorySink::new();
    Campaign::new(config).unwrap().run(&mut sink).unwrap();
    let mut lines: Vec<String> = sink.rows().iter().map(EvalRow::to_json_line).collect();
    lines.sort();
    lines
}

#[test]
fn batched_rows_match_direct_rows_at_1_2_and_8_workers() {
    let expected = sorted_lines(llm_config(1));
    assert_eq!(expected.len(), 24, "8 instances x 3 methods");
    for workers in [1, 2, 8] {
        for max_batch in [2, 8] {
            let mut config = llm_config(workers);
            config.llm_batch = Some(BatchConfig { max_batch, ..BatchConfig::default() });
            assert_eq!(
                sorted_lines(config),
                expected,
                "batched(max_batch {max_batch}) rows must be byte-identical \
                 to the direct oracle at {workers} workers"
            );
        }
    }
}

/// A batched campaign's registry snapshot carries the service-wide
/// ticket count. (That one batched worker fills a four-prompt flush is
/// pinned in the pool's unit tests, on the records the pool hands out.)
#[test]
fn a_batched_campaign_snapshot_counts_its_llm_tickets() {
    let mut config = llm_config(1);
    config.llm_batch = Some(BatchConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(20),
        ..BatchConfig::default()
    });
    let outcome = Campaign::new(config).unwrap().run(&mut MemorySink::new()).unwrap();
    assert!(outcome.metrics.counter("llm.tickets").unwrap_or(0) >= 1);
}

/// Retries under a batched service are not-before resubmissions the
/// service holds back: the faulted rows still equal the fault-free
/// direct rows, and the same fault seed draws the same faults and
/// retries as a direct run. (No other test in this binary injects
/// faults, so the process-wide counters' deltas are this test's own.)
#[test]
fn batched_faulted_rows_and_retries_match_the_direct_run() {
    let faulted = |workers: usize, llm_batch: Option<BatchConfig>| {
        let mut config = llm_config(workers);
        config.llm_batch = llm_batch;
        config.fault =
            Some(FaultPlan { error_rate: 0.15, malform_rate: 0.10, ..FaultPlan::default() });
        config.resilience = Some(ResiliencePolicy {
            retries: 8,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(400),
            breaker_threshold: 100,
            validate: true,
            ..ResiliencePolicy::default()
        });
        let count = |name: &str| uvllm_obs::registry().counter(name).get();
        let (retries, faults) = (count("llm.retries"), count("llm.faults.errors"));
        let rows = sorted_lines(config);
        (rows, count("llm.retries") - retries, count("llm.faults.errors") - faults)
    };
    let expected = sorted_lines(llm_config(1));
    let (direct, retries, faults) = faulted(1, None);
    assert_eq!(direct, expected, "faulted direct rows must match the fault-free run");
    assert!(faults > 0 && retries > 0, "the plan must inject faults that are retried");
    for workers in [1, 2] {
        for max_batch in [2, 8] {
            let batch = BatchConfig { max_batch, ..BatchConfig::default() };
            let (rows, batched_retries, batched_faults) = faulted(workers, Some(batch));
            let at = format!("{workers} workers, max_batch {max_batch}");
            assert_eq!(rows, expected, "batched faulted rows at {at}");
            assert_eq!(batched_retries, retries, "retries at {at}");
            assert_eq!(batched_faults, faults, "injected errors at {at}");
        }
    }
}

#[test]
fn injected_latency_changes_wall_clock_not_rows() {
    let mut direct = llm_config(2);
    direct.dataset_size = 4;
    let expected = sorted_lines(direct.clone());

    // Direct with a (tiny) injected endpoint latency.
    let mut slow = direct.clone();
    slow.llm_latency = Some(Duration::from_millis(1));
    assert_eq!(sorted_lines(slow), expected);

    // Batched with the same latency injected per flush.
    let mut batched = direct;
    batched.llm_batch = Some(BatchConfig::default());
    batched.llm_latency = Some(Duration::from_millis(1));
    assert_eq!(sorted_lines(batched), expected);
}

#[test]
fn per_job_usage_attribution_is_preserved_by_batching() {
    // Byte-identity already implies this, but assert the accounting
    // columns explicitly: each job's usage on the shared service equals
    // its usage on a private model — the per-ticket delta contract.
    let direct = sorted_lines(llm_config(1));
    let mut config = llm_config(4);
    config.llm_batch = Some(BatchConfig { max_batch: 6, ..BatchConfig::default() });
    let batched = sorted_lines(config);
    for (a, b) in direct.iter().zip(&batched) {
        let a = EvalRow::from_json_line(a).unwrap();
        let b = EvalRow::from_json_line(b).unwrap();
        assert_eq!(a.id, b.id);
        assert_eq!(a.llm_calls, b.llm_calls, "{}", a.id);
        assert_eq!(a.prompt_tokens, b.prompt_tokens, "{}", a.id);
        assert_eq!(a.completion_tokens, b.completion_tokens, "{}", a.id);
        assert_eq!(a.sim_latency_ms, b.sim_latency_ms, "{}", a.id);
    }
}
