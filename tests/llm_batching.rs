//! The batched-LLM determinism contract, end to end: a campaign run
//! through the shared `BatchedLlm` service produces byte-identical rows
//! to the per-job direct path, at any worker count, with or without
//! injected endpoint latency — batching changes wall-clock only.

use std::time::Duration;
use uvllm_campaign::{
    BatchConfig, Campaign, CampaignConfig, EvalRow, MemorySink, MethodKind, ShardSpec,
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

/// A batched pool keeps two jobs in flight per worker: at one worker, a
/// job waiting on the LLM lends its CPU slot to a second job, whose
/// prompts can ride the same flush — which one job at a time never can.
#[test]
fn one_batched_worker_flushes_two_jobs_prompts_together() {
    let mut config = llm_config(1);
    config.llm_batch = Some(BatchConfig {
        max_batch: 2,
        max_wait: Duration::from_millis(20),
        ..BatchConfig::default()
    });
    let outcome = Campaign::new(config).unwrap().run(&mut MemorySink::new()).unwrap();
    let batch_max = outcome.new_records.iter().map(|r| r.llm_batch_max).max();
    assert_eq!(batch_max, Some(2), "no flush carried two jobs' prompts");
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
fn telemetry_rows_carry_wait_members_and_strip_back_to_canonical() {
    let mut config = llm_config(2);
    config.dataset_size = 4;
    let expected = sorted_lines(config.clone());

    config.llm_batch = Some(BatchConfig::default());
    config.llm_telemetry = true;
    let mut sink = MemorySink::new();
    let outcome = Campaign::new(config).unwrap().run(&mut sink).unwrap();

    let batch_max = outcome.new_records.iter().map(|r| r.llm_batch_max).max().unwrap_or(0);
    assert!(batch_max >= 1);
    // The registry snapshot carries the service-wide equivalents of the
    // old outcome roll-ups.
    assert!(outcome.metrics.counter("llm.tickets").unwrap_or(0) >= 1);
    let mut canonical = Vec::new();
    for row in sink.rows() {
        // Telemetry members are present, survive a JSONL round trip...
        assert!(row.llm_wait_ms.is_some() && row.llm_batch_max.is_some());
        let reparsed = EvalRow::from_json_line(&row.to_json_line()).unwrap();
        assert_eq!(&reparsed, row);
        // ...and stripping them recovers the canonical byte-identical row.
        let mut stripped = row.clone();
        stripped.llm_wait_ms = None;
        stripped.llm_batch_max = None;
        canonical.push(stripped.to_json_line());
    }
    canonical.sort();
    assert_eq!(canonical, expected);
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
