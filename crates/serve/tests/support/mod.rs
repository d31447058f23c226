//! What the memory pins share: a global allocator that counts live
//! heap bytes, and the shard sinks of a default campaign.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;
use uvllm_campaign::{expected_job_ids, CampaignConfig, EvalRow, MethodKind};
use uvllm_serve::RunSpec;

/// Heap bytes allocated and not yet freed, by every thread.
pub static LIVE: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter is a plain atomic
// with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A row for job `id`, shaped like the campaign's: labels from the id,
/// so the report's tallies see the dataset's designs and methods.
fn row(id: &str, n: usize) -> EvalRow {
    let (instance, method) = id.rsplit_once('@').unwrap();
    let design = instance.split('/').next().unwrap();
    let fixed = !n.is_multiple_of(5);
    EvalRow {
        id: id.to_string(),
        instance: instance.to_string(),
        design: design.to_string(),
        group: ["Arithmetic", "Control", "Memory"][n % 3].to_string(),
        kind: "operator_misuse".to_string(),
        syntax: n.is_multiple_of(2),
        category: ["Flawed conditions", "Scope issues", "Data handling"][n % 3].to_string(),
        method: method.to_string(),
        backend: "event".to_string(),
        hit: !n.is_multiple_of(3),
        fixed,
        outcome: "pass".to_string(),
        claimed: fixed,
        llm_calls: (n % 7) as u64,
        prompt_tokens: 1000 + n as u64,
        completion_tokens: 200 + n as u64,
        sim_latency_ms: 12_000 + n as u64,
        fixed_by: fixed.then(|| "Repair in MS Mode".to_string()),
        degraded: None,
    }
}

/// A completed default 331 × 6 run in `shards` shards: its spec, each
/// shard's sink text as workers leave it (rows dealt round-robin), and
/// its rows as the server serves them (sorted by job id).
pub fn default_run(shards: usize) -> (RunSpec, Vec<String>, String) {
    let defaults = CampaignConfig::default();
    let spec = RunSpec {
        size: defaults.dataset_size,
        seed: defaults.dataset_seed,
        methods: MethodKind::ALL.to_vec(),
        shards,
        lease: Duration::from_secs(60),
    };
    let ids = expected_job_ids(spec.size, spec.seed, &spec.methods);
    assert_eq!(ids.len(), 1986);
    let mut lines: Vec<String> =
        ids.iter().enumerate().map(|(n, id)| row(id, n).to_json_line() + "\n").collect();
    let mut texts = vec![String::new(); shards];
    for (n, line) in lines.iter().enumerate() {
        texts[n % shards].push_str(line);
    }
    lines.sort();
    (spec, texts, lines.concat())
}
