//! The four workloads (README, "Workloads"). Each is set up once per
//! process — construction plus one untimed warm-up whose output becomes
//! the correctness reference — and then runs identical passes, each
//! recorded as slices and per-op latencies and checked against the
//! reference.

use crate::api::{self, CampaignPlan, Doc, RowObserver, ServedHost};
use crate::record::{fnv1a, PassRecord, PassRecorder, FNV_OFFSET};
use crate::sys::process_cpu_seconds;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// `(name, why, passes per process at the contract's 20 s)`. The reasons
/// are the lines `BENCHMARK.json` carries. The pass counts come to 7-8 s
/// of timed passes per process on the 2-vCPU box the benchmark was sized
/// on, which is what the driver's time cap leaves room for.
pub const WORKLOADS: [(&str, &str, usize); 4] = [
    (
        "campaign_full",
        "331 instances x 6 methods through Campaign::run on 2 workers: many short simulations over \
         ~3.6k distinct elaborations, so parse/elab/lint/dfg/uvm/baselines all carry weight",
        3,
    ),
    (
        "sim_long",
        "27 golden designs x 25 runs x 4000 random cycles: elaboration is a cache hit, >97% of time \
         is kernel settle plus UVM environment, the opposite trade-off to campaign_full",
        6,
    ),
    (
        "llm_wait",
        "32 instances x 4 LLM methods behind a batched 5 ms endpoint with 15% injected faults: wall \
         is round trips, backoff and flush waits, so a simulator speed-up must not move it",
        2,
    ),
    (
        "served_campaign",
        "the 331 x 6 campaign through the resident service (leases, journal+fsync, tailing \
         aggregation, HTTP polling): its gap to campaign_full is the serving overhead",
        2,
    ),
];

pub trait Workload {
    /// Ops per pass behind `ops_per_s` and `cpu_ms_per_op`.
    fn ops(&self) -> usize;
    /// One timed, checked pass.
    fn pass(&mut self) -> Result<PassRecord, String>;
    /// Stops whatever set-up started.
    fn teardown(self: Box<Self>) {}
}

/// Cold process → ready: builds the workload and runs its warm-up.
pub fn setup(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "campaign_full" => Box::new(CampaignWorkload::full(seed, dir)?),
        "sim_long" => Box::new(SimLong::new(seed)?),
        "llm_wait" => Box::new(CampaignWorkload::llm_wait(seed, dir)?),
        "served_campaign" => Box::new(Served::new(seed, dir)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

// ----------------------------------------------------------------------
// Row checking
// ----------------------------------------------------------------------

/// The lines of a JSONL file, sorted (rows are canonical modulo order).
pub fn sorted_lines(text: &str) -> Vec<String> {
    let mut lines: Vec<String> =
        text.lines().filter(|l| !l.trim().is_empty()).map(str::to_string).collect();
    lines.sort();
    lines
}

/// Rows missing from `rows` plus rows in it that the reference lacks;
/// a row that differs in any byte counts on both sides.
pub fn row_failures(rows: &[String], reference: &[String]) -> u64 {
    let missing = reference.iter().filter(|r| rows.binary_search(r).is_err()).count();
    let extra = rows.iter().filter(|r| reference.binary_search(r).is_err()).count();
    (missing + extra) as u64
}

pub fn rows_digest(rows: &[String]) -> u64 {
    rows.iter().fold(FNV_OFFSET, |hash, row| fnv1a(fnv1a(hash, row.as_bytes()), b"\n"))
}

/// Rows the product itself marked as not evaluated.
fn quarantined(rows: &[String]) -> u64 {
    rows.iter().filter(|r| r.contains("\"worker_panic\"") || r.contains("\"job_timeout\"")).count()
        as u64
}

// ----------------------------------------------------------------------
// campaign_full and llm_wait
// ----------------------------------------------------------------------

/// Feeds finished rows to the pass recorder under the op index the
/// reference assigns them.
pub struct Stamp<'r> {
    pub recorder: &'r PassRecorder,
    pub index: &'r HashMap<String, usize>,
}

impl RowObserver for Stamp<'_> {
    fn ops_begin(&self) {
        self.recorder.ops_begin();
    }
    fn row_done(&self, id: &str) {
        // A row the reference does not know still closes slices; its
        // latency has no slot and the row check reports it.
        self.recorder.complete(self.index.get(id).copied().unwrap_or(usize::MAX));
    }
}

pub struct CampaignWorkload {
    plan: CampaignPlan,
    reference: Vec<String>,
    index: HashMap<String, usize>,
    sink: PathBuf,
    slices: usize,
}

impl CampaignWorkload {
    /// `plan` is what every pass runs, cut into `slices` slices. The
    /// reference rows come from `reference_plan` when given, else from a
    /// warm-up pass of `plan` itself.
    pub fn new(
        plan: CampaignPlan,
        reference_plan: Option<CampaignPlan>,
        dir: &Path,
        slices: usize,
    ) -> Result<CampaignWorkload, String> {
        let mut workload = CampaignWorkload {
            plan,
            reference: Vec::new(),
            index: HashMap::new(),
            sink: dir.join("rows.jsonl"),
            slices,
        };
        let rows = match reference_plan {
            Some(reference_plan) => run_unobserved(&reference_plan, &workload.sink)?,
            None => workload.timed_run()?.1,
        };
        workload.adopt_reference(rows)?;
        Ok(workload)
    }

    fn full(seed: u64, dir: &Path) -> Result<CampaignWorkload, String> {
        CampaignWorkload::new(CampaignPlan::full(seed), None, dir, 32)
    }

    /// Faulted rows must equal fault-free rows, so the reference is a
    /// fault-free, zero-latency direct run of the same jobs.
    fn llm_wait(seed: u64, dir: &Path) -> Result<CampaignWorkload, String> {
        CampaignWorkload::new(
            CampaignPlan::llm_faulted(seed, api::LLM_WAIT_INSTANCES),
            Some(CampaignPlan::llm_reference(api::LLM_WAIT_INSTANCES)),
            dir,
            8,
        )
    }

    pub fn reference(&self) -> &[String] {
        &self.reference
    }

    fn adopt_reference(&mut self, rows: Vec<String>) -> Result<(), String> {
        if rows.is_empty() || quarantined(&rows) > 0 {
            return Err(format!(
                "reference run is unusable: {} rows, {} quarantined",
                rows.len(),
                quarantined(&rows)
            ));
        }
        self.index = api::rows_by_id(&rows)?;
        self.reference = rows;
        Ok(())
    }

    fn timed_run(&self) -> Result<(PassRecord, Vec<String>), String> {
        api::reset_sim_caches();
        let ops = self.reference.len();
        let recorder = PassRecorder::start(ops, ops.div_ceil(self.slices).max(1));
        let jobs = self.plan.run(&self.sink, &Stamp { recorder: &recorder, index: &self.index })?;
        let record = recorder.finish();
        let rows = read_rows(&self.sink)?;
        if rows.len() != jobs {
            return Err(format!("sink holds {} rows for {jobs} jobs", rows.len()));
        }
        Ok((record, rows))
    }
}

fn read_rows(path: &Path) -> Result<Vec<String>, String> {
    std::fs::read_to_string(path)
        .map(|text| sorted_lines(&text))
        .map_err(|e| format!("read {}: {e}", path.display()))
}

pub fn run_unobserved(plan: &CampaignPlan, sink: &Path) -> Result<Vec<String>, String> {
    api::reset_sim_caches();
    plan.run(sink, &api::Unobserved)?;
    read_rows(sink)
}

impl Workload for CampaignWorkload {
    fn ops(&self) -> usize {
        self.reference.len()
    }

    fn pass(&mut self) -> Result<PassRecord, String> {
        let (mut record, rows) = self.timed_run()?;
        record.attempted = self.reference.len() as u64;
        record.failed = row_failures(&rows, &self.reference);
        record.digest = rows_digest(&rows);
        Ok(record)
    }
}

// ----------------------------------------------------------------------
// sim_long
// ----------------------------------------------------------------------

const SIM_RUNS_PER_DESIGN: usize = 25;
pub const SIM_CYCLES: usize = 4000;
const SIM_SLICE_OPS: usize = 15;

pub struct SimLong {
    /// `(design, sequence seed)` per op; designs interleave so every
    /// slice holds the same mix.
    ops: Vec<(usize, u64)>,
    reference: Vec<u64>,
}

impl SimLong {
    fn new(seed: u64) -> Result<SimLong, String> {
        let designs = api::golden_designs().len();
        let ops = (0..designs * SIM_RUNS_PER_DESIGN)
            .map(|op| {
                (op % designs, fnv1a(fnv1a(FNV_OFFSET, &seed.to_le_bytes()), &op.to_le_bytes()))
            })
            .collect();
        let mut workload = SimLong { ops, reference: Vec::new() };
        let (_, fingerprints, failed) = workload.timed_run()?;
        if failed > 0 {
            return Err(format!("{failed} golden runs failed in the warm-up"));
        }
        workload.reference = fingerprints;
        Ok(workload)
    }

    /// Two closed-loop threads pull ops off one list. Returns the
    /// record, each op's fingerprint and the number of failed ops.
    fn timed_run(&self) -> Result<(PassRecord, Vec<u64>, u64), String> {
        let recorder = PassRecorder::start(self.ops.len(), SIM_SLICE_OPS);
        let next = AtomicUsize::new(0);
        let fingerprints = Mutex::new(vec![0u64; self.ops.len()]);
        let failed = AtomicUsize::new(0);
        let error = Mutex::new(None);
        recorder.ops_begin();
        std::thread::scope(|scope| {
            for _ in 0..api::WORKERS {
                scope.spawn(|| loop {
                    let op = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(design, seq_seed)) = self.ops.get(op) else { break };
                    match api::run_golden(design, SIM_CYCLES, seq_seed) {
                        Ok(run) => {
                            if !run.all_passed || run.cycles != SIM_CYCLES {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                            fingerprints.lock().unwrap_or_else(PoisonError::into_inner)[op] =
                                run.fingerprint;
                        }
                        Err(e) => {
                            error.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(e);
                        }
                    }
                    recorder.complete(op);
                });
            }
        });
        if let Some(e) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }
        let fingerprints = fingerprints.into_inner().unwrap_or_else(PoisonError::into_inner);
        Ok((recorder.finish(), fingerprints, failed.load(Ordering::Relaxed) as u64))
    }
}

impl Workload for SimLong {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn pass(&mut self) -> Result<PassRecord, String> {
        let (mut record, fingerprints, failed) = self.timed_run()?;
        let drifted = fingerprints.iter().zip(&self.reference).filter(|(a, b)| a != b).count();
        record.attempted = self.ops.len() as u64;
        record.failed = failed.max(drifted as u64);
        record.digest =
            fingerprints.iter().fold(FNV_OFFSET, |hash, f| fnv1a(hash, &f.to_le_bytes()));
        Ok(record)
    }
}

// ----------------------------------------------------------------------
// served_campaign
// ----------------------------------------------------------------------

pub const SERVED_SHARDS: usize = 4;
pub const SERVED_LEASE_MS: u64 = 3000;
const POLL_EVERY: Duration = Duration::from_millis(5);
const POLL_GIVE_UP: Duration = Duration::from_secs(90);

/// What the polling client saw of one served run.
pub struct ServedRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Leased → done per shard, as the poll saw it, in milliseconds.
    pub shard_ms: Vec<f64>,
    pub rows: Vec<String>,
    /// Replies that were not 2xx, and shards the poll never saw finish.
    pub failed: u64,
}

/// Submits `plan` to the service at `addr`, runs the product's worker
/// loop in this process, polls the run's status every 5 ms until it is
/// done, then fetches its rows.
pub fn serve_once(addr: &str, plan: &CampaignPlan, shards: usize) -> Result<ServedRun, String> {
    api::reset_sim_caches();
    let started = Instant::now();
    let cpu0 = process_cpu_seconds();
    let mut failed = 0u64;
    let (status, body) =
        api::http(addr, "POST", "/jobs", &plan.submission(shards, SERVED_LEASE_MS))?;
    if status != 200 {
        return Err(format!("POST /jobs answered {status}: {body}"));
    }
    let run = Doc::parse(&body)?.string(&["run"]).ok_or("submission reply names no run")?;
    let target = format!("/runs/{run}");

    let worker_done = AtomicBool::new(false);
    let (seen, worker) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut leased: Vec<Option<f64>> = vec![None; shards];
            let mut done: Vec<Option<f64>> = vec![None; shards];
            let mut bad_replies = 0u64;
            let mut polls_after_worker = 0u32;
            loop {
                let now = started.elapsed();
                let finished = match api::http(addr, "GET", &target, "")
                    .map(|(status, body)| (status, Doc::parse(&body)))
                {
                    Ok((200, Ok(doc))) => {
                        let states = doc.strings_in_array(&["shards"], "state");
                        for (shard, state) in states.iter().enumerate().take(shards) {
                            if state != "pending" {
                                leased[shard].get_or_insert(now.as_secs_f64());
                            }
                            if state == "done" {
                                done[shard].get_or_insert(now.as_secs_f64());
                            }
                        }
                        doc.boolean(&["done"]) == Some(true)
                    }
                    _ => {
                        bad_replies += 1;
                        false
                    }
                };
                if finished {
                    break;
                }
                // A worker that gave up leaves the run unfinished: stop
                // polling a second after it returned instead of hanging.
                if worker_done.load(Ordering::SeqCst) {
                    polls_after_worker += 1;
                }
                if now > POLL_GIVE_UP || polls_after_worker > 200 {
                    break;
                }
                std::thread::sleep(POLL_EVERY);
            }
            (leased, done, bad_replies)
        });
        let worker = api::run_leased_worker(addr);
        worker_done.store(true, Ordering::SeqCst);
        (poller.join().expect("poller does not panic"), worker)
    });
    failed += (shards as u64).saturating_sub(worker?);
    let (leased, done, bad_replies) = seen;
    failed += bad_replies;
    let mut shard_ms = Vec::with_capacity(shards);
    for shard in 0..shards {
        match (leased[shard], done[shard]) {
            (Some(from), Some(to)) => shard_ms.push((to - from) * 1e3),
            _ => {
                failed += 1;
                shard_ms.push(0.0);
            }
        }
    }
    let (status, body) = api::http(addr, "GET", &format!("{target}/rows"), "")?;
    if status != 200 {
        failed += 1;
    }
    Ok(ServedRun {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: process_cpu_seconds() - cpu0,
        shard_ms,
        rows: sorted_lines(&body),
        failed,
    })
}

pub struct Served {
    host: ServedHost,
    plan: CampaignPlan,
    reference: Vec<String>,
}

impl Served {
    fn new(seed: u64, dir: &Path) -> Result<Served, String> {
        let plan = CampaignPlan::full(seed);
        // Served rows must equal what `campaign_full` produces directly.
        let reference = run_unobserved(&plan, &dir.join("direct.jsonl"))?;
        if reference.is_empty() || quarantined(&reference) > 0 {
            return Err("direct reference run is unusable".to_string());
        }
        let host = ServedHost::start(&dir.join("serve"))?;
        Ok(Served { host, plan, reference })
    }
}

impl Workload for Served {
    fn ops(&self) -> usize {
        self.reference.len()
    }

    fn pass(&mut self) -> Result<PassRecord, String> {
        let run = serve_once(self.host.addr(), &self.plan, SERVED_SHARDS)?;
        Ok(PassRecord {
            slice_wall: vec![run.wall_s],
            slice_cpu: vec![run.cpu_s],
            op_ms: run.shard_ms,
            busy_s: 0.0,
            attempted: self.reference.len() as u64,
            failed: run.failed + row_failures(&run.rows, &self.reference),
            digest: rows_digest(&run.rows),
        })
    }

    fn teardown(self: Box<Self>) {
        self.host.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(items: &[&str]) -> Vec<String> {
        let mut rows: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        rows.sort();
        rows
    }

    #[test]
    fn row_failures_count_missing_extra_and_changed_rows() {
        let reference = rows(&["a", "b", "c"]);
        assert_eq!(row_failures(&rows(&["c", "b", "a"]), &reference), 0);
        assert_eq!(row_failures(&rows(&["a", "b"]), &reference), 1, "one missing");
        assert_eq!(row_failures(&rows(&["a", "b", "c", "d"]), &reference), 1, "one extra");
        assert_eq!(row_failures(&rows(&["a", "b", "x"]), &reference), 2, "one changed");
        assert_eq!(row_failures(&[], &reference), 3);
    }

    #[test]
    fn digests_depend_on_content_and_jsonl_is_sorted_without_blank_lines() {
        assert_eq!(sorted_lines("b\n\na\n"), rows(&["a", "b"]));
        assert_ne!(rows_digest(&rows(&["a", "b"])), rows_digest(&rows(&["a", "c"])));
        assert_ne!(rows_digest(&rows(&["ab"])), rows_digest(&rows(&["a", "b"])));
        assert_eq!(rows_digest(&[]), FNV_OFFSET);
    }

    #[test]
    fn every_workload_has_a_reason_that_fits_the_contract() {
        for (name, why, _) in WORKLOADS {
            assert!(why.len() <= 200, "{name}: {} characters", why.len());
            assert!(!why.contains('\n'));
        }
    }
}
