//! Per-job evaluation: method dispatch, the `EvalRecord` produced for
//! every (instance × method) pair, and its deterministic JSONL form.
//!
//! A job is resumable state (`JobRun`): its method's loop returns the
//! prompt it needs instead of blocking on it, so a pool on the LLM
//! service loop parks a job waiting on an answer as data and keeps its
//! threads computing; [`evaluate_one_on`] runs one job to its end,
//! blocking. [`LlmPolicy`] says where a job's prompts go: inline to its
//! own model, or to a session of the service loop carrying the job's
//! fault and resilience streams.

use std::sync::{Arc, OnceLock};
use std::task::{ready, Poll, Waker};
use std::time::{Duration, Instant};
use uvllm::{BenchInstance, Stage, StageMemo, StageTimes, Verdict, Verification, VerifyConfig};
use uvllm_baselines::{
    GptDirectRun, MeicRun, MethodOutcome, RepairMethod, RtlRepair, StriderRepair,
};
use uvllm_designs::Category;
use uvllm_errgen::{ErrorCategory, ErrorKind};
use uvllm_json::Json;
use uvllm_llm::{
    block_on, BatchConfig, BatchedLlm, Completion, DirectService, FaultPlan, LanguageModel,
    LlmError, LlmService, ModelProfile, OracleLlm, OutputMode, ResiliencePolicy, Step, Ticket,
    Usage,
};
use uvllm_sim::SimBackend;

/// The LLM service loop a campaign pool opens its jobs' sessions on:
/// per-job models are boxed so different model kinds ride one loop.
pub type SharedLlm = BatchedLlm<Box<dyn LanguageModel>>;

/// How campaign jobs obtain their [`LlmService`] handle: with no
/// batching, latency, faults or resilience set, an inline
/// [`DirectService`] around the job's own model; otherwise a session on
/// a [`SharedLlm`] loop — the caller's (*batched*), or one the policy
/// starts on first use, sending one prompt at a time unless
/// `LlmPolicy::with_batch` says otherwise. Either way a job's model
/// sees the same prompts in the same order, so rows are byte-identical.
#[derive(Debug, Clone)]
pub struct LlmPolicy<'s> {
    /// A caller's loop, which outlives the policy.
    batched: Option<&'s SharedLlm>,
    /// The batching of the loop the policy starts itself.
    batch: Option<BatchConfig>,
    /// That loop, shared by the policy's clones.
    own: Arc<OnceLock<SharedLlm>>,
    /// That loop's endpoint round trip, over the batch's.
    latency: Option<Duration>,
    /// Each job's fault plan, derived from the plan seed × its oracle
    /// seed, so fault schedules replay at any worker count.
    fault: Option<FaultPlan>,
    /// Each job's retry/breaker/degradation policy (per-job jitter
    /// derivation, same salt discipline as the fault plan).
    resilience: Option<ResiliencePolicy>,
    /// Wraps every job's finished handle ([`LlmPolicy::with_wrap`]).
    wrap: Option<WrapService>,
}

/// A layer put in front of every job's [`LlmService`] handle.
pub type WrapService = fn(Box<dyn LlmService>) -> Box<dyn LlmService>;

impl LlmPolicy<'static> {
    /// Per-job direct services: the default.
    pub fn direct() -> Self {
        LlmPolicy {
            batched: None,
            batch: None,
            own: Arc::default(),
            latency: None,
            fault: None,
            resilience: None,
            wrap: None,
        }
    }
}

impl<'s> LlmPolicy<'s> {
    /// Sessions on a caller's service loop.
    pub fn batched(service: &'s SharedLlm) -> LlmPolicy<'s> {
        LlmPolicy { batched: Some(service), ..LlmPolicy::direct() }
    }

    /// The loop jobs open sessions on; `None` answers them inline.
    fn service(&self) -> Option<&SharedLlm> {
        let inline = self.batch.is_none()
            && self.latency.is_none()
            && self.fault.is_none()
            && self.resilience.is_none();
        if self.batched.is_some() || inline {
            return self.batched;
        }
        Some(self.own.get_or_init(|| {
            let one_at_a_time =
                BatchConfig { max_batch: 1, max_wait: Duration::ZERO, round_trip: Duration::ZERO };
            let batch = self.batch.clone().unwrap_or(one_at_a_time);
            SharedLlm::start(BatchConfig {
                round_trip: self.latency.unwrap_or(batch.round_trip),
                ..batch
            })
        }))
    }

    /// Jobs a pool of `workers` threads keeps in flight: on a service
    /// loop, `workers` computing, one batch on the wire and one filling;
    /// inline services answer at submit time, so none park.
    pub(crate) fn jobs_in_flight(&self, workers: usize) -> usize {
        workers + self.service().map_or(0, |service| 2 * service.config().max_batch)
    }

    /// Batches the loop the policy starts itself (a caller's loop has
    /// its own [`BatchConfig`]).
    pub(crate) fn with_batch(self, batch: Option<BatchConfig>) -> Self {
        LlmPolicy { batch, own: Arc::default(), ..self }
    }

    /// The endpoint round trip of the loop the policy starts itself.
    pub fn with_latency(self, latency: Option<Duration>) -> Self {
        LlmPolicy { latency, own: Arc::default(), ..self }
    }

    /// Injects seeded faults into every job's session.
    pub fn with_faults(self, fault: Option<FaultPlan>) -> Self {
        LlmPolicy { fault, ..self }
    }

    /// Retries, breaks and degrades every job's session.
    pub fn with_resilience(self, resilience: Option<ResiliencePolicy>) -> Self {
        LlmPolicy { resilience, ..self }
    }

    /// Puts `wrap` in front of every job's handle: a stub, or a tap that
    /// sees every prompt and answer of the job. Rows do not move as long
    /// as the layer passes prompts and answers through unchanged.
    pub fn with_wrap(self, wrap: WrapService) -> Self {
        LlmPolicy { wrap: Some(wrap), ..self }
    }

    /// Builds a job's service handle, deriving its fault and jitter
    /// streams from `salt` (the job's oracle seed) so both replay
    /// per-job regardless of worker count or pop order.
    pub fn service_for_job(&self, model: Box<dyn LanguageModel>, salt: u64) -> Box<dyn LlmService> {
        let service: Box<dyn LlmService> = match self.service() {
            Some(service) => Box::new(service.session(
                model,
                self.fault.as_ref().map(|plan| plan.derive(salt)),
                self.resilience.as_ref().map(|policy| policy.derive(salt)),
            )),
            None => Box::new(DirectService::new(model)),
        };
        if let Some(wrap) = self.wrap {
            return wrap(service);
        }
        service
    }
}

/// Which method to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// The full framework (pair-wise repair generation).
    Uvllm,
    /// Table III ablation: complete-code regeneration.
    UvllmComplete,
    Meic,
    GptDirect,
    Strider,
    RtlRepair,
}

impl MethodKind {
    /// Every method, in table order.
    pub const ALL: [MethodKind; 6] = [
        MethodKind::Uvllm,
        MethodKind::UvllmComplete,
        MethodKind::Meic,
        MethodKind::GptDirect,
        MethodKind::Strider,
        MethodKind::RtlRepair,
    ];

    /// Display name used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            MethodKind::Uvllm => "UVLLM",
            MethodKind::UvllmComplete => "UVLLM(comp)",
            MethodKind::Meic => "MEIC",
            MethodKind::GptDirect => "GPT-4-turbo",
            MethodKind::Strider => "Strider",
            MethodKind::RtlRepair => "RTLrepair",
        }
    }

    /// Parses a [`MethodKind::label`] back (CLI / row decoding).
    pub fn from_label(label: &str) -> Option<MethodKind> {
        MethodKind::ALL.into_iter().find(|m| m.label() == label)
    }

    /// Seed salt so each method draws independent oracle randomness.
    fn salt(&self) -> u64 {
        match self {
            MethodKind::Uvllm => 0x01,
            MethodKind::UvllmComplete => 0x02,
            MethodKind::Meic => 0x03,
            MethodKind::GptDirect => 0x04,
            MethodKind::Strider => 0x05,
            MethodKind::RtlRepair => 0x06,
        }
    }
}

/// One instance × method evaluation result.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    pub instance_id: String,
    pub design: &'static str,
    pub group: Category,
    pub kind: ErrorKind,
    pub category: ErrorCategory,
    pub method: MethodKind,
    /// Benchmark compatibility; goes with the next `benchmark` PR.
    /// Nothing reads it: every row says `event`.
    #[doc(hidden)]
    pub backend: SimBackend,
    /// Passed the public directed vectors (Hit Rate).
    pub hit: bool,
    /// Passed the extended differential validation (Fix Rate).
    pub fixed: bool,
    /// Classified Fix-Rate outcome (pass / mismatch / unstable /
    /// build-failed) — surfaces `SimError::Unstable` as a distinct
    /// outcome instead of a bare `fixed == false`.
    pub fix_outcome: Verdict,
    /// The method's own claim of success.
    pub claimed: bool,
    /// Benchmark compatibility; goes with the next `benchmark` PR.
    /// Always 0: Texec is `usage.latency`, the modelled LLM latency.
    #[doc(hidden)]
    pub texec: f64,
    /// Benchmark compatibility; goes with the next `benchmark` PR.
    /// Always `None`: nothing times the stages.
    #[doc(hidden)]
    pub stage_times: Option<StageTimes>,
    /// UVLLM-only: which stage produced the final fix.
    pub fixed_by: Option<Stage>,
    /// LLM accounting.
    pub usage: Usage,
    /// Wall-clock time this job spent blocked on the LLM service
    /// (scheduling telemetry — not part of the deterministic row).
    pub llm_wait: Duration,
    /// Largest service flush any of this job's prompts rode in
    /// (1 on a direct service; telemetry, like `llm_wait`).
    pub llm_batch_max: u64,
    /// True when any of this job's completions came from the
    /// resilience layer's degradation fallback (retry budget or breaker
    /// exhausted) — the row-honesty tag the fault-tolerance
    /// byte-identity gate filters on.
    pub degraded: bool,
}

impl EvalRecord {
    /// The campaign job identifier this record answers.
    pub(crate) fn job_id(&self) -> String {
        job_id(&self.instance_id, self.method)
    }

    /// Projects the record onto its deterministic JSONL row.
    pub fn to_row(&self) -> EvalRow {
        EvalRow {
            id: self.job_id(),
            instance: self.instance_id.clone(),
            design: self.design.to_string(),
            group: self.group.label().to_string(),
            kind: self.kind.name().to_string(),
            syntax: self.kind.is_syntax(),
            category: self.category.label().to_string(),
            method: self.method.label().to_string(),
            backend: KERNEL_LABEL.to_string(),
            hit: self.hit,
            fixed: self.fixed,
            outcome: self.fix_outcome.label().to_string(),
            claimed: self.claimed,
            llm_calls: self.usage.calls,
            prompt_tokens: self.usage.prompt_tokens,
            completion_tokens: self.usage.completion_tokens,
            sim_latency_ms: self.usage.latency.as_millis() as u64,
            fixed_by: self.fixed_by.map(|s| s.label().to_string()),
            degraded: if self.degraded { Some(true) } else { None },
        }
    }
}

/// The `backend` member of every row: the simulation kernel's name,
/// kept on the row so older sinks and their digests stay comparable.
const KERNEL_LABEL: &str = "event";

/// Stable identifier of one campaign job.
pub(crate) fn job_id(instance_id: &str, method: MethodKind) -> String {
    format!("{instance_id}@{}", method.label())
}

/// The JSONL projection of an [`EvalRecord`].
///
/// Every field is a pure function of the job (instance × method ×
/// seeds): wall-clock measurements are deliberately excluded, which is
/// what makes campaign output byte-identical (modulo row order) at any
/// worker count. LLM latency is the calibrated *simulated* latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalRow {
    /// Job id: `<design>/<kind>#<seed>@<method>`.
    pub id: String,
    /// Benchmark instance id: `<design>/<kind>#<seed>`.
    pub instance: String,
    pub design: String,
    /// Design group label (Table II).
    pub group: String,
    /// Error-kind name (Table I).
    pub kind: String,
    /// True for syntax kinds (Fig. 5), false for functional (Fig. 6).
    pub syntax: bool,
    /// Error-category label (figure x-axes).
    pub category: String,
    /// Method label.
    pub method: String,
    /// Simulation-kernel label: `event` on every row this build writes;
    /// rows of older builds may say `compiled`, and decode as they are.
    pub backend: String,
    pub hit: bool,
    pub fixed: bool,
    /// Classified Fix-Rate outcome label
    /// (`pass` / `mismatch` / `unstable` / `build-failed`).
    pub outcome: String,
    pub claimed: bool,
    pub llm_calls: u64,
    pub prompt_tokens: u64,
    pub completion_tokens: u64,
    /// Simulated LLM latency (deterministic Texec proxy).
    pub sim_latency_ms: u64,
    /// Stage label that produced the fix (UVLLM methods only).
    pub fixed_by: Option<String>,
    /// `Some(true)` when the job's LLM traffic fell back to the
    /// degradation chain. Serialized only when set, so fault-free rows
    /// stay byte-identical to pre-resilience rows; degraded rows are
    /// the explicit carve-out of the byte-identity gate.
    pub degraded: Option<bool>,
}

impl EvalRow {
    /// Serialises to one compact JSON line (fixed member order;
    /// `degraded` is appended only when set).
    pub fn to_json_line(&self) -> String {
        let mut members = vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("instance".into(), Json::Str(self.instance.clone())),
            ("design".into(), Json::Str(self.design.clone())),
            ("group".into(), Json::Str(self.group.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("syntax".into(), Json::Bool(self.syntax)),
            ("category".into(), Json::Str(self.category.clone())),
            ("method".into(), Json::Str(self.method.clone())),
            ("backend".into(), Json::Str(self.backend.clone())),
            ("hit".into(), Json::Bool(self.hit)),
            ("fixed".into(), Json::Bool(self.fixed)),
            ("outcome".into(), Json::Str(self.outcome.clone())),
            ("claimed".into(), Json::Bool(self.claimed)),
            ("llm_calls".into(), Json::Num(self.llm_calls as f64)),
            ("prompt_tokens".into(), Json::Num(self.prompt_tokens as f64)),
            ("completion_tokens".into(), Json::Num(self.completion_tokens as f64)),
            ("sim_latency_ms".into(), Json::Num(self.sim_latency_ms as f64)),
            (
                "fixed_by".into(),
                match &self.fixed_by {
                    Some(s) => Json::Str(s.clone()),
                    None => Json::Null,
                },
            ),
        ];
        if let Some(degraded) = self.degraded {
            members.push(("degraded".into(), Json::Bool(degraded)));
        }
        Json::Obj(members).render()
    }

    /// Parses one JSONL line. Unknown members are ignored, so rows that
    /// older builds wrote with extra members decode.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending member: whether it is
    /// missing outright or present with the wrong type (and which type
    /// was found). Callers that know the line's position prefix it as
    /// `path:line:` — [`crate::sink::SinkTailer`] and `campaign merge`
    /// both do, so shard diagnostics point at the exact line and key.
    pub fn from_json_line(line: &str) -> Result<EvalRow, String> {
        let v = Json::parse(line.trim())?;
        let found = |value: &Json| -> &'static str {
            match value {
                Json::Null => "null",
                Json::Bool(_) => "a bool",
                Json::Num(_) => "a number",
                Json::Str(_) => "a string",
                Json::Arr(_) => "an array",
                Json::Obj(_) => "an object",
            }
        };
        let str_member = |key: &str| -> Result<String, String> {
            match v.get(key) {
                None => Err(format!("row missing member '{key}'")),
                Some(Json::Str(s)) => Ok(s.clone()),
                Some(other) => {
                    Err(format!("row member '{key}' must be a string, found {}", found(other)))
                }
            }
        };
        let bool_member = |key: &str| -> Result<bool, String> {
            match v.get(key) {
                None => Err(format!("row missing member '{key}'")),
                Some(Json::Bool(b)) => Ok(*b),
                Some(other) => {
                    Err(format!("row member '{key}' must be a bool, found {}", found(other)))
                }
            }
        };
        let num_member = |key: &str| -> Result<u64, String> {
            match v.get(key) {
                None => Err(format!("row missing member '{key}'")),
                Some(value) => value.as_u64().ok_or_else(|| {
                    format!(
                        "row member '{key}' must be a non-negative integer, found {}",
                        found(value)
                    )
                }),
            }
        };
        Ok(EvalRow {
            id: str_member("id")?,
            instance: str_member("instance")?,
            design: str_member("design")?,
            group: str_member("group")?,
            kind: str_member("kind")?,
            syntax: bool_member("syntax")?,
            category: str_member("category")?,
            method: str_member("method")?,
            // Rows written before the backend/outcome schema fields
            // existed decode with their historical implicit values.
            backend: match v.get("backend") {
                Some(_) => str_member("backend")?,
                None => KERNEL_LABEL.to_string(),
            },
            hit: bool_member("hit")?,
            fixed: bool_member("fixed")?,
            outcome: match v.get("outcome") {
                Some(_) => str_member("outcome")?,
                None => {
                    if bool_member("fixed")? {
                        Verdict::Pass.label().to_string()
                    } else {
                        Verdict::Mismatch.label().to_string()
                    }
                }
            },
            claimed: bool_member("claimed")?,
            llm_calls: num_member("llm_calls")?,
            prompt_tokens: num_member("prompt_tokens")?,
            completion_tokens: num_member("completion_tokens")?,
            sim_latency_ms: num_member("sim_latency_ms")?,
            fixed_by: match v.get("fixed_by") {
                Some(Json::Str(s)) => Some(s.clone()),
                Some(Json::Null) | None => None,
                Some(other) => {
                    return Err(format!(
                        "row member 'fixed_by' must be a string or null, found {}",
                        found(other)
                    ))
                }
            },
            degraded: v.get("degraded").and_then(Json::as_bool),
        })
    }
}

/// Evaluates `method` on one instance, with a per-job [`DirectService`]
/// around the job's oracle.
pub fn evaluate_one(method: MethodKind, inst: &BenchInstance) -> EvalRecord {
    evaluate_one_on(method, inst, &LlmPolicy::direct(), &StageMemo::new())
}

/// Evaluates `method` on one instance under an explicit LLM dispatch
/// policy.
///
/// Everything stochastic is derived from the instance seed and the
/// method salt, so the record is a pure function of its job — the
/// bedrock of campaign determinism and resumability. The LLM policy
/// only changes *where* the job's own model answers (inline or in the
/// service loop), so it changes timing, not verdicts.
///
/// Per-job cost model: the method runs, then its final text is judged —
/// one hit run (the public vectors) and one fix run (the extended
/// differential campaign), each ending at its first rejected cycle.
/// Whatever of that is a pure function of a candidate text — the lint
/// reports and UVM-stage runs inside the method, the judgement after it
/// — is taken from `memo` when another job has asked before: the six
/// methods of an instance start from the same mutant and end on few
/// distinct texts (the golden text after a successful repair, the
/// untouched mutant after a failed one), so within one dataset most
/// jobs simulate little. A memoised answer is the one the job would
/// have computed.
pub fn evaluate_one_on(
    method: MethodKind,
    inst: &BenchInstance,
    llm: &LlmPolicy<'_>,
    memo: &StageMemo,
) -> EvalRecord {
    let mut run = JobRun::start(method, inst, llm);
    block_on(|waker| run.advance(inst, memo, waker))
}

/// One job as resumable state: its method's loop, the service handle
/// the loop's prompts go through, and the prompt it waits on. A pool
/// parks it while an answer is out; [`evaluate_one_on`] blocks instead.
pub(crate) struct JobRun {
    kind: MethodKind,
    /// The job's own handle (and, through it, its own seeded model), so
    /// a job shares no mutable LLM state with other jobs even when the
    /// handle is a session of the campaign-wide [`SharedLlm`]. `None`
    /// for the methods that ask no LLM.
    service: Option<Box<dyn LlmService>>,
    machine: Machine,
    /// The prompt submitted and not yet answered.
    ticket: Option<Ticket>,
    /// Compute spent in the method's steps so far.
    compute: Duration,
}

enum Machine {
    Uvllm(Verification<'static>),
    Meic(MeicRun<'static>),
    Gpt(GptDirectRun<'static>),
    /// Strider and RTLrepair ask no LLM: they run in one step.
    Template,
}

impl JobRun {
    /// The job of `method` on `inst`, not yet started, with its handle
    /// from `llm`. Everything stochastic is derived from the instance
    /// seed and the method salt.
    pub(crate) fn start(method: MethodKind, inst: &BenchInstance, llm: &LlmPolicy<'_>) -> JobRun {
        let (design, src) = (inst.design, inst.mutated_src.as_str());
        let (machine, profile) = match method {
            MethodKind::Uvllm | MethodKind::UvllmComplete => {
                let output_mode = if method == MethodKind::UvllmComplete {
                    OutputMode::Complete
                } else {
                    OutputMode::Pairs
                };
                let config = VerifyConfig { output_mode, ..VerifyConfig::default() };
                (
                    Machine::Uvllm(Verification::new(design, src, config)),
                    Some(ModelProfile::Gpt4Turbo),
                )
            }
            MethodKind::Meic => {
                (Machine::Meic(MeicRun::new(design, src)), Some(ModelProfile::Gpt4TurboWeakHarness))
            }
            MethodKind::GptDirect => (
                Machine::Gpt(GptDirectRun::new(design, src)),
                Some(ModelProfile::Gpt4TurboWeakHarness),
            ),
            MethodKind::Strider | MethodKind::RtlRepair => (Machine::Template, None),
        };
        let oracle_seed = inst.seed ^ method.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let service = profile.map(|profile| {
            let oracle =
                OracleLlm::new(inst.ground_truth.clone(), design.source, profile, oracle_seed);
            llm.service_for_job(Box::new(oracle), oracle_seed)
        });
        JobRun { kind: method, service, machine, ticket: None, compute: Duration::ZERO }
    }

    /// Steps the job, submitting each prompt it needs through its handle
    /// and polling for the answer, until it is done (its record) or an
    /// answer is not in yet (`Pending`: `waker` is woken when it is).
    pub(crate) fn advance(
        &mut self,
        inst: &BenchInstance,
        memo: &StageMemo,
        waker: &Waker,
    ) -> Poll<EvalRecord> {
        let mut reply = None;
        loop {
            if let Some(ticket) = self.ticket {
                let llm = self.service.as_deref_mut().expect("a ticket was submitted");
                reply = Some(ready!(llm.poll_completion(ticket, waker)));
                self.ticket = None;
            }
            match self.step(inst, memo, reply.take()) {
                Step::Done(record) => return Poll::Ready(record),
                Step::NeedLlm(prompt) => {
                    let llm = self.service.as_deref_mut().expect("only the LLM methods ask");
                    self.ticket = Some(llm.submit(&prompt));
                }
            }
        }
    }

    /// Runs the method until the LLM must answer a prompt, or to its end
    /// and then judges its final text; `reply` answers the prompt the
    /// previous call asked for. See [`evaluate_one_on`] for the cost
    /// model.
    fn step(
        &mut self,
        inst: &BenchInstance,
        memo: &StageMemo,
        reply: Option<Result<Completion, LlmError>>,
    ) -> Step<EvalRecord> {
        let (design, src) = (inst.design, inst.mutated_src.as_str());
        let started = Instant::now();
        let of_method = |out: MethodOutcome| (out.final_code, out.claimed_success, None);
        let step = match &mut self.machine {
            Machine::Uvllm(run) => {
                run.step(memo, reply).map(|out| (out.final_code, out.success, out.fixed_by))
            }
            Machine::Meic(run) => run.step(memo, reply).map(of_method),
            Machine::Gpt(run) => run.step(memo, reply).map(of_method),
            Machine::Template => Step::Done(of_method(match self.kind {
                MethodKind::Strider => StriderRepair::new().with_memo(memo).repair(design, src),
                _ => RtlRepair::new().with_memo(memo).repair(design, src),
            })),
        };
        self.compute += started.elapsed();
        let (final_code, claimed, fixed_by) = match step {
            Step::NeedLlm(prompt) => return Step::NeedLlm(prompt),
            Step::Done(settled) => settled,
        };
        // `stage_us.repair`: the compute of the whole method run
        // (localize + repair attempts + internal re-simulation), waits
        // on the LLM excluded, mirroring the paper's repair stage;
        // parse/elab/simulate stages are timed at their own layers.
        crate::engine::metrics().repair_us.record(self.compute.as_micros() as u64);
        // `stage_us.simulate`: the verdict runs driving the final
        // candidate through the UVM environment — or the memo lookup
        // that stands in for them.
        let (hit, fix_outcome) = {
            let _span = uvllm_obs::Span::into_histogram(crate::engine::metrics().simulate_us);
            memo.judge(design.name, &final_code, || {
                (
                    uvllm::metrics::hit_confirmed(design, &final_code, memo),
                    uvllm::metrics::fix_verdict(design, &final_code, memo),
                )
            })
        };
        let service = self.service.as_deref();
        let wait = service.map(|s| s.wait_stats()).unwrap_or_default();
        Step::Done(EvalRecord {
            instance_id: inst.id(),
            design: design.name,
            group: design.category,
            kind: inst.kind,
            category: inst.ground_truth.category,
            method: self.kind,
            backend: Default::default(),
            hit,
            fixed: fix_outcome.passed(),
            fix_outcome,
            claimed,
            texec: 0.0,
            stage_times: None,
            fixed_by,
            usage: service.map(|s| s.usage()).unwrap_or_default(),
            llm_wait: wait.wait,
            llm_batch_max: wait.max_batch as u64,
            degraded: service.is_some_and(|s| s.resilience_stats().degraded > 0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm::build_instance;
    use uvllm_designs::by_name;

    #[test]
    fn row_round_trips_through_jsonl() {
        let d = by_name("adder_8bit").unwrap();
        let inst = build_instance(d, ErrorKind::OperatorMisuse, 5, &uvllm::StageMemo::new())
            .expect("instance");
        let rec = evaluate_one(MethodKind::Uvllm, &inst);
        let row = rec.to_row();
        let line = row.to_json_line();
        assert!(!line.contains('\n'));
        let back = EvalRow::from_json_line(&line).unwrap();
        assert_eq!(back, row);
        assert_eq!(back.id, rec.job_id());
        assert!(back.id.ends_with("@UVLLM"));
    }

    #[test]
    fn evaluate_one_produces_consistent_record() {
        let d = by_name("adder_8bit").unwrap();
        let inst = build_instance(d, ErrorKind::OperatorMisuse, 5, &uvllm::StageMemo::new())
            .expect("instance");
        let rec = evaluate_one(MethodKind::Uvllm, &inst);
        assert_eq!(rec.design, "adder_8bit");
        assert_eq!(rec.group, Category::Arithmetic);
        // Fixed implies hit (FR campaign includes the public vectors).
        if rec.fixed {
            assert!(rec.hit);
        }
    }

    #[test]
    fn methods_are_deterministic() {
        let d = by_name("counter_12").unwrap();
        let inst = build_instance(d, ErrorKind::ValueMisuse, 9, &uvllm::StageMemo::new())
            .expect("instance");
        let a = evaluate_one(MethodKind::Meic, &inst);
        let b = evaluate_one(MethodKind::Meic, &inst);
        assert_eq!(a.fixed, b.fixed);
        assert_eq!(a.hit, b.hit);
        assert_eq!(a.usage.calls, b.usage.calls);
    }

    #[test]
    fn script_methods_report_zero_llm_usage() {
        let d = by_name("alu_8bit").unwrap();
        let inst = build_instance(d, ErrorKind::OperatorMisuse, 2, &uvllm::StageMemo::new())
            .expect("instance");
        let rec = evaluate_one(MethodKind::Strider, &inst);
        assert_eq!(rec.usage.calls, 0);
        let rec = evaluate_one(MethodKind::RtlRepair, &inst);
        assert_eq!(rec.usage.calls, 0);
    }

    #[test]
    fn rows_are_a_pure_function_of_the_job() {
        let d = by_name("counter_12").unwrap();
        let inst = build_instance(d, ErrorKind::ValueMisuse, 9, &uvllm::StageMemo::new())
            .expect("instance");
        for method in [MethodKind::Uvllm, MethodKind::Meic, MethodKind::Strider] {
            let a = evaluate_one(method, &inst).to_row();
            let b = evaluate_one(method, &inst).to_row();
            assert_eq!(a.to_json_line(), b.to_json_line(), "{method:?}");
        }
    }

    #[test]
    fn method_labels_round_trip() {
        for m in MethodKind::ALL {
            assert_eq!(MethodKind::from_label(m.label()), Some(m));
        }
        assert_eq!(MethodKind::from_label("nope"), None);
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(EvalRow::from_json_line("not json").is_err());
        assert!(EvalRow::from_json_line("{\"id\": \"x\"}").is_err());
    }
}
