//! The LLM *service* layer: a submit/await ticket protocol that
//! decouples asking for a completion from blocking on it, and the one
//! event loop that answers it under every serving policy.
//!
//! [`LlmService::submit`] returns a [`Ticket`] at once;
//! [`LlmService::await_completion`] blocks until *that* prompt's answer
//! is in, and [`LlmService::poll_completion`] leaves a [`Waker`] instead
//! — how a repair loop written as a step function ([`Step`]) waits as
//! data, not as a thread.
//!
//! * [`DirectService`] — the policy-free inline adapter: one
//!   [`LanguageModel`], answered at submit time. No thread, no queue.
//! * [`BatchedLlm`] — the service loop, on a thread of its own. Each
//!   session ([`LlmClient`], one per campaign job) carries its job's
//!   model and, as plain data, a [`FaultPlan`] and a
//!   [`ResiliencePolicy`]. The loop keeps requests by due time (a retry
//!   is due its backoff after the failure), sends a batch once
//!   `max_batch` are due or `max_wait` after the first ([`BatchConfig`]),
//!   and keeps at most one batch on the wire — the endpoint is one
//!   exclusive connection — landing `round_trip` after it was sent while
//!   the next window fills. A fault is drawn as its prompt is sent and
//!   replaces or delays that one answer; validation, retry, breaker and
//!   degradation run as an answer lands, and a ticket is answered once,
//!   finally. The loop waits for the earliest of the next message, due
//!   request and landing on its [`Clock`] (real, or a [`VirtualClock`]
//!   a test advances) and never sleeps.
//!
//! **Determinism contract:** a session's model sees exactly the prompts
//! sent for that session, in sending order — submission order, for a
//! session with one prompt outstanding at a time, as every repair loop
//! asks — however batches interleave sessions, so a job gets the same
//! completions and usage on a session as on a [`DirectService`].

use crate::fault::{FaultPlan, FaultStream};
use crate::model::{Completion, LanguageModel, LlmError, Usage};
use crate::prompt::RepairPrompt;
use crate::resilient::{Resilience, ResiliencePolicy, ResilienceStats, Settled};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Poll, Wake, Waker};
use std::time::{Duration, Instant};
use uvllm_obs::registry;

/// Batching and endpoint latency of a [`BatchedLlm`] loop.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Send a batch as soon as this many prompts are due.
    pub max_batch: usize,
    /// Send a partial batch this long after its first prompt was due,
    /// so a lone straggler is never parked behind an empty queue.
    pub max_wait: Duration,
    /// Endpoint round trip: a batch lands this long after it was sent
    /// (zero in production use; the benchmarks set it).
    pub round_trip: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 8, max_wait: Duration::from_millis(2), round_trip: Duration::ZERO }
    }
}

/// A claim on one submitted prompt, redeemed by
/// [`LlmService::await_completion`]. Tickets are per-handle: a ticket
/// from one client cannot be redeemed through another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Service-side accounting a handle accumulates ticket by ticket:
/// how long its caller waited on the LLM and how large the batches its
/// prompts rode in were.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Tickets redeemed.
    pub tickets: u64,
    /// Total time from submission to delivery.
    pub wait: Duration,
    /// Largest batch any of this handle's prompts was part of.
    pub max_batch: usize,
}

/// The submission protocol every pipeline stage drives — the successor
/// of passing `&mut M` around.
///
/// `submit` is infallible by design: acceptance problems (a stopped
/// service, a model with no answer) surface when the ticket is
/// redeemed, so callers have one error path instead of two.
pub trait LlmService: Send {
    /// Human-readable backend name (shows up in experiment reports).
    fn backend_name(&self) -> &str;

    /// Enqueues a prompt, returning the ticket that redeems its answer.
    fn submit(&mut self, prompt: &RepairPrompt) -> Ticket;

    /// Blocks until the ticket's prompt is answered.
    ///
    /// # Errors
    ///
    /// The backend's own [`LlmError`] for this prompt,
    /// [`LlmError::ServiceClosed`] when the service shut down before
    /// answering, or [`LlmError::NoResponse`] for a ticket this handle
    /// never issued (or already redeemed).
    fn await_completion(&mut self, ticket: Ticket) -> Result<Completion, LlmError>;

    /// The ticket's answer if it is in, without blocking; otherwise
    /// `Pending`, and `waker` is woken once it is. A ticket answered
    /// `Ready` is redeemed.
    ///
    /// The default, for services that answer at submit time, awaits.
    fn poll_completion(
        &mut self,
        ticket: Ticket,
        waker: &Waker,
    ) -> Poll<Result<Completion, LlmError>> {
        let _ = waker;
        Poll::Ready(self.await_completion(ticket))
    }

    /// Submit-then-await in one call.
    ///
    /// # Errors
    ///
    /// See [`LlmService::await_completion`].
    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        let ticket = self.submit(prompt);
        self.await_completion(ticket)
    }

    /// Usage attributed to this handle (for a [`DirectService`], the
    /// wrapped model's total; for an [`LlmClient`], the sum of its own
    /// delivered answers — the per-ticket deltas that keep per-job
    /// accounting exact on a shared service).
    fn usage(&self) -> Usage;

    /// Wait/batch telemetry accumulated by this handle.
    fn wait_stats(&self) -> WaitStats;

    /// What the resilience policy did on this handle (all zeros without
    /// one) — campaign code reads it through `Box<dyn LlmService>` to
    /// tag degraded rows without downcasting.
    fn resilience_stats(&self) -> ResilienceStats {
        ResilienceStats::default()
    }
}

/// What a step function of a repair loop asks for next: the answer to a
/// prompt, or nothing more.
#[derive(Debug)]
pub enum Step<T> {
    /// Call the step again with this prompt's answer.
    NeedLlm(RepairPrompt),
    /// The loop ended with this result.
    Done(T),
}

impl<T> Step<T> {
    /// Maps the result of a finished step.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Step<U> {
        match self {
            Step::NeedLlm(prompt) => Step::NeedLlm(prompt),
            Step::Done(done) => Step::Done(f(done)),
        }
    }
}

/// Runs a step function to its end, answering every prompt it asks for
/// with `complete` (blocking): the first call gets `None`, each later
/// one the answer to the prompt the call before asked for.
pub fn drive<T>(
    mut complete: impl FnMut(&RepairPrompt) -> Result<Completion, LlmError>,
    mut step: impl FnMut(Option<Result<Completion, LlmError>>) -> Step<T>,
) -> T {
    let mut reply = None;
    loop {
        match step(reply.take()) {
            Step::Done(done) => return done,
            Step::NeedLlm(prompt) => reply = Some(complete(&prompt)),
        }
    }
}

/// Polls until `poll` is ready, parking the calling thread in between:
/// the blocking redemption of a service that can answer later.
pub fn block_on<T>(mut poll: impl FnMut(&Waker) -> Poll<T>) -> T {
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    loop {
        if let Poll::Ready(value) = poll(&waker) {
            return value;
        }
        std::thread::park();
    }
}

/// Wakes a thread parked in [`block_on`].
struct Unpark(std::thread::Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Adapts one [`LanguageModel`] to the [`LlmService`] protocol with no
/// threads and no queue: the answer is computed at submit time and the
/// ticket redeems it. Batch size is always 1, and no ticket waits: its
/// [`WaitStats::wait`] stays zero.
#[derive(Debug)]
pub struct DirectService<M: LanguageModel> {
    model: M,
    next_ticket: u64,
    ready: HashMap<u64, Result<Completion, LlmError>>,
    stats: WaitStats,
}

impl<M: LanguageModel> DirectService<M> {
    /// Wraps a model backend.
    pub fn new(model: M) -> Self {
        DirectService { model, next_ticket: 0, ready: HashMap::new(), stats: WaitStats::default() }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: LanguageModel> LlmService for DirectService<M> {
    fn backend_name(&self) -> &str {
        self.model.name()
    }

    fn submit(&mut self, prompt: &RepairPrompt) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.ready.insert(ticket.0, self.model.complete(prompt));
        ticket
    }

    fn await_completion(&mut self, ticket: Ticket) -> Result<Completion, LlmError> {
        let result = self.ready.remove(&ticket.0).ok_or_else(|| {
            LlmError::NoResponse(format!("ticket #{} was never issued by this handle", ticket.0))
        })?;
        self.stats.tickets += 1;
        self.stats.max_batch = self.stats.max_batch.max(1);
        result
    }

    fn usage(&self) -> Usage {
        self.model.usage()
    }

    fn wait_stats(&self) -> WaitStats {
        self.stats
    }
}

/// The time source of a [`BatchedLlm`] loop and its sessions.
#[derive(Debug, Clone, Default)]
pub enum Clock {
    /// The system's monotonic clock.
    #[default]
    Real,
    /// A test's clock: it moves only on [`VirtualClock::advance`].
    Virtual(VirtualClock),
}

impl Clock {
    /// The current instant.
    pub fn now(&self) -> Instant {
        match self {
            Clock::Real => Instant::now(),
            Clock::Virtual(clock) => clock.now(),
        }
    }

    /// The loop's next message, waited for until `deadline` at most
    /// (`None`: for as long as it takes); `None` at the deadline. On a
    /// virtual clock every advance arrives as a message. The channel
    /// stays connected: the service holds a sender until it has sent
    /// [`Msg::Shutdown`] and joined the loop.
    fn wait<M>(&self, rx: &Receiver<Msg<M>>, deadline: Option<Instant>) -> Option<Msg<M>> {
        match (self, deadline) {
            (Clock::Real, Some(at)) => {
                rx.recv_timeout(at.saturating_duration_since(Instant::now())).ok()
            }
            _ => Some(rx.recv().expect("the service outlives its loop")),
        }
    }
}

/// A clock for tests: it reads the instant it was made until
/// [`VirtualClock::advance`] moves it, which wakes every loop it drives.
#[derive(Clone)]
pub struct VirtualClock(Arc<Mutex<(Instant, Vec<WakeLoop>)>>);

/// Wakes one loop on a virtual clock; `false` once that loop is gone.
type WakeLoop = Box<dyn Fn() -> bool + Send>;

impl VirtualClock {
    /// The current instant.
    pub fn now(&self) -> Instant {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).0
    }

    /// Moves time forward by `by`.
    pub fn advance(&self, by: Duration) {
        let mut time = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        time.0 += by;
        time.1.retain(|wake| wake());
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock(Arc::new(Mutex::new((Instant::now(), Vec::new()))))
    }
}

impl std::fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("VirtualClock").field(&self.now()).finish()
    }
}

/// What the loop delivers into a ticket's slot.
struct Delivery {
    result: Answer,
    /// Size of the batch the final attempt rode in.
    batch_size: usize,
    /// Submission to delivery, on the loop's clock.
    waited: Duration,
    /// The session's resilience counters after this ticket.
    resilience: Option<ResilienceStats>,
}

/// One ticket's rendezvous point between its client and the loop: the
/// delivery, or the waker of whoever polled first. Every update is one
/// whole assignment, so a poisoned guard still holds a valid state.
#[derive(Default)]
struct Slot(Mutex<(Option<Delivery>, Option<Waker>)>);

impl Slot {
    fn deliver(&self, delivery: Delivery) {
        let waker = {
            let mut state = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            state.0 = Some(delivery);
            state.1.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    fn poll(&self, waker: &Waker) -> Poll<Delivery> {
        let mut state = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        match state.0.take() {
            Some(delivery) => Poll::Ready(delivery),
            None => {
                state.1 = Some(waker.clone());
                Poll::Pending
            }
        }
    }
}

/// The loop's end of a ticket: answers it once, and answers
/// [`LlmError::ServiceClosed`] when dropped unanswered — by a stopped
/// service or a loop that unwinds — so no waiter waits forever.
struct Reply(Option<Arc<Slot>>);

impl Reply {
    fn send(mut self, delivery: Delivery) {
        if let Some(slot) = self.0.take() {
            slot.deliver(delivery);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            let result = Err(LlmError::ServiceClosed("ticket was never answered".to_string()));
            slot.deliver(Delivery {
                result,
                batch_size: 0,
                waited: Duration::ZERO,
                resilience: None,
            });
        }
    }
}

/// A prompt's answer, as the model or a fault gave it.
type Answer = Result<Completion, LlmError>;

/// One ticket's prompt in the loop.
struct Request {
    session: u64,
    prompt: RepairPrompt,
    reply: Reply,
    /// When the ticket was submitted: its wait counts from here.
    submitted: Instant,
    /// Retries issued so far.
    attempt: u32,
}

enum Msg<M> {
    /// Register a session: its model and policies.
    Open {
        session: u64,
        model: M,
        faults: Option<FaultPlan>,
        resilience: Option<ResiliencePolicy>,
    },
    /// Drop a session's model (its client handle went away).
    Close {
        session: u64,
    },
    Submit(Request),
    /// The virtual clock moved.
    Tick,
    /// Answer everything accepted, then stop.
    Shutdown,
}

/// A session's model and its state under the session's policies.
struct Session<M> {
    model: M,
    faults: Option<FaultStream>,
    resilience: Option<Resilience>,
}

/// The loop's state (module docs). Events run in time order; those of
/// one instant in arrival order, landings before sends.
struct ServiceLoop<M> {
    config: BatchConfig,
    sessions: BTreeMap<u64, Session<M>>,
    /// Requests not yet sent, by due time.
    queue: BTreeMap<(Instant, u64), Request>,
    /// Answers on their way back, by landing time, with their batch size.
    landings: BTreeMap<(Instant, u64), (Request, Answer, usize)>,
    /// When the batch on the wire lands: no batch is sent before.
    wire_free: Instant,
    /// Every event up to here has run.
    cursor: Instant,
    /// Arrival order: the tie-break of events at one instant.
    seq: u64,
}

impl<M: LanguageModel> ServiceLoop<M> {
    /// Runs until shut down, then answers everything accepted — time
    /// runs ahead without waiting — and returns the session models in
    /// session order.
    fn run(mut self, rx: Receiver<Msg<M>>, clock: Clock) -> Vec<M> {
        let mut msg = None;
        loop {
            // Read before draining: whatever was sent before this
            // instant is in the channel.
            let now = clock.now();
            while let Some(next) = msg.take().or_else(|| rx.try_recv().ok()) {
                if !self.receive(next) {
                    self.run_until(None);
                    return self.sessions.into_values().map(|session| session.model).collect();
                }
            }
            self.run_until(Some(now));
            // A request drained above may be due by the clock's current
            // reading, and the tick of the advance that made it due may
            // have been drained with it: wait only for a later event.
            let next = self.next_event();
            if next.is_none_or(|at| at > clock.now()) {
                msg = clock.wait(&rx, next);
            }
        }
    }

    /// Takes one message; `false` for shutdown.
    fn receive(&mut self, msg: Msg<M>) -> bool {
        match msg {
            Msg::Open { session, model, faults, resilience } => {
                let faults = faults.map(FaultStream::new);
                let resilience = resilience.map(Resilience::new);
                self.sessions.insert(session, Session { model, faults, resilience });
            }
            Msg::Close { session } => {
                self.sessions.remove(&session);
            }
            Msg::Submit(request) => {
                let at = request.submitted.max(self.cursor);
                let session = self.sessions.get_mut(&request.session);
                match session.and_then(|s| s.resilience.as_mut()).is_none_or(Resilience::admit) {
                    true => self.enqueue(request, at),
                    false => self.settle(request, None, 0, at),
                }
            }
            Msg::Tick => {}
            Msg::Shutdown => return false,
        }
        true
    }

    fn enqueue(&mut self, request: Request, due: Instant) {
        self.seq += 1;
        self.queue.insert((due, self.seq), request);
        registry().gauge("llm.queue_depth").inc();
    }

    /// When the next batch goes: once its window is full or `max_wait`
    /// after its first request was due, and not before the wire is free.
    fn send_time(&self) -> Option<Instant> {
        let window_ends = self.queue.keys().next()?.0 + self.config.max_wait;
        let full = self.queue.keys().nth(self.config.max_batch - 1);
        let ready = full.map_or(window_ends, |(due, _)| window_ends.min(*due));
        Some(ready.max(self.wire_free))
    }

    fn next_event(&self) -> Option<Instant> {
        let landing = self.landings.keys().next().map(|(at, _)| *at);
        landing.into_iter().chain(self.send_time()).min()
    }

    /// Runs every event due by `now` (`None`: every event, which is what
    /// a shutdown drains).
    fn run_until(&mut self, now: Option<Instant>) {
        while let Some(at) = self.next_event().filter(|at| now.is_none_or(|now| *at <= now)) {
            self.cursor = at;
            match self.landings.first_entry() {
                Some(landing) if landing.key().0 == at => {
                    let (request, answer, batch_size) = landing.remove();
                    self.settle(request, Some(answer), batch_size, at);
                }
                _ => self.send(at, now.is_none()),
            }
        }
    }

    /// Sends the due head of the queue, up to `max_batch` prompts, as one
    /// batch landing `round_trip` from `at`, each prompt answered by its
    /// session.
    fn send(&mut self, at: Instant, draining: bool) {
        let mut batch = Vec::new();
        while batch.len() < self.config.max_batch {
            match self.queue.first_entry() {
                Some(request) if request.key().0 <= at => batch.push(request.remove()),
                _ => break,
            }
        }
        let size = batch.len();
        let r = registry();
        r.gauge("llm.queue_depth").add(-(size as i64));
        r.counter("llm.flushes").inc();
        r.counter("llm.flushed_prompts").add(size as u64);
        r.histogram("llm.batch_size").record(size as u64);
        let reason = match (draining, size == self.config.max_batch) {
            (true, _) => "llm.flush.shutdown",
            (false, true) => "llm.flush.full",
            (false, false) => "llm.flush.timeout",
        };
        r.counter(reason).inc();
        self.wire_free = at + self.config.round_trip;
        for request in batch {
            // A closed session's request is dropped, answering `ServiceClosed`.
            let Some(session) = self.sessions.get_mut(&request.session) else { continue };
            // A fault drawn for the prompt replaces its answer or delays it.
            let faults = session.faults.as_mut();
            let (replaced, stall) =
                faults.map_or((None, Duration::ZERO), |faults| faults.decide(&request.prompt));
            let answer = replaced.unwrap_or_else(|| session.model.complete(&request.prompt));
            self.seq += 1;
            self.landings.insert((self.wire_free + stall, self.seq), (request, answer, size));
        }
    }

    /// Routes an attempt's outcome at `at` (`None`: the breaker
    /// fast-failed it) through the session's resilience policy, if any:
    /// back into the queue, or to the caller.
    fn settle(
        &mut self,
        mut request: Request,
        outcome: Option<Answer>,
        batch_size: usize,
        at: Instant,
    ) {
        let session = self.sessions.get_mut(&request.session);
        let (result, resilience) = match session.and_then(|s| s.resilience.as_mut()) {
            Some(policy) => match policy.settle(&request.prompt, outcome, &mut request.attempt) {
                Settled::Retry(backoff) => return self.enqueue(request, at + backoff),
                Settled::Answer(result) => (result, Some(policy.stats)),
            },
            None => (outcome.expect("only a resilient session fast-fails"), None),
        };
        let waited = at.saturating_duration_since(request.submitted);
        request.reply.send(Delivery { result, batch_size, waited, resilience });
    }
}

/// The shared LLM service loop (see module docs).
///
/// Dropping the service answers every accepted submission and joins the
/// loop's thread; [`BatchedLlm::stop`] does the same but hands the
/// session models back (tests use this to audit usage).
pub struct BatchedLlm<M: LanguageModel + 'static> {
    tx: Sender<Msg<M>>,
    thread: Option<std::thread::JoinHandle<Vec<M>>>,
    next_session: AtomicU64,
    config: BatchConfig,
    clock: Clock,
}

impl<M: LanguageModel + 'static> std::fmt::Debug for BatchedLlm<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedLlm").field("config", &self.config).finish()
    }
}

impl<M: LanguageModel + 'static> BatchedLlm<M> {
    /// Starts the loop on the real clock (`max_batch` below 1 is 1).
    pub fn start(config: BatchConfig) -> Self {
        BatchedLlm::start_on(config, Clock::Real)
    }

    /// Starts the loop on `clock`.
    pub fn start_on(config: BatchConfig, clock: Clock) -> Self {
        let config = BatchConfig { max_batch: config.max_batch.max(1), ..config };
        let (tx, rx) = mpsc::channel();
        if let Clock::Virtual(VirtualClock(time)) = &clock {
            let tick = tx.clone();
            let wake = move || tick.send(Msg::Tick).is_ok();
            time.lock().unwrap_or_else(PoisonError::into_inner).1.push(Box::new(wake));
        }
        let (start, loop_clock) = (clock.now(), clock.clone());
        let service_loop = ServiceLoop {
            config: config.clone(),
            sessions: BTreeMap::new(),
            queue: BTreeMap::new(),
            landings: BTreeMap::new(),
            wire_free: start,
            cursor: start,
            seq: 0,
        };
        let thread = std::thread::Builder::new()
            .name("uvllm-llm-service".to_string())
            .spawn(move || service_loop.run(rx, loop_clock))
            .expect("spawn llm service thread");
        BatchedLlm { tx, thread: Some(thread), next_session: AtomicU64::new(0), config, clock }
    }

    /// The (normalized) batching policy in force.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Opens a session owning `model`, with no fault or resilience policy.
    pub fn client(&self, model: M) -> LlmClient<M> {
        self.session(model, None, None)
    }

    /// Opens a session owning `model` under the given policies. Each
    /// campaign job opens one with its own seeded model and policy
    /// streams, so batching never mixes RNG streams across jobs.
    pub fn session(
        &self,
        model: M,
        faults: Option<FaultPlan>,
        resilience: Option<ResiliencePolicy>,
    ) -> LlmClient<M> {
        let session = self.next_session.fetch_add(1, Ordering::SeqCst);
        registry().counter("llm.sessions").inc();
        let name = model.name().to_string();
        // A stopped service rejects the registration; the session's
        // tickets then answer `ServiceClosed` at redemption.
        let _ = self.tx.send(Msg::Open { session, model, faults, resilience });
        LlmClient {
            tx: self.tx.clone(),
            clock: self.clock.clone(),
            session,
            name,
            next_ticket: 0,
            outstanding: HashMap::new(),
            usage: Usage::default(),
            stats: WaitStats::default(),
            resilience: ResilienceStats::default(),
        }
    }

    /// Shuts the service down: answers every accepted submission, joins
    /// the loop, and returns the session models (in session-open order)
    /// for auditing.
    pub fn stop(mut self) -> Vec<M> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Vec<M> {
        let _ = self.tx.send(Msg::Shutdown);
        self.thread.take().and_then(|thread| thread.join().ok()).unwrap_or_default()
    }
}

impl<M: LanguageModel + 'static> Drop for BatchedLlm<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A session handle onto a [`BatchedLlm`] — the [`LlmService`] a job
/// holds when its LLM traffic goes through the loop.
pub struct LlmClient<M: LanguageModel + 'static> {
    tx: Sender<Msg<M>>,
    clock: Clock,
    session: u64,
    name: String,
    next_ticket: u64,
    outstanding: HashMap<u64, Arc<Slot>>,
    usage: Usage,
    stats: WaitStats,
    resilience: ResilienceStats,
}

impl<M: LanguageModel + 'static> LlmService for LlmClient<M> {
    fn backend_name(&self) -> &str {
        &self.name
    }

    fn submit(&mut self, prompt: &RepairPrompt) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let slot = Arc::new(Slot::default());
        let request = Request {
            session: self.session,
            prompt: prompt.clone(),
            reply: Reply(Some(Arc::clone(&slot))),
            submitted: self.clock.now(),
            attempt: 0,
        };
        // A stopped service hands the request back, and dropping it
        // answers the ticket `ServiceClosed`.
        let _ = self.tx.send(Msg::Submit(request));
        self.outstanding.insert(ticket.0, slot);
        ticket
    }

    fn await_completion(&mut self, ticket: Ticket) -> Result<Completion, LlmError> {
        block_on(|waker| self.poll_completion(ticket, waker))
    }

    fn poll_completion(
        &mut self,
        ticket: Ticket,
        waker: &Waker,
    ) -> Poll<Result<Completion, LlmError>> {
        let Some(slot) = self.outstanding.get(&ticket.0) else {
            return Poll::Ready(Err(LlmError::NoResponse(format!(
                "ticket #{} was never issued by this handle",
                ticket.0
            ))));
        };
        let Poll::Ready(delivery) = slot.poll(waker) else {
            return Poll::Pending;
        };
        self.outstanding.remove(&ticket.0);
        self.stats.tickets += 1;
        self.stats.wait += delivery.waited;
        self.stats.max_batch = self.stats.max_batch.max(delivery.batch_size);
        self.resilience = delivery.resilience.unwrap_or(self.resilience);
        registry().counter("llm.tickets").inc();
        registry().histogram("llm.ticket_wait_us").record(delivery.waited.as_micros() as u64);
        if let Ok(completion) = &delivery.result {
            // The per-ticket usage delta: what was delivered for this
            // ticket, attributed to this handle.
            self.usage.record(completion);
        }
        Poll::Ready(delivery.result)
    }

    fn usage(&self) -> Usage {
        self.usage
    }

    fn wait_stats(&self) -> WaitStats {
        self.stats
    }

    fn resilience_stats(&self) -> ResilienceStats {
        self.resilience
    }
}

impl<M: LanguageModel + 'static> Drop for LlmClient<M> {
    fn drop(&mut self) {
        // Best effort: free the session's model in the loop.
        let _ = self.tx.send(Msg::Close { session: self.session });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::AgentRole;
    use crate::scripted::ScriptedLlm;

    fn prompt() -> RepairPrompt {
        RepairPrompt::new(AgentRole::SyntaxFixer, "spec", "module m; endmodule")
    }

    fn scripted(responses: &[&str]) -> ScriptedLlm {
        ScriptedLlm::new(responses.iter().map(|s| s.to_string()))
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A loop on a virtual clock, and the clock.
    fn on_virtual<M: LanguageModel>(config: BatchConfig) -> (BatchedLlm<M>, VirtualClock) {
        let clock = VirtualClock::default();
        (BatchedLlm::start_on(config, Clock::Virtual(clock.clone())), clock)
    }

    /// Redeems `ticket` and returns how long it waited, on the loop's clock.
    fn waited<M: LanguageModel>(client: &mut LlmClient<M>, ticket: Ticket) -> Duration {
        let before = client.wait_stats().wait;
        client.await_completion(ticket).expect("answered");
        client.wait_stats().wait - before
    }

    #[test]
    fn direct_service_round_trips() {
        let mut service = DirectService::new(scripted(&["one", "two"]));
        let a = service.submit(&prompt());
        let b = service.submit(&prompt());
        assert_eq!(service.await_completion(a).unwrap().content, "one");
        assert_eq!(service.await_completion(b).unwrap().content, "two");
        assert!(service.complete(&prompt()).is_err(), "scripted backend exhausted");
        assert_eq!(service.usage().calls, 2);
        let stats = service.wait_stats();
        // Three tickets were redeemed (the exhausted-backend error is a
        // redemption too); only two produced completions.
        assert_eq!(stats.tickets, 3);
        assert_eq!(stats.max_batch, 1);
        // Unknown tickets are an error, not a hang.
        assert!(matches!(service.await_completion(a), Err(LlmError::NoResponse(_))));
    }

    #[test]
    fn batched_flushes_when_max_batch_reached() {
        let (service, _clock) = on_virtual(BatchConfig {
            max_batch: 3,
            max_wait: Duration::from_secs(30),
            ..BatchConfig::default()
        });
        let mut client = service.client(scripted(&["one", "two", "three"]));
        let tickets: Vec<Ticket> = (0..3).map(|_| client.submit(&prompt())).collect();
        let contents: Vec<String> =
            tickets.into_iter().map(|t| client.await_completion(t).unwrap().content).collect();
        // The batch fills with no time passing, answers arrive in
        // submission order, and all three rode one batch.
        assert_eq!(contents, ["one", "two", "three"]);
        assert_eq!(client.wait_stats().max_batch, 3);
        assert_eq!(client.wait_stats().wait, Duration::ZERO);
    }

    #[test]
    fn batched_flushes_partial_batch_on_max_wait() {
        let (service, clock) =
            on_virtual(BatchConfig { max_batch: 64, max_wait: ms(20), ..BatchConfig::default() });
        let mut client = service.client(scripted(&["lone"]));
        let ticket = client.submit(&prompt());
        clock.advance(Duration::from_secs(1));
        assert_eq!(client.await_completion(ticket).unwrap().content, "lone");
        assert_eq!(client.wait_stats().wait, ms(20), "sent when its window ran out");
        assert_eq!(client.wait_stats().max_batch, 1, "partial batch of one");
    }

    #[test]
    fn shutdown_drains_accepted_submissions() {
        let service = BatchedLlm::start(BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(30),
            ..BatchConfig::default()
        });
        let mut client = service.client(scripted(&["one", "two"]));
        let a = client.submit(&prompt());
        let b = client.submit(&prompt());
        // Stop while the flush window is still gathering: close must
        // flush the partial batch, not strand it.
        let models = service.stop();
        assert_eq!(models.len(), 1);
        assert_eq!(client.await_completion(a).unwrap().content, "one");
        assert_eq!(client.await_completion(b).unwrap().content, "two");
        // Submissions after shutdown fail at redemption.
        let late = client.submit(&prompt());
        assert!(matches!(client.await_completion(late), Err(LlmError::ServiceClosed(_))));
    }

    #[test]
    fn sessions_keep_their_own_models_and_order() {
        let service = BatchedLlm::start(BatchConfig {
            max_batch: 3,
            max_wait: Duration::from_secs(30),
            ..BatchConfig::default()
        });
        let mut alice = service.client(scripted(&["a1", "a2"]));
        let mut bob = service.client(scripted(&["b1"]));
        let a1 = alice.submit(&prompt());
        let b1 = bob.submit(&prompt());
        let a2 = alice.submit(&prompt());
        // One flush of three, two sessions: each model answers only its
        // own prompts, in its own submission order.
        assert_eq!(alice.await_completion(a1).unwrap().content, "a1");
        assert_eq!(alice.await_completion(a2).unwrap().content, "a2");
        assert_eq!(bob.await_completion(b1).unwrap().content, "b1");
        assert_eq!(alice.wait_stats().max_batch, 3);
        assert_eq!(bob.wait_stats().max_batch, 3);
    }

    #[test]
    fn per_ticket_usage_deltas_sum_to_backend_totals() {
        let service = BatchedLlm::start(BatchConfig::default());
        let mut alice = service.client(scripted(&["aaaa", "bb"]));
        let mut bob = service.client(scripted(&["cccccccc"]));
        alice.complete(&prompt()).unwrap();
        bob.complete(&prompt()).unwrap();
        alice.complete(&prompt()).unwrap();
        let models = service.stop();
        assert_eq!(models.len(), 2);
        // Session order == open order: alice first.
        assert_eq!(alice.usage(), models[0].usage(), "alice's deltas sum to her model's total");
        assert_eq!(bob.usage(), models[1].usage(), "bob's deltas sum to his model's total");
        assert_eq!(
            alice.usage() + bob.usage(),
            models[0].usage() + models[1].usage(),
            "handle attribution partitions the backend total"
        );
        assert_eq!(alice.usage().calls, 2);
        assert_eq!(bob.usage().calls, 1);
    }

    #[test]
    fn batched_session_matches_direct_service_byte_for_byte() {
        use uvllm_errgen::{mutate, ErrorKind};
        const SRC: &str = "module c(input clk, input rst_n, input en, output reg [3:0] q);\n\
                           always @(posedge clk or negedge rst_n) begin\n\
                           if (!rst_n) q <= 4'd0;\n\
                           else if (en) q <= q + 4'd1;\n\
                           end\nendmodule\n";
        let mutated = mutate(SRC, ErrorKind::OperatorMisuse, 7).unwrap();
        let oracle = |seed| {
            crate::OracleLlm::new(
                mutated.ground_truth.clone(),
                SRC,
                crate::ModelProfile::Gpt4Turbo,
                seed,
            )
        };
        let p = RepairPrompt::new(AgentRole::MismatchDebugger, "spec", &mutated.mutated_src);

        let mut direct = DirectService::new(oracle(3));
        let direct_contents: Vec<String> =
            (0..4).map(|_| direct.complete(&p).unwrap().content).collect();

        let service = BatchedLlm::start(BatchConfig::default());
        let mut client = service.client(oracle(3));
        let batched_contents: Vec<String> =
            (0..4).map(|_| client.complete(&p).unwrap().content).collect();

        assert_eq!(
            direct_contents, batched_contents,
            "a session sees its prompts in order: identical RNG stream"
        );
        assert_eq!(direct.usage(), client.usage());
    }

    /// Sends on a channel each time it is woken.
    struct Signal(Mutex<std::sync::mpsc::Sender<()>>);

    impl Wake for Signal {
        fn wake(self: Arc<Self>) {
            let _ = self.0.lock().unwrap().send(());
        }
    }

    fn signal() -> (Waker, std::sync::mpsc::Receiver<()>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (Waker::from(Arc::new(Signal(Mutex::new(tx)))), rx)
    }

    #[test]
    fn poll_completion_wakes_its_waker_on_delivery() {
        let service = BatchedLlm::start(BatchConfig {
            max_batch: 2,
            max_wait: Duration::from_secs(30),
            ..BatchConfig::default()
        });
        let mut client = service.client(scripted(&["one", "two"]));
        let (waker, woken) = signal();
        let first = client.submit(&prompt());
        assert!(client.poll_completion(first, &waker).is_pending(), "the window is still open");
        assert!(woken.try_recv().is_err());
        // The second prompt fills the window: the flush answers both.
        let second = client.submit(&prompt());
        woken.recv_timeout(Duration::from_secs(10)).expect("the delivery wakes the poller");
        let answer = client.poll_completion(first, &waker);
        assert!(matches!(answer, Poll::Ready(Ok(c)) if c.content == "one"));
        assert_eq!(client.await_completion(second).unwrap().content, "two");
        assert_eq!(client.wait_stats().tickets, 2);
        assert!(
            matches!(
                client.poll_completion(first, &waker),
                Poll::Ready(Err(LlmError::NoResponse(_)))
            ),
            "a ticket answered Ready is redeemed"
        );
    }

    #[test]
    fn a_not_before_request_reaches_the_backend_no_earlier_than_its_instant() {
        use crate::response::RepairResponse;
        use rand::{rngs::StdRng, SeedableRng};
        let rtt = ms(10);
        let (service, clock) =
            on_virtual(BatchConfig { max_batch: 1, max_wait: Duration::ZERO, round_trip: rtt });
        let policy = ResiliencePolicy {
            validate: true,
            base_backoff: Duration::from_secs(1),
            max_backoff: Duration::from_secs(1),
            ..ResiliencePolicy::default()
        };
        let good =
            RepairResponse { module_name: "m".into(), analysis: "a".into(), correct: vec![] }
                .to_json();
        let mut late = service.session(
            ScriptedLlm::new(["garbage".to_string(), good.clone()]),
            None,
            Some(policy.clone()),
        );
        let mut eager = service.client(scripted(&["now"]));
        let retried = late.submit(&prompt());
        let at_once = eager.submit(&prompt());
        clock.advance(Duration::from_secs(10));
        // The garbled first answer lands at `rtt`; its retry is due one
        // jittered backoff later. The request submitted after it rides
        // the exclusive connection right behind the first attempt, not
        // behind the retry.
        let backoff = policy.backoff(1, &mut StdRng::seed_from_u64(policy.jitter_seed));
        assert_eq!(waited(&mut eager, at_once), rtt * 2);
        assert_eq!(late.await_completion(retried).unwrap().content, good);
        assert_eq!(late.wait_stats().wait, rtt + backoff + rtt);
        assert_eq!(late.resilience_stats().retries, 1);
    }

    /// A backend that panics when asked.
    struct Panicking;

    impl LanguageModel for Panicking {
        fn name(&self) -> &str {
            "panicking"
        }

        fn complete(&mut self, _: &RepairPrompt) -> Result<Completion, LlmError> {
            panic!("injected backend panic")
        }

        fn usage(&self) -> Usage {
            Usage::default()
        }
    }

    #[test]
    fn a_panicking_backend_answers_every_outstanding_ticket_service_closed() {
        let service: BatchedLlm<Box<dyn LanguageModel>> = BatchedLlm::start(BatchConfig {
            max_batch: 3,
            max_wait: Duration::from_secs(30),
            ..BatchConfig::default()
        });
        let mut doomed = service.client(Box::new(Panicking));
        let mut bystander = service.client(Box::new(scripted(&["b1", "b2", "b3"])));
        // The third prompt fills the window; its batch asks the
        // panicking session first, so the bystander's two go unanswered,
        // and so does the one queued behind them.
        let dead = doomed.submit(&prompt());
        let stranded: Vec<Ticket> = (0..3).map(|_| bystander.submit(&prompt())).collect();
        let closed = |result: Result<Completion, LlmError>| {
            matches!(result, Err(LlmError::ServiceClosed(_)))
        };
        assert!(closed(doomed.await_completion(dead)));
        for ticket in stranded {
            assert!(closed(bystander.await_completion(ticket)), "a stranded ticket is answered");
        }
        let late = bystander.submit(&prompt());
        assert!(closed(bystander.await_completion(late)));
        assert!(service.stop().is_empty(), "the loop died with its sessions");
    }

    #[test]
    fn round_trips_amortize_across_a_batch() {
        let rtt = ms(10);
        // Three prompts in one batch: each waits one round trip.
        let (service, clock) = on_virtual(BatchConfig {
            max_batch: 3,
            max_wait: Duration::from_secs(1),
            round_trip: rtt,
        });
        let mut client = service.client(scripted(&["a", "b", "c"]));
        let tickets: Vec<Ticket> = (0..3).map(|_| client.submit(&prompt())).collect();
        clock.advance(Duration::from_secs(1));
        let waits: Vec<Duration> = tickets.into_iter().map(|t| waited(&mut client, t)).collect();
        assert_eq!(waits, [rtt, rtt, rtt]);
        // One prompt per round trip on the exclusive connection: the
        // third waits for all three.
        let (service, clock) =
            on_virtual(BatchConfig { max_batch: 1, max_wait: Duration::ZERO, round_trip: rtt });
        let mut client = service.client(scripted(&["a", "b", "c"]));
        let tickets: Vec<Ticket> = (0..3).map(|_| client.submit(&prompt())).collect();
        clock.advance(Duration::from_secs(1));
        let waits: Vec<Duration> = tickets.into_iter().map(|t| waited(&mut client, t)).collect();
        assert_eq!(waits, [rtt, rtt * 2, rtt * 3]);
    }

    #[test]
    fn a_stalled_answer_lands_late_without_holding_its_batch() {
        let (rtt, stall) = (ms(10), ms(50));
        let (service, clock) = on_virtual(BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_secs(1),
            round_trip: rtt,
        });
        let stalling = FaultPlan { latency: stall, ..FaultPlan::default() };
        // Four sessions share one batch; two of them stall.
        let mut clients: Vec<_> = (0..4)
            .map(|i| {
                service.session(
                    scripted(&["x"]),
                    [1, 2].contains(&i).then(|| stalling.clone()),
                    None,
                )
            })
            .collect();
        let tickets: Vec<Ticket> = clients.iter_mut().map(|c| c.submit(&prompt())).collect();
        clock.advance(Duration::from_secs(1));
        let waits: Vec<Duration> =
            clients.iter_mut().zip(tickets).map(|(c, t)| waited(c, t)).collect();
        assert_eq!(waits, [rtt, rtt + stall, rtt + stall, rtt]);
        assert!(clients.iter().all(|c| c.wait_stats().max_batch == 4));
    }

    #[test]
    fn a_second_window_fills_while_a_batch_is_on_the_wire() {
        let rtt = ms(10);
        let (service, clock) =
            on_virtual(BatchConfig { max_batch: 2, max_wait: ms(1), round_trip: rtt });
        let mut client = service.client(scripted(&["a", "b", "c", "d", "e"]));
        // Full at 0 ms: on the wire until 10 ms.
        let mut tickets: Vec<Ticket> = (0..2).map(|_| client.submit(&prompt())).collect();
        clock.advance(ms(2));
        // Full at 2 ms, sent when the first batch lands.
        tickets.extend((0..2).map(|_| client.submit(&prompt())));
        clock.advance(ms(3));
        // Its window ends at 6 ms, but the wire is busy until 20 ms.
        tickets.push(client.submit(&prompt()));
        clock.advance(Duration::from_secs(1));
        let waits: Vec<Duration> = tickets.into_iter().map(|t| waited(&mut client, t)).collect();
        assert_eq!(waits, [rtt, rtt, ms(18), ms(18), ms(25)]);
        assert_eq!(client.usage().calls, 5);
    }
}
