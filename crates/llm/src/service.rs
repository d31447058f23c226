//! The LLM *service* layer: a submit/await ticket protocol that
//! decouples asking for a completion from blocking on it.
//!
//! The repair pipeline historically called `complete(&mut M, prompt)`
//! directly — a blocking, exclusive, one-prompt-at-a-time coupling that
//! forces every campaign worker to stall on the model while its
//! simulator sits idle. This module replaces that call with a protocol:
//!
//! 1. [`LlmService::submit`] hands the service a [`RepairPrompt`] and
//!    returns a [`Ticket`] immediately;
//! 2. [`LlmService::await_completion`] redeems the ticket, blocking
//!    only until *that* prompt's answer is ready, or
//!    [`LlmService::poll_completion`] asks for it without blocking and
//!    leaves a [`Waker`] to be woken when it is in — what a repair loop
//!    written as a step function ([`Step`]) needs to wait as data, not
//!    as a blocked thread.
//!
//! Two implementations cover the two deployment shapes:
//!
//! * [`DirectService`] — the in-process adapter: wraps one
//!   [`LanguageModel`] and answers at submit time. Zero concurrency,
//!   zero overhead; behaviourally identical to the old direct call.
//! * [`BatchedLlm`] — a shared service owning the backend(s) on a
//!   dedicated thread. Callers register *sessions* (one per campaign
//!   job, carrying that job's own model so oracle determinism is
//!   untouched) and obtain [`LlmClient`] handles; submissions from all
//!   workers land in one bounded queue, are coalesced into batches by
//!   the [`BatchConfig`] flush policy (`max_batch` reached, or
//!   `max_wait` elapsed since the first pending prompt), fanned to the
//!   session models via [`LanguageModel::complete_batch`], and the
//!   parked jobs are woken as each flush completes — so one job's LLM
//!   round trip overlaps every other job's simulation time. A request
//!   submitted with a not-before time ([`LlmService::submit_not_before`],
//!   a retry's backoff) stays out of flush windows until it is due.
//!
//! **Determinism contract:** a session's model sees exactly the prompts
//! submitted through that session, in the order they join flush windows
//! — submission order, for a session with one prompt outstanding at a
//! time, which is how every repair loop asks — no matter how flushes
//! interleave sessions. A campaign job therefore produces the same
//! completions (and the same usage accounting) through a [`BatchedLlm`]
//! session as through a [`DirectService`] — batch schedule and worker
//! count change wall-clock only.
//!
//! [`SlowLlm`] models the remote endpoint this layer is built for: a
//! fixed per-round-trip latency on an exclusive connection
//! ([`EndpointGate`]). One `complete` pays one round trip; one
//! `complete_batch` pays one round trip for the whole batch — which is
//! exactly the amortization the batched service exists to exploit
//! (`BatchConfig::round_trip` injects the same cost per flush).

use crate::model::{Completion, LanguageModel, LlmError, Usage};
use crate::prompt::RepairPrompt;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::task::{Poll, Wake, Waker};
use std::time::{Duration, Instant};
use uvllm_obs::{registry, Counter, Gauge, Histogram};

/// Registry handles for the service layer (`llm.*`), resolved once.
/// Per-handle [`WaitStats`] stay for per-job row telemetry (a global
/// registry cannot attribute waits to one job); these are the
/// service-wide aggregates campaigns snapshot.
#[derive(Debug)]
struct LlmMetrics {
    /// Sessions opened on any [`BatchedLlm`].
    sessions: &'static Counter,
    /// Prompts submitted but not yet pulled into a flush window.
    queue_depth: &'static Gauge,
    /// Tickets redeemed across all handles.
    tickets: &'static Counter,
    /// Submission-to-delivery wall time per ticket, in microseconds.
    ticket_wait_us: &'static Histogram,
    /// Prompts per flush.
    batch_size: &'static Histogram,
    /// Flushes answered (any reason).
    flushes: &'static Counter,
    /// Prompts answered across all flushes (`flushed_prompts / flushes`
    /// is the mean batch size).
    flushed_prompts: &'static Counter,
    /// Flushes triggered by a full batch window.
    flush_full: &'static Counter,
    /// Flushes triggered by the `max_wait` deadline.
    flush_timeout: &'static Counter,
    /// Flushes draining the queue at service shutdown.
    flush_shutdown: &'static Counter,
}

fn metrics() -> &'static LlmMetrics {
    static METRICS: OnceLock<LlmMetrics> = OnceLock::new();
    METRICS.get_or_init(|| LlmMetrics {
        sessions: registry().counter("llm.sessions"),
        queue_depth: registry().gauge("llm.queue_depth"),
        tickets: registry().counter("llm.tickets"),
        ticket_wait_us: registry().histogram("llm.ticket_wait_us"),
        batch_size: registry().histogram("llm.batch_size"),
        flushes: registry().counter("llm.flushes"),
        flushed_prompts: registry().counter("llm.flushed_prompts"),
        flush_full: registry().counter("llm.flush.full"),
        flush_timeout: registry().counter("llm.flush.timeout"),
        flush_shutdown: registry().counter("llm.flush.shutdown"),
    })
}

/// Why a flush fired (tallied per flush in the registry).
#[derive(Debug, Clone, Copy)]
enum FlushReason {
    Full,
    Timeout,
    Shutdown,
}

/// Flush policy and sizing of a [`BatchedLlm`] service.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Flush as soon as this many prompts are pending.
    pub max_batch: usize,
    /// Flush a partial batch this long after its first prompt arrived,
    /// so a lone straggler is never parked behind an empty queue.
    pub max_wait: Duration,
    /// Capacity of the bounded submission queue; `submit` blocks while
    /// it is full (backpressure instead of unbounded buffering).
    pub queue_cap: usize,
    /// Injected endpoint round-trip latency paid once per flush —
    /// simulates the remote-API cost the batching amortizes (zero in
    /// production use; the benchmarks set it).
    pub round_trip: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_cap: 256,
            round_trip: Duration::ZERO,
        }
    }
}

/// A claim on one submitted prompt, redeemed by
/// [`LlmService::await_completion`]. Tickets are per-handle: a ticket
/// from one client cannot be redeemed through another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

impl Ticket {
    /// Mints a ticket — for service implementors in this crate only
    /// (callers obtain tickets from [`LlmService::submit`]).
    pub(crate) fn new(id: u64) -> Ticket {
        Ticket(id)
    }

    /// The handle-local ticket id.
    pub(crate) fn id(self) -> u64 {
        self.0
    }
}

/// Service-side accounting a handle accumulates ticket by ticket:
/// how long its caller spent blocked on the LLM and how large the
/// batches its prompts rode in were.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Tickets redeemed.
    pub tickets: u64,
    /// Total wall-clock time from submission to delivery.
    pub wait: Duration,
    /// Largest flush any of this handle's prompts was part of.
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

    /// [`LlmService::submit`] for a prompt that must not reach the
    /// backend before `not_before` (a retry's backoff).
    ///
    /// The default waits until then on the calling thread; a queued
    /// service holds the request back instead.
    fn submit_not_before(&mut self, prompt: &RepairPrompt, not_before: Instant) -> Ticket {
        let wait = not_before.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        self.submit(prompt)
    }

    /// Submit-then-await in one call — the drop-in replacement for the
    /// old `LanguageModel::complete` call sites.
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
    /// redeemed tickets — the per-ticket deltas that keep per-job
    /// accounting exact on a shared service).
    fn usage(&self) -> Usage;

    /// Wait/batch telemetry accumulated by this handle.
    fn wait_stats(&self) -> WaitStats;

    /// What the resilience layer did on this handle. Plain services
    /// report the all-zero default; [`crate::ResilientService`]
    /// overrides it — campaign code reads it through `Box<dyn
    /// LlmService>` to tag degraded rows without downcasting.
    fn resilience_stats(&self) -> crate::resilient::ResilienceStats {
        crate::resilient::ResilienceStats::default()
    }
}

// So a wrapper generic over `S: LlmService` takes a boxed trait object.
impl<S: LlmService + ?Sized> LlmService for Box<S> {
    fn backend_name(&self) -> &str {
        (**self).backend_name()
    }

    fn submit(&mut self, prompt: &RepairPrompt) -> Ticket {
        (**self).submit(prompt)
    }

    fn await_completion(&mut self, ticket: Ticket) -> Result<Completion, LlmError> {
        (**self).await_completion(ticket)
    }

    fn poll_completion(
        &mut self,
        ticket: Ticket,
        waker: &Waker,
    ) -> Poll<Result<Completion, LlmError>> {
        (**self).poll_completion(ticket, waker)
    }

    fn submit_not_before(&mut self, prompt: &RepairPrompt, not_before: Instant) -> Ticket {
        (**self).submit_not_before(prompt, not_before)
    }

    fn usage(&self) -> Usage {
        (**self).usage()
    }

    fn wait_stats(&self) -> WaitStats {
        (**self).wait_stats()
    }

    fn resilience_stats(&self) -> crate::resilient::ResilienceStats {
        (**self).resilience_stats()
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

// ----------------------------------------------------------------------
// DirectService: the unbatched in-process adapter
// ----------------------------------------------------------------------

/// Adapts one [`LanguageModel`] to the [`LlmService`] protocol with no
/// threads and no queue: the answer is computed at submit time and the
/// ticket redeems it. Batch size is always 1 and wait time always ~0 —
/// the baseline the batched service is measured against.
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
        // The caller blocks right here while the model answers (that is
        // what "direct" means), so the elapsed time is this ticket's
        // wait — e.g. a SlowLlm endpoint round trip shows up in
        // telemetry exactly like a batched ticket's queue time.
        let asked = Instant::now();
        let result = self.model.complete(prompt);
        self.stats.wait += asked.elapsed();
        self.ready.insert(ticket.0, result);
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

// ----------------------------------------------------------------------
// A bounded MPSC channel (std-only; Mutex + two Condvars)
// ----------------------------------------------------------------------

struct ChanState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking queue: `send` applies backpressure when full,
/// `recv` drains remaining items after close (which is what gives the
/// service its drain-on-shutdown guarantee).
struct Chan<T> {
    state: Mutex<ChanState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

enum Recv<T> {
    Item(T),
    Timeout,
    Closed,
}

impl<T> Chan<T> {
    fn new(cap: usize) -> Self {
        Chan {
            state: Mutex::new(ChanState { queue: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Blocks while the queue is full; returns the item back when the
    /// channel is closed.
    fn send(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("llm service queue poisoned");
        loop {
            if state.closed {
                return Err(item);
            }
            if state.queue.len() < self.cap {
                state.queue.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("llm service queue poisoned");
        }
    }

    /// Blocks for the next item until `deadline` (`None`: for as long as
    /// it takes); `Closed` once closed *and* drained.
    fn recv(&self, deadline: Option<Instant>) -> Recv<T> {
        let mut state = self.state.lock().expect("llm service queue poisoned");
        loop {
            if let Some(item) = state.queue.pop_front() {
                self.not_full.notify_one();
                return Recv::Item(item);
            }
            if state.closed {
                return Recv::Closed;
            }
            state = match deadline {
                None => self.not_empty.wait(state).expect("llm service queue poisoned"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Recv::Timeout;
                    }
                    let waited = self.not_empty.wait_timeout(state, deadline - now);
                    waited.expect("llm service queue poisoned").0
                }
            };
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().expect("llm service queue poisoned");
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

// ----------------------------------------------------------------------
// BatchedLlm: the shared batching service
// ----------------------------------------------------------------------

/// What the service thread delivers into a ticket's slot.
struct Delivery {
    result: Result<Completion, LlmError>,
    /// Size of the flush this prompt was answered in.
    batch_size: usize,
}

/// One submitted prompt's rendezvous point between its client and the
/// service thread: the delivery, or the waker of whoever polled first.
#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
}

#[derive(Default)]
struct SlotState {
    delivery: Option<Delivery>,
    waker: Option<Waker>,
}

// Every update of a slot is one whole assignment, so a poisoned guard
// still holds a valid state (and `Reply`'s `Drop` must not panic).
impl Slot {
    fn deliver(&self, result: Result<Completion, LlmError>, batch_size: usize) {
        let waker = {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.delivery = Some(Delivery { result, batch_size });
            state.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    fn poll(&self, waker: &Waker) -> Poll<Delivery> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match state.delivery.take() {
            Some(delivery) => Poll::Ready(delivery),
            None => {
                state.waker = Some(waker.clone());
                Poll::Pending
            }
        }
    }
}

/// The service's end of a ticket: answers it once, and answers
/// [`LlmError::ServiceClosed`] when dropped unanswered — by a flush that
/// unwinds, or by the drain of a service thread that died — so no
/// waiter waits forever.
struct Reply(Option<Arc<Slot>>);

impl Reply {
    fn send(mut self, result: Result<Completion, LlmError>, batch_size: usize) {
        if let Some(slot) = self.0.take() {
            slot.deliver(result, batch_size);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.deliver(
                Err(LlmError::ServiceClosed(
                    "ticket was never answered (service shut down)".to_string(),
                )),
                0,
            );
        }
    }
}

struct PendingRequest {
    session: u64,
    prompt: RepairPrompt,
    /// The request joins no flush window before this.
    not_before: Instant,
    reply: Reply,
}

enum Msg<M> {
    /// Register a session and the model that answers its prompts.
    Open {
        session: u64,
        model: M,
    },
    /// Drop a session's model (its client handle went away).
    Close {
        session: u64,
    },
    Request(PendingRequest),
}

/// The shared batched LLM service (see module docs).
///
/// Dropping the service closes the queue, drains every already-accepted
/// submission, and joins the thread; [`BatchedLlm::stop`] does the same
/// but hands the session models back (tests use this to audit usage).
pub struct BatchedLlm<M: LanguageModel + 'static> {
    chan: Arc<Chan<Msg<M>>>,
    thread: Mutex<Option<std::thread::JoinHandle<HashMap<u64, M>>>>,
    next_session: AtomicU64,
    config: BatchConfig,
}

impl<M: LanguageModel + 'static> std::fmt::Debug for BatchedLlm<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedLlm").field("config", &self.config).finish()
    }
}

impl<M: LanguageModel + 'static> BatchedLlm<M> {
    /// Starts the service thread (sizes below 1 are clamped up).
    pub fn start(config: BatchConfig) -> Self {
        let config = BatchConfig {
            max_batch: config.max_batch.max(1),
            queue_cap: config.queue_cap.max(1),
            ..config
        };
        let chan = Arc::new(Chan::new(config.queue_cap));
        let worker_chan = Arc::clone(&chan);
        let worker_config = config.clone();
        let thread = std::thread::Builder::new()
            .name("uvllm-llm-service".to_string())
            .spawn(move || service_loop(worker_chan, worker_config))
            .expect("spawn llm service thread");
        BatchedLlm {
            chan,
            thread: Mutex::new(Some(thread)),
            next_session: AtomicU64::new(0),
            config,
        }
    }

    /// The (normalized) flush policy in force.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Opens a session owning `model` and returns its client handle.
    ///
    /// Each campaign job opens a session with its own (seeded) model, so
    /// batching never mixes RNG streams across jobs; a deployment with
    /// one real endpoint opens a single session and hands out clones of
    /// the handle's accounting via per-ticket deltas.
    pub fn client(&self, model: M) -> LlmClient<M> {
        let session = self.next_session.fetch_add(1, Ordering::SeqCst);
        metrics().sessions.inc();
        let name = model.name().to_string();
        // A closed service rejects the registration; the client's
        // submissions then poison their own tickets, so the error
        // surfaces at await time like every other service failure.
        let _ = self.chan.send(Msg::Open { session, model });
        LlmClient {
            chan: Arc::clone(&self.chan),
            session,
            name,
            next_ticket: 0,
            outstanding: HashMap::new(),
            usage: Usage::default(),
            stats: WaitStats::default(),
        }
    }

    /// Shuts the service down: closes the queue, drains and answers
    /// every accepted submission, joins the thread, and returns the
    /// session models (in session-open order) for auditing.
    pub fn stop(self) -> Vec<M> {
        self.chan.close();
        let handle = self.thread.lock().expect("llm service handle poisoned").take();
        let sessions = match handle {
            Some(h) => h.join().unwrap_or_default(),
            None => HashMap::new(),
        };
        let mut models: Vec<(u64, M)> = sessions.into_iter().collect();
        models.sort_by_key(|(session, _)| *session);
        models.into_iter().map(|(_, model)| model).collect()
    }
}

impl<M: LanguageModel + 'static> Drop for BatchedLlm<M> {
    fn drop(&mut self) {
        self.chan.close();
        if let Some(handle) = self.thread.lock().expect("llm service handle poisoned").take() {
            let _ = handle.join();
        }
    }
}

/// Closes and drains the queue if the service thread unwinds: every
/// request it held — queued, pending, deferred or mid-flush — is
/// dropped, and its [`Reply`] answers the ticket `ServiceClosed`.
struct PanicCloser<'c, T>(&'c Chan<T>);

impl<T> Drop for PanicCloser<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
            while let Recv::Item(_) = self.0.recv(None) {}
        }
    }
}

/// The dedicated service thread: accumulate → flush, until the queue
/// closes. A flush window opens with its first prompt and flushes when
/// `max_batch` prompts are in or `max_wait` after it opened; a deferred
/// request joins a window once due, so the timed wait runs to the
/// earlier of the window's end and the next due time.
fn service_loop<M: LanguageModel>(chan: Arc<Chan<Msg<M>>>, config: BatchConfig) -> HashMap<u64, M> {
    let _panic_closer = PanicCloser(&chan);
    let mut sessions: HashMap<u64, M> = HashMap::new();
    let mut pending: Vec<PendingRequest> = Vec::new();
    let mut deferred: Vec<PendingRequest> = Vec::new();
    let mut window_ends: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let (due, later): (Vec<_>, Vec<_>) =
            std::mem::take(&mut deferred).into_iter().partition(|r| r.not_before <= now);
        deferred = later;
        metrics().queue_depth.add(-(due.len() as i64));
        pending.extend(due);
        if !pending.is_empty() && window_ends.is_none() {
            window_ends = Some(now + config.max_wait);
        }
        let reason = if pending.len() >= config.max_batch {
            Some(FlushReason::Full)
        } else {
            window_ends.filter(|end| now >= *end).map(|_| FlushReason::Timeout)
        };
        if let Some(reason) = reason {
            flush(&mut sessions, &mut pending, config.round_trip, reason);
            window_ends = None;
            continue;
        }
        let wake_at = deferred.iter().map(|r| r.not_before).chain(window_ends).min();
        match chan.recv(wake_at) {
            Recv::Item(Msg::Open { session, model }) => {
                sessions.insert(session, model);
            }
            Recv::Item(Msg::Close { session }) => {
                sessions.remove(&session);
            }
            // Joins a window at the top of the loop, once due.
            Recv::Item(Msg::Request(request)) => deferred.push(request),
            Recv::Timeout => {}
            Recv::Closed => break,
        }
    }
    // Drain on shutdown: the queue is closed and empty; anything still
    // pending or deferred is answered now.
    metrics().queue_depth.add(-(deferred.len() as i64));
    pending.append(&mut deferred);
    flush(&mut sessions, &mut pending, config.round_trip, FlushReason::Shutdown);
    sessions
}

/// Answers one flush: one injected round trip for the whole batch, then
/// each session's prompts go to its own model as one
/// [`LanguageModel::complete_batch`] call, in submission order.
fn flush<M: LanguageModel>(
    sessions: &mut HashMap<u64, M>,
    pending: &mut Vec<PendingRequest>,
    round_trip: Duration,
    reason: FlushReason,
) {
    if pending.is_empty() {
        return;
    }
    let batch_size = pending.len();
    let m = metrics();
    m.flushes.inc();
    m.flushed_prompts.add(batch_size as u64);
    m.batch_size.record(batch_size as u64);
    match reason {
        FlushReason::Full => m.flush_full.inc(),
        FlushReason::Timeout => m.flush_timeout.inc(),
        FlushReason::Shutdown => m.flush_shutdown.inc(),
    }
    if !round_trip.is_zero() {
        std::thread::sleep(round_trip);
    }
    // Group by session, preserving both first-appearance session order
    // and submission order within each session.
    let mut groups: Vec<(u64, Vec<PendingRequest>)> = Vec::new();
    for request in pending.drain(..) {
        match groups.iter_mut().find(|(session, _)| *session == request.session) {
            Some((_, group)) => group.push(request),
            None => groups.push((request.session, vec![request])),
        }
    }
    for (session, group) in groups {
        let (prompts, replies): (Vec<RepairPrompt>, Vec<Reply>) =
            group.into_iter().map(|r| (r.prompt, r.reply)).unzip();
        match sessions.get_mut(&session) {
            Some(model) => {
                let mut results = model.complete_batch(&prompts).into_iter();
                for reply in replies {
                    // A malformed override returning too few results
                    // must not strand a waiting caller.
                    let result = results.next().unwrap_or_else(|| {
                        Err(LlmError::NoResponse(
                            "backend returned fewer batch results than prompts".to_string(),
                        ))
                    });
                    reply.send(result, batch_size);
                }
            }
            None => {
                for reply in replies {
                    reply.send(
                        Err(LlmError::ServiceClosed(format!(
                            "session {session} is not registered"
                        ))),
                        batch_size,
                    );
                }
            }
        }
    }
}

/// A session handle onto a [`BatchedLlm`] — the [`LlmService`] the
/// pipeline actually holds when a campaign runs batched.
pub struct LlmClient<M: LanguageModel + 'static> {
    chan: Arc<Chan<Msg<M>>>,
    session: u64,
    name: String,
    next_ticket: u64,
    outstanding: HashMap<u64, OutstandingTicket>,
    usage: Usage,
    stats: WaitStats,
}

struct OutstandingTicket {
    slot: Arc<Slot>,
    submitted: Instant,
}

impl<M: LanguageModel + 'static> std::fmt::Debug for LlmClient<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlmClient")
            .field("session", &self.session)
            .field("backend", &self.name)
            .finish()
    }
}

impl<M: LanguageModel + 'static> LlmService for LlmClient<M> {
    fn backend_name(&self) -> &str {
        &self.name
    }

    fn submit(&mut self, prompt: &RepairPrompt) -> Ticket {
        self.submit_not_before(prompt, Instant::now())
    }

    fn submit_not_before(&mut self, prompt: &RepairPrompt, not_before: Instant) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let slot = Arc::new(Slot::default());
        let request = PendingRequest {
            session: self.session,
            prompt: prompt.clone(),
            not_before,
            reply: Reply(Some(Arc::clone(&slot))),
        };
        // Stamped before the send: a send blocked on a full queue is
        // part of the ticket's wait. A stopped service hands the request
        // back, and dropping it answers the ticket `ServiceClosed`.
        let submitted = Instant::now();
        if self.chan.send(Msg::Request(request)).is_ok() {
            metrics().queue_depth.inc();
        }
        self.outstanding.insert(ticket.0, OutstandingTicket { slot, submitted });
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
        let Some(outstanding) = self.outstanding.get(&ticket.0) else {
            return Poll::Ready(Err(LlmError::NoResponse(format!(
                "ticket #{} was never issued by this handle",
                ticket.0
            ))));
        };
        let Poll::Ready(delivery) = outstanding.slot.poll(waker) else {
            return Poll::Pending;
        };
        let waited = outstanding.submitted.elapsed();
        self.outstanding.remove(&ticket.0);
        self.stats.tickets += 1;
        self.stats.wait += waited;
        self.stats.max_batch = self.stats.max_batch.max(delivery.batch_size);
        let m = metrics();
        m.tickets.inc();
        m.ticket_wait_us.record(waited.as_micros() as u64);
        if let Ok(completion) = &delivery.result {
            // The per-ticket usage delta: exactly what the backend
            // recorded for this completion, attributed to this handle.
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
}

impl<M: LanguageModel + 'static> Drop for LlmClient<M> {
    fn drop(&mut self) {
        // Best effort: free the session's model on the service thread.
        let _ = self.chan.send(Msg::Close { session: self.session });
    }
}

// ----------------------------------------------------------------------
// SlowLlm: an injected-latency endpoint model
// ----------------------------------------------------------------------

/// The exclusive connection to a simulated remote endpoint: all
/// [`SlowLlm`] wrappers sharing a gate serialize their round trips, the
/// way requests on one API connection do.
pub type EndpointGate = Arc<Mutex<()>>;

/// A fresh exclusive endpoint connection.
pub fn endpoint_gate() -> EndpointGate {
    Arc::new(Mutex::new(()))
}

/// Wraps a backend with a fixed per-round-trip latency on an exclusive
/// connection: `complete` pays one round trip per prompt,
/// `complete_batch` one round trip for the whole batch. This is the
/// workload model under which the batched service's overlap win is
/// benchmarked (the `llm_wait` workload of `benchmark/`).
#[derive(Debug)]
pub struct SlowLlm<M: LanguageModel> {
    inner: M,
    round_trip: Duration,
    gate: EndpointGate,
}

impl<M: LanguageModel> SlowLlm<M> {
    /// Wraps `inner` behind a `round_trip`-latency connection.
    pub fn new(inner: M, round_trip: Duration, gate: EndpointGate) -> Self {
        SlowLlm { inner, round_trip, gate }
    }
}

impl<M: LanguageModel> LanguageModel for SlowLlm<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
        let _connection = self.gate.lock().expect("endpoint gate poisoned");
        std::thread::sleep(self.round_trip);
        self.inner.complete(prompt)
    }

    fn complete_batch(&mut self, prompts: &[RepairPrompt]) -> Vec<Result<Completion, LlmError>> {
        let _connection = self.gate.lock().expect("endpoint gate poisoned");
        std::thread::sleep(self.round_trip);
        self.inner.complete_batch(prompts)
    }

    fn usage(&self) -> Usage {
        self.inner.usage()
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
        let service = BatchedLlm::start(BatchConfig {
            max_batch: 3,
            max_wait: Duration::from_secs(30),
            ..BatchConfig::default()
        });
        let mut client = service.client(scripted(&["one", "two", "three"]));
        let tickets: Vec<Ticket> = (0..3).map(|_| client.submit(&prompt())).collect();
        let contents: Vec<String> =
            tickets.into_iter().map(|t| client.await_completion(t).unwrap().content).collect();
        // The batch fills long before max_wait, answers arrive in
        // submission order, and all three rode one flush.
        assert_eq!(contents, ["one", "two", "three"]);
        assert_eq!(client.wait_stats().max_batch, 3);
        assert!(client.wait_stats().wait < Duration::from_secs(10));
    }

    #[test]
    fn batched_flushes_partial_batch_on_max_wait() {
        let service = BatchedLlm::start(BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(20),
            ..BatchConfig::default()
        });
        let mut client = service.client(scripted(&["lone"]));
        let ticket = client.submit(&prompt());
        assert_eq!(client.await_completion(ticket).unwrap().content, "lone");
        assert_eq!(client.wait_stats().max_batch, 1, "partial flush of one");
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

    /// Records when its backend was asked.
    struct Stamped {
        inner: ScriptedLlm,
        asked: Arc<Mutex<Vec<Instant>>>,
    }

    impl LanguageModel for Stamped {
        fn name(&self) -> &str {
            "stamped"
        }

        fn complete(&mut self, prompt: &RepairPrompt) -> Result<Completion, LlmError> {
            self.asked.lock().unwrap().push(Instant::now());
            self.inner.complete(prompt)
        }

        fn usage(&self) -> Usage {
            self.inner.usage()
        }
    }

    #[test]
    fn a_not_before_request_reaches_the_backend_no_earlier_than_its_instant() {
        let service: BatchedLlm<Box<dyn LanguageModel>> = BatchedLlm::start(BatchConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            ..BatchConfig::default()
        });
        let asked = Arc::new(Mutex::new(Vec::new()));
        let mut late = service
            .client(Box::new(Stamped { inner: scripted(&["late"]), asked: Arc::clone(&asked) }));
        let mut eager = service.client(Box::new(scripted(&["now"])));
        let due = Instant::now() + Duration::from_millis(50);
        let ticket = late.submit_not_before(&prompt(), due);
        // A request submitted after it, due at once, is not held up.
        assert_eq!(eager.complete(&prompt()).unwrap().content, "now");
        assert_eq!(late.await_completion(ticket).unwrap().content, "late");
        let asked = asked.lock().unwrap();
        assert_eq!(asked.len(), 1);
        assert!(asked[0] >= due, "asked {:?} before its due time", due - asked[0]);
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
        let far = Instant::now() + Duration::from_secs(3600);
        let deferred = bystander.submit_not_before(&prompt(), far);
        // The third prompt fills the window; its flush asks the
        // panicking session first, so the bystander's two go unanswered.
        let dead = doomed.submit(&prompt());
        let stranded = [bystander.submit(&prompt()), bystander.submit(&prompt())];
        let closed = |result: Result<Completion, LlmError>| {
            matches!(result, Err(LlmError::ServiceClosed(_)))
        };
        assert!(closed(doomed.await_completion(dead)));
        for ticket in stranded.into_iter().chain([deferred]) {
            assert!(closed(bystander.await_completion(ticket)), "a stranded ticket is answered");
        }
        let late = bystander.submit(&prompt());
        assert!(closed(bystander.await_completion(late)));
        assert!(service.stop().is_empty(), "the service thread died with its sessions");
    }

    #[test]
    fn slow_llm_amortizes_round_trips_across_a_batch() {
        let gate = endpoint_gate();
        let rtt = Duration::from_millis(10);
        let mut slow = SlowLlm::new(scripted(&["a", "b", "c"]), rtt, Arc::clone(&gate));
        let prompts = vec![prompt(), prompt(), prompt()];
        let start = Instant::now();
        let results = slow.complete_batch(&prompts);
        let batched_elapsed = start.elapsed();
        assert!(results.iter().all(Result::is_ok));
        assert!(batched_elapsed < rtt * 3, "one round trip for the batch, not three");

        let mut slow = SlowLlm::new(scripted(&["a", "b", "c"]), rtt, gate);
        let start = Instant::now();
        for p in &prompts {
            slow.complete(p).unwrap();
        }
        assert!(start.elapsed() >= rtt * 3, "per-prompt completion pays per-prompt round trips");
    }
}
