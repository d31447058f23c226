//! # uvllm-serve
//!
//! The resident campaign service: a dependency-free HTTP/1.1 server
//! (`std::net` only, hand-rolled parsing — see [`http`]) that keeps
//! campaigns resident and leases their shards to workers.
//!
//! * [`store`] — submitted runs split into shards; shards leased under
//!   deadlines with epoch fencing; expired leases reclaimed and
//!   re-granted (*work stealing*). Safe because rows are pure functions
//!   of (instance × method × seeds): a thief re-producing a dead
//!   worker's rows produces the same bytes, and the sink resume
//!   protocol skips what was already flushed.
//! * [`aggregate`] — a rolling, deduplicated view of every run built by
//!   tailing the shard JSONL sinks with
//!   [`SinkTailer`](uvllm_campaign::SinkTailer), torn-line-safe while
//!   workers are mid-append. Nothing tails on a timer: each read folds
//!   the sinks it reports on first.
//! * [`server`] — routing and lifecycle: `POST /jobs`, `POST /lease`,
//!   `POST /heartbeat`, `POST /complete`, `GET /runs/<id>[/rows]`,
//!   `GET /metrics` (the [`uvllm_obs`] snapshot, `uvllm-metrics/v1`),
//!   `POST /shutdown` (drain leases → final aggregation → final
//!   metrics snapshot on disk). An idle server runs one thread, the
//!   accept loop.
//! * [`worker`] — the client loop: lease, evaluate through the normal
//!   [`Campaign`](uvllm_campaign::Campaign) engine, heartbeat (pushing
//!   `rows_done` progress), complete; each lease runs the spec's
//!   default campaign, answering the LLM inline per job; an
//!   `--addr-file` lets workers re-find a server that restarted on a
//!   new port.
//! * [`journal`] / [`recovery`] — crash safety: each submitted spec is
//!   one fsynced, length-prefixed, checksummed record in
//!   `data_dir/journal.jsonl` (torn-tail-tolerant replay), each server
//!   start one `boot` record, and each shard's rows are synced to its
//!   sink before the shard completes. On boot the store rebuilds the
//!   submitted runs, a shard is done exactly when its sink holds a row
//!   for every job it owns, and every epoch carries the new boot
//!   generation (pre-crash workers get the same `409 LeaseLost` as
//!   after work stealing). A deterministic `--crash-after <event>[:N]`
//!   knob aborts the process mid-transition for the chaos harness.
//!
//! The service adds coordination, never meaning: any run served here
//! produces JSONL rows byte-identical to the same configuration run
//! through the CLI — at any worker count, with any number of stolen
//! leases, across any number of server crashes. The e2e suites enforce
//! exactly that (including a kill -9 of the server mid-run).
//!
//! ## Example
//!
//! ```no_run
//! use uvllm_serve::{run_worker, ServeConfig, Server, WorkerOptions};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let addr = server.addr().to_string();
//! // ... submit runs over HTTP, then from any process:
//! let summary = run_worker(&WorkerOptions::new(addr)).unwrap();
//! println!("completed {} shard(s)", summary.completed);
//! server.shutdown();
//! ```

pub mod aggregate;
pub mod http;
pub mod journal;
mod memo;
pub mod recovery;
pub mod server;
pub mod store;
pub mod worker;

pub use aggregate::{Aggregator, RunSummary, RunView};
pub use http::{read_request, respond, Request};
pub use journal::{CrashSpec, FsyncPolicy, Journal, JournalConfig};
pub use recovery::{recover, RecoveryReport};
pub use server::{ServeConfig, Server};
pub use store::{post_json, JobStore, LeaseError, LeaseGrant, LeaseOutcome, RunSpec, ShardStatus};
pub use worker::{run_worker, WorkerOptions, WorkerSummary};
