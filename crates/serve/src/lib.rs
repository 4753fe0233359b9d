//! chipforge-serve: the live multi-tenant enablement hub.
//!
//! Recommendation 7 of the position paper asks for a *centralized,
//! cloud-based* enablement platform that universities share. Until now
//! the repo modelled that platform twice — as a discrete-event
//! simulation (`chipforge-cloud`) and as a one-shot `forge batch` CLI —
//! but never ran it. This crate is the running service:
//!
//! - [`Server`] — a zero-external-dependency HTTP/1.1 daemon on
//!   `std::net::TcpListener` exposing job submit/status/result/cancel
//!   endpoints plus `/metrics` and `/healthz`. One request per
//!   connection, hard caps on request-line/header/body sizes, and every
//!   malformed input answered with a clean 4xx instead of a panic.
//! - [`Hub`] — the scheduling core. Admission and dispatch are one
//!   [`Scheduler`](chipforge_admit::Scheduler) — per-tier token buckets,
//!   bounded queues and weighted fair share with aging — the very
//!   scheduler the DES drives, here on wall seconds rather than virtual
//!   hours, which is what makes the E18 model-vs-reality comparison
//!   meaningful. Jobs execute on one
//!   hub-lifetime [`JobExecutor`](chipforge_exec::JobExecutor) — the
//!   per-job path the batch engine's own workers call — which owns the
//!   hub-wide artifact and stage caches.
//! - [`auth::KeyRegistry`] — per-university API keys mapped to the
//!   three access tiers; the key presented at submit decides which
//!   tier's queue, rate limit and fair-share weight a job is billed to.
//! - Progress streaming — each job runs under its own enabled
//!   [`Tracer`](chipforge_obs::Tracer); the status endpoint reports the
//!   finished flow-stage spans, so a polling client watches a job move
//!   through elaborate → synthesize → … → export while it runs.
//! - Crash recovery — completed jobs are appended to the fsynced
//!   `chipforge-resil` checkpoint journal; a restarted hub reloads it
//!   and re-lists every completed job with no duplicates or losses.
//! - [`loadgen`] — a deterministic trace replayer that submits a
//!   [`HubArrival`](chipforge_cloud::HubArrival) trace against a live
//!   server, closing the loop for experiment E18.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod auth;
pub mod client;
pub mod http;
pub mod hub;
pub mod loadgen;
pub mod server;

pub use api::job_from_json;
pub use auth::{Identity, KeyRegistry};
pub use client::Client;
pub use hub::{Hub, HubConfig, JobState, SubmitOutcome};
pub use loadgen::{replay_trace, ReplayJob, ReplayReport, ReplayTierStats};
pub use server::Server;
