//! Batch flow execution: a fixed worker pool that drains a queue of
//! [`JobSpec`]s through the RTL-to-GDSII flow.
//!
//! A university hub (ROADMAP: Recommendation 7) does not run one flow at a
//! time: course deadlines and shuttle closings produce *batches* — dozens
//! of student designs submitted together, many of them identical
//! resubmissions. This crate supplies the hub's execution layer:
//!
//! - [`JobExecutor`] — runs *one* job to a terminal result: batch gates,
//!   artifact cache, the retry/degrade loop and the per-attempt timeout
//!   thread with panic isolation. It owns the caches and is the only
//!   retry loop in the workspace; the batch fabric's shard workers and
//!   the `chipforge-serve` hub's workers both call it.
//! - [`BatchEngine`] — the batch coordinator: journal resume, admission
//!   control and reporting around a supervised, sharded work-stealing
//!   fabric of OS worker threads (`--shards N`) with supervisor-driven
//!   shard restart, so one broken design — or one dead shard — never
//!   takes down a batch.
//! - [`ArtifactCache`] — content-addressed results keyed by a canonical
//!   hash of everything that affects the artifact (source, node, profile
//!   knobs, clock, seed), so resubmissions are served in microseconds.
//! - [`StageCache`] — the second cache level: per-stage flow snapshots
//!   keyed by the pipeline's chained stage keys, so jobs that share a
//!   front end (a clock or profile sweep over one design) restore the
//!   common prefix instead of recomputing it (`--stage-cache`, E17).
//! - [`ExecutionReport`] — JSON-serializable instrumentation: per-job
//!   queue wait and run time, per-stage wall time, worker utilization,
//!   cache hit rate and batch throughput. [`calibrate`] feeds these
//!   measured times back into the cloud-platform queueing model (E14).
//! - Resilience ([`ResilienceOptions`], built on `chipforge-resil`):
//!   seeded fault injection, an fsynced checkpoint journal with
//!   `--resume`, graceful route/CTS degradation, per-job quarantine,
//!   batch failure budgets and checksum-verified (self-healing) cache
//!   reads.
//!
//! Determinism: job outcomes depend only on `(source, config)` — never on
//! worker count or scheduling order — and batch results are returned in
//! submission order, so reports are reproducible across pool sizes (see
//! `tests/determinism.rs` at the workspace root).

#![forbid(unsafe_code)]

pub mod attempt;
pub mod cache;
pub mod calibrate;
pub mod engine;
mod fabric;
pub mod job;
pub mod metrics;
pub mod remote;
pub mod stage_cache;

pub use attempt::{AttemptLimits, BatchContext, JobExecutor, QueuedJob};
pub use cache::{ArtifactCache, CacheKey, CacheStats, Lookup};
pub use engine::{AdmissionControl, BatchEngine, BatchReport, EngineConfig, ResilienceOptions};
pub use job::{Fault, JobResult, JobSpec, JobStatus, RestoredArtifact};
pub use metrics::{
    canonical_report, AdmissionRecord, BatchTotals, ExecutionReport, JobRecord, RemoteCacheRecord,
    ShardRecord, StageCacheRecord, StageCounter, StageTime, WorkerRecord,
};
pub use remote::{RemoteCache, RemoteCacheConfig, RemoteCounters};
pub use stage_cache::{StageCache, StageCacheMode, StageCounters};
