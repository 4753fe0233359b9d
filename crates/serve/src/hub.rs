//! The hub scheduling core: admission, fair-share dispatch, execution
//! and crash recovery — the live counterpart of the DES in
//! `chipforge-cloud`, driving the *same* [`Scheduler`].
//!
//! The scheduler's clock is seconds since hub start, read under the hub
//! lock. [`Hub::submit`] offers each job to its tier's token bucket and
//! bounded queue; a worker thread takes the [`Scheduler::next`] job and
//! hands it to the hub's one long-lived [`JobExecutor`] — the same
//! per-job path (artifact and stage caches, retry loop, per-attempt
//! deadline) the batch engine's pool workers call, with no engine built
//! around it — and charges the measured service seconds back to the
//! tier's fair share. A job's panic is contained inside its attempt;
//! nothing supervises the worker threads themselves. Every job that ends
//! — run to completion, cancelled, or shed from its queue — appends to
//! the `chipforge-resil` journal in exec's own record format
//! ([`JobResult::to_journal`], the one `forge batch --resume` reads);
//! [`Hub::new`] reloads that journal through
//! [`JobResult::from_journal`], so a killed-and-restarted hub re-lists
//! every ended job and never issues one of their ids again.

use crate::auth::Identity;
use chipforge_admit::{Admission, AdmissionPolicy, Dispatch, OverflowPolicy, RateLimit, Scheduler};
use chipforge_cloud::AccessTier;
use chipforge_exec::remote::chain_body;
use chipforge_exec::{
    ArtifactCache, AttemptLimits, BatchContext, CacheKey, CacheStats, JobExecutor, JobResult,
    JobSpec, JobStatus, QueuedJob, RemoteCacheConfig, StageCache, StageCacheMode, StageCacheRecord,
    StageCounters,
};
use chipforge_obs::Tracer;
use chipforge_resil::{Journal, JournalRecord, JournalWriter};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hub tuning knobs. The defaults mirror the bounded fair-share policy
/// E16 found overload-robust: per-tier bounded queues, weighted
/// weights favouring beginners, anti-starvation aging.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Worker threads (the hub's "servers" in DES terms).
    pub workers: usize,
    /// Per-tier waiting-room bound; `None` means unbounded.
    pub queue_capacity: Option<usize>,
    /// What happens when a bounded tier queue overflows.
    pub overflow: OverflowPolicy,
    /// Fair-share weights `[beginner, intermediate, advanced]`.
    pub weights: [f64; 3],
    /// Anti-starvation aging credit per waiting second.
    pub aging_rate: f64,
    /// Optional per-tier token-bucket rate limits (tokens per second).
    pub rate_limits: [Option<RateLimit>; 3],
    /// Per-job wall-clock timeout.
    pub job_timeout: Duration,
    /// Checkpoint journal path; ended jobs (completed, cancelled or
    /// shed) are appended (fsynced) and recovered on restart. `None`
    /// disables persistence.
    pub journal: Option<PathBuf>,
    /// Where the hub keeps stage snapshots: in memory (the default), in
    /// memory with a disk tier (`forge serve --stage-cache <dir>`), or
    /// nowhere (`--no-stage-cache`).
    pub stage_cache: StageCacheMode,
    /// Upstream remote stage cache (`forge serve --remote-cache <url>`):
    /// this hub's stage cache chains to another hub's cache protocol
    /// endpoints, so a fleet of hubs shares one warm tier. Failure-first
    /// like any remote tier — an unreachable upstream degrades to
    /// local-only caching.
    pub remote_cache: Option<String>,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            workers: 2,
            queue_capacity: Some(8),
            overflow: OverflowPolicy::Reject,
            weights: [2.0, 1.5, 1.0],
            aging_rate: 0.25,
            rate_limits: [None, None, None],
            job_timeout: Duration::from_secs(30),
            journal: None,
            stage_cache: StageCacheMode::Memory,
            remote_cache: None,
        }
    }
}

/// Lifecycle of a hub job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting in its tier queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a good artifact.
    Succeeded,
    /// Finished without one (flow error, panic, timeout).
    Failed,
    /// Cancelled while queued, or displaced by shed-oldest overflow.
    Cancelled,
}

impl JobState {
    /// Whether the job will never run (again).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// The state a job lands in when exec ends it with `status`.
    fn ended(status: JobStatus) -> Self {
        match status {
            JobStatus::Succeeded => JobState::Succeeded,
            JobStatus::Cancelled => JobState::Cancelled,
            _ => JobState::Failed,
        }
    }

    /// Wire name, as reported in status JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Succeeded => "succeeded",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// What [`Hub::submit`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted with this job id.
    Accepted(u64),
    /// Turned away by the tier's token-bucket rate limit.
    RateLimited,
    /// Turned away because the tier queue is full (reject overflow).
    QueueFull,
}

/// One job's hub-side entry.
#[derive(Debug)]
struct JobEntry {
    name: String,
    university: String,
    tier: AccessTier,
    state: JobState,
    /// Present while the job still has to run, with its cache key.
    spec: Option<(JobSpec, CacheKey)>,
    tracer: Tracer,
    submitted_ms: f64,
    started_ms: Option<f64>,
    finished_ms: Option<f64>,
    cache_hit: bool,
    /// The terminal result as exec journals it ([`JobResult::to_journal`]):
    /// digests, never the flow outcome. `None` while the job waits or
    /// runs.
    record: Option<JournalRecord>,
    /// Restored from the journal at startup rather than run live.
    recovered: bool,
}

struct HubState {
    jobs: BTreeMap<u64, JobEntry>,
    /// Job ids by tier, on seconds since hub start.
    scheduler: Scheduler<u64>,
    journal: Option<JournalWriter>,
    next_id: u64,
    next_seq: u64,
}

impl HubState {
    /// Ends job `id` with exec's `result` for it: sets the terminal
    /// state, finish time and record, and journals the record.
    fn end(&mut self, id: u64, key: CacheKey, result: &JobResult, now_ms: f64) {
        let entry = self.jobs.get_mut(&id).expect("an ending job has an entry");
        let mut record = result.to_journal(self.next_seq, key);
        record.name = encode_job_name(entry);
        if let Some(journal) = &mut self.journal {
            if journal.append(&record).is_ok() {
                self.next_seq += 1;
            }
        }
        entry.state = JobState::ended(result.status);
        entry.finished_ms = Some(now_ms);
        entry.cache_hit = result.cache_hit;
        entry.record = Some(record);
    }

    /// Ends job `id`, which the scheduler no longer holds, before it
    /// ran (cancelled, or shed from its queue), with `reason` as its
    /// error.
    fn withdraw(&mut self, id: u64, now_ms: f64, reason: &str) {
        let entry = self.jobs.get_mut(&id).expect("a queued id has an entry");
        let (spec, key) = entry.spec.take().expect("a queued job keeps its spec");
        let result = JobResult {
            error: Some(reason.into()),
            ..JobResult::blank(id as usize, &spec.name)
        };
        self.end(id, key, &result, now_ms);
    }
}

/// Request counters for the `/cache/stage/<key>` and `/cache/chain/<key>,…`
/// protocol endpoints.
#[derive(Debug, Default, Clone, Copy, Serialize)]
struct CacheProtocol {
    gets: u64,
    get_hits: u64,
    puts: u64,
    put_rejects: u64,
    chains: u64,
    chain_keys: u64,
    chain_hits: u64,
}

struct HubInner {
    config: HubConfig,
    started: Instant,
    state: Mutex<HubState>,
    work_ready: Condvar,
    /// Runs every job; owns the hub-wide artifact and stage caches.
    executor: JobExecutor,
    cache_protocol: Mutex<CacheProtocol>,
    shutdown: AtomicBool,
}

/// The live multi-tenant hub: shared state plus a worker pool.
pub struct Hub {
    inner: Arc<HubInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Hub {
    /// Builds the hub, recovers any journal, and starts the worker
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns a message when the journal cannot be read or opened.
    pub fn new(config: HubConfig) -> Result<Self, String> {
        let policy = AdmissionPolicy {
            queue_capacity: config.queue_capacity,
            overflow: config.overflow,
            rate_limits: config.rate_limits.to_vec(),
            weights: config.weights.to_vec(),
            aging_rate: config.aging_rate,
        };
        let mut state = HubState {
            jobs: BTreeMap::new(),
            scheduler: Scheduler::new(policy, Dispatch::FairShare),
            journal: None,
            next_id: 0,
            next_seq: 0,
        };
        if let Some(path) = &config.journal {
            if path.exists() {
                let journal = Journal::load(path)
                    .map_err(|e| format!("read journal `{}`: {e}", path.display()))?;
                recover(&mut state, &journal);
            }
            state.journal = Some(
                JournalWriter::open_append(path)
                    .map_err(|e| format!("open journal `{}`: {e}", path.display()))?,
            );
        }
        let remote = config.remote_cache.clone().map(RemoteCacheConfig::new);
        let stage_cache = StageCache::from_mode(&config.stage_cache, remote.as_ref());
        let limits = AttemptLimits {
            timeout: config.job_timeout,
            max_retries: 1,
            ..AttemptLimits::default()
        };
        let inner = Arc::new(HubInner {
            started: Instant::now(),
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            executor: JobExecutor::new(limits, Arc::new(ArtifactCache::new(256)), stage_cache),
            cache_protocol: Mutex::default(),
            shutdown: AtomicBool::new(false),
            config,
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|worker| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, worker))
            })
            .collect();
        Ok(Hub {
            inner,
            workers: Mutex::new(workers),
        })
    }

    /// Seconds since hub start — the clock the scheduler sees.
    fn now_s(&self) -> f64 {
        self.inner.started.elapsed().as_secs_f64()
    }

    /// The cache protocol counters.
    fn protocol(&self) -> std::sync::MutexGuard<'_, CacheProtocol> {
        self.inner.cache_protocol.lock().expect("protocol counters")
    }

    /// How many jobs were rebuilt from the journal at startup.
    ///
    /// # Panics
    ///
    /// Panics on a poisoned hub lock (a prior worker panic).
    #[must_use]
    pub fn recovered_jobs(&self) -> usize {
        let state = self.inner.state.lock().expect("hub lock");
        state.jobs.values().filter(|j| j.recovered).count()
    }

    /// Whether the stage-cache protocol endpoints are live.
    #[must_use]
    pub fn cache_enabled(&self) -> bool {
        self.inner.executor.stage_cache().is_some()
    }

    /// Serves `GET /cache/stage/<key>`: the checksum-framed snapshot
    /// body, or `None` on a miss. The body is the frame the hub holds —
    /// as a `PUT` or a disk file brought it in, or as encoded once on the
    /// first request for an entry its own workers computed — so serving
    /// it costs a copy, not a codec pass. Counter-free on the engine side
    /// ([`StageCache::peek`]) so protocol traffic never skews the
    /// hub's own hit-rate metrics.
    #[must_use]
    pub fn cache_get(&self, key: u128) -> Option<String> {
        let stage_cache = self.inner.executor.stage_cache()?;
        let frame = stage_cache.peek(key);
        let mut protocol = self.protocol();
        protocol.gets += 1;
        protocol.get_hits += u64::from(frame.is_some());
        drop(protocol);
        Some(String::from(&*frame?))
    }

    /// Serves `GET /cache/chain/<key>,…`: one body with the frame of
    /// every listed key the hub holds ([`chipforge_exec::remote::chain_body`]),
    /// in the order asked. Keys it lacks are left out; `None` only when
    /// the hub has no stage cache.
    #[must_use]
    pub fn cache_chain(&self, keys: &[u128]) -> Option<String> {
        let stage_cache = self.inner.executor.stage_cache()?;
        let held: Vec<(u128, Arc<str>)> = keys
            .iter()
            .filter_map(|&key| Some((key, stage_cache.peek(key)?)))
            .collect();
        let mut protocol = self.protocol();
        protocol.chains += 1;
        protocol.chain_keys += keys.len() as u64;
        protocol.chain_hits += held.len() as u64;
        drop(protocol);
        Some(chain_body(held.iter().map(|(key, frame)| (*key, &**frame))))
    }

    /// Serves `PUT /cache/stage/<key>`: verifies the checksum frame and
    /// that it parses as a snapshot, then keeps the frame as received in
    /// the hub's local tiers only (never re-published upstream, so
    /// chained hubs cannot loop).
    ///
    /// # Errors
    ///
    /// Returns a message when the frame digest or payload is invalid;
    /// the entry is rejected without touching the cache.
    pub fn cache_put(&self, key: u128, body: &str) -> Result<(), String> {
        let Some(stage_cache) = self.inner.executor.stage_cache() else {
            return Err("stage cache disabled".into());
        };
        let stored = stage_cache.insert_frame(key, body);
        let mut protocol = self.protocol();
        protocol.puts += 1;
        protocol.put_rejects += u64::from(stored.is_err());
        drop(protocol);
        stored
    }

    /// Offers one job on behalf of `who` to the scheduler: the tier's
    /// token bucket first, then its bounded queue.
    pub fn submit(&self, who: &Identity, spec: JobSpec) -> SubmitOutcome {
        let now = self.now_s();
        let tier = who.tier;
        let spec = spec.with_tier(tier);
        let key = CacheKey::of(&spec);
        let mut state = self.inner.state.lock().expect("hub lock");
        let id = state.next_id;
        let displaced = match state.scheduler.offer(tier.priority() as usize, id, now) {
            Admission::Admitted => None,
            Admission::RateLimited(_) => return SubmitOutcome::RateLimited,
            Admission::Rejected(_) => return SubmitOutcome::QueueFull,
            Admission::Shed(displaced) => Some(displaced),
        };
        state.next_id += 1;
        let entry = JobEntry {
            name: spec.name.clone(),
            university: who.university.clone(),
            tier,
            state: JobState::Queued,
            spec: Some((spec, key)),
            tracer: Tracer::new(),
            submitted_ms: now * 1e3,
            started_ms: None,
            finished_ms: None,
            cache_hit: false,
            record: None,
            recovered: false,
        };
        state.jobs.insert(id, entry);
        // With capacity zero the newcomer itself is the shed entry;
        // either way the displaced job lands terminal.
        if let Some(old) = displaced {
            state.withdraw(old, now * 1e3, "shed: displaced by a newer arrival");
        }
        drop(state);
        self.inner.work_ready.notify_all();
        SubmitOutcome::Accepted(id)
    }

    /// Cancels a queued job and frees its place in the tier queue.
    /// Running or finished jobs are not interrupted (`false`); unknown
    /// ids or other tenants' jobs are also `false`.
    pub fn cancel(&self, who: &Identity, id: u64) -> bool {
        let now_ms = self.now_s() * 1e3;
        let mut state = self.inner.state.lock().expect("hub lock");
        let Some(entry) = state.jobs.get(&id) else {
            return false;
        };
        if entry.university != who.university || entry.state != JobState::Queued {
            return false;
        }
        let class = entry.tier.priority() as usize;
        state.scheduler.withdraw(class, |&queued| queued == id);
        state.withdraw(id, now_ms, "cancelled by owner");
        true
    }

    /// Status JSON for one of `who`'s jobs, or `None` (also for other
    /// tenants' jobs, indistinguishable from unknown ids).
    #[must_use]
    pub fn job_status(&self, who: &Identity, id: u64) -> Option<Value> {
        let state = self.inner.state.lock().expect("hub lock");
        let entry = state.jobs.get(&id)?;
        if entry.university != who.university {
            return None;
        }
        Some(job_json(id, entry, true))
    }

    /// List JSON of all of `who`'s jobs (ascending id order).
    #[must_use]
    pub fn list_jobs(&self, who: &Identity) -> Value {
        let state = self.inner.state.lock().expect("hub lock");
        let jobs = state
            .jobs
            .iter()
            .filter(|(_, e)| e.university == who.university)
            .map(|(id, e)| job_json(*id, e, false))
            .collect();
        JobList { jobs }.to_value()
    }

    /// The live `/metrics` snapshot: job-state counters, per-tier
    /// admission gauges (queue depth, peak depth, rejected, shed) and
    /// the shared stage/artifact cache counters.
    #[must_use]
    pub fn metrics(&self) -> Value {
        let state = self.inner.state.lock().expect("hub lock");
        let mut jobs = JobCounts::default();
        // Jobs this process's workers ran to a terminal state, and how
        // many of those ended without an artifact.
        let mut exec = ExecCounts::default();
        for entry in state.jobs.values() {
            *match entry.state {
                JobState::Queued => &mut jobs.queued,
                JobState::Running => &mut jobs.running,
                JobState::Succeeded => &mut jobs.succeeded,
                JobState::Failed => &mut jobs.failed,
                JobState::Cancelled => &mut jobs.cancelled,
            } += 1;
            jobs.recovered += u64::from(entry.recovered);
            if !entry.recovered && matches!(entry.state, JobState::Succeeded | JobState::Failed) {
                exec.jobs_run += 1;
                exec.failed += u64::from(entry.state == JobState::Failed);
            }
        }
        jobs.completed = jobs.succeeded + jobs.failed;
        let tiers = [0, 1, 2].map(|class| state.scheduler.stats(class));
        let metrics = Metrics {
            uptime_ms: self.now_s() * 1e3,
            jobs,
            admission: AdmissionGauges {
                queue_depth: [0, 1, 2].map(|class| state.scheduler.depth(class)),
                peak_depth: tiers.map(|stats| stats.peak_depth),
                rejected: tiers.map(|stats| stats.rejected),
                shed: tiers.map(|stats| stats.shed),
            },
            artifact_cache: self.inner.executor.cache().stats(),
            // Lifetime totals: the delta from a default (zero) baseline.
            stage_cache: self
                .inner
                .executor
                .stage_cache()
                .map(|cache| cache.record(&StageCounters::default(), 0, 0)),
            exec,
            cache_protocol: *self.protocol(),
        };
        drop(state);
        metrics.to_value()
    }

    /// Stops accepting work, drains running jobs and joins the workers.
    /// Queued jobs are *not* run — exactly what a crash would lose; the
    /// journal holds every ended job either way. Idempotent.
    pub fn shutdown(&self) {
        {
            // Set the flag under the state lock: a worker checks it and
            // starts waiting without releasing that lock in between, so
            // the notify below cannot fall into the gap and be lost.
            // (A poisoned lock still excludes; this runs from `Drop`.)
            let _state = self.inner.state.lock();
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.work_ready.notify_all();
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .expect("worker handles")
            .drain(..)
            .collect();
        for worker in handles {
            let _ = worker.join();
        }
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Rebuilds terminal job entries from a recovered journal through
/// exec's [`JobResult::from_journal`]; a record it cannot read (a status
/// from a newer binary) lists as failed. The latest record per id wins
/// (matching [`Journal::find`] semantics); ids continue above the highest
/// recovered one, so a restart never reuses the id of a job that ended,
/// cancelled and shed ones included. A job still queued or running at a
/// crash was never journaled: it is not re-listed, and its id may be
/// issued again.
fn recover(state: &mut HubState, journal: &Journal) {
    for record in &journal.records {
        let id = record.index as u64;
        let (university, tier, name) = decode_job_name(&record.name);
        let ended = JobResult::from_journal(record).map(|result| result.status);
        let entry = JobEntry {
            name,
            university,
            tier,
            state: ended.map_or(JobState::Failed, JobState::ended),
            spec: None,
            tracer: Tracer::disabled(),
            submitted_ms: 0.0,
            started_ms: None,
            finished_ms: Some(0.0),
            cache_hit: false,
            record: Some(record.clone()),
            recovered: true,
        };
        state.jobs.insert(id, entry);
        state.next_id = state.next_id.max(id + 1);
        state.next_seq = state.next_seq.max(record.seq + 1);
    }
}

/// Journal `name` field layout: `university/tier/job-name`. The first
/// two segments never contain `/` (tier names are fixed; university
/// names are caller-controlled identifiers), the job name may.
fn encode_job_name(entry: &JobEntry) -> String {
    format!("{}/{}/{}", entry.university, entry.tier, entry.name)
}

fn decode_job_name(encoded: &str) -> (String, AccessTier, String) {
    let mut parts = encoded.splitn(3, '/');
    let university = parts.next().unwrap_or("unknown").to_string();
    let tier = parts
        .next()
        .and_then(crate::auth::parse_tier)
        .unwrap_or(AccessTier::Beginner);
    let name = parts.next().unwrap_or("unknown").to_string();
    (university, tier, name)
}

/// The fields every job body has, in wire order.
#[derive(Serialize)]
struct JobView {
    id: u64,
    name: String,
    university: String,
    tier: String,
    state: &'static str,
    submitted_ms: f64,
    started_ms: Option<f64>,
    finished_ms: Option<f64>,
    attempts: u32,
    cache_hit: bool,
    degraded: bool,
    recovered: bool,
    error: Option<String>,
}

/// One finished flow stage in a status body.
#[derive(Serialize)]
struct StageView {
    stage: String,
    wall_ms: f64,
}

/// The list body.
#[derive(Serialize)]
struct JobList {
    jobs: Vec<Value>,
}

/// The `/metrics` body.
#[derive(Serialize)]
struct Metrics {
    uptime_ms: f64,
    jobs: JobCounts,
    admission: AdmissionGauges,
    artifact_cache: CacheStats,
    stage_cache: Option<StageCacheRecord>,
    exec: ExecCounts,
    cache_protocol: CacheProtocol,
}

/// Jobs per state.
#[derive(Default, Serialize)]
struct JobCounts {
    queued: u64,
    running: u64,
    succeeded: u64,
    failed: u64,
    cancelled: u64,
    completed: u64,
    recovered: u64,
}

/// The scheduler's per-tier gauges, beginner first.
#[derive(Serialize)]
struct AdmissionGauges {
    queue_depth: [usize; 3],
    peak_depth: [usize; 3],
    rejected: [usize; 3],
    shed: [usize; 3],
}

/// Jobs this process's workers ran, and how many ended without an
/// artifact.
#[derive(Default, Serialize)]
struct ExecCounts {
    jobs_run: u64,
    failed: u64,
}

/// One job's JSON view: the [`JobView`] fields, then — with
/// `with_progress` — the finished flow-stage spans the job's tracer
/// recorded (the "streaming" a polling client sees while the job runs),
/// then the artifact digests once it has them.
fn job_json(id: u64, entry: &JobEntry, with_progress: bool) -> Value {
    let record = entry.record.as_ref();
    let view = JobView {
        id,
        name: entry.name.clone(),
        university: entry.university.clone(),
        tier: entry.tier.to_string(),
        state: entry.state.name(),
        submitted_ms: entry.submitted_ms,
        started_ms: entry.started_ms,
        finished_ms: entry.finished_ms,
        attempts: record.map_or(0, |r| r.attempts),
        cache_hit: entry.cache_hit,
        degraded: record.is_some_and(|r| r.degraded),
        recovered: entry.recovered,
        error: record.and_then(|r| r.error.clone()),
    };
    let Value::Map(mut fields) = view.to_value() else {
        unreachable!("a struct serializes to a map");
    };
    let mut push = |key: &str, value: Value| fields.push((Value::Str(key.into()), value));
    if with_progress {
        let stages: Vec<StageView> = entry
            .tracer
            .spans()
            .into_iter()
            .filter(|span| span.category == "flow" && span.name != "flow")
            .map(|span| StageView {
                stage: span.name,
                wall_ms: span.dur_us / 1e3,
            })
            .collect();
        push("stages", stages.to_value());
    }
    if let Some(ppa) = record.and_then(|r| r.ppa.as_ref()) {
        push("ppa", ppa.to_value());
    }
    if let Some(fnv) = record.and_then(|r| r.gds_fnv) {
        push("gds_fnv", fnv.to_value());
    }
    Value::Map(fields)
}

/// The worker loop: the scheduler's next job under the lock, flow
/// execution outside it, result + journal + usage charge back under the
/// lock.
fn worker_loop(inner: &Arc<HubInner>, worker: usize) {
    loop {
        let (id, class, spec, key, tracer) = {
            let mut state = inner.state.lock().expect("hub lock");
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let now = inner.started.elapsed().as_secs_f64();
                if let Some((class, id, _)) = state.scheduler.next(now) {
                    // Cancelled and shed jobs have left the queue, so
                    // every id it hands out is a queued job's.
                    let entry = state.jobs.get_mut(&id).expect("a queued id has an entry");
                    entry.state = JobState::Running;
                    entry.started_ms = Some(now * 1e3);
                    let (spec, key) = entry.spec.take().expect("queued job keeps its spec");
                    break (id, class, spec, key, entry.tracer.clone());
                }
                state = inner.work_ready.wait(state).expect("hub lock");
            }
        };

        let run_started = Instant::now();
        let job = QueuedJob {
            index: id as usize,
            key,
            // A spec's `deadline_ms` budget runs from worker pickup.
            deadline: spec
                .deadline_ms
                .map(|ms| run_started + Duration::from_millis(ms)),
            spec,
            enqueued: run_started,
        };
        let result = inner
            .executor
            .run(worker, &job, &BatchContext::default(), &tracer);
        let service_s = run_started.elapsed().as_secs_f64();

        let mut state = inner.state.lock().expect("hub lock");
        state.scheduler.charge(class, service_s);
        let now_ms = inner.started.elapsed().as_secs_f64() * 1e3;
        state.end(id, job.key, &result, now_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(tier: AccessTier) -> Identity {
        Identity {
            university: "test-uni".into(),
            tier,
        }
    }

    fn quick_job(seed: u64) -> JobSpec {
        let design = chipforge_hdl::designs::counter(8);
        JobSpec::new(
            design.name(),
            design.source(),
            chipforge_pdk::TechnologyNode::N130,
            chipforge_flow::OptimizationProfile::quick(),
        )
        .with_seed(seed)
    }

    fn wait_terminal(hub: &Hub, who: &Identity, id: u64) -> Value {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let status = hub.job_status(who, id).expect("job exists");
            let state = status.get("state").as_str().expect("state").to_string();
            if state != "queued" && state != "running" {
                return status;
            }
            assert!(Instant::now() < deadline, "job {id} stuck in `{state}`");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn submit_run_and_report_ppa() {
        let hub = Hub::new(HubConfig::default()).expect("hub");
        let who = identity(AccessTier::Beginner);
        let SubmitOutcome::Accepted(id) = hub.submit(&who, quick_job(1)) else {
            panic!("accepted");
        };
        let status = wait_terminal(&hub, &who, id);
        assert_eq!(status.get("state").as_str(), Some("succeeded"));
        assert!(status.get("ppa").get("cells").as_u64().is_some());
        assert!(status.get("gds_fnv").as_u64().is_some());
        let stages: Vec<&str> = status
            .get("stages")
            .seq()
            .expect("stages")
            .iter()
            .filter_map(|s| s.get("stage").as_str())
            .collect();
        assert!(stages.contains(&"synthesize"), "stages: {stages:?}");
        hub.shutdown();
    }

    #[test]
    fn tenants_cannot_see_each_other() {
        let hub = Hub::new(HubConfig::default()).expect("hub");
        let alice = identity(AccessTier::Beginner);
        let bob = Identity {
            university: "other-uni".into(),
            tier: AccessTier::Advanced,
        };
        let SubmitOutcome::Accepted(id) = hub.submit(&alice, quick_job(2)) else {
            panic!("accepted");
        };
        assert!(hub.job_status(&bob, id).is_none());
        assert!(!hub.cancel(&bob, id));
        let listed = bob.university.clone();
        let bobs = hub.list_jobs(&bob);
        assert_eq!(bobs.get("jobs").seq().expect("list").len(), 0, "{listed}");
        hub.shutdown();
    }

    #[test]
    fn queue_full_rejects_and_counts() {
        // Zero-capacity queues with a single stalled worker: the
        // engine is busy, so later submissions find the queue full.
        let hub = Hub::new(HubConfig {
            workers: 1,
            queue_capacity: Some(0),
            ..HubConfig::default()
        })
        .expect("hub");
        let who = identity(AccessTier::Beginner);
        // Capacity 0 rejects everything that cannot start immediately;
        // there is a race with the worker picking up the first job, so
        // only the *count* is asserted.
        let mut accepted = 0;
        let mut rejected = 0;
        for seed in 0..6 {
            match hub.submit(&who, quick_job(seed)) {
                SubmitOutcome::Accepted(_) => accepted += 1,
                SubmitOutcome::QueueFull => rejected += 1,
                SubmitOutcome::RateLimited => panic!("no rate limit configured"),
            }
        }
        assert_eq!(accepted + rejected, 6);
        assert!(rejected > 0, "zero-capacity queue must reject");
        let metrics = hub.metrics();
        let rejected_gauge: u64 = metrics
            .get("admission")
            .get("rejected")
            .seq()
            .expect("rejected")
            .iter()
            .filter_map(Value::as_u64)
            .sum();
        assert_eq!(rejected_gauge, rejected);
        hub.shutdown();
    }

    #[test]
    fn rate_limited_and_queue_full_both_count_as_rejected() {
        // One worker held by a hanging job, room for one queued job, and
        // a beginner bucket of three tokens that does not refill within
        // the test.
        let hub = Hub::new(HubConfig {
            workers: 1,
            queue_capacity: Some(1),
            rate_limits: [
                Some(RateLimit {
                    rate: 1e-6,
                    burst: 3.0,
                }),
                None,
                None,
            ],
            ..HubConfig::default()
        })
        .expect("hub");
        let who = identity(AccessTier::Beginner);
        let hang = quick_job(1).with_fault(chipforge_exec::Fault::Hang(1_000));
        let SubmitOutcome::Accepted(first) = hub.submit(&who, hang) else {
            panic!("accepted");
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let status = hub.job_status(&who, first).expect("job exists");
            match status.get("state").as_str() {
                Some("queued") => assert!(Instant::now() < deadline, "worker never started"),
                Some("running") => break,
                other => panic!("the hang ended before the queue filled: {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(
            hub.submit(&who, quick_job(2)),
            SubmitOutcome::Accepted(_)
        ));
        assert_eq!(hub.submit(&who, quick_job(3)), SubmitOutcome::QueueFull);
        assert_eq!(hub.submit(&who, quick_job(4)), SubmitOutcome::RateLimited);
        let admission = hub.metrics().get("admission").clone();
        let per_tier = |gauge: &str| -> Vec<u64> {
            let values = admission.get(gauge).seq().expect("per-tier gauge");
            values.iter().filter_map(Value::as_u64).collect()
        };
        assert_eq!(per_tier("rejected"), [2, 0, 0], "queue-full + rate-limited");
        assert_eq!(per_tier("queue_depth"), [1, 0, 0]);
        assert_eq!(per_tier("peak_depth"), [1, 0, 0]);
        assert_eq!(per_tier("shed"), [0, 0, 0]);
        hub.shutdown();
    }

    #[test]
    fn journal_recovery_relists_completed_jobs() {
        let journal = std::env::temp_dir().join(format!(
            "chipforge-serve-hub-recovery-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&journal).ok();
        let config = HubConfig {
            journal: Some(journal.clone()),
            ..HubConfig::default()
        };
        let who = identity(AccessTier::Intermediate);
        let hub = Hub::new(config.clone()).expect("hub");
        let mut ids = Vec::new();
        for seed in 0..3 {
            let SubmitOutcome::Accepted(id) = hub.submit(&who, quick_job(seed)) else {
                panic!("accepted");
            };
            ids.push(id);
        }
        for id in &ids {
            wait_terminal(&hub, &who, *id);
        }
        hub.shutdown();

        // Restart on the same journal: all completed jobs re-listed,
        // none duplicated, ids continue above the recovered range.
        let hub = Hub::new(config).expect("hub restarts");
        let listed = hub.list_jobs(&who);
        let jobs = listed.get("jobs").seq().expect("jobs").to_vec();
        assert_eq!(jobs.len(), 3, "recovered exactly the completed jobs");
        for job in &jobs {
            assert_eq!(job.get("state").as_str(), Some("succeeded"));
            assert_eq!(job.get("recovered"), &Value::Bool(true));
        }
        let SubmitOutcome::Accepted(new_id) = hub.submit(&who, quick_job(9)) else {
            panic!("accepted");
        };
        assert!(
            ids.iter().all(|id| *id != new_id),
            "fresh ids never collide with recovered ones"
        );
        wait_terminal(&hub, &who, new_id);
        hub.shutdown();
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn a_restart_never_reissues_a_cancelled_id() {
        let journal = std::env::temp_dir().join(format!(
            "chipforge-serve-hub-cancel-restart-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&journal).ok();
        let config = HubConfig {
            workers: 1,
            journal: Some(journal.clone()),
            ..HubConfig::default()
        };
        let who = identity(AccessTier::Beginner);
        let hub = Hub::new(config.clone()).expect("hub");
        let hang = quick_job(1).with_fault(chipforge_exec::Fault::Hang(300));
        let SubmitOutcome::Accepted(first) = hub.submit(&who, hang) else {
            panic!("accepted");
        };
        wait_running(&hub, &who, first);
        let SubmitOutcome::Accepted(cancelled) = hub.submit(&who, quick_job(2)) else {
            panic!("accepted");
        };
        assert!(hub.cancel(&who, cancelled));
        hub.shutdown();

        let hub = Hub::new(config).expect("hub restarts");
        let SubmitOutcome::Accepted(fresh) = hub.submit(&who, quick_job(3)) else {
            panic!("accepted");
        };
        assert_ne!(
            fresh, cancelled,
            "a cancelled job's id is never issued again"
        );
        let status = hub
            .job_status(&who, cancelled)
            .expect("the cancel is re-listed");
        assert_eq!(status.get("state").as_str(), Some("cancelled"));
        assert_eq!(status.get("error").as_str(), Some("cancelled by owner"));
        assert_eq!(status.get("recovered"), &Value::Bool(true));
        wait_terminal(&hub, &who, fresh);
        hub.shutdown();
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn cancel_only_hits_queued_jobs() {
        let hub = Hub::new(HubConfig {
            workers: 1,
            ..HubConfig::default()
        })
        .expect("hub");
        let who = identity(AccessTier::Beginner);
        // Stall the worker with a slow job, then queue another.
        let SubmitOutcome::Accepted(first) = hub.submit(
            &who,
            quick_job(1).with_fault(chipforge_exec::Fault::Hang(300)),
        ) else {
            panic!("accepted");
        };
        let SubmitOutcome::Accepted(second) = hub.submit(&who, quick_job(2)) else {
            panic!("accepted");
        };
        assert!(hub.cancel(&who, second), "queued job cancels");
        assert!(!hub.cancel(&who, second), "second cancel is a no-op");
        let status = wait_terminal(&hub, &who, second);
        assert_eq!(status.get("state").as_str(), Some("cancelled"));
        wait_terminal(&hub, &who, first);
        assert!(!hub.cancel(&who, first), "finished job cannot cancel");
        hub.shutdown();
    }

    fn wait_running(hub: &Hub, who: &Identity, id: u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let status = hub.job_status(who, id).expect("job exists");
            match status.get("state").as_str() {
                Some("queued") => assert!(Instant::now() < deadline, "worker never started"),
                Some("running") => return,
                other => panic!("job {id} ended before the test could use it: {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The keys of a JSON map, in order.
    fn keys(value: &Value) -> Vec<&str> {
        match value {
            Value::Map(pairs) => pairs.iter().filter_map(|(key, _)| key.as_str()).collect(),
            other => panic!("not a map: {other:?}"),
        }
    }

    #[test]
    fn a_cancelled_job_gives_back_its_queue_slot() {
        let hub = Hub::new(HubConfig {
            workers: 1,
            queue_capacity: Some(1),
            ..HubConfig::default()
        })
        .expect("hub");
        let who = identity(AccessTier::Beginner);
        let hang = quick_job(1).with_fault(chipforge_exec::Fault::Hang(1_000));
        let SubmitOutcome::Accepted(first) = hub.submit(&who, hang) else {
            panic!("accepted");
        };
        wait_running(&hub, &who, first);
        let SubmitOutcome::Accepted(queued) = hub.submit(&who, quick_job(2)) else {
            panic!("accepted");
        };
        assert!(hub.cancel(&who, queued));
        let depth = hub.metrics().get("admission").get("queue_depth").clone();
        let depth: Vec<u64> = depth
            .seq()
            .expect("per tier")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(depth, [0, 0, 0], "a cancelled job waits in no queue");
        assert!(
            matches!(hub.submit(&who, quick_job(3)), SubmitOutcome::Accepted(_)),
            "the cancelled job's slot takes the next submission"
        );
        hub.shutdown();
    }

    /// Status, list, `/metrics` and journal bodies keep their keys, in
    /// order, for a queued, cancelled, succeeded and recovered job.
    #[test]
    fn wire_shapes_are_pinned_across_a_restart() {
        const STATUS: [&str; 13] = [
            "id",
            "name",
            "university",
            "tier",
            "state",
            "submitted_ms",
            "started_ms",
            "finished_ms",
            "attempts",
            "cache_hit",
            "degraded",
            "recovered",
            "error",
        ];
        let status_keys = |extra: &[&'static str]| -> Vec<&'static str> {
            STATUS.iter().chain(extra).copied().collect()
        };
        let journal = std::env::temp_dir().join(format!(
            "chipforge-serve-hub-wire-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&journal).ok();
        let config = HubConfig {
            workers: 1,
            journal: Some(journal.clone()),
            ..HubConfig::default()
        };
        let who = identity(AccessTier::Beginner);
        let hub = Hub::new(config.clone()).expect("hub");
        let hang = quick_job(1).with_fault(chipforge_exec::Fault::Hang(1_000));
        let SubmitOutcome::Accepted(first) = hub.submit(&who, hang) else {
            panic!("accepted");
        };
        wait_running(&hub, &who, first);
        let SubmitOutcome::Accepted(queued) = hub.submit(&who, quick_job(2)) else {
            panic!("accepted");
        };
        let SubmitOutcome::Accepted(cancelled) = hub.submit(&who, quick_job(3)) else {
            panic!("accepted");
        };
        assert!(hub.cancel(&who, cancelled));

        let status = hub.job_status(&who, queued).expect("queued job");
        assert_eq!(status.get("state").as_str(), Some("queued"));
        assert_eq!(keys(&status), status_keys(&["stages"]));
        assert_eq!(status.get("attempts").as_u64(), Some(0));
        assert_eq!(status.get("error"), &Value::Null);
        let status = hub.job_status(&who, cancelled).expect("cancelled job");
        assert_eq!(status.get("state").as_str(), Some("cancelled"));
        assert_eq!(status.get("error").as_str(), Some("cancelled by owner"));
        assert_eq!(keys(&status), status_keys(&["stages"]));

        let metrics = hub.metrics();
        assert_eq!(
            keys(&metrics),
            [
                "uptime_ms",
                "jobs",
                "admission",
                "artifact_cache",
                "stage_cache",
                "exec",
                "cache_protocol"
            ]
        );
        assert_eq!(
            keys(metrics.get("jobs")),
            [
                "queued",
                "running",
                "succeeded",
                "failed",
                "cancelled",
                "completed",
                "recovered"
            ]
        );
        assert_eq!(
            keys(metrics.get("admission")),
            ["queue_depth", "peak_depth", "rejected", "shed"]
        );
        assert_eq!(
            keys(metrics.get("artifact_cache")),
            ["hits", "misses", "evictions", "entries"]
        );
        assert_eq!(
            keys(metrics.get("stage_cache")),
            [
                "hits",
                "misses",
                "full_restores",
                "recomputes",
                "disk_write_errors",
                "stages"
            ]
        );
        assert_eq!(keys(metrics.get("exec")), ["jobs_run", "failed"]);
        assert_eq!(
            keys(metrics.get("cache_protocol")),
            [
                "gets",
                "get_hits",
                "puts",
                "put_rejects",
                "chains",
                "chain_keys",
                "chain_hits"
            ]
        );

        let status = wait_terminal(&hub, &who, first);
        assert_eq!(status.get("state").as_str(), Some("succeeded"));
        assert_eq!(keys(&status), status_keys(&["stages", "ppa", "gds_fnv"]));
        wait_terminal(&hub, &who, queued);
        let listed = hub.list_jobs(&who);
        assert_eq!(keys(&listed), ["jobs"]);
        let listed: Vec<Vec<&str>> = listed
            .get("jobs")
            .seq()
            .expect("jobs")
            .iter()
            .map(keys)
            .collect();
        let finished = status_keys(&["ppa", "gds_fnv"]);
        assert_eq!(listed, [finished.clone(), finished, status_keys(&[])]);
        hub.shutdown();

        let text = std::fs::read_to_string(&journal).expect("journal");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "the two jobs that ran and the cancel");
        for line in lines {
            let payload = chipforge_resil::verify_checksummed(line).expect("framed line");
            let line = serde::json::parse(payload).expect("json line");
            assert_eq!(
                keys(&line),
                [
                    "seq", "index", "key", "name", "status", "attempts", "degraded", "error",
                    "ppa", "gds_fnv"
                ]
            );
            assert_eq!(
                line.get("name").as_str(),
                Some("test-uni/beginner/counter8")
            );
        }

        let hub = Hub::new(config).expect("hub restarts");
        assert_eq!(hub.recovered_jobs(), 3);
        let status = hub.job_status(&who, first).expect("recovered job");
        assert_eq!(status.get("recovered"), &Value::Bool(true));
        assert_eq!(keys(&status), status_keys(&["stages", "ppa", "gds_fnv"]));
        let SubmitOutcome::Accepted(fresh) = hub.submit(&who, quick_job(4)) else {
            panic!("accepted");
        };
        assert!(
            fresh > first.max(queued).max(cancelled),
            "ids continue above the recovered ones"
        );
        hub.shutdown();
        std::fs::remove_file(&journal).ok();
    }
}
