//! The hub scheduling core: admission, fair-share dispatch, execution
//! and crash recovery — the live counterpart of the DES in
//! `chipforge-cloud`, built from the *same* `chipforge-admit` types.
//!
//! Time is seconds since hub start (an `f64`, matching the abstract
//! clock the admit types use). Each accepted job waits in its tier's
//! bounded [`ClassQueues`] slot until a worker thread's
//! [`FairShare::pick`] selects its class; the worker then hands it to
//! the hub's one long-lived [`JobExecutor`] — the same per-job path
//! (artifact and stage caches, retry loop, per-attempt deadline) the batch
//! engine's pool workers call, with no engine built around it — and
//! charges the measured service seconds back to the fair share. A job's
//! panic is contained inside its attempt; nothing supervises the worker
//! threads themselves. Completed jobs append to the
//! `chipforge-resil` journal; [`Hub::new`] reloads that journal, so a
//! killed-and-restarted hub re-lists every completed job.

use crate::auth::Identity;
use chipforge_admit::{Admission, ClassQueues, FairShare, OverflowPolicy, RateLimit, TokenBucket};
use chipforge_cloud::AccessTier;
use chipforge_exec::remote::chain_body;
use chipforge_exec::{
    ArtifactCache, AttemptLimits, BatchContext, CacheKey, JobExecutor, JobSpec, JobStatus,
    QueuedJob, RemoteCacheConfig, StageCache, StageCacheMode, StageCounters,
};
use chipforge_flow::PpaReport;
use chipforge_obs::Tracer;
use chipforge_resil::{Journal, JournalRecord, JournalWriter};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hub tuning knobs. The defaults mirror the bounded fair-share policy
/// E16 found overload-robust: per-tier bounded queues, weighted
/// interleave favouring beginners, anti-starvation aging.
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
    /// Checkpoint journal path; completed jobs are appended (fsynced)
    /// and recovered on restart. `None` disables persistence.
    pub journal: Option<PathBuf>,
    /// Stage-snapshot cache directory; `None` keeps stage caching
    /// in-memory only.
    pub stage_cache_dir: Option<PathBuf>,
    /// Whether to attach a stage cache at all.
    pub stage_cache: bool,
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
            stage_cache_dir: None,
            stage_cache: true,
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

/// One job's full hub-side record.
#[derive(Debug)]
struct JobEntry {
    name: String,
    university: String,
    tier: AccessTier,
    state: JobState,
    /// Present while the job still has to run.
    spec: Option<JobSpec>,
    key: String,
    tracer: Tracer,
    submitted_ms: f64,
    started_ms: Option<f64>,
    finished_ms: Option<f64>,
    attempts: u32,
    cache_hit: bool,
    degraded: bool,
    error: Option<String>,
    ppa: Option<PpaReport>,
    gds_fnv: Option<u64>,
    /// Restored from the journal at startup rather than run live.
    recovered: bool,
}

struct HubState {
    jobs: BTreeMap<u64, JobEntry>,
    waiting: ClassQueues<u64>,
    fair: FairShare,
    buckets: [Option<TokenBucket>; 3],
    journal: Option<JournalWriter>,
    next_id: u64,
    next_seq: u64,
    rejected: [u64; 3],
    shed: [u64; 3],
}

/// Request counters for the `/cache/stage/<key>` and `/cache/chain/<key>,…`
/// protocol endpoints.
#[derive(Debug, Default)]
struct CacheProtocol {
    gets: AtomicU64,
    get_hits: AtomicU64,
    puts: AtomicU64,
    put_rejects: AtomicU64,
    heads: AtomicU64,
    head_hits: AtomicU64,
    chains: AtomicU64,
    chain_keys: AtomicU64,
    chain_hits: AtomicU64,
}

struct HubInner {
    config: HubConfig,
    started: Instant,
    state: Mutex<HubState>,
    work_ready: Condvar,
    /// Runs every job; owns the hub-wide artifact and stage caches.
    executor: JobExecutor,
    cache_protocol: CacheProtocol,
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
        let mut state = HubState {
            jobs: BTreeMap::new(),
            waiting: ClassQueues::new(3),
            fair: FairShare::new(config.weights.to_vec(), config.aging_rate),
            buckets: core::array::from_fn(|i| config.rate_limits[i].map(TokenBucket::new)),
            journal: None,
            next_id: 0,
            next_seq: 0,
            rejected: [0; 3],
            shed: [0; 3],
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
        let stage_cache = if config.stage_cache {
            let mode = config
                .stage_cache_dir
                .clone()
                .map_or(StageCacheMode::Memory, StageCacheMode::Disk);
            let remote = config.remote_cache.clone().map(RemoteCacheConfig::new);
            StageCache::from_mode(&mode, remote.as_ref())
        } else {
            None
        };
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
            cache_protocol: CacheProtocol::default(),
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

    /// Seconds since hub start — the abstract clock the admit types see.
    fn now_s(&self) -> f64 {
        self.inner.started.elapsed().as_secs_f64()
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
        let protocol = &self.inner.cache_protocol;
        protocol.gets.fetch_add(1, Ordering::Relaxed);
        let frame = stage_cache.peek(key)?;
        protocol.get_hits.fetch_add(1, Ordering::Relaxed);
        Some(String::from(&*frame))
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
        let protocol = &self.inner.cache_protocol;
        protocol.chains.fetch_add(1, Ordering::Relaxed);
        protocol
            .chain_keys
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        protocol
            .chain_hits
            .fetch_add(held.len() as u64, Ordering::Relaxed);
        Some(chain_body(held.iter().map(|(key, frame)| (*key, &**frame))))
    }

    /// Serves `HEAD /cache/stage/<key>`: presence without the body, and
    /// without reading or decoding the entry.
    #[must_use]
    pub fn cache_has(&self, key: u128) -> bool {
        let Some(stage_cache) = self.inner.executor.stage_cache() else {
            return false;
        };
        let protocol = &self.inner.cache_protocol;
        protocol.heads.fetch_add(1, Ordering::Relaxed);
        let hit = stage_cache.holds(key);
        if hit {
            protocol.head_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
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
        let protocol = &self.inner.cache_protocol;
        protocol.puts.fetch_add(1, Ordering::Relaxed);
        let stored = stage_cache.insert_frame(key, body);
        if stored.is_err() {
            protocol.put_rejects.fetch_add(1, Ordering::Relaxed);
        }
        stored
    }

    /// Offers one job on behalf of `who`. Admission is decided here:
    /// token bucket first, then the tier's bounded queue.
    pub fn submit(&self, who: &Identity, spec: JobSpec) -> SubmitOutcome {
        let now = self.now_s();
        let tier = who.tier;
        let class = tier.priority() as usize;
        let spec = spec.with_tier(tier);
        let key = CacheKey::of(&spec).to_string();
        let mut state = self.inner.state.lock().expect("hub lock");
        let within_rate = state.buckets[class]
            .as_mut()
            .is_none_or(|bucket| bucket.try_acquire(now));
        if !within_rate {
            state.rejected[class] += 1;
            return SubmitOutcome::RateLimited;
        }
        let id = state.next_id;
        state.next_id += 1;
        let entry = JobEntry {
            name: spec.name.clone(),
            university: who.university.clone(),
            tier,
            state: JobState::Queued,
            spec: Some(spec),
            key,
            tracer: Tracer::new(),
            submitted_ms: now * 1e3,
            started_ms: None,
            finished_ms: None,
            attempts: 0,
            cache_hit: false,
            degraded: false,
            error: None,
            ppa: None,
            gds_fnv: None,
            recovered: false,
        };
        match state.waiting.offer(
            class,
            id,
            now,
            self.inner.config.queue_capacity,
            self.inner.config.overflow,
        ) {
            Admission::Admitted => {
                state.jobs.insert(id, entry);
            }
            Admission::Rejected(_) => {
                state.rejected[class] += 1;
                state.next_id = id; // nothing was stored under this id
                return SubmitOutcome::QueueFull;
            }
            Admission::Shed(displaced) => {
                state.jobs.insert(id, entry);
                state.shed[class] += 1;
                // With capacity zero the newcomer itself is the shed
                // entry; either way the displaced job lands terminal.
                if let Some(old) = state.jobs.get_mut(&displaced) {
                    old.state = JobState::Cancelled;
                    old.finished_ms = Some(now * 1e3);
                    old.error = Some("shed: displaced by a newer arrival".into());
                    old.spec = None;
                }
            }
        }
        drop(state);
        self.inner.work_ready.notify_all();
        SubmitOutcome::Accepted(id)
    }

    /// Cancels a queued job. Running or finished jobs are not
    /// interrupted (`false`); unknown ids or other tenants' jobs are
    /// also `false`.
    pub fn cancel(&self, who: &Identity, id: u64) -> bool {
        let now_ms = self.now_s() * 1e3;
        let mut state = self.inner.state.lock().expect("hub lock");
        let Some(entry) = state.jobs.get_mut(&id) else {
            return false;
        };
        if entry.university != who.university || entry.state != JobState::Queued {
            return false;
        }
        entry.state = JobState::Cancelled;
        entry.finished_ms = Some(now_ms);
        entry.error = Some("cancelled by owner".into());
        entry.spec = None;
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
        let jobs: Vec<Value> = state
            .jobs
            .iter()
            .filter(|(_, e)| e.university == who.university)
            .map(|(id, e)| job_json(*id, e, false))
            .collect();
        Value::Map(vec![(Value::Str("jobs".into()), Value::Seq(jobs))])
    }

    /// The live `/metrics` snapshot: job-state counters, per-tier
    /// admission gauges (queue depth, peak depth, rejected, shed) and
    /// the shared stage/artifact cache counters.
    #[must_use]
    pub fn metrics(&self) -> Value {
        let state = self.inner.state.lock().expect("hub lock");
        let mut counts = [0u64; 5];
        let mut recovered = 0u64;
        // Jobs this process's workers ran to a terminal state, and how
        // many of those ended without an artifact.
        let (mut jobs_run, mut run_failed) = (0u64, 0u64);
        for entry in state.jobs.values() {
            let slot = match entry.state {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Succeeded => 2,
                JobState::Failed => 3,
                JobState::Cancelled => 4,
            };
            counts[slot] += 1;
            recovered += u64::from(entry.recovered);
            if !entry.recovered && matches!(entry.state, JobState::Succeeded | JobState::Failed) {
                jobs_run += 1;
                run_failed += u64::from(entry.state == JobState::Failed);
            }
        }
        let tier_seq = |f: &dyn Fn(usize) -> Value| Value::Seq((0..3).map(f).collect());
        let mut fields = vec![
            (
                Value::Str("uptime_ms".into()),
                Value::F64(self.now_s() * 1e3),
            ),
            (
                Value::Str("jobs".into()),
                Value::Map(vec![
                    (Value::Str("queued".into()), Value::U64(counts[0])),
                    (Value::Str("running".into()), Value::U64(counts[1])),
                    (Value::Str("succeeded".into()), Value::U64(counts[2])),
                    (Value::Str("failed".into()), Value::U64(counts[3])),
                    (Value::Str("cancelled".into()), Value::U64(counts[4])),
                    (
                        Value::Str("completed".into()),
                        Value::U64(counts[2] + counts[3]),
                    ),
                    (Value::Str("recovered".into()), Value::U64(recovered)),
                ]),
            ),
            (
                Value::Str("admission".into()),
                Value::Map(vec![
                    (
                        Value::Str("queue_depth".into()),
                        tier_seq(&|c| Value::U64(state.waiting.depth(c) as u64)),
                    ),
                    (
                        Value::Str("peak_depth".into()),
                        tier_seq(&|c| Value::U64(state.waiting.peak_depth(c) as u64)),
                    ),
                    (
                        Value::Str("rejected".into()),
                        tier_seq(&|c| Value::U64(state.rejected[c])),
                    ),
                    (
                        Value::Str("shed".into()),
                        tier_seq(&|c| Value::U64(state.shed[c])),
                    ),
                ]),
            ),
            (
                Value::Str("artifact_cache".into()),
                self.inner.executor.cache().stats().to_value(),
            ),
        ];
        if let Some(stage_cache) = self.inner.executor.stage_cache() {
            // Lifetime totals: the delta from a default (zero) baseline.
            let record = stage_cache.record(&StageCounters::default(), 0, 0);
            fields.push((Value::Str("stage_cache".into()), record.to_value()));
        } else {
            fields.push((Value::Str("stage_cache".into()), Value::Null));
        }
        let protocol = &self.inner.cache_protocol;
        let count = |counter: &AtomicU64| Value::U64(counter.load(Ordering::Relaxed));
        fields.push((
            Value::Str("exec".into()),
            Value::Map(vec![
                (Value::Str("jobs_run".into()), Value::U64(jobs_run)),
                (Value::Str("failed".into()), Value::U64(run_failed)),
            ]),
        ));
        fields.push((
            Value::Str("cache_protocol".into()),
            Value::Map(vec![
                (Value::Str("gets".into()), count(&protocol.gets)),
                (Value::Str("get_hits".into()), count(&protocol.get_hits)),
                (Value::Str("puts".into()), count(&protocol.puts)),
                (
                    Value::Str("put_rejects".into()),
                    count(&protocol.put_rejects),
                ),
                (Value::Str("heads".into()), count(&protocol.heads)),
                (Value::Str("head_hits".into()), count(&protocol.head_hits)),
                (Value::Str("chains".into()), count(&protocol.chains)),
                (Value::Str("chain_keys".into()), count(&protocol.chain_keys)),
                (Value::Str("chain_hits".into()), count(&protocol.chain_hits)),
            ]),
        ));
        drop(state);
        Value::Map(fields)
    }

    /// Stops accepting work, drains running jobs and joins the workers.
    /// Queued jobs are *not* run — exactly what a crash would lose; the
    /// journal holds every completed job either way. Idempotent.
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

    /// Whether a shutdown was requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Rebuilds terminal job entries from a recovered journal. The latest
/// record per id wins (matching [`Journal::find`] semantics); ids
/// continue above the highest recovered one, so restarts never reuse
/// or duplicate an id.
fn recover(state: &mut HubState, journal: &Journal) {
    for record in &journal.records {
        let id = record.index as u64;
        let (university, tier, name) = decode_job_name(&record.name);
        let job_state = match JobStatus::from_name(&record.status) {
            Some(JobStatus::Succeeded) => JobState::Succeeded,
            Some(JobStatus::Cancelled) => JobState::Cancelled,
            _ => JobState::Failed,
        };
        let entry = JobEntry {
            name,
            university,
            tier,
            state: job_state,
            spec: None,
            key: record.key.clone(),
            tracer: Tracer::disabled(),
            submitted_ms: 0.0,
            started_ms: None,
            finished_ms: Some(0.0),
            attempts: record.attempts,
            cache_hit: false,
            degraded: record.degraded,
            error: record.error.clone(),
            ppa: record.ppa.clone(),
            gds_fnv: record.gds_fnv,
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

/// One job's JSON view. With `with_progress`, the finished flow-stage
/// spans recorded by the job's tracer are included — this is the
/// "streaming" a polling client sees while the job runs.
fn job_json(id: u64, entry: &JobEntry, with_progress: bool) -> Value {
    let opt_f64 = |v: Option<f64>| v.map_or(Value::Null, Value::F64);
    let mut fields = vec![
        (Value::Str("id".into()), Value::U64(id)),
        (Value::Str("name".into()), Value::Str(entry.name.clone())),
        (
            Value::Str("university".into()),
            Value::Str(entry.university.clone()),
        ),
        (
            Value::Str("tier".into()),
            Value::Str(entry.tier.to_string()),
        ),
        (
            Value::Str("state".into()),
            Value::Str(entry.state.name().into()),
        ),
        (
            Value::Str("submitted_ms".into()),
            Value::F64(entry.submitted_ms),
        ),
        (Value::Str("started_ms".into()), opt_f64(entry.started_ms)),
        (Value::Str("finished_ms".into()), opt_f64(entry.finished_ms)),
        (
            Value::Str("attempts".into()),
            Value::U64(u64::from(entry.attempts)),
        ),
        (Value::Str("cache_hit".into()), Value::Bool(entry.cache_hit)),
        (Value::Str("degraded".into()), Value::Bool(entry.degraded)),
        (Value::Str("recovered".into()), Value::Bool(entry.recovered)),
        (
            Value::Str("error".into()),
            entry
                .error
                .as_ref()
                .map_or(Value::Null, |e| Value::Str(e.clone())),
        ),
    ];
    if with_progress {
        let stages: Vec<Value> = entry
            .tracer
            .spans()
            .into_iter()
            .filter(|span| span.category == "flow" && span.name != "flow")
            .map(|span| {
                Value::Map(vec![
                    (Value::Str("stage".into()), Value::Str(span.name)),
                    (Value::Str("wall_ms".into()), Value::F64(span.dur_us / 1e3)),
                ])
            })
            .collect();
        fields.push((Value::Str("stages".into()), Value::Seq(stages)));
    }
    if let Some(ppa) = &entry.ppa {
        fields.push((Value::Str("ppa".into()), ppa.to_value()));
    }
    if let Some(fnv) = entry.gds_fnv {
        fields.push((Value::Str("gds_fnv".into()), Value::U64(fnv)));
    }
    Value::Map(fields)
}

/// The worker loop: fair-share pick under the lock, flow execution
/// outside it, result + journal + usage charge back under the lock.
fn worker_loop(inner: &Arc<HubInner>, worker: usize) {
    loop {
        let picked = {
            let mut state = inner.state.lock().expect("hub lock");
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let now = inner.started.elapsed().as_secs_f64();
                if let Some(class) = state.fair.pick(&state.waiting, now) {
                    let (id, _) = state
                        .waiting
                        .pop_front(class)
                        .expect("picked class has work");
                    let Some(entry) = state.jobs.get_mut(&id) else {
                        continue; // shed and pruned meanwhile
                    };
                    if entry.state != JobState::Queued {
                        continue; // cancelled or shed while waiting
                    }
                    entry.state = JobState::Running;
                    entry.started_ms = Some(now * 1e3);
                    let spec = entry.spec.take().expect("queued job keeps its spec");
                    break Some((id, class, spec, entry.tracer.clone()));
                }
                state = inner.work_ready.wait(state).expect("hub lock");
            }
        };
        let Some((id, class, spec, tracer)) = picked else {
            return;
        };

        let run_started = Instant::now();
        let job = QueuedJob {
            index: id as usize,
            key: CacheKey::of(&spec),
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
        state.fair.charge(class, service_s);
        let now_ms = inner.started.elapsed().as_secs_f64() * 1e3;
        let seq = state.next_seq;
        let record = {
            let Some(entry) = state.jobs.get_mut(&id) else {
                continue;
            };
            entry.state = if result.status.is_success() {
                JobState::Succeeded
            } else {
                JobState::Failed
            };
            entry.finished_ms = Some(now_ms);
            entry.attempts = result.attempts;
            entry.cache_hit = result.cache_hit;
            entry.degraded = result.degraded;
            entry.error = result.error.clone();
            let digests = result.artifact_digests();
            entry.ppa = digests.as_ref().map(|(ppa, _)| ppa.clone());
            entry.gds_fnv = digests.map(|(_, fnv)| fnv);
            JournalRecord {
                seq,
                index: id as usize,
                key: entry.key.clone(),
                name: encode_job_name(entry),
                status: result.status.to_string(),
                attempts: entry.attempts,
                degraded: entry.degraded,
                error: entry.error.clone(),
                ppa: entry.ppa.clone(),
                gds_fnv: entry.gds_fnv,
            }
        };
        if let Some(journal) = &mut state.journal {
            if journal.append(&record).is_ok() {
                state.next_seq = seq + 1;
            }
        }
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
}
