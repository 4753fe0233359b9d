//! The batch execution engine: configuration, the per-batch
//! coordinator, its worker pool and its journal/admission glue.
//!
//! [`BatchEngine::run_batch_resilient`] restores jobs a prior journal
//! already holds, offers the rest to one [`Scheduler`] (the admission
//! state machine the simulated and the live hub drive too) before any
//! worker starts, runs the admitted work on a pool of `workers` scoped
//! threads and assembles the [`ExecutionReport`]. Each worker takes the
//! scheduler's next job under one mutex and runs it through the
//! engine's one [`JobExecutor`] ([`crate::attempt`]), which owns the
//! caches and the retry loop; the pool stops when the scheduler is
//! empty or the checkpoint halts it. A job's panic is caught
//! inside its attempt; a panic in a worker itself surfaces from the
//! batch call when the pool joins.
//!
//! Resilience (chipforge-resil): [`run_batch_resilient`] adds a seeded
//! per-job fault-injection plan ([`FaultPlan`]), an fsynced checkpoint
//! journal with resume, graceful route/CTS degradation, per-job
//! quarantine and a batch failure budget on top of the plain engine.
//! [`run_batch`] is the inert special case — no plan, no policy, no
//! journal.
//!
//! [`run_batch`]: BatchEngine::run_batch
//! [`run_batch_resilient`]: BatchEngine::run_batch_resilient

use crate::attempt::{AttemptLimits, BatchContext, JobExecutor, QueuedJob, StageBreakers};
use crate::cache::{ArtifactCache, CacheKey};
use crate::job::{JobResult, JobSpec, JobStatus};
use crate::metrics::{AdmissionRecord, ExecutionReport, RemoteCacheRecord, WorkerRecord};
use crate::remote::{RemoteCacheConfig, RemoteCounters};
use crate::stage_cache::{StageCache, StageCacheMode};
use chipforge_admit::{Admission, AdmissionPolicy, Dispatch, Scheduler};
use chipforge_obs::Tracer;
use chipforge_resil::{FaultPlan, Journal, JournalWriter, ResiliencePolicy};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (at least 1).
    pub workers: usize,
    /// Wall-time budget per attempt, checked before every flow stage;
    /// exceeding it reports [`JobStatus::TimedOut`].
    pub job_timeout: Duration,
    /// Extra attempts after a retryable (panicked or transient) attempt
    /// failure (flow *errors* are deterministic and never retried;
    /// neither are timeouts, which would only double the damage). A
    /// quarantining [`ResiliencePolicy`] overrides this with its own
    /// `max_attempts`.
    pub max_retries: u32,
    /// Sleep before the first retry; doubles per subsequent retry up to
    /// `max_backoff`, with deterministic jitter in `[0.5, 1.0)` of the
    /// clamped delay.
    pub retry_backoff: Duration,
    /// Ceiling on any single retry delay.
    pub max_backoff: Duration,
    /// Artifact-cache capacity.
    pub cache_capacity: usize,
    /// Per-stage snapshot caching: restores the shared prefix of a
    /// parameter sweep instead of recomputing every stage.
    pub stage_cache: StageCacheMode,
    /// Remote stage-cache tier (`--remote-cache <url>`): snapshots are
    /// fetched from and published to a `forge serve` cache over HTTP,
    /// behind timeouts, retries and a circuit breaker. Setting this
    /// with `stage_cache: Disabled` implies an in-memory local tier.
    pub remote_cache: Option<RemoteCacheConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let limits = AttemptLimits::default();
        EngineConfig {
            workers: thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .clamp(1, 8),
            job_timeout: limits.timeout,
            max_retries: limits.max_retries,
            retry_backoff: limits.retry_backoff,
            max_backoff: limits.max_backoff,
            cache_capacity: 4096,
            stage_cache: StageCacheMode::Disabled,
            remote_cache: None,
        }
    }
}

impl EngineConfig {
    /// A config with `workers` threads and defaults elsewhere.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers: workers.max(1),
            ..EngineConfig::default()
        }
    }
}

/// Admission-control knobs for one batch, applied through a
/// `chipforge_admit::Scheduler` with the same meaning `forge serve`
/// gives them. The default is fully inert: unbounded queue, no
/// deadline, no tier weighting, no circuit breaker.
///
/// A batch arrives as one burst: every job is offered at time zero in
/// submission order before any worker runs, which keeps rejections
/// deterministic across worker counts and scheduling orders. Without
/// `tier_weights` the batch is one FIFO class; with them, each access
/// tier is its own class.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    /// Waiting-room capacity beyond the worker pool: at most
    /// `workers + max_queue` jobs are admitted per class. The rest are
    /// reported [`JobStatus::Rejected`] (or, under `shed_oldest`, the
    /// class's oldest submissions are displaced instead).
    pub max_queue: Option<usize>,
    /// When a class's queue window is full, shed its oldest submissions
    /// in favor of newer ones instead of rejecting the newcomers.
    pub shed_oldest: bool,
    /// Deadline applied to every job, measured from batch start and
    /// combined (tightest wins) with each spec's own `deadline_ms`.
    /// Expired jobs are cooperatively cancelled *between* flow stages
    /// and reported [`JobStatus::DeadlineExceeded`] — never cached.
    pub deadline: Option<Duration>,
    /// Fair-share weights per access tier (beginner, intermediate,
    /// advanced). Each tier becomes its own bounded class and workers
    /// take jobs by weighted fair share, so a saturating advanced-tier
    /// burst can neither crowd the other tiers out of admission nor
    /// monopolize the pool. Must be finite and positive; callers
    /// validate before building the batch.
    pub tier_weights: Option<[f64; 3]>,
    /// Consecutive transient failures at one flow stage before that
    /// stage's circuit breaker trips open and fast-fails later jobs.
    pub breaker_threshold: Option<u32>,
    /// Admissions fast-failed while a breaker is open before it
    /// half-opens and lets one probe job through.
    pub breaker_cooldown: u32,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        AdmissionControl {
            max_queue: None,
            shed_oldest: false,
            deadline: None,
            tier_weights: None,
            breaker_threshold: None,
            breaker_cooldown: 2,
        }
    }
}

/// Resilience inputs for one batch run. The default is fully inert:
/// no injected faults, the historical retry policy, no journal.
#[derive(Debug, Default)]
pub struct ResilienceOptions {
    /// Seeded fault-injection plan.
    pub plan: FaultPlan,
    /// Quarantine / failure-budget / degradation policy.
    pub policy: ResiliencePolicy,
    /// Overload admission control: bounded queue, deadlines, tier
    /// fair-share and the per-stage circuit breaker.
    pub admission: AdmissionControl,
    /// Checkpoint journal to append completed jobs to.
    pub journal: Option<JournalWriter>,
    /// A previously written journal: matching completed jobs are
    /// restored instead of re-executed.
    pub resume: Option<Journal>,
    /// Stop pulling work after this many jobs have been journaled — a
    /// deterministic in-process stand-in for `kill -9` mid-batch, used
    /// by the resume tests and `forge batch --halt-after`.
    pub halt_after: Option<usize>,
}

/// Everything [`BatchEngine::run_batch`] returns.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job results in submission order, artifacts included. A
    /// halted run only contains the jobs that reached a terminal state.
    pub results: Vec<JobResult>,
    /// The serializable instrumentation report.
    pub report: ExecutionReport,
    /// Whether the run stopped early via `halt_after`.
    pub halted: bool,
    /// Whether the batch was cut short deliberately: the failure budget
    /// blew, or an open circuit breaker fast-failed at least one job.
    /// `forge batch` maps this to its own exit code.
    pub fail_fast: bool,
}

impl BatchReport {
    /// A digest over the deterministic parts of the batch — job names,
    /// statuses, PPA reports and GDS bytes, in submission order — equal
    /// across runs and worker counts for the same job list. Wall-clock
    /// fields are deliberately excluded.
    #[must_use]
    pub fn deterministic_digest(&self) -> String {
        use std::fmt::Write as _;
        let mut digest = String::new();
        for result in &self.results {
            let _ = write!(digest, "{}:{}:", result.name, result.status);
            match result.artifact_digests() {
                Some((ppa, gds_fnv)) => {
                    let _ = writeln!(digest, "{}:{}", serde::json::to_string(&ppa), gds_fnv);
                }
                None => digest.push_str("-\n"),
            }
        }
        digest
    }

    /// The canonical (wall-clock-free) JSON report; see
    /// [`crate::metrics::canonical_report`].
    #[must_use]
    pub fn canonical_report(&self) -> String {
        crate::metrics::canonical_report(&self.results)
    }
}

/// A multi-threaded batch executor with a persistent artifact cache.
///
/// The cache lives as long as the engine, so consecutive
/// [`run_batch`](Self::run_batch) calls share artifacts — resubmitting a
/// manifest is almost entirely cache hits.
pub struct BatchEngine {
    config: EngineConfig,
    executor: JobExecutor,
    tracer: Tracer,
}

impl BatchEngine {
    /// An engine with the given configuration and tracing disabled.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Self::with_tracer(config, Tracer::disabled())
    }

    /// An engine that records batch/job spans and execution metrics into
    /// `tracer`. Worker `w` gets trace track `w + 1`; track 0 is the
    /// coordinator.
    #[must_use]
    pub fn with_tracer(config: EngineConfig, tracer: Tracer) -> Self {
        let stage_cache = StageCache::from_mode(&config.stage_cache, config.remote_cache.as_ref());
        Self::assemble(config, stage_cache, tracer)
    }

    /// An engine that shares an existing stage cache instead of building
    /// one from `config.stage_cache` — a fresh engine warmed by another
    /// engine's snapshots (E17's warm pass).
    #[must_use]
    pub fn with_stage_cache(config: EngineConfig, stage_cache: Arc<StageCache>) -> Self {
        Self::assemble(config, Some(stage_cache), Tracer::disabled())
    }

    fn assemble(
        config: EngineConfig,
        stage_cache: Option<Arc<StageCache>>,
        tracer: Tracer,
    ) -> Self {
        let limits = AttemptLimits {
            timeout: config.job_timeout,
            max_retries: config.max_retries,
            retry_backoff: config.retry_backoff,
            max_backoff: config.max_backoff,
        };
        let cache = Arc::new(ArtifactCache::new(config.cache_capacity));
        BatchEngine {
            executor: JobExecutor::new(limits, cache, stage_cache),
            config,
            tracer,
        }
    }

    /// The engine's artifact cache.
    #[must_use]
    pub fn cache(&self) -> &ArtifactCache {
        self.executor.cache()
    }

    /// The engine's per-stage snapshot cache, if one is attached.
    #[must_use]
    pub fn stage_cache(&self) -> Option<&Arc<StageCache>> {
        self.executor.stage_cache()
    }

    /// Runs `jobs` to completion across the worker pool and returns
    /// per-job results (in submission order) plus the execution report.
    #[must_use]
    pub fn run_batch(&self, jobs: Vec<JobSpec>) -> BatchReport {
        self.run_batch_resilient(jobs, ResilienceOptions::default())
    }

    /// [`run_batch`](Self::run_batch) under a fault plan and resilience
    /// policy, optionally journaling completions and resuming from a
    /// prior journal.
    #[must_use]
    pub fn run_batch_resilient(
        &self,
        jobs: Vec<JobSpec>,
        options: ResilienceOptions,
    ) -> BatchReport {
        let started = Instant::now();
        let job_count = jobs.len();
        let stage_cache = self.executor.stage_cache();
        // The stage cache can outlive the batch (and be shared between
        // engines); snapshot its counters so the report carries deltas.
        let stage_counters = stage_cache.map(|sc| sc.counters());
        let remote_counters = stage_cache
            .and_then(|sc| sc.remote())
            .map(|remote| remote.counters());

        let capacity = self.config.workers.max(1);

        let batch_span = self.tracer.span("batch", "exec");
        if self.tracer.is_enabled() {
            self.tracer.set_track_name(0, "coordinator");
            for worker_id in 0..capacity {
                self.tracer
                    .set_track_name(worker_id + 1, &format!("worker-{worker_id}"));
            }
            self.tracer.add("exec.jobs_submitted", job_count as u64);
        }

        // Restoration pass: jobs whose (index, key) match a verified
        // journal record are not re-executed. Matching on the content-
        // addressed key means an edited design re-runs transparently.
        let mut restored: Vec<(CacheKey, JobResult)> = Vec::new();
        let mut quarantined_keys: HashSet<CacheKey> = HashSet::new();
        let mut work: Vec<QueuedJob> = Vec::new();
        for (index, spec) in jobs.into_iter().enumerate() {
            self.tracer.instant("enqueue", "exec", &spec.name);
            let key = CacheKey::of(&spec);
            let record = options
                .resume
                .as_ref()
                .and_then(|journal| journal.find(index, &key.to_string()));
            match record.and_then(JobResult::from_journal) {
                Some(result) => {
                    self.tracer.instant("resume-skip", "exec", &spec.name);
                    self.tracer.add("exec.resumed", 1);
                    if result.status == JobStatus::Quarantined {
                        quarantined_keys.insert(key);
                    }
                    restored.push((key, result));
                }
                None => {
                    let deadline =
                        effective_deadline(started, options.admission.deadline, spec.deadline_ms);
                    work.push(QueuedJob {
                        index,
                        spec,
                        key,
                        deadline,
                        enqueued: Instant::now(),
                    });
                }
            }
        }

        // Admission control: every job is offered to the batch's
        // scheduler before any worker runs. Jobs turned away here never
        // reach a worker; they are journaled so a resumed run does not
        // re-admit them as duplicates.
        let admission = &options.admission;
        let shed = admission.shed_oldest;
        let window = admission.max_queue.map(|max_queue| capacity + max_queue);
        let policy = admission_policy(admission, window);
        let classes = policy.classes();
        let mut scheduler = Scheduler::new(policy, Dispatch::FairShare);
        let mut turned_away: Vec<(CacheKey, JobResult)> = Vec::new();
        for item in work {
            let class = if classes == 1 {
                0
            } else {
                usize::from(item.spec.tier.priority())
            };
            let item = match scheduler.offer(class, item, 0.0) {
                Admission::Admitted => continue,
                Admission::RateLimited(item)
                | Admission::Rejected(item)
                | Admission::Shed(item) => item,
            };
            self.tracer.instant("admit-reject", "exec", &item.spec.name);
            self.tracer
                .add(if shed { "admit.shed" } else { "admit.rejected" }, 1);
            let window = window.expect("only a bounded queue turns jobs away");
            let result = turned_away_result(&item, shed, window);
            turned_away.push((item.key, result));
        }
        let admission_record = admission_record(&scheduler, classes, capacity);
        if self.tracer.is_enabled() {
            self.tracer.set_gauge(
                "admit.peak_queue_depth",
                admission_record.peak_queue_depth as f64,
            );
        }

        // When a resumed run is itself journaled, re-append the restored
        // records first (admission rejections alongside them) so the new
        // journal is complete and a later resume can chain off it.
        let mut seq = 0u64;
        let mut journal = options.journal;
        if let Some(writer) = journal.as_mut() {
            for (key, result) in restored.iter().chain(turned_away.iter()) {
                let record = result.to_journal(seq, *key);
                if writer.append(&record).is_err() {
                    self.tracer.add("exec.journal_errors", 1);
                }
                seq += 1;
            }
        }

        let batch = BatchContext {
            plan: options.plan,
            policy: options.policy,
            breakers: options
                .admission
                .breaker_threshold
                .map(|threshold| StageBreakers::new(threshold, options.admission.breaker_cooldown)),
            quarantined: Mutex::new(quarantined_keys),
            ..BatchContext::default()
        };
        let checkpoint = Checkpoint {
            journal: journal.map(Mutex::new),
            seq: AtomicU64::new(seq),
            journaled: AtomicUsize::new(0),
            halt_after: options.halt_after,
            halted: AtomicBool::new(options.halt_after == Some(0)),
        };
        let worker_tracers: Vec<Tracer> = (0..capacity)
            .map(|worker_id| self.tracer.at(batch_span.id(), worker_id + 1))
            .collect();
        let queue = Mutex::new(scheduler);
        let (executed, workers) =
            run_pool(&self.executor, &batch, &checkpoint, &worker_tracers, &queue);

        let mut results: Vec<JobResult> = restored
            .into_iter()
            .chain(turned_away)
            .map(|(_, r)| r)
            .chain(executed)
            .collect();
        results.sort_by_key(|r| r.index);

        let halted = checkpoint.is_halted();
        let makespan_ms = started.elapsed().as_secs_f64() * 1_000.0;
        batch_span.finish_with_detail(&format!("{job_count} jobs"));
        let fail_fast = batch.budget_blown.load(Ordering::SeqCst)
            || batch.breaker_fast_fails.load(Ordering::SeqCst) > 0;
        let stage_cache_record = match (stage_cache, stage_counters) {
            (Some(sc), Some(base)) => Some(sc.record(
                &base,
                batch.stage_full_restores.load(Ordering::SeqCst) as u64,
                batch.stage_recomputes.load(Ordering::SeqCst) as u64,
            )),
            _ => None,
        };
        let remote_cache_record = match (stage_cache.and_then(|sc| sc.remote()), remote_counters) {
            (Some(remote), Some(base)) => {
                let record = remote_record_delta(&remote.counters(), &base);
                if self.tracer.is_enabled() {
                    self.tracer.add("remote.hits", record.hits);
                    self.tracer.add("remote.misses", record.misses);
                    self.tracer.add("remote.timeouts", record.timeouts);
                    self.tracer.add("remote.retries", record.retries);
                    self.tracer.add("remote.breaker_open", record.breaker_open);
                    self.tracer.add("remote.requests", record.requests);
                }
                Some(record)
            }
            _ => None,
        };
        let report = ExecutionReport::build(
            &results,
            workers,
            self.cache().stats(),
            makespan_ms,
            admission_record,
            stage_cache_record,
            remote_cache_record,
        );
        BatchReport {
            results,
            report,
            halted,
            fail_fast,
        }
    }
}

/// Runs the admitted jobs on one scoped thread per worker tracer. Each
/// worker takes the scheduler's next job, runs it, journals it, and
/// stops when the queue is empty or the checkpoint has halted the batch
/// (in-flight jobs finish and are journaled; unclaimed ones are simply
/// not run — what a `kill -9` leaves behind, minus the torn line).
/// Returns the terminal results and one record per worker; a worker's
/// panic is re-raised here once every worker has stopped.
fn run_pool(
    executor: &JobExecutor,
    batch: &BatchContext,
    checkpoint: &Checkpoint,
    worker_tracers: &[Tracer],
    queue: &Mutex<Scheduler<QueuedJob>>,
) -> (Vec<JobResult>, Vec<WorkerRecord>) {
    let worker_loop = |worker: usize, tracer: &Tracer| {
        let mut results = Vec::new();
        let mut busy = Duration::ZERO;
        while !checkpoint.is_halted() {
            let next = {
                let mut scheduler = queue.lock().expect("scheduler lock");
                scheduler
                    .next(0.0)
                    .inspect(|(class, _, _)| scheduler.charge(*class, 1.0))
            };
            let Some((_, job, _)) = next else {
                break;
            };
            let picked_up = Instant::now();
            let result = executor.run(worker, &job, batch, tracer);
            checkpoint.record(job.key, &result, tracer);
            busy += picked_up.elapsed();
            results.push(result);
        }
        let record = WorkerRecord {
            worker,
            jobs_run: results.len() as u64,
            busy_ms: busy.as_secs_f64() * 1_000.0,
            utilization: 0.0, // filled in by ExecutionReport::build
        };
        (results, record)
    };
    thread::scope(|scope| {
        let handles: Vec<_> = worker_tracers
            .iter()
            .enumerate()
            .map(|(worker, tracer)| {
                thread::Builder::new()
                    .name(format!("exec-worker-{worker}"))
                    .spawn_scoped(scope, move || worker_loop(worker, tracer))
                    .expect("spawn worker")
            })
            .collect();
        let mut results = Vec::new();
        let mut records = Vec::new();
        for handle in handles {
            let (executed, record) = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            results.extend(executed);
            records.push(record);
        }
        (results, records)
    })
}

/// Per-batch remote-tier deltas between two monotonic counter
/// snapshots (the remote client, like the stage cache, can outlive the
/// batch).
fn remote_record_delta(now: &RemoteCounters, base: &RemoteCounters) -> RemoteCacheRecord {
    RemoteCacheRecord {
        hits: now.hits - base.hits,
        misses: now.misses - base.misses,
        timeouts: now.timeouts - base.timeouts,
        retries: now.retries - base.retries,
        breaker_open: now.breaker_open - base.breaker_open,
        trips: now.trips - base.trips,
        corrupt: now.corrupt - base.corrupt,
        stores: now.stores - base.stores,
        requests: now.requests - base.requests,
        oversize: now.oversize - base.oversize,
    }
}

/// The tighter of the batch-wide admission deadline and the spec's own
/// `deadline_ms`, as an absolute instant (both measured from batch
/// start). `None` when neither is set.
fn effective_deadline(
    started: Instant,
    admission: Option<Duration>,
    spec_ms: Option<u64>,
) -> Option<Instant> {
    let spec = spec_ms.map(Duration::from_millis);
    let tightest = match (admission, spec) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    tightest.map(|d| started + d)
}

/// The batch's admission policy. Without tier weights it has one FIFO
/// class; with them, the three access tiers (beginner, intermediate,
/// advanced as classes 0/1/2) share the pool by weighted fair share.
/// Each class holds at most `window` jobs when one is set.
fn admission_policy(admission: &AdmissionControl, window: Option<usize>) -> AdmissionPolicy {
    let classes = admission.tier_weights.map_or(1, |weights| weights.len());
    let mut policy = match window {
        Some(window) => AdmissionPolicy::bounded(classes, window),
        None => AdmissionPolicy::unbounded(classes),
    };
    if admission.shed_oldest {
        policy = policy.with_shed_oldest();
    }
    if let Some(weights) = admission.tier_weights {
        policy = policy.with_weights(weights.to_vec());
    }
    policy
}

/// The batch's [`AdmissionRecord`], summed over the scheduler's
/// classes; a shed job counts as shed only, not also as admitted.
fn admission_record(
    scheduler: &Scheduler<QueuedJob>,
    classes: usize,
    workers: usize,
) -> AdmissionRecord {
    let mut record = AdmissionRecord::default();
    for class in 0..classes {
        let stats = scheduler.stats(class);
        record.admitted += stats.admitted - stats.shed;
        record.rejected += stats.rejected;
        record.shed += stats.shed;
        record.peak_queue_depth = record
            .peak_queue_depth
            .max(stats.peak_depth.saturating_sub(workers));
    }
    record
}

/// The terminal result for a job turned away at admission.
fn turned_away_result(item: &QueuedJob, shed: bool, window: usize) -> JobResult {
    JobResult {
        status: JobStatus::Rejected,
        error: Some(if shed {
            format!("shed at admission: displaced by newer submissions (queue window {window})")
        } else {
            format!("rejected at admission: queue full (queue window {window})")
        }),
        ..JobResult::blank(item.index, &item.spec.name)
    }
}

/// One batch's checkpoint journal and the halt latch it drives.
struct Checkpoint {
    journal: Option<Mutex<JournalWriter>>,
    seq: AtomicU64,
    journaled: AtomicUsize,
    halt_after: Option<usize>,
    halted: AtomicBool,
}

impl Checkpoint {
    /// Whether `halt_after` records are on disk: workers stop pulling
    /// work.
    fn is_halted(&self) -> bool {
        self.halted.load(Ordering::SeqCst)
    }

    /// Appends a terminal result to the checkpoint journal
    /// (cancellations are not completed work and are skipped) and trips
    /// the halt latch once `halt_after` records are on disk.
    fn record(&self, key: CacheKey, result: &JobResult, tracer: &Tracer) {
        let Some(journal) = &self.journal else {
            return;
        };
        if result.status == JobStatus::Cancelled {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let record = result.to_journal(seq, key);
        let appended = {
            let mut writer = journal.lock().expect("journal lock");
            writer.append(&record).is_ok()
        };
        if !appended {
            tracer.add("exec.journal_errors", 1);
            return;
        }
        tracer.instant("journal-append", "exec", &result.name);
        let journaled = self.journaled.fetch_add(1, Ordering::SeqCst) + 1;
        if self.halt_after.is_some_and(|k| journaled >= k) {
            self.halted.store(true, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Fault;
    use chipforge_flow::OptimizationProfile;
    use chipforge_hdl::designs;
    use chipforge_pdk::TechnologyNode;
    use proptest::prelude::*;

    fn job(name: &str, seed: u64) -> JobSpec {
        JobSpec::new(
            name,
            designs::counter(4).source(),
            TechnologyNode::N130,
            OptimizationProfile::quick(),
        )
        .with_seed(seed)
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "chipforge-engine-{}-{name}.jsonl",
            std::process::id()
        ));
        path
    }

    #[test]
    fn single_worker_runs_a_batch_in_order() {
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let batch = engine.run_batch(vec![job("a", 1), job("b", 2), job("c", 3)]);
        assert_eq!(batch.results.len(), 3);
        assert!(batch.results.iter().all(|r| r.status.is_success()));
        assert_eq!(
            batch.results.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(batch.report.totals.succeeded, 3);
        assert!(!batch.halted);
    }

    #[test]
    fn same_spec_twice_hits_the_cache_within_one_batch() {
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let batch = engine.run_batch(vec![job("first", 7), job("second", 7)]);
        assert!(batch.results[1].cache_hit);
        assert_eq!(engine.cache().stats().hits, 1);
    }

    #[test]
    fn flow_errors_fail_without_retry() {
        let mut bad = job("broken", 1);
        bad.source = "this is not forgehdl".into();
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let batch = engine.run_batch(vec![bad]);
        assert_eq!(batch.results[0].status, JobStatus::Failed);
        assert_eq!(batch.results[0].attempts, 1);
        assert!(batch.results[0].error.is_some());
    }

    #[test]
    fn injected_panic_retries_then_fails() {
        let engine = BatchEngine::new(EngineConfig {
            workers: 1,
            max_retries: 1,
            retry_backoff: Duration::from_millis(1),
            ..EngineConfig::default()
        });
        let batch = engine.run_batch(vec![job("boom", 1).with_fault(Fault::Panic)]);
        assert_eq!(batch.results[0].status, JobStatus::Failed);
        assert_eq!(batch.results[0].attempts, 2);
    }

    #[test]
    fn hang_times_out_while_others_complete() {
        let engine = BatchEngine::new(EngineConfig {
            workers: 2,
            job_timeout: Duration::from_millis(150),
            ..EngineConfig::default()
        });
        let batch = engine.run_batch(vec![
            job("stuck", 1).with_fault(Fault::Hang(5_000)),
            job("fine", 2),
        ]);
        assert_eq!(batch.results[0].status, JobStatus::TimedOut);
        assert_eq!(batch.results[1].status, JobStatus::Succeeded);
    }

    #[test]
    fn traced_batch_records_lifecycle_spans_and_metrics() {
        let tracer = Tracer::new();
        let engine = BatchEngine::with_tracer(EngineConfig::with_workers(1), tracer.clone());
        let batch = engine.run_batch(vec![job("cold", 3), job("warm", 3)]);
        assert!(batch.results[1].cache_hit);

        let spans = tracer.spans();
        let batch_span = spans
            .iter()
            .find(|s| s.category == "exec" && s.name == "batch")
            .expect("batch span");
        let cold = spans
            .iter()
            .find(|s| s.category == "job" && s.name == "cold")
            .expect("cold job span");
        assert_eq!(cold.parent, batch_span.id);
        assert_eq!(cold.track, 1, "worker 0 records on track 1");
        // The executed job's flow spans hang off its job span.
        let flow_root = spans
            .iter()
            .find(|s| s.category == "flow" && s.name == "flow")
            .expect("flow root span");
        assert_eq!(flow_root.parent, cold.id);
        assert!(spans
            .iter()
            .any(|s| s.category == "flow" && s.name == "synthesize"));

        let instants = tracer.instants();
        assert!(instants.iter().any(|i| i.name == "enqueue"));
        assert!(instants
            .iter()
            .any(|i| i.name == "cache-miss" && i.detail == "cold"));
        assert!(instants
            .iter()
            .any(|i| i.name == "cache-hit" && i.detail == "warm"));

        let snap = tracer.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        assert_eq!(counter("exec.jobs_submitted"), 2);
        assert_eq!(counter("exec.cache.hits"), 1);
        assert_eq!(counter("exec.cache.misses"), 1);
        assert_eq!(counter("exec.status.succeeded"), 2);
        let run_ms = snap
            .histograms
            .iter()
            .find(|h| h.name == "exec.run_ms")
            .expect("run_ms histogram");
        assert_eq!(run_ms.summary.count, 2);
    }

    #[test]
    fn transient_fault_retries_then_succeeds() {
        let engine = BatchEngine::new(EngineConfig {
            workers: 1,
            retry_backoff: Duration::from_millis(1),
            ..EngineConfig::default()
        });
        let batch = engine.run_batch(vec![job("flaky", 1).with_fault(Fault::Transient(1))]);
        assert_eq!(batch.results[0].status, JobStatus::Succeeded);
        assert_eq!(batch.results[0].attempts, 2);
        assert!(!batch.results[0].degraded);
    }

    #[test]
    fn degrade_policy_relaxes_a_transient_route_failure() {
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let options = ResilienceOptions {
            policy: ResiliencePolicy::resilient(2),
            ..ResilienceOptions::default()
        };
        // Transient(3) would fail the first three attempts, but the
        // degraded retry runs disruption-free with relaxed parameters.
        let batch = engine.run_batch_resilient(
            vec![job("congested", 1).with_fault(Fault::Transient(3))],
            options,
        );
        assert_eq!(batch.results[0].status, JobStatus::Succeeded);
        assert!(batch.results[0].degraded);
        assert_eq!(batch.results[0].attempts, 2);
        assert_eq!(batch.report.totals.degraded, 1);
        // Degraded artifacts must not be cached.
        assert_eq!(engine.cache().stats().entries, 0);
    }

    #[test]
    fn exhausted_jobs_are_quarantined_and_resubmissions_skipped() {
        let engine = BatchEngine::new(EngineConfig {
            workers: 1,
            retry_backoff: Duration::from_millis(1),
            ..EngineConfig::default()
        });
        let options = ResilienceOptions {
            policy: ResiliencePolicy::resilient(1).without_degrade(),
            ..ResilienceOptions::default()
        };
        let batch = engine.run_batch_resilient(
            vec![
                job("sick", 5).with_fault(Fault::Transient(9)),
                job("sick-again", 5).with_fault(Fault::Transient(9)),
            ],
            options,
        );
        assert_eq!(batch.results[0].status, JobStatus::Quarantined);
        assert!(batch.results[0]
            .error
            .as_deref()
            .is_some_and(|e| e.starts_with("quarantined after 1 failed attempts")));
        assert_eq!(batch.results[1].status, JobStatus::Quarantined);
        assert_eq!(
            batch.results[1].error.as_deref(),
            Some("identical inputs already quarantined in this batch")
        );
        assert_eq!(batch.results[1].attempts, 0, "skipped without executing");
        assert_eq!(batch.report.totals.quarantined, 2);
    }

    #[test]
    fn blown_failure_budget_cancels_jobs_not_yet_started() {
        let engine = BatchEngine::new(EngineConfig {
            workers: 1,
            retry_backoff: Duration::from_millis(1),
            ..EngineConfig::default()
        });
        let options = ResilienceOptions {
            policy: ResiliencePolicy::resilient(1)
                .without_degrade()
                .with_failure_budget(0),
            ..ResilienceOptions::default()
        };
        let batch = engine.run_batch_resilient(
            vec![
                job("dead", 1).with_fault(Fault::Transient(9)),
                job("never", 2),
            ],
            options,
        );
        assert_eq!(batch.results[0].status, JobStatus::Quarantined);
        assert_eq!(batch.results[1].status, JobStatus::Cancelled);
        assert_eq!(
            batch.results[1].error.as_deref(),
            Some("batch failure budget exhausted before the job started")
        );
    }

    #[test]
    fn corrupted_cache_entries_are_detected_and_recomputed() {
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let options = ResilienceOptions {
            plan: FaultPlan::disabled().with_corrupt_rate(1.0),
            ..ResilienceOptions::default()
        };
        let batch = engine.run_batch_resilient(vec![job("a", 7), job("a-dup", 7)], options);
        assert!(batch.results.iter().all(|r| r.status.is_success()));
        assert!(!batch.results[1].cache_hit, "corrupt entry is not a hit");
        assert_eq!(engine.cache().stats().corrupted, 1);
    }

    #[test]
    fn journal_then_resume_restores_results_byte_for_byte() {
        let path = temp_journal("resume");
        let jobs = || vec![job("a", 1), job("b", 2), job("c", 3)];
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let writer = JournalWriter::create(&path).expect("create journal");
        let clean = engine.run_batch_resilient(
            jobs(),
            ResilienceOptions {
                journal: Some(writer),
                ..ResilienceOptions::default()
            },
        );
        assert!(!clean.halted);
        let journal = Journal::load(&path).expect("load journal");
        assert_eq!(journal.records.len(), 3);
        assert_eq!(journal.skipped_lines, 0);

        let fresh = BatchEngine::new(EngineConfig::with_workers(1));
        let resumed = fresh.run_batch_resilient(
            jobs(),
            ResilienceOptions {
                resume: Some(journal),
                ..ResilienceOptions::default()
            },
        );
        assert!(resumed.results.iter().all(|r| r.resumed));
        assert_eq!(resumed.report.totals.resumed, 3);
        assert_eq!(clean.canonical_report(), resumed.canonical_report());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn halt_after_zero_executes_nothing() {
        let path = temp_journal("halt0");
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let writer = JournalWriter::create(&path).expect("create journal");
        let batch = engine.run_batch_resilient(
            vec![job("a", 1)],
            ResilienceOptions {
                journal: Some(writer),
                halt_after: Some(0),
                ..ResilienceOptions::default()
            },
        );
        assert!(batch.halted);
        assert!(batch.results.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bounded_admission_rejects_overflow_deterministically() {
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let options = ResilienceOptions {
            admission: AdmissionControl {
                max_queue: Some(1),
                ..AdmissionControl::default()
            },
            ..ResilienceOptions::default()
        };
        let jobs: Vec<JobSpec> = (0..5).map(|i| job(&format!("j{i}"), i)).collect();
        let batch = engine.run_batch_resilient(jobs, options);
        // Window = 1 worker + 1 queue slot: j0 and j1 run, the rest are
        // rejected at submission — independent of scheduling.
        assert_eq!(batch.results.len(), 5);
        assert_eq!(batch.results[0].status, JobStatus::Succeeded);
        assert_eq!(batch.results[1].status, JobStatus::Succeeded);
        for rejected in &batch.results[2..] {
            assert_eq!(rejected.status, JobStatus::Rejected);
            assert!(rejected
                .error
                .as_deref()
                .is_some_and(|e| e.starts_with("rejected at admission")));
        }
        assert_eq!(batch.report.admission.admitted, 2);
        assert_eq!(batch.report.admission.rejected, 3);
        assert_eq!(batch.report.admission.shed, 0);
        assert_eq!(batch.report.admission.peak_queue_depth, 1);
        assert_eq!(batch.report.totals.rejected, 3);
        assert!(!batch.fail_fast, "admission rejects are not fail-fast");
    }

    #[test]
    fn shed_oldest_displaces_the_earliest_submissions() {
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let options = ResilienceOptions {
            admission: AdmissionControl {
                max_queue: Some(1),
                shed_oldest: true,
                ..AdmissionControl::default()
            },
            ..ResilienceOptions::default()
        };
        let jobs: Vec<JobSpec> = (0..4).map(|i| job(&format!("j{i}"), i)).collect();
        let batch = engine.run_batch_resilient(jobs, options);
        assert_eq!(batch.results[0].status, JobStatus::Rejected);
        assert_eq!(batch.results[1].status, JobStatus::Rejected);
        assert!(batch.results[0]
            .error
            .as_deref()
            .is_some_and(|e| e.starts_with("shed at admission")));
        assert_eq!(batch.results[2].status, JobStatus::Succeeded);
        assert_eq!(batch.results[3].status, JobStatus::Succeeded);
        assert_eq!(batch.report.admission.shed, 2);
        assert_eq!(batch.report.admission.rejected, 0);
    }

    #[test]
    fn tier_weights_keep_beginners_in_a_bounded_window() {
        use chipforge_cloud::AccessTier;
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let options = ResilienceOptions {
            admission: AdmissionControl {
                max_queue: Some(1),
                tier_weights: Some([2.0, 1.0, 1.0]),
                ..AdmissionControl::default()
            },
            ..ResilienceOptions::default()
        };
        // Four advanced jobs submitted ahead of one beginner job: one
        // shared window would reject the beginner, but each tier has its
        // own window of 1 worker + 1 queue slot, so only the advanced
        // overflow (adv2, adv3) is turned away.
        let mut jobs: Vec<JobSpec> = (0..4)
            .map(|i| job(&format!("adv{i}"), i).with_tier(AccessTier::Advanced))
            .collect();
        jobs.push(job("newbie", 9).with_tier(AccessTier::Beginner));
        let batch = engine.run_batch_resilient(jobs, options);
        let newbie = batch
            .results
            .iter()
            .find(|r| r.name == "newbie")
            .expect("beginner job present");
        assert_eq!(newbie.status, JobStatus::Succeeded);
        assert_eq!(batch.report.admission.rejected, 2);
    }

    #[test]
    fn expired_job_deadline_is_reported_not_cached() {
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let options = ResilienceOptions {
            admission: AdmissionControl {
                deadline: Some(Duration::ZERO),
                ..AdmissionControl::default()
            },
            ..ResilienceOptions::default()
        };
        let batch = engine.run_batch_resilient(vec![job("late", 1)], options);
        assert_eq!(batch.results[0].status, JobStatus::DeadlineExceeded);
        assert_eq!(
            batch.results[0].error.as_deref(),
            Some("deadline expired before the job started")
        );
        assert_eq!(batch.report.totals.deadline_exceeded, 1);
        assert_eq!(engine.cache().stats().entries, 0);
    }

    #[test]
    fn deadline_cancels_cooperatively_between_stages() {
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        // The job passes the admission gate (200 ms is generous for
        // pickup) but sleeps 500 ms before the flow starts, so the
        // first between-stage check cancels it.
        let batch = engine.run_batch_resilient(
            vec![job("slow", 1)
                .with_deadline_ms(200)
                .with_fault(Fault::Hang(500))],
            ResilienceOptions::default(),
        );
        assert_eq!(batch.results[0].status, JobStatus::DeadlineExceeded);
        assert_eq!(
            batch.results[0].error.as_deref(),
            Some("deadline exceeded before elaborate")
        );
        assert_eq!(batch.results[0].attempts, 1, "deadlines are never retried");
        assert_eq!(engine.cache().stats().entries, 0, "never cached");
    }

    #[test]
    fn breaker_trips_fast_fails_then_recovers_via_probe() {
        let engine = BatchEngine::new(EngineConfig {
            workers: 1,
            max_retries: 0,
            retry_backoff: Duration::from_millis(1),
            ..EngineConfig::default()
        });
        let options = ResilienceOptions {
            admission: AdmissionControl {
                breaker_threshold: Some(1),
                breaker_cooldown: 1,
                ..AdmissionControl::default()
            },
            ..ResilienceOptions::default()
        };
        let batch = engine.run_batch_resilient(
            vec![
                // Trips the `route` breaker on its only attempt.
                job("sick", 1).with_fault(Fault::Transient(9)),
                // Fast-failed while the breaker is open (cooldown 1).
                job("unlucky", 2),
                // The half-open probe: runs, succeeds, closes the breaker.
                job("probe", 3),
                job("healthy", 4),
            ],
            options,
        );
        assert_eq!(batch.results[0].status, JobStatus::Failed);
        assert_eq!(batch.results[1].status, JobStatus::Rejected);
        assert_eq!(
            batch.results[1].error.as_deref(),
            Some("circuit breaker open at `route`")
        );
        assert_eq!(batch.results[2].status, JobStatus::Succeeded);
        assert_eq!(batch.results[3].status, JobStatus::Succeeded);
        assert!(batch.fail_fast, "a breaker fast-fail flags the batch");
    }

    #[test]
    fn rejected_jobs_are_journaled_and_not_readmitted_on_resume() {
        let path = temp_journal("admit-resume");
        let jobs = || vec![job("a", 1), job("b", 2), job("c", 3)];
        let admission = || AdmissionControl {
            max_queue: Some(0),
            ..AdmissionControl::default()
        };
        let engine = BatchEngine::new(EngineConfig::with_workers(1));
        let writer = JournalWriter::create(&path).expect("create journal");
        let clean = engine.run_batch_resilient(
            jobs(),
            ResilienceOptions {
                admission: admission(),
                journal: Some(writer),
                ..ResilienceOptions::default()
            },
        );
        assert_eq!(clean.report.admission.rejected, 2);
        let journal = Journal::load(&path).expect("load journal");
        assert_eq!(journal.records.len(), 3, "rejections are journaled too");

        // Resuming under the same policy restores all three records —
        // the rejected jobs are not re-admitted as fresh duplicates.
        let fresh = BatchEngine::new(EngineConfig::with_workers(1));
        let resumed = fresh.run_batch_resilient(
            jobs(),
            ResilienceOptions {
                admission: admission(),
                resume: Some(journal),
                ..ResilienceOptions::default()
            },
        );
        assert!(resumed.results.iter().all(|r| r.resumed));
        assert_eq!(resumed.report.admission.admitted, 0);
        assert_eq!(clean.canonical_report(), resumed.canonical_report());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stage_cache_restores_the_shared_prefix_of_a_clock_sweep() {
        let cached = BatchEngine::new(EngineConfig {
            workers: 1,
            stage_cache: StageCacheMode::Memory,
            ..EngineConfig::default()
        });
        let sweep = || {
            vec![
                job("clk-50", 1).with_clock_mhz(50.0),
                job("clk-100", 1).with_clock_mhz(100.0),
            ]
        };
        let batch = cached.run_batch(sweep());
        assert!(batch.results.iter().all(|r| r.status.is_success()));
        let record = batch.report.stage_cache.as_ref().expect("stage cache on");
        // The quick profile does no clock-driven sizing, so the second
        // clock point restores everything up to and including route (6
        // stages) and recomputes only signoff and export.
        assert_eq!(record.hits, 6);
        assert_eq!(record.misses, 10, "8 cold misses + signoff + export");
        assert_eq!(record.full_restores, 0);
        assert_eq!(record.recomputes, 2);
        let hits_for = |stage: &str| {
            record
                .stages
                .iter()
                .find(|s| s.stage == stage)
                .map_or(0, |s| s.hits)
        };
        assert_eq!(hits_for("synthesize"), 1);
        assert_eq!(hits_for("signoff"), 0);

        // Incremental execution must be invisible in the artifacts.
        let plain = BatchEngine::new(EngineConfig::with_workers(1));
        let cold = plain.run_batch(sweep());
        assert_eq!(batch.canonical_report(), cold.canonical_report());
    }

    #[test]
    fn warm_engine_fully_restores_and_matches_cold_bytes() {
        let cold_engine = BatchEngine::new(EngineConfig {
            workers: 1,
            stage_cache: StageCacheMode::Memory,
            ..EngineConfig::default()
        });
        let jobs = || vec![job("a", 1), job("b", 2)];
        let cold = cold_engine.run_batch(jobs());
        let snapshots = Arc::clone(cold_engine.stage_cache().expect("attached"));

        // A fresh engine (empty whole-flow cache) sharing the snapshots:
        // every job re-runs its flow, but every stage is restored.
        let warm_engine = BatchEngine::with_stage_cache(EngineConfig::with_workers(1), snapshots);
        let warm = warm_engine.run_batch(jobs());
        let record = warm.report.stage_cache.as_ref().expect("stage cache on");
        assert_eq!(record.full_restores, 2);
        assert_eq!(record.recomputes, 0);
        assert_eq!(record.misses, 0);
        assert!(warm.results.iter().all(|r| !r.cache_hit));
        assert_eq!(cold.canonical_report(), warm.canonical_report());
    }

    #[test]
    fn transient_retry_restores_the_stages_before_the_fault() {
        let engine = BatchEngine::new(EngineConfig {
            workers: 1,
            retry_backoff: Duration::from_millis(1),
            stage_cache: StageCacheMode::Memory,
            ..EngineConfig::default()
        });
        // The injected fault fires at the route boundary, so the first
        // attempt snapshots elaborate..cts and the retry restores them.
        let batch = engine.run_batch(vec![job("flaky", 1).with_fault(Fault::Transient(1))]);
        assert_eq!(batch.results[0].status, JobStatus::Succeeded);
        assert_eq!(batch.results[0].attempts, 2);
        let record = batch.report.stage_cache.as_ref().expect("stage cache on");
        assert_eq!(record.hits, 5, "elaborate..cts restored on the retry");
        assert_eq!(record.recomputes, 1);
    }

    #[test]
    fn a_timed_out_attempt_releases_everything_it_held() {
        let engine = BatchEngine::new(EngineConfig {
            workers: 1,
            job_timeout: Duration::from_millis(50),
            stage_cache: StageCacheMode::Memory,
            ..EngineConfig::default()
        });
        let stage_cache = || engine.stage_cache().expect("in-memory stage cache");
        let held = Arc::strong_count(stage_cache());
        let batch = engine.run_batch(vec![job("wedged", 1).with_fault(Fault::Hang(60_000))]);
        assert_eq!(batch.results[0].status, JobStatus::TimedOut);
        assert_eq!(
            Arc::strong_count(stage_cache()),
            held,
            "nothing of the timed-out attempt outlives the batch"
        );
    }

    #[test]
    fn an_overrunning_flow_times_out_inside_its_job_span() {
        let tracer = Tracer::new();
        let engine = BatchEngine::with_tracer(
            EngineConfig {
                workers: 1,
                job_timeout: Duration::from_millis(1),
                ..EngineConfig::default()
            },
            tracer.clone(),
        );
        // A 16-bit multiplier takes tens of milliseconds even in an
        // optimised build: the 1 ms budget runs out mid-flow, with no
        // injected fault.
        let spec = JobSpec::new(
            "mul16",
            designs::multiplier(16).source(),
            TechnologyNode::N130,
            OptimizationProfile::open(),
        );
        let batch = engine.run_batch(vec![spec]);
        assert_eq!(batch.results[0].status, JobStatus::TimedOut);
        assert_eq!(
            batch.results[0].error.as_deref(),
            Some("exceeded the 1 ms job timeout")
        );
        assert_eq!(engine.cache().stats().entries, 0, "never cached");

        let at_return = tracer.spans().len();
        thread::sleep(Duration::from_millis(200));
        let spans = tracer.spans();
        assert_eq!(spans.len(), at_return, "no flow work after the job ended");
        let job = spans
            .iter()
            .find(|s| s.category == "job")
            .expect("job span");
        assert!(spans
            .iter()
            .filter(|s| s.category == "flow")
            .all(|s| s.end_us() <= job.end_us()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Without tier weights the batch window is `workers + max_queue`
        /// jobs in submission order: under reject the jobs past it are
        /// turned away, under shed the earliest ones are, and the
        /// admission record counts exactly those. `halt_after: Some(0)`
        /// decides admission and runs no flow.
        #[test]
        fn one_class_window_turns_away_the_same_jobs(
            n in 0usize..12,
            workers in 1usize..4,
            max_queue in 0usize..4,
            shed_oldest in any::<bool>(),
        ) {
            let engine = BatchEngine::new(EngineConfig::with_workers(workers));
            let options = ResilienceOptions {
                admission: AdmissionControl {
                    max_queue: Some(max_queue),
                    shed_oldest,
                    ..AdmissionControl::default()
                },
                halt_after: Some(0),
                ..ResilienceOptions::default()
            };
            let jobs: Vec<JobSpec> = (0..n).map(|i| job(&format!("j{i}"), i as u64)).collect();
            let batch = engine.run_batch_resilient(jobs, options);

            let window = workers + max_queue;
            let excess = n.saturating_sub(window);
            let expected: Vec<usize> = if shed_oldest {
                (0..excess).collect()
            } else {
                (window..n).collect()
            };
            let error = if shed_oldest {
                format!("shed at admission: displaced by newer submissions (queue window {window})")
            } else {
                format!("rejected at admission: queue full (queue window {window})")
            };
            prop_assert!(batch.halted);
            prop_assert_eq!(
                batch.results.iter().map(|r| r.index).collect::<Vec<_>>(),
                expected
            );
            for result in &batch.results {
                prop_assert_eq!(result.status, JobStatus::Rejected);
                prop_assert_eq!(result.error.as_deref(), Some(error.as_str()));
            }
            let admitted = n - excess;
            let admission = &batch.report.admission;
            prop_assert_eq!(admission.admitted, admitted);
            prop_assert_eq!(admission.rejected, if shed_oldest { 0 } else { excess });
            prop_assert_eq!(admission.shed, if shed_oldest { excess } else { 0 });
            prop_assert_eq!(admission.peak_queue_depth, admitted.saturating_sub(workers));
        }
    }

    #[test]
    fn worker_counts_do_not_change_the_canonical_report() {
        let jobs = || -> Vec<JobSpec> { (0..6).map(|i| job(&format!("job-{i}"), i)).collect() };
        let baseline = BatchEngine::new(EngineConfig::with_workers(1))
            .run_batch(jobs())
            .canonical_report();
        for workers in [2, 4, 8] {
            let batch = BatchEngine::new(EngineConfig::with_workers(workers)).run_batch(jobs());
            assert_eq!(batch.report.workers.len(), workers);
            assert_eq!(
                batch.report.workers.iter().map(|w| w.jobs_run).sum::<u64>(),
                6,
                "every job is attributed to exactly one worker"
            );
            assert!(batch.report.shards.is_empty());
            assert_eq!(batch.canonical_report(), baseline, "{workers} workers");
        }
    }
}
