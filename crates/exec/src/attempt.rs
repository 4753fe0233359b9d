//! The per-job execution path: one [`JobExecutor`] that both the batch
//! pool's workers and the hub's workers call to run one job.
//!
//! A job passes the batch's gates (failure budget, job deadline, circuit
//! breakers, quarantine), then the whole-flow artifact cache, then the
//! retry/degrade loop. Each attempt runs on the calling worker under one
//! deadline — the earlier of the job's own deadline and the attempt's
//! timeout — which the pipeline checks before every stage, so a timed-out
//! attempt stops at the next stage boundary and holds nothing afterwards.
//! Panics inside a job are contained by `catch_unwind` and surface as a
//! retryable attempt failure.
//!
//! The executor is long-lived: it owns the artifact cache, the optional
//! stage cache and the timeout/retry limits.
//! What changes per call — the job, the tracer its spans go to, and the
//! [`BatchContext`] it is judged against — is passed to
//! [`JobExecutor::run`].

use crate::cache::{ArtifactCache, CacheKey};
use crate::job::{JobResult, JobSpec, JobStatus};
use crate::stage_cache::StageCache;
use chipforge_admit::CircuitBreaker;
use chipforge_flow::{
    FlowConfig, FlowCtx, FlowError, FlowOutcome, FlowStep, Pipeline, StageHooks, StageStore,
};
use chipforge_obs::Tracer;
use chipforge_resil::{is_degradable_stage, Backoff, Disruption, FaultPlan, ResiliencePolicy};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Timeout and retry limits an executor applies to every job.
#[derive(Debug, Clone)]
pub struct AttemptLimits {
    /// Wall-time budget per attempt, checked before every flow stage;
    /// exceeding it reports [`JobStatus::TimedOut`]. An attempt that
    /// finishes after its budget is still timed out and is not cached.
    pub timeout: Duration,
    /// Extra attempts after a retryable (panicked or transient) attempt
    /// failure. Flow *errors* are deterministic and never retried;
    /// neither are timeouts, which would only double the damage. A
    /// quarantining [`ResiliencePolicy`] overrides this with its own
    /// `max_attempts`.
    pub max_retries: u32,
    /// Sleep before the first retry; doubles per subsequent retry up to
    /// `max_backoff`, with deterministic jitter in `[0.5, 1.0)` of the
    /// clamped delay.
    pub retry_backoff: Duration,
    /// Ceiling on any single retry delay.
    pub max_backoff: Duration,
}

impl Default for AttemptLimits {
    fn default() -> Self {
        AttemptLimits {
            timeout: Duration::from_secs(30),
            max_retries: 2,
            retry_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// One job as a worker hands it to [`JobExecutor::run`].
#[derive(Debug)]
pub struct QueuedJob {
    /// Position in the submission order (the hub's job id).
    pub index: usize,
    /// What to run.
    pub spec: JobSpec,
    /// The spec's canonical cache key.
    pub key: CacheKey,
    /// Absolute deadline for this job, if any. The flow checks it
    /// cooperatively between stages.
    pub deadline: Option<Instant>,
    /// When the job entered its queue; queue wait is measured from here.
    pub enqueued: Instant,
}

/// The batch a job runs in: its fault plan, resilience policy and
/// circuit breakers, plus the state jobs of one batch share
/// (quarantined keys, the failure budget, stage-cache tallies).
///
/// [`BatchContext::default`] is inert — no injected faults, the plain
/// retry policy, no breakers — which is what a hub passes:
/// its jobs are independent submissions, not members of a batch.
#[derive(Debug, Default)]
pub struct BatchContext {
    pub(crate) plan: FaultPlan,
    pub(crate) policy: ResiliencePolicy,
    pub(crate) breakers: Option<StageBreakers>,
    pub(crate) quarantined: Mutex<HashSet<CacheKey>>,
    pub(crate) failures: AtomicUsize,
    pub(crate) budget_blown: AtomicBool,
    pub(crate) breaker_fast_fails: AtomicUsize,
    /// Executed jobs whose every stage was restored from the stage
    /// cache / that computed at least one stage. Only tallied when a
    /// stage cache is attached.
    pub(crate) stage_full_restores: AtomicUsize,
    pub(crate) stage_recomputes: AtomicUsize,
}

impl BatchContext {
    /// Counts a terminal failure against the batch failure budget and
    /// trips the fail-fast latch when it is exceeded.
    fn count_failure(&self, result: &JobResult, tracer: &Tracer) {
        if !matches!(
            result.status,
            JobStatus::Failed | JobStatus::TimedOut | JobStatus::Quarantined
        ) {
            return;
        }
        let failures = self.failures.fetch_add(1, Ordering::SeqCst) + 1;
        if self.policy.failure_budget.is_some_and(|b| failures > b)
            && !self.budget_blown.swap(true, Ordering::SeqCst)
        {
            tracer.instant("budget-exhausted", "exec", &result.name);
            tracer.add("exec.budget_exhausted", 1);
        }
    }
}

/// One batch's per-stage circuit breakers, keyed by the typed flow
/// stage and created on a stage's first transient failure.
#[derive(Debug)]
pub(crate) struct StageBreakers {
    threshold: u32,
    cooldown: u32,
    by_stage: Mutex<HashMap<FlowStep, CircuitBreaker>>,
}

impl StageBreakers {
    /// Breakers that trip after `threshold` consecutive transient
    /// failures at one stage and fast-fail `cooldown` jobs before
    /// half-opening.
    pub(crate) fn new(threshold: u32, cooldown: u32) -> Self {
        StageBreakers {
            threshold: threshold.max(1),
            cooldown,
            by_stage: Mutex::new(HashMap::new()),
        }
    }

    /// Checks every tracked stage breaker (in stage-name order, so
    /// multi-breaker behavior is deterministic) and returns the stage
    /// whose open breaker refuses this job, if any.
    fn fast_fail(&self) -> Option<FlowStep> {
        let mut map = self.by_stage.lock().expect("breaker lock");
        let mut stages: Vec<FlowStep> = map.keys().copied().collect();
        stages.sort_unstable_by_key(|stage| stage.name());
        stages
            .into_iter()
            .find(|stage| !map.get_mut(stage).expect("stage present").admit())
    }

    /// Counts one transient failure at `stage` against its breaker.
    fn record_failure(&self, stage: FlowStep, tracer: &Tracer) {
        let mut map = self.by_stage.lock().expect("breaker lock");
        let breaker = map
            .entry(stage)
            .or_insert_with(|| CircuitBreaker::new(self.threshold, self.cooldown));
        let before = breaker.state();
        breaker.record_failure();
        let after = breaker.state();
        if tracer.is_enabled() {
            tracer.set_gauge(&format!("admit.breaker_state.{stage}"), after.as_gauge());
            if after != before {
                tracer.instant("breaker-open", "exec", stage.name());
                tracer.add("admit.breaker_trips", 1);
            }
        }
    }

    /// Reports a fully successful job to every tracked breaker (a
    /// success exercises all stages, so it resets or closes them all).
    fn record_success(&self, tracer: &Tracer) {
        let mut map = self.by_stage.lock().expect("breaker lock");
        for (stage, breaker) in map.iter_mut() {
            let before = breaker.state();
            breaker.record_success();
            if tracer.is_enabled() && breaker.state() != before {
                tracer.set_gauge(
                    &format!("admit.breaker_state.{stage}"),
                    breaker.state().as_gauge(),
                );
                tracer.instant("breaker-close", "exec", stage.name());
            }
        }
    }
}

/// Runs single jobs to a terminal [`JobResult`]: gates, artifact cache,
/// retry/degrade loop, per-attempt deadline.
pub struct JobExecutor {
    limits: AttemptLimits,
    cache: Arc<ArtifactCache>,
    stage_cache: Option<Arc<StageCache>>,
}

impl JobExecutor {
    /// An executor over the given caches.
    #[must_use]
    pub fn new(
        limits: AttemptLimits,
        cache: Arc<ArtifactCache>,
        stage_cache: Option<Arc<StageCache>>,
    ) -> Self {
        JobExecutor {
            limits,
            cache,
            stage_cache,
        }
    }

    /// The whole-flow artifact cache.
    #[must_use]
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The per-stage snapshot cache, if one is attached.
    #[must_use]
    pub fn stage_cache(&self) -> Option<&Arc<StageCache>> {
        self.stage_cache.as_ref()
    }

    /// Runs `job` to a terminal result on behalf of `worker`, wrapped
    /// in a `job` span on `tracer` with its lifecycle metrics.
    pub fn run(
        &self,
        worker: usize,
        job: &QueuedJob,
        batch: &BatchContext,
        tracer: &Tracer,
    ) -> JobResult {
        let queue_wait_ms = job.enqueued.elapsed().as_secs_f64() * 1_000.0;
        let span = tracer.span(&job.spec.name, "job");
        let job_tracer = tracer.at(span.id(), tracer.default_track());
        let base = JobResult {
            worker,
            queue_wait_ms,
            ..JobResult::blank(job.index, &job.spec.name)
        };
        let result = self.run_gated(job, base, batch, &job_tracer);
        if tracer.is_enabled() {
            tracer.observe("exec.queue_wait_ms", result.queue_wait_ms);
            tracer.observe("exec.run_ms", result.run_ms);
            tracer.add(&format!("exec.status.{}", result.status), 1);
            span.finish_with_detail(&result.status.to_string());
        }
        batch.count_failure(&result, tracer);
        result
    }

    /// The gates a job passes before any flow runs, then the artifact
    /// cache, then the attempt loop. `base` is the job's result skeleton.
    fn run_gated(
        &self,
        job: &QueuedJob,
        base: JobResult,
        batch: &BatchContext,
        tracer: &Tracer,
    ) -> JobResult {
        let name = &job.spec.name;
        if batch.budget_blown.load(Ordering::SeqCst) {
            return JobResult {
                error: Some("batch failure budget exhausted before the job started".into()),
                ..base
            };
        }
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            tracer.instant("deadline-exceeded", "exec", name);
            tracer.add("admit.deadline_exceeded", 1);
            return JobResult {
                status: JobStatus::DeadlineExceeded,
                error: Some("deadline expired before the job started".into()),
                ..base
            };
        }
        if let Some(stage) = batch.breakers.as_ref().and_then(StageBreakers::fast_fail) {
            batch.breaker_fast_fails.fetch_add(1, Ordering::SeqCst);
            tracer.instant("breaker-fast-fail", "exec", name);
            tracer.add("admit.breaker_fast_fail", 1);
            return JobResult {
                status: JobStatus::Rejected,
                error: Some(format!("circuit breaker open at `{stage}`")),
                ..base
            };
        }

        let picked_up = Instant::now();
        if batch.policy.quarantine
            && batch
                .quarantined
                .lock()
                .expect("quarantine lock")
                .contains(&job.key)
        {
            tracer.instant("quarantine-skip", "exec", name);
            tracer.add("exec.quarantine.skipped", 1);
            return JobResult {
                status: JobStatus::Quarantined,
                error: Some("identical inputs already quarantined in this batch".into()),
                ..base
            };
        }

        if let Some(outcome) = self.cache.lookup(job.key) {
            tracer.instant("cache-hit", "exec", name);
            tracer.add("exec.cache.hits", 1);
            return JobResult {
                status: JobStatus::Succeeded,
                cache_hit: true,
                run_ms: picked_up.elapsed().as_secs_f64() * 1_000.0,
                outcome: Some(outcome),
                ..base
            };
        }
        tracer.instant("cache-miss", "exec", name);
        tracer.add("exec.cache.misses", 1);
        let result = self.retry_loop(job, base, batch, tracer);
        JobResult {
            run_ms: picked_up.elapsed().as_secs_f64() * 1_000.0,
            ..result
        }
    }

    /// The retry/degrade loop: attempts the flow until it reaches a
    /// terminal status. The caller fills in `run_ms`.
    fn retry_loop(
        &self,
        job: &QueuedJob,
        base: JobResult,
        batch: &BatchContext,
        tracer: &Tracer,
    ) -> JobResult {
        let name = &job.spec.name;
        let key_hex = job.key.to_string();
        let backoff = Backoff {
            base: self.limits.retry_backoff,
            max: self.limits.max_backoff,
            seed: batch.plan.seed,
        };
        let retry = |attempts: u32| {
            tracer.instant("retry", "exec", name);
            tracer.add("exec.retries", 1);
            thread::sleep(backoff.delay(&key_hex, attempts));
        };
        // A quarantining policy owns the attempt budget; otherwise the
        // executor's own retry limit applies.
        let allowed_attempts = if batch.policy.quarantine {
            batch.policy.max_attempts.max(1)
        } else {
            self.limits.max_retries + 1
        };
        let mut attempts = 0u32;
        let mut degraded = false;
        loop {
            attempts += 1;
            let mut plan = AttemptPlan::of(job, tracer);
            if degraded {
                // A degraded attempt runs with relief parameters, no
                // further injected disruption (so its outcome is
                // deterministic) and no stage store: a relaxed-parameter
                // rerun must not seed snapshots other jobs could
                // restore, mirroring the whole-flow no-caching rule
                // below.
                plan.flow_config = plan.flow_config.degraded();
            } else {
                plan.disruption = batch.plan.disruption(&key_hex, attempts);
                job.spec.fault.apply(&mut plan.disruption, attempts);
                plan.stage_store = self.stage_cache.as_deref();
            }
            match self.run_attempt(&plan) {
                Attempt::Done(outcome, tally) => {
                    if let Some(breakers) = &batch.breakers {
                        breakers.record_success(tracer);
                    }
                    if !degraded && self.stage_cache.is_some() {
                        if tally.executed == 0 && tally.restored > 0 {
                            batch.stage_full_restores.fetch_add(1, Ordering::SeqCst);
                            tracer.instant("stage-full-restore", "exec", name);
                        } else if tally.executed > 0 {
                            batch.stage_recomputes.fetch_add(1, Ordering::SeqCst);
                        }
                        if tracer.is_enabled() {
                            tracer.add("exec.stage_cache.restored", u64::from(tally.restored));
                            tracer.add("exec.stage_cache.executed", u64::from(tally.executed));
                        }
                    }
                    let outcome = Arc::new(*outcome);
                    if degraded {
                        // Degraded artifacts are never cached: a relaxed-
                        // parameter rerun must not alias the full-effort
                        // artifact under the same content key.
                        tracer.instant("degraded-success", "exec", name);
                    } else {
                        self.cache.insert(job.key, Arc::clone(&outcome));
                    }
                    return JobResult {
                        status: JobStatus::Succeeded,
                        attempts,
                        degraded,
                        outcome: Some(outcome),
                        ..base
                    };
                }
                Attempt::FlowError(message) => {
                    return ended(base, JobStatus::Failed, attempts, message);
                }
                Attempt::DeadlineExceeded(stage) => {
                    tracer.instant("deadline-exceeded", "exec", name);
                    tracer.add("admit.deadline_exceeded", 1);
                    // Cooperative cancellation between stages: the
                    // partial work is discarded, never cached and never
                    // retried — a retry could not finish either.
                    let message = format!("deadline exceeded before {stage}");
                    return ended(base, JobStatus::DeadlineExceeded, attempts, message);
                }
                Attempt::Transient(stage) => {
                    tracer.instant("transient-fault", "exec", &format!("{name}: {stage}"));
                    tracer.add("exec.faults.transient", 1);
                    if let Some(breakers) = &batch.breakers {
                        breakers.record_failure(stage, tracer);
                    }
                    if batch.policy.degrade && !degraded && is_degradable_stage(stage) {
                        // Graceful degradation: retry the congestion-
                        // prone stage once with relaxed parameters
                        // instead of burning the whole job.
                        degraded = true;
                        tracer.instant("degrade", "exec", name);
                        tracer.add("exec.degraded", 1);
                        continue;
                    }
                    if attempts < allowed_attempts {
                        retry(attempts);
                        continue;
                    }
                    let message = format!("transient fault at {stage} on all {attempts} attempts");
                    let failed = ended(base, JobStatus::Failed, attempts, message);
                    return exhausted(failed, job.key, batch, tracer);
                }
                Attempt::Panicked(message) => {
                    if attempts < allowed_attempts {
                        retry(attempts);
                        continue;
                    }
                    let message = format!("panicked on all {attempts} attempts: {message}");
                    let failed = ended(base, JobStatus::Failed, attempts, message);
                    return exhausted(failed, job.key, batch, tracer);
                }
                Attempt::TimedOut => {
                    let message = format!(
                        "exceeded the {} ms job timeout",
                        self.limits.timeout.as_millis()
                    );
                    return ended(base, JobStatus::TimedOut, attempts, message);
                }
            }
        }
    }

    /// Runs one attempt on the calling worker under one deadline: the
    /// earlier of the job's deadline and `now + timeout`. The pipeline
    /// stops at the first stage boundary past it; the stage it declined
    /// reports as the job's deadline or as a timeout, whichever deadline
    /// was the earlier. An attempt that ends past its timeout for any
    /// other reason is timed out too, so a late artifact is never cached.
    fn run_attempt(&self, plan: &AttemptPlan<'_>) -> Attempt {
        let timeout_at = Instant::now().checked_add(self.limits.timeout);
        let job_deadline_first = plan
            .deadline
            .is_some_and(|d| timeout_at.is_none_or(|t| d < t));
        let deadline = if job_deadline_first {
            plan.deadline
        } else {
            timeout_at
        };
        let finished = catch_unwind(AssertUnwindSafe(|| execute(plan, deadline)));
        match finished {
            Ok(Err(ExecError::Deadline(stage))) if job_deadline_first => {
                Attempt::DeadlineExceeded(stage)
            }
            Ok(Err(ExecError::Deadline(_))) => Attempt::TimedOut,
            _ if timeout_at.is_some_and(|t| Instant::now() >= t) => Attempt::TimedOut,
            Ok(Ok((outcome, tally))) => Attempt::Done(Box::new(outcome), tally),
            Ok(Err(ExecError::Transient(stage))) => Attempt::Transient(stage),
            Ok(Err(ExecError::Flow(message))) => Attempt::FlowError(message),
            Err(payload) => Attempt::Panicked(panic_message(payload.as_ref())),
        }
    }
}

/// `base` ended without an artifact after `attempts` attempts.
fn ended(base: JobResult, status: JobStatus, attempts: u32, error: String) -> JobResult {
    JobResult {
        status,
        attempts,
        error: Some(error),
        ..base
    }
}

/// Terminal handling for a job that exhausted its retryable attempts:
/// quarantined under a quarantining policy, the plain `failed` result
/// otherwise.
fn exhausted(failed: JobResult, key: CacheKey, batch: &BatchContext, tracer: &Tracer) -> JobResult {
    if !batch.policy.quarantine {
        return failed;
    }
    batch
        .quarantined
        .lock()
        .expect("quarantine lock")
        .insert(key);
    tracer.instant("quarantine", "exec", &failed.name);
    tracer.add("exec.quarantined", 1);
    let message = failed.error.as_deref().unwrap_or_default();
    JobResult {
        status: JobStatus::Quarantined,
        error: Some(format!(
            "quarantined after {} failed attempts: {message}",
            failed.attempts
        )),
        ..failed
    }
}

/// Everything one attempt needs, borrowed from the job being run.
struct AttemptPlan<'a> {
    spec: &'a JobSpec,
    flow_config: FlowConfig,
    disruption: Disruption,
    stage_store: Option<&'a StageCache>,
    /// The job's own deadline; the attempt adds its timeout.
    deadline: Option<Instant>,
    tracer: &'a Tracer,
}

impl<'a> AttemptPlan<'a> {
    /// A full-effort, undisrupted attempt of `job` without a stage store.
    fn of(job: &'a QueuedJob, tracer: &'a Tracer) -> Self {
        AttemptPlan {
            spec: &job.spec,
            flow_config: job.spec.flow_config(),
            disruption: Disruption::none(),
            stage_store: None,
            deadline: job.deadline,
            tracer,
        }
    }
}

/// How many stages an attempt computed versus restored from the stage
/// cache — the executor's view of how incremental the flow run was.
#[derive(Clone, Copy, Default)]
struct StageTally {
    executed: u32,
    restored: u32,
}

/// The executor's [`StageHooks`]: fires the injected transient fault at
/// its named stage boundary (instead of string-matching outside the
/// flow) and tallies executed-versus-restored stages for the report.
struct AttemptHooks {
    transient_stage: Option<FlowStep>,
    executed: Cell<u32>,
    restored: Cell<u32>,
}

impl AttemptHooks {
    fn new(transient_stage: Option<FlowStep>) -> Self {
        AttemptHooks {
            transient_stage,
            executed: Cell::new(0),
            restored: Cell::new(0),
        }
    }

    fn tally(&self) -> StageTally {
        StageTally {
            executed: self.executed.get(),
            restored: self.restored.get(),
        }
    }
}

impl StageHooks for AttemptHooks {
    fn before_stage(&self, step: FlowStep) -> Result<(), FlowError> {
        if self.transient_stage == Some(step) {
            return Err(FlowError::Interrupted {
                stage: step,
                reason: "injected transient fault".into(),
            });
        }
        Ok(())
    }

    fn stage_finished(&self, _step: FlowStep, restored: bool) {
        let counter = if restored {
            &self.restored
        } else {
            &self.executed
        };
        counter.set(counter.get() + 1);
    }
}

enum Attempt {
    Done(Box<FlowOutcome>, StageTally),
    FlowError(String),
    Transient(FlowStep),
    /// The flow cancelled itself between stages; the payload is the
    /// stage it declined to start.
    DeadlineExceeded(FlowStep),
    Panicked(String),
    TimedOut,
}

enum ExecError {
    Transient(FlowStep),
    Deadline(FlowStep),
    Flow(String),
}

/// Runs the flow of `plan`, cancelled at the first stage boundary past
/// `deadline`.
fn execute(
    plan: &AttemptPlan<'_>,
    deadline: Option<Instant>,
) -> Result<(FlowOutcome, StageTally), ExecError> {
    if let Some(ms) = plan.disruption.slow_ms {
        // An injected hang or slow-down ends at the deadline: the first
        // stage check then cancels the attempt.
        let pause = Duration::from_millis(ms);
        thread::sleep(deadline.map_or(pause, |d| {
            pause.min(d.saturating_duration_since(Instant::now()))
        }));
    }
    if plan.disruption.panic {
        panic!("injected fault in job `{}`", plan.spec.name);
    }
    // Injected transient faults fire *inside* the pipeline, at their
    // named stage boundary, via the hooks — so a faulted attempt still
    // snapshots (and on retry restores) the stages before the fault.
    let hooks = AttemptHooks::new(plan.disruption.transient_stage);
    let mut ctx = FlowCtx::new(plan.tracer)
        .with_deadline(deadline)
        .with_hooks(&hooks);
    if let Some(store) = plan.stage_store {
        ctx = ctx.with_stages(store as &dyn StageStore);
    }
    match Pipeline::standard().run(&plan.spec.source, &plan.flow_config, &ctx) {
        Ok(outcome) => Ok((outcome, hooks.tally())),
        Err(FlowError::Interrupted { stage, .. }) => Err(ExecError::Transient(stage)),
        Err(FlowError::DeadlineExceeded { stage }) => Err(ExecError::Deadline(stage)),
        Err(other) => Err(ExecError::Flow(other.to_string())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge_flow::OptimizationProfile;
    use chipforge_hdl::designs;
    use chipforge_pdk::TechnologyNode;

    /// The hub's use: one long-lived executor, an inert batch context,
    /// no engine around it.
    #[test]
    fn executor_runs_jobs_outside_any_batch() {
        let executor = JobExecutor::new(
            AttemptLimits::default(),
            Arc::new(ArtifactCache::new(8)),
            Some(StageCache::in_memory()),
        );
        let queued = |index: usize| {
            let spec = JobSpec::new(
                "standalone",
                designs::counter(4).source(),
                TechnologyNode::N130,
                OptimizationProfile::quick(),
            );
            QueuedJob {
                index,
                key: CacheKey::of(&spec),
                spec,
                deadline: None,
                enqueued: Instant::now(),
            }
        };
        let batch = BatchContext::default();
        let tracer = Tracer::new();
        let first = executor.run(0, &queued(0), &batch, &tracer);
        let second = executor.run(1, &queued(1), &batch, &tracer);
        assert_eq!(first.status, JobStatus::Succeeded);
        assert_eq!((first.attempts, first.cache_hit), (1, false));
        assert!(second.cache_hit, "the executor's cache outlives the call");
        assert_eq!(second.index, 1);
        // The job span is the root of what the tracer saw: no batch or
        // worker spans are recorded around a single job.
        let spans = tracer.spans();
        assert!(spans.iter().any(|s| s.category == "job"));
        assert!(spans.iter().all(|s| s.name != "batch"));
    }
}
