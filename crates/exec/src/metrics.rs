//! Serializable execution instrumentation.
//!
//! Everything a hub operator needs to answer "where did the batch's time
//! go": per-job queue wait and run time, per-stage wall time, per-worker
//! utilization, cache effectiveness and overall throughput. The report
//! is a plain data structure rendered to JSON via `serde::json`; the
//! measured stage times also drive the E14 calibration
//! ([`crate::calibrate`]).

use crate::cache::CacheStats;
use crate::job::{JobResult, JobStatus};
use chipforge_flow::PpaReport;
use chipforge_obs::MetricsRegistry;
use serde::{Deserialize, Serialize};

/// Wall time of one flow stage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageTime {
    /// Stage name (`elaborate`, `synthesize`, `place`, ...).
    pub step: String,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
}

/// Serializable view of one job's execution.
#[derive(Debug, Clone, Serialize)]
pub struct JobRecord {
    /// Position in the submitted batch.
    pub index: usize,
    /// Job display name.
    pub name: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Flow attempts made.
    pub attempts: u32,
    /// Whether the artifact came from the cache.
    pub cache_hit: bool,
    /// Worker that processed the job.
    pub worker: usize,
    /// Queue wait in milliseconds.
    pub queue_wait_ms: f64,
    /// Pickup-to-terminal time in milliseconds.
    pub run_ms: f64,
    /// Whether the job succeeded via a degraded (relaxed) retry.
    pub degraded: bool,
    /// Whether the result was restored from a checkpoint journal.
    pub resumed: bool,
    /// Per-stage wall times (empty for cache hits and failures: the
    /// stages were not executed by *this* job).
    pub stages: Vec<StageTime>,
    /// Error description for non-succeeded jobs.
    pub error: Option<String>,
}

/// One worker thread's share of the batch.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerRecord {
    /// Worker id (0-based).
    pub worker: usize,
    /// Jobs this worker processed.
    pub jobs_run: u64,
    /// Time spent processing jobs, in milliseconds.
    pub busy_ms: f64,
    /// `busy_ms` over the batch makespan.
    pub utilization: f64,
}

/// One engine shard's share of the batch fabric.
///
/// Everything here is scheduling telemetry, deliberately excluded from
/// [`canonical_report`]: which shard ran a job, how many steals happened
/// and whether the supervisor had to restart anything are properties of
/// *this* run, not of the batch's outcomes.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ShardRecord {
    /// Shard id (0-based).
    pub shard: usize,
    /// Jobs whose terminal result was produced by this shard's workers.
    pub jobs_run: u64,
    /// Jobs this shard's workers stole from other shards' queues.
    pub steals: u64,
    /// Times the supervisor quarantined this shard (killed or wedged).
    pub quarantines: u64,
    /// Times the supervisor restarted this shard's worker complement.
    pub restarts: u64,
    /// In-flight jobs the supervisor re-dispatched after a quarantine.
    pub redispatched: u64,
    /// Milliseconds between the shard's last heartbeat and batch end —
    /// large values mean the shard went silent (wedged or killed).
    pub heartbeat_age_ms: f64,
}

/// Batch-level aggregates.
#[derive(Debug, Clone, Serialize)]
pub struct BatchTotals {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that produced an artifact.
    pub succeeded: usize,
    /// Jobs that failed every attempt.
    pub failed: usize,
    /// Jobs that hit the per-job timeout.
    pub timed_out: usize,
    /// Jobs cancelled by the batch deadline or failure budget.
    pub cancelled: usize,
    /// Jobs quarantined by the resilience policy's attempt limit.
    pub quarantined: usize,
    /// Jobs turned away by admission control (bounded queue, shed-oldest
    /// displacement, or an open circuit breaker).
    pub rejected: usize,
    /// Jobs cooperatively cancelled when their deadline expired.
    pub deadline_exceeded: usize,
    /// Jobs that succeeded via a degraded (relaxed) retry.
    pub degraded: usize,
    /// Jobs restored from a checkpoint journal instead of executed.
    pub resumed: usize,
    /// Submission-to-last-result wall time, in milliseconds.
    pub makespan_ms: f64,
    /// Completed jobs per second of makespan.
    pub throughput_jobs_per_s: f64,
    /// Mean queue wait across jobs, in milliseconds.
    pub mean_queue_wait_ms: f64,
    /// Mean run time across executed (non-cache-hit) jobs, in ms.
    pub mean_run_ms: f64,
    /// Mean wall time per flow stage across executed jobs.
    pub stage_means_ms: Vec<StageTime>,
}

/// Admission-control accounting for one batch. Decisions are made at
/// submission time, so every field is deterministic across worker
/// counts; `peak_queue_depth` is bounded by `max_queue` whenever a
/// queue capacity is set (the CI overload smoke asserts this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionRecord {
    /// Jobs admitted into the work queue.
    pub admitted: usize,
    /// Jobs rejected because the queue window was full.
    pub rejected: usize,
    /// Admitted-then-displaced jobs under the shed-oldest policy.
    pub shed: usize,
    /// Admitted jobs beyond worker capacity — the waiting-room
    /// high-water mark.
    pub peak_queue_depth: usize,
}

/// One stage's share of the per-stage snapshot cache counters.
#[derive(Debug, Clone, Serialize)]
pub struct StageCounter {
    /// Stage name (`elaborate`, `synthesize`, ...).
    pub stage: String,
    /// Snapshot loads served from the cache.
    pub hits: u64,
    /// Snapshot loads that missed and forced the stage to execute.
    pub misses: u64,
}

/// Per-batch accounting for the two-level stage cache. Present in the
/// report only when the engine ran with a stage cache attached.
#[derive(Debug, Clone, Serialize)]
pub struct StageCacheRecord {
    /// Stage snapshot loads served, across all stages.
    pub hits: u64,
    /// Stage snapshot loads that missed, across all stages.
    pub misses: u64,
    /// Executed jobs whose every stage was restored from a snapshot —
    /// the flow ran without computing anything.
    pub full_restores: u64,
    /// Executed jobs that computed at least one stage.
    pub recomputes: u64,
    /// Disk-tier writes that failed (ENOSPC, permission loss, missing
    /// directory). After the first failure the disk tier is disabled
    /// for the life of the cache and the batch carries on memory-only.
    pub disk_write_errors: u64,
    /// Per-stage hit/miss counts, in canonical flow order.
    pub stages: Vec<StageCounter>,
}

/// Per-batch accounting for the remote stage-cache tier. Present only
/// when the engine ran with `--remote-cache`; every counter is a delta
/// over the batch, mirroring [`StageCacheRecord`]. `timeouts`,
/// `breaker_open` and `corrupt` are the degradation gauges: nonzero
/// values mean the remote was down, slow or lying and the batch carried
/// on locally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RemoteCacheRecord {
    /// Verified snapshots served by the remote.
    pub hits: u64,
    /// Remote lookups that could not be served (404, error, corrupt).
    pub misses: u64,
    /// Requests that timed out at the transport layer.
    pub timeouts: u64,
    /// Transport retries performed.
    pub retries: u64,
    /// Operations fast-failed by an open circuit breaker.
    pub breaker_open: u64,
    /// Times an endpoint breaker tripped open.
    pub trips: u64,
    /// Fetched bodies rejected by checksum or parse verification.
    pub corrupt: u64,
    /// Snapshots accepted by the remote.
    pub stores: u64,
    /// HTTP requests sent, retries included: the round trips the tier
    /// cost. A run's whole stage chain is looked up in one.
    pub requests: u64,
    /// Snapshots kept local because their frame exceeds the hub's body
    /// limit.
    pub oversize: u64,
}

impl RemoteCacheRecord {
    /// Whether the batch saw any remote-tier degradation worth warning
    /// the operator about.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.timeouts > 0 || self.breaker_open > 0 || self.trips > 0 || self.corrupt > 0
    }
}

/// The full JSON-serializable batch execution report.
#[derive(Debug, Clone, Serialize)]
pub struct ExecutionReport {
    /// Batch-level aggregates.
    pub totals: BatchTotals,
    /// Admission-control accounting.
    pub admission: AdmissionRecord,
    /// Cache counters at the end of the batch.
    pub cache: CacheStats,
    /// Stage-cache accounting for this batch; `None` when per-stage
    /// caching is disabled.
    pub stage_cache: Option<StageCacheRecord>,
    /// Remote stage-cache tier accounting; `None` when no remote cache
    /// was configured.
    pub remote_cache: Option<RemoteCacheRecord>,
    /// Attempt threads abandoned by timeouts and still running when the
    /// batch finished (the `exec.detached_threads` gauge).
    pub detached_threads: u64,
    /// Per-worker accounting.
    pub workers: Vec<WorkerRecord>,
    /// Per-shard fabric accounting, in shard order.
    pub shards: Vec<ShardRecord>,
    /// Per-job records, in submission order.
    pub jobs: Vec<JobRecord>,
}

impl ExecutionReport {
    /// Builds the report from ordered results and worker accounting.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        results: &[JobResult],
        mut workers: Vec<WorkerRecord>,
        cache: CacheStats,
        makespan_ms: f64,
        detached_threads: u64,
        admission: AdmissionRecord,
        stage_cache: Option<StageCacheRecord>,
        remote_cache: Option<RemoteCacheRecord>,
        shards: Vec<ShardRecord>,
    ) -> Self {
        let jobs: Vec<JobRecord> = results.iter().map(job_record).collect();
        workers.sort_by_key(|w| w.worker);
        for worker in &mut workers {
            worker.utilization = if makespan_ms > 0.0 {
                (worker.busy_ms / makespan_ms).clamp(0.0, 1.0)
            } else {
                0.0
            };
        }
        ExecutionReport {
            totals: totals(&jobs, makespan_ms),
            admission,
            cache,
            stage_cache,
            remote_cache,
            detached_threads,
            workers,
            shards,
            jobs,
        }
    }

    /// Renders the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }
}

fn job_record(result: &JobResult) -> JobRecord {
    // Stage times are attributed only to the job that actually executed
    // the flow; a cache hit's artifact carries the *original* run's
    // timings and would double-count.
    let stages = match (&result.outcome, result.cache_hit) {
        (Some(outcome), false) => outcome
            .report
            .steps
            .iter()
            .map(|s| StageTime {
                step: s.step.to_string(),
                wall_ms: s.wall_ms,
            })
            .collect(),
        _ => Vec::new(),
    };
    JobRecord {
        index: result.index,
        name: result.name.clone(),
        status: result.status,
        attempts: result.attempts,
        cache_hit: result.cache_hit,
        worker: result.worker,
        queue_wait_ms: result.queue_wait_ms,
        run_ms: result.run_ms,
        degraded: result.degraded,
        resumed: result.resumed,
        stages,
        error: result.error.clone(),
    }
}

/// The canonical (wall-clock-free) view of one job in a batch.
///
/// Everything here is a pure function of the job list, the fault plan
/// and the resilience policy — never of timing, worker count or whether
/// the batch was interrupted and resumed. Scheduling-dependent fields
/// (attempts, cache hits, worker ids, durations) are deliberately
/// excluded: a resumed duplicate re-executes where the clean run hit
/// the cache, yet both produce the same canonical record.
#[derive(Debug, Clone, Serialize)]
struct CanonicalJob {
    index: usize,
    name: String,
    status: String,
    degraded: bool,
    error: Option<String>,
    ppa: Option<PpaReport>,
    gds_fnv: Option<String>,
}

#[derive(Debug, Clone, Serialize)]
struct CanonicalReport {
    jobs: usize,
    succeeded: usize,
    failed: usize,
    timed_out: usize,
    cancelled: usize,
    quarantined: usize,
    rejected: usize,
    deadline_exceeded: usize,
    degraded: usize,
    results: Vec<CanonicalJob>,
}

/// Renders the canonical batch report as pretty-printed JSON.
///
/// This is the byte-for-byte reproducibility contract of checkpoint/
/// resume: a batch killed after any number of completed jobs and
/// resumed from its journal renders the same canonical report as the
/// uninterrupted run (`tests/resilience.rs`, CI chaos smoke).
#[must_use]
pub fn canonical_report(results: &[JobResult]) -> String {
    let count = |status: JobStatus| results.iter().filter(|r| r.status == status).count();
    let canonical: Vec<CanonicalJob> = results
        .iter()
        .map(|result| {
            let digests = result.artifact_digests();
            CanonicalJob {
                index: result.index,
                name: result.name.clone(),
                status: result.status.to_string(),
                degraded: result.degraded,
                error: result.error.clone(),
                ppa: digests.as_ref().map(|(ppa, _)| ppa.clone()),
                gds_fnv: digests.map(|(_, fnv)| format!("{fnv:016x}")),
            }
        })
        .collect();
    let report = CanonicalReport {
        jobs: results.len(),
        succeeded: count(JobStatus::Succeeded),
        failed: count(JobStatus::Failed),
        timed_out: count(JobStatus::TimedOut),
        cancelled: count(JobStatus::Cancelled),
        quarantined: count(JobStatus::Quarantined),
        rejected: count(JobStatus::Rejected),
        deadline_exceeded: count(JobStatus::DeadlineExceeded),
        degraded: results.iter().filter(|r| r.degraded).count(),
        results: canonical,
    };
    let mut json = serde::json::to_string_pretty(&report);
    json.push('\n');
    json
}

fn totals(jobs: &[JobRecord], makespan_ms: f64) -> BatchTotals {
    // All aggregation flows through one obs registry: status counters,
    // queue-wait/run-time histograms, one histogram per flow stage. The
    // registry preserves first-encounter order, so `stage_means_ms`
    // still lists stages in flow order.
    let registry = MetricsRegistry::new();
    for job in jobs {
        registry.add(&format!("status.{}", job.status), 1);
        registry.observe("queue_wait_ms", job.queue_wait_ms);
        if !job.stages.is_empty() {
            registry.observe("run_ms", job.run_ms);
            for stage in &job.stages {
                registry.observe(&format!("stage.{}", stage.step), stage.wall_ms);
            }
        }
    }
    // Every executed job records the full stage set, so dividing each
    // stage's sum by the executed-job count gives the per-job mean.
    let executed = registry.histogram("run_ms").map_or(0, |h| h.count());
    let count = |status: JobStatus| {
        usize::try_from(registry.counter(&format!("status.{status}"))).unwrap_or(0)
    };
    let succeeded = count(JobStatus::Succeeded);
    let stage_means_ms = registry
        .histograms()
        .into_iter()
        .filter_map(|(name, hist)| {
            name.strip_prefix("stage.").map(|step| StageTime {
                step: step.to_string(),
                wall_ms: hist.sum() / executed.max(1) as f64,
            })
        })
        .collect();
    BatchTotals {
        jobs: jobs.len(),
        succeeded,
        failed: count(JobStatus::Failed),
        timed_out: count(JobStatus::TimedOut),
        cancelled: count(JobStatus::Cancelled),
        quarantined: count(JobStatus::Quarantined),
        rejected: count(JobStatus::Rejected),
        deadline_exceeded: count(JobStatus::DeadlineExceeded),
        degraded: jobs.iter().filter(|j| j.degraded).count(),
        resumed: jobs.iter().filter(|j| j.resumed).count(),
        makespan_ms,
        throughput_jobs_per_s: if makespan_ms > 0.0 {
            succeeded as f64 / (makespan_ms / 1_000.0)
        } else {
            0.0
        },
        mean_queue_wait_ms: registry
            .histogram("queue_wait_ms")
            .map_or(0.0, |h| h.mean()),
        mean_run_ms: registry.histogram("run_ms").map_or(0.0, |h| h.mean()),
        stage_means_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(index: usize, status: JobStatus) -> JobResult {
        JobResult {
            index,
            name: format!("job{index}"),
            status,
            attempts: 1,
            cache_hit: false,
            worker: 0,
            queue_wait_ms: 2.0,
            run_ms: 10.0,
            degraded: false,
            resumed: false,
            error: None,
            outcome: None,
            restored: None,
        }
    }

    #[test]
    fn totals_count_statuses_and_throughput() {
        let results = vec![
            result(0, JobStatus::Succeeded),
            result(1, JobStatus::Failed),
            result(2, JobStatus::TimedOut),
            result(3, JobStatus::Succeeded),
        ];
        let workers = vec![WorkerRecord {
            worker: 0,
            jobs_run: 4,
            busy_ms: 40.0,
            utilization: 0.0,
        }];
        let stats = CacheStats {
            hits: 0,
            misses: 4,
            evictions: 0,
            corrupted: 0,
            entries: 2,
        };
        let report = ExecutionReport::build(
            &results,
            workers,
            stats,
            100.0,
            0,
            AdmissionRecord::default(),
            None,
            None,
            vec![ShardRecord {
                shard: 0,
                jobs_run: 4,
                ..ShardRecord::default()
            }],
        );
        assert_eq!(report.totals.succeeded, 2);
        assert_eq!(report.totals.failed, 1);
        assert_eq!(report.totals.timed_out, 1);
        assert_eq!(report.totals.quarantined, 0);
        assert_eq!(report.detached_threads, 0);
        assert!((report.totals.throughput_jobs_per_s - 20.0).abs() < 1e-9);
        assert!((report.workers[0].utilization - 0.4).abs() < 1e-9);
        let json = report.to_json();
        for key in [
            "makespan_ms",
            "stage_means_ms",
            "utilization",
            "queue_wait_ms",
            "hits",
            "corrupted",
            "detached_threads",
            "quarantined",
            "heartbeat_age_ms",
            "steals",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn canonical_report_ignores_scheduling_dependent_fields() {
        let clean = result(0, JobStatus::Succeeded);
        let mut rescheduled = result(0, JobStatus::Succeeded);
        rescheduled.worker = 3;
        rescheduled.attempts = 5;
        rescheduled.cache_hit = true;
        rescheduled.resumed = true;
        rescheduled.queue_wait_ms = 777.0;
        rescheduled.run_ms = 999.0;
        assert_eq!(
            canonical_report(&[clean]),
            canonical_report(&[rescheduled]),
            "scheduling noise must not leak into the canonical report"
        );
        let quarantined = canonical_report(&[result(1, JobStatus::Quarantined)]);
        assert!(quarantined.contains("quarantined"));
        assert!(quarantined.ends_with('\n'));
    }
}
