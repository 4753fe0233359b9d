//! What the three batch workloads share: repetitions of one timed
//! `run_batch` each on a fresh engine, the checks every batch must
//! pass, and the per-layer figures an `ExecutionReport` yields.

use crate::common::{
    check_outcome, end_to_end, num, num_seq, reference_run, workers, Checker, Ctx, Digest,
    RunResult,
};
use crate::flow_probe::{stage_metric, stage_span};
use crate::inputs::distinct_jobs;
use crate::spans::{Recorder, SpanId};
use crate::stats;
use chipforge_exec::{BatchEngine, BatchReport, CacheKey, JobResult, JobSpec};
use chipforge_flow::FlowStep;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// How long a job took once a worker had picked it up. In a batch that
/// saturates its workers the wait before that is the job's place in the
/// line, not a cost of the job, so it is left to `jobs_per_s`.
fn turnaround_ms(result: &JobResult) -> f64 {
    if result.status.is_success() {
        result.run_ms
    } else {
        f64::INFINITY
    }
}

/// Counts every job of a batch as one operation, checks repetition `k`
/// against repetition 1, and on the first repetition checks every
/// distinct outcome.
fn check_batch(
    checker: &mut Checker,
    jobs: &[JobSpec],
    batch: &BatchReport,
    first_canonical: &mut Option<String>,
) {
    for result in &batch.results {
        checker.operation(result.status.is_success(), || {
            format!("{}: job ended {}", result.name, result.status)
        });
    }
    checker.check(batch.results.len() == jobs.len(), || {
        format!("{} of {} jobs reported", batch.results.len(), jobs.len())
    });
    let canonical = batch.canonical_report();
    match first_canonical {
        Some(first) => checker.check(*first == canonical, || {
            "canonical report differs from the first repetition".into()
        }),
        None => {
            let mut seen = BTreeSet::new();
            for (job, result) in jobs.iter().zip(&batch.results) {
                if let (true, Some(outcome)) = (seen.insert(CacheKey::of(job)), &result.outcome) {
                    check_outcome(checker, &job.name, &job.source, outcome);
                }
            }
            *first_canonical = Some(canonical);
        }
    }
}

/// The same (design, configuration) must give the same PPA and GDS from
/// `Pipeline::run` as from the engine: one job per design is re-run
/// directly and compared.
pub fn check_against_direct_runs(checker: &mut Checker, jobs: &[JobSpec], batch: &BatchReport) {
    let mut seen = BTreeSet::new();
    for (job, result) in jobs.iter().zip(&batch.results) {
        if !seen.insert(job.name.clone()) {
            continue;
        }
        let direct = reference_run(&job.source, &job.flow_config()).map(|o| Digest::of_outcome(&o));
        let via_engine = result
            .artifact_digests()
            .map(|(ppa, fnv)| Digest::of(&ppa, fnv));
        checker.check(direct.is_some() && direct == via_engine, || {
            format!("{}: engine and Pipeline::run disagree", job.name)
        });
    }
}

/// Records one repetition's spans from the engine's own report: a job
/// span per job on its worker's track, from pickup to done, and under
/// it the stages the job computed, back to back.
fn record_batch_spans(
    rec: &Recorder,
    parent: Option<SpanId>,
    rep: u64,
    batch_started_us: f64,
    batch: &BatchReport,
) {
    for record in &batch.report.jobs {
        let op = rep * 1_000 + record.index as u64;
        let track = record.worker as u32 + 1;
        let start = batch_started_us + record.queue_wait_ms * 1e3;
        let job = rec.record(
            "exec.job",
            parent,
            op,
            track,
            start,
            start + record.run_ms * 1e3,
        );
        let mut cursor = start;
        for stage in &record.stages {
            let Some(step) = FlowStep::ALL.iter().find(|s| s.name() == stage.step) else {
                continue;
            };
            let end = cursor + stage.wall_ms * 1e3;
            rec.record(stage_span(*step), job, op, track, cursor, end);
            cursor = end;
        }
    }
}

/// Mean wall per stage over the jobs that ran it, as the program's own
/// report states it, under the per-layer metric names.
fn stage_means(batch: &BatchReport, metrics: &mut BTreeMap<&'static str, Vec<f64>>) {
    for stage in &batch.report.totals.stage_means_ms {
        if let Some(name) = stage_metric(&stage.step) {
            metrics.entry(name).or_default().push(stage.wall_ms);
        }
    }
}

/// One repetition's engine metrics, from the `ExecutionReport`.
fn engine_metrics(
    jobs: &[JobSpec],
    batch: &BatchReport,
    layer: &mut BTreeMap<&'static str, Vec<f64>>,
) {
    let report = &batch.report;
    let mut push = |name: &'static str, value: f64| layer.entry(name).or_default().push(value);
    let executed: Vec<_> = report.jobs.iter().filter(|j| !j.cache_hit).collect();
    let compute: Vec<f64> = executed
        .iter()
        .map(|j| j.stages.iter().map(|s| s.wall_ms).sum())
        .collect();
    let run: Vec<f64> = executed.iter().map(|j| j.run_ms).collect();
    push("exec.queue_wait_mean_ms", report.totals.mean_queue_wait_ms);
    push("exec.run_mean_ms", stats::mean(&run));
    push("exec.compute_mean_ms", stats::mean(&compute));
    push(
        "exec.job_overhead_ms",
        stats::mean(&run) - stats::mean(&compute),
    );
    let utilization: Vec<f64> = report.workers.iter().map(|w| w.utilization).collect();
    push("exec.worker_utilization", stats::mean(&utilization));
    push("exec.artifact_hit_share", report.cache.hit_rate());
    if let Some(stage_cache) = &report.stage_cache {
        let loads = (stage_cache.hits + stage_cache.misses).max(1);
        push(
            "exec.stage_hit_share",
            stage_cache.hits as f64 / loads as f64,
        );
        push("exec.full_restores", stage_cache.full_restores as f64);
    }
    // Jobs that ran a flow beyond one per distinct artifact: duplicates
    // that were in flight together and both computed.
    push(
        "exec.duplicate_computes",
        executed.len() as f64 - distinct_jobs(jobs) as f64,
    );
    push(
        "exec.steals",
        report.shards.iter().map(|s| s.steals).sum::<u64>() as f64,
    );
    push(
        "exec.retries",
        executed
            .iter()
            .map(|j| u64::from(j.attempts.saturating_sub(1)))
            .sum::<u64>() as f64,
    );
    stage_means(batch, layer);
    // The remote tier's counters, when the engine had one.
    if let Some(remote) = report.remote_cache {
        let mut push = |name: &'static str, value: f64| layer.entry(name).or_default().push(value);
        push("remote.hits", remote.hits as f64);
        push("remote.misses", remote.misses as f64);
        push("remote.stores", remote.stores as f64);
        push("remote.retries", remote.retries as f64);
        push("remote.timeouts", remote.timeouts as f64);
        push(
            "remote.round_trips_per_job",
            (remote.hits + remote.misses + remote.stores) as f64 / jobs.len() as f64,
        );
    }
}

/// The repetitions of a batch workload and what they add up to.
pub struct Repetitions<'a> {
    ctx: &'a Ctx<'a>,
    jobs: &'a [JobSpec],
    pub checker: Checker,
    /// Canonical report every repetition must equal: the first
    /// repetition's, unless the workload sets it beforehand.
    pub first_canonical: Option<String>,
    /// Wall of each `run_batch`, in seconds.
    pub rep_s: Vec<f64>,
    job_ms: Vec<Vec<f64>>,
    layer: BTreeMap<&'static str, Vec<f64>>,
}

impl<'a> Repetitions<'a> {
    pub fn new(ctx: &'a Ctx<'a>, jobs: &'a [JobSpec]) -> Self {
        Repetitions {
            ctx,
            jobs,
            checker: Checker::default(),
            first_canonical: None,
            rep_s: Vec::new(),
            job_ms: Vec::new(),
            layer: BTreeMap::new(),
        }
    }

    /// Whether time is left for another repetition.
    pub fn time_left(&self, loop_started: Instant) -> bool {
        loop_started.elapsed().as_secs_f64() < self.ctx.seconds
    }

    /// One timed `run_batch` on `engine`, checked. Hands the batch back;
    /// the caller drops it before the next repetition, so the process
    /// never holds two.
    pub fn repetition(&mut self, root: Option<SpanId>, engine: BatchEngine) -> BatchReport {
        let rec = self.ctx.rec;
        let rep = self.rep_s.len() as u64;
        let rep_span = rec.open("bench.rep", root, rep, 0);
        let submitted = self.jobs.to_vec();
        let batch_span = rec.open("exec.run_batch", rep_span, rep, 0);
        let started_us = rec.now_us();
        let started = Instant::now();
        let batch = engine.run_batch(submitted);
        self.rep_s.push(started.elapsed().as_secs_f64());
        rec.close(batch_span);
        self.job_ms
            .push(batch.results.iter().map(turnaround_ms).collect());
        if self.ctx.traced() {
            record_batch_spans(rec, batch_span, rep, started_us, &batch);
            engine_metrics(self.jobs, &batch, &mut self.layer);
        }
        let check_span = rec.open("bench.checks", rep_span, rep, 0);
        check_batch(
            &mut self.checker,
            self.jobs,
            &batch,
            &mut self.first_canonical,
        );
        drop(engine);
        rec.close(check_span);
        rec.close(rep_span);
        batch
    }

    /// The run's result: the end-to-end metrics, or — traced — the
    /// engine's per-layer figures (median over repetitions) plus
    /// whatever the workload measured itself.
    pub fn finish(self, setup_s: f64, traced: BTreeMap<&'static str, f64>) -> RunResult {
        let mut detail: Vec<(String, Value)> = vec![
            ("repetitions_s".into(), num_seq(&self.rep_s)),
            ("measured_s".into(), num(stats::median(&self.rep_s))),
            ("workers".into(), Value::U64(workers() as u64)),
        ];
        let metrics = if self.ctx.traced() {
            let mut metrics: BTreeMap<&'static str, f64> = self
                .layer
                .iter()
                .map(|(name, samples)| (*name, stats::median(samples)))
                .collect();
            metrics.extend(traced);
            metrics
        } else {
            let jobs_per_s = self.jobs.len() as f64 / stats::median(&self.rep_s);
            end_to_end(setup_s, &self.job_ms, jobs_per_s, &mut detail)
        };
        RunResult {
            checker: self.checker,
            metrics,
            detail,
        }
    }
}
