//! `batch_classroom`: 36 jobs through a fresh `BatchEngine` per
//! repetition — a closed loop that saturates the engine's workers.

use crate::batches::{check_against_direct_runs, Repetitions};
use crate::common::{timed_setup, workers, Ctx, RunResult};
use crate::inputs::{cheapest_jobs, classroom_jobs};
use crate::micro;
use chipforge_exec::{BatchEngine, BatchReport, CacheKey, EngineConfig, JobSpec, StageCacheMode};
use chipforge_flow::FlowOutcome;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// A fresh engine with an in-memory stage cache and no remote tier.
pub fn engine(workers: usize) -> BatchEngine {
    BatchEngine::new(EngineConfig {
        stage_cache: StageCacheMode::Memory,
        workers,
        ..EngineConfig::default()
    })
}

fn setup(seed: u64) -> Vec<JobSpec> {
    let jobs = classroom_jobs(seed);
    // Warm the process up through the surface the repetitions use.
    std::hint::black_box(engine(workers()).run_batch(cheapest_jobs(&jobs, 2)));
    jobs
}

/// The distinct artifacts of a batch, by cache key.
fn distinct_outcomes(jobs: &[JobSpec], batch: &BatchReport) -> Vec<(CacheKey, Arc<FlowOutcome>)> {
    let mut seen = BTreeSet::new();
    jobs.iter()
        .zip(&batch.results)
        .filter_map(|(job, result)| {
            let key = CacheKey::of(job);
            seen.insert(key)
                .then(|| result.outcome.clone().map(|o| (key, o)))
                .flatten()
        })
        .collect()
}

pub fn run(ctx: &Ctx<'_>) -> RunResult {
    let (jobs, setup_s) = timed_setup(|| setup(ctx.seed));
    let rec = ctx.rec;
    let pool = workers();
    let mut reps = Repetitions::new(ctx, &jobs);
    let mut first_digest = String::new();
    let mut traced = BTreeMap::new();

    let root = rec.open("bench.batch_classroom", None, 0, 0);
    let loop_started = Instant::now();
    while reps.time_left(loop_started) {
        let first = reps.rep_s.is_empty();
        let batch = reps.repetition(root, engine(pool));
        if first {
            let check_span = rec.open("bench.checks", root, 0, 0);
            check_against_direct_runs(&mut reps.checker, &jobs, &batch);
            first_digest = batch.deterministic_digest();
            rec.close(check_span);
        }
        if first && ctx.traced() {
            let probes = rec.open("bench.probes", root, 0, 0);
            traced = micro::exec_primitives(
                &jobs,
                &distinct_outcomes(&jobs, &batch),
                &micro::capture_snapshots(&cheapest_jobs(&jobs, 3)),
                &ctx.out_dir,
            );
            rec.close(probes);
        }
    }
    if ctx.traced() {
        // One worker against the pool, on the same jobs: the speed-up the
        // pool buys on real compute, and the same artifacts either way.
        let probes = rec.open("bench.probes", root, 0, 0);
        let started = Instant::now();
        let serial = engine(1).run_batch(jobs.clone());
        let serial_s = started.elapsed().as_secs_f64();
        reps.checker
            .check(serial.deterministic_digest() == first_digest, || {
                format!("1 worker and {pool} workers produced different artifacts")
            });
        traced.insert(
            "exec.pool_speedup",
            serial_s / crate::stats::median(&reps.rep_s),
        );
        rec.close(probes);
    }
    rec.close(root);
    reps.finish(setup_s, traced)
}
