//! Criterion benchmarks of the batch execution engine.
//!
//! Three regimes: a single worker (serial baseline), the full pool
//! (parallel speedup), and a warm artifact cache (the resubmission case
//! that dominates classroom workloads). Backs the throughput claims of
//! experiment E14.
//!
//! On single-core runners the two cold regimes coincide (the pool can
//! only time-slice); the warm-cache speedup is machine-independent.

use chipforge::exec::{
    AdmissionControl, BatchEngine, EngineConfig, JobSpec, ResilienceOptions, StageCacheMode,
};
use chipforge::flow::OptimizationProfile;
use chipforge::hdl::designs;
use chipforge::pdk::TechnologyNode;
use criterion::{criterion_group, criterion_main, Criterion};

fn batch() -> Vec<JobSpec> {
    // Small designs of similar cost, two seeds each: 12 jobs whose
    // critical path is much shorter than the serial total, so the pool
    // speedup is visible.
    let small = || {
        vec![
            designs::counter(8),
            designs::gray_encoder(8),
            designs::popcount(8),
            designs::lfsr(8),
            designs::pwm(8),
            designs::traffic_light(),
        ]
    };
    let mut jobs = Vec::new();
    for seed in [1u64, 2] {
        for design in small() {
            jobs.push(
                JobSpec::new(
                    design.name(),
                    design.source(),
                    TechnologyNode::N130,
                    OptimizationProfile::quick(),
                )
                .with_seed(seed),
            );
        }
    }
    jobs
}

fn bench_batch_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput");
    group.sample_size(10);

    group.bench_function("12_jobs_1_worker_cold", |b| {
        b.iter(|| {
            // A fresh engine per iteration keeps the cache cold.
            let engine = BatchEngine::new(EngineConfig::with_workers(1));
            engine.run_batch(batch())
        });
    });

    let workers = EngineConfig::default().workers;
    group.bench_function("12_jobs_pool_cold", |b| {
        b.iter(|| {
            let engine = BatchEngine::new(EngineConfig::with_workers(workers));
            engine.run_batch(batch())
        });
    });

    // The resilience plumbing (fault plan, quarantine set, journal
    // hooks) must cost nothing when inert: this regime is the same cold
    // pool run through `run_batch_resilient` with everything disabled,
    // and should stay within noise of `12_jobs_pool_cold` (budget: 5%).
    group.bench_function("12_jobs_pool_cold_inert_resilience", |b| {
        b.iter(|| {
            let engine = BatchEngine::new(EngineConfig::with_workers(workers));
            engine.run_batch_resilient(batch(), ResilienceOptions::default())
        });
    });

    // Admission control configured but never triggering: a queue window
    // far larger than the batch, flat tier weights and a breaker that
    // cannot trip. Exercises the tiered scheduler/window/breaker plumbing
    // without a single rejection; must also stay within 5% of
    // `12_jobs_pool_cold`.
    group.bench_function("12_jobs_pool_cold_permissive_admission", |b| {
        b.iter(|| {
            let engine = BatchEngine::new(EngineConfig::with_workers(workers));
            engine.run_batch_resilient(
                batch(),
                ResilienceOptions {
                    admission: AdmissionControl {
                        max_queue: Some(64),
                        tier_weights: Some([1.0, 1.0, 1.0]),
                        breaker_threshold: Some(1_000),
                        ..AdmissionControl::default()
                    },
                    ..ResilienceOptions::default()
                },
            )
        });
    });

    // A cold in-memory stage cache per iteration: every stage misses,
    // is snapshotted and stored, and each seed-2 job restores the
    // seed-1 front-end. Bounds the overhead of stage snapshotting on a
    // batch that barely reuses anything; must stay within 5% of
    // `12_jobs_pool_cold`.
    group.bench_function("12_jobs_pool_cold_stage_cache", |b| {
        b.iter(|| {
            let engine = BatchEngine::new(EngineConfig {
                stage_cache: StageCacheMode::Memory,
                ..EngineConfig::with_workers(workers)
            });
            engine.run_batch(batch())
        });
    });

    // One engine across iterations: after the first run every job is a
    // cache hit.
    let warm = BatchEngine::new(EngineConfig::with_workers(workers));
    let _ = warm.run_batch(batch());
    group.bench_function("12_jobs_warm_cache", |b| {
        b.iter(|| warm.run_batch(batch()));
    });

    group.finish();
}

criterion_group!(benches, bench_batch_throughput);
criterion_main!(benches);
