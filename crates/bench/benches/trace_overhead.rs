//! Overhead gate for the observability layer: running a mid-size flow
//! with a live tracer must cost at most 5% more than running it with
//! tracing disabled (acceptance criterion of the `obs` subsystem).
//!
//! Criterion reports the two regimes; the hard gate is a separate
//! interleaved-median comparison so a noisy first round can retry
//! instead of failing the build on scheduler jitter.

use chipforge::flow::{FlowConfig, FlowCtx, OptimizationProfile, Pipeline};
use chipforge::hdl::designs;
use chipforge::obs::Tracer;
use chipforge::pdk::TechnologyNode;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

const MAX_RATIO: f64 = 1.05;
const ITERS: usize = 25;
const ROUNDS: usize = 5;

fn subject() -> (String, FlowConfig) {
    let design = designs::alu(8);
    let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::quick());
    (design.source().to_string(), config)
}

fn run_once(source: &str, config: &FlowConfig, tracer: &Tracer) -> f64 {
    let start = Instant::now();
    let outcome = Pipeline::standard()
        .run(source, config, &FlowCtx::new(tracer))
        .expect("alu(8) always flows");
    assert!(outcome.report.ppa.cells > 0);
    start.elapsed().as_secs_f64()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// One round of interleaved measurement: disabled and enabled runs
/// alternate so slow drift (thermal, scheduler) hits both equally.
fn measure_round(source: &str, config: &FlowConfig) -> f64 {
    let mut disabled = Vec::with_capacity(ITERS);
    let mut enabled = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        disabled.push(run_once(source, config, &Tracer::disabled()));
        enabled.push(run_once(source, config, &Tracer::new()));
    }
    median(&mut enabled) / median(&mut disabled)
}

fn assert_overhead_within_budget(source: &str, config: &FlowConfig) {
    // Warm caches and code paths before timing anything.
    for _ in 0..3 {
        run_once(source, config, &Tracer::disabled());
    }
    let mut ratios = Vec::new();
    for round in 1..=ROUNDS {
        let ratio = measure_round(source, config);
        println!("trace_overhead round {round}: enabled/disabled median ratio {ratio:.4}");
        if ratio <= MAX_RATIO {
            return;
        }
        ratios.push(ratio);
    }
    panic!(
        "tracing overhead exceeded {:.0}% in all {ROUNDS} rounds: ratios {ratios:?}",
        (MAX_RATIO - 1.0) * 100.0
    );
}

fn bench_trace_overhead(c: &mut Criterion) {
    let (source, config) = subject();
    assert_overhead_within_budget(&source, &config);

    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    group.bench_function("alu8_flow_untraced", |b| {
        b.iter(|| {
            Pipeline::standard()
                .run(&source, &config, &FlowCtx::default())
                .expect("flows")
        });
    });
    group.bench_function("alu8_flow_traced", |b| {
        b.iter(|| {
            Pipeline::standard()
                .run(&source, &config, &FlowCtx::new(&Tracer::new()))
                .expect("flows")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
