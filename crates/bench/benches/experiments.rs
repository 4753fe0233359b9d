//! Criterion benchmarks over whole experiments and full flow runs.
//!
//! One benchmark per experiment family, so each "table/figure" of the
//! reproduction has a tracked regeneration cost; plus end-to-end flow
//! benches per node/profile backing E6's runtime context.

use chipforge::flow::{FlowConfig, FlowCtx, OptimizationProfile, Pipeline};
use chipforge::hdl::designs;
use chipforge::pdk::TechnologyNode;
use chipforge_bench::experiments;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_full_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_flow");
    group.sample_size(10);
    let design = designs::counter(8);
    for (label, config) in [
        (
            "counter8_130nm_open",
            FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open()),
        ),
        (
            "counter8_28nm_commercial",
            FlowConfig::new(TechnologyNode::N28, OptimizationProfile::commercial()),
        ),
        (
            "counter8_130nm_quick",
            FlowConfig::new(TechnologyNode::N130, OptimizationProfile::quick()),
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                Pipeline::standard()
                    .run(design.source(), &config, &FlowCtx::default())
                    .expect("flows")
            });
        });
    }
    group.finish();
}

fn bench_model_experiments(c: &mut Criterion) {
    // The pure-model experiments are cheap; keep them tracked anyway.
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.bench_function("e1_value_chain", |b| b.iter(experiments::e1_value_chain));
    group.bench_function("e4_design_cost", |b| b.iter(experiments::e4_design_cost));
    group.bench_function("e5_mpw", |b| b.iter(experiments::e5_mpw));
    group.bench_function("e7_enablement", |b| {
        b.iter(experiments::e7_enablement_effort)
    });
    group.bench_function("e8_cloud_hub", |b| b.iter(experiments::e8_cloud_hub));
    group.bench_function("e10_talent_pipeline", |b| {
        b.iter(experiments::e10_talent_pipeline)
    });
    group.finish();
}

criterion_group!(benches, bench_full_flow, bench_model_experiments);
criterion_main!(benches);
