//! `flow_cold`: the 18 designs through `Pipeline::run`, one after the
//! other on one thread, nothing cached. A closed loop of one client.

use crate::common::{
    check_outcome, end_to_end, num, num_seq, obj, timed_setup, Checker, Ctx, RunResult,
};
use crate::flow_probe::{split_signoff, stage_metric, CaptureStore, SignoffSplit, StageTimer};
use crate::inputs::{flow_cold_config, flow_cold_specs, resolve, Rng};
use crate::stats;
use chipforge_flow::{canonical_outcome_json, FlowConfig, FlowCtx, FlowOutcome, Pipeline};
use chipforge_hdl::designs::Design;
use chipforge_obs::Tracer;
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// This many of the smallest designs run once during set-up, so the
/// measured passes start with the process's lazy state built.
const WARM_UP_DESIGNS: usize = 6;

struct Inputs {
    designs: Vec<Design>,
    config: FlowConfig,
}

fn run_flow(design: &Design, config: &FlowConfig, ctx: &FlowCtx<'_>) -> Option<FlowOutcome> {
    Pipeline::standard().run(design.source(), config, ctx).ok()
}

fn setup(seed: u64) -> Inputs {
    let mut designs: Vec<Design> = flow_cold_specs().iter().map(resolve).collect();
    let config = flow_cold_config();
    let tracer = Tracer::disabled();
    let mut by_size: Vec<&Design> = designs.iter().collect();
    by_size.sort_by_key(|d| d.source().len());
    for design in &by_size[..WARM_UP_DESIGNS] {
        std::hint::black_box(run_flow(design, &config, &FlowCtx::new(&tracer)));
    }
    Rng::stream(seed, "flow-order").shuffle(&mut designs);
    Inputs { designs, config }
}

pub fn run(ctx: &Ctx<'_>) -> RunResult {
    let (inputs, setup_s) = timed_setup(|| setup(ctx.seed));
    let Inputs { designs, config } = &inputs;
    let rec = ctx.rec;
    let tracer = Tracer::disabled();
    let mut checker = Checker::default();
    let mut detail: Vec<(String, Value)> = Vec::new();

    // Traced runs need each design's module and library for the signoff
    // split; building them is timed as the gen/pdk layers' direct cost.
    let mut direct_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut modules = Vec::new();
    let lib = config.pdk().library(config.profile.library);
    if ctx.traced() {
        for spec in flow_cold_specs() {
            let started = Instant::now();
            std::hint::black_box(resolve(&spec));
            direct_ms
                .entry("gen.resolve_ms")
                .or_default()
                .push(started.elapsed().as_secs_f64() * 1e3);
            let started = Instant::now();
            std::hint::black_box(config.pdk().library(config.profile.library));
            direct_ms
                .entry("pdk.library_ms")
                .or_default()
                .push(started.elapsed().as_secs_f64() * 1e3);
        }
        modules = designs
            .iter()
            .map(|d| chipforge_hdl::parse(d.source()).expect("corpus designs parse"))
            .collect();
    }

    let root = rec.open("bench.flow_cold", None, 0, 0);
    let timer = StageTimer::new(rec);
    let mut pass_s: Vec<f64> = Vec::new();
    let mut flow_ms: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    let mut first_pass: Vec<Option<u64>> = Vec::new();
    let mut split_sum = SignoffSplit::default();
    let mut flows_run = 0u64;
    let mut cells: Vec<(String, u64)> = Vec::new();
    let mut overflowed_edges = 0u64;
    let loop_started = Instant::now();
    while loop_started.elapsed().as_secs_f64() < ctx.seconds {
        let pass = pass_s.len() as u64;
        let pass_span = rec.open("bench.pass", root, pass, 0);
        let mut outcomes: Vec<Option<FlowOutcome>> = Vec::with_capacity(designs.len());
        let mut in_flows_s = 0.0;
        for (i, design) in designs.iter().enumerate() {
            let op = pass * 100 + i as u64;
            let flow_span = rec.open("flow.run", pass_span, op, 0);
            timer.begin(flow_span, op);
            let flow_ctx = FlowCtx::new(&tracer);
            let started = Instant::now();
            let outcome = if ctx.traced() {
                run_flow(design, config, &flow_ctx.with_hooks(&timer))
            } else {
                run_flow(design, config, &flow_ctx)
            };
            let wall_s = started.elapsed().as_secs_f64();
            rec.close(flow_span);
            in_flows_s += wall_s;
            flow_ms[i].push(if outcome.is_some() {
                wall_s * 1e3
            } else {
                f64::INFINITY
            });
            if let (true, Some(outcome)) = (ctx.traced(), &outcome) {
                split_signoff(
                    rec,
                    pass_span,
                    op,
                    &modules[i],
                    &lib,
                    config,
                    outcome,
                    &mut split_sum,
                );
            }
            outcomes.push(outcome);
        }
        rec.close(pass_span);
        // The pass is the 18 flows back to back; the traced run's signoff
        // re-invocations in between are probe time, not pass time.
        pass_s.push(in_flows_s);
        flows_run += designs.len() as u64;

        // Checks, outside the timed flows: every flow succeeded, and
        // repetition k equals repetition 1 byte for byte.
        let check_span = rec.open("bench.checks", root, pass, 0);
        for (i, (design, outcome)) in designs.iter().zip(&outcomes).enumerate() {
            checker.operation(outcome.is_some(), || {
                format!("{}: flow failed", design.name())
            });
            let canonical = outcome
                .as_ref()
                .map(|o| chipforge_resil::fnv64(canonical_outcome_json(o).as_bytes()));
            if pass == 0 {
                if let Some(outcome) = outcome {
                    check_outcome(&mut checker, design.name(), design.source(), outcome);
                }
                first_pass.push(canonical);
            } else {
                checker.check(canonical == first_pass[i], || {
                    format!("{}: pass {pass} differs from pass 0", design.name())
                });
            }
        }
        if pass == 0 {
            for (design, outcome) in designs.iter().zip(&outcomes) {
                let ppa = outcome.as_ref().map(|o| &o.report.ppa);
                cells.push((design.name().to_string(), ppa.map_or(0, |p| p.cells as u64)));
                overflowed_edges += ppa.map_or(0, |p| p.overflowed_edges as u64);
            }
        }
        drop(outcomes);
        rec.close(check_span);
    }

    let design_rows: Vec<Value> = designs
        .iter()
        .zip(&flow_ms)
        .map(|(d, ms)| {
            obj(vec![
                ("design", Value::Str(d.name().into())),
                ("median_ms", num(stats::median(ms))),
                ("runs_ms", num_seq(ms)),
            ])
        })
        .collect();
    let per_design_median: Vec<f64> = flow_ms.iter().map(|ms| stats::median(ms)).collect();
    detail.push((
        "cells".into(),
        Value::Map(
            cells
                .iter()
                .map(|(name, count)| (Value::Str(name.clone()), Value::U64(*count)))
                .collect(),
        ),
    ));
    detail.push(("overflowed_edges".into(), Value::U64(overflowed_edges)));
    detail.push(("designs".into(), Value::Seq(design_rows)));
    detail.push(("passes_s".into(), num_seq(&pass_s)));
    detail.push(("flow_pass_s".into(), num(stats::median(&pass_s))));
    detail.push(("measured_s".into(), num(stats::median(&pass_s))));
    detail.push((
        "flow_geomean_ms".into(),
        num(stats::geomean(&per_design_median)),
    ));

    let metrics = if ctx.traced() {
        traced_metrics(
            ctx,
            &inputs,
            &timer,
            &split_sum,
            flows_run,
            &pass_s,
            &direct_ms,
            (cells.iter().map(|(_, count)| count).sum(), overflowed_edges),
            root,
        )
    } else {
        let per_pass: Vec<Vec<f64>> = (0..pass_s.len())
            .map(|pass| flow_ms.iter().map(|design| design[pass]).collect())
            .collect();
        // A pass as the sum of each design's median wall: a stall that
        // hits one pass spoils some designs' samples of that pass, and the
        // per-design median drops them, where the median of whole passes
        // would keep or drop the pass as one.
        let jobs_per_s = designs.len() as f64 / (per_design_median.iter().sum::<f64>() / 1e3);
        end_to_end(setup_s, &per_pass, jobs_per_s, &mut detail)
    };
    rec.close(root);
    RunResult {
        checker,
        metrics,
        detail,
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    ctx: &Ctx<'_>,
    inputs: &Inputs,
    timer: &StageTimer<'_>,
    split: &SignoffSplit,
    flows_run: u64,
    pass_s: &[f64],
    direct_ms: &BTreeMap<&'static str, Vec<f64>>,
    (cells_total, overflowed_edges): (u64, u64),
    root: Option<crate::spans::SpanId>,
) -> BTreeMap<&'static str, f64> {
    let Inputs { designs, config } = inputs;
    let rec = ctx.rec;
    let flows = flows_run.max(1) as f64;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, samples) in direct_ms {
        metrics.insert(name, stats::mean(samples));
    }
    let stage_ms = *timer.stage_ms.borrow();
    for step in chipforge_flow::FlowStep::ALL {
        let name = stage_metric(step.name()).expect("every step has a metric");
        metrics.insert(name, stage_ms[step.index()] / flows);
    }
    metrics.insert("sta.analyze_ms", split.sta_ms / flows);
    metrics.insert("power.estimate_ms", split.power_ms / flows);
    metrics.insert("layout.build_ms", split.layout_build_ms / flows);
    metrics.insert("layout.drc_ms", split.drc_ms / flows);
    metrics.insert("verify.ec_ms", split.ec_ms / flows);
    metrics.insert(
        "verify.ec_proven_share",
        split.ec_proven as f64 / split.ec_total.max(1) as f64,
    );
    let flow_wall_ms: f64 = pass_s.iter().sum::<f64>() * 1e3;
    let unaccounted_ms = flow_wall_ms - stage_ms.iter().sum::<f64>();
    metrics.insert("flow.unaccounted_ms", unaccounted_ms / flows);
    metrics.insert("flow.unaccounted_share", unaccounted_ms / flow_wall_ms);
    metrics.insert("flow.cells_total", cells_total as f64);
    metrics.insert("route.overflowed_edges", overflowed_edges as f64);

    // One more pass under a capturing stage store (what a stage cache
    // would hold, in bytes) and one under the program's own enabled
    // tracer (what its instrumentation costs against the passes above).
    let probes = rec.open("bench.probes", root, 0, 0);
    let store = CaptureStore::default();
    let program_tracer = Tracer::new();
    let disabled = Tracer::disabled();
    let mut traced_s = 0.0;
    for design in designs {
        std::hint::black_box(run_flow(
            design,
            config,
            &FlowCtx::new(&disabled).with_stages(&store),
        ));
        let started = Instant::now();
        std::hint::black_box(run_flow(design, config, &FlowCtx::new(&program_tracer)));
        traced_s += started.elapsed().as_secs_f64();
    }
    rec.close(probes);
    let snapshot_bytes: usize = store
        .snapshots
        .lock()
        .expect("no store user panics")
        .iter()
        .map(|(_, snapshot)| serde::json::to_string(snapshot).len())
        .sum();
    metrics.insert("flow.snapshot_json_bytes", snapshot_bytes as f64);
    metrics.insert(
        "obs.tracer_overhead_share",
        traced_s / stats::median(pass_s) - 1.0,
    );
    metrics.insert(
        "obs.spans_per_flow",
        program_tracer.spans().len() as f64 / designs.len() as f64,
    );
    metrics
}
