//! Criterion benchmarks of the flow's computational kernels.
//!
//! These back the runtime claims in experiments E3/E8 (the flow compute is
//! milliseconds; enablement, not CPU, is the bottleneck) and provide
//! regression tracking for the engines.

use chipforge::flow::{run_flow, FlowConfig, OptimizationProfile};
use chipforge::hdl::designs;
use chipforge::layout::{build_layout, drc, gds};
use chipforge::pdk::{DesignRules, LibraryKind, StdCellLibrary, TechnologyNode};
use chipforge::place::{place, PlacementOptions};
use chipforge::power::{estimate, PowerOptions};
use chipforge::route::{route, RouteOptions};
use chipforge::sta::{analyze, TimingOptions};
use chipforge::synth::{synthesize, SynthOptions};
use criterion::{criterion_group, criterion_main, Criterion};

fn lib() -> StdCellLibrary {
    StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open)
}

fn bench_synthesis(c: &mut Criterion) {
    let lib = lib();
    let mut group = c.benchmark_group("synthesis");
    for design in [designs::counter(8), designs::alu(8), designs::multiplier(8)] {
        let module = design.elaborate().expect("elaborates");
        group.bench_function(design.name(), |b| {
            b.iter(|| synthesize(&module, &lib, &SynthOptions::default()).expect("synth"));
        });
    }
    group.finish();
}

fn bench_backend(c: &mut Criterion) {
    let lib = lib();
    let module = designs::alu(8).elaborate().expect("elaborates");
    let netlist = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;
    let opts = PlacementOptions::default();
    c.bench_function("place/alu8", |b| {
        b.iter(|| place(&netlist, &lib, &opts).expect("places"));
    });
    let placement = place(&netlist, &lib, &opts).expect("places");
    c.bench_function("route/alu8", |b| {
        b.iter(|| route(&netlist, &placement, &lib, &RouteOptions::default()).expect("routes"));
    });
    let routing = route(&netlist, &placement, &lib, &RouteOptions::default()).expect("routes");
    c.bench_function("sta/alu8", |b| {
        b.iter(|| analyze(&netlist, &lib, &TimingOptions::new(10_000.0)).expect("sta"));
    });
    c.bench_function("power/alu8", |b| {
        b.iter(|| estimate(&netlist, &lib, &PowerOptions::new(100.0)).expect("power"));
    });
    let layout = build_layout(&netlist, &placement, &routing, &lib).expect("layout");
    c.bench_function("gds_write/alu8", |b| {
        b.iter(|| gds::write_gds(&layout));
    });
}

fn bench_hdl(c: &mut Criterion) {
    let design = designs::fir4(8);
    c.bench_function("hdl_parse/fir4", |b| {
        b.iter(|| chipforge::hdl::parse(design.source()).expect("parses"));
    });
    let module = design.elaborate().expect("elaborates");
    c.bench_function("hdl_sim_1k_cycles/fir4", |b| {
        b.iter(|| {
            let mut sim = chipforge::hdl::Simulator::new(&module);
            sim.set("x", 7);
            sim.run(1000);
            sim.get("y")
        });
    });
}

fn bench_verify_and_fpga(c: &mut Criterion) {
    let module = designs::counter(8).elaborate().expect("elaborates");
    let lib = lib();
    let netlist = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;
    c.bench_function("formal_ec/counter8", |b| {
        b.iter(|| chipforge::verify::check_equivalence(&module, &netlist, 1_000_000));
    });
    let aig = chipforge::synth::lower::lower_to_aig(&module);
    c.bench_function("lut_map/counter8", |b| {
        b.iter(|| chipforge::fpga::map_to_luts(&aig, 4));
    });
}

/// The two signoff checkers on what the signoff stage hands them: the
/// `gen:` corpus through the open-profile flow at 130 nm.
fn bench_signoff(c: &mut Criterion) {
    let config =
        FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open()).with_clock_mhz(50.0);
    let flows: Vec<_> = chipforge::gen::corpus()
        .iter()
        .map(|spec| {
            let design = spec.generate();
            let outcome = run_flow(design.source(), &config).expect("flows");
            (design.elaborate().expect("elaborates"), outcome)
        })
        .collect();
    let rules = DesignRules::for_node(TechnologyNode::N130);
    let largest = flows
        .iter()
        .map(|(_, outcome)| &outcome.layout)
        .max_by_key(|layout| layout.flatten().len())
        .expect("the corpus is not empty");
    let mut group = c.benchmark_group("signoff");
    group.sample_size(10);
    group.bench_function("drc_largest_corpus_layout", |b| {
        b.iter(|| drc::check(largest, &rules));
    });
    group.bench_function("ec_corpus", |b| {
        b.iter(|| {
            flows
                .iter()
                .map(|(module, outcome)| {
                    chipforge::verify::check_equivalence(module, &outcome.netlist, 500_000)
                        .bdd_nodes
                })
                .sum::<usize>()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_synthesis,
    bench_backend,
    bench_hdl,
    bench_verify_and_fpga,
    bench_signoff
);
criterion_main!(benches);
