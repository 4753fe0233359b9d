//! Cross-crate consistency: the engines must agree with each other where
//! their models overlap.

use chipforge::flow::{FlowConfig, FlowCtx, OptimizationProfile, Pipeline};
use chipforge::hdl::designs;
use chipforge::pdk::{LibraryKind, Pdk, StdCellLibrary, TechnologyNode};
use chipforge::place::{place, PlacementOptions};
use chipforge::power::{estimate, PowerOptions};
use chipforge::route::{route, RouteOptions};
use chipforge::sta::{analyze, TimingOptions};
use chipforge::synth::{synthesize, SynthOptions};

fn open_lib() -> StdCellLibrary {
    StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open)
}

#[test]
fn post_route_timing_is_never_faster_than_pre_route() {
    let lib = open_lib();
    for design in [designs::alu(8), designs::fir4(8)] {
        let module = design.elaborate().unwrap();
        let netlist = synthesize(&module, &lib, &SynthOptions::default())
            .unwrap()
            .netlist;
        let placement = place(&netlist, &lib, &PlacementOptions::default()).unwrap();
        let routing = route(&netlist, &placement, &lib, &RouteOptions::default()).unwrap();

        let pre = analyze(&netlist, &lib, &TimingOptions::new(1e6)).unwrap();
        let mut post_opts = TimingOptions::new(1e6);
        post_opts.net_wire_cap_ff = routing.wire_caps_ff(&lib);
        // Zero out the wireload fallback comparison by keeping defaults on
        // the pre-route side: pre-route uses a fanout wireload, post-route
        // real wire caps. Post-route with real (larger) caps must not be
        // optimistically faster than an analysis with *no* wire at all.
        let mut no_wire = TimingOptions::new(1e6);
        no_wire.wire_cap_per_fanout_ff = Some(0.0);
        let ideal = analyze(&netlist, &lib, &no_wire).unwrap();
        let post = analyze(&netlist, &lib, &post_opts).unwrap();
        assert!(
            post.min_period_ps >= ideal.min_period_ps,
            "{}: post-route {} ps faster than ideal {} ps",
            design.name(),
            post.min_period_ps,
            ideal.min_period_ps
        );
        let _ = pre;
    }
}

#[test]
fn flow_report_matches_direct_engine_results() {
    // The orchestrated flow must report the same cell count and flip-flop
    // count a manual pipeline produces.
    let design = designs::counter(8);
    let lib = open_lib();
    let module = design.elaborate().unwrap();
    let manual = synthesize(&module, &lib, &SynthOptions::default())
        .unwrap()
        .netlist;
    let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
    let outcome = Pipeline::standard()
        .run(design.source(), &config, &FlowCtx::default())
        .unwrap();
    assert_eq!(outcome.report.ppa.cells, manual.cell_count());
    assert_eq!(
        outcome.report.ppa.flip_flops,
        manual.stats().sequential_cells
    );
}

#[test]
fn power_grows_with_back_annotated_wires() {
    let lib = open_lib();
    let module = designs::alu(8).elaborate().unwrap();
    let netlist = synthesize(&module, &lib, &SynthOptions::default())
        .unwrap()
        .netlist;
    let placement = place(&netlist, &lib, &PlacementOptions::default()).unwrap();
    let routing = route(&netlist, &placement, &lib, &RouteOptions::default()).unwrap();
    let base = estimate(&netlist, &lib, &PowerOptions::new(100.0)).unwrap();
    let mut opts = PowerOptions::new(100.0);
    opts.net_wire_cap_ff = routing.wire_caps_ff(&lib);
    let routed = estimate(&netlist, &lib, &opts).unwrap();
    assert!(routed.switching_uw > base.switching_uw);
}

#[test]
fn commercial_library_dominates_open_cell_for_cell() {
    // Every class present in both libraries must be at least as good in
    // the commercial variant (area and delay at equal load).
    let pdk = Pdk::commercial(TechnologyNode::N28);
    let open = pdk.library(LibraryKind::Open);
    let comm = pdk.library(LibraryKind::Commercial);
    for cell in open.cells() {
        let Some(counterpart) = comm.cell(cell.name()) else {
            continue;
        };
        assert!(
            counterpart.area_um2() <= cell.area_um2() + 1e-12,
            "{}",
            cell.name()
        );
        assert!(
            counterpart.delay_ps(4.0) <= cell.delay_ps(4.0) + 1e-12,
            "{}",
            cell.name()
        );
    }
}

#[test]
fn area_reported_by_flow_matches_library_sum() {
    let lib = open_lib();
    let design = designs::pwm(8);
    let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
    let outcome = Pipeline::standard()
        .run(design.source(), &config, &FlowCtx::default())
        .unwrap();
    let manual: f64 = outcome
        .netlist
        .cells()
        .map(|c| lib.cell(c.lib_cell()).expect("known cell").area_um2())
        .sum();
    assert!((outcome.report.ppa.cell_area_um2 - manual).abs() < 1e-6);
}

#[test]
fn utilization_consistent_between_place_and_flow_report() {
    let design = designs::fir4(8);
    let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
    let outcome = Pipeline::standard()
        .run(design.source(), &config, &FlowCtx::default())
        .unwrap();
    let u = outcome.placement.utilization();
    // The flow's core area and cell area must reproduce the same ratio.
    let ratio = outcome.report.ppa.cell_area_um2 / outcome.report.ppa.core_area_um2;
    assert!((u - ratio).abs() < 1e-9);
}
