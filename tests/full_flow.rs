//! End-to-end integration: every suite design through the complete
//! platform, with functional equivalence, GDSII round-trip and DRC checks.

use chipforge::flow::{run_flow, FlowConfig, OptimizationProfile};
use chipforge::hdl::designs;
use chipforge::layout::{drc, gds};
use chipforge::netlist::verilog;
use chipforge::pdk::{DesignRules, TechnologyNode};
use chipforge::synth::simulate_equivalent;
use chipforge::{EnablementHub, Tier};

#[test]
fn whole_suite_flows_to_clean_gds_at_130nm() {
    let config =
        FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open()).with_clock_mhz(50.0);
    let rules = DesignRules::for_node(TechnologyNode::N130);
    for design in designs::suite() {
        let outcome =
            run_flow(design.source(), &config).unwrap_or_else(|e| panic!("{}: {e}", design.name()));
        // Functional equivalence RTL vs mapped netlist.
        let module = design.elaborate().expect("elaborates");
        assert!(
            simulate_equivalent(&module, &outcome.netlist, 48, 0xF00D),
            "{}: netlist diverges from RTL",
            design.name()
        );
        // Physical sanity.
        assert!(outcome.placement.is_legal(), "{}", design.name());
        assert_eq!(
            outcome.routing.overflowed_edges(),
            0,
            "{}: routing overflow",
            design.name()
        );
        // Layout round-trips through GDSII.
        let parsed = gds::read_gds(&outcome.gds).expect("GDS parses");
        assert_eq!(parsed.shape_count(), outcome.layout.shape_count());
        // DRC clean.
        let report = drc::check(&outcome.layout, &rules);
        assert!(
            report.is_clean(),
            "{}: {} DRC violations (first: {:?})",
            design.name(),
            report.violations.len(),
            report.violations.first()
        );
    }
}

#[test]
fn netlist_survives_verilog_round_trip_after_synthesis() {
    let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
    for design in [designs::alu(8), designs::fir4(8)] {
        let outcome = run_flow(design.source(), &config).expect("flows");
        let text = verilog::write_verilog(&outcome.netlist);
        let parsed = verilog::parse_verilog(&text).expect("parses back");
        parsed.validate().expect("valid");
        // Equivalent against the original RTL too.
        let module = design.elaborate().expect("elaborates");
        assert!(
            simulate_equivalent(&module, &parsed, 32, 99),
            "{}: verilog round trip broke equivalence",
            design.name()
        );
    }
}

#[test]
fn hub_serves_every_tier_with_consistent_envelopes() {
    let hub = EnablementHub::new();
    let design = designs::traffic_light();
    let mut last_onboarding = 0.0;
    for tier in Tier::ALL {
        let report = hub.run(design.source(), tier).expect("hub runs");
        assert!(report.onboarding_hours >= last_onboarding, "{tier}");
        last_onboarding = report.onboarding_hours;
        assert!(report.flow.ppa.drc_violations == 0, "{tier}: DRC dirty");
        assert!(report.flow.ppa.overflowed_edges == 0, "{tier}: overflow");
        assert!(!report.gds.is_empty());
    }
}

#[test]
fn flow_scales_to_a_bigger_design() {
    // A 16-bit ALU plus FIR is the biggest single block in the suite;
    // make sure the flow handles a wider multiplier too.
    let design = designs::multiplier(12);
    let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
    let outcome = run_flow(design.source(), &config).expect("flows");
    assert!(outcome.report.ppa.cells > 700, "12x12 multiplier is big");
    let module = design.elaborate().expect("elaborates");
    assert!(simulate_equivalent(&module, &outcome.netlist, 24, 5));
}

#[test]
fn layouts_are_drc_clean_at_every_node() {
    let design = designs::counter(8);
    for node in TechnologyNode::ALL {
        let profile = if node.has_open_pdk() {
            OptimizationProfile::quick()
        } else {
            OptimizationProfile::commercial()
        };
        let config = FlowConfig::new(node, profile);
        let outcome = run_flow(design.source(), &config).unwrap_or_else(|e| panic!("{node}: {e}"));
        assert_eq!(
            outcome.report.ppa.drc_violations, 0,
            "{node}: DRC violations in generated layout"
        );
    }
}

#[test]
fn cross_node_trends_hold_end_to_end() {
    // Scaling trends must survive the full flow, not just the models:
    // newer node -> smaller, faster, leakier (vs 130nm open).
    let design = designs::counter(16);
    let old = run_flow(
        design.source(),
        &FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open()),
    )
    .expect("flows");
    let new = run_flow(
        design.source(),
        &FlowConfig::new(TechnologyNode::N7, OptimizationProfile::commercial()),
    )
    .expect("flows");
    assert!(new.report.ppa.cell_area_um2 < old.report.ppa.cell_area_um2 / 20.0);
    assert!(new.report.ppa.fmax_mhz > 2.0 * old.report.ppa.fmax_mhz);
    assert!(new.report.ppa.leakage_uw > old.report.ppa.leakage_uw);
}

/// The ROBDD package may get faster, but what it reports is part of the
/// flow's canonical output: node numbering, the node count per proof and
/// where the budget cuts off are pinned to the values of the original
/// `HashMap`-under-SipHash manager.
#[test]
fn signoff_equivalence_reports_the_pinned_bdd_sizes() {
    use chipforge::verify::{check_equivalence, Verdict};

    let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open())
        .with_clock_mhz(50.0)
        .with_seed(1);
    let signoff_ec = |spec: &str| {
        let design = chipforge::gen::resolve(spec).expect("spec resolves");
        let outcome = run_flow(design.source(), &config).expect("flows");
        let module = design.elaborate().expect("elaborates");
        let detail = outcome
            .report
            .steps
            .iter()
            .find(|s| s.detail.contains("DRC violations"))
            .expect("signoff ran")
            .detail
            .clone();
        (
            check_equivalence(&module, &outcome.netlist, 500_000),
            detail,
        )
    };
    for (spec, bdd_nodes) in [
        ("gen:cpu/ctrl?width=8&depth=2&unroll=1&seed=1", 3_920),
        ("gen:dsp/fir?width=8&depth=2&unroll=1&seed=1", 19_182),
        ("gen:noc/router?width=8&depth=2&unroll=1&seed=1", 397),
    ] {
        let (ec, detail) = signoff_ec(spec);
        assert_eq!(ec.verdict, Verdict::Equivalent, "{spec}");
        assert_eq!(ec.proven, ec.total, "{spec}");
        assert_eq!(ec.bdd_nodes, bdd_nodes, "{spec}");
        assert!(
            detail.ends_with(&format!("EC proven ({}/{})", ec.proven, ec.total)),
            "{spec}: {detail}"
        );
    }
    // Multiplier-heavy: the budget runs out while the golden side is built.
    let (ec, detail) = signoff_ec("gen:dsp/fir?width=16&depth=4&unroll=1&seed=1");
    assert_eq!(ec.verdict, Verdict::Aborted);
    assert_eq!((ec.proven, ec.total, ec.bdd_nodes), (0, 96, 500_000));
    assert!(
        detail.ends_with("EC aborted at 500000 BDD nodes (0/96 proven)"),
        "{detail}"
    );
}
