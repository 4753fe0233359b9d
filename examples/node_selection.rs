//! Technology-node selection for a research project: PPA vs. cost vs.
//! access barriers (Sec. III-C).
//!
//! Runs the same FIR filter through the flow at several nodes and joins
//! the silicon results with the economic models, reproducing the trade-off
//! a university group faces when picking a technology.
//!
//! Run with `cargo run --example node_selection --release`.

use chipforge::econ::cost::DesignCostModel;
use chipforge::econ::mpw::MpwPricing;
use chipforge::flow::{FlowConfig, FlowCtx, OptimizationProfile, Pipeline};
use chipforge::hdl::designs;
use chipforge::pdk::{Pdk, TechnologyNode};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let design = designs::fir4(8);
    let costs = DesignCostModel::reference();
    let mpw = MpwPricing::reference();

    println!(
        "{:<7} {:>9} {:>10} {:>9} {:>10} {:>12} {:>10} {:>9}",
        "node", "area um2", "fmax MHz", "power uW", "seat EUR", "design M$", "admin wk", "open?"
    );
    for node in [
        TechnologyNode::N180,
        TechnologyNode::N130,
        TechnologyNode::N65,
        TechnologyNode::N28,
        TechnologyNode::N16,
        TechnologyNode::N7,
    ] {
        let profile = if node.has_open_pdk() {
            OptimizationProfile::open()
        } else {
            OptimizationProfile::commercial()
        };
        let config = FlowConfig::new(node, profile).with_clock_mhz(100.0);
        let outcome = Pipeline::standard().run(design.source(), &config, &FlowCtx::default())?;
        let pdk = if node.has_open_pdk() {
            Pdk::open(node)
        } else {
            Pdk::commercial(node)
        };
        println!(
            "{:<7} {:>9.1} {:>10.1} {:>9.2} {:>10.0} {:>12.0} {:>10.1} {:>9}",
            node.to_string(),
            outcome.report.ppa.cell_area_um2,
            outcome.report.ppa.fmax_mhz,
            outcome.report.ppa.power_uw,
            mpw.seat_cost_eur(node, 2.0),
            costs.total_musd(node),
            pdk.access_lead_time_weeks(),
            if node.has_open_pdk() { "yes" } else { "no" },
        );
    }
    println!(
        "\nReading: silicon improves monotonically with the node, but seat cost,\n\
         full design cost and administrative lead time explode — the reason the\n\
         paper recommends open nodes for education and enablement services for\n\
         advanced research (Recommendation 8)."
    );
    Ok(())
}
