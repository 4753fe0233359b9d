//! Quickstart: take an 8-bit counter from ForgeHDL source to GDSII.
//!
//! Run with `cargo run --example quickstart`.

use chipforge::flow::{FlowConfig, FlowCtx, OptimizationProfile, Pipeline};
use chipforge::hdl::{parse, Simulator};
use chipforge::pdk::TechnologyNode;
use std::error::Error;

const COUNTER: &str = "
module counter() {
    input rst;
    input en;
    output [7:0] count;
    reg [7:0] count;
    always {
        if (rst) { count <= 0; }
        else if (en) { count <= count + 1; }
    }
}";

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Parse and simulate the RTL.
    let module = parse(COUNTER)?;
    let mut sim = Simulator::new(&module);
    sim.set("rst", 0);
    sim.set("en", 1);
    sim.run(10);
    println!(
        "RTL simulation: count = {} after 10 cycles",
        sim.get("count")
    );

    // 2. Run the full RTL-to-GDSII flow on the open 130 nm PDK.
    let config =
        FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open()).with_clock_mhz(50.0);
    let outcome = Pipeline::standard().run(COUNTER, &config, &FlowCtx::default())?;

    // 3. Inspect the report.
    println!("\n{}", outcome.report);
    println!(
        "gates per RTL line: {:.1} (the paper's Sec. III-B quotes 5-20)",
        outcome.report.gates_per_rtl_line()
    );
    println!("GDSII stream: {} bytes", outcome.gds.len());

    // 4. Write the GDSII next to the binary if desired.
    std::fs::write("counter.gds", &outcome.gds)?;
    println!("wrote counter.gds");
    Ok(())
}
