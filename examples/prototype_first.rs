//! The prototype-first workflow the paper recommends for education:
//! FPGA in the morning, formally-verified ASIC netlist in the afternoon.
//!
//! 1. Map the design onto an iCE40-class education board (minutes, €49);
//! 2. run the full ASIC flow at 130 nm;
//! 3. formally prove the mapped netlist equivalent to the RTL with the
//!    BDD engine — the verification step that dominates real design cost.
//!
//! Run with `cargo run --example prototype_first --release`.

use chipforge::flow::{FlowConfig, FlowCtx, OptimizationProfile, Pipeline};
use chipforge::fpga::{map_to_luts, FpgaDevice};
use chipforge::hdl::designs;
use chipforge::pdk::TechnologyNode;
use chipforge::synth::lower::lower_to_aig;
use chipforge::verify::{check_equivalence, Verdict};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let design = designs::uart_tx();
    let module = design.elaborate()?;

    // --- morning: FPGA prototype ---
    let mapping = map_to_luts(&lower_to_aig(&module), 4);
    let board = FpgaDevice::education_board();
    let proto = board.prototype(&mapping);
    println!("== FPGA prototype ({}) ==", proto.device);
    println!(
        "  {} LUTs ({:.1}% of device), {} FFs, depth {}",
        proto.luts_used,
        proto.lut_utilization * 100.0,
        proto.ffs_used,
        mapping.depth()
    );
    println!(
        "  est. fmax {:.0} MHz, board {:.0} EUR, hardware in {:.1} h",
        proto.fmax_mhz, proto.board_cost_eur, proto.time_to_hardware_hours
    );

    // --- afternoon: ASIC implementation ---
    let config =
        FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open()).with_clock_mhz(100.0);
    let asic = Pipeline::standard().run(design.source(), &config, &FlowCtx::default())?;
    println!("\n== ASIC implementation ==");
    print!("{}", asic.report);

    // --- formal signoff: equivalence of RTL and mapped netlist ---
    let ec = check_equivalence(&module, &asic.netlist, 1_000_000);
    println!("\n== formal equivalence ==");
    match &ec.verdict {
        Verdict::Equivalent => println!(
            "  PROVEN: {}/{} output and next-state functions equal ({} BDD nodes)",
            ec.proven, ec.total, ec.bdd_nodes
        ),
        other => println!("  verdict: {other:?} ({}/{} proven)", ec.proven, ec.total),
    }
    println!(
        "\nSame RTL, three guarantees: hardware today (FPGA), silicon-ready\n\
         GDSII ({} bytes), and a formal proof they implement the same design.",
        asic.gds.len()
    );
    Ok(())
}
