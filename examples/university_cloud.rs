//! Centralized cloud enablement hub vs. per-university tool setups
//! (Recommendation 7).
//!
//! Simulates twelve university groups submitting flow jobs over a year,
//! served either by their own locally-maintained EDA installations or by a
//! shared cloud hub, and prints the turnaround/setup comparison.
//!
//! Run with `cargo run --example university_cloud`.

use chipforge::cloud::WorkloadSpec;
use chipforge::pdk::TechnologyNode;
use chipforge::EnablementHub;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let hub = EnablementHub::new();

    // First: what does it even cost to become able to run a flow?
    println!("== availability vs. enablement (Sec. III-D) ==");
    for node in [
        TechnologyNode::N130,
        TechnologyNode::N28,
        TechnologyNode::N7,
    ] {
        let cmp = hub.enablement_comparison(node);
        println!(
            "  {:>5}: admin {:>4.0} wk | from scratch {:>5.0} h ({} items) | template {:>4.0} h ({} items) | {:.1}x less effort",
            node.to_string(),
            cmp.from_scratch.availability_weeks,
            cmp.from_scratch.hours,
            cmp.from_scratch.items,
            cmp.with_template.hours,
            cmp.with_template.items,
            cmp.effort_reduction()
        );
    }

    // Then: queueing behaviour of local vs central operation.
    println!("\n== 12 universities, 40 jobs each, one year ==");
    let spec = WorkloadSpec::new(12, 40, 24.0 * 9.0, 2_025);
    for servers in [6, 12, 24] {
        let (local, central) = hub.adoption_scenarios(&spec, servers)?;
        println!("  hub with {servers:>2} servers:");
        println!(
            "    local : mean turnaround {:>7.1} h, p95 {:>7.1} h, setup {:>7.0} h total",
            local.mean_turnaround_h, local.p95_turnaround_h, local.setup_hours_total
        );
        println!(
            "    hub   : mean turnaround {:>7.1} h, p95 {:>7.1} h, setup {:>7.0} h total, {:.0}% utilized",
            central.mean_turnaround_h,
            central.p95_turnaround_h,
            central.setup_hours_total,
            central.utilization * 100.0
        );
    }
    println!(
        "\nOne shared enablement effort replaces {} local ones — the paper's\nRecommendation 7 in numbers.",
        spec.universities
    );
    Ok(())
}
