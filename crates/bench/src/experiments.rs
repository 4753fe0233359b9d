//! Experiment implementations E1–E10 and ablations A1–A2.
//!
//! Each function regenerates one of the paper's quantitative claims as a
//! formatted table; `EXPERIMENTS.md` records the paper-vs-measured
//! comparison for every experiment.

use crate::table::{f, Table};
use chipforge::cloud::{ShuttleSchedule, WorkloadSpec};
use chipforge::econ::cost::DesignCostModel;
use chipforge::econ::mpw::MpwPricing;
use chipforge::econ::productivity::{
    backend_effort_fraction, HdlAbstraction, PathToSuccess, SoftwareExpansion,
};
use chipforge::econ::value_chain::ValueChain;
use chipforge::econ::workforce::{cumulative_gap, simulate, Interventions, PipelineConfig};
use chipforge::flow::{run_flow, FlowConfig, FlowTemplate, OptimizationProfile};
use chipforge::hdl::designs;
use chipforge::pdk::{Pdk, TechnologyNode};
use chipforge::synth::{synthesize, SynthEffort, SynthOptions};
use chipforge::{EnablementComparison, EnablementHub, Tier, TierStrategy};

/// All experiment identifiers accepted by [`run_experiment`].
pub const EXPERIMENT_IDS: [&str; 25] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21", "e22", "a1", "a2", "a5",
];

/// Runs one experiment by id (`"e1"`..`"e10"`, `"a1"`, `"a2"`).
///
/// Returns `None` for unknown ids.
#[must_use]
pub fn run_experiment(id: &str) -> Option<String> {
    Some(match id {
        "e1" => e1_value_chain(),
        "e2" => e2_abstraction_gap(),
        "e3" => e3_time_to_success(),
        "e4" => e4_design_cost(),
        "e5" => e5_mpw(),
        "e6" => e6_ppa_gap(),
        "e7" => e7_enablement_effort(),
        "e8" => e8_cloud_hub(),
        "e9" => e9_tiers(),
        "e10" => e10_talent_pipeline(),
        "e11" => e11_chiplets(),
        "e12" => e12_funding(),
        "e13" => e13_fpga_vs_asic(),
        "e14" => e14_calibrated_hub(),
        "e15" => e15_resilience(),
        "e16" => e16_overload(),
        "e17" => e17_incremental(),
        "e18" => e18_hub_validation(),
        "e19" => e19_semester_scale(),
        "e20" => e20_remote_cache(),
        "e21" => e21_shard_fabric(),
        "e22" => e22_kernel_ppa(),
        "a1" => a1_synth_effort(),
        "a2" => a2_placement_moves(),
        "a5" => a5_scan_overhead(),
        _ => return None,
    })
}

/// E1 — semiconductor value-chain shares (paper Sec. I).
#[must_use]
pub fn e1_value_chain() -> String {
    let vc = ValueChain::reference();
    let mut t = Table::new(
        "E1: value-chain segments and Europe's share (Sec. I)",
        &["segment", "value share %", "Europe share %"],
    );
    for row in vc.rows() {
        t.row(vec![
            row.segment.to_string(),
            f(row.value_share_pct, 1),
            f(row.europe_share_pct, 1),
        ]);
    }
    t.note(format!(
        "Europe overall (value-weighted): {:.1}%",
        vc.europe_overall_share_pct()
    ));
    t.note(format!(
        "Europe share in its strength segments (auto/industrial/power-RF): {:.0}%",
        vc.europe_strength_segments_pct
    ));
    t.note(format!(
        "raising design share 10% -> 20% captures +{:.1}% of total chain value",
        vc.design_upside_pct(20.0)
    ));
    t.render()
}

/// E2 — abstraction gap: gates per RTL line (measured through the real
/// flow) vs. instructions per software line (paper Sec. III-B).
#[must_use]
pub fn e2_abstraction_gap() -> String {
    let mut t = Table::new(
        "E2: abstraction gap (Sec. III-B)",
        &["design", "RTL lines", "gates", "gates/line"],
    );
    let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
    let mut ratios = Vec::new();
    for design in designs::suite() {
        let outcome = run_flow(design.source(), &config).expect("suite designs always flow");
        let ratio = outcome.report.gates_per_rtl_line();
        ratios.push(ratio);
        t.row(vec![
            design.name().to_string(),
            outcome.report.rtl_lines.to_string(),
            outcome.report.ppa.cells.to_string(),
            f(ratio, 1),
        ]);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    t.note(format!(
        "measured gates/RTL-line: mean {mean:.1}, range {min:.1}-{max:.1} (paper: 5-20)"
    ));
    let sw = SoftwareExpansion::python();
    t.note(format!(
        "software: {:.0} machine instructions per Python line (paper: thousands)",
        sw.instructions_per_line()
    ));
    for abs in [HdlAbstraction::Hcl, HdlAbstraction::Hls] {
        t.note(format!(
            "{abs:?} raises hardware yield to ~{:.0} gates/line (Rec. 4 modeled gain {}x)",
            mean * abs.gain_over_rtl(),
            abs.gain_over_rtl()
        ));
    }
    t.render()
}

/// E3 — time to first visible success: software vs. chip design with and
/// without enablement (paper Sec. III-B).
#[must_use]
pub fn e3_time_to_success() -> String {
    let mut t = Table::new(
        "E3: time to first success (Sec. III-B)",
        &["path", "milestones", "total hours", "vs software"],
    );
    let template = FlowTemplate::standard();
    let sw = PathToSuccess::software();
    let paths = vec![
        sw.clone(),
        PathToSuccess::chip_design_enabled(),
        PathToSuccess::chip_design_from_scratch(
            &Pdk::open(TechnologyNode::N130),
            template.setup_expert_hours(TechnologyNode::N130, false),
        ),
        PathToSuccess::chip_design_from_scratch(
            &Pdk::commercial(TechnologyNode::N28),
            template.setup_expert_hours(TechnologyNode::N28, false),
        ),
    ];
    for path in &paths {
        t.row(vec![
            path.discipline.clone(),
            path.milestones.len().to_string(),
            f(path.total_hours(), 1),
            format!("{:.0}x", path.total_hours() / sw.total_hours()),
        ]);
    }
    // The compute itself is cheap: show one measured flow wall time.
    let outcome = run_flow(
        designs::counter(8).source(),
        &FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open()),
    )
    .expect("counter flows");
    t.note(format!(
        "the flow compute itself takes {:.0} ms — setup and access dominate, not CPU",
        outcome.report.total_wall_ms()
    ));
    t.note(format!(
        "backend share of project effort: {:.0}% at 130nm vs {:.0}% at 5nm",
        backend_effort_fraction(TechnologyNode::N130) * 100.0,
        backend_effort_fraction(TechnologyNode::N5) * 100.0
    ));
    t.render()
}

/// E4 — design cost escalation, $5 M @130 nm to $725 M @2 nm
/// (paper Sec. III-C).
#[must_use]
pub fn e4_design_cost() -> String {
    let model = DesignCostModel::reference();
    let mut t = Table::new(
        "E4: production design cost by node (Sec. III-C)",
        &["node", "total M$", "verif+SW %", "x 130nm", "x 2M$ grant"],
    );
    let base = model.total_musd(TechnologyNode::N130);
    for node in TechnologyNode::ALL {
        let total = model.total_musd(node);
        t.row(vec![
            node.to_string(),
            f(total, 1),
            f(model.verification_software_fraction(node) * 100.0, 0),
            f(total / base, 1),
            f(model.budget_multiple(node, 2.0), 1),
        ]);
    }
    t.note("anchors from the paper: $5M at 130nm, $725M at 2nm (145x)");
    t.render()
}

/// E5 — MPW economics: per-seat cost, amortization, turnaround vs.
/// course length (paper Sec. III-C), including the seat-count ablation A4.
#[must_use]
pub fn e5_mpw() -> String {
    let pricing = MpwPricing::reference();
    let mut t = Table::new(
        "E5: MPW economics (Sec. III-C)",
        &[
            "node",
            "EUR/mm2",
            "seat(2mm2)",
            "mask set",
            "break-even",
            "fab weeks",
        ],
    );
    for node in TechnologyNode::ALL {
        t.row(vec![
            node.to_string(),
            f(pricing.eur_per_mm2(node), 0),
            f(pricing.seat_cost_eur(node, 2.0), 0),
            f(pricing.mask_set_eur(node), 0),
            pricing.break_even_seats(node, 2.0).to_string(),
            f(pricing.turnaround_weeks(node), 0),
        ]);
    }
    t.note("turnaround exceeds a 12-week course at every node");

    // Shuttle simulation with seat-count sweep (ablation A4).
    let mut sweep = Table::new(
        "E5b: shuttle seat-count sweep at 130nm (ablation A4)",
        &["seats/run", "runs used", "mean EUR/design", "mean weeks"],
    );
    let submissions: Vec<f64> = (0..24).map(|i| f64::from(i) * 0.7).collect();
    for seats in [2usize, 4, 8, 16, 32] {
        let shuttle = ShuttleSchedule::new(
            13.0,
            seats,
            26.0,
            pricing.mask_set_eur(TechnologyNode::N130),
        );
        let outcome = shuttle.run(&submissions, 2.0);
        sweep.row(vec![
            seats.to_string(),
            outcome.runs_used.to_string(),
            f(outcome.mean_cost_per_seat(), 0),
            f(outcome.mean_latency_weeks(), 1),
        ]);
    }
    sweep.note("more seats amortize the mask set; latency is schedule-bound");
    format!("{}\n{}", t.render(), sweep.render())
}

/// E6 — open-source vs. commercial flow PPA gap (paper Sec. III-D:
/// "open-source flows are not yet competitive with proprietary ones").
#[must_use]
pub fn e6_ppa_gap() -> String {
    let mut t = Table::new(
        "E6: open vs commercial flow PPA at 28nm (Sec. III-D)",
        &["design", "area gap", "fmax gap", "power gap"],
    );
    let open_cfg = FlowConfig::new(TechnologyNode::N28, OptimizationProfile::open());
    let comm_cfg = FlowConfig::new(TechnologyNode::N28, OptimizationProfile::commercial());
    let mut area_gaps = Vec::new();
    let mut fmax_gaps = Vec::new();
    for design in [
        designs::counter(16),
        designs::alu(8),
        designs::fir4(8),
        designs::popcount(8),
        designs::multiplier(8),
    ] {
        let open = run_flow(design.source(), &open_cfg).expect("flows");
        let comm = run_flow(design.source(), &comm_cfg).expect("flows");
        let area_gap = open.report.ppa.cell_area_um2 / comm.report.ppa.cell_area_um2;
        let fmax_gap = comm.report.ppa.fmax_mhz / open.report.ppa.fmax_mhz;
        let power_gap = open.report.ppa.power_uw / comm.report.ppa.power_uw;
        area_gaps.push(area_gap);
        fmax_gaps.push(fmax_gap);
        t.row(vec![
            design.name().to_string(),
            format!("{area_gap:.2}x"),
            format!("{fmax_gap:.2}x"),
            format!("{power_gap:.2}x"),
        ]);
    }
    let gm = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    t.note(format!(
        "geometric-mean gaps: area {:.2}x, fmax {:.2}x (commercial wins, as the paper states)",
        gm(&area_gaps),
        gm(&fmax_gaps)
    ));
    t.render()
}

/// E7 — availability vs. enablement: template-based flow configuration
/// (paper Sec. III-D and Recommendation 4; ablation A3 is the
/// with/without-template delta per node).
#[must_use]
pub fn e7_enablement_effort() -> String {
    let mut t = Table::new(
        "E7: availability vs enablement (Sec. III-D, Rec. 4)",
        &[
            "node",
            "admin weeks",
            "scratch items",
            "scratch hours",
            "template items",
            "template hours",
            "reduction",
        ],
    );
    for node in [
        TechnologyNode::N180,
        TechnologyNode::N130,
        TechnologyNode::N65,
        TechnologyNode::N28,
        TechnologyNode::N16,
        TechnologyNode::N7,
    ] {
        let cmp = EnablementComparison::for_node(node);
        t.row(vec![
            node.to_string(),
            f(cmp.from_scratch.availability_weeks, 1),
            cmp.from_scratch.items.to_string(),
            f(cmp.from_scratch.hours, 0),
            cmp.with_template.items.to_string(),
            f(cmp.with_template.hours, 0),
            format!("{:.1}x", cmp.effort_reduction()),
        ]);
    }
    t.note("admin weeks = availability barrier (0 for open PDKs); hours = enablement barrier");
    t.note("the template (Rec. 4) cuts enablement effort >3x at every node");
    t.render()
}

/// E8 — centralized cloud hub vs. per-university setups
/// (paper Recommendation 7).
#[must_use]
pub fn e8_cloud_hub() -> String {
    let hub = EnablementHub::new();
    let spec = WorkloadSpec::new(12, 40, 24.0 * 9.0, 2_025);
    let mut t = Table::new(
        "E8: local vs centralized enablement hub (Rec. 7)",
        &[
            "scenario",
            "servers",
            "mean turnaround h",
            "p95 h",
            "setup hours",
            "utilization %",
        ],
    );
    for servers in [6usize, 12, 24] {
        let (local, central) = hub.adoption_scenarios(&spec, servers);
        if servers == 6 {
            t.row(vec![
                "local (12 setups)".into(),
                "12x1".into(),
                f(local.mean_turnaround_h, 1),
                f(local.p95_turnaround_h, 1),
                f(local.setup_hours_total, 0),
                f(local.utilization * 100.0, 1),
            ]);
        }
        t.row(vec![
            "central hub".into(),
            servers.to_string(),
            f(central.mean_turnaround_h, 1),
            f(central.p95_turnaround_h, 1),
            f(central.setup_hours_total, 0),
            f(central.utilization * 100.0, 1),
        ]);
    }
    t.note("one shared template-based setup replaces twelve from-scratch ones");

    // E8b: total cost of ownership.
    use chipforge::econ::infrastructure::InfrastructureCostModel;
    let infra = InfrastructureCostModel::reference();
    let mut cost = Table::new(
        "E8b: infrastructure total cost of ownership (Rec. 7)",
        &["members", "local EUR/yr", "hub EUR/yr", "hub advantage"],
    );
    for sites in [2usize, 5, 10, 20, 40] {
        let local = infra.local_cost_eur_per_year(sites);
        let hub = infra.hub_cost_eur_per_year(sites.div_ceil(2));
        cost.row(vec![
            sites.to_string(),
            f(local, 0),
            f(hub, 0),
            format!("{:.2}x", local / hub),
        ]);
    }
    cost.note(format!(
        "hub pays off from {} member universities on; support staff dominates",
        infra.break_even_sites()
    ));
    format!("{}\n{}", t.render(), cost.render())
}

/// E9 — tier-oriented enablement strategies (paper Recommendation 8).
#[must_use]
pub fn e9_tiers() -> String {
    let hub = EnablementHub::new();
    let design = designs::counter(8);
    let mut t = Table::new(
        "E9: tiered enablement strategies on the same design (Rec. 8)",
        &[
            "tier",
            "node",
            "profile",
            "onboard h",
            "seat EUR",
            "weeks",
            "fmax MHz",
            "area um2",
        ],
    );
    for tier in Tier::ALL {
        let report = hub.run(design.source(), tier).expect("tier flows");
        let strategy = TierStrategy::recommended(tier);
        t.row(vec![
            tier.to_string(),
            strategy.node.to_string(),
            strategy.profile.name.clone(),
            f(report.onboarding_hours, 0),
            f(report.seat_cost_eur, 0),
            f(report.turnaround_weeks, 0),
            f(report.flow.ppa.fmax_mhz, 0),
            f(report.flow.ppa.cell_area_um2, 1),
        ]);
    }
    t.note("barrier (onboarding, cost) and capability (node, fmax) rise together across tiers");
    t.render()
}

/// E10 — talent-pipeline funnel and Recommendations 1–3
/// (paper Sec. III-A).
#[must_use]
pub fn e10_talent_pipeline() -> String {
    let config = PipelineConfig::europe_baseline();
    let years = 12;
    let seed = 7;
    let mut t = Table::new(
        "E10: chip-design talent pipeline over 12 years (Sec. III-A, Rec. 1-3)",
        &[
            "scenario",
            "grads y0",
            "grads y5",
            "grads y11",
            "cumulative gap",
        ],
    );
    let scenarios: Vec<(&str, Interventions)> = vec![
        ("baseline", Interventions::none()),
        (
            "R1 school programs",
            Interventions {
                low_barrier_programs: true,
                ..Interventions::none()
            },
        ),
        (
            "R2 info campaigns",
            Interventions {
                information_campaigns: true,
                ..Interventions::none()
            },
        ),
        (
            "R3 coordinated funding",
            Interventions {
                coordinated_funding: true,
                ..Interventions::none()
            },
        ),
        ("R1+R2+R3", Interventions::all()),
    ];
    let base_gap = cumulative_gap(&simulate(&config, Interventions::none(), years, seed));
    for (name, levers) in scenarios {
        let outcomes = simulate(&config, levers, years, seed);
        let gap = cumulative_gap(&outcomes);
        t.row(vec![
            name.to_string(),
            f(outcomes[0].graduates, 0),
            f(outcomes[5].graduates, 0),
            f(outcomes[11].graduates, 0),
            format!("{:.0} ({:.0}%)", gap, gap / base_gap * 100.0),
        ]);
    }
    t.note("baseline reproduces the METIS/ECSA stagnation; combined levers close most of the gap");
    t.render()
}

/// E11 — chiplet-vs-monolithic economics (the paper's chiplet motif in
/// Sec. I and Sec. III-D, extension experiment).
#[must_use]
pub fn e11_chiplets() -> String {
    use chipforge::econ::silicon::SiliconCostModel;
    let m = SiliconCostModel::reference();
    let node = TechnologyNode::N5;
    let mut t = Table::new(
        "E11: monolithic vs chiplet system cost at 5nm (extension)",
        &[
            "total mm2",
            "yield mono",
            "mono $",
            "2 dies $",
            "4 dies $",
            "best split",
        ],
    );
    for area in [50.0, 150.0, 300.0, 600.0, 900.0] {
        t.row(vec![
            f(area, 0),
            f(m.die_yield(node, area), 2),
            f(m.chiplet_system_cost(node, area, 1), 0),
            f(m.chiplet_system_cost(node, area, 2), 0),
            f(m.chiplet_system_cost(node, area, 4), 0),
            m.best_partition(node, area).to_string(),
        ]);
    }
    t.note("small systems stay monolithic; large leading-edge systems split — the mix-and-match rationale");
    t.render()
}

/// E12 — sustainable funding models for academic MPW access
/// (Recommendation 6).
#[must_use]
pub fn e12_funding() -> String {
    use chipforge::econ::funding::SponsorshipPool;
    let pricing = MpwPricing::reference();
    let mut t = Table::new(
        "E12: corporate sponsorship programs for academic MPW (Rec. 6)",
        &[
            "program",
            "pool EUR/yr",
            "130nm seats",
            "28nm seats",
            "7nm seats",
            "copay 130nm",
        ],
    );
    for (name, pool) in [
        (
            "Open-MPW style (10 x 100k)",
            SponsorshipPool::open_mpw_style(10, 100_000.0),
        ),
        (
            "Open-MPW style (25 x 100k)",
            SponsorshipPool::open_mpw_style(25, 100_000.0),
        ),
        (
            "industry fund (10 x 100k + 50% match)",
            SponsorshipPool::industry_fund(10, 100_000.0),
        ),
    ] {
        t.row(vec![
            name.to_string(),
            f(pool.yearly_pool_eur(), 0),
            pool.seats_funded(&pricing, TechnologyNode::N130, 4.0)
                .to_string(),
            pool.seats_funded(&pricing, TechnologyNode::N28, 4.0)
                .to_string(),
            pool.seats_funded(&pricing, TechnologyNode::N7, 4.0)
                .to_string(),
            f(
                pool.university_copay_eur(&pricing, TechnologyNode::N130, 4.0),
                0,
            ),
        ]);
    }
    t.note("a modest industry pool makes mature-node seats effectively free; advanced nodes still need dedicated funding");
    t.render()
}

/// E13 — FPGA prototyping vs. ASIC MPW (Sec. III-B: "FPGAs are useful for
/// prototyping but fall short in providing insights into the full backend
/// design process").
#[must_use]
pub fn e13_fpga_vs_asic() -> String {
    use chipforge_fpga::{map_to_luts, FpgaDevice};
    use chipforge_synth::lower::lower_to_aig;
    let pricing = MpwPricing::reference();
    let board = FpgaDevice::education_board();
    let asic_cfg = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
    let mut t = Table::new(
        "E13: FPGA prototype vs ASIC MPW at 130nm (Sec. III-B)",
        &[
            "design",
            "LUTs",
            "FPGA MHz",
            "ASIC MHz",
            "FPGA hours",
            "ASIC weeks",
            "FPGA EUR",
            "ASIC EUR",
        ],
    );
    for design in [designs::counter(8), designs::uart_tx(), designs::alu(8)] {
        let module = design.elaborate().expect("elaborates");
        let mapping = map_to_luts(&lower_to_aig(&module), 4);
        let proto = board.prototype(&mapping);
        let asic = run_flow(design.source(), &asic_cfg).expect("flows");
        t.row(vec![
            design.name().to_string(),
            proto.luts_used.to_string(),
            f(proto.fmax_mhz, 0),
            f(asic.report.ppa.fmax_mhz, 0),
            f(proto.time_to_hardware_hours, 1),
            f(pricing.turnaround_weeks(TechnologyNode::N130), 0),
            f(proto.board_cost_eur, 0),
            f(pricing.seat_cost_eur(TechnologyNode::N130, 2.0), 0),
        ]);
    }
    t.note("FPGA: working hardware in hours for tens of euros — but no timing closure, no DRC, no GDSII: the backend is never exercised (the paper's 'partial coverage')");
    t.render()
}

/// A1 — ablation: synthesis effort vs. mapped area and depth.
#[must_use]
pub fn a1_synth_effort() -> String {
    let lib = Pdk::open(TechnologyNode::N130).library(chipforge::pdk::LibraryKind::Open);
    let mut t = Table::new(
        "A1: synthesis effort ablation (balancing + cut simplification)",
        &["design", "effort", "cells", "aig depth"],
    );
    for design in [
        designs::popcount(8),
        designs::alu(8),
        designs::multiplier(8),
    ] {
        let module = design.elaborate().expect("suite elaborates");
        for effort in [SynthEffort::Fast, SynthEffort::Standard, SynthEffort::High] {
            let result = synthesize(&module, &lib, &SynthOptions { effort }).expect("synth");
            t.row(vec![
                design.name().to_string(),
                format!("{effort:?}"),
                result.netlist.cell_count().to_string(),
                result.aig_stats.depth.to_string(),
            ]);
        }
    }
    t.note("Standard balances AND trees; High adds cut-based simplification (e.g. popcount drops ~38% of cells)");
    t.render()
}

/// A2 — ablation: the reference annealer's effort vs. wirelength.
#[must_use]
pub fn a2_placement_moves() -> String {
    use chipforge::place::{place, PlacementOptions};
    let lib = Pdk::open(TechnologyNode::N130).library(chipforge::pdk::LibraryKind::Open);
    let module = designs::alu(8).elaborate().expect("elaborates");
    let netlist = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;
    let mut t = Table::new(
        "A2: placement annealing effort ablation (reference kernel)",
        &["moves/cell", "hpwl um", "improvement %"],
    );
    let mut base = None;
    for moves in [0usize, 50, 200, 800] {
        let placement = place(
            &netlist,
            &lib,
            &PlacementOptions {
                utilization: 0.7,
                seed: 1,
                moves_per_cell: moves,
            },
        )
        .expect("places");
        let hpwl = placement.hpwl_um();
        let base_hpwl = *base.get_or_insert(hpwl);
        t.row(vec![
            moves.to_string(),
            f(hpwl, 1),
            f((1.0 - hpwl / base_hpwl) * 100.0, 1),
        ]);
    }
    t.note("reference annealer only: the diminishing returns that set the open/commercial move budgets while it was the flow's placer; the production analytic placer has no such knob");
    t.render()
}

/// A5 — ablation: cost of design-for-test (scan-chain insertion).
#[must_use]
pub fn a5_scan_overhead() -> String {
    let mut t = Table::new(
        "A5: scan-chain insertion overhead at 130nm",
        &["design", "FFs", "area +%", "fmax -%"],
    );
    let base_cfg = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open());
    let mut scan_cfg = base_cfg.clone();
    scan_cfg.insert_scan = true;
    for design in [designs::counter(8), designs::fir4(8), designs::uart_tx()] {
        let base = run_flow(design.source(), &base_cfg).expect("flows");
        let scanned = run_flow(design.source(), &scan_cfg).expect("flows");
        let area_pct =
            (scanned.report.ppa.cell_area_um2 / base.report.ppa.cell_area_um2 - 1.0) * 100.0;
        let fmax_pct = (1.0 - scanned.report.ppa.fmax_mhz / base.report.ppa.fmax_mhz) * 100.0;
        t.row(vec![
            design.name().to_string(),
            base.report.ppa.flip_flops.to_string(),
            f(area_pct, 1),
            f(fmax_pct, 1),
        ]);
    }
    t.note("one MUX2 per flip-flop: the classic ~5-20% area and speed tax of testability");
    t.render()
}

/// E14 — hub simulation with *measured* service times (Rec. 7).
///
/// E8 assumes the tier model's mean service hours (0.5/4/24). E14
/// replaces the assumption with measurement: representative per-tier
/// design batches run through the batch engine, the measured mean run
/// times are scaled to cluster hours, and the hub simulation is re-run
/// with the calibrated workload. The measured *ratios* between tiers —
/// not the absolute guess — then drive the queueing result. Wall-clock
/// measurements make this table machine-dependent, so E14 is excluded
/// from the stable-table determinism test.
#[must_use]
pub fn e14_calibrated_hub() -> String {
    use chipforge::exec::{calibrate, BatchEngine, EngineConfig, JobSpec};

    let engine = BatchEngine::new(EngineConfig::with_workers(4));
    let tier_batches: [(
        &str,
        OptimizationProfile,
        Vec<chipforge::hdl::designs::Design>,
    ); 3] = [
        (
            "beginner",
            OptimizationProfile::quick(),
            vec![designs::counter(8), designs::gray_encoder(8)],
        ),
        (
            "intermediate",
            OptimizationProfile::open(),
            vec![designs::alu(8), designs::fir4(8)],
        ),
        (
            "advanced",
            OptimizationProfile::commercial(),
            vec![designs::alu(16), designs::uart_tx()],
        ),
    ];
    let mut measured_ms = [0.0f64; 3];
    let mut t = Table::new(
        "E14: hub simulation calibrated from measured batch times (Rec. 7)",
        &["tier", "jobs", "measured mean ms", "service h (scaled)"],
    );
    for (i, (tier, profile, tier_designs)) in tier_batches.iter().enumerate() {
        let jobs: Vec<JobSpec> = tier_designs
            .iter()
            .map(|d| {
                JobSpec::new(d.name(), d.source(), TechnologyNode::N130, profile.clone())
                    .with_seed(2_025 + i as u64)
            })
            .collect();
        let job_count = jobs.len();
        let batch = engine.run_batch(jobs);
        measured_ms[i] =
            calibrate::mean_computed_run_ms(&batch.results).expect("tier batch computes");
        t.row(vec![
            (*tier).to_string(),
            job_count.to_string(),
            f(measured_ms[i], 2),
            f(measured_ms[i] * calibrate::DEFAULT_MS_TO_HOURS, 3),
        ]);
    }
    let tier_hours =
        calibrate::tier_hours_from_measured_ms(measured_ms, calibrate::DEFAULT_MS_TO_HOURS);
    let base = WorkloadSpec::new(12, 40, 24.0 * 9.0, 2_025);
    let calibrated = calibrate::calibrated_spec(&base, tier_hours);
    let hub = EnablementHub::new();
    let (_, modelled) = hub.adoption_scenarios(&base, 12);
    let (_, measured) = hub.adoption_scenarios(&calibrated, 12);
    t.note(format!(
        "modelled service hours give hub mean turnaround {:.1} h",
        modelled.mean_turnaround_h
    ));
    t.note(format!(
        "measured (calibrated) service hours give {:.2} h at the same load",
        measured.mean_turnaround_h
    ));
    t.note("calibration replaces the 0.5/4/24 h tier guess with measured stage times");
    t.render()
}

/// E15 — resilience: injected faults, checkpoint/resume and graceful
/// degradation in the batch engine, plus server outages in the hub
/// simulation.
///
/// The exec half sweeps a seeded transient-fault rate across three
/// policies (plain retry, quarantine, quarantine + degraded route/CTS
/// retry) over a 24-job batch, then proves the checkpoint path: a run
/// killed after 12 journaled jobs and resumed from its journal must
/// reproduce the uninterrupted run's canonical report byte-for-byte.
/// The cloud half sweeps server mean-uptime with and without requeueing
/// interrupted jobs. Counts and turnarounds are fully deterministic,
/// but wall-clock attempt timing keeps E15 out of the stable-table
/// determinism test alongside E14.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn e15_resilience() -> String {
    use chipforge::cloud::{simulate_hub, simulate_hub_resilient, HubResilience};
    use chipforge::exec::{BatchEngine, EngineConfig, JobSpec, ResilienceOptions};
    use chipforge::obs::Tracer;
    use chipforge::resil::{FaultPlan, Journal, JournalWriter, OutagePlan, ResiliencePolicy};
    use std::time::Duration;

    let jobs = || -> Vec<JobSpec> {
        let suite = designs::suite();
        (0..24usize)
            .map(|i| {
                let design = &suite[i % suite.len()];
                JobSpec::new(
                    format!("{}-{i:02}", design.name()),
                    design.source(),
                    TechnologyNode::N130,
                    OptimizationProfile::quick(),
                )
                .with_seed(3_000 + i as u64)
            })
            .collect()
    };
    let config = || EngineConfig {
        workers: 4,
        retry_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        ..EngineConfig::default()
    };

    let mut t = Table::new(
        "E15: batch resilience under seeded transient faults (24 jobs, seed 42)",
        &[
            "fault rate",
            "policy",
            "ok",
            "degraded",
            "quarantined",
            "mean attempts",
        ],
    );
    for rate in [0.0, 0.1, 0.2, 0.4] {
        for (label, policy) in [
            ("retry", ResiliencePolicy::inert()),
            (
                "quarantine",
                ResiliencePolicy::resilient(2).without_degrade(),
            ),
            ("quarantine+degrade", ResiliencePolicy::resilient(2)),
        ] {
            let engine = BatchEngine::new(config());
            let plan = if rate > 0.0 {
                FaultPlan::transient(42, rate)
            } else {
                FaultPlan::disabled()
            };
            let batch = engine.run_batch_resilient(
                jobs(),
                ResilienceOptions {
                    plan,
                    policy,
                    ..ResilienceOptions::default()
                },
            );
            let totals = &batch.report.totals;
            let attempts: u32 = batch.results.iter().map(|r| r.attempts).sum();
            t.row(vec![
                f(rate, 2),
                label.to_string(),
                totals.succeeded.to_string(),
                totals.degraded.to_string(),
                totals.quarantined.to_string(),
                f(f64::from(attempts) / batch.results.len() as f64, 2),
            ]);
        }
    }
    // Checkpoint/resume proof at the 20% fault rate: kill after half
    // the batch, resume from the journal, compare canonical reports.
    let dir = std::env::temp_dir();
    let clean_path = dir.join(format!("chipforge-e15-clean-{}.jsonl", std::process::id()));
    let chaos_path = dir.join(format!("chipforge-e15-chaos-{}.jsonl", std::process::id()));
    let options = |journal, resume, halt_after| ResilienceOptions {
        plan: FaultPlan::transient(42, 0.2),
        policy: ResiliencePolicy::resilient(2),
        journal,
        resume,
        halt_after,
        ..ResilienceOptions::default()
    };
    let clean = BatchEngine::new(config()).run_batch_resilient(
        jobs(),
        options(JournalWriter::create(&clean_path).ok(), None, None),
    );
    let halted = BatchEngine::new(config()).run_batch_resilient(
        jobs(),
        options(JournalWriter::create(&chaos_path).ok(), None, Some(12)),
    );
    let resumed = BatchEngine::new(config())
        .run_batch_resilient(jobs(), options(None, Journal::load(&chaos_path).ok(), None));
    t.note(format!(
        "kill-at-12/resume reproduces the clean canonical report byte-for-byte: {}",
        if clean.canonical_report() == resumed.canonical_report() {
            "yes"
        } else {
            "NO"
        }
    ));
    t.note(format!(
        "the halted run reached {} of 24 jobs before the simulated kill",
        halted.results.len()
    ));
    let _ = std::fs::remove_file(&clean_path);
    let _ = std::fs::remove_file(&chaos_path);
    let mut out = t.render();

    let spec = WorkloadSpec::new(8, 30, 48.0, 7);
    let mut c = Table::new(
        "E15b: hub server outages — requeue vs lose (240 jobs, 4 servers)",
        &[
            "mean uptime h",
            "requeue",
            "completed",
            "lost",
            "outages",
            "mean turnaround h",
            "p95 h",
        ],
    );
    let healthy = simulate_hub(&spec, 4, 0.0, 1.0);
    c.row(vec![
        "(no outages)".to_string(),
        "-".to_string(),
        healthy.completed.to_string(),
        "0".to_string(),
        "0".to_string(),
        f(healthy.mean_turnaround_h, 1),
        f(healthy.p95_turnaround_h, 1),
    ]);
    for uptime in [400.0, 200.0, 100.0] {
        for requeue in [true, false] {
            let resilience = HubResilience {
                outage: Some(OutagePlan::new(9, uptime, 24.0)),
                requeue,
            };
            let r = simulate_hub_resilient(&spec, 4, 0.0, 1.0, &resilience, &Tracer::disabled());
            c.row(vec![
                f(uptime, 0),
                if requeue { "yes" } else { "no" }.to_string(),
                r.completed.to_string(),
                r.lost.to_string(),
                r.outages.to_string(),
                f(r.mean_turnaround_h, 1),
                f(r.p95_turnaround_h, 1),
            ]);
        }
    }
    c.note("requeueing trades turnaround for zero lost jobs; without it, outages lose work");
    out.push('\n');
    out.push_str(&c.render());
    out
}

/// One E16 sweep cell: `(arrival multiplier, policy name, result)`.
///
/// Shared by the table renderer and the acceptance test so both see
/// exactly the same runs. The grid is 3 arrival-rate multipliers of
/// the 6-server saturation point × 3 admission policies.
#[must_use]
pub fn e16_sweep() -> Vec<(f64, &'static str, chipforge::cloud::AdmittedResult)> {
    use chipforge::admit::AdmissionPolicy;
    use chipforge::cloud::simulate_hub_admitted;
    use chipforge::obs::Tracer;

    // Default tier mix 0.6/0.3/0.1 over 0.5/4/24 h services gives a
    // 3.9 h mean job; 12 universities saturate 6 servers when each
    // group's mean inter-arrival is 12 * 3.9 / 6 = 7.8 h.
    let saturation_interarrival_h = 7.8;
    let policies: [(&'static str, AdmissionPolicy); 3] = [
        ("unbounded", AdmissionPolicy::unbounded(3)),
        (
            "bounded-reject",
            AdmissionPolicy::bounded(3, 4)
                .with_weights(vec![2.0, 1.5, 1.0])
                .with_aging(0.25),
        ),
        (
            "bounded-shed",
            AdmissionPolicy::bounded(3, 4)
                .with_shed_oldest()
                .with_weights(vec![2.0, 1.5, 1.0])
                .with_aging(0.25),
        ),
    ];
    let mut cells = Vec::new();
    for multiplier in [0.5, 1.0, 2.0] {
        let spec = WorkloadSpec::new(12, 150, saturation_interarrival_h / multiplier, 416);
        for (name, policy) in &policies {
            let result = simulate_hub_admitted(&spec, 6, 0.0, 1.0, policy, &Tracer::disabled())
                .expect("valid workload and 3-tier policy");
            cells.push((multiplier, *name, result));
        }
    }
    cells
}

/// E16 — overload robustness: admission control keeps tail latency
/// bounded past saturation (Rec. 7).
///
/// Sweeps the hub DES across arrival-rate multipliers {0.5×, 1×, 2×}
/// of the 6-server saturation point and three admission policies: the
/// legacy unbounded FIFO (an inert [`AdmissionPolicy`]), bounded
/// per-tier queues (4 deep) rejecting overflow, and the same bound
/// shedding the oldest entry instead. Both bounded policies dispatch
/// by weighted fair share with anti-starvation aging. At 2× saturation
/// the unbounded p99 turnaround diverges to well over 10× the
/// uncontended baseline while the bounded policies hold it within 2×
/// by turning surplus work away; goodput and rejection fractions
/// quantify the price. Pure DES — no wall clock — so the table is in
/// the stable-table determinism test.
///
/// [`AdmissionPolicy`]: chipforge::admit::AdmissionPolicy
#[must_use]
pub fn e16_overload() -> String {
    let mut t = Table::new(
        "E16: overload — admission policy vs arrival rate (Rec. 7)",
        &[
            "load xsat",
            "policy",
            "completed",
            "rejected %",
            "shed %",
            "goodput j/h",
            "p99 turnaround h",
            "beginner max wait h",
        ],
    );
    let cells = e16_sweep();
    let mut baseline_p99 = 0.0;
    let mut overloaded: Vec<(&str, f64)> = Vec::new();
    for (multiplier, name, r) in &cells {
        let offered: usize = r.tiers.iter().map(|s| s.offered).sum();
        let rejected: usize = r.tiers.iter().map(|s| s.rejected).sum();
        let shed: usize = r.tiers.iter().map(|s| s.shed).sum();
        if (*multiplier - 0.5).abs() < f64::EPSILON && *name == "unbounded" {
            baseline_p99 = r.p99_turnaround_h;
        }
        if (*multiplier - 2.0).abs() < f64::EPSILON {
            overloaded.push((name, r.p99_turnaround_h));
        }
        t.row(vec![
            f(*multiplier, 1),
            (*name).to_string(),
            r.scenario.completed.to_string(),
            f(rejected as f64 * 100.0 / offered.max(1) as f64, 1),
            f(shed as f64 * 100.0 / offered.max(1) as f64, 1),
            f(r.scenario.completed as f64 / r.horizon_h.max(1e-9), 2),
            f(r.p99_turnaround_h, 1),
            f(r.tiers[0].max_wait_h, 1),
        ]);
    }
    t.note(format!(
        "uncontended baseline p99 = {baseline_p99:.1} h (unbounded at 0.5x saturation)"
    ));
    for (name, p99) in overloaded {
        t.note(format!(
            "at 2x saturation, {name} p99 is {:.1}x baseline",
            p99 / baseline_p99.max(1e-9)
        ));
    }
    t.note("bounded queues trade admission for a flat tail: rejected work fails fast instead of aging in queue");
    t.render()
}

/// The three E17 passes over the same clock/profile sweep, in order:
/// baseline (no stage cache), cold (empty stage cache) and warm (a
/// fresh engine sharing the cold pass's populated stage cache).
///
/// The E17/E20 sweep: `alu8` at 4 clock targets x {quick, open}
/// profiles, seed 11 — the shape of an iterative design-space
/// exploration, where the quick profile's clock-free front-end keys
/// let every clock variant share six of eight stages.
#[must_use]
pub fn sweep_jobs() -> Vec<chipforge::exec::JobSpec> {
    use chipforge::exec::JobSpec;

    let design = designs::alu(8);
    let mut jobs = Vec::new();
    for profile in [OptimizationProfile::quick(), OptimizationProfile::open()] {
        for clock in [25.0, 50.0, 100.0, 200.0] {
            jobs.push(
                JobSpec::new(
                    format!("{}-{}-{clock}", design.name(), profile.name),
                    design.source(),
                    TechnologyNode::N130,
                    profile.clone(),
                )
                .with_clock_mhz(clock)
                .with_seed(11),
            );
        }
    }
    jobs
}

/// Shared by the table renderer and the acceptance test so both see
/// exactly the same runs. The sweep runs on one worker.
#[must_use]
pub fn e17_passes() -> [chipforge::exec::BatchReport; 3] {
    use chipforge::exec::{BatchEngine, EngineConfig, StageCacheMode};

    let jobs = sweep_jobs;

    let baseline = BatchEngine::new(EngineConfig::with_workers(1)).run_batch(jobs());
    let cold_engine = BatchEngine::new(EngineConfig {
        stage_cache: StageCacheMode::Memory,
        ..EngineConfig::with_workers(1)
    });
    let cold = cold_engine.run_batch(jobs());
    let snapshots = cold_engine
        .stage_cache()
        .expect("memory mode builds a cache")
        .clone();
    let warm =
        BatchEngine::with_stage_cache(EngineConfig::with_workers(1), snapshots).run_batch(jobs());
    [baseline, cold, warm]
}

/// E17 — incremental flows: per-stage caching across a clock/profile
/// sweep (Rec. 4/7).
///
/// Runs the same 8-job sweep three times: without a stage cache, with a
/// cold one, and on a fresh engine warmed by the cold pass. Stage
/// hit/miss counts are content-addressed and fully deterministic; the
/// cold pass already restores the shared front-end of each profile's
/// clock variants, and the warm pass restores every stage of every job.
/// Mean job times feed [`calibrate`] service hours for a hub whose
/// tiers are read as fresh designs / first sweep passes / incremental
/// re-runs, quantifying what incremental execution buys in turnaround.
/// Wall-clock timing keeps E17 out of the stable-table determinism test
/// alongside E14/E15.
///
/// [`calibrate`]: chipforge::exec::calibrate
#[must_use]
pub fn e17_incremental() -> String {
    use chipforge::exec::calibrate;

    let passes = e17_passes();
    let labels = ["baseline", "cold cache", "warm cache"];
    let mut t = Table::new(
        "E17: incremental stage caching over a clock/profile sweep (8 jobs, 1 worker)",
        &[
            "pass",
            "stage hits",
            "stage misses",
            "full restores",
            "recomputed",
            "mean ms/job",
            "speedup",
        ],
    );
    let mut mean_ms = [0.0f64; 3];
    for (i, (label, pass)) in labels.iter().zip(&passes).enumerate() {
        mean_ms[i] = calibrate::mean_computed_run_ms(&pass.results).expect("jobs ran");
        let record = pass.report.stage_cache.as_ref();
        t.row(vec![
            (*label).to_string(),
            record.map_or_else(|| "-".into(), |r| r.hits.to_string()),
            record.map_or_else(|| "-".into(), |r| r.misses.to_string()),
            record.map_or_else(|| "-".into(), |r| r.full_restores.to_string()),
            record.map_or_else(|| "8".into(), |r| r.recomputes.to_string()),
            f(mean_ms[i], 2),
            f(mean_ms[0] / mean_ms[i].max(1e-9), 2),
        ]);
    }
    let tier_hours = calibrate::tier_hours_from_measured_ms(
        [mean_ms[0], mean_ms[1], mean_ms[2]],
        calibrate::DEFAULT_MS_TO_HOURS,
    );
    let base = WorkloadSpec::new(12, 40, 24.0 * 9.0, 2_025);
    let hub = EnablementHub::new();
    let (_, modelled) = hub.adoption_scenarios(&base, 12);
    let (_, incremental) =
        hub.adoption_scenarios(&calibrate::calibrated_spec(&base, tier_hours), 12);
    t.note(format!(
        "tier-model service hours give hub mean turnaround {:.1} h",
        modelled.mean_turnaround_h
    ));
    t.note(format!(
        "sweep-calibrated hours (fresh/cold/warm as tiers) give {:.2} h at the same load",
        incremental.mean_turnaround_h
    ));
    t.note("warm pass restores all 64 stage snapshots: iteration cost is read-back, not recompute");
    t.render()
}

/// The E18 DES-side prediction: a fixed hub-shaped arrival trace plus
/// its simulated per-tier admission envelope across service-time
/// multipliers {0.75×, 1×, 1.5×} (the band allows for calibration
/// uncertainty in both directions, with more headroom above because
/// real-system overheads only ever add).
///
/// Shared by the table renderer and the live-replay acceptance test so
/// both see exactly the same model. The DES clock is unit-free; E18
/// measures service in *milliseconds*, so the same trace replays
/// against the live hub with `ms_per_hour = 1`. Every arrival's
/// service demand is pinned to its tier's mean (`service_ms`) — the
/// live system's per-job cost is near-constant per design, and pinning
/// makes the DES side deterministic given the calibration.
///
/// The shape deliberately mirrors the hub configuration the test
/// starts the live server with: one worker, per-tier queues 4 deep rejecting
/// overflow, fair-share weights 2/1.5/1, no aging (the hub ages in
/// wall seconds, the DES in trace units; zero on both sides keeps the
/// two models identical). Offered load is ~1.4× capacity, so the
/// bounded queues must turn work away — the envelope predicts how
/// much, per tier.
#[must_use]
pub fn e18_prediction(
    service_ms: [f64; 3],
) -> (
    Vec<chipforge::cloud::HubArrival>,
    Vec<(f64, chipforge::cloud::AdmittedResult)>,
) {
    use chipforge::admit::AdmissionPolicy;
    use chipforge::cloud::{simulate_hub_admitted_trace, HubArrival};
    use chipforge::obs::Tracer;

    const UNIVERSITIES: usize = 3;
    const JOBS_PER_UNIVERSITY: usize = 10;
    // One worker on both sides: the DES models load-independent
    // service times, which only holds on the live hub when jobs never
    // contend for cores (CI containers are frequently single-core, so
    // two live workers would serialize and double every service time).
    const WORKERS: usize = 1;
    const RHO: f64 = 1.4;

    // Default tier mix 0.6/0.3/0.1; offered rate = universities /
    // interarrival, capacity = workers / mean service.
    let mean_service = 0.6 * service_ms[0] + 0.3 * service_ms[1] + 0.1 * service_ms[2];
    let interarrival = UNIVERSITIES as f64 * mean_service / (WORKERS as f64 * RHO);
    let spec = WorkloadSpec::new(UNIVERSITIES, JOBS_PER_UNIVERSITY, interarrival, 418)
        .with_tier_service_hours(service_ms);
    let mut trace = spec.arrival_trace();
    for arrival in &mut trace {
        arrival.service_h = service_ms[arrival.tier.priority() as usize];
    }

    let policy = AdmissionPolicy::bounded(3, 4).with_weights(vec![2.0, 1.5, 1.0]);
    let mut envelope = Vec::new();
    for multiplier in [0.75, 1.0, 1.5] {
        let scaled: Vec<HubArrival> = trace
            .iter()
            .map(|a| HubArrival {
                service_h: a.service_h * multiplier,
                ..*a
            })
            .collect();
        let result =
            simulate_hub_admitted_trace(&scaled, WORKERS, 0.0, 1.0, &policy, &Tracer::disabled())
                .expect("valid trace and 3-tier policy");
        envelope.push((multiplier, result));
    }
    (trace, envelope)
}

/// E18 — live hub vs DES prediction (Rec. 7).
///
/// The same `chipforge-admit` types that schedule the DES also
/// schedule the live `forge serve` hub, so the simulation should
/// *predict* the running system. This table is the DES side of that
/// claim at nominal per-tier service times: the fixed E18 trace
/// simulated at 0.75×/1×/1.25× service, giving a per-tier envelope of
/// admissions, rejections and tail turnaround. The acceptance test
/// (`e18_live_replay_stays_within_des_envelope`) calibrates the real
/// per-tier service times, replays the identical trace over HTTP
/// against a live hub configured with the same policy, and asserts
/// the measured per-tier rejection counts, goodput and p99 stay
/// inside this envelope — then restarts the hub on its journal and
/// checks every completed job is recovered exactly once.
#[must_use]
pub fn e18_hub_validation() -> String {
    let (trace, envelope) = e18_prediction([15.0, 30.0, 60.0]);
    let mut t = Table::new(
        "E18: live hub vs DES prediction — admission envelope (Rec. 7)",
        &[
            "service x",
            "tier",
            "offered",
            "admitted",
            "rejected",
            "completed",
            "p99 turnaround ms",
            "goodput j/s",
        ],
    );
    for (multiplier, result) in &envelope {
        for (index, tier) in result.tiers.iter().enumerate() {
            let name = ["beginner", "intermediate", "advanced"][index];
            t.row(vec![
                f(*multiplier, 2),
                name.to_string(),
                tier.offered.to_string(),
                tier.admitted.to_string(),
                tier.rejected.to_string(),
                tier.completed.to_string(),
                f(result.p99_turnaround_h, 1),
                f(
                    result.scenario.completed as f64 / result.horizon_h.max(1e-9) * 1e3,
                    1,
                ),
            ]);
        }
    }
    t.note(format!(
        "fixed trace: {} arrivals over 3 universities, 1 worker, tier queues 4 deep (reject), weights 2/1.5/1",
        trace.len()
    ));
    t.note("service unit is milliseconds; the live replay maps 1 DES unit to 1 ms of wall clock");
    t.note("acceptance: live per-tier rejections, goodput and p99 must land inside the 0.75x-1.5x envelope");
    t.render()
}

/// The E19 semester model at one scale: the reference tiered
/// population ([`SemesterSpec::tiered`]) with the pinned
/// corpus-calibrated service hours, simulated on a hub sized for 80%
/// target utilization. Shared by the table renderer, the determinism
/// smoke test and CI.
#[must_use]
pub fn e19_semester(
    students: usize,
    seed: u64,
) -> (
    chipforge::gen::semester::SemesterSpec,
    usize,
    chipforge::cloud::AdmittedResult,
) {
    use chipforge::gen::semester::SemesterSpec;
    let spec = SemesterSpec::tiered(students, seed);
    let servers = spec.recommended_servers(0.8);
    let result = spec
        .simulate(servers)
        .expect("3-tier policy always validates");
    (spec, servers, result)
}

/// E19 — the semester at scale: generated corpus + tiered population
/// through the admission-controlled hub DES (Rec. 8).
///
/// The paper's R8 calls for tier-oriented enablement from high-school
/// to PhD level; this experiment quantifies what serving an actual
/// tiered population costs. A seeded student population (70/25/5
/// beginner/intermediate/advanced, diurnal submission curves, deadline
/// spikes at weeks 4/8/13, E17-style incremental resubmissions at 35%
/// of fresh-run service) is compiled into an arrival trace and pushed
/// through the same admission machinery as E16/E18, at 10^5 and 10^6
/// students. Per-tier fresh-run service hours are the generated-corpus
/// calibration pinned in `gen::E19_SERVICE_HOURS` (measured
/// `BatchEngine` runtimes of the tier-representative `gen:` specs
/// through `exec::calibrate`, frozen for byte-stable tables; the
/// acceptance test re-derives the live values and checks the ordering).
#[must_use]
pub fn e19_semester_scale() -> String {
    use chipforge::econ::infrastructure::InfrastructureCostModel;

    let mut t = Table::new(
        "E19: million-student semester — tiered hub at scale (Rec. 8)",
        &[
            "students",
            "tier",
            "offered",
            "admitted",
            "rejected %",
            "mean tat h",
            "p99 tat h",
            "eur/student",
        ],
    );
    let model = InfrastructureCostModel::reference();
    let mut summaries = Vec::new();
    for students in [100_000usize, 1_000_000] {
        let (spec, servers, result) = e19_semester(students, 19);
        let costs = spec.tier_cost_per_enabled_student_eur(servers, &result, &model);
        for (class, tier) in ["beginner", "intermediate", "advanced"].iter().enumerate() {
            let stats = &result.tiers[class];
            t.row(vec![
                students.to_string(),
                (*tier).to_string(),
                stats.offered.to_string(),
                stats.admitted.to_string(),
                f(
                    stats.rejected as f64 / stats.offered.max(1) as f64 * 100.0,
                    1,
                ),
                f(stats.mean_turnaround_h, 1),
                f(stats.p99_turnaround_h, 1),
                f(costs[class], 2),
            ]);
        }
        summaries.push(format!(
            "{students} students: {servers} servers, {:.1}% utilization, \
             {} of {} submissions completed, €{:.2}/enabled student",
            result.scenario.utilization * 100.0,
            result.scenario.completed,
            result.tiers.iter().map(|s| s.offered).sum::<usize>(),
            spec.cost_per_enabled_student_eur(servers, &result, &model),
        ));
    }
    for summary in summaries {
        t.note(summary);
    }
    t.note(
        "population: 70/25/5 tier split, diurnal curves, deadline spikes (weeks 4/8/13), \
         resubmissions at 35% of fresh service (E17)",
    );
    t.note(
        "service hours calibrated from the generated corpus (gen::E19_SERVICE_HOURS, \
         measured via BatchEngine + exec::calibrate, pinned for stable tables)",
    );
    t.note(
        "cost per enabled student is flat across a 10x population jump: \
         the hub scales linearly, so tiered access is not rationed by institution size (R8)",
    );
    t.render()
}

/// The four E20 runs of the E17 sweep, all over real sockets.
pub struct E20Passes {
    /// Local-only stage cache — the ground truth everything must match.
    pub no_remote: chipforge::exec::BatchReport,
    /// Cold engine publishing into an empty hub over a clean network.
    pub clean_cold: chipforge::exec::BatchReport,
    /// Fresh engine whose only warm tier is the hub pass 2 just filled.
    pub clean_warm: chipforge::exec::BatchReport,
    /// Fresh engine reaching the same hub through a 30%-fault proxy.
    pub faulty: chipforge::exec::BatchReport,
    /// Every span the warm pass recorded: a stage that executes opens a
    /// `flow`-category span named after it, a restored one opens none.
    pub warm_spans: Vec<chipforge::obs::SpanRecord>,
}

/// Shared by the E20 table renderer and the acceptance tests so both
/// see exactly the same runs: a live `serve` hub, the E17 sweep run
/// locally, then cold/warm/faulty through its `/cache/stage` protocol
/// (the faulty pass via a seeded 30%-fault [`FlakyProxy`]). Canonical
/// reports are asserted byte-identical across all four passes here —
/// the remote tier may only ever change speed, never outcomes.
///
/// [`FlakyProxy`]: chipforge::resil::FlakyProxy
///
/// # Panics
///
/// Panics when a socket cannot be bound or a canonical report diverges.
#[must_use]
pub fn e20_passes() -> E20Passes {
    use chipforge::exec::{BatchEngine, EngineConfig, RemoteCacheConfig, StageCacheMode};
    use chipforge::resil::{FlakyProxy, NetFaultPlan};
    use chipforge::serve::{Hub, HubConfig, KeyRegistry, Server};

    let hub = Hub::new(HubConfig {
        workers: 1,
        ..HubConfig::default()
    })
    .expect("hub without a journal starts");
    let server =
        Server::start(hub, KeyRegistry::demo(), "127.0.0.1:0").expect("ephemeral port binds");
    let proxy = FlakyProxy::start(server.addr(), NetFaultPlan::flaky(11, 0.30))
        .expect("proxy binds an ephemeral port");

    let remote_config = |addr: std::net::SocketAddr| EngineConfig {
        stage_cache: StageCacheMode::Memory,
        remote_cache: Some(RemoteCacheConfig::new(format!("http://{addr}"))),
        ..EngineConfig::with_workers(1)
    };
    let remote_engine = |addr| BatchEngine::new(remote_config(addr));
    let warm_tracer = chipforge::obs::Tracer::new();

    let no_remote = BatchEngine::new(EngineConfig {
        stage_cache: StageCacheMode::Memory,
        ..EngineConfig::with_workers(1)
    })
    .run_batch(sweep_jobs());
    let clean_cold = remote_engine(server.addr()).run_batch(sweep_jobs());
    let clean_warm = BatchEngine::with_tracer(remote_config(server.addr()), warm_tracer.clone())
        .run_batch(sweep_jobs());
    let faulty = remote_engine(proxy.addr()).run_batch(sweep_jobs());

    drop(proxy);
    server.shutdown();

    let truth = no_remote.canonical_report();
    for (label, pass) in [
        ("clean-cold", &clean_cold),
        ("clean-warm", &clean_warm),
        ("30%-fault", &faulty),
    ] {
        assert_eq!(
            truth,
            pass.canonical_report(),
            "{label} remote pass changed job outcomes"
        );
    }

    E20Passes {
        no_remote,
        clean_cold,
        clean_warm,
        faulty,
        warm_spans: warm_tracer.spans(),
    }
}

/// E20 — remote stage cache under network faults (Rec. 4/7).
///
/// A second machine pointing `--remote-cache` at a warm hub should
/// restore the whole E17 sweep instead of recomputing it, and a campus
/// network dropping, truncating or corrupting 30% of connections must
/// cost retries — never correctness. Wall-clock timing keeps E20 out
/// of the stable-table determinism test alongside E14/E15/E17.
#[must_use]
pub fn e20_remote_cache() -> String {
    use chipforge::exec::calibrate;

    let passes = e20_passes();
    let labeled = [
        ("no remote", &passes.no_remote),
        ("clean cold", &passes.clean_cold),
        ("clean warm", &passes.clean_warm),
        ("30% faults", &passes.faulty),
    ];
    let mut t = Table::new(
        "E20: remote stage cache under network faults (8-job sweep, 1 worker)",
        &[
            "pass",
            "stage hits",
            "remote hits",
            "stored",
            "requests",
            "timeouts",
            "retries",
            "fast-fails",
            "corrupt",
            "mean ms/job",
            "vs cold",
        ],
    );
    let mut mean_ms = [0.0f64; 4];
    for (i, (_, pass)) in labeled.iter().enumerate() {
        mean_ms[i] = calibrate::mean_computed_run_ms(&pass.results).expect("jobs ran");
    }
    for (i, (label, pass)) in labeled.iter().enumerate() {
        let stages = pass.report.stage_cache.as_ref();
        let remote = pass.report.remote_cache.as_ref();
        let remote_count = |pick: fn(&chipforge::exec::RemoteCacheRecord) -> u64| {
            remote.map_or_else(|| "-".into(), |r| pick(r).to_string())
        };
        t.row(vec![
            (*label).to_string(),
            stages.map_or_else(|| "-".into(), |r| r.hits.to_string()),
            remote_count(|r| r.hits),
            remote_count(|r| r.stores),
            remote_count(|r| r.requests),
            remote_count(|r| r.timeouts),
            remote_count(|r| r.retries),
            remote_count(|r| r.breaker_open),
            remote_count(|r| r.corrupt),
            f(mean_ms[i], 2),
            f(mean_ms[1] / mean_ms[i].max(1e-9), 2),
        ]);
    }
    t.note(format!(
        "second engine via the warm hub: {:.2}x over its own cold pass (reported, not gated: \
         the ratio falls whenever the cold side gets cheaper; the acceptance test gates on \
         the warm pass being full restores)",
        mean_ms[1] / mean_ms[2].max(1e-9)
    ));
    t.note("canonical reports byte-identical across all four passes (asserted in e20_passes)");
    t.note(
        "clean-warm computes nothing: every stage of every job is fetched from the hub, \
         checksum-verified and promoted to the local tiers, one chain lookup per job",
    );
    t.note(
        "the 30%-fault pass pays timeouts/retries and discards corrupt bodies as misses; \
         degradation is visible in counters, never in artifacts",
    );
    t.render()
}

/// Injected per-job latency for the E21 workload, in milliseconds.
///
/// On a single core, shard speedup comes from overlapping these
/// sleeps — the same way real flows overlap tool I/O and license
/// waits — so the measured throughput gain is machine-independent and
/// does not require multiple CPUs.
pub const E21_SLOW_MS: u64 = 120;

/// The E21 workload: the quick-profile half of the E17 clock sweep at
/// four seeds (16 jobs), each with a [`E21_SLOW_MS`] pre-run hang, so
/// single-machine throughput is bounded by latency overlap rather than
/// raw compute.
#[must_use]
pub fn e21_jobs() -> Vec<chipforge::exec::JobSpec> {
    use chipforge::exec::{Fault, JobSpec};

    let design = designs::alu(8);
    let mut jobs = Vec::new();
    for seed in [11u64, 12, 13, 14] {
        for clock in [25.0, 50.0, 100.0, 200.0] {
            jobs.push(
                JobSpec::new(
                    format!("{}-quick-{clock}-s{seed}", design.name()),
                    design.source(),
                    TechnologyNode::N130,
                    OptimizationProfile::quick(),
                )
                .with_clock_mhz(clock)
                .with_seed(seed)
                .with_fault(Fault::Hang(E21_SLOW_MS)),
            );
        }
    }
    jobs
}

/// One clean E21 pass at `shards` engine shards of one worker each —
/// shared by the table renderer, the acceptance test and the
/// `shard_fabric` bench so all three measure the same runs.
#[must_use]
pub fn e21_pass(shards: usize) -> chipforge::exec::BatchReport {
    use chipforge::exec::{BatchEngine, EngineConfig};

    BatchEngine::new(EngineConfig::with_shards(shards, 1)).run_batch(e21_jobs())
}

/// Clean shard-count passes plus shard-fault passes at four shards.
pub struct E21Passes {
    /// `(shard count, report)` for the clean sweep.
    pub clean: Vec<(usize, chipforge::exec::BatchReport)>,
    /// `(label, report)` for the kill/wedge chaos passes at 4 shards.
    pub faulted: Vec<(&'static str, chipforge::exec::BatchReport)>,
}

/// Runs every E21 pass and asserts the tentpole invariant: the
/// canonical report is byte-identical across 1/2/4/8 shards and across
/// seeded shard kills and wedges — supervision is invisible in the
/// artifacts.
#[must_use]
pub fn e21_passes() -> E21Passes {
    use chipforge::exec::{BatchEngine, EngineConfig, ResilienceOptions};
    use chipforge::resil::ShardFaultPlan;

    let clean: Vec<(usize, chipforge::exec::BatchReport)> =
        [1usize, 2, 4, 8].map(|n| (n, e21_pass(n))).into();
    let chaos = |label: &'static str, plan: ShardFaultPlan| {
        let report = BatchEngine::new(EngineConfig::with_shards(4, 1)).run_batch_resilient(
            e21_jobs(),
            ResilienceOptions {
                shard_plan: plan,
                ..ResilienceOptions::default()
            },
        );
        (label, report)
    };
    let faulted = vec![
        chaos("kill 50% @4", ShardFaultPlan::kill(7, 0.5)),
        chaos("kill 100% @4", ShardFaultPlan::kill(7, 1.0)),
        chaos(
            "wedge 100% @4",
            ShardFaultPlan::kill(7, 0.0).with_wedge_rate(1.0),
        ),
    ];
    let truth = clean[0].1.canonical_report();
    for (label, pass) in clean
        .iter()
        .map(|(n, p)| (format!("{n} shards"), p))
        .chain(faulted.iter().map(|(l, p)| ((*l).to_string(), p)))
    {
        assert_eq!(
            truth,
            pass.canonical_report(),
            "{label} changed the canonical report"
        );
    }
    E21Passes { clean, faulted }
}

/// E21 — supervised shard fabric: throughput scaling and fault
/// transparency (Rec. 4/7, extending E14/E17/E20).
///
/// Sweeps the sharded engine across 1/2/4/8 shards on the
/// latency-injected E17 workload, then kills or wedges shards at 4
/// shards under a seeded [`chipforge::resil::ShardFaultPlan`]. Every
/// pass must produce a byte-identical canonical report (asserted in
/// [`e21_passes`]); the measured multi-shard throughput feeds the hub
/// DES as added capacity. Wall-clock timing keeps E21 out of the
/// stable-table determinism test alongside E14/E15/E17/E20.
#[must_use]
pub fn e21_shard_fabric() -> String {
    let passes = e21_passes();
    let mut t = Table::new(
        "E21: supervised shard fabric on the latency-injected sweep (16 jobs, 1 worker/shard)",
        &[
            "pass",
            "jobs/s",
            "makespan ms",
            "steals",
            "quarantines",
            "restarts",
            "re-dispatched",
            "speedup",
        ],
    );
    let base_throughput = passes.clean[0].1.report.totals.throughput_jobs_per_s;
    let mut speedup4 = 1.0f64;
    for (label, pass) in passes
        .clean
        .iter()
        .map(|(n, p)| (format!("clean x{n}"), p))
        .chain(passes.faulted.iter().map(|(l, p)| ((*l).to_string(), p)))
    {
        let totals = &pass.report.totals;
        let shard_sum = |pick: fn(&chipforge::exec::ShardRecord) -> u64| -> u64 {
            pass.report.shards.iter().map(pick).sum()
        };
        let speedup = totals.throughput_jobs_per_s / base_throughput.max(1e-9);
        if label == "clean x4" {
            speedup4 = speedup;
        }
        t.row(vec![
            label,
            f(totals.throughput_jobs_per_s, 1),
            f(totals.makespan_ms, 1),
            shard_sum(|s| s.steals).to_string(),
            shard_sum(|s| s.quarantines).to_string(),
            shard_sum(|s| s.restarts).to_string(),
            shard_sum(|s| s.redispatched).to_string(),
            f(speedup, 2),
        ]);
    }
    // Feed the measured scaling into the hub DES as added capacity: a
    // hub that shards its engine serves like one with speedup-times the
    // servers. The workload is sized to saturate the unsharded hub so
    // the added capacity is visible in turnaround.
    let base = WorkloadSpec::new(24, 80, 24.0 * 9.0, 2_025);
    let hub = EnablementHub::new();
    let single_servers = 2usize;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let sharded_servers = ((single_servers as f64) * speedup4).round().max(3.0) as usize;
    let (_, single) = hub.adoption_scenarios(&base, single_servers);
    let (_, sharded) = hub.adoption_scenarios(&base, sharded_servers);
    t.note(format!(
        "4 shards sustain {speedup4:.2}x the 1-shard throughput (acceptance floor 1.5x)"
    ));
    t.note(format!(
        "DES capacity feed: {single_servers} servers give mean turnaround {:.2} h; \
         scaling capacity by the measured 4-shard speedup ({sharded_servers} servers) gives {:.2} h",
        single.mean_turnaround_h, sharded.mean_turnaround_h
    ));
    t.note("canonical reports byte-identical across all passes (asserted in e21_passes)");
    t.note(
        "killed shards are quarantined and restarted; their claimed jobs re-dispatch exactly once",
    );
    t.render()
}

/// The E22 kernel workload: the 15-spec `gen:` corpus synthesized once
/// at 130 nm with the open library — the netlists every kernel pair is
/// timed on.
#[must_use]
pub fn e22_netlists() -> Vec<(String, chipforge::netlist::Netlist)> {
    let lib = e22_library();
    chipforge::gen::corpus()
        .iter()
        .map(|spec| {
            let module = spec.generate().elaborate().expect("corpus elaborates");
            let netlist = synthesize(&module, &lib, &SynthOptions::default())
                .expect("corpus synthesizes")
                .netlist;
            (spec.module_name(), netlist)
        })
        .collect()
}

/// The library every E22 kernel pass runs against.
#[must_use]
pub fn e22_library() -> chipforge::pdk::StdCellLibrary {
    Pdk::open(TechnologyNode::N130).library(chipforge::pdk::LibraryKind::Open)
}

/// Placement options mirroring the open profile, with the move budget
/// the annealer had while it was that profile's placer.
#[must_use]
pub fn e22_place_options() -> chipforge::place::PlacementOptions {
    chipforge::place::PlacementOptions {
        utilization: OptimizationProfile::open().utilization,
        seed: 1,
        moves_per_cell: crate::parity::REFERENCE_MOVES_PER_CELL,
    }
}

/// Routing options mirroring the open profile.
#[must_use]
pub fn e22_route_options() -> chipforge::route::RouteOptions {
    chipforge::route::RouteOptions {
        gcell_um: 0.0,
        max_iterations: OptimizationProfile::open().route_iterations,
    }
}

/// Kernel-pair timings and quality ratios for one E22 corpus design.
pub struct E22Row {
    /// Generated design name.
    pub design: String,
    /// Placed cell count.
    pub cells: usize,
    /// Annealing placement wall-clock in ms.
    pub anneal_ms: f64,
    /// Analytical placement wall-clock in ms.
    pub analytic_ms: f64,
    /// Analytic HPWL / anneal HPWL (quality parity, lower is better).
    pub hpwl_ratio: f64,
    /// Maze routing wall-clock in ms.
    pub maze_ms: f64,
    /// Steiner routing wall-clock in ms.
    pub steiner_ms: f64,
    /// Steiner wirelength / maze wirelength on the same placement.
    pub wl_ratio: f64,
}

/// Times both kernel pairs on every corpus design. Both routers run
/// over the same annealed placement so their wirelengths compare
/// apples-to-apples. Wall-clock timing keeps E22 out of the
/// stable-table determinism test alongside E14/E15/E17/E20/E21.
#[must_use]
pub fn e22_kernel_sweep() -> Vec<E22Row> {
    use chipforge::place::{place, place_analytic};
    use chipforge::route::{route, route_steiner};
    use std::time::Instant;

    let lib = e22_library();
    let popts = e22_place_options();
    let ropts = e22_route_options();
    e22_netlists()
        .into_iter()
        .map(|(design, netlist)| {
            let start = Instant::now();
            let annealed = place(&netlist, &lib, &popts).expect("anneal places");
            let anneal_ms = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let analytic = place_analytic(&netlist, &lib, &popts).expect("analytic places");
            let analytic_ms = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let mazed = route(&netlist, &annealed, &lib, &ropts).expect("maze routes");
            let maze_ms = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let steinered =
                route_steiner(&netlist, &annealed, &lib, &ropts).expect("steiner routes");
            let steiner_ms = start.elapsed().as_secs_f64() * 1e3;

            E22Row {
                design,
                cells: netlist.cell_count(),
                anneal_ms,
                analytic_ms,
                hpwl_ratio: analytic.hpwl_um() / annealed.hpwl_um(),
                maze_ms,
                steiner_ms,
                wl_ratio: steinered.total_wirelength_um() / mazed.total_wirelength_um(),
            }
        })
        .collect()
}

/// Runs the kernel-parity gate behind the E22 table and its acceptance
/// test: [`crate::parity::check_parity`] — placement, routing and
/// whole-flow bands of the production kernels against the reference
/// ones — on the small configuration of every `gen:` family (the
/// tier-1 test `tests/kernels.rs` runs the same check over all 18
/// `flow_cold` designs), then a 1/2/8-shard batch of the same jobs
/// whose canonical reports must be byte-identical.
///
/// # Panics
///
/// Panics if any parity or determinism gate fails.
#[must_use]
pub fn e22_parity() -> Vec<crate::parity::ParityRow> {
    use chipforge::exec::{BatchEngine, EngineConfig, JobSpec};

    // The small (width=8) configuration of each of the five families.
    let specs: Vec<_> = chipforge::gen::corpus().into_iter().step_by(3).collect();
    let rows = specs.iter().map(crate::parity::check_parity).collect();

    let jobs = || -> Vec<JobSpec> {
        specs
            .iter()
            .map(|spec| {
                let design = spec.generate();
                JobSpec::new(
                    spec.module_name(),
                    design.source(),
                    TechnologyNode::N130,
                    OptimizationProfile::open(),
                )
            })
            .collect()
    };
    let truth = BatchEngine::new(EngineConfig::with_shards(1, 1))
        .run_batch(jobs())
        .canonical_report();
    for shards in [2usize, 8] {
        let pass = BatchEngine::new(EngineConfig::with_shards(shards, 1)).run_batch(jobs());
        assert_eq!(
            truth,
            pass.canonical_report(),
            "canonical report diverged at {shards} shards"
        );
    }
    rows
}

/// E22 — the production kernels against the reference kernels on the
/// `gen:` corpus (ROADMAP item 2(d); PAPERS.md arXiv:2308.01857).
///
/// Table 1 times the annealing-vs-analytic placers and maze-vs-Steiner
/// routers on all 15 corpus netlists at open-profile effort, calling
/// the four kernel functions directly; table 2 is the one-sided parity
/// gate from [`e22_parity`]. The release-build timings are snapshotted
/// as `BENCH_10.json` by the `kernel_compare` bench; the acceptance
/// floor is a 1.5x corpus-total speedup for each production kernel.
#[must_use]
pub fn e22_kernel_ppa() -> String {
    let sweep = e22_kernel_sweep();
    let mut t = Table::new(
        "E22: reference vs production kernels on the gen: corpus (open-profile effort, 130nm)",
        &[
            "design",
            "cells",
            "anneal ms",
            "analytic ms",
            "speedup",
            "hpwl ratio",
            "maze ms",
            "steiner ms",
            "speedup",
            "wl ratio",
        ],
    );
    for row in &sweep {
        t.row(vec![
            row.design.clone(),
            row.cells.to_string(),
            f(row.anneal_ms, 2),
            f(row.analytic_ms, 2),
            format!("{:.2}x", row.anneal_ms / row.analytic_ms),
            f(row.hpwl_ratio, 3),
            f(row.maze_ms, 2),
            f(row.steiner_ms, 2),
            format!("{:.2}x", row.maze_ms / row.steiner_ms),
            f(row.wl_ratio, 3),
        ]);
    }
    let total = |pick: fn(&E22Row) -> f64| sweep.iter().map(pick).sum::<f64>();
    let place_speedup = total(|r| r.anneal_ms) / total(|r| r.analytic_ms);
    let route_speedup = total(|r| r.maze_ms) / total(|r| r.steiner_ms);
    t.note(format!(
        "corpus-total speedups: analytic placer {place_speedup:.2}x, steiner router \
         {route_speedup:.2}x (acceptance floor 1.5x, snapshotted in BENCH_10.json)"
    ));
    t.note("hpwl/wl ratios are production over reference kernel (1.00 = parity); both routers run over the annealed placement");

    use crate::parity::{FMAX_FLOOR, POWER_CEILING, WIRE_CEILING};
    let mut p = Table::new(
        "E22 parity gate: production kernels / reference kernels (open profile, 130nm, 50 MHz)",
        &[
            "design",
            "cells",
            "hpwl",
            "routed wl",
            "overflow",
            "fmax",
            "power",
        ],
    );
    for row in e22_parity() {
        p.row(vec![
            row.design,
            row.cells.to_string(),
            format!("{:.3}x", row.hpwl_ratio),
            format!("{:.3}x", row.wl_ratio),
            format!("{} / {}", row.overflow.0, row.overflow.1),
            format!("{:.3}x", row.fmax_ratio),
            format!("{:.3}x", row.power_ratio),
        ]);
    }
    p.note(format!(
        "one-sided gate (asserted in parity::check_parity): hpwl and routed wl <= {WIRE_CEILING}x, \
         overflow <= the maze driver's, area bit-identical, fmax >= {FMAX_FLOOR}x, \
         power <= {POWER_CEILING}x, equal EC verdicts, 0 DRC"
    ));
    p.note("hpwl: analytic / annealed on the same sized netlist; routed wl and overflow: steiner / maze over the analytic placement; fmax, power: whole flow / flow assembled from the reference kernels");
    p.note("canonical reports byte-identical across 1/2/8 shards");
    format!("{}\n{}", t.render(), p.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_runs_and_produces_a_table() {
        for id in EXPERIMENT_IDS {
            let output = run_experiment(id).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(output.contains("=="), "{id} produced no table");
            assert!(output.len() > 100, "{id} output too short");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("e99").is_none());
    }

    #[test]
    fn e20_warm_remote_sweep_is_faster_and_fault_tolerant() {
        // e20_passes itself asserts canonical-report byte-identity
        // across the no-remote, clean and 30%-fault passes.
        let passes = e20_passes();
        // Gated on counts, not on a wall-clock ratio (the E20 table
        // prints that): every warm job restores all its stages from the
        // hub, so nothing is computed and no stage opens a span.
        let jobs = passes.clean_warm.results.len() as u64;
        let warm_stages = passes
            .clean_warm
            .report
            .stage_cache
            .as_ref()
            .expect("stage tier recorded");
        assert_eq!(warm_stages.full_restores, jobs, "every warm job restores");
        assert_eq!(warm_stages.recomputes, 0, "no warm job computes a stage");
        assert_eq!(warm_stages.misses, 0, "no warm stage lookup misses");
        let stage_spans: Vec<_> = passes
            .warm_spans
            .iter()
            .filter(|s| {
                s.category == "flow"
                    && chipforge::flow::FlowStep::ALL
                        .iter()
                        .any(|step| step.name() == s.name)
            })
            .map(|s| s.name.as_str())
            .collect();
        assert!(
            stage_spans.is_empty(),
            "warm pass executed stages: {stage_spans:?}"
        );
        let warm_remote = passes
            .clean_warm
            .report
            .remote_cache
            .expect("remote tier recorded");
        assert!(warm_remote.hits > 0, "warm pass must fetch from the hub");
        assert_eq!(warm_remote.requests, jobs, "one chain lookup per warm job");
        assert_eq!(warm_remote.corrupt, 0, "clean network corrupts nothing");
        let cold_remote = passes
            .clean_cold
            .report
            .remote_cache
            .expect("remote tier recorded");
        assert!(cold_remote.stores > 0, "cold pass must publish to the hub");
        // The faulty pass finished every job despite the 30% fault rate.
        assert_eq!(passes.faulty.report.totals.failed, 0);
        assert_eq!(passes.faulty.report.totals.timed_out, 0);
    }

    #[test]
    fn e21_four_shards_clear_the_throughput_floor_and_survive_kills() {
        // e21_passes itself asserts canonical-report byte-identity
        // across shard counts and kill/wedge chaos.
        let passes = e21_passes();
        let throughput =
            |report: &chipforge::exec::BatchReport| report.report.totals.throughput_jobs_per_s;
        let one = throughput(&passes.clean[0].1);
        let four = throughput(&passes.clean[2].1);
        assert_eq!(passes.clean[2].0, 4, "third clean pass is 4 shards");
        // The 1.5x acceptance floor is enforced on the optimized build
        // (the BENCH_9 snapshot in CI); unoptimized runs carry enough
        // flow-compute serialization and timer noise to warrant slack.
        let floor = if cfg!(debug_assertions) { 1.2 } else { 1.5 };
        assert!(
            four / one >= floor,
            "4-shard speedup {:.2}x < {floor}x ({one:.1} vs {four:.1} jobs/s)",
            four / one
        );
        for (label, pass) in &passes.faulted {
            assert_eq!(pass.results.len(), 16, "{label} lost jobs");
            if label.starts_with("kill 100%") {
                let restarts: u64 = pass.report.shards.iter().map(|s| s.restarts).sum();
                assert!(restarts >= 1, "{label} must restart at least one shard");
            }
        }
    }

    #[test]
    fn e22_new_kernels_clear_the_speedup_floor_with_ppa_parity() {
        // e22_parity itself asserts the one-sided placement, routing and
        // whole-flow bands and the 1/2/8-shard byte-identity.
        assert_eq!(e22_parity().len(), 5, "one parity row per gen: family");

        let sweep = e22_kernel_sweep();
        assert_eq!(sweep.len(), 15, "one sweep row per corpus design");
        for row in &sweep {
            assert!(
                row.hpwl_ratio < 1.5,
                "{}: analytic hpwl {:.2}x the annealed hpwl",
                row.design,
                row.hpwl_ratio
            );
            assert!(
                row.wl_ratio < 1.5,
                "{}: steiner wirelength {:.2}x the maze wirelength",
                row.design,
                row.wl_ratio
            );
        }
        let total = |pick: fn(&E22Row) -> f64| sweep.iter().map(pick).sum::<f64>();
        // The 1.5x acceptance floor is enforced on the optimized build
        // (the BENCH_10 snapshot in CI); unoptimized runs carry enough
        // timer noise to warrant slack.
        let floor = if cfg!(debug_assertions) { 1.2 } else { 1.5 };
        let place_speedup = total(|r| r.anneal_ms) / total(|r| r.analytic_ms);
        let route_speedup = total(|r| r.maze_ms) / total(|r| r.steiner_ms);
        assert!(
            place_speedup >= floor,
            "analytic placer speedup {place_speedup:.2}x < {floor}x"
        );
        assert!(
            route_speedup >= floor,
            "steiner router speedup {route_speedup:.2}x < {floor}x"
        );
    }

    #[test]
    fn e16_bounded_policies_hold_p99_under_overload() {
        let cells = e16_sweep();
        let p99 = |mult: f64, name: &str| {
            cells
                .iter()
                .find(|(m, n, _)| (*m - mult).abs() < f64::EPSILON && *n == name)
                .map(|(_, _, r)| r.p99_turnaround_h)
                .expect("sweep cell present")
        };
        let baseline = p99(0.5, "unbounded");
        assert!(baseline > 0.0);
        // At 2x saturation the unbounded queue's tail diverges while
        // both bounded policies stay within 2x of the uncontended
        // baseline — the E16 acceptance criterion.
        assert!(
            p99(2.0, "unbounded") > 10.0 * baseline,
            "unbounded p99 {} vs baseline {baseline}",
            p99(2.0, "unbounded")
        );
        for policy in ["bounded-reject", "bounded-shed"] {
            assert!(
                p99(2.0, policy) < 2.0 * baseline,
                "{policy} p99 {} vs baseline {baseline}",
                p99(2.0, policy)
            );
        }
        // Overload is absorbed by rejection, not unbounded queueing.
        let overloaded = cells
            .iter()
            .find(|(m, n, _)| (*m - 2.0).abs() < f64::EPSILON && *n == "bounded-reject")
            .map(|(_, _, r)| r)
            .expect("cell");
        let rejected: usize = overloaded.tiers.iter().map(|s| s.rejected).sum();
        assert!(rejected > 0, "saturated bounded queue must reject");
        for stats in &overloaded.tiers {
            assert!(stats.peak_depth <= 4, "queue depth bounded by capacity");
        }
    }

    /// E18 acceptance: the DES predicts the live system. Calibrate
    /// real per-tier service times, replay the fixed E18 trace over
    /// real HTTP against a `forge serve` hub running the same
    /// admission policy, and require the measured per-tier rejections,
    /// goodput and global p99 to land inside the DES envelope (with
    /// slack for scheduling noise). Finally restart the hub on its
    /// journal and require every completed job back exactly once.
    #[test]
    fn e18_live_replay_stays_within_des_envelope() {
        use chipforge::admit::OverflowPolicy;
        use chipforge::serve::{
            replay_trace, Client, Hub, HubConfig, KeyRegistry, ReplayJob, Server,
        };
        use std::time::Duration;

        let tier_designs = ["counter8", "alu8", "fir4_8"];
        let tier_keys = ["demo-beginner", "demo-intermediate", "demo-advanced"];
        let hub_config = || HubConfig {
            // Must match e18_prediction's WORKERS: one worker keeps
            // live service load-independent like the DES assumes.
            workers: 1,
            queue_capacity: Some(4),
            overflow: OverflowPolicy::Reject,
            weights: [2.0, 1.5, 1.0],
            aging_rate: 0.0,
            rate_limits: [None, None, None],
            job_timeout: Duration::from_secs(30),
            journal: None,
            stage_cache_dir: None,
            stage_cache: false,
            remote_cache: None,
        };
        let start = |config: HubConfig| {
            Server::start(
                Hub::new(config).expect("hub starts"),
                KeyRegistry::demo(),
                "127.0.0.1:0",
            )
            .expect("server binds")
        };

        // 1. Calibrate through the hub itself: an idle hub, one tier
        // at a time, service = the server-reported started→finished
        // span. Calibrating on the raw flow instead would understate
        // service — the hub adds per-job engine setup and tracing that
        // beginner-sized jobs feel as a 2-3x multiplier — and an
        // understated service model predicts far too few rejections.
        let calibration = start(hub_config());
        let calib_addr = calibration.addr().to_string();
        let mut service_ms = [0.0f64; 3];
        for (tier, design) in tier_designs.iter().enumerate() {
            let client = Client::new(&calib_addr, tier_keys[tier]);
            let runs = 3usize;
            for i in 0..runs {
                let id = client
                    .submit(&format!(
                        r#"{{"design": "{design}", "profile": "quick", "seed": {}}}"#,
                        900 + 10 * tier + i
                    ))
                    .expect("transport")
                    .expect("admitted");
                let status = client.wait(id, Duration::from_secs(120)).expect("finishes");
                assert_eq!(status.get("state").as_str(), Some("succeeded"));
                let started = status.get("started_ms").as_f64().expect("started");
                let finished = status.get("finished_ms").as_f64().expect("finished");
                service_ms[tier] += (finished - started) / runs as f64;
            }
            assert!(service_ms[tier] > 0.0);
        }
        calibration.shutdown();

        let (trace, envelope) = e18_prediction(service_ms);

        // 2. A fresh live hub configured exactly like the DES policy.
        let server = start(hub_config());
        let addr = server.addr().to_string();

        // 3. Replay the identical trace over HTTP: the tier picks the
        // API key and the calibration design; unique seeds defeat the
        // artifact cache so every admitted job really runs.
        let jobs: Vec<ReplayJob> = trace
            .iter()
            .enumerate()
            .map(|(i, arrival)| {
                let tier = arrival.tier.priority() as usize;
                ReplayJob {
                    key: tier_keys[tier].to_string(),
                    body: format!(
                        r#"{{"design": "{}", "profile": "quick", "seed": {}}}"#,
                        tier_designs[tier],
                        1000 + i
                    ),
                }
            })
            .collect();
        let report =
            replay_trace(&addr, &trace, 1.0, &jobs, Duration::from_secs(120)).expect("replay");

        // 4. Per-tier admission inside the envelope. Rejection counts
        // are capacity-driven, but real scheduling noise shifts a few
        // arrivals either way — hence the additive slack.
        for tier in 0..3 {
            let live = &report.tiers[tier];
            let offered_des = envelope[0].1.tiers[tier].offered;
            assert_eq!(live.offered, offered_des, "tier {tier} offered");
            assert_eq!(
                live.accepted + live.rejected,
                live.offered,
                "tier {tier} splits into accepted + rejected"
            );
            assert_eq!(
                live.succeeded, live.accepted,
                "tier {tier}: every admitted job succeeds"
            );
            let rejected_des: Vec<usize> = envelope
                .iter()
                .map(|(_, r)| r.tiers[tier].rejected)
                .collect();
            let min = rejected_des.iter().min().copied().unwrap_or(0);
            let max = rejected_des.iter().max().copied().unwrap_or(0);
            let slack = (live.offered * 3 / 10).max(2);
            assert!(
                live.rejected + slack >= min && live.rejected <= max + slack,
                "tier {tier}: live rejected {} outside DES envelope [{min}, {max}] + slack {slack}",
                live.rejected
            );
        }

        // 5. Global tail and goodput inside a multiplicative band of
        // the envelope. The live numbers include HTTP and thread
        // overheads the DES does not model, so the band is generous —
        // the claim is "same regime", not "same microsecond".
        let mut turnarounds: Vec<f64> = report
            .tiers
            .iter()
            .flat_map(|t| t.turnaround_ms.iter().copied())
            .collect();
        turnarounds.sort_by(f64::total_cmp);
        assert!(!turnarounds.is_empty());
        let live_p99 =
            turnarounds[((turnarounds.len() as f64 * 0.99) as usize).min(turnarounds.len() - 1)];
        let des_p99_min = envelope
            .iter()
            .map(|(_, r)| r.p99_turnaround_h)
            .fold(f64::INFINITY, f64::min);
        let des_p99_max = envelope
            .iter()
            .map(|(_, r)| r.p99_turnaround_h)
            .fold(0.0f64, f64::max);
        assert!(
            live_p99 >= 0.2 * des_p99_min && live_p99 <= 5.0 * des_p99_max,
            "live p99 {live_p99:.1} ms outside DES band [{des_p99_min:.1}, {des_p99_max:.1}] x [0.2, 5]"
        );
        let live_completed: usize = report.tiers.iter().map(|t| t.succeeded).sum();
        let live_goodput = live_completed as f64 / report.horizon_ms.max(1e-9);
        let des_goodput: Vec<f64> = envelope
            .iter()
            .map(|(_, r)| r.scenario.completed as f64 / r.horizon_h.max(1e-9))
            .collect();
        let goodput_min = des_goodput.iter().copied().fold(f64::INFINITY, f64::min);
        let goodput_max = des_goodput.iter().copied().fold(0.0f64, f64::max);
        assert!(
            live_goodput >= 0.2 * goodput_min && live_goodput <= 5.0 * goodput_max,
            "live goodput {live_goodput:.4} j/ms outside DES band [{goodput_min:.4}, {goodput_max:.4}] x [0.2, 5]"
        );

        // 6. Crash recovery: run a journaled burst, then restart a
        // hub on the same journal and require every completed job
        // back exactly once — no duplicates, no losses. (The replay
        // hub above runs journal-less so the fsync per completed job
        // does not distort the service times the DES was fed.)
        server.shutdown();
        let journal =
            std::env::temp_dir().join(format!("chipforge-e18-{}.jsonl", std::process::id()));
        std::fs::remove_file(&journal).ok();
        let journaled_config = || HubConfig {
            journal: Some(journal.clone()),
            ..hub_config()
        };
        let server = start(journaled_config());
        let client = Client::new(server.addr().to_string(), "demo-beginner");
        let burst = 4usize;
        for i in 0..burst {
            let id = client
                .submit(&format!(
                    r#"{{"design": "counter8", "profile": "quick", "seed": {}}}"#,
                    2000 + i
                ))
                .expect("transport")
                .expect("admitted");
            let status = client.wait(id, Duration::from_secs(120)).expect("finishes");
            assert_eq!(status.get("state").as_str(), Some("succeeded"));
        }
        server.shutdown();
        let restarted = Hub::new(journaled_config()).expect("hub restarts on journal");
        assert_eq!(
            restarted.recovered_jobs(),
            burst,
            "journal recovery: no duplicated or lost completed jobs"
        );
        restarted.shutdown();
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn e17_stage_cache_counts_are_deterministic_and_warm_is_faster() {
        use chipforge::exec::{calibrate, canonical_report};

        let [baseline, cold, warm] = e17_passes();
        assert!(
            baseline.report.stage_cache.is_none(),
            "baseline has no cache"
        );

        // Content-addressed hit/miss counts are exact: within the cold
        // pass each profile's later clock variants restore the shared
        // front-end (quick shares 6 of 8 stages, open shares 2), and
        // the warm engine restores all 64 stage snapshots.
        let cold_record = cold.report.stage_cache.as_ref().expect("cold record");
        assert_eq!(cold_record.hits, 25, "cold intra-batch prefix hits");
        assert_eq!(cold_record.misses, 39);
        assert_eq!(cold_record.full_restores, 0);
        assert_eq!(cold_record.recomputes, 8);
        let warm_record = warm.report.stage_cache.as_ref().expect("warm record");
        assert_eq!(warm_record.hits, 64, "warm pass restores every stage");
        assert_eq!(warm_record.misses, 0);
        assert_eq!(warm_record.full_restores, 8);
        assert_eq!(warm_record.recomputes, 0);

        // Restored artifacts are byte-identical to recomputed ones.
        assert_eq!(
            canonical_report(&cold.results),
            canonical_report(&baseline.results)
        );
        assert_eq!(
            canonical_report(&warm.results),
            canonical_report(&baseline.results)
        );

        // The E17 acceptance criterion: warm iteration is at least
        // 1.5x faster than recomputing the sweep from scratch.
        let base_ms = calibrate::mean_computed_run_ms(&baseline.results).expect("ran");
        let warm_ms = calibrate::mean_computed_run_ms(&warm.results).expect("ran");
        assert!(
            base_ms > 1.5 * warm_ms,
            "warm mean {warm_ms} ms vs baseline {base_ms} ms"
        );
    }

    #[test]
    fn e1_reports_paper_numbers() {
        let out = e1_value_chain();
        assert!(out.contains("30.0"), "design 30%: {out}");
        assert!(out.contains("34.0"), "fab 34%");
        assert!(out.contains("55%"), "strength segments");
    }

    #[test]
    fn e4_reports_anchor_costs() {
        let out = e4_design_cost();
        assert!(out.contains("5.0"));
        assert!(out.contains("725.0"));
        assert!(out.contains("145.0"));
    }

    #[test]
    fn e6_shows_commercial_advantage() {
        let out = e6_ppa_gap();
        assert!(out.contains("commercial wins"));
    }

    /// E19 acceptance, part 1: the semester model is deterministic —
    /// two same-seed runs produce identical populations, identical
    /// admission results and an identical rendered table.
    #[test]
    fn e19_semester_is_deterministic() {
        let (spec_a, servers_a, result_a) = e19_semester(2_000, 19);
        let (spec_b, servers_b, result_b) = e19_semester(2_000, 19);
        assert_eq!(servers_a, servers_b);
        assert_eq!(spec_a.arrival_trace().len(), spec_b.arrival_trace().len());
        assert_eq!(result_a, result_b, "same-seed DES runs must be identical");
        // The tiering story holds at smoke scale: fair-share weights
        // put beginner turnaround below intermediate, and a majority
        // of offered submissions complete.
        assert!(
            result_a.tiers[0].mean_turnaround_h < result_a.tiers[1].mean_turnaround_h,
            "beginner tat {} vs intermediate {}",
            result_a.tiers[0].mean_turnaround_h,
            result_a.tiers[1].mean_turnaround_h
        );
        let offered: usize = result_a.tiers.iter().map(|s| s.offered).sum();
        assert!(
            result_a.scenario.completed * 2 > offered,
            "{} of {offered} completed",
            result_a.scenario.completed
        );
    }

    /// E19 acceptance, part 2: the pinned service-hour calibration is
    /// honest. Re-derive the per-tier hours live — run the
    /// tier-representative generated specs through the real
    /// `BatchEngine` and `exec::calibrate` — and require the ordering
    /// the pinned `gen::E19_SERVICE_HOURS` constants encode: each
    /// tier's corpus is strictly more expensive than the one below.
    #[test]
    fn e19_calibration_ordering_matches_pinned_hours() {
        use chipforge::exec::{calibrate, BatchEngine, EngineConfig, JobSpec};
        use chipforge::flow::OptimizationProfile;
        use chipforge::gen;
        use chipforge::pdk::TechnologyNode;

        let engine = BatchEngine::new(EngineConfig::with_workers(2));
        let mut measured = [0.0f64; 3];
        for (class, specs) in gen::calibration_specs().iter().enumerate() {
            let jobs: Vec<JobSpec> = specs
                .iter()
                .map(|s| {
                    let design = s.generate();
                    JobSpec::new(
                        design.name(),
                        design.source(),
                        TechnologyNode::N130,
                        OptimizationProfile::quick(),
                    )
                })
                .collect();
            let report = engine.run_batch(jobs);
            assert!(
                report.results.iter().all(|r| r.status.is_success()),
                "tier {class} calibration corpus must survive the flow"
            );
            measured[class] =
                calibrate::mean_computed_run_ms(&report.results).expect("computed jobs");
        }
        let hours =
            calibrate::tier_hours_from_measured_ms(measured, calibrate::DEFAULT_MS_TO_HOURS);
        for h in &hours {
            assert!(*h > 0.0);
        }
        assert!(
            hours[0] < hours[1] && hours[1] < hours[2],
            "live calibration {hours:?} must preserve the pinned tier ordering {:?}",
            gen::E19_SERVICE_HOURS
        );
    }
}
