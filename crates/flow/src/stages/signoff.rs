//! Signoff (back-annotated STA, power, DRC, formal EC) and GDSII export.

use super::{frame_into, Stage, StageState};
use crate::pipeline::StageArtifact;
use crate::run::{FlowConfig, FlowError};
use crate::template::FlowStep;
use chipforge_layout::{build_layout, drc, gds};
use chipforge_pdk::DesignRules;
use chipforge_power::{estimate, PowerOptions};
use chipforge_sta::{analyze, TimingOptions};

/// Signoff: timing, power (clock-tree adjusted), layout, DRC and
/// equivalence checking.
pub(crate) struct SignoffStage;

impl Stage for SignoffStage {
    fn step(&self) -> FlowStep {
        FlowStep::Signoff
    }

    fn key_slice(&self, config: &FlowConfig, buf: &mut Vec<u8>) {
        frame_into(buf, &config.clock_mhz.to_bits().to_le_bytes());
    }

    fn run(&self, state: &mut StageState<'_>, config: &FlowConfig) -> Result<String, FlowError> {
        let netlist = state
            .netlist
            .as_ref()
            .expect("synthesize ran before signoff");
        let routing = state.routing.as_ref().expect("route ran before signoff");
        let clock_skew_ps = state.clock_skew_ps();
        let mut timing_options =
            TimingOptions::new(state.clock_ps).with_clock_skew_ps(clock_skew_ps);
        timing_options.net_wire_cap_ff = routing.wire_caps_ff(&state.lib);
        let timing = analyze(netlist, &state.lib, &timing_options)?;
        let mut power_options = PowerOptions::new(config.clock_mhz);
        // STA is done with the back-annotated capacitances: hand them on.
        power_options.net_wire_cap_ff = timing_options.net_wire_cap_ff;
        let mut power = estimate(netlist, &state.lib, &power_options)?;
        // Clock-tree buffers toggle every cycle; add their switching power.
        if let Some(tree) = state.clock_tree.as_ref().and_then(|t| t.as_ref()) {
            let vdd = state.lib.node().supply_v();
            let wire_ff = tree.wirelength_um() * state.lib.node().wire_cap_ff_per_um();
            let buf_ff = tree.buffer_count() as f64 * 2.0; // internal + input caps
            power.clock_uw += (wire_ff + buf_ff) * 1e-15 * vdd * vdd * config.clock_mhz * 1e6 * 1e6;
        }
        let layout = build_layout(
            netlist,
            state.placement.as_ref().expect("place ran before signoff"),
            routing,
            &state.lib,
        )?;
        let rules = DesignRules::for_node(config.node);
        let drc_report = drc::check(&layout, &rules);
        // Formal equivalence against the RTL (skipped for scan-inserted
        // netlists, whose interface intentionally differs in shift mode).
        let ec_detail = if config.insert_scan {
            "EC skipped (scan)".to_string()
        } else {
            let ec = chipforge_verify::check_equivalence(state.module(), netlist, 500_000);
            match ec.verdict {
                chipforge_verify::Verdict::Equivalent => {
                    format!("EC proven ({}/{})", ec.proven, ec.total)
                }
                chipforge_verify::Verdict::Aborted => {
                    format!(
                        "EC aborted at {} BDD nodes ({}/{} proven)",
                        ec.bdd_nodes, ec.proven, ec.total
                    )
                }
                other => format!("EC FAILED: {other:?}"),
            }
        };
        let detail = format!(
            "wns {:.1} ps, {:.1} uW, {} DRC violations, {}",
            timing.wns_ps,
            power.total_uw(),
            drc_report.violations.len(),
            ec_detail
        );
        state.timing = Some(timing);
        state.power = Some(power);
        state.layout = Some(layout);
        state.drc_violations = drc_report.violations.len();
        Ok(detail)
    }

    fn snapshot(&self, state: &StageState<'_>) -> StageArtifact {
        StageArtifact::Signoff {
            timing: state.timing.clone().expect("signoff ran"),
            power: state.power.clone().expect("signoff ran"),
            layout: state.layout.clone().expect("signoff ran"),
            drc_violations: state.drc_violations as u64,
        }
    }

    fn restore(&self, state: &mut StageState<'_>, artifact: StageArtifact) -> bool {
        match artifact {
            StageArtifact::Signoff {
                timing,
                power,
                layout,
                drc_violations,
            } => {
                state.timing = Some(timing);
                state.power = Some(power);
                state.layout = Some(layout);
                state.drc_violations = drc_violations as usize;
                true
            }
            _ => false,
        }
    }
}

/// GDSII stream-out.
pub(crate) struct ExportStage;

impl Stage for ExportStage {
    fn step(&self) -> FlowStep {
        FlowStep::Export
    }

    fn key_slice(&self, _config: &FlowConfig, _buf: &mut Vec<u8>) {
        // Stream-out is a pure function of the layout.
    }

    fn run(&self, state: &mut StageState<'_>, _config: &FlowConfig) -> Result<String, FlowError> {
        let gds_bytes = gds::write_gds(state.layout.as_ref().expect("signoff ran before export"));
        let detail = format!("{} bytes GDSII", gds_bytes.len());
        state.gds = Some(gds_bytes);
        Ok(detail)
    }

    fn snapshot(&self, state: &StageState<'_>) -> StageArtifact {
        StageArtifact::Export {
            gds: state.gds.clone().expect("export ran"),
        }
    }

    fn restore(&self, state: &mut StageState<'_>, artifact: StageArtifact) -> bool {
        match artifact {
            StageArtifact::Export { gds } => {
                state.gds = Some(gds);
                true
            }
            _ => false,
        }
    }
}
