//! Front-end stages: elaborate, synthesize, size.

use super::{frame_into, Stage, StageState};
use crate::pipeline::StageArtifact;
use crate::run::{FlowConfig, FlowError};
use crate::template::FlowStep;
use chipforge_sta::{size_cells, TimingOptions};
use chipforge_synth::{synthesize, SynthOptions};

/// RTL parsing and elaboration.
pub(crate) struct ElaborateStage;

impl Stage for ElaborateStage {
    fn step(&self) -> FlowStep {
        FlowStep::Elaborate
    }

    fn key_slice(&self, _config: &FlowConfig, _buf: &mut Vec<u8>) {
        // The source text is already the base of the key chain.
    }

    fn run(&self, state: &mut StageState<'_>, _config: &FlowConfig) -> Result<String, FlowError> {
        let module = chipforge_hdl::parse(state.source)?;
        state.rtl_lines = chipforge_hdl::rtl_line_count(state.source);
        let detail = format!(
            "{} signals, {} lines",
            module.signals().len(),
            state.rtl_lines
        );
        state.module = Some(module);
        Ok(detail)
    }

    fn snapshot(&self, state: &StageState<'_>) -> StageArtifact {
        StageArtifact::Elaborate {
            module: state.module().clone(),
            rtl_lines: state.rtl_lines as u64,
        }
    }

    fn restore(&self, state: &mut StageState<'_>, artifact: StageArtifact) -> bool {
        match artifact {
            StageArtifact::Elaborate { module, rtl_lines } => {
                state.rtl_lines = rtl_lines as usize;
                state.module = Some(module);
                true
            }
            _ => false,
        }
    }
}

/// Logic synthesis, technology mapping and optional scan insertion.
pub(crate) struct SynthesizeStage;

impl Stage for SynthesizeStage {
    fn step(&self) -> FlowStep {
        FlowStep::Synthesize
    }

    fn key_slice(&self, config: &FlowConfig, buf: &mut Vec<u8>) {
        frame_into(buf, format!("{:?}", config.node).as_bytes());
        frame_into(buf, format!("{:?}", config.profile.library).as_bytes());
        frame_into(buf, format!("{:?}", config.profile.synth_effort).as_bytes());
        buf.push(u8::from(config.insert_scan));
    }

    fn run(&self, state: &mut StageState<'_>, config: &FlowConfig) -> Result<String, FlowError> {
        let synth_result = synthesize(
            state.module(),
            &state.lib,
            &SynthOptions {
                effort: config.profile.synth_effort,
            },
        )?;
        let mut netlist = synth_result.netlist;
        let mut detail = format!(
            "{} cells, {} AIG nodes, depth {}",
            netlist.cell_count(),
            synth_result.aig_stats.ands,
            synth_result.aig_stats.depth
        );
        if config.insert_scan {
            if let Some((scanned, scan_report)) =
                chipforge_synth::insert_scan_chain(&netlist, &state.lib)?
            {
                netlist = scanned;
                detail.push_str(&format!(
                    ", scan chain of {} ({} muxes)",
                    scan_report.chain_length(),
                    scan_report.muxes_added
                ));
            }
        }
        state.netlist = Some(netlist);
        Ok(detail)
    }

    fn snapshot(&self, state: &StageState<'_>) -> StageArtifact {
        StageArtifact::Synthesize {
            netlist: state.netlist().clone(),
        }
    }

    fn restore(&self, state: &mut StageState<'_>, artifact: StageArtifact) -> bool {
        match artifact {
            StageArtifact::Synthesize { netlist } => {
                state.netlist = Some(netlist);
                true
            }
            _ => false,
        }
    }
}

/// Timing-driven gate sizing (in-place netlist upsizing).
pub(crate) struct SizeStage;

impl Stage for SizeStage {
    fn step(&self) -> FlowStep {
        FlowStep::Size
    }

    fn key_slice(&self, config: &FlowConfig, buf: &mut Vec<u8>) {
        frame_into(
            buf,
            &(config.profile.sizing_iterations as u64).to_le_bytes(),
        );
        // With zero sizing iterations the stage is a no-op, so the clock
        // target does not reach the netlist until signoff — leaving it
        // out lets clock sweeps share everything up to routing.
        if config.profile.sizing_iterations > 0 {
            frame_into(buf, &config.clock_mhz.to_bits().to_le_bytes());
        }
    }

    fn run(&self, state: &mut StageState<'_>, config: &FlowConfig) -> Result<String, FlowError> {
        let sized = if config.profile.sizing_iterations > 0 {
            let mut netlist = state.netlist.take().expect("synthesize ran before size");
            let result = size_cells(
                &mut netlist,
                &state.lib,
                &TimingOptions::new(state.clock_ps),
                config.profile.sizing_iterations,
            );
            state.netlist = Some(netlist);
            result?.upsized_cells
        } else {
            0
        };
        Ok(format!("{sized} cells upsized"))
    }

    fn snapshot(&self, state: &StageState<'_>) -> StageArtifact {
        StageArtifact::Size {
            netlist: state.netlist().clone(),
        }
    }

    fn restore(&self, state: &mut StageState<'_>, artifact: StageArtifact) -> bool {
        match artifact {
            StageArtifact::Size { netlist } => {
                state.netlist = Some(netlist);
                true
            }
            _ => false,
        }
    }
}
