//! Back-end stages: place, clock-tree synthesis, route.

use super::{frame_into, Stage, StageState};
use crate::pipeline::StageArtifact;
use crate::run::{FlowConfig, FlowError};
use crate::template::FlowStep;
use chipforge_place::{place_analytic, PlacementOptions};
use chipforge_route::{route_steiner, RouteOptions};

/// Floorplanning and analytic placement.
pub(crate) struct PlaceStage;

impl Stage for PlaceStage {
    fn step(&self) -> FlowStep {
        FlowStep::Place
    }

    fn key_slice(&self, config: &FlowConfig, buf: &mut Vec<u8>) {
        // Which kernel runs is fixed at build time and pinned by
        // `STAGE_KEY_SCHEMA`, not by a frame here. The seed stays in the
        // key although the analytic kernel reads no RNG: job specs and
        // hub bodies still carry it.
        frame_into(buf, &config.profile.utilization.to_bits().to_le_bytes());
        frame_into(buf, &config.seed.to_le_bytes());
    }

    fn run(&self, state: &mut StageState<'_>, config: &FlowConfig) -> Result<String, FlowError> {
        let placement = place_analytic(
            state.netlist(),
            &state.lib,
            &PlacementOptions {
                utilization: config.profile.utilization,
                // Seed and move budget steer only the reference annealer.
                ..PlacementOptions::default()
            },
        )?;
        let detail = format!(
            "analytic kernel, hpwl {:.1} um ({} rows)",
            placement.hpwl_um(),
            placement.floorplan().rows()
        );
        state.placement = Some(placement);
        Ok(detail)
    }

    fn snapshot(&self, state: &StageState<'_>) -> StageArtifact {
        StageArtifact::Place {
            placement: state.placement.clone().expect("place ran"),
        }
    }

    fn restore(&self, state: &mut StageState<'_>, artifact: StageArtifact) -> bool {
        match artifact {
            StageArtifact::Place { placement } => {
                state.placement = Some(placement);
                true
            }
            _ => false,
        }
    }
}

/// Clock-tree synthesis (modeled; combinational designs get no tree).
pub(crate) struct ClockTreeStage;

impl Stage for ClockTreeStage {
    fn step(&self) -> FlowStep {
        FlowStep::ClockTree
    }

    fn key_slice(&self, _config: &FlowConfig, _buf: &mut Vec<u8>) {
        // CTS depends only on the netlist, placement and library, all of
        // which earlier slices already pin down.
    }

    fn run(&self, state: &mut StageState<'_>, _config: &FlowConfig) -> Result<String, FlowError> {
        let flip_flops = state.netlist().stats().sequential_cells;
        let clock_tree = crate::cts::synthesize_clock_tree(
            state.netlist(),
            state.placement.as_ref().expect("place ran before cts"),
            &state.lib,
            &crate::cts::CtsOptions::default(),
        );
        let detail = match &clock_tree {
            Some(tree) => format!(
                "{} sinks, {} buffers, {} levels, skew {:.1} ps, {:.1} um clock wire",
                flip_flops,
                tree.buffer_count(),
                tree.levels(),
                tree.skew_ps(),
                tree.wirelength_um()
            ),
            None => "no sequential cells".to_string(),
        };
        state.clock_tree = Some(clock_tree);
        Ok(detail)
    }

    fn snapshot(&self, state: &StageState<'_>) -> StageArtifact {
        StageArtifact::ClockTree {
            tree: state.clock_tree.clone().expect("cts ran"),
        }
    }

    fn restore(&self, state: &mut StageState<'_>, artifact: StageArtifact) -> bool {
        match artifact {
            StageArtifact::ClockTree { tree } => {
                state.clock_tree = Some(tree);
                true
            }
            _ => false,
        }
    }
}

/// Steiner-tree global routing.
pub(crate) struct RouteStage;

impl Stage for RouteStage {
    fn step(&self) -> FlowStep {
        FlowStep::Route
    }

    fn key_slice(&self, config: &FlowConfig, buf: &mut Vec<u8>) {
        frame_into(buf, &(config.profile.route_iterations as u64).to_le_bytes());
    }

    fn run(&self, state: &mut StageState<'_>, config: &FlowConfig) -> Result<String, FlowError> {
        let routing = route_steiner(
            state.netlist(),
            state.placement.as_ref().expect("place ran before route"),
            &state.lib,
            &RouteOptions {
                gcell_um: 0.0,
                max_iterations: config.profile.route_iterations,
            },
        )?;
        let detail = format!(
            "steiner kernel, wl {:.1} um, {} vias, peak congestion {:.2}",
            routing.total_wirelength_um(),
            routing.total_vias(),
            routing.peak_congestion()
        );
        state.routing = Some(routing);
        Ok(detail)
    }

    fn snapshot(&self, state: &StageState<'_>) -> StageArtifact {
        StageArtifact::Route {
            routing: state.routing.clone().expect("route ran"),
        }
    }

    fn restore(&self, state: &mut StageState<'_>, artifact: StageArtifact) -> bool {
        match artifact {
            StageArtifact::Route { routing } => {
                state.routing = Some(routing);
                true
            }
            _ => false,
        }
    }
}
