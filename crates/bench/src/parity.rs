//! The one-sided kernel parity gate.
//!
//! The flow runs one placer (`place_analytic`) and one router
//! (`route_steiner`). The kernels they replaced — the seeded annealer
//! `place` and the MST + maze driver `route` — survive as reference
//! implementations, and this module is where the production kernels
//! are held against them, per design and at three levels: placement,
//! routing on the same placement, and the whole flow against a flow
//! assembled from the reference kernels ([`run_reference_flow`]).
//!
//! The gate is one-sided on purpose: the production kernels may be
//! arbitrarily *better* than the references (on the 2.5–4 k-cell
//! designs they are, by 2× in routed wirelength) but never worse than
//! the bands below. The tier-1 test (`tests/kernels.rs`) runs it over
//! [`parity_specs`]; E22 prints it for the small configuration of each
//! family.

use chipforge::flow::{
    run_flow, FlowConfig, FlowCtx, FlowError, FlowOutcome, FlowStep, OptimizationProfile, Pipeline,
    StageArtifact, StageSnapshot, StageStore,
};
use chipforge::gen::{Family, GenSpec};
use chipforge::netlist::{NetDriver, Netlist};
use chipforge::obs::Tracer;
use chipforge::pdk::{StdCellLibrary, TechnologyNode};
use chipforge::place::{place, Placement, PlacementOptions};
use chipforge::route::{route, GridCoord, RouteOptions, Routing};
use std::cell::RefCell;
use std::collections::HashMap;

/// The annealer's move budget wherever it serves as the reference: what
/// the open profile gave it while it was the flow's placer.
pub const REFERENCE_MOVES_PER_CELL: usize = 100;

/// Production HPWL (placement) and wirelength (routing on one
/// placement) may exceed the reference's by at most this factor.
pub const WIRE_CEILING: f64 = 1.15;
/// Whole-flow fmax must reach at least this share of the reference's.
pub const FMAX_FLOOR: f64 = 0.8;
/// Whole-flow power may exceed the reference's by at most this factor.
pub const POWER_CEILING: f64 = 1.25;

/// The designs the gate runs over: the 15-spec `gen:` corpus plus the
/// wide, deep, fully unrolled configuration of three families — the 18
/// designs the benchmark's `flow_cold` workload flows.
#[must_use]
pub fn parity_specs() -> Vec<GenSpec> {
    let mut specs = chipforge::gen::corpus();
    for family in [Family::NocRouter, Family::CryptoRound, Family::CpuCtrl] {
        specs.push(GenSpec {
            family,
            width: 32,
            depth: 8,
            unroll: 4,
            seed: 1,
        });
    }
    specs
}

/// The flow configuration the gate compares under: `flow_cold`'s.
#[must_use]
pub fn parity_config() -> FlowConfig {
    FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open()).with_clock_mhz(50.0)
}

/// A stage store that holds nothing: it answers the place and route
/// lookups by running the reference kernels on what the stages before
/// them produced, and lets every other stage compute. Attached to a
/// pipeline run it yields the flow the annealer and the maze driver
/// would have produced, without the flow knowing they exist.
struct ReferenceKernels {
    lib: StdCellLibrary,
    place_options: PlacementOptions,
    route_options: RouteOptions,
    netlist: RefCell<Option<Netlist>>,
    placement: RefCell<Option<Placement>>,
}

impl StageStore for ReferenceKernels {
    fn load(&self, _key: u128, step: FlowStep) -> Option<StageSnapshot> {
        let netlist = self.netlist.borrow();
        let (detail, artifact) = match step {
            FlowStep::Place => {
                let netlist = netlist.as_ref().expect("size ran before place");
                let placement =
                    place(netlist, &self.lib, &self.place_options).expect("annealer places");
                *self.placement.borrow_mut() = Some(placement.clone());
                (
                    "anneal kernel (reference)",
                    StageArtifact::Place { placement },
                )
            }
            FlowStep::Route => {
                let netlist = netlist.as_ref().expect("size ran before route");
                let placement = self.placement.borrow();
                let placement = placement.as_ref().expect("place ran before route");
                let routing = route(netlist, placement, &self.lib, &self.route_options)
                    .expect("maze driver routes");
                ("maze kernel (reference)", StageArtifact::Route { routing })
            }
            _ => return None,
        };
        Some(StageSnapshot {
            step,
            detail: detail.to_string(),
            artifact,
        })
    }

    fn store(&self, _key: u128, snapshot: &StageSnapshot) {
        if let StageArtifact::Size { netlist } = &snapshot.artifact {
            *self.netlist.borrow_mut() = Some(netlist.clone());
        }
    }
}

/// The routing options the flow's route stage derives from `config`.
fn route_options(config: &FlowConfig) -> RouteOptions {
    RouteOptions {
        gcell_um: 0.0,
        max_iterations: config.profile.route_iterations,
    }
}

/// Runs the flow with the reference kernels in the place and route
/// stages: seeded annealing at [`REFERENCE_MOVES_PER_CELL`] and the
/// MST + maze driver, every other stage as the pipeline runs it.
///
/// # Errors
///
/// Propagates the first failing stage as [`FlowError`].
pub fn run_reference_flow(source: &str, config: &FlowConfig) -> Result<FlowOutcome, FlowError> {
    let kernels = ReferenceKernels {
        lib: config.pdk().library(config.profile.library),
        place_options: PlacementOptions {
            utilization: config.profile.utilization,
            seed: config.seed,
            moves_per_cell: REFERENCE_MOVES_PER_CELL,
        },
        route_options: route_options(config),
        netlist: RefCell::new(None),
        placement: RefCell::new(None),
    };
    let tracer = Tracer::disabled();
    Pipeline::standard().run(source, config, &FlowCtx::new(&tracer).with_stages(&kernels))
}

/// Nets of `netlist` whose pins `routing` does not join: the pin gcells
/// are re-derived from `placement` and every net with two or more of
/// them must have a route whose edges, all between adjacent gcells,
/// connect them. Trusts nothing the router reports about itself.
#[must_use]
pub fn unconnected_nets(netlist: &Netlist, placement: &Placement, routing: &Routing) -> usize {
    let grid = routing.grid();
    let routes: HashMap<_, _> = routing.nets().iter().map(|r| (r.net, r)).collect();
    netlist
        .nets()
        .filter(|net| {
            let mut pins: Vec<GridCoord> = Vec::new();
            match net.driver() {
                Some(NetDriver::Cell(cell)) => {
                    let p = placement.cell(cell);
                    pins.push(grid.coord_of(p.center_x_um(), p.center_y_um()));
                }
                Some(NetDriver::Input(port)) => {
                    let (_, x, y) = &placement.ports()[port];
                    pins.push(grid.coord_of(*x, *y));
                }
                None => {}
            }
            for &(sink, _) in net.sinks() {
                let p = placement.cell(sink);
                pins.push(grid.coord_of(p.center_x_um(), p.center_y_um()));
            }
            pins.sort_unstable_by_key(|c| (c.x, c.y));
            pins.dedup();
            if pins.len() < 2 {
                return false;
            }
            let Some(route) = routes.get(&net.id()) else {
                return true;
            };
            // Flood from the first pin over the route's edges.
            let mut reached = vec![pins[0]];
            let mut frontier = vec![pins[0]];
            while let Some(at) = frontier.pop() {
                for &(a, b) in &route.edges {
                    if a.manhattan(b) != 1 {
                        return true;
                    }
                    let next = match at {
                        c if c == a => b,
                        c if c == b => a,
                        _ => continue,
                    };
                    if !reached.contains(&next) {
                        reached.push(next);
                        frontier.push(next);
                    }
                }
            }
            pins.iter().any(|pin| !reached.contains(pin))
        })
        .count()
}

/// One design's production-over-reference figures, all checked.
pub struct ParityRow {
    /// Generated design name.
    pub design: String,
    /// Placed cell count.
    pub cells: usize,
    /// Analytic HPWL / annealed HPWL on the same sized netlist.
    pub hpwl_ratio: f64,
    /// Steiner / maze wirelength, both over the analytic placement.
    pub wl_ratio: f64,
    /// Overflowed edges over the analytic placement: (Steiner, maze).
    pub overflow: (usize, usize),
    /// Whole-flow fmax ratio.
    pub fmax_ratio: f64,
    /// Whole-flow power ratio.
    pub power_ratio: f64,
}

/// The equivalence verdict a signoff detail line ends with.
fn ec_verdict(outcome: &FlowOutcome) -> &str {
    let signoff = &outcome.report.steps[FlowStep::Signoff.index()].detail;
    signoff.rsplit(", ").next().unwrap_or(signoff)
}

/// Holds the production kernels against the references on one design.
///
/// # Panics
///
/// Panics, naming the design and the figure, when a band is broken.
#[must_use]
pub fn check_parity(spec: &GenSpec) -> ParityRow {
    let design = spec.module_name();
    let source = spec.generate();
    let config = parity_config();
    let new = run_flow(source.source(), &config).expect("production flow");
    let old = run_reference_flow(source.source(), &config).expect("reference flow");

    // Placement: both kernels placed the same sized netlist.
    assert!(new.placement.is_legal(), "{design}: illegal placement");
    assert_eq!(
        new.placement.floorplan(),
        old.placement.floorplan(),
        "{design}: the kernels disagree on the floorplan"
    );
    let hpwl_ratio = new.placement.hpwl_um() / old.placement.hpwl_um();
    assert!(
        hpwl_ratio <= WIRE_CEILING,
        "{design}: analytic hpwl {hpwl_ratio:.3}x the annealer's"
    );

    // Routing: both kernels over the production placement.
    let lib = config.pdk().library(config.profile.library);
    let mazed = route(&new.netlist, &new.placement, &lib, &route_options(&config))
        .expect("maze driver routes");
    assert_eq!(
        unconnected_nets(&new.netlist, &new.placement, &new.routing),
        0,
        "{design}: steiner left nets unconnected"
    );
    let overflow = (new.routing.overflowed_edges(), mazed.overflowed_edges());
    assert!(
        overflow.0 <= overflow.1,
        "{design}: steiner overflows {} edges, maze {}",
        overflow.0,
        overflow.1
    );
    let wl_ratio = new.routing.total_wirelength_um() / mazed.total_wirelength_um();
    assert!(
        wl_ratio <= WIRE_CEILING,
        "{design}: steiner wirelength {wl_ratio:.3}x the maze driver's"
    );

    // Whole flow.
    let (new_ppa, old_ppa) = (&new.report.ppa, &old.report.ppa);
    assert_eq!(
        new_ppa.cell_area_um2.to_bits(),
        old_ppa.cell_area_um2.to_bits(),
        "{design}: cell area moved — it is fixed before placement"
    );
    let fmax_ratio = new_ppa.fmax_mhz / old_ppa.fmax_mhz;
    assert!(
        fmax_ratio >= FMAX_FLOOR,
        "{design}: fmax {fmax_ratio:.3}x the reference flow's"
    );
    let power_ratio = new_ppa.power_uw / old_ppa.power_uw;
    assert!(
        power_ratio <= POWER_CEILING,
        "{design}: power {power_ratio:.3}x the reference flow's"
    );
    assert_eq!(
        ec_verdict(&new),
        ec_verdict(&old),
        "{design}: equivalence verdicts differ"
    );
    assert_eq!(new_ppa.drc_violations, 0, "{design}: DRC violations");

    ParityRow {
        design,
        cells: new_ppa.cells,
        hpwl_ratio,
        wl_ratio,
        overflow,
        fmax_ratio,
        power_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge::hdl::designs;

    #[test]
    fn reference_flow_swaps_only_the_kernels_and_the_oracle_sees_misrouted_pins() {
        let design = designs::counter(8);
        let config = parity_config();
        let new = run_flow(design.source(), &config).expect("production flow");
        let old = run_reference_flow(design.source(), &config).expect("reference flow");
        let detail = |o: &FlowOutcome, step: FlowStep| o.report.steps[step.index()].detail.clone();
        assert!(detail(&old, FlowStep::Place).starts_with("anneal kernel"));
        assert!(detail(&old, FlowStep::Route).starts_with("maze kernel"));
        assert!(detail(&new, FlowStep::Place).starts_with("analytic kernel"));
        assert!(detail(&new, FlowStep::Route).starts_with("steiner kernel"));
        for step in [FlowStep::Elaborate, FlowStep::Synthesize, FlowStep::Size] {
            assert_eq!(detail(&new, step), detail(&old, step));
        }
        assert_eq!(new.netlist, old.netlist);
        assert_ne!(new.placement, old.placement);
        assert_eq!(
            unconnected_nets(&old.netlist, &old.placement, &old.routing),
            0
        );
        // The oracle re-derives pins: a routing laid over another
        // placement's pins does not connect this one's.
        assert!(unconnected_nets(&new.netlist, &old.placement, &new.routing) > 0);
    }
}
