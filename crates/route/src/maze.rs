//! Congestion-negotiated maze routing.

use crate::grid::{GcellGrid, GridCoord};
use chipforge_netlist::{NetDriver, NetId, Netlist};
use chipforge_pdk::StdCellLibrary;
use chipforge_place::Placement;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;

/// Options for [`route`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteOptions {
    /// Gcell edge length in µm (0 = derive ~15 routing pitches).
    pub gcell_um: f64,
    /// Maximum rip-up-and-reroute iterations.
    pub max_iterations: usize,
}

impl Default for RouteOptions {
    fn default() -> Self {
        Self {
            gcell_um: 0.0,
            max_iterations: 4,
        }
    }
}

/// A routed net.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedNet {
    /// The net.
    pub net: NetId,
    /// Gcell-to-gcell edges used (each pair is one unit of wire).
    pub edges: Vec<(GridCoord, GridCoord)>,
    /// Total wirelength in µm.
    pub wirelength_um: f64,
    /// Estimated vias (bends in the route plus pin hops).
    pub vias: usize,
}

/// The result of global routing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Routing {
    grid: GcellGrid,
    nets: Vec<RoutedNet>,
    iterations: usize,
}

impl Routing {
    /// The final congestion grid.
    #[must_use]
    pub fn grid(&self) -> &GcellGrid {
        &self.grid
    }

    /// Per-net routes.
    #[must_use]
    pub fn nets(&self) -> &[RoutedNet] {
        &self.nets
    }

    /// Rip-up iterations used.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Total wirelength in µm.
    #[must_use]
    pub fn total_wirelength_um(&self) -> f64 {
        self.nets.iter().map(|n| n.wirelength_um).sum()
    }

    /// Total via estimate.
    #[must_use]
    pub fn total_vias(&self) -> usize {
        self.nets.iter().map(|n| n.vias).sum()
    }

    /// Remaining overflowed edges after negotiation.
    #[must_use]
    pub fn overflowed_edges(&self) -> usize {
        self.grid.overflowed_edges()
    }

    /// Peak congestion (usage / capacity).
    #[must_use]
    pub fn peak_congestion(&self) -> f64 {
        self.grid.peak_congestion()
    }

    /// Per-net wire capacitance in fF for timing back-annotation.
    #[must_use]
    pub fn wire_caps_ff(&self, lib: &StdCellLibrary) -> HashMap<NetId, f64> {
        let cap_per_um = lib.node().wire_cap_ff_per_um();
        self.nets
            .iter()
            .map(|n| (n.net, n.wirelength_um * cap_per_um))
            .collect()
    }
}

/// Errors from routing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// The placement belongs to a different netlist (cell count mismatch).
    PlacementMismatch,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::PlacementMismatch => {
                write!(f, "placement does not match the netlist")
            }
        }
    }
}

impl Error for RouteError {}

/// How the first routing pass constructs each net's topology. Later
/// negotiation rounds always repair overflow with congestion-aware A*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InitialTopology {
    /// MST decomposition + A* per two-pin segment (seed behaviour).
    MazeAstar,
    /// Rectilinear Steiner tree embedded as congestion-aware L-shapes.
    SteinerTree,
}

/// Globally routes a placed netlist with the maze (A*) kernel.
///
/// This is the *reference* router. The flow's route stage calls
/// [`crate::route_steiner`] and no production path reaches this
/// function; it is the oracle the differential tests, E22 and the
/// `kernel_compare` bench hold the production kernel against. (The
/// shared negotiation driver and its A* search are production code:
/// they are the Steiner kernel's rip-up rounds.)
///
/// # Errors
///
/// Returns [`RouteError::PlacementMismatch`] if `placement` was produced
/// from a different netlist.
pub fn route(
    netlist: &Netlist,
    placement: &Placement,
    lib: &StdCellLibrary,
    options: &RouteOptions,
) -> Result<Routing, RouteError> {
    drive(netlist, placement, lib, options, InitialTopology::MazeAstar)
}

/// The shared congestion-negotiation driver: builds the grid, collects
/// pins, runs the first pass with the requested topology and then
/// PathFinder-style rip-up-and-reroute rounds.
pub(crate) fn drive(
    netlist: &Netlist,
    placement: &Placement,
    lib: &StdCellLibrary,
    options: &RouteOptions,
    topology: InitialTopology,
) -> Result<Routing, RouteError> {
    if placement.cells().len() != netlist.cell_count() {
        return Err(RouteError::PlacementMismatch);
    }
    let fp = placement.floorplan();
    let gcell = if options.gcell_um > 0.0 {
        options.gcell_um
    } else {
        let rules = chipforge_pdk::DesignRules::for_node(lib.node());
        (rules.routing_pitch_um(2) * 15.0).max(fp.row_height_um())
    };
    let mut grid = GcellGrid::new(fp.core_width_um(), fp.core_height_um(), gcell, lib);

    // Collect pin gcells per net.
    let mut pins: Vec<Vec<GridCoord>> = vec![Vec::new(); netlist.net_count()];
    for net in netlist.nets() {
        let mut add = |x: f64, y: f64| {
            let c = grid.coord_of(x, y);
            if !pins[net.id().index()].contains(&c) {
                pins[net.id().index()].push(c);
            }
        };
        match net.driver() {
            Some(NetDriver::Cell(cell)) => {
                let p = placement.cell(cell);
                add(p.center_x_um(), p.center_y_um());
            }
            Some(NetDriver::Input(port)) => {
                let (_, x, y) = &placement.ports()[port];
                add(*x, *y);
            }
            None => {}
        }
        for &(sink, _) in net.sinks() {
            let p = placement.cell(sink);
            add(p.center_x_um(), p.center_y_um());
        }
    }

    let mut routes: Vec<Option<RoutedNet>> = vec![None; netlist.net_count()];
    let mut history: HashMap<(GridCoord, GridCoord), f64> = HashMap::new();
    let mut iterations = 0usize;

    // Initial routing pass + negotiation rounds.
    for round in 0..options.max_iterations.max(1) {
        iterations = round + 1;
        let mut any_routed = false;
        for net in netlist.nets() {
            let idx = net.id().index();
            let needs_route = match &routes[idx] {
                None => pins[idx].len() >= 2,
                Some(r) => r.edges.iter().any(|(a, b)| {
                    let (u, c) = grid.edge_usage(*a, *b);
                    u > c
                }),
            };
            if !needs_route {
                continue;
            }
            // Rip up the old route.
            if let Some(old) = routes[idx].take() {
                for (a, b) in &old.edges {
                    grid.add_usage(*a, *b, -1);
                    *history.entry(edge_key(*a, *b)).or_insert(0.0) += 1.0;
                }
            }
            // Steiner topology re-embeds through every round but the
            // last: congestion-gated detour candidates resolve most
            // overflow at a fraction of A*'s cost, and the final round
            // falls back to full negotiated search as the convergence
            // backstop.
            let final_round = round + 1 == options.max_iterations.max(1);
            let use_embed =
                topology == InitialTopology::SteinerTree && (round == 0 || !final_round);
            let routed = if use_embed {
                crate::steiner::embed_net(&grid, &pins[idx])
            } else {
                route_net(&mut grid, &pins[idx], &history, round)
            };
            if let Some(edges) = routed {
                for (a, b) in &edges {
                    grid.add_usage(*a, *b, 1);
                }
                let vias = count_bends(&edges) + pins[idx].len();
                routes[idx] = Some(RoutedNet {
                    net: net.id(),
                    wirelength_um: edges.len() as f64 * grid.gcell_um(),
                    edges,
                    vias,
                });
                any_routed = true;
            }
        }
        if grid.overflowed_edges() == 0 {
            break;
        }
        if !any_routed {
            break;
        }
    }

    let nets: Vec<RoutedNet> = routes.into_iter().flatten().collect();
    Ok(Routing {
        grid,
        nets,
        iterations,
    })
}

pub(crate) fn edge_key(a: GridCoord, b: GridCoord) -> (GridCoord, GridCoord) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn count_bends(edges: &[(GridCoord, GridCoord)]) -> usize {
    let mut bends = 0;
    for pair in edges.windows(2) {
        let h0 = pair[0].0.y == pair[0].1.y;
        let h1 = pair[1].0.y == pair[1].1.y;
        if h0 != h1 {
            bends += 1;
        }
    }
    bends
}

/// Routes one multi-pin net: MST decomposition + A* per two-pin segment.
fn route_net(
    grid: &mut GcellGrid,
    pins: &[GridCoord],
    history: &HashMap<(GridCoord, GridCoord), f64>,
    round: usize,
) -> Option<Vec<(GridCoord, GridCoord)>> {
    if pins.len() < 2 {
        return None;
    }
    // Prim's MST over pin Manhattan distances.
    let mut in_tree = vec![false; pins.len()];
    in_tree[0] = true;
    let mut segments = Vec::new();
    for _ in 1..pins.len() {
        let mut best: Option<(usize, usize, u32)> = None;
        for (i, &a) in pins.iter().enumerate() {
            if !in_tree[i] {
                continue;
            }
            for (j, &b) in pins.iter().enumerate() {
                if in_tree[j] {
                    continue;
                }
                let d = a.manhattan(b);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        let (i, j, _) = best.expect("tree is connected");
        in_tree[j] = true;
        segments.push((pins[i], pins[j]));
    }
    // A* each segment.
    let mut edges = Vec::new();
    for (src, dst) in segments {
        let path = astar(grid, src, dst, history, round)?;
        for pair in path.windows(2) {
            edges.push((pair[0], pair[1]));
        }
    }
    Some(edges)
}

/// Congestion-aware A* between two gcells.
fn astar(
    grid: &GcellGrid,
    src: GridCoord,
    dst: GridCoord,
    history: &HashMap<(GridCoord, GridCoord), f64>,
    round: usize,
) -> Option<Vec<GridCoord>> {
    #[derive(PartialEq)]
    struct Entry(f64, GridCoord);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("finite costs")
        }
    }

    let mut dist: HashMap<GridCoord, f64> = HashMap::new();
    let mut prev: HashMap<GridCoord, GridCoord> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(src, 0.0);
    heap.push(Reverse(Entry(src.manhattan(dst) as f64, src)));
    let congestion_weight = 2.0 + 2.0 * round as f64;
    while let Some(Reverse(Entry(_, current))) = heap.pop() {
        if current == dst {
            let mut path = vec![dst];
            let mut c = dst;
            while let Some(&p) = prev.get(&c) {
                path.push(p);
                c = p;
            }
            path.reverse();
            return Some(path);
        }
        let d_current = dist[&current];
        for next in grid.neighbors(current) {
            let (usage, capacity) = grid.edge_usage(current, next);
            let u = f64::from(usage) / f64::from(capacity);
            let over = if usage >= capacity {
                congestion_weight * 4.0
            } else {
                0.0
            };
            let hist = history
                .get(&edge_key(current, next))
                .copied()
                .unwrap_or(0.0);
            let cost = 1.0 + congestion_weight * u * u + over + 0.5 * hist;
            let nd = d_current + cost;
            if dist.get(&next).is_none_or(|&old| nd < old) {
                dist.insert(next, nd);
                prev.insert(next, current);
                heap.push(Reverse(Entry(nd + next.manhattan(dst) as f64, next)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge_hdl::designs;
    use chipforge_pdk::{LibraryKind, TechnologyNode};
    use chipforge_place::{place, PlacementOptions};
    use chipforge_synth::{synthesize, SynthOptions};

    fn lib() -> StdCellLibrary {
        StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open)
    }

    fn place_and_route(design: chipforge_hdl::designs::Design) -> (Netlist, Routing) {
        let lib = lib();
        let module = design.elaborate().unwrap();
        let netlist = synthesize(&module, &lib, &SynthOptions::default())
            .unwrap()
            .netlist;
        let placement = place(&netlist, &lib, &PlacementOptions::default()).unwrap();
        let routing = route(&netlist, &placement, &lib, &RouteOptions::default()).unwrap();
        (netlist, routing)
    }

    #[test]
    fn suite_routes_without_overflow() {
        for design in designs::suite() {
            let (netlist, routing) = place_and_route(design.clone());
            assert_eq!(
                routing.overflowed_edges(),
                0,
                "{} overflows (peak {})",
                design.name(),
                routing.peak_congestion()
            );
            // Every multi-pin net got a route.
            let multi_pin = netlist
                .nets()
                .filter(|n| n.driver().is_some() && n.fanout() > 0)
                .count();
            assert!(routing.nets().len() <= multi_pin);
            assert!(routing.total_wirelength_um() > 0.0, "{}", design.name());
        }
    }

    #[test]
    fn routes_are_connected_paths() {
        let (_, routing) = place_and_route(designs::counter(8));
        for net in routing.nets() {
            for (a, b) in &net.edges {
                assert_eq!(a.manhattan(*b), 1, "edges join adjacent gcells");
            }
        }
    }

    #[test]
    fn wire_caps_scale_with_length() {
        let lib = lib();
        let (_, routing) = place_and_route(designs::alu(8));
        let caps = routing.wire_caps_ff(&lib);
        for net in routing.nets() {
            let cap = caps[&net.net];
            assert!((cap - net.wirelength_um * lib.node().wire_cap_ff_per_um()).abs() < 1e-9);
        }
    }

    #[test]
    fn larger_designs_use_more_wire() {
        let (_, small) = place_and_route(designs::counter(8));
        let (_, big) = place_and_route(designs::fir4(8));
        assert!(big.total_wirelength_um() > small.total_wirelength_um());
    }

    #[test]
    fn astar_finds_straight_line() {
        let lib = lib();
        let grid = GcellGrid::new(100.0, 100.0, 10.0, &lib);
        let path = astar(
            &grid,
            GridCoord::new(0, 0),
            GridCoord::new(5, 0),
            &HashMap::new(),
            0,
        )
        .unwrap();
        assert_eq!(path.len(), 6);
    }

    #[test]
    fn placement_mismatch_rejected() {
        let lib = lib();
        let module = designs::counter(8).elaborate().unwrap();
        let netlist = synthesize(&module, &lib, &SynthOptions::default())
            .unwrap()
            .netlist;
        let placement = place(&netlist, &lib, &PlacementOptions::default()).unwrap();
        let other = Netlist::new("other");
        let err = route(&other, &placement, &lib, &RouteOptions::default()).unwrap_err();
        assert_eq!(err, RouteError::PlacementMismatch);
    }
}
