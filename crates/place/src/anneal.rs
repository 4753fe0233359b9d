//! Row-based placement with simulated-annealing refinement.

use crate::floorplan::Floorplan;
use chipforge_netlist::{CellId, NetDriver, NetId, Netlist};
use chipforge_pdk::StdCellLibrary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Options for [`crate::place_analytic`] and [`place`]. The analytic
/// kernel reads only `utilization`; `seed` and `moves_per_cell` steer
/// the reference annealer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementOptions {
    /// Target row utilization in `(0, 1]`.
    pub utilization: f64,
    /// RNG seed (placement is deterministic for a fixed seed).
    pub seed: u64,
    /// Annealing moves per cell (0 disables refinement).
    pub moves_per_cell: usize,
}

impl Default for PlacementOptions {
    fn default() -> Self {
        Self {
            utilization: 0.75,
            seed: 1,
            moves_per_cell: 200,
        }
    }
}

/// Errors from placement.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlaceError {
    /// The netlist has no cells to place.
    EmptyNetlist,
    /// A cell references a library cell missing from the library.
    UnknownLibCell(String),
    /// The cells do not fit the floorplan rows (utilization too high).
    DoesNotFit,
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::EmptyNetlist => write!(f, "netlist has no cells"),
            PlaceError::UnknownLibCell(name) => write!(f, "unknown library cell `{name}`"),
            PlaceError::DoesNotFit => write!(f, "cells do not fit the floorplan"),
        }
    }
}

impl Error for PlaceError {}

/// A placed cell instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacedCell {
    /// Netlist cell.
    pub id: CellId,
    /// Lower-left x in µm.
    pub x_um: f64,
    /// Lower-left y in µm.
    pub y_um: f64,
    /// Width in µm.
    pub width_um: f64,
    /// Height in µm.
    pub height_um: f64,
    /// Row index.
    pub row: usize,
}

impl PlacedCell {
    /// Cell center x in µm.
    #[must_use]
    pub fn center_x_um(&self) -> f64 {
        self.x_um + self.width_um / 2.0
    }

    /// Cell center y in µm.
    #[must_use]
    pub fn center_y_um(&self) -> f64 {
        self.y_um + self.height_um / 2.0
    }
}

/// A legal placement of a netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    floorplan: Floorplan,
    cells: Vec<PlacedCell>,
    /// I/O port positions on the die boundary: `(name, x, y)`.
    ports: Vec<(String, f64, f64)>,
    hpwl_um: f64,
    initial_hpwl_um: f64,
}

impl Placement {
    /// Assembles a placement from kernel output (crate-internal: kernels
    /// are trusted to hand over row-legal cells).
    pub(crate) fn assemble(
        floorplan: Floorplan,
        cells: Vec<PlacedCell>,
        ports: Vec<(String, f64, f64)>,
        hpwl_um: f64,
        initial_hpwl_um: f64,
    ) -> Self {
        Self {
            floorplan,
            cells,
            ports,
            hpwl_um,
            initial_hpwl_um,
        }
    }

    /// The floorplan this placement lives in.
    #[must_use]
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Placed cells indexed by [`CellId::index`].
    #[must_use]
    pub fn cells(&self) -> &[PlacedCell] {
        &self.cells
    }

    /// Looks up the placement of a cell.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &PlacedCell {
        &self.cells[id.index()]
    }

    /// I/O port positions `(name, x, y)` on the die boundary.
    #[must_use]
    pub fn ports(&self) -> &[(String, f64, f64)] {
        &self.ports
    }

    /// Total half-perimeter wirelength in µm (after refinement).
    #[must_use]
    pub fn hpwl_um(&self) -> f64 {
        self.hpwl_um
    }

    /// HPWL of the initial packing before annealing, in µm.
    #[must_use]
    pub fn initial_hpwl_um(&self) -> f64 {
        self.initial_hpwl_um
    }

    /// Achieved utilization: cell area / core area.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let cell_area: f64 = self.cells.iter().map(|c| c.width_um * c.height_um).sum();
        cell_area / self.floorplan.core_area_um2()
    }

    /// Verifies legality: every cell inside the core, no overlaps in rows.
    #[must_use]
    pub fn is_legal(&self) -> bool {
        let eps = 1e-6;
        let mut by_row: Vec<Vec<&PlacedCell>> = vec![Vec::new(); self.floorplan.rows()];
        for cell in &self.cells {
            if cell.x_um < -eps
                || cell.y_um < -eps
                || cell.x_um + cell.width_um > self.floorplan.core_width_um() + eps
                || cell.y_um + cell.height_um > self.floorplan.core_height_um() + eps
            {
                return false;
            }
            by_row[cell.row].push(cell);
        }
        for row in &mut by_row {
            row.sort_by(|a, b| a.x_um.partial_cmp(&b.x_um).expect("finite"));
            for pair in row.windows(2) {
                if pair[0].x_um + pair[0].width_um > pair[1].x_um + eps {
                    return false;
                }
            }
        }
        true
    }
}

/// Places a netlist: row packing followed by simulated annealing.
///
/// This is the *reference* placer. The flow's place stage calls
/// [`crate::place_analytic`] and no production path reaches this
/// function; it is the oracle the differential tests, E22/A2 and the
/// `kernel_compare` bench hold the production kernel against.
///
/// # Errors
///
/// * [`PlaceError::EmptyNetlist`] for netlists without cells;
/// * [`PlaceError::UnknownLibCell`] if a cell is missing from `lib`;
/// * [`PlaceError::DoesNotFit`] if the utilization target cannot be met.
pub fn place(
    netlist: &Netlist,
    lib: &StdCellLibrary,
    options: &PlacementOptions,
) -> Result<Placement, PlaceError> {
    if netlist.cell_count() == 0 {
        return Err(PlaceError::EmptyNetlist);
    }
    let widths: Vec<f64> = netlist
        .cells()
        .map(|c| {
            lib.cell(c.lib_cell())
                .map(|l| l.width_um())
                .ok_or_else(|| PlaceError::UnknownLibCell(c.lib_cell().to_string()))
        })
        .collect::<Result<_, _>>()?;
    let floorplan = Floorplan::for_netlist(netlist, lib, options.utilization)
        .ok_or(PlaceError::EmptyNetlist)?;

    // --- initial packing: breadth-first from inputs for locality ---
    let order = initial_order(netlist);
    let mut rows: Vec<Vec<CellId>> = vec![Vec::new(); floorplan.rows()];
    let mut row_width = vec![0.0f64; floorplan.rows()];
    let max_row = floorplan.core_width_um();
    {
        let mut row = 0usize;
        for id in order {
            let w = widths[id.index()];
            let mut tries = 0;
            while row_width[row] + w > max_row {
                row = (row + 1) % floorplan.rows();
                tries += 1;
                if tries > floorplan.rows() {
                    return Err(PlaceError::DoesNotFit);
                }
            }
            rows[row].push(id);
            row_width[row] += w;
            // Snake through rows for locality.
            if row_width[row] > max_row * 0.9 {
                row = (row + 1) % floorplan.rows();
            }
        }
    }

    let ports = boundary_ports(netlist, &floorplan);
    let mut state = State {
        netlist,
        floorplan: &floorplan,
        widths: &widths,
        rows,
        positions: vec![(0.0, 0.0, 0); netlist.cell_count()],
        ports: &ports,
    };
    state.repack_all();
    let initial_hpwl = state.total_hpwl();

    // --- simulated annealing ---
    // `moves_per_cell == 0` is the deterministic fast path: the purely
    // constructive packing above is returned as-is and no RNG is ever
    // constructed, so the result is byte-identical across seeds.
    let n_moves = options.moves_per_cell * netlist.cell_count();
    if n_moves > 0 {
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut temperature = initial_hpwl.max(1.0) * 0.01 / netlist.cell_count() as f64;
        let cooling = 0.999_f64.powf(1.0 / (1.0 + n_moves as f64 / 1000.0));
        let mut current = initial_hpwl;
        for _ in 0..n_moves {
            let (row_a, idx_a) = state.random_slot(&mut rng);
            let (row_b, idx_b) = state.random_slot(&mut rng);
            if row_a == row_b && idx_a == idx_b {
                continue;
            }
            let before = state.local_hpwl(row_a, idx_a) + state.local_hpwl(row_b, idx_b);
            if !state.try_swap(row_a, idx_a, row_b, idx_b) {
                continue;
            }
            let after = state.local_hpwl(row_a, idx_a) + state.local_hpwl(row_b, idx_b);
            let delta = after - before;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
            if accept {
                current += delta;
            } else {
                state.try_swap(row_a, idx_a, row_b, idx_b); // revert
            }
            temperature *= cooling;
        }
        let _ = current;
    }

    let hpwl = state.total_hpwl();
    let cells: Vec<PlacedCell> = netlist
        .cells()
        .map(|c| {
            let (x, y, row) = state.positions[c.id().index()];
            PlacedCell {
                id: c.id(),
                x_um: x,
                y_um: y,
                width_um: widths[c.id().index()],
                height_um: floorplan.row_height_um(),
                row,
            }
        })
        .collect();
    Ok(Placement {
        floorplan,
        cells,
        ports,
        hpwl_um: hpwl,
        initial_hpwl_um: initial_hpwl,
    })
}

/// Breadth-first cell order from the primary inputs, for initial locality.
pub(crate) fn initial_order(netlist: &Netlist) -> Vec<CellId> {
    let mut visited = vec![false; netlist.cell_count()];
    let mut order = Vec::with_capacity(netlist.cell_count());
    let mut queue: std::collections::VecDeque<CellId> = std::collections::VecDeque::new();
    for (_, net) in netlist.inputs() {
        for &(sink, _) in netlist.net(*net).sinks() {
            if !visited[sink.index()] {
                visited[sink.index()] = true;
                queue.push_back(sink);
            }
        }
    }
    while let Some(id) = queue.pop_front() {
        order.push(id);
        let out = netlist.cell(id).output();
        for &(sink, _) in netlist.net(out).sinks() {
            if !visited[sink.index()] {
                visited[sink.index()] = true;
                queue.push_back(sink);
            }
        }
    }
    // Anything unreachable from inputs (e.g. free-running counters).
    for cell in netlist.cells() {
        if !visited[cell.id().index()] {
            order.push(cell.id());
        }
    }
    order
}

/// Distributes I/O ports evenly along the four die edges.
pub(crate) fn boundary_ports(netlist: &Netlist, floorplan: &Floorplan) -> Vec<(String, f64, f64)> {
    let names: Vec<&str> = netlist
        .inputs()
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(netlist.outputs().iter().map(|(n, _)| n.as_str()))
        .collect();
    let total = names.len().max(1);
    let w = floorplan.core_width_um();
    let h = floorplan.core_height_um();
    let perimeter = 2.0 * (w + h);
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let d = perimeter * i as f64 / total as f64;
            let (x, y) = if d < w {
                (d, 0.0)
            } else if d < w + h {
                (w, d - w)
            } else if d < 2.0 * w + h {
                (2.0 * w + h - d, h)
            } else {
                (0.0, perimeter - d)
            };
            (name.to_string(), x, y)
        })
        .collect()
}

struct State<'a> {
    netlist: &'a Netlist,
    floorplan: &'a Floorplan,
    widths: &'a [f64],
    rows: Vec<Vec<CellId>>,
    /// Per cell: (x, y, row).
    positions: Vec<(f64, f64, usize)>,
    ports: &'a [(String, f64, f64)],
}

impl State<'_> {
    fn repack_row(&mut self, row: usize) {
        let y = self.floorplan.row_y_um(row);
        let mut x = 0.0;
        for &id in &self.rows[row] {
            self.positions[id.index()] = (x, y, row);
            x += self.widths[id.index()];
        }
    }

    fn repack_all(&mut self) {
        for row in 0..self.rows.len() {
            self.repack_row(row);
        }
    }

    fn random_slot(&self, rng: &mut StdRng) -> (usize, usize) {
        loop {
            let row = rng.gen_range(0..self.rows.len());
            if !self.rows[row].is_empty() {
                return (row, rng.gen_range(0..self.rows[row].len()));
            }
        }
    }

    /// Swaps the cells in two slots if both rows still fit; returns whether
    /// the swap happened. Calling twice with the same slots reverts.
    fn try_swap(&mut self, row_a: usize, idx_a: usize, row_b: usize, idx_b: usize) -> bool {
        let a = self.rows[row_a][idx_a];
        let b = self.rows[row_b][idx_b];
        if row_a != row_b {
            let wa = self.widths[a.index()];
            let wb = self.widths[b.index()];
            let max = self.floorplan.core_width_um();
            let width_a: f64 = self.rows[row_a]
                .iter()
                .map(|c| self.widths[c.index()])
                .sum();
            let width_b: f64 = self.rows[row_b]
                .iter()
                .map(|c| self.widths[c.index()])
                .sum();
            if width_a - wa + wb > max || width_b - wb + wa > max {
                return false;
            }
        }
        self.rows[row_a][idx_a] = b;
        self.rows[row_b][idx_b] = a;
        self.repack_row(row_a);
        if row_b != row_a {
            self.repack_row(row_b);
        }
        true
    }

    /// HPWL of all nets touching the cell at a slot.
    fn local_hpwl(&self, row: usize, idx: usize) -> f64 {
        let id = self.rows[row][idx];
        let cell = self.netlist.cell(id);
        let mut total = 0.0;
        for &net in cell.inputs() {
            total += self.net_hpwl(net);
        }
        total += self.net_hpwl(cell.output());
        total
    }

    fn net_hpwl(&self, net: NetId) -> f64 {
        net_hpwl_at(self.netlist, net, &self.positions, self.widths, self.ports)
    }

    fn total_hpwl(&self) -> f64 {
        total_hpwl_at(self.netlist, &self.positions, self.widths, self.ports)
    }
}

/// HPWL of one net given per-cell positions `(x, y, row)` (lower-left
/// corners; pins are taken at cell-center x). Shared between the
/// annealing and analytical placers so both score placements identically.
pub(crate) fn net_hpwl_at(
    netlist: &Netlist,
    net: NetId,
    positions: &[(f64, f64, usize)],
    widths: &[f64],
    ports: &[(String, f64, f64)],
) -> f64 {
    let net_ref = netlist.net(net);
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    let mut extend = |x: f64, y: f64| {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    };
    match net_ref.driver() {
        Some(NetDriver::Cell(id)) => {
            let (x, y, _) = positions[id.index()];
            extend(x + widths[id.index()] / 2.0, y);
        }
        Some(NetDriver::Input(port)) => {
            let (_, x, y) = &ports[port];
            extend(*x, *y);
        }
        None => {}
    }
    for &(sink, _) in net_ref.sinks() {
        let (x, y, _) = positions[sink.index()];
        extend(x + widths[sink.index()] / 2.0, y);
    }
    if min_x > max_x {
        return 0.0;
    }
    (max_x - min_x) + (max_y - min_y)
}

/// Total HPWL over all nets for per-cell positions `(x, y, row)`.
pub(crate) fn total_hpwl_at(
    netlist: &Netlist,
    positions: &[(f64, f64, usize)],
    widths: &[f64],
    ports: &[(String, f64, f64)],
) -> f64 {
    (0..netlist.net_count())
        .map(|i| net_hpwl_at(netlist, NetId::new(i), positions, widths, ports))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge_hdl::designs;
    use chipforge_pdk::{LibraryKind, TechnologyNode};
    use chipforge_synth::{synthesize, SynthOptions};

    fn lib() -> StdCellLibrary {
        StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open)
    }

    fn synth(design: chipforge_hdl::designs::Design) -> Netlist {
        let module = design.elaborate().unwrap();
        synthesize(&module, &lib(), &SynthOptions::default())
            .unwrap()
            .netlist
    }

    #[test]
    fn placement_is_legal_for_suite() {
        let lib = lib();
        for design in designs::suite() {
            let netlist = synth(design.clone());
            let placement = place(&netlist, &lib, &PlacementOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", design.name()));
            assert!(placement.is_legal(), "{} illegal", design.name());
            assert_eq!(placement.cells().len(), netlist.cell_count());
        }
    }

    #[test]
    fn annealing_improves_hpwl() {
        let lib = lib();
        let netlist = synth(designs::alu(8));
        let placement = place(
            &netlist,
            &lib,
            &PlacementOptions {
                moves_per_cell: 400,
                ..PlacementOptions::default()
            },
        )
        .unwrap();
        assert!(
            placement.hpwl_um() < placement.initial_hpwl_um(),
            "annealing must improve HPWL: {} -> {}",
            placement.initial_hpwl_um(),
            placement.hpwl_um()
        );
    }

    #[test]
    fn placement_is_deterministic_for_fixed_seed() {
        let lib = lib();
        let netlist = synth(designs::counter(8));
        let a = place(&netlist, &lib, &PlacementOptions::default()).unwrap();
        let b = place(&netlist, &lib, &PlacementOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_placements() {
        let lib = lib();
        let netlist = synth(designs::alu(8));
        let a = place(&netlist, &lib, &PlacementOptions::default()).unwrap();
        let b = place(
            &netlist,
            &lib,
            &PlacementOptions {
                seed: 99,
                ..PlacementOptions::default()
            },
        )
        .unwrap();
        assert_ne!(a.hpwl_um(), b.hpwl_um());
    }

    #[test]
    fn zero_moves_is_seed_independent() {
        // The deterministic fast path: with refinement disabled the
        // constructive packing never touches an RNG, so any two seeds
        // must produce byte-identical placements.
        let lib = lib();
        let netlist = synth(designs::alu(8));
        let opts = |seed| PlacementOptions {
            seed,
            moves_per_cell: 0,
            ..PlacementOptions::default()
        };
        let a = place(&netlist, &lib, &opts(1)).unwrap();
        let b = place(&netlist, &lib, &opts(0xDEAD_BEEF)).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde::json::to_string(&a.cells().to_vec()),
            serde::json::to_string(&b.cells().to_vec())
        );
        assert_eq!(a.hpwl_um(), a.initial_hpwl_um());
    }

    #[test]
    fn utilization_close_to_target() {
        let lib = lib();
        let netlist = synth(designs::fir4(8));
        let placement = place(&netlist, &lib, &PlacementOptions::default()).unwrap();
        let u = placement.utilization();
        assert!((0.3..=0.80).contains(&u), "utilization {u}");
    }

    #[test]
    fn empty_netlist_rejected() {
        let nl = Netlist::new("empty");
        let err = place(&nl, &lib(), &PlacementOptions::default()).unwrap_err();
        assert_eq!(err, PlaceError::EmptyNetlist);
    }

    #[test]
    fn ports_lie_on_boundary() {
        let lib = lib();
        let netlist = synth(designs::counter(8));
        let placement = place(&netlist, &lib, &PlacementOptions::default()).unwrap();
        let w = placement.floorplan().core_width_um();
        let h = placement.floorplan().core_height_um();
        for (name, x, y) in placement.ports() {
            let on_edge = (*x).abs() < 1e-9
                || (*x - w).abs() < 1e-9
                || (*y).abs() < 1e-9
                || (*y - h).abs() < 1e-9;
            assert!(on_edge, "port {name} at ({x}, {y}) not on boundary");
        }
    }
}
