//! Liberty-like standard-cell library generator.

use crate::node::TechnologyNode;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Logical class of a standard cell.
///
/// The set matches the gate functions used by the `chipforge-synth`
/// technology mapper; the string form of each class is the prefix of the
/// generated library cell names (`NAND2_X1`, `DFF_X2`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum CellClass {
    TieLo,
    TieHi,
    Buf,
    Inv,
    And2,
    Nand2,
    Or2,
    Nor2,
    Xor2,
    Xnor2,
    And3,
    Nand3,
    Or3,
    Nor3,
    Aoi21,
    Oai21,
    Mux2,
    Maj3,
    Xor3,
    Dff,
    DffEn,
}

impl CellClass {
    /// All classes in a stable order.
    pub const ALL: [CellClass; 21] = [
        CellClass::TieLo,
        CellClass::TieHi,
        CellClass::Buf,
        CellClass::Inv,
        CellClass::And2,
        CellClass::Nand2,
        CellClass::Or2,
        CellClass::Nor2,
        CellClass::Xor2,
        CellClass::Xnor2,
        CellClass::And3,
        CellClass::Nand3,
        CellClass::Or3,
        CellClass::Nor3,
        CellClass::Aoi21,
        CellClass::Oai21,
        CellClass::Mux2,
        CellClass::Maj3,
        CellClass::Xor3,
        CellClass::Dff,
        CellClass::DffEn,
    ];

    /// Library-name prefix of the class.
    #[must_use]
    pub fn prefix(self) -> &'static str {
        match self {
            CellClass::TieLo => "TIELO",
            CellClass::TieHi => "TIEHI",
            CellClass::Buf => "BUF",
            CellClass::Inv => "INV",
            CellClass::And2 => "AND2",
            CellClass::Nand2 => "NAND2",
            CellClass::Or2 => "OR2",
            CellClass::Nor2 => "NOR2",
            CellClass::Xor2 => "XOR2",
            CellClass::Xnor2 => "XNOR2",
            CellClass::And3 => "AND3",
            CellClass::Nand3 => "NAND3",
            CellClass::Or3 => "OR3",
            CellClass::Nor3 => "NOR3",
            CellClass::Aoi21 => "AOI21",
            CellClass::Oai21 => "OAI21",
            CellClass::Mux2 => "MUX2",
            CellClass::Maj3 => "MAJ3",
            CellClass::Xor3 => "XOR3",
            CellClass::Dff => "DFF",
            CellClass::DffEn => "DFFE",
        }
    }

    /// Parses a class from a library cell name (prefix before `_`).
    #[must_use]
    pub fn from_lib_cell(name: &str) -> Option<Self> {
        let prefix = name.split('_').next().unwrap_or(name);
        Self::ALL.into_iter().find(|c| c.prefix() == prefix)
    }

    /// Transistor-pair complexity used for area/leakage scaling.
    #[must_use]
    pub fn complexity(self) -> f64 {
        match self {
            CellClass::TieLo | CellClass::TieHi => 1.0,
            CellClass::Inv => 1.0,
            CellClass::Buf => 2.0,
            CellClass::Nand2 | CellClass::Nor2 => 2.0,
            CellClass::And2 | CellClass::Or2 => 3.0,
            CellClass::Nand3 | CellClass::Nor3 | CellClass::Aoi21 | CellClass::Oai21 => 3.0,
            CellClass::And3 | CellClass::Or3 => 4.0,
            CellClass::Xor2 | CellClass::Xnor2 => 4.0,
            CellClass::Mux2 => 5.0,
            CellClass::Maj3 => 6.0,
            CellClass::Xor3 => 8.0,
            CellClass::Dff => 12.0,
            CellClass::DffEn => 16.0,
        }
    }

    /// Logical effort of the worst input (Sutherland/Sproull model).
    #[must_use]
    pub fn logical_effort(self) -> f64 {
        match self {
            CellClass::TieLo | CellClass::TieHi => 0.0,
            CellClass::Inv => 1.0,
            CellClass::Buf => 1.0,
            CellClass::Nand2 => 4.0 / 3.0,
            CellClass::Nor2 => 5.0 / 3.0,
            CellClass::And2 => 4.0 / 3.0,
            CellClass::Or2 => 5.0 / 3.0,
            CellClass::Nand3 => 5.0 / 3.0,
            CellClass::Nor3 => 7.0 / 3.0,
            CellClass::And3 => 5.0 / 3.0,
            CellClass::Or3 => 7.0 / 3.0,
            CellClass::Aoi21 | CellClass::Oai21 => 2.0,
            CellClass::Xor2 | CellClass::Xnor2 => 2.0,
            CellClass::Mux2 => 2.0,
            CellClass::Maj3 => 2.5,
            CellClass::Xor3 => 3.0,
            CellClass::Dff | CellClass::DffEn => 1.5,
        }
    }

    /// Parasitic (intrinsic) delay in units of the inverter intrinsic delay.
    #[must_use]
    pub fn parasitic_factor(self) -> f64 {
        match self {
            CellClass::TieLo | CellClass::TieHi => 0.0,
            CellClass::Inv => 1.0,
            CellClass::Buf => 2.0,
            CellClass::Nand2 | CellClass::Nor2 => 2.0,
            CellClass::And2 | CellClass::Or2 => 3.0,
            CellClass::Nand3 | CellClass::Nor3 => 3.0,
            CellClass::And3 | CellClass::Or3 => 4.0,
            CellClass::Aoi21 | CellClass::Oai21 => 3.0,
            CellClass::Xor2 | CellClass::Xnor2 => 4.0,
            CellClass::Mux2 => 4.0,
            CellClass::Maj3 => 5.0,
            CellClass::Xor3 => 6.0,
            CellClass::Dff => 8.0,
            CellClass::DffEn => 9.0,
        }
    }

    /// Whether the class is sequential.
    #[must_use]
    pub fn is_sequential(self) -> bool {
        matches!(self, CellClass::Dff | CellClass::DffEn)
    }
}

impl fmt::Display for CellClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// Drive strength of a library cell (relative to a unit inverter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DriveStrength(pub u8);

impl DriveStrength {
    /// Relative strength as a multiplier.
    #[must_use]
    pub fn factor(self) -> f64 {
        f64::from(self.0)
    }
}

impl fmt::Display for DriveStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// Which vendor style of library to generate.
///
/// The *commercial* kind models a foundry-qualified library as accessed
/// through Europractice: more drive strengths, tighter characterization
/// (lower delay at the same node) and denser layout. The *open* kind models
/// community libraries shipped with open PDKs. The gap between the two is
/// the object of experiment E6 (open-vs-commercial PPA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LibraryKind {
    /// Open-source library (fewer drives, conservative characterization).
    Open,
    /// Commercial foundry library (full drive set, tight characterization).
    Commercial,
}

impl LibraryKind {
    fn delay_factor(self) -> f64 {
        match self {
            LibraryKind::Open => 1.0,
            LibraryKind::Commercial => 0.85,
        }
    }

    fn area_factor(self) -> f64 {
        match self {
            LibraryKind::Open => 1.0,
            LibraryKind::Commercial => 0.92,
        }
    }

    fn drives(self) -> &'static [u8] {
        match self {
            LibraryKind::Open => &[1, 2],
            LibraryKind::Commercial => &[1, 2, 4, 8],
        }
    }
}

impl fmt::Display for LibraryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryKind::Open => f.write_str("open"),
            LibraryKind::Commercial => f.write_str("commercial"),
        }
    }
}

/// A characterized standard cell.
///
/// Timing uses the linear delay model `delay = intrinsic + R * load`: good
/// enough for the flow's STA and orders of magnitude simpler than NLDM
/// tables, while preserving the load-dependence that drives sizing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LibCell {
    name: String,
    class: CellClass,
    drive: DriveStrength,
    area_um2: f64,
    input_cap_ff: f64,
    intrinsic_ps: f64,
    resistance_ps_per_ff: f64,
    leakage_nw: f64,
    width_um: f64,
    height_um: f64,
}

impl LibCell {
    /// Cell name, e.g. `NAND2_X1`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical class.
    #[must_use]
    pub fn class(&self) -> CellClass {
        self.class
    }

    /// Drive strength.
    #[must_use]
    pub fn drive(&self) -> DriveStrength {
        self.drive
    }

    /// Layout area in µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.area_um2
    }

    /// Cell width in µm (area / row height).
    #[must_use]
    pub fn width_um(&self) -> f64 {
        self.width_um
    }

    /// Cell (row) height in µm.
    #[must_use]
    pub fn height_um(&self) -> f64 {
        self.height_um
    }

    /// Input pin capacitance in fF (worst pin).
    #[must_use]
    pub fn input_cap_ff(&self) -> f64 {
        self.input_cap_ff
    }

    /// Zero-load propagation delay in ps.
    #[must_use]
    pub fn intrinsic_ps(&self) -> f64 {
        self.intrinsic_ps
    }

    /// Output resistance in ps/fF.
    #[must_use]
    pub fn resistance_ps_per_ff(&self) -> f64 {
        self.resistance_ps_per_ff
    }

    /// Leakage power in nW.
    #[must_use]
    pub fn leakage_nw(&self) -> f64 {
        self.leakage_nw
    }

    /// Propagation delay in ps under the given output load in fF.
    #[must_use]
    pub fn delay_ps(&self, load_ff: f64) -> f64 {
        self.intrinsic_ps + self.resistance_ps_per_ff * load_ff
    }

    /// Energy per output toggle in fJ (CV² with the cell's internal cap
    /// approximated by its input cap times complexity).
    #[must_use]
    pub fn switch_energy_fj(&self, supply_v: f64, load_ff: f64) -> f64 {
        let internal_ff = self.input_cap_ff * self.class.complexity() * 0.5;
        (internal_ff + load_ff) * supply_v * supply_v
    }
}

/// A generated standard-cell library for one node and kind.
///
/// ```
/// use chipforge_pdk::{CellClass, LibraryKind, StdCellLibrary, TechnologyNode};
///
/// let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
/// let nand = lib.smallest(CellClass::Nand2).expect("NAND2 exists");
/// assert_eq!(nand.name(), "NAND2_X1");
/// assert!(lib.cell(nand.name()).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StdCellLibrary {
    name: String,
    node: TechnologyNode,
    kind: LibraryKind,
    cells: Vec<LibCell>,
    by_class: BTreeMap<CellClass, Vec<usize>>,
}

impl StdCellLibrary {
    /// Generates the library for a node and kind.
    #[must_use]
    pub fn generate(node: TechnologyNode, kind: LibraryKind) -> Self {
        let height_um = node.cell_height_um();
        let cpp = node.contacted_poly_pitch_um();
        let fo4 = node.fo4_delay_ps() * kind.delay_factor();
        // Unit inverter: intrinsic is ~30% of FO4, the rest is load delay
        // driving four copies of its own input cap.
        let cin_inv_ff = 0.010 * f64::from(node.feature_nm()) + 0.30;
        let intrinsic_inv = 0.30 * fo4;
        let r_inv = (fo4 - intrinsic_inv) / (4.0 * cin_inv_ff);

        let mut cells = Vec::new();
        let mut by_class: BTreeMap<CellClass, Vec<usize>> = BTreeMap::new();
        for class in CellClass::ALL {
            for &drive in kind.drives() {
                // Tie cells and flops come in X1 only at the open kind's
                // highest drives to keep the library realistic but small.
                if matches!(class, CellClass::TieLo | CellClass::TieHi) && drive > 1 {
                    continue;
                }
                let drive_strength = DriveStrength(drive);
                let drive_f = drive_strength.factor();
                let area_scale = 1.0 + 0.55 * (drive_f - 1.0);
                let area_um2 =
                    class.complexity() * cpp * height_um * area_scale * kind.area_factor();
                let input_cap_ff = cin_inv_ff * class.logical_effort() * drive_f.sqrt();
                let intrinsic_ps = intrinsic_inv * class.parasitic_factor();
                let resistance = if class.logical_effort() == 0.0 {
                    0.0
                } else {
                    r_inv * class.logical_effort() / drive_f
                };
                let leakage_nw = node.leakage_nw_per_gate() * class.complexity() * 0.5 * drive_f;
                let index = cells.len();
                cells.push(LibCell {
                    name: format!("{}_{}", class.prefix(), drive_strength),
                    class,
                    drive: drive_strength,
                    area_um2,
                    input_cap_ff,
                    intrinsic_ps,
                    resistance_ps_per_ff: resistance,
                    leakage_nw,
                    width_um: area_um2 / height_um,
                    height_um,
                });
                by_class.entry(class).or_default().push(index);
            }
        }
        Self {
            name: format!("chipforge_{}_{}", node.name(), kind),
            node,
            kind,
            cells,
            by_class,
        }
    }

    /// Library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Technology node.
    #[must_use]
    pub fn node(&self) -> TechnologyNode {
        self.node
    }

    /// Library kind.
    #[must_use]
    pub fn kind(&self) -> LibraryKind {
        self.kind
    }

    /// Number of cells in the library.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the library is empty (never true for generated libraries).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over all cells.
    pub fn cells(&self) -> impl Iterator<Item = &LibCell> {
        self.cells.iter()
    }

    /// Looks up a cell by exact name.
    #[must_use]
    pub fn cell(&self, name: &str) -> Option<&LibCell> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// All drive variants of a class, weakest first.
    #[must_use]
    pub fn variants(&self, class: CellClass) -> Vec<&LibCell> {
        self.by_class
            .get(&class)
            .map(|ids| ids.iter().map(|&i| &self.cells[i]).collect())
            .unwrap_or_default()
    }

    /// The weakest (smallest) drive of a class.
    #[must_use]
    pub fn smallest(&self, class: CellClass) -> Option<&LibCell> {
        let ids = self.by_class.get(&class)?;
        ids.first().map(|&i| &self.cells[i])
    }

    /// The strongest drive of a class.
    #[must_use]
    pub fn strongest(&self, class: CellClass) -> Option<&LibCell> {
        let ids = self.by_class.get(&class)?;
        ids.last().map(|&i| &self.cells[i])
    }

    /// The weakest drive of `class` whose delay under `load_ff` does not
    /// exceed `budget_ps`, or the strongest drive if none fits.
    #[must_use]
    pub fn size_for_load(
        &self,
        class: CellClass,
        load_ff: f64,
        budget_ps: f64,
    ) -> Option<&LibCell> {
        let variants = self.variants(class);
        variants
            .iter()
            .find(|c| c.delay_ps(load_ff) <= budget_ps)
            .copied()
            .or_else(|| variants.last().copied())
    }

    /// Standard-cell row height in µm.
    #[must_use]
    pub fn row_height_um(&self) -> f64 {
        self.node.cell_height_um()
    }

    /// Placement site width in µm (one contacted poly pitch).
    #[must_use]
    pub fn site_width_um(&self) -> f64 {
        self.node.contacted_poly_pitch_um()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_has_all_classes() {
        let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
        for class in CellClass::ALL {
            assert!(
                lib.smallest(class).is_some(),
                "missing class {class} in open library"
            );
        }
    }

    #[test]
    fn commercial_library_has_more_drives() {
        let open = StdCellLibrary::generate(TechnologyNode::N28, LibraryKind::Open);
        let comm = StdCellLibrary::generate(TechnologyNode::N28, LibraryKind::Commercial);
        assert!(comm.len() > open.len());
        assert_eq!(comm.variants(CellClass::Nand2).len(), 4);
        assert_eq!(open.variants(CellClass::Nand2).len(), 2);
    }

    #[test]
    fn commercial_cells_are_faster_and_smaller() {
        let open = StdCellLibrary::generate(TechnologyNode::N28, LibraryKind::Open);
        let comm = StdCellLibrary::generate(TechnologyNode::N28, LibraryKind::Commercial);
        let load = 5.0;
        let o = open.smallest(CellClass::Nand2).unwrap();
        let c = comm.smallest(CellClass::Nand2).unwrap();
        assert!(c.delay_ps(load) < o.delay_ps(load));
        assert!(c.area_um2() < o.area_um2());
    }

    #[test]
    fn delay_increases_with_load_and_decreases_with_drive() {
        let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Commercial);
        let x1 = lib.cell("NAND2_X1").unwrap();
        let x4 = lib.cell("NAND2_X4").unwrap();
        assert!(x1.delay_ps(10.0) > x1.delay_ps(1.0));
        assert!(x4.delay_ps(10.0) < x1.delay_ps(10.0));
        // stronger drive means larger input cap and area
        assert!(x4.input_cap_ff() > x1.input_cap_ff());
        assert!(x4.area_um2() > x1.area_um2());
    }

    #[test]
    fn fo4_reconstruction_matches_node_model() {
        // Unit inverter driving 4 copies of itself should give ~FO4 delay.
        for node in [
            TechnologyNode::N180,
            TechnologyNode::N28,
            TechnologyNode::N7,
        ] {
            let lib = StdCellLibrary::generate(node, LibraryKind::Open);
            let inv = lib.cell("INV_X1").unwrap();
            let fo4 = inv.delay_ps(4.0 * inv.input_cap_ff());
            let expected = node.fo4_delay_ps();
            let err = (fo4 - expected).abs() / expected;
            assert!(err < 0.05, "{node}: fo4 {fo4} vs expected {expected}");
        }
    }

    #[test]
    fn size_for_load_picks_weakest_that_meets_budget() {
        let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Commercial);
        let generous = lib.size_for_load(CellClass::Nand2, 2.0, 1.0e6).unwrap();
        assert_eq!(generous.drive().0, 1);
        let tight = lib.size_for_load(CellClass::Nand2, 50.0, 120.0).unwrap();
        assert!(tight.drive().0 > 1, "picked {}", tight.name());
    }

    #[test]
    fn areas_scale_down_with_node() {
        let old = StdCellLibrary::generate(TechnologyNode::N180, LibraryKind::Open);
        let new = StdCellLibrary::generate(TechnologyNode::N7, LibraryKind::Open);
        let a_old = old.smallest(CellClass::Nand2).unwrap().area_um2();
        let a_new = new.smallest(CellClass::Nand2).unwrap().area_um2();
        assert!(
            a_new < a_old / 50.0,
            "expected >50x shrink, got {a_old} -> {a_new}"
        );
    }

    #[test]
    fn dff_is_bigger_than_inverter() {
        let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
        assert!(
            lib.smallest(CellClass::Dff).unwrap().area_um2()
                > 5.0 * lib.smallest(CellClass::Inv).unwrap().area_um2()
        );
    }

    #[test]
    fn class_round_trips_from_cell_name() {
        let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Commercial);
        for cell in lib.cells() {
            assert_eq!(CellClass::from_lib_cell(cell.name()), Some(cell.class()));
        }
    }

    #[test]
    fn tie_cells_have_no_timing_arc() {
        let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
        let tie = lib.smallest(CellClass::TieHi).unwrap();
        assert_eq!(tie.resistance_ps_per_ff(), 0.0);
    }

    #[test]
    fn switch_energy_positive_and_load_dependent() {
        let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
        let nand = lib.smallest(CellClass::Nand2).unwrap();
        let e1 = nand.switch_energy_fj(1.5, 1.0);
        let e2 = nand.switch_energy_fj(1.5, 10.0);
        assert!(e2 > e1);
        assert!(e1 > 0.0);
    }
}
