//! Technology mapping: covering the AIG with library cells.
//!
//! A classic priority-cut mapper (Mishchenko et al., "Combinational and
//! Sequential Mapping with Priority Cuts", ICCAD 2007): for every AND
//! node, cuts of up to three leaves are enumerated; each cut's truth table
//! is matched against the library's gate functions; dynamic programming
//! with area flow picks the cheapest cover. Complemented signals are
//! realized with inverters that are cached per node, and a guaranteed
//! NAND/AND+INV fallback keeps the mapper total for any AIG.
//!
//! The per-node bookkeeping is a few fixed-size words: a cut is a `Copy`
//! value of at most three sorted leaves, each node keeps at most eight
//! of them inline, the match table is an array indexed by truth table,
//! and a choice is a cut plus that index, so the DP allocates nothing per
//! node.
//!
//! Two rules fix which cover wins, and with it the netlist:
//!
//! * **Cut order.** A node's candidates are its trivial cut, then the
//!   merges of its fanins' cuts in fanin-cut order, duplicates dropped.
//!   The first eight by leaf count survive, ties kept in that order (a
//!   stable selection by length), and the DP tries them in that order,
//!   so among equal costs the earlier cut wins.
//! * **Truth tables come from the cone walk.** A cut's function is
//!   evaluated by walking the node's cone down to the cut's leaves,
//!   stopping at a leaf wherever it sits. Composing the fanins' cut
//!   tables instead differs when one leaf lies inside another leaf's
//!   cone: the walk stops at the inner leaf, composition evaluates
//!   through it, and the two tables can match different cells.

use crate::aig::{Aig, Lit, NodeId};
use crate::SynthError;
use chipforge_netlist::{CellFunction, NetId, Netlist};
use chipforge_pdk::{CellClass, StdCellLibrary};

#[cfg(test)]
mod reference;

const MAX_CUT_INPUTS: usize = 3;
const MAX_CUTS_PER_NODE: usize = 8;
/// The trivial cut plus every pair of fanin cuts.
const MAX_CANDIDATES: usize = 1 + MAX_CUTS_PER_NODE * MAX_CUTS_PER_NODE;

/// Truth-table projections of the three cut-leaf variables.
const PROJ: [u8; 3] = [0xAA, 0xCC, 0xF0];

/// A cut: up to three leaf node indices, ascending; unused slots are 0 so
/// that equal cuts compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cut {
    len: u8,
    leaves: [u32; MAX_CUT_INPUTS],
}

impl Cut {
    const EMPTY: Cut = Cut {
        len: 0,
        leaves: [0; MAX_CUT_INPUTS],
    };

    fn trivial(node: NodeId) -> Self {
        Cut {
            len: 1,
            leaves: [node.0, 0, 0],
        }
    }

    fn leaves(&self) -> &[u32] {
        &self.leaves[..usize::from(self.len)]
    }

    /// The sorted union of two cuts; `None` above [`MAX_CUT_INPUTS`] leaves.
    fn merge(a: &Cut, b: &Cut) -> Option<Cut> {
        let (a, b) = (a.leaves(), b.leaves());
        let mut merged = Cut::EMPTY;
        let (mut i, mut j, mut len) = (0, 0, 0);
        while i < a.len() || j < b.len() {
            let leaf = if j == b.len() || (i < a.len() && a[i] < b[j]) {
                i += 1;
                a[i - 1]
            } else {
                if i < a.len() && a[i] == b[j] {
                    i += 1;
                }
                j += 1;
                b[j - 1]
            };
            if len == MAX_CUT_INPUTS {
                return None;
            }
            merged.leaves[len] = leaf;
            len += 1;
        }
        merged.len = len as u8;
        Some(merged)
    }
}

/// A node's surviving cuts, inline.
#[derive(Clone, Copy)]
struct NodeCuts {
    len: u8,
    cuts: [Cut; MAX_CUTS_PER_NODE],
}

impl NodeCuts {
    const EMPTY: NodeCuts = NodeCuts {
        len: 0,
        cuts: [Cut::EMPTY; MAX_CUTS_PER_NODE],
    };

    fn as_slice(&self) -> &[Cut] {
        &self.cuts[..usize::from(self.len)]
    }
}

/// A node's cuts: the trivial cut, then every distinct merge of a fanin-`a`
/// cut with a fanin-`b` cut, kept by a stable selection on leaf count.
fn node_cuts(node: NodeId, a: &[Cut], b: &[Cut]) -> NodeCuts {
    let mut candidates = [Cut::EMPTY; MAX_CANDIDATES];
    candidates[0] = Cut::trivial(node);
    let mut count = 1;
    for ca in a {
        for cb in b {
            if let Some(cut) = Cut::merge(ca, cb) {
                if !candidates[..count].contains(&cut) {
                    candidates[count] = cut;
                    count += 1;
                }
            }
        }
    }
    let mut kept = NodeCuts::EMPTY;
    for len in 1..=MAX_CUT_INPUTS as u8 {
        for cut in candidates[..count].iter().filter(|c| c.len == len) {
            if usize::from(kept.len) == MAX_CUTS_PER_NODE {
                return kept;
            }
            kept.cuts[usize::from(kept.len)] = *cut;
            kept.len += 1;
        }
    }
    kept
}

/// Cone walks for truth tables, memoized per walk by a generation stamp
/// instead of a fresh map.
struct ConeTables {
    stamp: Vec<u32>,
    tt: Vec<u8>,
    generation: u32,
}

impl ConeTables {
    fn new(nodes: usize) -> Self {
        Self {
            stamp: vec![0; nodes],
            tt: vec![0; nodes],
            generation: 0,
        }
    }

    /// Truth table of `node` as a function of the cut leaves (3-variable
    /// projections), or `None` if the cone escapes the cut.
    fn truth_table(&mut self, aig: &Aig, node: NodeId, cut: &Cut) -> Option<u8> {
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        for (&leaf, &proj) in cut.leaves().iter().zip(&PROJ) {
            self.stamp[leaf as usize] = self.generation;
            self.tt[leaf as usize] = proj;
        }
        self.walk(aig, node)
    }

    fn walk(&mut self, aig: &Aig, node: NodeId) -> Option<u8> {
        let i = node.index();
        if self.stamp[i] == self.generation {
            return Some(self.tt[i]);
        }
        let (a, b) = aig.and_fanins(node)?;
        let ta = self.walk(aig, a.node())?;
        let tb = self.walk(aig, b.node())?;
        let va = if a.is_complemented() { !ta } else { ta };
        let vb = if b.is_complemented() { !tb } else { tb };
        self.stamp[i] = self.generation;
        self.tt[i] = va & vb;
        Some(va & vb)
    }
}

/// A single library match: which function implements a truth table and how
/// its pins map onto cut-leaf positions.
#[derive(Debug, Clone, Copy)]
struct Match {
    function: CellFunction,
    /// `pins[i]` = index of the cut leaf wired to the cell's pin `i`, for
    /// the function's first `input_count()` pins.
    pins: [u8; MAX_CUT_INPUTS],
    area: f64,
}

/// Table from truth table over 3 vars to the cheapest match.
struct MatchTable {
    by_tt: [Option<Match>; 256],
    inv_area: f64,
    and2_area: f64,
}

fn class_for(function: CellFunction) -> CellClass {
    match function {
        CellFunction::Const0 => CellClass::TieLo,
        CellFunction::Const1 => CellClass::TieHi,
        CellFunction::Buf => CellClass::Buf,
        CellFunction::Inv => CellClass::Inv,
        CellFunction::And2 => CellClass::And2,
        CellFunction::Nand2 => CellClass::Nand2,
        CellFunction::Or2 => CellClass::Or2,
        CellFunction::Nor2 => CellClass::Nor2,
        CellFunction::Xor2 => CellClass::Xor2,
        CellFunction::Xnor2 => CellClass::Xnor2,
        CellFunction::And3 => CellClass::And3,
        CellFunction::Nand3 => CellClass::Nand3,
        CellFunction::Or3 => CellClass::Or3,
        CellFunction::Nor3 => CellClass::Nor3,
        CellFunction::Aoi21 => CellClass::Aoi21,
        CellFunction::Oai21 => CellClass::Oai21,
        CellFunction::Mux2 => CellClass::Mux2,
        CellFunction::Maj3 => CellClass::Maj3,
        CellFunction::Xor3 => CellClass::Xor3,
        CellFunction::Dff => CellClass::Dff,
        CellFunction::DffEn => CellClass::DffEn,
    }
}

/// The combinational functions the matcher tries, smallest-area first
/// preference handled by the table construction.
const MAPPABLE: [CellFunction; 17] = [
    CellFunction::Buf,
    CellFunction::Inv,
    CellFunction::And2,
    CellFunction::Nand2,
    CellFunction::Or2,
    CellFunction::Nor2,
    CellFunction::Xor2,
    CellFunction::Xnor2,
    CellFunction::And3,
    CellFunction::Nand3,
    CellFunction::Or3,
    CellFunction::Nor3,
    CellFunction::Aoi21,
    CellFunction::Oai21,
    CellFunction::Mux2,
    CellFunction::Maj3,
    CellFunction::Xor3,
];

impl MatchTable {
    fn build(lib: &StdCellLibrary) -> Result<Self, SynthError> {
        let area_of = |class: CellClass| -> Result<f64, SynthError> {
            lib.smallest(class)
                .map(|c| c.area_um2())
                .ok_or_else(|| SynthError::MissingLibraryCell(class.prefix().to_string()))
        };
        let inv_area = area_of(CellClass::Inv)?;
        let and2_area = area_of(CellClass::And2)?;
        let mut by_tt: [Option<Match>; 256] = [None; 256];
        for function in MAPPABLE {
            let class = class_for(function);
            let Some(cell) = lib.smallest(class) else {
                continue; // library variant without this gate
            };
            let n = function.input_count();
            // Enumerate injective pin -> leaf-position assignments.
            for assignment in injective_assignments(n, MAX_CUT_INPUTS) {
                let mut tt = 0u8;
                for k in 0..8u8 {
                    let mut inputs = [false; MAX_CUT_INPUTS];
                    for (input, &slot) in inputs.iter_mut().zip(&assignment) {
                        *input = (k >> slot) & 1 == 1;
                    }
                    if function.eval(&inputs[..n]) {
                        tt |= 1 << k;
                    }
                }
                let mut pins = [0u8; MAX_CUT_INPUTS];
                for (pin, &slot) in pins.iter_mut().zip(&assignment) {
                    *pin = slot as u8;
                }
                let candidate = Match {
                    function,
                    pins,
                    area: cell.area_um2(),
                };
                let entry = &mut by_tt[usize::from(tt)];
                match entry {
                    Some(existing) if existing.area <= candidate.area => {}
                    _ => *entry = Some(candidate),
                }
            }
        }
        Ok(Self {
            by_tt,
            inv_area,
            and2_area,
        })
    }

    fn get(&self, tt: u8) -> Option<&Match> {
        self.by_tt[usize::from(tt)].as_ref()
    }
}

/// All injective maps from `pins` pin indices into `slots` leaf positions.
fn injective_assignments(pins: usize, slots: usize) -> Vec<Vec<usize>> {
    let mut result = Vec::new();
    let mut current = Vec::new();
    fn recurse(pins: usize, slots: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if current.len() == pins {
            out.push(current.clone());
            return;
        }
        for slot in 0..slots {
            if !current.contains(&slot) {
                current.push(slot);
                recurse(pins, slots, current, out);
                current.pop();
            }
        }
    }
    recurse(pins, slots, &mut current, &mut result);
    result
}

/// How one polarity of a node's value gets realized.
#[derive(Debug, Clone, Copy)]
enum Choice {
    /// Matched library cell over a cut (computes this polarity directly);
    /// `tt` indexes the match table.
    Cell { cut: Cut, tt: u8 },
    /// Structural fallback over the node's two fanin literals: AND2 for the
    /// positive phase, NAND2 for the negative phase.
    Fallback(CellFunction),
    /// Realize the opposite polarity and append an inverter.
    InvertOther,
}

/// Maps an optimized AIG onto a standard-cell library.
///
/// # Errors
///
/// Returns [`SynthError::MissingLibraryCell`] if the library lacks the
/// inverter/AND fallback gates, and propagates netlist construction errors.
pub fn map_to_netlist(aig: &Aig, lib: &StdCellLibrary) -> Result<Netlist, SynthError> {
    let table = MatchTable::build(lib)?;
    let refs = aig.fanout_counts();
    let n = aig.node_count();

    // --- cut enumeration + truth tables + dual-polarity DP (area flow) ---
    let mut cuts: Vec<NodeCuts> = vec![NodeCuts::EMPTY; n];
    let mut cones = ConeTables::new(n);
    // cost/choice per polarity: [0] = positive phase, [1] = negative phase.
    let mut cost: Vec<[f64; 2]> = vec![[0.0, 0.0]; n];
    let mut choice: Vec<[Option<Choice>; 2]> = vec![[None, None]; n];
    let nand2_area = lib
        .smallest(CellClass::Nand2)
        .map(|c| c.area_um2())
        .ok_or_else(|| SynthError::MissingLibraryCell("NAND2".into()))?;

    for index in 0..n {
        let node = NodeId(index as u32);
        let Some((fa, fb)) = aig.and_fanins(node) else {
            cuts[index].cuts[0] = Cut::trivial(node);
            cuts[index].len = 1;
            // Inputs/constants: positive phase is free, negative costs INV.
            cost[index] = [0.0, table.inv_area];
            choice[index] = [None, Some(Choice::InvertOther)];
            continue;
        };
        let node_cuts = node_cuts(
            node,
            cuts[fa.node().index()].as_slice(),
            cuts[fb.node().index()].as_slice(),
        );

        let mut best_cost = [f64::INFINITY, f64::INFINITY];
        let mut best: [Option<Choice>; 2] = [None, None];
        // The first cut is the trivial one: not a cover.
        for cut in &node_cuts.as_slice()[1..] {
            let Some(tt) = cones.truth_table(aig, node, cut) else {
                continue;
            };
            // Leaves are used in their positive phase.
            let leaf_cost: f64 = cut
                .leaves()
                .iter()
                .map(|&l| cost[l as usize][0] / f64::from(refs[l as usize].max(1)))
                .sum();
            for (phase, tt_key) in [(0usize, tt), (1, !tt)] {
                if let Some(m) = table.get(tt_key) {
                    let total = m.area + leaf_cost;
                    if total < best_cost[phase] {
                        best_cost[phase] = total;
                        best[phase] = Some(Choice::Cell {
                            cut: *cut,
                            tt: tt_key,
                        });
                    }
                }
            }
        }
        // Guaranteed fallbacks over fanin literals: AND2 (pos), NAND2 (neg).
        let fanin_cost: f64 = [fa, fb]
            .iter()
            .map(|fanin| {
                let i = fanin.node().index();
                let phase = usize::from(fanin.is_complemented());
                cost[i][phase] / f64::from(refs[i].max(1))
            })
            .sum();
        for (phase, area, function) in [
            (0usize, table.and2_area, CellFunction::And2),
            (1, nand2_area, CellFunction::Nand2),
        ] {
            let total = area + fanin_cost;
            if total < best_cost[phase] {
                best_cost[phase] = total;
                best[phase] = Some(Choice::Fallback(function));
            }
        }
        // Cross-polarity improvement (at most one side can win).
        if best_cost[1] + table.inv_area < best_cost[0] {
            best_cost[0] = best_cost[1] + table.inv_area;
            best[0] = Some(Choice::InvertOther);
        } else if best_cost[0] + table.inv_area < best_cost[1] {
            best_cost[1] = best_cost[0] + table.inv_area;
            best[1] = Some(Choice::InvertOther);
        }
        cost[index] = best_cost;
        choice[index] = [
            Some(best[0].expect("AND2 fallback always applies")),
            Some(best[1].expect("NAND2 fallback always applies")),
        ];
        cuts[index] = node_cuts;
    }

    // --- extraction ---
    let mut extractor = Extractor {
        aig,
        table: &table,
        choice: &choice,
        cell_names: CellFunction::ALL.map(|f| lib.smallest(class_for(f)).map(|c| c.name())),
        netlist: Netlist::new(aig.name()),
        node_net: vec![[None, None]; n],
        const_nets: [None, None],
        counter: 0,
    };

    // Primary inputs and latch outputs become nets up front.
    for (name, id) in aig.inputs() {
        let net = extractor.netlist.add_input(name.clone());
        extractor.node_net[id.index()][0] = Some(net);
    }
    let mut latch_q_nets = Vec::new();
    for latch in aig.latches() {
        let net = extractor.netlist.add_net(latch.name.clone());
        extractor.node_net[latch.q.index()][0] = Some(net);
        latch_q_nets.push(net);
    }
    // Logic cones.
    for (_, lit) in aig.outputs() {
        extractor.lit_net(*lit)?;
    }
    for latch in aig.latches() {
        extractor.lit_net(latch.d)?;
    }
    // Flip-flops.
    for (latch, q_net) in aig.latches().iter().zip(latch_q_nets) {
        let d_net = extractor.lit_net(latch.d)?;
        let cell = extractor.lib_cell_name(CellFunction::Dff)?;
        let name = format!("ff_{}", latch.name.replace(['[', ']'], "_"));
        extractor
            .netlist
            .add_cell(name, CellFunction::Dff, cell, &[d_net], q_net)?;
    }
    // Outputs.
    for (name, lit) in aig.outputs() {
        let net = extractor.lit_net(*lit)?;
        extractor.netlist.mark_output(name.clone(), net)?;
    }
    Ok(extractor.netlist)
}

struct Extractor<'a> {
    aig: &'a Aig,
    table: &'a MatchTable,
    choice: &'a [[Option<Choice>; 2]],
    /// The smallest library cell per function, indexed as
    /// [`CellFunction::ALL`], resolved once per call.
    cell_names: [Option<&'a str>; CellFunction::ALL.len()],
    netlist: Netlist,
    /// `[node][negated]` -> net carrying that phase of the node's value.
    node_net: Vec<[Option<NetId>; 2]>,
    const_nets: [Option<NetId>; 2],
    counter: usize,
}

impl<'a> Extractor<'a> {
    fn cell_name(&self, function: CellFunction) -> Option<&'a str> {
        self.cell_names[function as usize]
    }

    fn lib_cell_name(&self, function: CellFunction) -> Result<&'a str, SynthError> {
        self.cell_name(function)
            .ok_or_else(|| SynthError::MissingLibraryCell(function.to_string()))
    }

    fn fresh_net(&mut self) -> NetId {
        self.counter += 1;
        self.netlist.add_net(format!("n{}", self.counter))
    }

    fn fresh_cell_name(&mut self) -> String {
        self.counter += 1;
        format!("g{}", self.counter)
    }

    /// Net carrying the requested phase of `node`, instantiating its chosen
    /// cover on first use.
    fn extract(&mut self, node: NodeId, negated: bool) -> Result<NetId, SynthError> {
        let phase = usize::from(negated);
        if let Some(net) = self.node_net[node.index()][phase] {
            return Ok(net);
        }
        if node == NodeId::FALSE {
            return self.const_net(negated);
        }
        // Inputs/latch outputs have no positive choice: their net is preset.
        let choice = self.choice[node.index()][phase].expect("input nets are preset");
        let net = match choice {
            Choice::Cell { cut, tt } => {
                let m = *self.table.get(tt).expect("chosen matches exist");
                let mut leaf_nets = [NetId::new(0); MAX_CUT_INPUTS];
                for (net, &leaf) in leaf_nets.iter_mut().zip(cut.leaves()) {
                    *net = self.extract(NodeId(leaf), false)?;
                }
                // Every mappable function depends on all its pins, so a
                // match over a cut's table wires only that cut's leaves.
                let n = m.function.input_count();
                let inputs = m.pins.map(|p| leaf_nets[usize::from(p)]);
                let out = self.fresh_net();
                let cell = self.lib_cell_name(m.function)?;
                let name = self.fresh_cell_name();
                self.netlist
                    .add_cell(name, m.function, cell, &inputs[..n], out)?;
                out
            }
            Choice::Fallback(function) => {
                let (a, b) = self
                    .aig
                    .and_fanins(node)
                    .expect("fallback only on AND nodes");
                let na = self.lit_net(a)?;
                let nb = self.lit_net(b)?;
                let out = self.fresh_net();
                let cell = self.lib_cell_name(function)?;
                let name = self.fresh_cell_name();
                self.netlist
                    .add_cell(name, function, cell, &[na, nb], out)?;
                out
            }
            Choice::InvertOther => {
                let other = self.extract(node, !negated)?;
                let out = self.fresh_net();
                let cell = self.lib_cell_name(CellFunction::Inv)?;
                let name = self.fresh_cell_name();
                self.netlist
                    .add_cell(name, CellFunction::Inv, cell, &[other], out)?;
                out
            }
        };
        self.node_net[node.index()][phase] = Some(net);
        Ok(net)
    }

    /// Net carrying a literal's value.
    fn lit_net(&mut self, lit: Lit) -> Result<NetId, SynthError> {
        self.extract(lit.node(), lit.is_complemented())
    }

    fn const_net(&mut self, value: bool) -> Result<NetId, SynthError> {
        let slot = usize::from(value);
        if let Some(net) = self.const_nets[slot] {
            return Ok(net);
        }
        let function = if value {
            CellFunction::Const1
        } else {
            CellFunction::Const0
        };
        let cell = self.cell_name(function).ok_or_else(|| {
            SynthError::MissingLibraryCell(class_for(function).prefix().to_string())
        })?;
        let net = self.fresh_net();
        let name = self.fresh_cell_name();
        self.netlist.add_cell(name, function, cell, &[], net)?;
        self.const_nets[slot] = Some(net);
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_to_aig;
    use crate::simulate_equivalent;
    use chipforge_hdl::parse;
    use chipforge_pdk::{LibraryKind, TechnologyNode};

    fn lib() -> StdCellLibrary {
        StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open)
    }

    fn map_src(src: &str) -> (chipforge_hdl::RtlModule, Netlist) {
        let module = parse(src).unwrap();
        let aig = lower_to_aig(&module);
        let netlist = map_to_netlist(&aig, &lib()).unwrap();
        netlist.validate().unwrap();
        (module, netlist)
    }

    #[test]
    fn xor_maps_to_single_gate() {
        let (module, netlist) =
            map_src("module m() { input a; input b; output y; assign y = a ^ b; }");
        assert!(simulate_equivalent(&module, &netlist, 16, 1));
        // One XOR2 (or XNOR2+INV, but area prefers XOR2).
        assert_eq!(netlist.cell_count(), 1, "{:?}", netlist.stats());
        assert_eq!(
            netlist.cells().next().unwrap().function(),
            CellFunction::Xor2
        );
    }

    #[test]
    fn mux_maps_compactly() {
        let (module, netlist) =
            map_src("module m() { input a; input b; input s; output y; assign y = s ? b : a; }");
        assert!(simulate_equivalent(&module, &netlist, 32, 2));
        assert!(
            netlist.cell_count() <= 2,
            "mux should map to at most MUX2 (+INV), got {}",
            netlist.cell_count()
        );
    }

    #[test]
    fn constants_map_to_tie_cells() {
        let (module, netlist) = map_src(
            "module m() { input a; output y; output z; assign y = 1'd1; assign z = a & 1'd0; }",
        );
        assert!(simulate_equivalent(&module, &netlist, 8, 3));
        let functions: Vec<CellFunction> = netlist.cells().map(|c| c.function()).collect();
        assert!(functions.contains(&CellFunction::Const1));
        assert!(functions.contains(&CellFunction::Const0));
    }

    #[test]
    fn full_adder_uses_complex_gates() {
        let (module, netlist) = map_src(
            "module m() { input a; input b; input c; output [1:0] s; assign s = {1'd0, a} + {1'd0, b} + {1'd0, c}; }",
        );
        assert!(simulate_equivalent(&module, &netlist, 64, 4));
        // XOR3 + MAJ3 (or close): far fewer cells than the ~12 NAND mapping.
        assert!(
            netlist.cell_count() <= 6,
            "full adder mapped to {} cells",
            netlist.cell_count()
        );
    }

    #[test]
    fn sequential_mapping_places_dffs() {
        let (module, netlist) = map_src(
            "module c() { input en; output [3:0] q; reg [3:0] q; always { if (en) { q <= q + 1; } } }",
        );
        assert!(simulate_equivalent(&module, &netlist, 64, 5));
        assert_eq!(netlist.stats().sequential_cells, 4);
    }

    #[test]
    fn inverters_are_shared() {
        let (module, netlist) = map_src(
            "module m() { input a; input b; input c; output x; output y; assign x = (a == 0) & b; assign y = (a == 0) & c; }",
        );
        assert!(simulate_equivalent(&module, &netlist, 32, 6));
        let inv_count = netlist
            .cells()
            .filter(|c| c.function() == CellFunction::Inv)
            .count();
        assert!(
            inv_count <= 1,
            "!a must be shared, found {inv_count} inverters"
        );
    }

    #[test]
    fn match_table_covers_basic_tts() {
        let table = MatchTable::build(&lib()).unwrap();
        // AND of leaves 0,1 -> 0xAA & 0xCC = 0x88.
        assert!(table.get(0x88).is_some());
        // XOR -> 0x66.
        assert!(table.get(0x66).is_some());
        // NAND -> 0x77.
        assert!(table.get(0x77).is_some());
        // Projection (BUF) -> 0xAA.
        assert!(table.get(0xAA).is_some());
        // MAJ3 -> 0xE8.
        assert!(table.get(0xE8).is_some());
    }

    #[test]
    fn cell_names_index_functions_by_declaration_order() {
        for (i, function) in CellFunction::ALL.into_iter().enumerate() {
            assert_eq!(function as usize, i, "{function}");
        }
    }

    #[test]
    fn injective_assignments_counts() {
        assert_eq!(injective_assignments(1, 3).len(), 3);
        assert_eq!(injective_assignments(2, 3).len(), 6);
        assert_eq!(injective_assignments(3, 3).len(), 6);
    }
}
