//! The mapper as it was before its cut DP and extraction stopped
//! allocating, the bit-identity oracle for [`super::map_to_netlist`]:
//! cuts are `Vec`s merged into fresh `Vec`s, each truth table memoizes its
//! cone walk in a `HashMap`, every improvement clones its cut and pins,
//! and extraction keys its nets by `(node, phase)` in a `HashMap`. The
//! production mapper must write the same netlist byte for byte. The pure
//! enumeration tables (`MAPPABLE`, `class_for`, `injective_assignments`)
//! are shared with it.

use super::{class_for, injective_assignments, MAPPABLE, MAX_CUTS_PER_NODE, MAX_CUT_INPUTS, PROJ};
use crate::aig::{Aig, Lit, NodeId};
use crate::SynthError;
use chipforge_netlist::{CellFunction, NetId, Netlist};
use chipforge_pdk::{CellClass, StdCellLibrary};
use std::collections::HashMap;

/// A single library match: which function implements a truth table and how
/// its pins map onto cut-leaf positions.
#[derive(Debug, Clone)]
struct Match {
    function: CellFunction,
    /// `pins[i]` = index of the cut leaf wired to the cell's pin `i`.
    pins: Vec<usize>,
    area: f64,
}

/// Table from (truth table over 3 vars, support size) to the cheapest match.
struct MatchTable {
    by_tt: HashMap<u8, Match>,
    inv_area: f64,
    and2_area: f64,
}

impl MatchTable {
    fn build(lib: &StdCellLibrary) -> Result<Self, SynthError> {
        let area_of = |class: CellClass| -> Result<f64, SynthError> {
            lib.smallest(class)
                .map(|c| c.area_um2())
                .ok_or_else(|| SynthError::MissingLibraryCell(class.prefix().to_string()))
        };
        let inv_area = area_of(CellClass::Inv)?;
        let and2_area = area_of(CellClass::And2)?;
        let mut by_tt: HashMap<u8, Match> = HashMap::new();
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
                    let inputs: Vec<bool> =
                        (0..n).map(|pin| (k >> assignment[pin]) & 1 == 1).collect();
                    if function.eval(&inputs) {
                        tt |= 1 << k;
                    }
                }
                let candidate = Match {
                    function,
                    pins: assignment.clone(),
                    area: cell.area_um2(),
                };
                match by_tt.get(&tt) {
                    Some(existing) if existing.area <= candidate.area => {}
                    _ => {
                        by_tt.insert(tt, candidate);
                    }
                }
            }
        }
        Ok(Self {
            by_tt,
            inv_area,
            and2_area,
        })
    }
}

/// How one polarity of a node's value gets realized.
#[derive(Debug, Clone)]
enum Choice {
    /// Matched library cell over a cut (computes this polarity directly).
    Cell {
        cut: Vec<NodeId>,
        function: CellFunction,
        pins: Vec<usize>,
    },
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
pub(crate) fn map_to_netlist(aig: &Aig, lib: &StdCellLibrary) -> Result<Netlist, SynthError> {
    let table = MatchTable::build(lib)?;
    let refs = aig.fanout_counts();
    let n = aig.node_count();

    // --- cut enumeration + truth tables + dual-polarity DP (area flow) ---
    let mut cuts: Vec<Vec<Vec<NodeId>>> = vec![Vec::new(); n];
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
            cuts[index] = vec![vec![node]];
            // Inputs/constants: positive phase is free, negative costs INV.
            cost[index] = [0.0, table.inv_area];
            choice[index] = [None, Some(Choice::InvertOther)];
            continue;
        };
        // Merge fanin cuts.
        let mut node_cuts: Vec<Vec<NodeId>> = vec![vec![node]];
        for ca in &cuts[fa.node().index()] {
            for cb in &cuts[fb.node().index()] {
                if let Some(cut) = merge_cuts(ca, cb) {
                    if !node_cuts.contains(&cut) {
                        node_cuts.push(cut);
                    }
                }
            }
        }
        node_cuts.sort_by_key(|c| c.len());
        node_cuts.truncate(MAX_CUTS_PER_NODE);

        let mut best_cost = [f64::INFINITY, f64::INFINITY];
        let mut best: [Option<Choice>; 2] = [None, None];
        for cut in &node_cuts {
            if cut.len() == 1 && cut[0] == node {
                continue; // trivial cut: not a cover
            }
            let Some(tt) = cone_truth_table(aig, node, cut) else {
                continue;
            };
            // Leaves are used in their positive phase.
            let leaf_cost: f64 = cut
                .iter()
                .map(|l| cost[l.index()][0] / f64::from(refs[l.index()].max(1)))
                .sum();
            for (phase, tt_key) in [(0usize, tt), (1, !tt)] {
                if let Some(m) = table.by_tt.get(&tt_key) {
                    let total = m.area + leaf_cost;
                    if total < best_cost[phase] {
                        best_cost[phase] = total;
                        best[phase] = Some(Choice::Cell {
                            cut: cut.clone(),
                            function: m.function,
                            pins: m.pins.clone(),
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
            Some(best[0].clone().expect("AND2 fallback always applies")),
            Some(best[1].clone().expect("NAND2 fallback always applies")),
        ];
        cuts[index] = node_cuts;
    }

    // --- extraction ---
    let mut extractor = Extractor {
        aig,
        lib,
        choice: &choice,
        netlist: Netlist::new(aig.name()),
        node_net: HashMap::new(),
        const_nets: [None, None],
        counter: 0,
    };

    // Primary inputs and latch outputs become nets up front.
    for (name, id) in aig.inputs() {
        let net = extractor.netlist.add_input(name.clone());
        extractor.node_net.insert((*id, false), net);
    }
    let mut latch_q_nets = Vec::new();
    for latch in aig.latches() {
        let net = extractor.netlist.add_net(latch.name.clone());
        extractor.node_net.insert((latch.q, false), net);
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

/// Merges two cuts; `None` if the union exceeds the input limit.
fn merge_cuts(a: &[NodeId], b: &[NodeId]) -> Option<Vec<NodeId>> {
    let mut merged: Vec<NodeId> = a.to_vec();
    for &x in b {
        if !merged.contains(&x) {
            merged.push(x);
        }
    }
    if merged.len() > MAX_CUT_INPUTS {
        return None;
    }
    merged.sort();
    Some(merged)
}

/// Truth table of `node` as a function of the cut leaves (3-variable
/// projections), or `None` if the cone escapes the cut.
fn cone_truth_table(aig: &Aig, node: NodeId, cut: &[NodeId]) -> Option<u8> {
    fn tt_of(
        aig: &Aig,
        node: NodeId,
        cut: &[NodeId],
        memo: &mut HashMap<NodeId, u8>,
    ) -> Option<u8> {
        if let Some(pos) = cut.iter().position(|&l| l == node) {
            return Some(PROJ[pos]);
        }
        if let Some(&tt) = memo.get(&node) {
            return Some(tt);
        }
        let (a, b) = aig.and_fanins(node)?;
        let ta = tt_of(aig, a.node(), cut, memo)?;
        let tb = tt_of(aig, b.node(), cut, memo)?;
        let va = if a.is_complemented() { !ta } else { ta };
        let vb = if b.is_complemented() { !tb } else { tb };
        let tt = va & vb;
        memo.insert(node, tt);
        Some(tt)
    }
    let mut memo = HashMap::new();
    tt_of(aig, node, cut, &mut memo)
}

struct Extractor<'a> {
    aig: &'a Aig,
    lib: &'a StdCellLibrary,
    choice: &'a [[Option<Choice>; 2]],
    netlist: Netlist,
    /// `(node, negated)` -> net carrying that phase of the node's value.
    node_net: HashMap<(NodeId, bool), NetId>,
    const_nets: [Option<NetId>; 2],
    counter: usize,
}

impl Extractor<'_> {
    fn lib_cell_name(&self, function: CellFunction) -> Result<String, SynthError> {
        self.lib
            .smallest(class_for(function))
            .map(|c| c.name().to_string())
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
        if let Some(&net) = self.node_net.get(&(node, negated)) {
            return Ok(net);
        }
        if node == NodeId::FALSE {
            return self.const_net(negated);
        }
        let phase = usize::from(negated);
        let choice = match &self.choice[node.index()][phase] {
            Some(c) => c.clone(),
            // Inputs/latch outputs have no positive choice: net is preset.
            None => {
                return Ok(*self
                    .node_net
                    .get(&(node, false))
                    .expect("input nets are preset"))
            }
        };
        let net = match choice {
            Choice::Cell {
                cut,
                function,
                pins,
            } => {
                let mut leaf_nets = Vec::with_capacity(cut.len());
                for leaf in &cut {
                    leaf_nets.push(self.extract(*leaf, false)?);
                }
                let inputs: Vec<NetId> = pins.iter().map(|&p| leaf_nets[p]).collect();
                let out = self.fresh_net();
                let cell = self.lib_cell_name(function)?;
                let name = self.fresh_cell_name();
                self.netlist.add_cell(name, function, cell, &inputs, out)?;
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
        self.node_net.insert((node, negated), net);
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
        let class = if value {
            CellClass::TieHi
        } else {
            CellClass::TieLo
        };
        let cell = self
            .lib
            .smallest(class)
            .map(|c| c.name().to_string())
            .ok_or_else(|| SynthError::MissingLibraryCell(class.prefix().to_string()))?;
        let net = self.fresh_net();
        let name = self.fresh_cell_name();
        self.netlist.add_cell(name, function, cell, &[], net)?;
        self.const_nets[slot] = Some(net);
        Ok(net)
    }
}

mod tests {
    use super::map_to_netlist as reference;
    use crate::map::map_to_netlist;
    use crate::{optimized_aig, Aig, Lit, SynthEffort};
    use chipforge_gen::{Family, GenSpec};
    use chipforge_hdl::designs::{self, Design};
    use chipforge_netlist::verilog::write_verilog;
    use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    const EFFORTS: [SynthEffort; 3] = [SynthEffort::Fast, SynthEffort::Standard, SynthEffort::High];

    fn libs() -> &'static [StdCellLibrary; 2] {
        static LIBS: OnceLock<[StdCellLibrary; 2]> = OnceLock::new();
        LIBS.get_or_init(|| {
            [LibraryKind::Open, LibraryKind::Commercial]
                .map(|kind| StdCellLibrary::generate(TechnologyNode::N130, kind))
        })
    }

    /// Maps `aig` with both mappers over both library kinds and compares
    /// the written Verilog.
    fn assert_identical(aig: &Aig, what: &str) {
        for lib in libs() {
            let expected = reference(aig, lib).expect("reference maps");
            let actual = map_to_netlist(aig, lib).expect("maps");
            assert!(
                write_verilog(&actual) == write_verilog(&expected),
                "{what} on {} maps differently",
                lib.name()
            );
        }
    }

    fn assert_identical_at_every_effort(design: &Design) {
        let module = design.elaborate().expect("elaborates");
        for effort in EFFORTS {
            let aig = optimized_aig(&module, effort);
            assert_identical(&aig, &format!("{} at {effort:?}", design.name()));
        }
    }

    #[test]
    fn matches_the_reference_byte_for_byte_over_the_suite() {
        for design in designs::suite() {
            assert_identical_at_every_effort(&design);
        }
    }

    /// The `gen:` corpus, then the three wide, deep, fully unrolled designs
    /// of the cold-flow benchmark (`cpu/ctrl` is the costliest to map).
    #[test]
    fn matches_the_reference_byte_for_byte_over_the_generated_corpus() {
        let wide =
            [Family::NocRouter, Family::CryptoRound, Family::CpuCtrl].map(|family| GenSpec {
                family,
                width: 32,
                depth: 8,
                unroll: 4,
                seed: 1,
            });
        for spec in chipforge_gen::corpus().into_iter().chain(wide) {
            assert_identical_at_every_effort(&spec.generate());
        }
    }

    /// A random AIG: `inputs` primary inputs, then one AND per gate over
    /// two earlier literals picked by index, the last `outputs` literals
    /// driven out. Leaves that sit in other leaves' cones, and cuts through
    /// them, are far commoner here than in generated designs.
    fn random_aig(inputs: usize, gates: &[(usize, usize, bool, bool)], outputs: usize) -> Aig {
        let mut aig = Aig::new("random");
        let mut lits: Vec<Lit> = (0..inputs)
            .map(|i| aig.add_input(format!("i{i}")))
            .collect();
        for &(a, b, invert_a, invert_b) in gates {
            let a = lits[a % lits.len()];
            let b = lits[b % lits.len()];
            let lit = aig.and(if invert_a { !a } else { a }, if invert_b { !b } else { b });
            lits.push(lit);
        }
        for (k, lit) in lits.iter().rev().take(outputs).enumerate() {
            aig.add_output(format!("o{k}"), *lit);
        }
        aig
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn matches_the_reference_on_random_aigs(
            inputs in 1usize..6,
            gates in proptest::collection::vec(
                (any::<usize>(), any::<usize>(), any::<bool>(), any::<bool>()),
                1..32,
            ),
            outputs in 1usize..4,
        ) {
            assert_identical(&random_aig(inputs, &gates, outputs), "a random AIG");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn matches_the_reference_on_random_specs(
            family in 0usize..Family::ALL.len(),
            width in 4u8..=24,
            depth in 1u8..=4,
            unroll in 1u8..=2,
            seed in 0u64..1000,
            effort in 0usize..EFFORTS.len(),
        ) {
            let spec = GenSpec { family: Family::ALL[family], width, depth, unroll, seed };
            let module = spec.generate().elaborate().expect("elaborates");
            assert_identical(&optimized_aig(&module, EFFORTS[effort]), &spec.to_string());
        }
    }
}
