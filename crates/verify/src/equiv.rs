//! Formal equivalence between RTL and mapped netlists.

use crate::bdd::{Bdd, BddRef};
use crate::convert::netlist_to_aig;
use crate::sweep;
use chipforge_hdl::RtlModule;
use chipforge_netlist::Netlist;
use chipforge_synth::{lower, Aig, Lit};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A concrete input/state assignment distinguishing the two designs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counterexample {
    /// The output or next-state function that differs.
    pub signal: String,
    /// `(input/state-bit name, value)` pairs; unlisted bits are false.
    pub assignment: Vec<(String, bool)>,
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// All outputs and next-state functions proven equal.
    Equivalent,
    /// A difference was proven; see the counterexample.
    Inequivalent(Counterexample),
    /// The designs have different interfaces (missing output/state bit).
    InterfaceMismatch(String),
    /// The BDD node budget was exhausted before a proof completed, even
    /// after sweeping.
    Aborted,
}

/// Result of [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EquivalenceResult {
    /// The verdict.
    pub verdict: Verdict,
    /// Functions proven equal before finishing/aborting.
    pub proven: usize,
    /// Total functions to prove (outputs + next-state bits).
    pub total: usize,
    /// Nodes of the largest BDD table the check built (whole-AIG or
    /// cone BDDs, whichever held more).
    pub bdd_nodes: usize,
}

/// Formally checks a mapped netlist against its RTL module.
///
/// Both designs are converted to AIGs; primary inputs and state bits are
/// matched by their bit-blasted names; every primary output and every
/// latch next-state function is proven equal or refuted. Because the
/// flow preserves the state encoding one-to-one, this is complete
/// sequential equivalence, not a bounded check.
///
/// `node_budget` caps BDD size. Whole-AIG BDDs get a sixteenth of it;
/// where they run out, a simulation-guided sweep of one miter merges
/// proven-equal nodes, and BDDs over the cones it leaves open get the
/// full budget (see the crate docs). Only exhausting that is
/// [`Verdict::Aborted`]. `bdd_nodes` in the result is the size of the
/// largest BDD table the check built: the whole-AIG one, or the cone
/// one if that grew larger.
#[must_use]
pub fn check_equivalence(
    module: &RtlModule,
    netlist: &Netlist,
    node_budget: usize,
) -> EquivalenceResult {
    let golden = lower::lower_to_aig(module);
    let dut = match netlist_to_aig(netlist) {
        Ok(aig) => aig,
        Err(e) => {
            return EquivalenceResult {
                verdict: Verdict::InterfaceMismatch(format!("invalid netlist: {e}")),
                proven: 0,
                total: 0,
                bdd_nodes: 0,
            }
        }
    };
    check_aig_equivalence(&golden, &dut, node_budget)
}

/// Checks two AIGs with name-matched interfaces for equivalence.
///
/// Stage 1 builds whole-AIG BDDs under a sixteenth of `node_budget`;
/// whatever it decides is the answer. Only when it runs out does
/// `sweep::check` take over: one miter, simulation as the falsifier,
/// simulation-guided merging proven on small cuts, and per-cone BDDs
/// under the full budget for the output pairs merging leaves open.
#[must_use]
pub fn check_aig_equivalence(golden: &Aig, dut: &Aig, node_budget: usize) -> EquivalenceResult {
    let names = variable_order(golden, dut);
    let whole = whole_bdd_check(golden, dut, &names, node_budget / WHOLE_BDD_SHARE);
    if whole.verdict != Verdict::Aborted {
        return whole;
    }
    sweep::check(golden, dut, &names, node_budget, whole.bdd_nodes)
}

/// Stage 1 gets `node_budget / WHOLE_BDD_SHARE` nodes: enough for every
/// design whose whole-AIG BDDs stay small, and a cheap abort for the
/// multiplier-style ones the sweep proves instead.
const WHOLE_BDD_SHARE: usize = 16;

/// BDD variables, one per input or state-bit name of either AIG, bits
/// interleaved across buses. DUT-only inputs (e.g. scan ports) still get
/// a variable.
pub(crate) fn variable_order(golden: &Aig, dut: &Aig) -> Vec<String> {
    let mut names: Vec<String> = golden
        .inputs()
        .iter()
        .map(|(n, _)| n.clone())
        .chain(golden.latches().iter().map(|l| l.name.clone()))
        .collect();
    let mut seen: HashSet<&str> = golden
        .inputs()
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(golden.latches().iter().map(|l| l.name.as_str()))
        .collect();
    let dut_names = dut
        .inputs()
        .iter()
        .map(|(n, _)| n)
        .chain(dut.latches().iter().map(|l| &l.name));
    for name in dut_names {
        if seen.insert(name) {
            names.push(name.clone());
        }
    }
    names.sort_by_cached_key(|n| {
        let (base, bit) = split_bit(n);
        (bit, base.to_string())
    });
    names
}

/// A function both designs must agree on: its name in a verdict, the
/// golden literal and the DUT literal.
pub(crate) type Pair = (String, Lit, Lit);

/// Every output and next-state function, paired by name, golden order;
/// `Err` names the first one the DUT lacks.
pub(crate) fn compared_pairs(golden: &Aig, dut: &Aig) -> Result<Vec<Pair>, String> {
    let dut_outputs: HashMap<&str, Lit> = dut
        .outputs()
        .iter()
        .map(|(n, l)| (n.as_str(), *l))
        .collect();
    let dut_next: HashMap<&str, Lit> = dut
        .latches()
        .iter()
        .map(|l| (l.name.as_str(), l.d))
        .collect();
    let mut pairs = Vec::with_capacity(golden.outputs().len() + golden.latches().len());
    for (name, lit) in golden.outputs() {
        match dut_outputs.get(name.as_str()) {
            Some(&d) => pairs.push((name.clone(), *lit, d)),
            None => return Err(format!("output `{name}` missing")),
        }
    }
    for latch in golden.latches() {
        match dut_next.get(latch.name.as_str()) {
            Some(&d) => pairs.push((format!("next({})", latch.name), latch.d, d)),
            None => return Err(format!("state bit `{}` missing", latch.name)),
        }
    }
    Ok(pairs)
}

/// Stage 1: every node of both AIGs as a BDD over the inputs, then each
/// pair compared as canonical BDDs.
pub(crate) fn whole_bdd_check(
    golden: &Aig,
    dut: &Aig,
    names: &[String],
    budget: usize,
) -> EquivalenceResult {
    let var_of: HashMap<&str, u32> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as u32))
        .collect();

    let mut bdd = Bdd::new(budget);
    let total = golden.outputs().len() + golden.latches().len();
    let abort = |bdd: &Bdd, proven: usize| EquivalenceResult {
        verdict: Verdict::Aborted,
        proven,
        total,
        bdd_nodes: bdd.node_count(),
    };

    // Build per-node BDDs for one AIG.
    fn build(aig: &Aig, bdd: &mut Bdd, var_of: &HashMap<&str, u32>) -> Option<Vec<Option<BddRef>>> {
        let mut table: Vec<Option<BddRef>> = vec![None; aig.node_count()];
        table[0] = Some(BddRef::FALSE);
        for (name, id) in aig.inputs() {
            let var = *var_of.get(name.as_str())?;
            table[id.index()] = Some(bdd.var(var)?);
        }
        for latch in aig.latches() {
            let var = *var_of.get(latch.name.as_str())?;
            table[latch.q.index()] = Some(bdd.var(var)?);
        }
        for index in 0..aig.node_count() {
            if table[index].is_some() {
                continue;
            }
            let node = chipforge_synth::NodeId::from_index(index);
            let Some((a, b)) = aig.and_fanins(node) else {
                continue; // unreferenced input already handled or dead
            };
            let fa = lit_bdd(&table, bdd, a)?;
            let fb = lit_bdd(&table, bdd, b)?;
            table[index] = Some(bdd.and(fa, fb)?);
        }
        Some(table)
    }

    let Some(golden_table) = build(golden, &mut bdd, &var_of) else {
        return abort(&bdd, 0);
    };
    let Some(dut_table) = build(dut, &mut bdd, &var_of) else {
        return abort(&bdd, 0);
    };
    let to_check = match compared_pairs(golden, dut) {
        Ok(pairs) => pairs,
        Err(missing) => {
            return EquivalenceResult {
                verdict: Verdict::InterfaceMismatch(missing),
                proven: 0,
                total,
                bdd_nodes: bdd.node_count(),
            }
        }
    };

    let mut proven = 0usize;
    for (name, g_lit, d_lit) in to_check {
        let Some(g) = lit_bdd(&golden_table, &mut bdd, g_lit) else {
            return abort(&bdd, proven);
        };
        let Some(d) = lit_bdd(&dut_table, &mut bdd, d_lit) else {
            return abort(&bdd, proven);
        };
        let Some(diff) = bdd.xor(g, d) else {
            return abort(&bdd, proven);
        };
        if diff != BddRef::FALSE {
            return EquivalenceResult {
                verdict: Verdict::Inequivalent(bdd_counterexample(&bdd, diff, name, names)),
                proven,
                total,
                bdd_nodes: bdd.node_count(),
            };
        }
        proven += 1;
    }
    EquivalenceResult {
        verdict: Verdict::Equivalent,
        proven,
        total,
        bdd_nodes: bdd.node_count(),
    }
}

/// The BDD of a literal whose node is already in `table`.
pub(crate) fn lit_bdd(table: &[Option<BddRef>], bdd: &mut Bdd, lit: Lit) -> Option<BddRef> {
    let base = table[lit.node().index()]?;
    if lit.is_complemented() {
        bdd.not(base)
    } else {
        Some(base)
    }
}

/// The counterexample a non-false difference BDD encodes for `signal`.
pub(crate) fn bdd_counterexample(
    bdd: &Bdd,
    diff: BddRef,
    signal: String,
    names: &[String],
) -> Counterexample {
    let assignment = bdd
        .satisfying_assignment(diff)
        .expect("non-false BDD is satisfiable")
        .into_iter()
        .map(|(var, value)| (names[var as usize].clone(), value))
        .collect();
    Counterexample { signal, assignment }
}

fn split_bit(name: &str) -> (&str, u32) {
    match name.rfind('[') {
        Some(open) => {
            let bit = name[open + 1..name.len() - 1].parse().unwrap_or(0);
            (&name[..open], bit)
        }
        None => (name, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge_hdl::{designs, parse};
    use chipforge_netlist::CellFunction;
    use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};
    use chipforge_synth::{synthesize, SynthOptions};

    fn lib() -> StdCellLibrary {
        StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open)
    }

    #[test]
    fn synthesized_suite_is_formally_equivalent() {
        let lib = lib();
        for design in designs::suite() {
            let module = design.elaborate().unwrap();
            let netlist = synthesize(&module, &lib, &SynthOptions::default())
                .unwrap()
                .netlist;
            let result = check_equivalence(&module, &netlist, 2_000_000);
            assert_eq!(result.verdict, Verdict::Equivalent, "{}", design.name());
            assert_eq!(result.proven, result.total, "{}", design.name());
        }
    }

    #[test]
    fn detects_a_wrong_gate_with_counterexample() {
        let module = parse("module m() { input a; input b; output y; assign y = a & b; }").unwrap();
        let mut bad = Netlist::new("m");
        let a = bad.add_input("a[0]");
        let b = bad.add_input("b[0]");
        let y = bad.add_net("y");
        bad.add_cell("u", CellFunction::Or2, "OR2_X1", &[a, b], y)
            .unwrap();
        bad.mark_output("y[0]", y).unwrap();
        let result = check_equivalence(&module, &bad, 100_000);
        match result.verdict {
            Verdict::Inequivalent(cex) => {
                assert_eq!(cex.signal, "y[0]");
                // AND and OR differ exactly when inputs differ: the
                // counterexample must set exactly one of a/b.
                let ones = cex.assignment.iter().filter(|(_, v)| *v).count();
                assert_eq!(ones, 1, "{:?}", cex.assignment);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_is_reported() {
        let module = parse("module m() { input a; output y; assign y = a; }").unwrap();
        let mut incomplete = Netlist::new("m");
        let a = incomplete.add_input("a[0]");
        let w = incomplete.add_net("w");
        incomplete
            .add_cell("u", CellFunction::Buf, "BUF_X1", &[a], w)
            .unwrap();
        incomplete.mark_output("z[0]", w).unwrap();
        let result = check_equivalence(&module, &incomplete, 100_000);
        assert!(matches!(result.verdict, Verdict::InterfaceMismatch(_)));
    }

    /// An 8×8 multiplier as rows of partial products summed by ripple
    /// adders, the rows taken along `b` or along `a` and the carries
    /// written as majority or as generate/propagate. Two such AIGs share
    /// little past the partial products, so the sweep leaves product bits
    /// open for the cone BDDs.
    fn multiplier_aig(along_b: bool, majority_carry: bool) -> Aig {
        let mut aig = Aig::new("mul8");
        let a: Vec<Lit> = (0..8).map(|i| aig.add_input(format!("a[{i}]"))).collect();
        let b: Vec<Lit> = (0..8).map(|i| aig.add_input(format!("b[{i}]"))).collect();
        let (rows, cols) = if along_b { (&b, &a) } else { (&a, &b) };
        let mut acc = [Lit::FALSE; 16];
        for (shift, &row) in rows.iter().enumerate() {
            let mut carry = Lit::FALSE;
            for (offset, sum) in acc[shift..].iter_mut().enumerate() {
                let partial = match cols.get(offset) {
                    Some(&col) => aig.and(row, col),
                    None => Lit::FALSE,
                };
                let x = *sum;
                let half = aig.xor(x, partial);
                *sum = aig.xor(half, carry);
                carry = if majority_carry {
                    let xy = aig.and(x, partial);
                    let xc = aig.and(x, carry);
                    let yc = aig.and(partial, carry);
                    let either = aig.or(xy, xc);
                    aig.or(either, yc)
                } else {
                    let generate = aig.and(x, partial);
                    let propagate = aig.and(half, carry);
                    aig.or(generate, propagate)
                };
            }
        }
        for (bit, &lit) in acc.iter().enumerate() {
            aig.add_output(format!("p[{bit}]"), lit);
        }
        aig
    }

    #[test]
    fn tiny_budget_aborts_gracefully() {
        let golden = multiplier_aig(false, false);
        let dut = multiplier_aig(true, true);
        let result = check_aig_equivalence(&golden, &dut, 50);
        assert_eq!(result.verdict, Verdict::Aborted);
        assert!(result.bdd_nodes <= 50);
        assert!(result.proven < result.total);
        // The same pair with room to spare is proven.
        let full = check_aig_equivalence(&golden, &dut, 2_000_000);
        assert_eq!(full.verdict, Verdict::Equivalent);
    }

    #[test]
    fn sequential_equivalence_covers_next_state() {
        // A counter with a deliberately broken next-state: off by an
        // enable inversion.
        let good = designs::counter(4).elaborate().unwrap();
        let lib = lib();
        let netlist = synthesize(&good, &lib, &SynthOptions::default())
            .unwrap()
            .netlist;
        let ok = check_equivalence(&good, &netlist, 500_000);
        assert_eq!(ok.verdict, Verdict::Equivalent);
        assert_eq!(ok.total, 4 /* outputs */ + 4 /* states */);

        let broken = parse(
            "module counter4() { input rst; input en; output [3:0] count; reg [3:0] count; \
             always { if (rst) { count <= 0; } else if (!en) { count <= count + 1; } } }",
        )
        .unwrap();
        let bad = check_equivalence(&broken, &netlist, 500_000);
        assert!(matches!(bad.verdict, Verdict::Inequivalent(_)));
    }
}
