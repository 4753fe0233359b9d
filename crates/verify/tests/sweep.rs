//! Soundness of the staged prover.
//!
//! Seeded one-cell mutants of the two designs the whole-AIG BDDs cannot
//! hold (`dsp/fir` w16, `cpu/ctrl` w32) must be refuted, each with a
//! counterexample that replays through both AIGs; and on small designs
//! across the generator's knob space, forcing the sweep by starving the
//! whole-AIG stage must never contradict what that stage decides with
//! room to spare.

use chipforge_hdl::RtlModule;
use chipforge_netlist::{CellFunction, CellId, NetId, Netlist};
use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};
use chipforge_synth::{lower::lower_to_aig, synthesize, Aig, SynthOptions};
use chipforge_verify::{check_equivalence, netlist_to_aig, Counterexample, Verdict};
use std::collections::HashMap;

/// Signoff's node budget.
const SIGNOFF_BUDGET: usize = 500_000;

fn synthesized(spec: &str) -> (RtlModule, Netlist) {
    let design = chipforge_gen::resolve(spec).expect("spec resolves");
    let module = design.elaborate().expect("elaborates");
    let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
    let netlist = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synthesizes")
        .netlist;
    (module, netlist)
}

#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// AND2 becomes OR2 or the other way round.
    FlipAndOr,
    /// An inverter becomes a buffer.
    DropInverter,
    /// A MUX2's two data pins trade places.
    SwapMuxData,
}

impl Mutation {
    fn applies_to(self, function: CellFunction) -> bool {
        match self {
            Mutation::FlipAndOr => matches!(function, CellFunction::And2 | CellFunction::Or2),
            Mutation::DropInverter => function == CellFunction::Inv,
            Mutation::SwapMuxData => function == CellFunction::Mux2,
        }
    }
}

/// `netlist` rebuilt cell by cell, with `target` mutated.
fn mutant(netlist: &Netlist, target: CellId, mutation: Mutation) -> Netlist {
    let mut out = Netlist::new(netlist.name());
    let mut map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for (port, net) in netlist.inputs() {
        map[net.index()] = Some(out.add_input(port.clone()));
    }
    for net in netlist.nets() {
        if map[net.id().index()].is_none() {
            map[net.id().index()] = Some(out.add_net(net.name()));
        }
    }
    let net = |id: NetId| map[id.index()].expect("every net is mapped");
    for cell in netlist.cells() {
        let mut function = cell.function();
        let mut lib_cell = cell.lib_cell().to_string();
        let mut inputs: Vec<NetId> = cell.inputs().iter().map(|&n| net(n)).collect();
        if cell.id() == target {
            match (mutation, function) {
                (Mutation::FlipAndOr, CellFunction::And2) => {
                    function = CellFunction::Or2;
                    lib_cell = lib_cell.replacen("AND2", "OR2", 1);
                }
                (Mutation::FlipAndOr, CellFunction::Or2) => {
                    function = CellFunction::And2;
                    lib_cell = lib_cell.replacen("OR2", "AND2", 1);
                }
                (Mutation::DropInverter, CellFunction::Inv) => {
                    function = CellFunction::Buf;
                    lib_cell = lib_cell.replacen("INV", "BUF", 1);
                }
                (Mutation::SwapMuxData, CellFunction::Mux2) => inputs.swap(0, 1),
                other => unreachable!("{other:?} is not a mutation site"),
            }
        }
        out.add_cell(cell.name(), function, lib_cell, &inputs, net(cell.output()))
            .expect("a one-cell mutation keeps the netlist well formed");
    }
    for (port, id) in netlist.outputs() {
        out.mark_output(port.clone(), net(*id))
            .expect("output nets exist");
    }
    out
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An oracle independent of this crate: the netlists' own 64-lane
/// evaluators, on random inputs and flip-flop states, see an output or a
/// next state differ.
fn simulation_tells_apart(a: &Netlist, b: &Netlist, seed: u64) -> bool {
    let mut state = seed;
    for _ in 0..16 {
        let inputs: Vec<u64> = a.inputs().iter().map(|_| splitmix64(&mut state)).collect();
        let flops: HashMap<CellId, u64> = a
            .cells()
            .filter(|c| c.is_sequential())
            .map(|c| (c.id(), splitmix64(&mut state)))
            .collect();
        let va = a.eval_combinational64(&inputs, &flops).expect("acyclic");
        let vb = b.eval_combinational64(&inputs, &flops).expect("acyclic");
        let outputs_differ = a
            .outputs()
            .iter()
            .zip(b.outputs())
            .any(|((_, na), (_, nb))| va[na.index()] != vb[nb.index()]);
        if outputs_differ || a.next_state64(&va, &flops) != b.next_state64(&vb, &flops) {
            return true;
        }
    }
    false
}

/// The value `signal` (an output name or `next(<state bit>)`) takes in
/// `aig` under the counterexample; unlisted bits are false.
fn replay(aig: &Aig, cex: &Counterexample) -> bool {
    let value: HashMap<&str, bool> = cex
        .assignment
        .iter()
        .map(|(name, v)| (name.as_str(), *v))
        .collect();
    let get = |name: &str| value.get(name).copied().unwrap_or(false);
    let inputs: Vec<bool> = aig.inputs().iter().map(|(n, _)| get(n)).collect();
    let latches: Vec<bool> = aig.latches().iter().map(|l| get(&l.name)).collect();
    let values = aig.simulate(&inputs, &latches);
    let lit = match cex
        .signal
        .strip_prefix("next(")
        .and_then(|s| s.strip_suffix(')'))
    {
        Some(state) => {
            aig.latches()
                .iter()
                .find(|l| l.name == state)
                .expect("the state bit exists")
                .d
        }
        None => {
            aig.outputs()
                .iter()
                .find(|(n, _)| *n == cex.signal)
                .expect("the output exists")
                .1
        }
    };
    Aig::lit_value(&values, lit)
}

/// Asserts `verdict` refutes `netlist` against `module` with a
/// counterexample on which the two AIGs really differ.
fn assert_replayable_refutation(
    module: &RtlModule,
    netlist: &Netlist,
    verdict: &Verdict,
    what: &str,
) {
    let Verdict::Inequivalent(cex) = verdict else {
        panic!("{what}: expected a refutation, got {verdict:?}");
    };
    let golden = lower_to_aig(module);
    let dut = netlist_to_aig(netlist).expect("mutants stay valid");
    assert_ne!(
        replay(&golden, cex),
        replay(&dut, cex),
        "{what}: the counterexample on `{}` does not replay",
        cex.signal
    );
}

#[test]
fn seeded_mutants_of_the_sweep_designs_are_refuted_with_replayable_counterexamples() {
    let mut refuted_by_kind = [0usize; 3];
    for spec in [
        "gen:dsp/fir?width=16&depth=4&unroll=1&seed=1",
        "gen:cpu/ctrl?width=32&depth=8&unroll=4&seed=1",
    ] {
        let (module, netlist) = synthesized(spec);
        let clean = check_equivalence(&module, &netlist, SIGNOFF_BUDGET);
        assert_eq!(clean.verdict, Verdict::Equivalent, "{spec}");
        assert_eq!(clean.proven, clean.total, "{spec}");
        assert_eq!(
            clean.bdd_nodes,
            SIGNOFF_BUDGET / 16,
            "{spec}: the whole-AIG stage runs out, the sweep proves it"
        );

        for (kind, mutation) in [
            Mutation::FlipAndOr,
            Mutation::DropInverter,
            Mutation::SwapMuxData,
        ]
        .into_iter()
        .enumerate()
        {
            let sites: Vec<CellId> = netlist
                .cells()
                .filter(|c| mutation.applies_to(c.function()))
                .map(|c| c.id())
                .collect();
            if sites.is_empty() {
                continue; // e.g. the FIR maps no multiplexer
            }
            let mut refuted = 0;
            for seed in 1..=24u64 {
                if refuted == 2 {
                    break;
                }
                let mut state = seed;
                let site = sites[(splitmix64(&mut state) % sites.len() as u64) as usize];
                let bad = mutant(&netlist, site, mutation);
                if !simulation_tells_apart(&netlist, &bad, seed) {
                    continue; // maybe a mutation nothing can observe
                }
                let what = format!("{spec} {mutation:?} seed {seed}");
                let result = check_equivalence(&module, &bad, SIGNOFF_BUDGET);
                assert_replayable_refutation(&module, &bad, &result.verdict, &what);
                refuted += 1;
            }
            assert_eq!(
                refuted, 2,
                "{spec}: too few observable {mutation:?} mutants"
            );
            refuted_by_kind[kind] += refuted;
        }
    }
    assert!(
        refuted_by_kind.iter().all(|&n| n > 0),
        "{refuted_by_kind:?}"
    );
}

#[test]
fn a_starved_whole_aig_stage_never_changes_a_decided_verdict() {
    let mut checked = 0;
    for family in [
        "cpu/ctrl",
        "dsp/fir",
        "dsp/fft",
        "crypto/round",
        "noc/router",
    ] {
        for (width, depth, unroll, seed) in [(4, 1, 1, 1), (6, 2, 1, 2), (5, 1, 2, 3)] {
            let spec =
                format!("gen:{family}?width={width}&depth={depth}&unroll={unroll}&seed={seed}");
            let (module, netlist) = synthesized(&spec);
            let site = netlist
                .cells()
                .filter(|c| Mutation::FlipAndOr.applies_to(c.function()))
                .nth(seed)
                .map(|c| c.id());
            let mutated = site.map(|site| mutant(&netlist, site, Mutation::FlipAndOr));
            for (what, dut) in [("netlist", Some(&netlist)), ("mutant", mutated.as_ref())] {
                let Some(dut) = dut else { continue };
                let full = check_equivalence(&module, dut, SIGNOFF_BUDGET);
                if full.verdict == Verdict::Aborted {
                    continue;
                }
                // Half the nodes the whole-AIG stage needed: it runs out,
                // and the sweep and the cone BDDs decide instead.
                let starved = check_equivalence(&module, dut, 16 * (full.bdd_nodes / 2));
                let what = format!("{spec} {what}");
                match (&full.verdict, &starved.verdict) {
                    (Verdict::Equivalent, Verdict::Equivalent) => {
                        assert_eq!(starved.proven, starved.total, "{what}");
                    }
                    (Verdict::Inequivalent(_), Verdict::Inequivalent(_)) => {
                        assert_replayable_refutation(&module, dut, &starved.verdict, &what);
                    }
                    (full, starved) => {
                        panic!("{what}: {full:?} at full budget, {starved:?} starved")
                    }
                }
                checked += 1;
            }
        }
    }
    assert!(checked >= 25, "only {checked} verdicts compared");
}
