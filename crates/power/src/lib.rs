//! # chipforge-power
//!
//! Switching-activity propagation and power estimation.
//!
//! The estimator computes, for every net, a static signal probability and a
//! transition density (toggles per clock cycle), propagating from primary
//! inputs through the combinational network under the usual spatial
//! independence assumption. Transition densities use the Boolean-difference
//! formulation: the output toggles when an input toggles *and* the function
//! is sensitive to that input. Sequential feedback is iterated over the
//! flip-flop boundary for at most 12 rounds (see below).
//!
//! Power combines:
//!
//! * **switching** — `½ · C · V² · f · α` per driven net (cell internal +
//!   wire + sink pin capacitance);
//! * **clock tree** — every flip-flop clock pin toggles twice per cycle;
//! * **leakage** — per-cell static power from the library.
//!
//! ## Example
//!
//! ```
//! use chipforge_hdl::designs;
//! use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};
//! use chipforge_synth::{synthesize, SynthOptions};
//! use chipforge_power::{estimate, PowerOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = designs::counter(8).elaborate()?;
//! let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
//! let netlist = synthesize(&module, &lib, &SynthOptions::default())?.netlist;
//! let report = estimate(&netlist, &lib, &PowerOptions::new(100.0))?;
//! assert!(report.total_uw() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Sequential feedback
//!
//! Register outputs start at p = 0.5 with no activity. Each round
//! propagates through the combinational network, then samples every
//! register's D pin in cell order, in place. The iteration stops after a
//! round in which no register's probability or activity moved by more
//! than 1e-9, or after 12 rounds, whichever comes first. The cap is hit
//! in practice and the result is then *not* a fixed point: on the 18
//! `flow_cold` benchmark designs (post-route, 130 nm, 50 MHz) the ten
//! feed-forward ones (`dsp/fir`, `dsp/fft`, `crypto/round`) settle in two
//! rounds, but every `cpu/ctrl` and `noc/router` design stops at the cap
//! with a largest per-register change in the last round of 7e-4 to
//! 3.6e-3 (`noc/router`), 1.0e-2 (`cpu/ctrl` w16 d4) and ≈ 0.1
//! (`cpu/ctrl` w32 d8 u4).
//!
//! After the first round only the cells with an input whose bits changed
//! since their last evaluation are evaluated again, so a round costs the
//! fan-out cones of the registers that moved. Each evaluation does the
//! same floating-point operations in the same order as a full sweep, so
//! the report does not depend on how much was skipped.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use chipforge_netlist::{CellFunction, CellId, NetId, Netlist, NetlistError};
use chipforge_pdk::{LibCell, StdCellLibrary};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Options for [`estimate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerOptions {
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Static one-probability assumed for primary inputs.
    pub input_probability: f64,
    /// Toggle rate of primary inputs, in transitions per cycle.
    pub input_activity: f64,
    /// Per-net wire capacitance in fF (e.g. from routing back-annotation).
    pub net_wire_cap_ff: HashMap<NetId, f64>,
}

impl PowerOptions {
    /// Creates options for a clock frequency with default activity
    /// (p = 0.5, 0.25 toggles per cycle — uniformly random data every
    /// other cycle).
    #[must_use]
    pub fn new(clock_mhz: f64) -> Self {
        Self {
            clock_mhz,
            input_probability: 0.5,
            input_activity: 0.25,
            net_wire_cap_ff: HashMap::new(),
        }
    }
}

/// Power estimation result. All values in µW.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Combinational + register data switching power, µW.
    pub switching_uw: f64,
    /// Clock-tree (flip-flop clock pin) power, µW.
    pub clock_uw: f64,
    /// Static leakage, µW.
    pub leakage_uw: f64,
    /// Per-net toggle rates (transitions per cycle), sorted by net id.
    /// A sorted vec rather than a map so the report serializes
    /// deterministically and roundtrips through JSON (integer map keys
    /// do not survive JSON object keys).
    pub net_activity: Vec<(NetId, f64)>,
}

impl PowerReport {
    /// Total power in µW.
    #[must_use]
    pub fn total_uw(&self) -> f64 {
        self.switching_uw + self.clock_uw + self.leakage_uw
    }

    /// Dynamic (switching + clock) power in µW.
    #[must_use]
    pub fn dynamic_uw(&self) -> f64 {
        self.switching_uw + self.clock_uw
    }
}

/// Errors from power estimation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PowerError {
    /// A cell references a library cell missing from the library.
    UnknownLibCell(String),
    /// The netlist is invalid.
    Netlist(NetlistError),
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::UnknownLibCell(name) => write!(f, "unknown library cell `{name}`"),
            PowerError::Netlist(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl Error for PowerError {}

impl From<NetlistError> for PowerError {
    fn from(e: NetlistError) -> Self {
        PowerError::Netlist(e)
    }
}

/// Cap on the rounds of the iteration over the flip-flop boundary.
const MAX_ROUNDS: usize = 12;

/// Largest change of a register's probability or activity in a round
/// that still counts as converged.
const TOLERANCE: f64 = 1e-9;

/// A combinational function as a truth table: bit `pattern` of `table` is
/// the output for the input pattern whose bit `i` is input `i`.
#[derive(Debug, Clone, Copy)]
struct Gate {
    table: u8,
    inputs: usize,
}

impl From<CellFunction> for Gate {
    fn from(function: CellFunction) -> Self {
        let inputs = function.input_count();
        let mut table = 0u8;
        for pattern in 0..1u8 << inputs {
            let bits = [pattern & 1 != 0, pattern & 2 != 0, pattern & 4 != 0];
            if function.eval(&bits[..inputs]) {
                table |= 1 << pattern;
            }
        }
        Gate { table, inputs }
    }
}

/// Static output probability of a function given input one-probabilities,
/// and the per-input Boolean-difference sensitivities (the first
/// `p_in.len()` entries).
fn gate_statistics(gate: impl Into<Gate>, p_in: &[f64]) -> (f64, [f64; 3]) {
    let Gate { table, inputs } = gate.into();
    debug_assert_eq!(p_in.len(), inputs);
    // One copy per input count, so the pattern loops have fixed bounds.
    match *p_in {
        [a] => pattern_statistics(table, [a]),
        [a, b] => pattern_statistics(table, [a, b]),
        [a, b, c] => pattern_statistics(table, [a, b, c]),
        _ => unreachable!("constants are not evaluated and no gate has more than 3 inputs"),
    }
}

fn pattern_statistics<const N: usize>(table: u8, p_in: [f64; N]) -> (f64, [f64; 3]) {
    let mut p_out = 0.0;
    let mut sensitivity = [0.0; 3];
    // Enumerate all input patterns.
    for pattern in 0..1usize << N {
        let mut factor = [0.0; N];
        for (i, f) in factor.iter_mut().enumerate() {
            *f = if (pattern >> i) & 1 == 1 {
                p_in[i]
            } else {
                1.0 - p_in[i]
            };
        }
        let prob: f64 = factor.iter().product();
        let out = (table >> pattern) & 1;
        if out == 1 {
            p_out += prob;
        }
        // Sensitivity of input i: f flips when i flips, weighted by the
        // probability of the *other* inputs.
        for (i, s) in sensitivity[..N].iter_mut().enumerate() {
            if (table >> (pattern ^ (1 << i))) & 1 != out {
                let others: f64 = factor
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, f)| f)
                    .product();
                // Each pattern counted once per polarity of input i; halve.
                *s += others * 0.5;
            }
        }
    }
    (p_out, sensitivity)
}

/// Per-net signal probability and toggle rate, propagated to the fixed
/// point (or the round cap).
struct Activity<'a> {
    netlist: &'a Netlist,
    prob: Vec<f64>,
    activity: Vec<f64>,
    /// Per cell: an input changed since the cell was last evaluated.
    dirty: Vec<bool>,
}

impl Activity<'_> {
    /// Stores a net's value; if its bits changed, marks its sinks dirty.
    fn set(&mut self, net: NetId, p: f64, a: f64) {
        let i = net.index();
        if self.prob[i].to_bits() != p.to_bits() || self.activity[i].to_bits() != a.to_bits() {
            self.prob[i] = p;
            self.activity[i] = a;
            for &(sink, _) in self.netlist.net(net).sinks() {
                self.dirty[sink.index()] = true;
            }
        }
    }
}

/// Propagates probabilities and activities from the primary inputs
/// through the combinational network, then across the registers, until
/// no register moves by more than [`TOLERANCE`] or [`MAX_ROUNDS`] pass.
///
/// Each round evaluates only the combinational cells with a dirty input,
/// in topological order, so a round does exactly the arithmetic of a full
/// re-evaluation minus the cells whose inputs kept their bits.
fn propagate(netlist: &Netlist, order: &[CellId], options: &PowerOptions) -> Vec<f64> {
    let n_nets = netlist.net_count();
    let mut state = Activity {
        netlist,
        prob: vec![0.5; n_nets],
        activity: vec![0.0; n_nets],
        dirty: vec![true; netlist.cell_count()],
    };
    for (_, net) in netlist.inputs() {
        state.prob[net.index()] = options.input_probability;
        state.activity[net.index()] = options.input_activity;
    }
    // Constants seed the combinational evaluation.
    for cell in netlist.cells() {
        match cell.function() {
            CellFunction::Const0 => state.set(cell.output(), 0.0, 0.0),
            CellFunction::Const1 => state.set(cell.output(), 1.0, 0.0),
            _ => {}
        }
    }
    let gates: Vec<(CellId, Gate)> = order
        .iter()
        .map(|&id| (id, Gate::from(netlist.cell(id).function())))
        .filter(|(_, gate)| gate.inputs > 0)
        .collect();

    for _ in 0..MAX_ROUNDS {
        for &(id, gate) in &gates {
            if !std::mem::take(&mut state.dirty[id.index()]) {
                continue;
            }
            let cell = netlist.cell(id);
            let inputs = cell.inputs();
            let mut p_in = [0.0; 3];
            for (p, n) in p_in.iter_mut().zip(inputs) {
                *p = state.prob[n.index()];
            }
            let (p_out, sens) = gate_statistics(gate, &p_in[..inputs.len()]);
            let a_out: f64 = inputs
                .iter()
                .zip(sens.iter())
                .map(|(n, s)| state.activity[n.index()] * s)
                .sum();
            state.set(cell.output(), p_out, a_out.min(1.0));
        }
        // Registers: sampled D (DFFE: gated by enable probability), in
        // cell order and in place, so a register fed by another reads the
        // value that one took this round.
        let mut changed = false;
        for cell in netlist.cells() {
            let (prob, out) = (&state.prob, cell.output().index());
            let (new_p, new_a) = match cell.function() {
                CellFunction::Dff => {
                    let d = cell.inputs()[0];
                    (
                        prob[d.index()],
                        (2.0 * prob[d.index()] * (1.0 - prob[d.index()])).min(1.0),
                    )
                }
                CellFunction::DffEn => {
                    let d = cell.inputs()[0];
                    let en = cell.inputs()[1];
                    let p_en = prob[en.index()];
                    let p_d = prob[d.index()];
                    (
                        p_d * p_en + prob[out] * (1.0 - p_en),
                        (2.0 * p_d * (1.0 - p_d) * p_en).min(1.0),
                    )
                }
                _ => continue,
            };
            if (prob[out] - new_p).abs() > TOLERANCE
                || (state.activity[out] - new_a).abs() > TOLERANCE
            {
                changed = true;
            }
            // Any change of bits, even below the tolerance, is propagated
            // by the next round.
            state.set(cell.output(), new_p, new_a);
        }
        if !changed {
            break;
        }
    }
    state.activity
}

/// Estimates power for a mapped netlist.
///
/// # Errors
///
/// Returns [`PowerError::UnknownLibCell`] or [`PowerError::Netlist`].
pub fn estimate(
    netlist: &Netlist,
    lib: &StdCellLibrary,
    options: &PowerOptions,
) -> Result<PowerReport, PowerError> {
    let order = netlist.combinational_order()?;
    let activity = propagate(netlist, &order, options);

    // --- power accounting ---
    let lib_cells: Vec<Option<&LibCell>> =
        netlist.cells().map(|c| lib.cell(c.lib_cell())).collect();
    let lib_cell = |id: CellId| {
        lib_cells[id.index()]
            .ok_or_else(|| PowerError::UnknownLibCell(netlist.cell(id).lib_cell().to_string()))
    };
    let vdd = lib.node().supply_v();
    let f_hz = options.clock_mhz * 1e6;
    let mut switching_w = 0.0;
    let mut clock_w = 0.0;
    let mut leakage_w = 0.0;
    for cell in netlist.cells() {
        let own = lib_cell(cell.id())?;
        leakage_w += own.leakage_nw() * 1e-9;
        // Load on the output net: sink pins + wire.
        let out = cell.output();
        let mut load_ff = options.net_wire_cap_ff.get(&out).copied().unwrap_or(0.0);
        for &(sink, _) in netlist.net(out).sinks() {
            load_ff += lib_cell(sink)?.input_cap_ff();
        }
        let internal_ff = own.input_cap_ff() * 0.5;
        let c_total = (load_ff + internal_ff) * 1e-15;
        switching_w += 0.5 * c_total * vdd * vdd * f_hz * activity[out.index()];
        if cell.is_sequential() {
            // Clock pin: full swing twice per cycle -> alpha = 2 on C_clk.
            let c_clk = own.input_cap_ff() * 0.4 * 1e-15;
            clock_w += c_clk * vdd * vdd * f_hz;
        }
    }

    let mut net_activity: Vec<(NetId, f64)> = netlist
        .nets()
        .map(|n| (n.id(), activity[n.id().index()]))
        .collect();
    net_activity.sort_by_key(|(id, _)| *id);
    Ok(PowerReport {
        switching_uw: switching_w * 1e6,
        clock_uw: clock_w * 1e6,
        leakage_uw: leakage_w * 1e6,
        net_activity,
    })
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge_hdl::designs;
    use chipforge_pdk::{LibraryKind, TechnologyNode};
    use chipforge_synth::{synthesize, SynthOptions};

    fn lib() -> StdCellLibrary {
        StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open)
    }

    fn netlist_of(design: chipforge_hdl::designs::Design) -> Netlist {
        let module = design.elaborate().unwrap();
        synthesize(&module, &lib(), &SynthOptions::default())
            .unwrap()
            .netlist
    }

    #[test]
    fn gate_statistics_match_theory() {
        // AND of two p=0.5 inputs: p_out = 0.25, sensitivity = p(other=1) = 0.5.
        let (p, s) = gate_statistics(CellFunction::And2, &[0.5, 0.5]);
        assert!((p - 0.25).abs() < 1e-12);
        assert!((s[0] - 0.5).abs() < 1e-12);
        // XOR is always sensitive.
        let (p, s) = gate_statistics(CellFunction::Xor2, &[0.5, 0.5]);
        assert!((p - 0.5).abs() < 1e-12);
        assert!((s[0] - 1.0).abs() < 1e-12);
        // Inverter passes probability through complemented.
        let (p, s) = gate_statistics(CellFunction::Inv, &[0.3]);
        assert!((p - 0.7).abs() < 1e-12);
        assert!((s[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truth_tables_match_eval() {
        for function in CellFunction::ALL {
            let n = function.input_count();
            if n == 0 {
                continue;
            }
            let gate = Gate::from(function);
            assert_eq!(gate.inputs, n);
            for pattern in 0..1usize << n {
                let inputs: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
                assert_eq!(
                    (gate.table >> pattern) & 1 == 1,
                    function.eval(&inputs),
                    "{function} on pattern {pattern:03b}"
                );
            }
            assert_eq!(u32::from(gate.table) >> (1 << n), 0, "{function}");
        }
    }

    #[test]
    fn unknown_lib_cells_are_reported_by_name() {
        let reported = |nl: &Netlist, name: &str| {
            let expected = Err(PowerError::UnknownLibCell(name.into()));
            let options = PowerOptions::new(100.0);
            assert_eq!(estimate(nl, &lib(), &options), expected);
            assert_eq!(reference::estimate(nl, &lib(), &options), expected);
        };
        let mut nl = Netlist::new("unknown");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_cell("u1", CellFunction::Inv, "NO_SUCH_INV", &[a], y)
            .unwrap();
        nl.mark_output("y", y).unwrap();
        reported(&nl, "NO_SUCH_INV");

        // A known driver's unknown sink is found before a later unknown
        // driver, as the accounting loop visits them.
        let mut nl = Netlist::new("unknown_sink");
        let a = nl.add_input("a");
        let (mid, y, q) = (nl.add_net("mid"), nl.add_net("y"), nl.add_net("q"));
        nl.add_cell("u1", CellFunction::Inv, "INV_X1", &[a], mid)
            .unwrap();
        nl.add_cell("u2", CellFunction::Inv, "NO_SUCH_INV", &[a], y)
            .unwrap();
        nl.add_cell("ff", CellFunction::Dff, "NO_SUCH_DFF", &[mid], q)
            .unwrap();
        nl.mark_output("y", y).unwrap();
        nl.mark_output("q", q).unwrap();
        reported(&nl, "NO_SUCH_DFF");
    }

    #[test]
    fn power_scales_linearly_with_frequency() {
        let netlist = netlist_of(designs::counter(8));
        let lib = lib();
        let p100 = estimate(&netlist, &lib, &PowerOptions::new(100.0)).unwrap();
        let p200 = estimate(&netlist, &lib, &PowerOptions::new(200.0)).unwrap();
        let ratio = p200.dynamic_uw() / p100.dynamic_uw();
        assert!((ratio - 2.0).abs() < 1e-6, "ratio {ratio}");
        assert!(
            (p200.leakage_uw - p100.leakage_uw).abs() < 1e-12,
            "leakage is static"
        );
    }

    #[test]
    fn idle_inputs_reduce_switching() {
        let netlist = netlist_of(designs::alu(8));
        let lib = lib();
        let active = estimate(&netlist, &lib, &PowerOptions::new(100.0)).unwrap();
        let mut idle_opts = PowerOptions::new(100.0);
        idle_opts.input_activity = 0.0;
        let idle = estimate(&netlist, &lib, &idle_opts).unwrap();
        assert!(idle.switching_uw < active.switching_uw * 0.2);
        assert!(
            (idle.clock_uw - active.clock_uw).abs() < 1e-12,
            "clock never gates"
        );
    }

    #[test]
    fn bigger_designs_burn_more_power() {
        let lib = lib();
        let small = estimate(
            &netlist_of(designs::counter(8)),
            &lib,
            &PowerOptions::new(100.0),
        )
        .unwrap();
        let big = estimate(
            &netlist_of(designs::fir4(8)),
            &lib,
            &PowerOptions::new(100.0),
        )
        .unwrap();
        assert!(big.total_uw() > small.total_uw());
    }

    #[test]
    fn leakage_grows_at_advanced_nodes() {
        let module = designs::counter(8).elaborate().unwrap();
        let lib130 = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
        let lib28 = StdCellLibrary::generate(TechnologyNode::N28, LibraryKind::Commercial);
        let nl130 = synthesize(&module, &lib130, &SynthOptions::default())
            .unwrap()
            .netlist;
        let nl28 = synthesize(&module, &lib28, &SynthOptions::default())
            .unwrap()
            .netlist;
        let p130 = estimate(&nl130, &lib130, &PowerOptions::new(100.0)).unwrap();
        let p28 = estimate(&nl28, &lib28, &PowerOptions::new(100.0)).unwrap();
        assert!(p28.leakage_uw > p130.leakage_uw * 10.0);
    }

    #[test]
    fn wire_caps_increase_switching_power() {
        let netlist = netlist_of(designs::counter(8));
        let lib = lib();
        let base = estimate(&netlist, &lib, &PowerOptions::new(100.0)).unwrap();
        let mut opts = PowerOptions::new(100.0);
        for net in netlist.nets() {
            opts.net_wire_cap_ff.insert(net.id(), 20.0);
        }
        let loaded = estimate(&netlist, &lib, &opts).unwrap();
        assert!(loaded.switching_uw > base.switching_uw);
    }

    #[test]
    fn activities_are_bounded() {
        let netlist = netlist_of(designs::fir4(8));
        let lib = lib();
        let report = estimate(&netlist, &lib, &PowerOptions::new(100.0)).unwrap();
        for (_, a) in &report.net_activity {
            assert!((0.0..=1.0).contains(a), "activity {a}");
        }
    }
}
