//! The straightforward estimator, the bit-identity oracle for
//! [`crate::estimate`]: every round re-evaluates every combinational cell
//! from freshly allocated pattern vectors, and the accounting loop looks
//! each library cell up by name. `crate::estimate` must report the same
//! bits with neither.

use crate::{PowerError, PowerOptions, PowerReport};
use chipforge_netlist::{CellFunction, NetId, Netlist};
use chipforge_pdk::StdCellLibrary;

/// Static output probability of a function given input one-probabilities,
/// and the per-input Boolean-difference sensitivities.
fn gate_statistics(function: CellFunction, p_in: &[f64]) -> (f64, Vec<f64>) {
    let n = function.input_count();
    debug_assert_eq!(p_in.len(), n);
    let mut p_out = 0.0;
    let mut sensitivity = vec![0.0; n];
    // Enumerate all input patterns (n <= 3).
    for pattern in 0u32..(1 << n) {
        let inputs: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
        let prob: f64 = inputs
            .iter()
            .enumerate()
            .map(|(i, &b)| if b { p_in[i] } else { 1.0 - p_in[i] })
            .product();
        let out = function.eval(&inputs);
        if out {
            p_out += prob;
        }
        // Sensitivity of input i: f flips when i flips, weighted by the
        // probability of the *other* inputs.
        for i in 0..n {
            let mut flipped = inputs.clone();
            flipped[i] = !flipped[i];
            if function.eval(&flipped) != out {
                let others: f64 = inputs
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(j, &b)| if b { p_in[j] } else { 1.0 - p_in[j] })
                    .product();
                // Each pattern counted once per polarity of input i; halve.
                sensitivity[i] += others * 0.5;
            }
        }
    }
    (p_out, sensitivity)
}

/// Estimates power for a mapped netlist, as the crate did before.
pub(crate) fn estimate(
    netlist: &Netlist,
    lib: &StdCellLibrary,
    options: &PowerOptions,
) -> Result<PowerReport, PowerError> {
    let order = netlist.combinational_order()?;
    let n_nets = netlist.net_count();
    let mut prob = vec![0.5f64; n_nets];
    let mut activity = vec![0.0f64; n_nets];

    for (_, net) in netlist.inputs() {
        prob[net.index()] = options.input_probability;
        activity[net.index()] = options.input_activity;
    }
    // Fixed-point over the sequential boundary.
    for _ in 0..12 {
        // Constants and registers seed the combinational evaluation.
        for cell in netlist.cells() {
            match cell.function() {
                CellFunction::Const0 => {
                    prob[cell.output().index()] = 0.0;
                    activity[cell.output().index()] = 0.0;
                }
                CellFunction::Const1 => {
                    prob[cell.output().index()] = 1.0;
                    activity[cell.output().index()] = 0.0;
                }
                _ => {}
            }
        }
        for &id in &order {
            let cell = netlist.cell(id);
            if cell.function().is_constant() {
                continue;
            }
            let p_in: Vec<f64> = cell.inputs().iter().map(|n| prob[n.index()]).collect();
            let (p_out, sens) = gate_statistics(cell.function(), &p_in);
            let a_out: f64 = cell
                .inputs()
                .iter()
                .zip(sens.iter())
                .map(|(n, s)| activity[n.index()] * s)
                .sum();
            prob[cell.output().index()] = p_out;
            activity[cell.output().index()] = a_out.min(1.0);
        }
        // Registers: sampled D (DFFE: gated by enable probability).
        let mut changed = false;
        for cell in netlist.cells() {
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
                        p_d * p_en + prob[cell.output().index()] * (1.0 - p_en),
                        (2.0 * p_d * (1.0 - p_d) * p_en).min(1.0),
                    )
                }
                _ => continue,
            };
            let out = cell.output().index();
            if (prob[out] - new_p).abs() > 1e-9 || (activity[out] - new_a).abs() > 1e-9 {
                changed = true;
            }
            prob[out] = new_p;
            activity[out] = new_a;
        }
        if !changed {
            break;
        }
    }

    // --- power accounting ---
    let vdd = lib.node().supply_v();
    let f_hz = options.clock_mhz * 1e6;
    let mut switching_w = 0.0;
    let mut clock_w = 0.0;
    let mut leakage_w = 0.0;
    for cell in netlist.cells() {
        let lib_cell = lib
            .cell(cell.lib_cell())
            .ok_or_else(|| PowerError::UnknownLibCell(cell.lib_cell().to_string()))?;
        leakage_w += lib_cell.leakage_nw() * 1e-9;
        // Load on the output net: sink pins + wire.
        let out = cell.output();
        let mut load_ff = options.net_wire_cap_ff.get(&out).copied().unwrap_or(0.0);
        for &(sink, _) in netlist.net(out).sinks() {
            let sink_cell = netlist.cell(sink);
            let sink_lib = lib
                .cell(sink_cell.lib_cell())
                .ok_or_else(|| PowerError::UnknownLibCell(sink_cell.lib_cell().to_string()))?;
            load_ff += sink_lib.input_cap_ff();
        }
        let internal_ff = lib_cell.input_cap_ff() * 0.5;
        let c_total = (load_ff + internal_ff) * 1e-15;
        switching_w += 0.5 * c_total * vdd * vdd * f_hz * activity[out.index()];
        if cell.is_sequential() {
            // Clock pin: full swing twice per cycle -> alpha = 2 on C_clk.
            let c_clk = lib_cell.input_cap_ff() * 0.4 * 1e-15;
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

mod tests {
    use super::estimate as reference;
    use crate::{estimate, PowerOptions, PowerReport};
    use chipforge_hdl::designs;
    use chipforge_netlist::{NetId, Netlist};
    use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};
    use chipforge_synth::{synthesize, SynthOptions};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn lib() -> &'static StdCellLibrary {
        static LIB: OnceLock<StdCellLibrary> = OnceLock::new();
        LIB.get_or_init(|| StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open))
    }

    /// The built-in suite, then the `gen:` corpus: every family is
    /// sequential, and `cpu/ctrl` and `noc/router` run the register
    /// iteration to its 12-round cap.
    fn netlists() -> &'static [Netlist] {
        static NETLISTS: OnceLock<Vec<Netlist>> = OnceLock::new();
        NETLISTS.get_or_init(|| {
            let generated = chipforge_gen::corpus().into_iter().map(|s| s.generate());
            designs::suite()
                .into_iter()
                .chain(generated)
                .map(|design| {
                    let module = design.elaborate().expect("elaborates");
                    synthesize(&module, lib(), &SynthOptions::default())
                        .expect("synthesizes")
                        .netlist
                })
                .collect()
        })
    }

    fn bits(report: &PowerReport) -> (u64, u64, u64, Vec<(NetId, u64)>) {
        (
            report.switching_uw.to_bits(),
            report.clock_uw.to_bits(),
            report.leakage_uw.to_bits(),
            report
                .net_activity
                .iter()
                .map(|&(net, a)| (net, a.to_bits()))
                .collect(),
        )
    }

    fn assert_identical(netlist: &Netlist, options: &PowerOptions) {
        let expected = reference(netlist, lib(), options).expect("reference estimates");
        let actual = estimate(netlist, lib(), options).expect("estimates");
        assert_eq!(bits(&actual), bits(&expected), "{}", netlist.name());
    }

    /// Wire caps on a random share of the nets, from a splitmix64 stream.
    fn wire_caps(netlist: &Netlist, seed: u64, share: f64, options: &mut PowerOptions) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        for net in netlist.nets() {
            if next() < share {
                options.net_wire_cap_ff.insert(net.id(), next() * 40.0);
            }
        }
    }

    #[test]
    fn matches_the_reference_bit_for_bit_at_default_activity() {
        for netlist in netlists() {
            assert_identical(netlist, &PowerOptions::new(50.0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn matches_the_reference_bit_for_bit(
            index in 0usize..1024,
            clock_mhz in 1.0f64..500.0,
            input_probability in 0.0f64..1.0,
            input_activity in 0.0f64..1.0,
            cap_seed in any::<u64>(),
            cap_share in 0.0f64..1.0,
        ) {
            let netlist = &netlists()[index % netlists().len()];
            let mut options = PowerOptions::new(clock_mhz);
            options.input_probability = input_probability;
            options.input_activity = input_activity;
            wire_caps(netlist, cap_seed, cap_share, &mut options);
            assert_identical(netlist, &options);
        }
    }
}
