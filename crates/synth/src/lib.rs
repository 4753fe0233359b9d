//! # chipforge-synth
//!
//! Logic synthesis for the `chipforge` flow: lowers elaborated RTL
//! ([`chipforge_hdl::RtlModule`]) through an and-inverter graph ([`Aig`]) to
//! a mapped gate-level netlist ([`chipforge_netlist::Netlist`]) over a
//! standard-cell library ([`chipforge_pdk::StdCellLibrary`]).
//!
//! Pipeline:
//!
//! 1. **Lowering** ([`lower::lower_to_aig`]) — bit-blasts word-level
//!    expressions into AIG nodes (ripple-carry adders, array multipliers,
//!    barrel shifters, comparator/borrow logic);
//! 2. **Optimization** ([`opt`]) — structural hashing and constant folding
//!    happen on construction; rewriting and AND-tree balancing reduce node
//!    count and depth; sweep removes dead logic;
//! 3. **Technology mapping** ([`map`]) — priority-cut enumeration (k = 3),
//!    truth-table matching against the library's gate functions and
//!    area-flow-based covering.
//!
//! ## Example
//!
//! ```
//! use chipforge_hdl::designs;
//! use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};
//! use chipforge_synth::{synthesize, SynthOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = designs::counter(8);
//! let module = design.elaborate()?;
//! let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
//! let result = synthesize(&module, &lib, &SynthOptions::default())?;
//! assert!(result.netlist.cell_count() > 8, "an 8-bit counter needs gates");
//! assert_eq!(result.netlist.stats().sequential_cells, 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aig;
pub mod dft;
mod equiv;
pub mod lower;
pub mod map;
pub mod opt;

pub use aig::{Aig, AigStats, Lit, NodeId};
pub use dft::{insert_scan_chain, ScanReport};
pub use equiv::simulate_equivalent;

use chipforge_hdl::RtlModule;
use chipforge_netlist::{Netlist, NetlistError};
use chipforge_pdk::StdCellLibrary;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Synthesis effort level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SynthEffort {
    /// Lower directly and map (no restructuring).
    Fast,
    /// Balance AND trees before mapping (default).
    #[default]
    Standard,
    /// Balance plus extra rewriting iterations.
    High,
}

/// Options controlling [`synthesize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SynthOptions {
    /// Effort level.
    pub effort: SynthEffort,
}

/// Result of synthesis: the mapped netlist plus intermediate statistics.
#[derive(Debug, Clone)]
pub struct SynthResult {
    /// The mapped gate-level netlist.
    pub netlist: Netlist,
    /// AIG statistics after optimization (pre-mapping).
    pub aig_stats: AigStats,
}

/// Errors produced by synthesis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SynthError {
    /// The library is missing a gate class required by mapping.
    MissingLibraryCell(String),
    /// Netlist construction failed (internal invariant violation).
    Netlist(NetlistError),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::MissingLibraryCell(name) => {
                write!(f, "library has no cell for `{name}`")
            }
            SynthError::Netlist(e) => write!(f, "netlist construction failed: {e}"),
        }
    }
}

impl Error for SynthError {}

impl From<NetlistError> for SynthError {
    fn from(e: NetlistError) -> Self {
        SynthError::Netlist(e)
    }
}

/// Synthesizes an RTL module to a mapped netlist.
///
/// # Errors
///
/// Returns [`SynthError::MissingLibraryCell`] if the library lacks basic
/// gates (never for generated libraries) and propagates netlist
/// construction failures.
pub fn synthesize(
    module: &RtlModule,
    library: &StdCellLibrary,
    options: &SynthOptions,
) -> Result<SynthResult, SynthError> {
    let aig = optimized_aig(module, options.effort);
    let aig_stats = aig.stats();
    let netlist = map::map_to_netlist(&aig, library)?;
    Ok(SynthResult { netlist, aig_stats })
}

/// Lowers `module` and restructures it at `effort`: the AIG the mapper
/// covers.
pub(crate) fn optimized_aig(module: &RtlModule, effort: SynthEffort) -> Aig {
    let mut aig = lower::lower_to_aig(module);
    match effort {
        SynthEffort::Fast => {}
        SynthEffort::Standard => {
            opt::balance(&mut aig);
            opt::sweep(&mut aig);
        }
        SynthEffort::High => {
            opt::balance(&mut aig);
            opt::simplify(&mut aig);
            opt::balance(&mut aig);
            opt::sweep(&mut aig);
        }
    }
    aig
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge_hdl::designs;
    use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};

    #[test]
    fn suite_synthesizes_and_matches_simulation() {
        let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
        for design in designs::suite() {
            let module = design.elaborate().unwrap();
            let result = synthesize(&module, &lib, &SynthOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", design.name()));
            result.netlist.validate().unwrap();
            assert!(
                simulate_equivalent(&module, &result.netlist, 64, 0xC0FFEE),
                "{} netlist diverges from RTL simulation",
                design.name()
            );
        }
    }

    #[test]
    fn effort_levels_all_remain_equivalent() {
        let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
        let module = designs::alu(8).elaborate().unwrap();
        for effort in [SynthEffort::Fast, SynthEffort::Standard, SynthEffort::High] {
            let result = synthesize(&module, &lib, &SynthOptions { effort }).unwrap();
            assert!(
                simulate_equivalent(&module, &result.netlist, 64, 42),
                "{effort:?}"
            );
        }
    }

    #[test]
    fn balancing_reduces_or_keeps_depth() {
        let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
        let module = designs::popcount(8).elaborate().unwrap();
        let fast = synthesize(
            &module,
            &lib,
            &SynthOptions {
                effort: SynthEffort::Fast,
            },
        )
        .unwrap();
        let std = synthesize(&module, &lib, &SynthOptions::default()).unwrap();
        assert!(std.aig_stats.depth <= fast.aig_stats.depth);
    }
}
