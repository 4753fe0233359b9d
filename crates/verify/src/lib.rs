//! # chipforge-verify
//!
//! Formal equivalence checking: whole-AIG BDDs first, simulation-guided
//! sweeping where they blow up.
//!
//! The paper's cost model (experiment E4) shows verification consuming
//! 50–60% of a modern design budget — so an enablement platform without a
//! verification substrate would miss the largest slice of the work. This
//! crate provides:
//!
//! * [`Bdd`] — a reduced ordered binary decision diagram package with
//!   unique and computed tables and a node budget (graceful `None`
//!   instead of memory blow-up on BDD-hostile functions like multipliers);
//! * [`netlist_to_aig`] — semantic conversion of a mapped gate-level
//!   netlist back into an and-inverter graph;
//! * [`check_equivalence`] — complete combinational + next-state
//!   equivalence between an elaborated RTL module and a mapped netlist,
//!   with counterexample extraction on mismatch.
//!
//! The check runs in up to three stages, ABC-style:
//!
//! 1. BDDs of every node of both AIGs under a sixteenth of the node
//!    budget. Whatever this stage decides is the result.
//! 2. If it runs out, both AIGs go into one structurally hashed miter.
//!    64 words of seeded random patterns refute any output or next-state
//!    pair they tell apart, with that lane as the counterexample.
//!    Otherwise DUT nodes are merged onto golden nodes with the same
//!    phase-normalised signature, each merge proven first by an
//!    exhaustive truth table over a cut of at most 12 leaves.
//! 3. Pairs the merging leaves open get BDDs over the primary inputs of
//!    just their cones, under the full budget. Only running out here
//!    returns [`Verdict::Aborted`].
//!
//! Every merge and every verdict rests on a proof or a concrete
//! counterexample; a failed cut proof only leaves a node unmerged.
//!
//! Sequential designs are checked as their combinational unrollings: the
//! flow preserves the state encoding (one latch per RTL register bit, same
//! names), so proving every primary output *and* every next-state function
//! equivalent is a complete proof, not a bounded one.
//!
//! ## Example
//!
//! ```
//! use chipforge_hdl::designs;
//! use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};
//! use chipforge_synth::{synthesize, SynthOptions};
//! use chipforge_verify::{check_equivalence, Verdict};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = designs::counter(8).elaborate()?;
//! let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
//! let netlist = synthesize(&module, &lib, &SynthOptions::default())?.netlist;
//! let result = check_equivalence(&module, &netlist, 100_000);
//! assert!(matches!(result.verdict, Verdict::Equivalent));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdd;
mod convert;
mod equiv;
mod sweep;

/// Version of the equivalence engine. A verdict or its counts may change
/// between versions for the same designs, and signoff's detail string
/// carries them, so the flow frames this into the signoff stage key:
/// stages cached by another engine miss. 2: the staged prover (1 built
/// whole-AIG BDDs only, and aborted on the multiplier designs).
pub const ENGINE_VERSION: u8 = 2;

pub use bdd::{Bdd, BddRef};
pub use convert::netlist_to_aig;
pub use equiv::{check_equivalence, Counterexample, EquivalenceResult, Verdict};
