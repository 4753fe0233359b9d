//! # chipforge-place
//!
//! Floorplanning and standard-cell placement.
//!
//! The placer produces a row-legal placement in two stages:
//!
//! 1. **Floorplanning** ([`Floorplan::for_netlist`]) — sizes the die from
//!    total cell area and a utilization target, and lays out cell rows;
//! 2. **Placement** — [`place_analytic`], the one kernel the flow's
//!    place stage calls: a GORDIAN/FastPlace-style quadratic-wirelength
//!    conjugate-gradient solve followed by row legalization and a
//!    deterministic polish. It is RNG-free and reads no move budget, so
//!    equal inputs give byte-identical placements whatever the seed.
//!
//!    [`place`] — row packing refined by seeded simulated annealing over
//!    cell swaps/moves, minimizing half-perimeter wirelength (HPWL) — is
//!    the *reference* kernel. No production path reaches it; it stays
//!    public, with the same signature, as the oracle the differential
//!    tests, experiments E22/A2 and the `kernel_compare` bench compare
//!    the production kernel against.
//!
//!    Placements are legal by construction (cells are always kept
//!    non-overlapping within rows).
//!
//! I/O ports are distributed along the die boundary; pin positions are
//! approximated by cell centers, which is adequate for the grid-based
//! global router that consumes these placements.
//!
//! ## Example
//!
//! ```
//! use chipforge_hdl::designs;
//! use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};
//! use chipforge_synth::{synthesize, SynthOptions};
//! use chipforge_place::{place_analytic, PlacementOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = designs::counter(8).elaborate()?;
//! let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
//! let netlist = synthesize(&module, &lib, &SynthOptions::default())?.netlist;
//! let placement = place_analytic(&netlist, &lib, &PlacementOptions::default())?;
//! assert!(placement.hpwl_um() > 0.0);
//! assert!(placement.utilization() <= 0.85);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analytic;
mod anneal;
mod floorplan;

pub use analytic::place_analytic;
pub use anneal::{place, PlaceError, PlacedCell, Placement, PlacementOptions};
pub use floorplan::Floorplan;
