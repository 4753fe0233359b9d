//! # chipforge-route
//!
//! Grid-based global routing with congestion negotiation.
//!
//! The router tessellates the core area into gcells and derives per-edge
//! track capacities from the node's routing pitches and metal-layer
//! count. [`route_steiner`] is the one kernel the flow's route stage
//! calls: it builds a FLUTE-style rectilinear Steiner tree per net
//! (iterated 1-Steiner for low-degree nets, HPWL spine for high
//! fan-out) and embeds it as congestion-aware L/Z shapes, skipping the
//! per-segment search entirely. Overflowed nets are ripped up and
//! rerouted with escalating history costs (a simplified PathFinder
//! negotiation); the last round is a congestion-aware A* backstop, so
//! the maze search itself is production code.
//!
//! [`route`] — every multi-pin net broken into two-pin segments along a
//! minimum spanning tree, each routed with A* from the first pass on —
//! is the *reference* kernel. No production path reaches it; it stays
//! public, with the same signature, as the oracle the differential
//! tests, experiment E22 and the `kernel_compare` bench compare the
//! production kernel against.
//!
//! The result reports per-net wirelength (used to back-annotate wire
//! capacitance into `chipforge-sta`-style timing), via counts, the
//! congestion map and any remaining overflow.
//!
//! ## Example
//!
//! ```
//! use chipforge_hdl::designs;
//! use chipforge_pdk::{LibraryKind, StdCellLibrary, TechnologyNode};
//! use chipforge_synth::{synthesize, SynthOptions};
//! use chipforge_place::{place_analytic, PlacementOptions};
//! use chipforge_route::{route_steiner, RouteOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = designs::counter(8).elaborate()?;
//! let lib = StdCellLibrary::generate(TechnologyNode::N130, LibraryKind::Open);
//! let netlist = synthesize(&module, &lib, &SynthOptions::default())?.netlist;
//! let placement = place_analytic(&netlist, &lib, &PlacementOptions::default())?;
//! let routing = route_steiner(&netlist, &placement, &lib, &RouteOptions::default())?;
//! assert!(routing.total_wirelength_um() > 0.0);
//! assert_eq!(routing.overflowed_edges(), 0, "small designs route cleanly");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod maze;
mod steiner;

pub use grid::{GcellGrid, GridCoord};
pub use maze::{route, RouteError, RouteOptions, RoutedNet, Routing};
pub use steiner::{route_steiner, steiner_tree};
