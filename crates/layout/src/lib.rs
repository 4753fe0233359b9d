//! # chipforge-layout
//!
//! Layout database, GDSII stream I/O and design-rule checking.
//!
//! This crate closes the backend: it turns a placed-and-routed design into
//! mask geometry ([`build_layout`]), streams it out as industry-standard
//! binary GDSII ([`gds::write_gds`] / [`gds::read_gds`]), and verifies
//! width, spacing and via-enclosure rules with a bin-grid DRC engine
//! ([`drc::check`]).
//!
//! Coordinates are integer database units of 1 nm. The geometry produced by
//! the builder is an *abstract* physical view: cell outlines, power rails,
//! and global-routing wires snapped to per-edge tracks — detailed-routing
//! jogs inside a gcell are assumed, not drawn (documented simplification;
//! connectivity is checked upstream by netlist validation and equivalence
//! simulation, not by layout extraction).
//!
//! ## Example
//!
//! ```
//! use chipforge_layout::{Layout, LayoutCell, Rect};
//! use chipforge_pdk::Layer;
//!
//! let mut cell = LayoutCell::new("top");
//! cell.add_shape(Layer::Metal(1), Rect::new(0, 0, 1000, 200));
//! let mut layout = Layout::new("lib", 1e-9);
//! layout.add_cell(cell);
//! let bytes = chipforge_layout::gds::write_gds(&layout);
//! let parsed = chipforge_layout::gds::read_gds(&bytes).expect("round trip");
//! assert_eq!(parsed.cell("top").expect("exists").shapes().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod db;
pub mod def;
pub mod drc;
pub mod gds;
mod geom;

pub use build::{build_layout, BuildError};
pub use db::{CellRef, Layout, LayoutCell};
pub use drc::{DrcReport, DrcViolation, ViolationKind};
pub use geom::Rect;
