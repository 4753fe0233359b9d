//! # chipforge-flow
//!
//! Template-driven RTL-to-GDSII flow orchestration.
//!
//! This crate wires the substrates together into the canonical digital
//! implementation flow — elaborate → synthesize → size → floorplan/place →
//! clock-tree (modeled) → route → signoff (STA + power + DRC) → GDSII —
//! and reports per-step metrics plus the final PPA.
//!
//! Two ideas from the underlying position paper are first-class here:
//!
//! * **Flow templates** (Recommendation 4): [`FlowTemplate`] describes the
//!   vendor- and technology-independent step sequence together with how
//!   many configuration items each step needs per technology — with a
//!   template, per-node setup reduces to parameter binding instead of
//!   hand-written scripts;
//! * **Optimization profiles**: [`OptimizationProfile::open`] models an
//!   open-source flow (fewer drive strengths, lighter optimization) and
//!   [`OptimizationProfile::commercial`] a foundry-grade flow, so the
//!   open-vs-commercial PPA gap (Sec. III-D) can be measured.
//!
//! ## Example
//!
//! ```
//! use chipforge_flow::{FlowConfig, FlowCtx, OptimizationProfile, Pipeline};
//! use chipforge_hdl::designs;
//! use chipforge_obs::Tracer;
//! use chipforge_pdk::TechnologyNode;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = designs::counter(8);
//! let config = FlowConfig::new(TechnologyNode::N130, OptimizationProfile::open())
//!     .with_clock_mhz(50.0);
//! // The context carries tracing, a deadline, stage hooks and a stage
//! // store; a plain run needs only a (disabled) tracer.
//! let outcome = Pipeline::standard().run(
//!     design.source(),
//!     &config,
//!     &FlowCtx::default(),
//! )?;
//! assert!(outcome.report.ppa.cell_area_um2 > 0.0);
//! assert!(!outcome.gds.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cts;
mod pipeline;
mod profile;
mod report;
mod run;
mod stages;
mod template;

pub use cts::{synthesize_clock_tree, ClockBuffer, ClockTree, CtsOptions};
pub use pipeline::{
    canonical_outcome_json, FlowCtx, Pipeline, StageArtifact, StageHooks, StageSnapshot,
    StageStore, STAGE_KEY_SCHEMA,
};
pub use profile::OptimizationProfile;
pub use report::{FlowReport, PpaReport, StepRecord};
pub use run::{FlowConfig, FlowError, FlowOutcome};
pub use template::{FlowStep, FlowTemplate, StepSpec};
