//! # chipforge-cloud
//!
//! Discrete-event simulation of design-enablement infrastructure.
//!
//! The underlying position paper's Recommendation 7 argues for centralized,
//! cloud-based design-enablement hubs; Recommendation 8 for tiered access
//! strategies; and Sec. III-C analyses multi-project-wafer (MPW) economics.
//! This crate provides the simulation substrate to *measure* those claims:
//!
//! * [`EventQueue`] — a deterministic discrete-event core;
//! * [`AccessTier`] — beginner/intermediate/advanced user classes with
//!   distinct job profiles (Rec. 8);
//! * [`simulate_local`] / [`simulate_hub`] — per-university tool setups
//!   vs. a shared multi-server hub, with identical workloads (Rec. 7,
//!   experiment E8). The hub is one event loop configured by a
//!   [`HubModel`]: admission and strict-priority or fair-share
//!   [`Dispatch`] through the same `chipforge_admit::Scheduler` the live
//!   hub drives, on virtual hours, plus seeded server outages with
//!   requeue (E15b, E16, E18, E19);
//! * [`ShuttleSchedule`] — periodic MPW shuttle aggregation with per-seat
//!   cost amortization (Sec. III-C, experiment E5).
//!
//! All stochastic components are seeded and deterministic.
//!
//! ## Example
//!
//! ```
//! use chipforge_cloud::{simulate_hub, simulate_local, HubModel, WorkloadSpec};
//! use chipforge_obs::Tracer;
//!
//! # fn main() -> Result<(), chipforge_cloud::ConfigError> {
//! let spec = WorkloadSpec::new(8, 20, 72.0, 42);
//! let local = simulate_local(&spec, 400.0)?;
//! let hub = simulate_hub(
//!     &spec.arrival_trace(),
//!     &HubModel::new(6, 400.0),
//!     &Tracer::disabled(),
//! )?;
//! // One shared setup instead of eight: far less total enablement effort.
//! assert!(hub.setup_hours_total < local.setup_hours_total / 4.0);
//! assert_eq!(hub.completed, local.completed);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod platform;
mod queue;
mod shuttle;
mod tier;

pub use chipforge_admit::Dispatch;
pub use error::ConfigError;
pub use platform::{
    simulate_hub, simulate_local, HubArrival, HubModel, ScenarioResult, TierAdmitStats,
    WorkloadSpec, VIRTUAL_US_PER_HOUR,
};
pub use queue::EventQueue;
pub use shuttle::{ShuttleOutcome, ShuttleSchedule};
pub use tier::AccessTier;
