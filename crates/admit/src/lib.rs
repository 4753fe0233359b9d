//! Overload-robustness primitives shared by the cloud hub simulator, the
//! live hub and the batch execution engine.
//!
//! The paper's centralized enablement platform (R7) only works as a
//! *shared* resource if it stays usable under contention: a hub that
//! accepts every job unconditionally grows its queues without bound,
//! and a strict-priority scheduler lets the heaviest tier starve
//! everyone below it. This crate packages what keeps the platform
//! honest when it runs hot:
//!
//! * [`Scheduler`] — the one scheduler all three callers drive: the
//!   discrete-event hub simulator on virtual hours, `forge serve` on
//!   wall seconds, and `forge batch`, which offers its whole burst at
//!   time zero before any worker runs. It admits through a per-class
//!   token bucket and then a bounded per-class FIFO queue that rejects
//!   or sheds its oldest entry on overflow, and dispatches by strict
//!   priority or by weighted fair share with an anti-starvation aging
//!   bonus ([`Dispatch`]). It keeps each class's offered/admitted/
//!   rejected/shed counts, peak depth and longest wait ([`ClassStats`]).
//! * [`CircuitBreaker`] — a closed/open/half-open breaker keyed by
//!   consecutive failures, with a count-based cooldown so behaviour is
//!   reproducible in simulation.
//!
//! Everything here is deterministic: no wall clocks, no threads, no
//! randomness. Time enters only as an `f64` "now" supplied by the
//! caller, so the same inputs always produce the same admissions, the
//! same ordering and the same breaker trips.

mod breaker;
mod fair;
mod limiter;
mod policy;
mod queue;

pub use breaker::{BreakerState, CircuitBreaker};
pub use policy::{AdmissionPolicy, OverflowPolicy, RateLimit};
pub use queue::{Admission, ClassStats, Dispatch, Scheduler};
