//! Job specifications and results.

use chipforge_cloud::AccessTier;
use chipforge_flow::{FlowConfig, FlowOutcome, OptimizationProfile, PpaReport};
use chipforge_pdk::TechnologyNode;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Re-exported from `chipforge-resil`, which owns the fault taxonomy:
/// spec-level faults here, plan-level seeded injection in
/// [`chipforge_resil::FaultPlan`].
pub use chipforge_resil::Fault;

/// One unit of batch work: an HDL source plus a full flow configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Display name (typically the design name; not part of the cache key).
    pub name: String,
    /// ForgeHDL source text.
    pub source: String,
    /// Target technology node.
    pub node: TechnologyNode,
    /// Optimization profile.
    pub profile: OptimizationProfile,
    /// Target clock in MHz.
    pub clock_mhz: f64,
    /// Flow seed.
    pub seed: u64,
    /// Insert a scan chain after synthesis.
    pub insert_scan: bool,
    /// Injected fault, if any.
    pub fault: Fault,
    /// Access tier of the submitting user; drives fair-share admission
    /// ordering, never the artifact (not part of the cache key).
    pub tier: AccessTier,
    /// Per-job deadline in milliseconds from batch start; the flow is
    /// cooperatively cancelled between stages once it expires. Not part
    /// of the cache key.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A job with the default 100 MHz clock, seed 1, no scan, no fault.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        node: TechnologyNode,
        profile: OptimizationProfile,
    ) -> Self {
        Self {
            name: name.into(),
            source: source.into(),
            node,
            profile,
            clock_mhz: 100.0,
            seed: 1,
            insert_scan: false,
            fault: Fault::None,
            tier: AccessTier::Intermediate,
            deadline_ms: None,
        }
    }

    /// Sets the target clock.
    #[must_use]
    pub fn with_clock_mhz(mut self, clock_mhz: f64) -> Self {
        self.clock_mhz = clock_mhz;
        self
    }

    /// Sets the flow seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables scan-chain insertion.
    #[must_use]
    pub fn with_scan(mut self) -> Self {
        self.insert_scan = true;
        self
    }

    /// Injects a fault into the execution path.
    #[must_use]
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = fault;
        self
    }

    /// Tags the job with the submitting user's access tier.
    #[must_use]
    pub fn with_tier(mut self, tier: AccessTier) -> Self {
        self.tier = tier;
        self
    }

    /// Sets a per-job deadline, in milliseconds from batch start.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// The flow configuration this job runs under.
    #[must_use]
    pub fn flow_config(&self) -> FlowConfig {
        let mut config = FlowConfig::new(self.node, self.profile.clone())
            .with_clock_mhz(self.clock_mhz)
            .with_seed(self.seed);
        if self.insert_scan {
            config = config.with_scan();
        }
        config
    }
}

/// Terminal state of one batch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// The flow completed (possibly served from the artifact cache).
    Succeeded,
    /// The flow returned an error or panicked on every attempt.
    Failed,
    /// The job exceeded the per-job timeout.
    TimedOut,
    /// The batch deadline expired (or the failure budget was exhausted)
    /// before the job started.
    Cancelled,
    /// The job exhausted the resilience policy's attempt limit and was
    /// quarantined; identical resubmissions in the same batch are
    /// short-circuited.
    Quarantined,
    /// Admission control turned the job away: the bounded queue was
    /// full (or a newer submission displaced it under shed-oldest), or
    /// an open circuit breaker fast-failed it.
    Rejected,
    /// The job's deadline expired; the flow was cooperatively cancelled
    /// between stages (or never started). Never cached.
    DeadlineExceeded,
}

impl JobStatus {
    /// Whether the job produced an artifact.
    #[must_use]
    pub fn is_success(self) -> bool {
        self == JobStatus::Succeeded
    }

    /// Parses a status from its display name (journal restoration).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "succeeded" => JobStatus::Succeeded,
            "failed" => JobStatus::Failed,
            "timed-out" => JobStatus::TimedOut,
            "cancelled" => JobStatus::Cancelled,
            "quarantined" => JobStatus::Quarantined,
            "rejected" => JobStatus::Rejected,
            "deadline-exceeded" => JobStatus::DeadlineExceeded,
            _ => return None,
        })
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobStatus::Succeeded => "succeeded",
            JobStatus::Failed => "failed",
            JobStatus::TimedOut => "timed-out",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Quarantined => "quarantined",
            JobStatus::Rejected => "rejected",
            JobStatus::DeadlineExceeded => "deadline-exceeded",
        })
    }
}

/// The artifact digests restored from a checkpoint journal for a job
/// that was *not* re-executed on resume. The full [`FlowOutcome`] is
/// gone (it lived in the killed process), but the PPA report and GDS
/// digest are enough to reproduce the canonical batch report.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoredArtifact {
    /// The journaled PPA report.
    pub ppa: PpaReport,
    /// FNV-1a digest of the GDS bytes.
    pub gds_fnv: u64,
}

/// Outcome of one batch job, including the artifact when it succeeded.
///
/// The flow outcome is shared via [`Arc`] so cache hits are free; the
/// serializable view of a result lives in [`crate::metrics::JobRecord`].
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Position in the submitted batch (results are returned in order).
    pub index: usize,
    /// Job display name.
    pub name: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Flow attempts made (0 for cache hits, cancellations and resumed
    /// jobs' restorations record the original run's count).
    pub attempts: u32,
    /// Whether the artifact came from the cache.
    pub cache_hit: bool,
    /// Worker thread that processed the job.
    pub worker: usize,
    /// Time spent queued before a worker picked the job up, in ms.
    pub queue_wait_ms: f64,
    /// Time from pickup to terminal status, in ms (includes retries).
    pub run_ms: f64,
    /// Whether the job succeeded via a degraded (relaxed) retry after a
    /// transient route/CTS failure.
    pub degraded: bool,
    /// Whether this result was restored from a checkpoint journal
    /// instead of executed.
    pub resumed: bool,
    /// Error description for non-succeeded jobs.
    pub error: Option<String>,
    /// The artifact, when `status` is [`JobStatus::Succeeded`] and the
    /// job executed (or hit the cache) in this process.
    pub outcome: Option<Arc<FlowOutcome>>,
    /// Journal-restored artifact digests when `resumed` and the
    /// original run succeeded.
    pub restored: Option<RestoredArtifact>,
}

impl JobResult {
    /// A result that has not happened yet: `Cancelled`, zero attempts,
    /// no artifact. Every real result is this with fields overridden.
    #[must_use]
    pub fn blank(index: usize, name: &str) -> Self {
        JobResult {
            index,
            name: name.to_string(),
            status: JobStatus::Cancelled,
            attempts: 0,
            cache_hit: false,
            worker: 0,
            queue_wait_ms: 0.0,
            run_ms: 0.0,
            degraded: false,
            resumed: false,
            error: None,
            outcome: None,
            restored: None,
        }
    }

    /// The deterministic artifact view: the PPA report plus the GDS
    /// digest, from the live outcome or the journal restoration.
    #[must_use]
    pub fn artifact_digests(&self) -> Option<(PpaReport, u64)> {
        match (&self.outcome, &self.restored) {
            (Some(outcome), _) => Some((
                outcome.report.ppa.clone(),
                chipforge_resil::fnv64(&outcome.gds),
            )),
            (None, Some(restored)) => Some((restored.ppa.clone(), restored.gds_fnv)),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::new(
            "t",
            "module t;",
            TechnologyNode::N130,
            OptimizationProfile::quick(),
        )
    }

    #[test]
    fn builders_set_fields() {
        let job = spec()
            .with_clock_mhz(250.0)
            .with_seed(9)
            .with_scan()
            .with_fault(Fault::Hang(5));
        assert_eq!(job.clock_mhz, 250.0);
        assert_eq!(job.seed, 9);
        assert!(job.insert_scan);
        assert_eq!(job.fault, Fault::Hang(5));
        let config = job.flow_config();
        assert_eq!(config.seed, 9);
        assert!(config.insert_scan);
    }

    #[test]
    fn status_display_and_success() {
        assert!(JobStatus::Succeeded.is_success());
        assert!(!JobStatus::TimedOut.is_success());
        assert!(!JobStatus::Quarantined.is_success());
        assert_eq!(JobStatus::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn status_round_trips_through_its_name() {
        for status in [
            JobStatus::Succeeded,
            JobStatus::Failed,
            JobStatus::TimedOut,
            JobStatus::Cancelled,
            JobStatus::Quarantined,
            JobStatus::Rejected,
            JobStatus::DeadlineExceeded,
        ] {
            assert_eq!(JobStatus::from_name(&status.to_string()), Some(status));
        }
        assert_eq!(JobStatus::from_name("exploded"), None);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let job = spec()
            .with_fault(Fault::Panic)
            .with_tier(AccessTier::Beginner)
            .with_deadline_ms(5_000);
        let json = serde::json::to_string(&job);
        let parsed: JobSpec = serde::json::from_str(&json).expect("round trips");
        assert_eq!(parsed, job);
    }
}
