//! The deterministic fault-injection plane.
//!
//! A [`FaultPlan`] decides, for every `(job key, attempt)` pair, whether
//! an attempt is disrupted and how. Decisions are pure hashes of the
//! plan seed and the fault site — there is no RNG state to advance, so
//! the same plan fires the same faults regardless of worker count,
//! scheduling order, or whether the batch was interrupted and resumed.
//!
//! The key a plan rolls on is the job's whole-flow cache key, on
//! purpose: duplicates must draw the same faults, or a killed-and-resumed
//! batch would not reproduce the uninterrupted one byte for byte. The
//! price is that a cache-key schema bump re-deals every seeded fault, so
//! two builds' reports under the same `--fault-rate` and seed agree byte
//! for byte only when the builds compute the same keys.

use crate::{fnv64, hash_fraction};
use chipforge_flow::FlowStep;
use serde::{Deserialize, Serialize};

/// Flow stages a transient fault can fire at, in the plan's historical
/// pick order (the order is part of the seeded-determinism contract:
/// `FaultPlan::disruption` indexes into it by hash).
pub const TRANSIENT_STAGES: [FlowStep; 4] = [
    FlowStep::Synthesize,
    FlowStep::Place,
    FlowStep::ClockTree,
    FlowStep::Route,
];

/// Stages whose transient failures can be absorbed by a degraded retry
/// with relaxed parameters (lower utilization, reduced effort): routing
/// and clock-tree synthesis, the classic congestion-sensitive stages.
pub const DEGRADABLE_STAGES: [FlowStep; 2] = [FlowStep::ClockTree, FlowStep::Route];

/// Whether a transiently-failed stage qualifies for a degraded retry.
#[must_use]
pub fn is_degradable_stage(stage: FlowStep) -> bool {
    DEGRADABLE_STAGES.contains(&stage)
}

/// A fault injected into one specific job's execution path.
///
/// Faults model the failure modes a shared batch service must absorb —
/// a flow crash, a wedged tool, a flaky stage — and let tests (and
/// manifest authors) exercise the engine's isolation without a genuinely
/// broken design. Faults fire only when the job actually executes; a
/// cache hit serves the stored artifact without entering the execution
/// path. For *plan-wide* seeded injection across a whole batch, use
/// [`FaultPlan`] instead.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// No fault: run the flow normally.
    #[default]
    None,
    /// Panic inside the job (exercises `catch_unwind` isolation).
    Panic,
    /// Sleep this many milliseconds before running, or until the
    /// attempt's deadline if that comes first (exercises timeouts).
    Hang(u64),
    /// Fail the first `n` attempts with a transient route-stage error
    /// (exercises retry, degradation and quarantine paths).
    Transient(u32),
}

impl Fault {
    /// Folds this spec-level fault into an attempt's disruption.
    pub fn apply(&self, disruption: &mut Disruption, attempt: u32) {
        match *self {
            Fault::None => {}
            Fault::Panic => disruption.panic = true,
            Fault::Hang(ms) => {
                disruption.slow_ms = Some(disruption.slow_ms.map_or(ms, |s| s.max(ms)));
            }
            Fault::Transient(n) => {
                if attempt <= n && disruption.transient_stage.is_none() {
                    disruption.transient_stage = Some(FlowStep::Route);
                }
            }
        }
    }
}

/// Everything that disrupts one execution attempt.
///
/// Combined from the batch-wide [`FaultPlan`] and the job's own
/// [`Fault`]; consumed by the engine just before the flow runs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Disruption {
    /// Sleep this long before running (slow-down / hang); the sleep
    /// ends early at the attempt's deadline.
    pub slow_ms: Option<u64>,
    /// Panic inside the attempt, on the worker that runs it; the
    /// executor's `catch_unwind` contains it.
    pub panic: bool,
    /// Fail with a transient error at this stage instead of running.
    pub transient_stage: Option<FlowStep>,
}

impl Disruption {
    /// A disruption that does nothing.
    #[must_use]
    pub fn none() -> Self {
        Disruption::default()
    }

    /// Whether this disruption leaves the attempt untouched.
    #[must_use]
    pub fn is_none(&self) -> bool {
        *self == Disruption::default()
    }
}

/// A seeded, deterministic fault-injection plan for a whole batch.
///
/// `transient_rate` is the probability that a transient stage error
/// fires for a given `(job key, attempt)`; the decision is a pure hash, so two
/// jobs with identical content (same cache key) are disrupted
/// identically — the property that makes interrupted-and-resumed runs
/// reproduce uninterrupted ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Plan seed: same seed, same faults.
    pub seed: u64,
    /// Probability of a transient stage error per attempt.
    pub transient_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

impl FaultPlan {
    /// A plan that never fires anything.
    #[must_use]
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            transient_rate: 0.0,
        }
    }

    /// A plan firing transient stage errors at `rate` per attempt.
    #[must_use]
    pub fn transient(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            transient_rate: rate.clamp(0.0, 1.0),
        }
    }

    fn roll(&self, site: &str, key: &str, attempt: u32) -> f64 {
        hash_fraction(self.hash(site, key, attempt))
    }

    fn hash(&self, site: &str, key: &str, attempt: u32) -> u64 {
        let mut bytes = Vec::with_capacity(site.len() + key.len() + 16);
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(site.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(key.as_bytes());
        bytes.extend_from_slice(&attempt.to_le_bytes());
        fnv64(&bytes)
    }

    /// The disruption this plan injects into `(key, attempt)`.
    #[must_use]
    pub fn disruption(&self, key: &str, attempt: u32) -> Disruption {
        let mut disruption = Disruption::none();
        if self.transient_rate > 0.0 && self.roll("transient", key, attempt) < self.transient_rate {
            let pick = self.hash("stage", key, attempt) as usize % TRANSIENT_STAGES.len();
            disruption.transient_stage = Some(TRANSIENT_STAGES[pick]);
        }
        disruption
    }
}

/// A seeded server outage/repair process for the cloud DES.
///
/// Uptime and repair intervals are exponentially distributed with the
/// given means; samples are pure hashes of `(seed, server, episode)`,
/// so a simulation replays identically for the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutagePlan {
    /// Plan seed.
    pub seed: u64,
    /// Mean hours a server stays up before failing.
    pub mean_uptime_h: f64,
    /// Mean hours a failed server takes to repair.
    pub mean_repair_h: f64,
}

impl OutagePlan {
    /// A plan with the given seed and mean up/repair intervals.
    #[must_use]
    pub fn new(seed: u64, mean_uptime_h: f64, mean_repair_h: f64) -> Self {
        OutagePlan {
            seed,
            mean_uptime_h: mean_uptime_h.max(1e-6),
            mean_repair_h: mean_repair_h.max(1e-6),
        }
    }

    /// Hours server `server` stays up in its `episode`-th up period.
    #[must_use]
    pub fn uptime_h(&self, server: usize, episode: u64) -> f64 {
        self.exponential("uptime", server, episode, self.mean_uptime_h)
    }

    /// Hours server `server` takes to repair after its `episode`-th failure.
    #[must_use]
    pub fn repair_h(&self, server: usize, episode: u64) -> f64 {
        self.exponential("repair", server, episode, self.mean_repair_h)
    }

    fn exponential(&self, site: &str, server: usize, episode: u64, mean: f64) -> f64 {
        let mut bytes = Vec::with_capacity(site.len() + 24);
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(site.as_bytes());
        bytes.extend_from_slice(&(server as u64).to_le_bytes());
        bytes.extend_from_slice(&episode.to_le_bytes());
        let u = hash_fraction(fnv64(&bytes)).max(1e-12);
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_disrupts() {
        let plan = FaultPlan::disabled();
        for attempt in 1..=5 {
            assert!(plan.disruption("somekey", attempt).is_none());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::transient(7, 0.5);
        let b = FaultPlan::transient(8, 0.5);
        let mut diverged = false;
        for i in 0..64 {
            let key = format!("key-{i}");
            assert_eq!(a.disruption(&key, 1), a.disruption(&key, 1), "replays");
            if a.disruption(&key, 1) != b.disruption(&key, 1) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must fire different faults");
    }

    #[test]
    fn transient_rate_is_roughly_respected() {
        let plan = FaultPlan::transient(42, 0.2);
        let fired = (0..1000)
            .filter(|i| {
                plan.disruption(&format!("job-{i}"), 1)
                    .transient_stage
                    .is_some()
            })
            .count();
        assert!(
            (120..=280).contains(&fired),
            "20% rate fired {fired}/1000 times"
        );
    }

    #[test]
    fn full_rate_always_fires_a_known_stage() {
        let plan = FaultPlan::transient(1, 1.0);
        for i in 0..32 {
            let stage = plan
                .disruption(&format!("k{i}"), 1)
                .transient_stage
                .expect("rate 1.0 always fires");
            assert!(TRANSIENT_STAGES.contains(&stage));
        }
    }

    #[test]
    fn spec_faults_fold_into_disruptions() {
        let mut d = Disruption::none();
        Fault::Panic.apply(&mut d, 1);
        assert!(d.panic);
        let mut d = Disruption::none();
        Fault::Hang(50).apply(&mut d, 1);
        assert_eq!(d.slow_ms, Some(50));
        let mut d = Disruption::none();
        Fault::Transient(2).apply(&mut d, 2);
        assert_eq!(d.transient_stage, Some(FlowStep::Route));
        let mut d = Disruption::none();
        Fault::Transient(2).apply(&mut d, 3);
        assert!(d.transient_stage.is_none(), "third attempt succeeds");
    }

    #[test]
    fn degradable_stages_are_route_and_cts() {
        assert!(is_degradable_stage(FlowStep::Route));
        assert!(is_degradable_stage(FlowStep::ClockTree));
        assert!(!is_degradable_stage(FlowStep::Synthesize));
        assert!(!is_degradable_stage(FlowStep::Place));
    }

    #[test]
    fn outage_plan_samples_are_deterministic_and_positive() {
        let plan = OutagePlan::new(3, 200.0, 24.0);
        assert_eq!(plan.uptime_h(0, 0), plan.uptime_h(0, 0));
        assert_ne!(plan.uptime_h(0, 0), plan.uptime_h(1, 0));
        assert_ne!(plan.uptime_h(0, 0), plan.uptime_h(0, 1));
        for s in 0..4 {
            for e in 0..4 {
                assert!(plan.uptime_h(s, e) > 0.0);
                assert!(plan.repair_h(s, e) > 0.0);
            }
        }
        let mean: f64 = (0..500).map(|e| plan.uptime_h(0, e)).sum::<f64>() / 500.0;
        assert!((100.0..400.0).contains(&mean), "sample mean {mean}");
    }

    #[test]
    fn fault_round_trips_through_json() {
        for fault in [
            Fault::None,
            Fault::Panic,
            Fault::Hang(9),
            Fault::Transient(3),
        ] {
            let json = serde::json::to_string(&fault);
            let parsed: Fault = serde::json::from_str(&json).expect("round trips");
            assert_eq!(parsed, fault);
        }
    }
}
