//! The deterministic fault-injection plane.
//!
//! A [`FaultPlan`] decides, for every `(job key, attempt)` pair, whether
//! an attempt is disrupted and how. Decisions are pure hashes of the
//! plan seed and the fault site — there is no RNG state to advance, so
//! the same plan fires the same faults regardless of worker count,
//! scheduling order, or whether the batch was interrupted and resumed.

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
/// Each rate is the probability that the corresponding fault fires for
/// a given `(job key, attempt)`; the decision is a pure hash, so two
/// jobs with identical content (same cache key) are disrupted
/// identically — the property that makes interrupted-and-resumed runs
/// reproduce uninterrupted ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Plan seed: same seed, same faults.
    pub seed: u64,
    /// Probability of a transient stage error per attempt.
    pub transient_rate: f64,
    /// Probability of a worker panic per attempt.
    pub panic_rate: f64,
    /// Probability of a slow-down per attempt.
    pub slow_rate: f64,
    /// Slow-down duration when one fires, in milliseconds.
    pub slow_ms: u64,
    /// Probability that a freshly cached artifact is corrupted in place.
    pub corrupt_rate: f64,
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
            panic_rate: 0.0,
            slow_rate: 0.0,
            slow_ms: 0,
            corrupt_rate: 0.0,
        }
    }

    /// A plan firing transient stage errors at `rate` per attempt.
    #[must_use]
    pub fn transient(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            transient_rate: rate.clamp(0.0, 1.0),
            ..FaultPlan::disabled()
        }
    }

    /// Adds worker panics at `rate` per attempt.
    #[must_use]
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Adds `slow_ms`-millisecond slow-downs at `rate` per attempt.
    #[must_use]
    pub fn with_slowdowns(mut self, rate: f64, slow_ms: u64) -> Self {
        self.slow_rate = rate.clamp(0.0, 1.0);
        self.slow_ms = slow_ms;
        self
    }

    /// Adds cache corruption at `rate` per cached artifact.
    #[must_use]
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Whether any fault can ever fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.transient_rate > 0.0
            || self.panic_rate > 0.0
            || self.slow_rate > 0.0
            || self.corrupt_rate > 0.0
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
        if !self.is_active() {
            return disruption;
        }
        if self.slow_rate > 0.0 && self.roll("slow", key, attempt) < self.slow_rate {
            disruption.slow_ms = Some(self.slow_ms);
        }
        if self.panic_rate > 0.0 && self.roll("panic", key, attempt) < self.panic_rate {
            disruption.panic = true;
        }
        if self.transient_rate > 0.0 && self.roll("transient", key, attempt) < self.transient_rate {
            let pick = self.hash("stage", key, attempt) as usize % TRANSIENT_STAGES.len();
            disruption.transient_stage = Some(TRANSIENT_STAGES[pick]);
        }
        disruption
    }

    /// Whether (and how) to corrupt the freshly cached artifact for
    /// `key`: `(byte offset seed, nonzero xor mask)`.
    #[must_use]
    pub fn corrupt_artifact(&self, key: &str) -> Option<(u64, u8)> {
        if self.corrupt_rate > 0.0 && self.roll("corrupt", key, 0) < self.corrupt_rate {
            let h = self.hash("corrupt-site", key, 0);
            // The mask must be nonzero or the "corruption" is a no-op.
            let xor = ((h >> 8) as u8) | 1;
            Some((h, xor))
        } else {
            None
        }
    }
}

/// What a [`ShardFaultPlan`] injects into one engine shard.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The shard runs normally.
    #[default]
    None,
    /// Every worker of the shard panics at its next job claim — the
    /// in-process stand-in for a crashed shard process.
    Kill,
    /// The shard's workers go silent: they stop heartbeating and stop
    /// claiming work without exiting — a hung tool, not a dead one.
    Wedge,
    /// Every job claim on the shard is delayed by this many
    /// milliseconds — a grey failure the fabric should route around by
    /// work stealing, not by quarantine.
    Slow(u64),
}

/// A seeded, deterministic fault plan for the engine's *shard fabric*
/// (as opposed to [`FaultPlan`], which disrupts individual jobs).
///
/// Each rate is the probability that the corresponding fault fires for
/// a given shard; the decision is a pure hash of `(seed, site, shard)`,
/// so the same plan kills the same shards regardless of worker count or
/// scheduling. Kill and wedge fire once per shard per batch, after the
/// shard has claimed [`after_jobs`](Self::after_jobs) jobs; a restarted
/// shard runs clean. Precedence when several rates fire for one shard:
/// kill over wedge over slow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardFaultPlan {
    /// Plan seed: same seed, same shard faults.
    pub seed: u64,
    /// Probability a shard is killed (panicking workers).
    pub kill_rate: f64,
    /// Probability a shard wedges (stops heartbeating).
    pub wedge_rate: f64,
    /// Probability a shard runs slow.
    pub slow_rate: f64,
    /// Per-claim delay on a slow shard, in milliseconds.
    pub slow_ms: u64,
    /// Jobs a shard claims before its kill/wedge fires: "panic at job
    /// k" with k = `after_jobs`, counting from zero.
    pub after_jobs: u64,
}

impl Default for ShardFaultPlan {
    fn default() -> Self {
        ShardFaultPlan::disabled()
    }
}

impl ShardFaultPlan {
    /// A plan that never touches any shard.
    #[must_use]
    pub fn disabled() -> Self {
        ShardFaultPlan {
            seed: 0,
            kill_rate: 0.0,
            wedge_rate: 0.0,
            slow_rate: 0.0,
            slow_ms: 0,
            after_jobs: 1,
        }
    }

    /// A plan killing shards at `rate`.
    #[must_use]
    pub fn kill(seed: u64, rate: f64) -> Self {
        ShardFaultPlan {
            seed,
            kill_rate: rate.clamp(0.0, 1.0),
            ..ShardFaultPlan::disabled()
        }
    }

    /// Adds wedged (silent, non-heartbeating) shards at `rate`.
    #[must_use]
    pub fn with_wedge_rate(mut self, rate: f64) -> Self {
        self.wedge_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Adds `slow_ms`-per-claim slow shards at `rate`.
    #[must_use]
    pub fn with_slow(mut self, rate: f64, slow_ms: u64) -> Self {
        self.slow_rate = rate.clamp(0.0, 1.0);
        self.slow_ms = slow_ms;
        self
    }

    /// Sets how many jobs a shard claims before its kill/wedge fires.
    #[must_use]
    pub fn with_after_jobs(mut self, after_jobs: u64) -> Self {
        self.after_jobs = after_jobs;
        self
    }

    /// Whether any shard fault can ever fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.kill_rate > 0.0 || self.wedge_rate > 0.0 || self.slow_rate > 0.0
    }

    fn roll(&self, site: &str, shard: usize) -> f64 {
        let mut bytes = Vec::with_capacity(site.len() + 17);
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(site.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(shard as u64).to_le_bytes());
        hash_fraction(fnv64(&bytes))
    }

    /// The fault this plan injects into `shard`.
    #[must_use]
    pub fn fault_for(&self, shard: usize) -> ShardFault {
        if !self.is_active() {
            return ShardFault::None;
        }
        if self.kill_rate > 0.0 && self.roll("shard-kill", shard) < self.kill_rate {
            return ShardFault::Kill;
        }
        if self.wedge_rate > 0.0 && self.roll("shard-wedge", shard) < self.wedge_rate {
            return ShardFault::Wedge;
        }
        if self.slow_rate > 0.0 && self.roll("shard-slow", shard) < self.slow_rate {
            return ShardFault::Slow(self.slow_ms);
        }
        ShardFault::None
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
    fn shard_plan_is_deterministic_and_seed_sensitive() {
        let a = ShardFaultPlan::kill(7, 0.5)
            .with_wedge_rate(0.3)
            .with_slow(0.4, 20);
        let b = ShardFaultPlan::kill(8, 0.5)
            .with_wedge_rate(0.3)
            .with_slow(0.4, 20);
        let mut diverged = false;
        for shard in 0..64 {
            assert_eq!(a.fault_for(shard), a.fault_for(shard), "replays");
            if a.fault_for(shard) != b.fault_for(shard) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must fault different shards");
    }

    #[test]
    fn disabled_shard_plan_never_faults() {
        let plan = ShardFaultPlan::disabled();
        assert!(!plan.is_active());
        for shard in 0..32 {
            assert_eq!(plan.fault_for(shard), ShardFault::None);
        }
    }

    #[test]
    fn shard_kill_rate_one_kills_every_shard() {
        let plan = ShardFaultPlan::kill(3, 1.0).with_slow(1.0, 5);
        for shard in 0..16 {
            assert_eq!(
                plan.fault_for(shard),
                ShardFault::Kill,
                "kill takes precedence"
            );
        }
        let slow_only = ShardFaultPlan::disabled().with_slow(1.0, 5);
        for shard in 0..16 {
            assert_eq!(slow_only.fault_for(shard), ShardFault::Slow(5));
        }
    }

    #[test]
    fn shard_rates_are_roughly_respected() {
        let plan = ShardFaultPlan::kill(42, 0.25);
        let kills = (0..400)
            .filter(|&s| plan.fault_for(s) == ShardFault::Kill)
            .count();
        assert!(
            (60..=140).contains(&kills),
            "got {kills} kills at rate 0.25"
        );
    }

    #[test]
    fn disabled_plan_never_disrupts() {
        let plan = FaultPlan::disabled();
        for attempt in 1..=5 {
            assert!(plan.disruption("somekey", attempt).is_none());
        }
        assert!(plan.corrupt_artifact("somekey").is_none());
        assert!(!plan.is_active());
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
    fn corruption_mask_is_never_zero() {
        let plan = FaultPlan::disabled().with_corrupt_rate(1.0);
        for i in 0..64 {
            let (_, xor) = plan
                .corrupt_artifact(&format!("k{i}"))
                .expect("rate 1.0 always corrupts");
            assert_ne!(xor, 0);
        }
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
