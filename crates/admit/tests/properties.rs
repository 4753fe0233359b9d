//! Property tests for the admission plane.
//!
//! The headline property is **no starvation**: under a saturating
//! high-tier load, fair-share with a positive aging rate serves every
//! admitted low-tier job in bounded time — for *any* positive weights,
//! any service times and any backlog size. This is the contract that
//! lets the hub promise beginners a turn no matter how hard the
//! advanced tier presses.

use chipforge_admit::{Admission, AdmissionPolicy, Dispatch, RateLimit, Scheduler};
use proptest::prelude::*;

const BEGINNER: usize = 0;
const ADVANCED: usize = 1;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fair-share + aging never starves the light tier: a single-server
    /// loop under a saturating advanced-tier queue (always refilled)
    /// still serves every queued beginner job within a bounded number
    /// of dispatches.
    #[test]
    fn aging_fair_share_never_starves_beginners(
        beginner_weight in 0.05f64..2.0,
        advanced_weight in 0.5f64..50.0,
        aging_rate in 0.01f64..2.0,
        beginner_service in 0.1f64..1.0,
        advanced_service in 1.0f64..50.0,
        backlog in 1usize..12,
    ) {
        let policy = AdmissionPolicy::unbounded(2)
            .with_weights(vec![beginner_weight, advanced_weight])
            .with_aging(aging_rate);
        let mut scheduler: Scheduler<usize> = Scheduler::new(policy, Dispatch::FairShare);
        let mut now = 0.0;
        // The whole beginner backlog is queued up front…
        for i in 0..backlog {
            scheduler.offer(BEGINNER, i, now);
        }
        // …against an advanced tier that never drains.
        scheduler.offer(ADVANCED, usize::MAX, now);

        let mut beginners_served = 0;
        let mut dispatches = 0;
        let budget = 200 * backlog;
        while beginners_served < backlog {
            dispatches += 1;
            prop_assert!(
                dispatches <= budget,
                "starvation: only {beginners_served}/{backlog} beginner jobs served after {dispatches} dispatches"
            );
            let (class, _, _) = scheduler.next(now).expect("queues are never empty");
            let service = if class == BEGINNER { beginner_service } else { advanced_service };
            now += service;
            scheduler.charge(class, service);
            if class == BEGINNER {
                beginners_served += 1;
            } else {
                // Saturating load: the advanced tier refills instantly.
                scheduler.offer(ADVANCED, usize::MAX, now);
            }
        }
    }

    /// A bounded queue never exceeds its capacity, under any interleaving
    /// of offers and pops and either overflow policy, and no item is
    /// lost or duplicated: admitted = served + shed + still-queued.
    #[test]
    fn bounded_depth_and_conservation(
        capacity in 0usize..6,
        shed in 0u8..2,
        ops in proptest::collection::vec(0u8..3, 1..80),
    ) {
        let mut policy = AdmissionPolicy::bounded(1, capacity);
        if shed == 1 {
            policy = policy.with_shed_oldest();
        }
        let mut scheduler: Scheduler<usize> = Scheduler::new(policy, Dispatch::FairShare);
        let (mut offered, mut admitted, mut rejected, mut shed_count, mut served) = (0, 0, 0, 0, 0);
        for (step, op) in ops.iter().enumerate() {
            if *op < 2 {
                let outcome = scheduler.offer(0, offered, step as f64);
                offered += 1;
                match outcome {
                    Admission::Admitted => admitted += 1,
                    Admission::RateLimited(_) | Admission::Rejected(_) => rejected += 1,
                    Admission::Shed(_) => { admitted += 1; shed_count += 1; }
                }
            } else if scheduler.next(step as f64).is_some() {
                served += 1;
            }
            prop_assert!(scheduler.depth(0) <= capacity, "depth {} exceeds capacity {capacity}", scheduler.depth(0));
        }
        let stats = scheduler.stats(0);
        prop_assert!(stats.peak_depth <= capacity);
        prop_assert_eq!(offered, admitted + rejected);
        prop_assert_eq!(admitted, served + shed_count + scheduler.depth(0));
        prop_assert_eq!(
            (stats.offered, stats.admitted, stats.rejected, stats.shed),
            (offered, admitted, rejected, shed_count)
        );
    }

    /// A class's token bucket never admits more than burst + rate·T (+1
    /// for the token accruing exactly at the horizon) over any horizon.
    #[test]
    fn token_bucket_respects_long_run_rate(
        rate in 0.1f64..10.0,
        burst in 1.0f64..8.0,
        horizon in 1.0f64..50.0,
        attempts in 1usize..400,
    ) {
        let policy = AdmissionPolicy::unbounded(1).with_rate_limit(0, RateLimit { rate, burst });
        let mut scheduler = Scheduler::new(policy, Dispatch::FairShare);
        let mut admitted = 0usize;
        for i in 0..attempts {
            let now = horizon * (i as f64) / (attempts as f64);
            if scheduler.offer(0, i, now) == Admission::Admitted {
                admitted += 1;
            }
        }
        let ceiling = burst + rate * horizon + 1.0;
        prop_assert!(
            (admitted as f64) <= ceiling,
            "admitted {admitted} exceeds rate ceiling {ceiling}"
        );
    }
}
