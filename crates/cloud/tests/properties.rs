//! Property tests over the discrete-event core and the platform models.

use chipforge_cloud::{
    simulate_hub, simulate_local, EventQueue, HubModel, ScenarioResult, ShuttleSchedule,
    WorkloadSpec,
};
use chipforge_obs::Tracer;
use proptest::prelude::*;

fn hub(spec: &WorkloadSpec, servers: usize, setup_hours: f64) -> ScenarioResult {
    let model = HubModel::new(servers, setup_hours);
    simulate_hub(&spec.arrival_trace(), &model, &Tracer::disabled()).unwrap()
}

proptest! {
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn all_jobs_complete_in_both_scenarios(
        universities in 1usize..8,
        jobs in 1usize..30,
        interarrival in 1.0f64..200.0,
        seed in any::<u64>(),
        servers in 1usize..10,
    ) {
        let spec = WorkloadSpec::new(universities, jobs, interarrival, seed);
        let local = simulate_local(&spec, 100.0).unwrap();
        let hub = hub(&spec, servers, 100.0);
        prop_assert_eq!(local.completed, universities * jobs);
        prop_assert_eq!(hub.completed, universities * jobs);
        prop_assert!(local.mean_turnaround_h >= 0.0);
        prop_assert!(hub.mean_turnaround_h > 0.0);
        prop_assert!(hub.p95_turnaround_h >= 0.0);
        prop_assert!((0.0..=1.0).contains(&hub.utilization));
    }

    #[test]
    fn more_hub_servers_never_hurt_turnaround(
        seed in any::<u64>(),
        servers in 1usize..6,
    ) {
        let spec = WorkloadSpec::new(6, 25, 24.0, seed);
        let small = hub(&spec, servers, 0.0);
        let big = hub(&spec, servers * 2, 0.0);
        // Work-conserving priority scheduling: more capacity can only help
        // (tiny tolerance for tie-breaking reorderings).
        prop_assert!(big.mean_turnaround_h <= small.mean_turnaround_h * 1.001,
            "{} -> {}", small.mean_turnaround_h, big.mean_turnaround_h);
    }

    #[test]
    fn shuttle_conserves_designs_and_money(
        submissions in proptest::collection::vec(0.0f64..100.0, 1..40),
        seats in 1usize..20,
    ) {
        let run_cost = 100_000.0;
        let shuttle = ShuttleSchedule::new(13.0, seats, 26.0, run_cost);
        let outcome = shuttle.run(&submissions, 1.0);
        prop_assert_eq!(outcome.latency_weeks.len(), submissions.len());
        // Every design waits at least the fab time.
        for &l in &outcome.latency_weeks {
            prop_assert!(l >= 26.0 - 1e-9);
        }
        // Money conservation: total collected equals runs * run cost.
        let total: f64 = outcome.cost_per_design_eur.iter().sum();
        let expected = outcome.runs_used as f64 * run_cost;
        prop_assert!((total - expected).abs() < 1e-6 * expected.max(1.0),
            "collected {total}, expected {expected}");
    }
}
