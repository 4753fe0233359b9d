//! Semester-at-scale population model (Layer 2).
//!
//! Compiles a student population — per-tier head counts, diurnal
//! arrival curves, deadline-synchronized submission spikes and E17's
//! incremental-resubmission pattern — into an explicit
//! [`HubArrival`] trace for the admission-controlled, fair-share hub
//! DES ([`chipforge_cloud::simulate_hub`]). Everything is a
//! pure function of the seed: two runs of the same spec produce the
//! same trace, the same simulation and byte-identical tables.

use chipforge_admit::AdmissionPolicy;
use chipforge_cloud::{
    simulate_hub, AccessTier, ConfigError, Dispatch, HubArrival, HubModel, ScenarioResult,
};
use chipforge_econ::infrastructure::InfrastructureCostModel;
use chipforge_obs::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative submission intensity per hour of day (0..24): quiet nights,
/// a lecture-break afternoon double peak and an evening tail.
const DIURNAL: [f64; 24] = [
    0.2, 0.1, 0.1, 0.1, 0.1, 0.2, 0.4, 0.7, 1.0, 1.3, 1.5, 1.4, 1.2, 1.3, 1.5, 1.6, 1.5, 1.3, 1.1,
    1.2, 1.4, 1.3, 0.9, 0.5,
];

/// Hours per week of simulated semester time.
const WEEK_H: f64 = 24.0 * 7.0;

/// A semester workload: the population and behavioral knobs compiled by
/// [`SemesterSpec::arrival_trace`] into a hub arrival trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SemesterSpec {
    /// Students per access tier, indexed by [`AccessTier::priority`].
    pub students: [usize; 3],
    /// Member universities submitting into the shared hub.
    pub universities: usize,
    /// Semester length in weeks.
    pub weeks: u32,
    /// Assignment deadlines, in hours from semester start. Submissions
    /// cluster quadratically toward each student's deadline.
    pub deadlines_h: Vec<f64>,
    /// Per-tier maximum submissions per student; each student draws
    /// uniformly from `1..=max`, so the mean is `(max + 1) / 2` — the
    /// first is a fresh run, the rest are incremental resubmissions.
    pub max_submissions: [u8; 3],
    /// Service fraction of a resubmission relative to a fresh run: the
    /// E17 stage-cache effect (edited designs restore their unchanged
    /// stage prefix instead of recomputing it).
    pub resubmission_factor: f64,
    /// Per-tier service hours of a fresh run, calibrated from the
    /// generated corpus (see `exec::calibrate`).
    pub service_hours: [f64; 3],
    /// Mean hours between a student's consecutive resubmissions.
    pub rework_gap_h: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SemesterSpec {
    /// The reference semester for `total` students: a 70/25/5 tier
    /// split, one university per 2 000 students (at least 12), 13 weeks
    /// with deadlines after weeks 4, 8 and 13, and corpus-calibrated
    /// service hours (see [`crate::E19_SERVICE_HOURS`]).
    #[must_use]
    pub fn tiered(total: usize, seed: u64) -> Self {
        let beginner = total * 70 / 100;
        let advanced = total * 5 / 100;
        let intermediate = total - beginner - advanced;
        Self {
            students: [beginner, intermediate, advanced],
            universities: (total / 2_000).max(12),
            weeks: 13,
            deadlines_h: vec![4.0 * WEEK_H, 8.0 * WEEK_H, 13.0 * WEEK_H - 24.0],
            max_submissions: [4, 6, 8],
            resubmission_factor: 0.35,
            service_hours: crate::E19_SERVICE_HOURS,
            rework_gap_h: 6.0,
            seed,
        }
    }

    /// Replaces the per-tier fresh-run service hours (live calibration).
    #[must_use]
    pub fn with_service_hours(mut self, hours: [f64; 3]) -> Self {
        self.service_hours = hours;
        self
    }

    /// Total students across tiers.
    #[must_use]
    pub fn total_students(&self) -> usize {
        self.students.iter().sum()
    }

    /// Semester horizon in hours (one slack day past the last week).
    #[must_use]
    pub fn horizon_h(&self) -> f64 {
        f64::from(self.weeks) * WEEK_H + 24.0
    }

    /// Expected total service demand in compute-hours: fresh runs plus
    /// discounted resubmissions at the mean submission count.
    #[must_use]
    pub fn offered_service_hours(&self) -> f64 {
        AccessTier::ALL
            .iter()
            .map(|tier| {
                let class = tier.priority() as usize;
                let mean_subs = (f64::from(self.max_submissions[class]) + 1.0) / 2.0;
                let per_student = self.service_hours[class]
                    * (1.0 + (mean_subs - 1.0) * self.resubmission_factor);
                self.students[class] as f64 * per_student
            })
            .sum()
    }

    /// Servers needed to carry the offered load at `utilization`
    /// average busy fraction over the semester.
    #[must_use]
    pub fn recommended_servers(&self, utilization: f64) -> usize {
        let raw = self.offered_service_hours() / (self.horizon_h() * utilization.clamp(0.1, 1.0));
        (raw.ceil() as usize).max(1)
    }

    /// The reference admission policy for semester service: bounded
    /// per-tier queues with fair-share weights favoring beginners and
    /// anti-starvation aging — the E16 "bounded-reject" shape scaled to
    /// a population hub. The queue bound grows with the population (one
    /// slot per 20 students, at least 128) so deadline spikes trade
    /// wait time against rejection instead of rejecting almost
    /// everything at scale.
    #[must_use]
    pub fn policy(&self) -> AdmissionPolicy {
        AdmissionPolicy::bounded(3, (self.total_students() / 20).max(128))
            .with_weights(vec![2.0, 1.5, 1.0])
            .with_aging(0.25)
    }

    /// Compiles the population into a hub arrival trace, sorted by
    /// arrival time.
    ///
    /// Per student: a university, a deadline and a submission count are
    /// drawn; the first submission lands a quadratically-deadline-biased
    /// number of hours before the deadline at a diurnally-drawn hour of
    /// day, and each resubmission follows after an exponential rework
    /// gap. Resubmissions carry [`SemesterSpec::resubmission_factor`] of
    /// the fresh-run service demand.
    #[must_use]
    pub fn arrival_trace(&self) -> Vec<HubArrival> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5E3E_57E6);
        let mean_subs: f64 = self
            .max_submissions
            .iter()
            .map(|&m| (f64::from(m) + 1.0) / 2.0)
            .sum::<f64>()
            / 3.0;
        let mut trace =
            Vec::with_capacity((self.total_students() as f64 * mean_subs) as usize + 16);
        let working_window_h = 2.0 * WEEK_H;
        for tier in AccessTier::ALL {
            let class = tier.priority() as usize;
            for _ in 0..self.students[class] {
                let university = rng.gen_range(0..self.universities.max(1));
                let deadline = self.deadlines_h[rng.gen_range(0..self.deadlines_h.len())];
                let submissions = rng.gen_range(1..=self.max_submissions[class].max(1));
                // Procrastination: u^2 concentrates starts near the
                // deadline, producing the pre-deadline spike.
                let back: f64 = rng.gen::<f64>();
                let start_day = ((deadline - working_window_h * back * back) / 24.0)
                    .floor()
                    .max(0.0);
                let mut arrival_h = start_day * 24.0 + diurnal_hour(&mut rng);
                for submission in 0..submissions {
                    if submission > 0 {
                        let u: f64 = rng.gen::<f64>();
                        let progressed = arrival_h - self.rework_gap_h * (1.0 - u).max(1e-12).ln();
                        // Re-snap the hour of day so resubmissions also
                        // follow the diurnal curve, never moving
                        // backwards for this student.
                        let snapped = (progressed / 24.0).floor() * 24.0 + diurnal_hour(&mut rng);
                        arrival_h = snapped.max(arrival_h + 0.25);
                    }
                    let factor = if submission == 0 {
                        1.0
                    } else {
                        self.resubmission_factor
                    };
                    trace.push(HubArrival {
                        university,
                        arrival_h: arrival_h.min(self.horizon_h()),
                        tier,
                        service_h: self.service_hours[class] * factor,
                    });
                }
            }
        }
        trace.sort_by(|a, b| a.arrival_h.total_cmp(&b.arrival_h));
        trace
    }

    /// Runs the semester through the admission-controlled hub DES on
    /// `servers` compute servers under [`SemesterSpec::policy`],
    /// dispatching by weighted fair share.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from the simulator (zero servers; the
    /// built-in 3-tier policy always validates).
    pub fn simulate(&self, servers: usize) -> Result<ScenarioResult, ConfigError> {
        let model = HubModel {
            admission: self.policy(),
            dispatch: Dispatch::FairShare,
            ..HubModel::new(servers, 0.0)
        };
        simulate_hub(&self.arrival_trace(), &model, &Tracer::disabled())
    }

    /// EUR per *enabled* student for the whole semester: the semester's
    /// share of the hub's yearly cost (horizon over a year), divided by
    /// the students whose submissions actually completed (students
    /// scaled by the aggregate completion fraction).
    #[must_use]
    pub fn cost_per_enabled_student_eur(
        &self,
        servers: usize,
        result: &ScenarioResult,
        model: &InfrastructureCostModel,
    ) -> f64 {
        let semester_cost =
            model.hub_cost_eur_per_year(servers) * self.horizon_h() / (365.0 * 24.0);
        let offered: usize = result.tiers.iter().map(|t| t.offered).sum();
        let completed: usize = result.tiers.iter().map(|t| t.completed).sum();
        let enabled = self.total_students() as f64 * completed as f64 / offered.max(1) as f64;
        semester_cost / enabled.max(1.0)
    }

    /// Per-tier EUR per enabled student: the semester cost allocated by
    /// each tier's share of *completed* service hours, divided by that
    /// tier's enabled students (head count scaled by its completion
    /// fraction). Indexed by [`AccessTier::priority`].
    #[must_use]
    pub fn tier_cost_per_enabled_student_eur(
        &self,
        servers: usize,
        result: &ScenarioResult,
        model: &InfrastructureCostModel,
    ) -> [f64; 3] {
        let semester_cost =
            model.hub_cost_eur_per_year(servers) * self.horizon_h() / (365.0 * 24.0);
        // Mean service per submission: one fresh run plus discounted
        // resubmissions, averaged over the tier's submission count.
        let per_submission: Vec<f64> = (0..3)
            .map(|class| {
                let mean_subs = (f64::from(self.max_submissions[class]) + 1.0) / 2.0;
                self.service_hours[class] * (1.0 + (mean_subs - 1.0) * self.resubmission_factor)
                    / mean_subs
            })
            .collect();
        let tier_service: Vec<f64> = (0..3)
            .map(|class| result.tiers[class].completed as f64 * per_submission[class])
            .collect();
        let total_service: f64 = tier_service.iter().sum();
        let mut costs = [0.0f64; 3];
        for class in 0..3 {
            let share = tier_service[class] / total_service.max(1e-9);
            let enabled = self.students[class] as f64 * result.tiers[class].completed as f64
                / result.tiers[class].offered.max(1) as f64;
            costs[class] = semester_cost * share / enabled.max(1.0);
        }
        costs
    }
}

/// Draws an hour-of-day (with sub-hour fraction) from the diurnal curve.
fn diurnal_hour(rng: &mut StdRng) -> f64 {
    let total: f64 = DIURNAL.iter().sum();
    let mut target = rng.gen::<f64>() * total;
    for (hour, weight) in DIURNAL.iter().enumerate() {
        if target < *weight {
            return hour as f64 + rng.gen::<f64>();
        }
        target -= weight;
    }
    23.0 + rng.gen::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_sorted() {
        let spec = SemesterSpec::tiered(500, 7);
        let a = spec.arrival_trace();
        let b = spec.arrival_trace();
        assert_eq!(a, b, "same seed, same trace");
        assert!(a.windows(2).all(|w| w[0].arrival_h <= w[1].arrival_h));
        let c = SemesterSpec::tiered(500, 8).arrival_trace();
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn population_splits_and_resubmissions_shape_the_trace() {
        let spec = SemesterSpec::tiered(1_000, 3);
        assert_eq!(spec.students.iter().sum::<usize>(), 1_000);
        assert_eq!(spec.students[0], 700);
        let trace = spec.arrival_trace();
        // Mean submissions/student is (4+1)/2 .. (8+1)/2 per tier.
        assert!(trace.len() > 2 * spec.total_students());
        assert!(trace.len() < 5 * spec.total_students());
        // Resubmissions carry the discounted service demand.
        let fresh = trace
            .iter()
            .filter(|a| a.tier == AccessTier::Beginner)
            .filter(|a| (a.service_h - spec.service_hours[0]).abs() < 1e-12)
            .count();
        assert!(fresh >= spec.students[0], "every student runs fresh once");
    }

    #[test]
    fn deadline_weeks_spike_above_mid_semester_weeks() {
        let spec = SemesterSpec::tiered(2_000, 11);
        let trace = spec.arrival_trace();
        let week_of = |h: f64| (h / WEEK_H) as usize;
        let mut per_week = vec![0usize; spec.weeks as usize + 1];
        for arrival in &trace {
            per_week[week_of(arrival.arrival_h).min(spec.weeks as usize)] += 1;
        }
        // Weeks 4, 8 and 13 carry deadlines; week 6 is mid-cycle.
        assert!(per_week[3] > 3 * per_week[5].max(1));
        assert!(per_week[7] > 3 * per_week[5].max(1));
    }

    #[test]
    fn diurnal_curve_prefers_afternoons_over_nights() {
        let spec = SemesterSpec::tiered(5_000, 5);
        let trace = spec.arrival_trace();
        let hour_count = |h: usize| {
            trace
                .iter()
                .filter(|a| (a.arrival_h % 24.0) as usize == h)
                .count()
        };
        assert!(hour_count(15) > 3 * hour_count(3).max(1));
    }

    #[test]
    fn simulate_runs_the_des_end_to_end() {
        let spec = SemesterSpec::tiered(300, 2);
        let servers = spec.recommended_servers(0.8);
        let result = spec.simulate(servers).expect("3-tier policy");
        let offered: usize = result.tiers.iter().map(|t| t.offered).sum();
        assert_eq!(offered, spec.arrival_trace().len());
        assert!(result.completed > 0);
    }
}
