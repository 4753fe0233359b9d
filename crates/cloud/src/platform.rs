//! Local-vs-centralized enablement queueing simulation (Rec. 7).

use crate::error::ConfigError;
use crate::queue::EventQueue;
use crate::tier::AccessTier;
use chipforge_admit::{Admission, AdmissionPolicy, Dispatch, Scheduler};
use chipforge_obs::{SpanId, Tracer};
use chipforge_resil::OutagePlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Scale for mapping simulated hours onto trace-time microseconds: one
/// virtual hour renders as one second in a trace viewer.
pub const VIRTUAL_US_PER_HOUR: f64 = 1_000_000.0;

/// Workload description shared by both scenarios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of university groups.
    pub universities: usize,
    /// Flow jobs submitted per group.
    pub jobs_per_university: usize,
    /// Mean inter-arrival time between a group's jobs, in hours.
    pub mean_interarrival_h: f64,
    /// RNG seed.
    pub seed: u64,
    /// Tier mix as probabilities `[beginner, intermediate, advanced]`
    /// (normalized internally).
    pub tier_mix: [f64; 3],
    /// Measured mean service hours per tier, overriding the tiers'
    /// modelled [`AccessTier::mean_job_hours`]. Set by the E14
    /// calibration path from batch-engine measurements.
    pub service_hours_override: Option<[f64; 3]>,
}

impl WorkloadSpec {
    /// A workload with the default tier mix (60/30/10).
    #[must_use]
    pub fn new(
        universities: usize,
        jobs_per_university: usize,
        mean_interarrival_h: f64,
        seed: u64,
    ) -> Self {
        Self {
            universities,
            jobs_per_university,
            mean_interarrival_h,
            seed,
            tier_mix: [0.6, 0.3, 0.1],
            service_hours_override: None,
        }
    }

    /// Replaces the modelled per-tier mean service hours with measured
    /// values `[beginner, intermediate, advanced]`.
    #[must_use]
    pub fn with_tier_service_hours(mut self, hours: [f64; 3]) -> Self {
        self.service_hours_override = Some(hours);
        self
    }

    /// Validates every numeric field up front, so a NaN rate or a
    /// negative service time is reported as a typed [`ConfigError`]
    /// naming the field instead of panicking (or asserting) somewhere
    /// inside the event loop.
    ///
    /// # Errors
    ///
    /// Returns the first offending field found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.universities == 0 {
            return Err(ConfigError::NonPositive {
                field: "universities",
                value: 0.0,
            });
        }
        let rate = self.mean_interarrival_h;
        if !rate.is_finite() {
            return Err(ConfigError::NonFinite {
                field: "mean_interarrival_h",
                value: rate,
            });
        }
        if rate <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "mean_interarrival_h",
                value: rate,
            });
        }
        for (i, share) in self.tier_mix.iter().enumerate() {
            if !share.is_finite() {
                return Err(ConfigError::NonFinite {
                    field: TIER_MIX_FIELDS[i],
                    value: *share,
                });
            }
            if *share < 0.0 {
                return Err(ConfigError::Negative {
                    field: TIER_MIX_FIELDS[i],
                    value: *share,
                });
            }
        }
        if self.tier_mix.iter().sum::<f64>() <= 0.0 {
            return Err(ConfigError::EmptyTierMix);
        }
        if let Some(hours) = self.service_hours_override {
            for (i, h) in hours.iter().enumerate() {
                if !h.is_finite() {
                    return Err(ConfigError::NonFinite {
                        field: SERVICE_FIELDS[i],
                        value: *h,
                    });
                }
                if *h <= 0.0 {
                    return Err(ConfigError::NonPositive {
                        field: SERVICE_FIELDS[i],
                        value: *h,
                    });
                }
            }
        }
        Ok(())
    }

    /// Mean service hours for a tier: the measured override when
    /// calibrated, the tier's modelled value otherwise.
    #[must_use]
    pub fn mean_service_hours(&self, tier: AccessTier) -> f64 {
        match self.service_hours_override {
            Some(hours) => hours[tier.priority() as usize],
            None => tier.mean_job_hours(),
        }
    }

    /// The workload's arrival trace, sorted by arrival time. The hub
    /// simulator consumes exactly this trace, and a load generator can
    /// replay it against a live `forge serve` hub, making the model and
    /// the real system comparable event for event (experiment E18).
    #[must_use]
    pub fn arrival_trace(&self) -> Vec<HubArrival> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total_mix: f64 = self.tier_mix.iter().sum();
        let mut trace = Vec::new();
        for university in 0..self.universities {
            let mut arrival_h = 0.0;
            for _ in 0..self.jobs_per_university {
                arrival_h += exponential(&mut rng, self.mean_interarrival_h);
                let pick = rng.gen::<f64>() * total_mix;
                let tier = if pick < self.tier_mix[0] {
                    AccessTier::Beginner
                } else if pick < self.tier_mix[0] + self.tier_mix[1] {
                    AccessTier::Intermediate
                } else {
                    AccessTier::Advanced
                };
                let service_h = exponential(&mut rng, self.mean_service_hours(tier));
                trace.push(HubArrival {
                    university,
                    arrival_h,
                    tier,
                    service_h,
                });
            }
        }
        // `total_cmp` keeps the sort total even on adversarial inputs;
        // `validate()` is how callers reject them with a useful error.
        trace.sort_by(|a, b| a.arrival_h.total_cmp(&b.arrival_h));
        trace
    }
}

const TIER_MIX_FIELDS: [&str; 3] = [
    "tier_mix[beginner]",
    "tier_mix[intermediate]",
    "tier_mix[advanced]",
];
const SERVICE_FIELDS: [&str; 3] = [
    "service_hours_override[beginner]",
    "service_hours_override[intermediate]",
    "service_hours_override[advanced]",
];

fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -mean * u.ln()
}

/// One job arrival in a hub workload trace: who submits, when, at
/// which access tier, and how much service it needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HubArrival {
    /// Submitting university group (0-based).
    pub university: usize,
    /// Arrival time in simulated hours from workload start.
    pub arrival_h: f64,
    /// Access tier the job is billed against.
    pub tier: AccessTier,
    /// Service demand in simulated hours.
    pub service_h: f64,
}

/// Per-tier accounting of one run, indexed by [`AccessTier::priority`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TierAdmitStats {
    /// Jobs that arrived for this tier.
    pub offered: usize,
    /// Jobs admitted into the queue (including ones later shed).
    pub admitted: usize,
    /// Jobs turned away — rate-limited or queue-full under
    /// [`chipforge_admit::OverflowPolicy::Reject`].
    pub rejected: usize,
    /// Admitted jobs displaced by newer arrivals under
    /// [`chipforge_admit::OverflowPolicy::ShedOldest`].
    pub shed: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Longest queue wait any dispatched job of this tier endured, in
    /// hours — the starvation indicator.
    pub max_wait_h: f64,
    /// High-water mark of this tier's queue depth.
    pub peak_depth: usize,
    /// Mean turnaround of this tier's completed jobs, in hours.
    pub mean_turnaround_h: f64,
    /// 99th-percentile turnaround of this tier's completed jobs, in
    /// hours (nearest-rank).
    pub p99_turnaround_h: f64,
}

/// Result of one simulated run, local or hub.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ScenarioResult {
    /// Jobs completed.
    pub completed: usize,
    /// Mean turnaround (submit to finish) in hours.
    pub mean_turnaround_h: f64,
    /// 95th-percentile turnaround in hours.
    pub p95_turnaround_h: f64,
    /// 99th-percentile turnaround in hours — the overload experiment's
    /// headline statistic (p95 hides a diverging tail for longer).
    pub p99_turnaround_h: f64,
    /// Total one-time enablement/setup effort across the system, in
    /// expert-hours.
    pub setup_hours_total: f64,
    /// Mean busy fraction of the compute resources.
    pub utilization: f64,
    /// Jobs lost to server outages (only nonzero when
    /// [`HubModel::requeue`] is off).
    pub lost: usize,
    /// Server outage episodes over the simulated horizon.
    pub outages: usize,
    /// Simulated horizon (last event time) in hours; goodput is
    /// `completed / horizon_h`.
    pub horizon_h: f64,
    /// Per-tier statistics, indexed by [`AccessTier::priority`].
    pub tiers: [TierAdmitStats; 3],
}

/// Simulates per-university local setups: each group runs its own
/// single-server flow installation and must first spend `setup_hours`
/// bringing it up (the "availability is not enablement" cost).
///
/// # Errors
///
/// Returns a [`ConfigError`] if the workload fails
/// [`WorkloadSpec::validate`].
pub fn simulate_local(
    spec: &WorkloadSpec,
    setup_hours_per_university: f64,
) -> Result<ScenarioResult, ConfigError> {
    spec.validate()?;
    let trace = spec.arrival_trace();
    let mut server_free_at = vec![setup_hours_per_university; spec.universities];
    let mut busy = vec![0.0f64; spec.universities];
    let mut tiers = [TierAdmitStats::default(); 3];
    let mut turnaround = Vec::with_capacity(trace.len());
    let mut horizon = 0.0f64;
    for job in &trace {
        let u = job.university;
        let start = job.arrival_h.max(server_free_at[u]);
        let finish = start + job.service_h;
        server_free_at[u] = finish;
        busy[u] += job.service_h;
        let stats = &mut tiers[job.tier.priority() as usize];
        stats.offered += 1;
        stats.admitted += 1;
        stats.max_wait_h = stats.max_wait_h.max(start - job.arrival_h);
        turnaround.push(finish - job.arrival_h);
        horizon = horizon.max(finish);
    }
    Ok(ScenarioResult {
        setup_hours_total: setup_hours_per_university * spec.universities as f64,
        utilization: (busy.iter().sum::<f64>() / (horizon.max(1e-9) * spec.universities as f64))
            .clamp(0.0, 1.0),
        horizon_h: horizon,
        ..summarize(&trace, &turnaround, tiers)
    })
}

/// Everything the hub simulation is configured with besides its
/// arrival trace. Build one with [`HubModel::new`] and set the fields
/// that differ with struct-update syntax.
#[derive(Debug, Clone, PartialEq)]
pub struct HubModel {
    /// Parallel flow servers.
    pub servers: usize,
    /// The one shared setup effort, in expert-hours.
    pub setup_hours: f64,
    /// Per-tier queue bounds, overflow rule and rate limits; must cover
    /// exactly the three hub tiers.
    pub admission: AdmissionPolicy,
    /// How a free server picks the next waiting job; the classes are
    /// [`AccessTier::priority`] values.
    pub dispatch: Dispatch,
    /// Seeded server outage/repair plan; `None` keeps every server up.
    pub outage: Option<OutagePlan>,
    /// Whether a job interrupted by an outage goes back into its class
    /// (in its original arrival order) or is lost.
    pub requeue: bool,
}

impl HubModel {
    /// A strict-priority hub with unbounded queues and no outages.
    #[must_use]
    pub fn new(servers: usize, setup_hours: f64) -> Self {
        HubModel {
            servers,
            setup_hours,
            admission: AdmissionPolicy::unbounded(3),
            dispatch: Dispatch::StrictPriority,
            outage: None,
            requeue: true,
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.servers == 0 {
            return Err(ConfigError::NonPositive {
                field: "servers",
                value: 0.0,
            });
        }
        if self.admission.classes() != 3 {
            return Err(ConfigError::TierClassMismatch {
                got: self.admission.classes(),
            });
        }
        Ok(())
    }
}

/// Simulates a centralized hub: one shared setup, `model.servers`
/// parallel flow servers, and the jobs of `trace`.
///
/// Admission and dispatch are one [`Scheduler`] driven on virtual hours:
/// arrivals pass an optional per-tier token bucket, then a bounded
/// per-tier queue that rejects or sheds on overflow, and a free server
/// (the lowest-indexed one) takes the next job by `model.dispatch`.
/// Under an outage plan servers alternate seeded up/repair episodes; an
/// outage interrupts the running job, which is requeued or lost, and its
/// stale completion event is discarded.
///
/// With an enabled tracer, queue waits and service intervals become
/// virtual-time spans (one track per university,
/// [`VIRTUAL_US_PER_HOUR`] microseconds per simulated hour), arrivals,
/// outages and requeues become instants, admission decisions count into
/// `admit.rejected` / `admit.shed`, and per-tier queue depths are
/// exported as `admit.queue_depth.<tier>` gauges. Tracing never changes
/// the result.
///
/// # Errors
///
/// Returns a [`ConfigError`] for a model with no servers or an
/// admission policy that does not cover exactly the three hub tiers,
/// and for a trace with a non-finite or negative time.
pub fn simulate_hub(
    trace: &[HubArrival],
    model: &HubModel,
    tracer: &Tracer,
) -> Result<ScenarioResult, ConfigError> {
    model.validate()?;
    validate_trace(trace)?;
    let mut hub = Hub::new(trace, model, tracer);
    while hub.remaining > 0 {
        let Some((now, event)) = hub.events.pop() else {
            break;
        };
        hub.horizon = hub.horizon.max(now);
        match event {
            HubEvent::Arrival(job) => hub.arrive(job, now),
            HubEvent::Departure { server, epoch } => hub.depart(server, epoch, now),
            HubEvent::ServerDown(server) => hub.server_down(server, now),
            HubEvent::ServerUp(server) => hub.server_up(server, now),
        }
        hub.dispatch(now);
        if tracer.is_enabled() {
            for tier in AccessTier::ALL {
                tracer.set_gauge(
                    &format!("admit.queue_depth.{tier}"),
                    hub.scheduler.depth(tier.priority() as usize) as f64,
                );
            }
        }
    }
    Ok(hub.finish())
}

fn validate_trace(trace: &[HubArrival]) -> Result<(), ConfigError> {
    for job in trace {
        for (field, value) in [("arrival_h", job.arrival_h), ("service_h", job.service_h)] {
            if !value.is_finite() {
                return Err(ConfigError::NonFinite { field, value });
            }
            if value < 0.0 {
                return Err(ConfigError::Negative { field, value });
            }
        }
    }
    Ok(())
}

#[derive(Debug)]
enum HubEvent {
    Arrival(usize),
    /// A service completion on `server`. Stale departures — scheduled
    /// before the server's last outage — carry an old `epoch` and are
    /// ignored.
    Departure {
        server: usize,
        epoch: u64,
    },
    ServerDown(usize),
    ServerUp(usize),
}

/// One hub flow server.
#[derive(Default)]
struct Server {
    down: bool,
    /// Bumped on every outage so in-flight departures become stale.
    epoch: u64,
    /// Completed outage/repair cycles, indexing into the outage plan.
    episodes: u64,
    /// The job being served and when its service started.
    running: Option<(Waiting, f64)>,
}

/// A job in a class queue or on a server, with its arrival order: a
/// requeued job goes back in at that position.
struct Waiting {
    job: usize,
    seq: usize,
}

/// The state of one hub run; one method per event kind.
struct Hub<'a> {
    trace: &'a [HubArrival],
    model: &'a HubModel,
    tracer: &'a Tracer,
    root: SpanId,
    events: EventQueue<HubEvent>,
    pool: Vec<Server>,
    /// Lowest index on top. An entry goes stale when its server goes
    /// down or takes a job; [`Hub::free_server`] drops stale tops, so a
    /// lookup stays O(log servers).
    free: BinaryHeap<Reverse<usize>>,
    scheduler: Scheduler<Waiting>,
    /// Per-job turnaround; NaN until the job completes.
    turnaround: Vec<f64>,
    arrivals: usize,
    /// Jobs not yet completed, lost, rejected or shed.
    remaining: usize,
    busy: f64,
    horizon: f64,
    lost: usize,
    outages: usize,
}

impl<'a> Hub<'a> {
    fn new(trace: &'a [HubArrival], model: &'a HubModel, tracer: &'a Tracer) -> Self {
        let mut events = EventQueue::new();
        for (i, job) in trace.iter().enumerate() {
            events.push(job.arrival_h, HubEvent::Arrival(i));
        }
        if let Some(plan) = model.outage {
            for s in 0..model.servers {
                events.push(plan.uptime_h(s, 0), HubEvent::ServerDown(s));
            }
        }
        let hub = Hub {
            trace,
            model,
            tracer,
            root: tracer.reserve_span(),
            events,
            pool: std::iter::repeat_with(Server::default)
                .take(model.servers)
                .collect(),
            free: (0..model.servers).map(Reverse).collect(),
            scheduler: Scheduler::new(model.admission.clone(), model.dispatch),
            turnaround: vec![f64::NAN; trace.len()],
            arrivals: 0,
            remaining: trace.len(),
            busy: 0.0,
            horizon: 0.0,
            lost: 0,
            outages: 0,
        };
        if tracer.is_enabled() {
            tracer.set_track_name(0, "hub");
            let universities = trace.iter().map(|a| a.university + 1).max().unwrap_or(0);
            for u in 0..universities {
                tracer.set_track_name(u + 1, &format!("uni-{u}"));
            }
            for (i, job) in trace.iter().enumerate() {
                let detail = format!("job {i}, priority {}", job.tier.priority());
                hub.instant("arrival", job.university + 1, job.arrival_h, &detail);
            }
        }
        hub
    }

    fn arrive(&mut self, job: usize, now: f64) {
        let class = self.trace[job].tier.priority() as usize;
        let item = Waiting {
            job,
            seq: self.arrivals,
        };
        self.arrivals += 1;
        let turned_away = match self.scheduler.offer(class, item, now) {
            Admission::Admitted => return,
            Admission::RateLimited(_) | Admission::Rejected(_) => "admit.rejected",
            Admission::Shed(_) => "admit.shed",
        };
        self.remaining -= 1;
        self.tracer.add(turned_away, 1);
    }

    fn depart(&mut self, server: usize, epoch: u64, now: f64) {
        // Only the epoch the departure was scheduled under may complete
        // it; outages have bumped it otherwise.
        if self.pool[server].epoch != epoch {
            return;
        }
        let Some((run, start)) = self.pool[server].running.take() else {
            return;
        };
        let job = &self.trace[run.job];
        self.busy += job.service_h;
        let turnaround = now - job.arrival_h;
        self.turnaround[run.job] = turnaround;
        self.remaining -= 1;
        self.free.push(Reverse(server));
        if self.tracer.is_enabled() {
            self.tracer.virtual_span(
                self.root,
                "service",
                "des",
                job.university + 1,
                start * VIRTUAL_US_PER_HOUR,
                job.service_h * VIRTUAL_US_PER_HOUR,
                &format!("job {}, priority {}", run.job, job.tier.priority()),
            );
            self.tracer.observe("cloud.turnaround_h", turnaround);
            self.tracer.add("cloud.jobs", 1);
        }
    }

    fn server_down(&mut self, s: usize, now: f64) {
        let plan = self.model.outage.expect("outages come from a plan");
        let server = &mut self.pool[s];
        if server.down {
            return;
        }
        server.down = true;
        server.epoch += 1;
        self.outages += 1;
        self.events.push(
            now + plan.repair_h(s, server.episodes),
            HubEvent::ServerUp(s),
        );
        let interrupted = server.running.take();
        self.instant("server-down", 0, now, &format!("server {s}"));
        self.tracer.add("cloud.outages", 1);
        let Some((run, start)) = interrupted else {
            return;
        };
        self.busy += now - start;
        let job = &self.trace[run.job];
        let (track, detail) = (job.university + 1, format!("job {}", run.job));
        if self.model.requeue {
            let class = job.tier.priority() as usize;
            self.scheduler.requeue(class, run, now, |w| w.seq);
            self.instant("requeue", track, now, &detail);
            self.tracer.add("cloud.requeued", 1);
        } else {
            self.lost += 1;
            self.remaining -= 1;
            self.instant("job-lost", track, now, &detail);
            self.tracer.add("cloud.jobs_lost", 1);
        }
    }

    fn server_up(&mut self, s: usize, now: f64) {
        let plan = self.model.outage.expect("outages come from a plan");
        let server = &mut self.pool[s];
        if !server.down {
            return;
        }
        server.down = false;
        server.episodes += 1;
        // Only chain the next outage while work remains, so an idle
        // simulation terminates.
        if self.remaining > 0 {
            let next = now + plan.uptime_h(s, server.episodes);
            self.events.push(next, HubEvent::ServerDown(s));
        }
        self.free.push(Reverse(s));
        self.instant("server-up", 0, now, &format!("server {s}"));
    }

    /// Hands waiting jobs to free servers until one side runs out.
    fn dispatch(&mut self, now: f64) {
        while let Some(server) = self.free_server() {
            let Some((class, run, ready)) = self.scheduler.next(now) else {
                break;
            };
            self.free.pop();
            let job = &self.trace[run.job];
            let wait = now - ready;
            self.scheduler.charge(class, job.service_h);
            let epoch = self.pool[server].epoch;
            self.events
                .push(now + job.service_h, HubEvent::Departure { server, epoch });
            if self.tracer.is_enabled() {
                if wait > 0.0 {
                    self.tracer.virtual_span(
                        self.root,
                        "queue",
                        "des",
                        job.university + 1,
                        ready * VIRTUAL_US_PER_HOUR,
                        wait * VIRTUAL_US_PER_HOUR,
                        &format!("job {}", run.job),
                    );
                }
                self.tracer.observe("cloud.queue_wait_h", wait);
            }
            self.pool[server].running = Some((run, now));
        }
    }

    /// The lowest-indexed server that is up and idle.
    fn free_server(&mut self) -> Option<usize> {
        while let Some(&Reverse(s)) = self.free.peek() {
            if !self.pool[s].down && self.pool[s].running.is_none() {
                return Some(s);
            }
            self.free.pop();
        }
        None
    }

    fn instant(&self, name: &str, track: usize, at_h: f64, detail: &str) {
        self.tracer
            .virtual_instant(name, "des", track, at_h * VIRTUAL_US_PER_HOUR, detail);
    }

    fn finish(self) -> ScenarioResult {
        if self.tracer.is_enabled() {
            self.tracer.record_virtual_span(
                self.root,
                SpanId::NONE,
                "hub",
                "des",
                0,
                0.0,
                self.horizon * VIRTUAL_US_PER_HOUR,
                &format!("{} servers, {} jobs", self.model.servers, self.trace.len()),
            );
        }
        let tiers = std::array::from_fn(|class| {
            let stats = self.scheduler.stats(class);
            TierAdmitStats {
                offered: stats.offered,
                admitted: stats.admitted,
                rejected: stats.rejected,
                shed: stats.shed,
                max_wait_h: stats.max_wait,
                peak_depth: stats.peak_depth,
                ..TierAdmitStats::default()
            }
        });
        let capacity = self.horizon.max(1e-9) * self.model.servers as f64;
        ScenarioResult {
            setup_hours_total: self.model.setup_hours,
            utilization: (self.busy / capacity).clamp(0.0, 1.0),
            lost: self.lost,
            outages: self.outages,
            horizon_h: self.horizon,
            ..summarize(self.trace, &self.turnaround, tiers)
        }
    }
}

/// One pass over per-job turnarounds (NaN for jobs that never
/// completed, in trace order) fills the turnaround totals and the
/// per-tier numbers; the caller sets the run-level fields left at zero.
fn summarize(
    trace: &[HubArrival],
    turnaround: &[f64],
    mut tiers: [TierAdmitStats; 3],
) -> ScenarioResult {
    let mut all = Vec::with_capacity(turnaround.len());
    let mut by_tier: [Vec<f64>; 3] = Default::default();
    for (job, &t) in trace.iter().zip(turnaround) {
        if !t.is_nan() {
            all.push(t);
            by_tier[job.tier.priority() as usize].push(t);
        }
    }
    for (stats, list) in tiers.iter_mut().zip(&mut by_tier) {
        stats.completed = list.len();
        stats.mean_turnaround_h = mean(list);
        list.sort_by(f64::total_cmp);
        stats.p99_turnaround_h = percentile(list, 0.99);
    }
    let mean_turnaround_h = mean(&all);
    all.sort_by(f64::total_cmp);
    ScenarioResult {
        completed: all.len(),
        mean_turnaround_h,
        p95_turnaround_h: percentile(&all, 0.95),
        p99_turnaround_h: percentile(&all, 0.99),
        tiers,
        ..ScenarioResult::default()
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Percentile of an ascending-sorted sample (nearest-rank).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() as f64 * q) as usize).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new(8, 30, 48.0, 7)
    }

    fn hub(spec: &WorkloadSpec, model: &HubModel) -> ScenarioResult {
        simulate_hub(&spec.arrival_trace(), model, &Tracer::disabled()).unwrap()
    }

    fn local(spec: &WorkloadSpec, setup_hours: f64) -> ScenarioResult {
        simulate_local(spec, setup_hours).unwrap()
    }

    fn fair_share(servers: usize, admission: AdmissionPolicy) -> HubModel {
        HubModel {
            admission,
            dispatch: Dispatch::FairShare,
            ..HubModel::new(servers, 0.0)
        }
    }

    fn shaky(servers: usize, requeue: bool) -> HubModel {
        HubModel {
            outage: Some(OutagePlan::new(9, 150.0, 24.0)),
            requeue,
            ..HubModel::new(servers, 0.0)
        }
    }

    #[test]
    fn both_scenarios_complete_all_jobs() {
        let s = spec();
        assert_eq!(local(&s, 400.0).completed, 8 * 30);
        assert_eq!(hub(&s, &HubModel::new(8, 400.0)).completed, 8 * 30);
    }

    #[test]
    fn hub_needs_one_setup_instead_of_n() {
        let s = spec();
        let central = hub(&s, &HubModel::new(8, 400.0));
        assert!((local(&s, 400.0).setup_hours_total - 3200.0).abs() < 1e-9);
        assert!((central.setup_hours_total - 400.0).abs() < 1e-9);
    }

    #[test]
    fn hub_with_equal_capacity_has_lower_turnaround() {
        // Statistical multiplexing: shared servers beat dedicated ones at
        // the same total capacity when load is bursty.
        let s = WorkloadSpec::new(8, 40, 24.0, 3);
        let dedicated = local(&s, 0.0);
        let central = hub(&s, &HubModel::new(8, 0.0));
        assert!(
            central.mean_turnaround_h < dedicated.mean_turnaround_h,
            "hub {} vs local {}",
            central.mean_turnaround_h,
            dedicated.mean_turnaround_h
        );
    }

    #[test]
    fn more_servers_reduce_turnaround() {
        let s = WorkloadSpec::new(12, 40, 12.0, 5);
        let small = hub(&s, &HubModel::new(2, 0.0));
        let big = hub(&s, &HubModel::new(12, 0.0));
        assert!(big.mean_turnaround_h < small.mean_turnaround_h);
        assert!(big.utilization < small.utilization);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let s = spec();
        let model = HubModel::new(4, 10.0);
        assert_eq!(hub(&s, &model), hub(&s, &model));
        let mut other = spec();
        other.seed = 99;
        assert_ne!(
            hub(&s, &model).mean_turnaround_h,
            hub(&other, &model).mean_turnaround_h
        );
    }

    #[test]
    fn beginner_jobs_jump_the_queue() {
        // With a saturated hub, beginner-heavy mixes see better p95 than
        // advanced-heavy ones thanks to priority.
        let mut beginners = WorkloadSpec::new(6, 40, 4.0, 11);
        beginners.tier_mix = [1.0, 0.0, 0.0];
        let mut advanced = WorkloadSpec::new(6, 40, 4.0, 11);
        advanced.tier_mix = [0.0, 0.0, 1.0];
        let model = HubModel::new(2, 0.0);
        assert!(
            hub(&beginners, &model).mean_turnaround_h < hub(&advanced, &model).mean_turnaround_h
        );
    }

    #[test]
    fn measured_service_hours_override_the_tier_model() {
        let s = spec();
        let calibrated = spec().with_tier_service_hours([0.05, 0.4, 2.4]);
        assert_eq!(
            calibrated.mean_service_hours(AccessTier::Advanced),
            2.4,
            "override wins"
        );
        assert_eq!(
            s.mean_service_hours(AccessTier::Advanced),
            AccessTier::Advanced.mean_job_hours(),
            "uncalibrated specs keep the modelled hours"
        );
        // Shorter measured jobs must shorten simulated turnaround.
        let model = HubModel::new(4, 0.0);
        assert!(hub(&calibrated, &model).mean_turnaround_h < hub(&s, &model).mean_turnaround_h);
    }

    #[test]
    fn traced_hub_emits_virtual_time_spans() {
        let s = WorkloadSpec::new(3, 5, 12.0, 7);
        let model = HubModel::new(2, 0.0);
        let tracer = Tracer::new();
        let traced = simulate_hub(&s.arrival_trace(), &model, &tracer).unwrap();
        assert_eq!(traced, hub(&s, &model), "tracing is inert");

        let spans = tracer.spans();
        let root = spans
            .iter()
            .find(|sp| sp.category == "des" && sp.name == "hub")
            .expect("hub root span");
        let services: Vec<_> = spans
            .iter()
            .filter(|sp| sp.category == "des" && sp.name == "service")
            .collect();
        assert_eq!(services.len(), 15, "one service span per job");
        for service in &services {
            assert_eq!(service.parent, root.id);
            assert!(service.track >= 1 && service.track <= 3);
            assert!(service.dur_us > 0.0);
            assert!(service.end_us() <= root.end_us() + 1e-6);
        }
        // Queue spans only exist for jobs that actually waited, and
        // always precede their service on the same virtual timeline.
        for q in spans.iter().filter(|sp| sp.name == "queue") {
            assert!(q.dur_us > 0.0);
        }
        assert_eq!(tracer.instants().len(), 15, "one arrival per job");
        let snap = tracer.snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .find(|c| c.name == "cloud.jobs")
                .unwrap()
                .value,
            15
        );
        let turnaround = snap
            .histograms
            .iter()
            .find(|h| h.name == "cloud.turnaround_h")
            .expect("turnaround histogram");
        assert_eq!(turnaround.summary.count, 15);
        assert!((turnaround.summary.mean - traced.mean_turnaround_h).abs() < 1e-6);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let r = hub(&spec(), &HubModel::new(3, 0.0));
        assert!((0.0..=1.0).contains(&r.utilization));
    }

    #[test]
    fn zero_servers_is_a_named_error_not_nan() {
        let nobody = fair_share(0, AdmissionPolicy::bounded(3, 4));
        let err = simulate_hub(&spec().arrival_trace(), &nobody, &Tracer::disabled());
        let field = "servers";
        assert_eq!(err, Err(ConfigError::NonPositive { field, value: 0.0 }));
    }

    #[test]
    fn zero_universities_is_a_named_error_not_nan() {
        let s = WorkloadSpec::new(0, 30, 48.0, 7);
        let field = "universities";
        assert_eq!(
            simulate_local(&s, 400.0),
            Err(ConfigError::NonPositive { field, value: 0.0 })
        );
    }

    #[test]
    fn outages_with_requeue_complete_every_job_but_slower() {
        let s = spec();
        let healthy = hub(&s, &HubModel::new(4, 0.0));
        let r = hub(&s, &shaky(4, true));
        assert_eq!(r.completed, 8 * 30, "requeueing loses no jobs");
        assert_eq!(r.lost, 0);
        assert!(r.outages > 0, "the outage plan fired");
        assert!(
            r.mean_turnaround_h > healthy.mean_turnaround_h,
            "outages cost turnaround: {} vs {}",
            r.mean_turnaround_h,
            healthy.mean_turnaround_h
        );
    }

    #[test]
    fn outages_without_requeue_lose_interrupted_jobs() {
        let r = hub(&spec(), &shaky(4, false));
        assert!(r.lost > 0, "interrupted jobs are lost without requeue");
        assert_eq!(r.completed + r.lost, 8 * 30, "every job is accounted for");
    }

    #[test]
    fn validate_names_the_broken_field() {
        let mut s = spec();
        s.mean_interarrival_h = f64::NAN;
        assert!(matches!(
            s.validate(),
            Err(ConfigError::NonFinite {
                field: "mean_interarrival_h",
                ..
            })
        ));
        let mut s = spec();
        s.mean_interarrival_h = -2.0;
        assert!(matches!(
            s.validate(),
            Err(ConfigError::NonPositive {
                field: "mean_interarrival_h",
                ..
            })
        ));
        let mut s = spec();
        s.tier_mix = [0.5, -0.1, 0.6];
        assert!(matches!(
            s.validate(),
            Err(ConfigError::Negative {
                field: "tier_mix[intermediate]",
                ..
            })
        ));
        let mut s = spec();
        s.tier_mix = [0.0, 0.0, 0.0];
        assert_eq!(s.validate(), Err(ConfigError::EmptyTierMix));
        let s = spec().with_tier_service_hours([0.05, f64::INFINITY, 2.4]);
        assert!(matches!(
            s.validate(),
            Err(ConfigError::NonFinite {
                field: "service_hours_override[intermediate]",
                ..
            })
        ));
        assert_eq!(spec().validate(), Ok(()));
    }

    #[test]
    fn admitted_rejects_bad_specs_instead_of_panicking() {
        let mut bad = spec();
        bad.mean_interarrival_h = f64::NAN;
        let model = HubModel::new(4, 0.0);
        let err = simulate_hub(&bad.arrival_trace(), &model, &Tracer::disabled());
        let field = "arrival_h";
        assert!(matches!(err, Err(ConfigError::NonFinite { field: f, .. }) if f == field));
        let wrong = HubModel {
            admission: AdmissionPolicy::unbounded(2),
            ..model
        };
        let err = simulate_hub(&spec().arrival_trace(), &wrong, &Tracer::disabled());
        assert_eq!(err, Err(ConfigError::TierClassMismatch { got: 2 }));
    }

    #[test]
    fn unbounded_admission_completes_every_job() {
        let r = hub(&spec(), &fair_share(4, AdmissionPolicy::unbounded(3)));
        assert_eq!(r.completed, 8 * 30);
        let offered: usize = r.tiers.iter().map(|t| t.offered).sum();
        assert_eq!(offered, 8 * 30);
        assert_eq!(r.tiers.iter().map(|t| t.rejected).sum::<usize>(), 0);
        assert!(r.p99_turnaround_h >= r.p95_turnaround_h);
    }

    #[test]
    fn bounded_queues_shed_load_under_saturation() {
        // 2 servers, fast arrivals: far more work than capacity.
        let s = WorkloadSpec::new(8, 40, 2.0, 13);
        let r = hub(
            &s,
            &fair_share(2, AdmissionPolicy::bounded(3, 4).with_aging(0.1)),
        );
        let rejected: usize = r.tiers.iter().map(|t| t.rejected).sum();
        assert!(rejected > 0, "saturation must reject work");
        for t in &r.tiers {
            assert!(t.peak_depth <= 4, "queue depth bounded by capacity");
            assert_eq!(
                t.offered,
                t.admitted + t.rejected,
                "every arrival accounted"
            );
            assert_eq!(
                t.completed + t.shed,
                t.admitted,
                "every admitted job accounted"
            );
        }
        let u = hub(&s, &fair_share(2, AdmissionPolicy::unbounded(3)));
        assert!(
            r.p99_turnaround_h < u.p99_turnaround_h,
            "bounded p99 {} must beat unbounded {}",
            r.p99_turnaround_h,
            u.p99_turnaround_h
        );
    }

    #[test]
    fn shed_oldest_prefers_fresh_work() {
        let s = WorkloadSpec::new(8, 40, 2.0, 13);
        let r = hub(
            &s,
            &fair_share(2, AdmissionPolicy::bounded(3, 4).with_shed_oldest()),
        );
        let shed: usize = r.tiers.iter().map(|t| t.shed).sum();
        assert!(shed > 0, "saturation must shed work");
        assert_eq!(
            r.tiers.iter().map(|t| t.rejected).sum::<usize>(),
            0,
            "shed-oldest admits every newcomer"
        );
    }

    #[test]
    fn rate_limit_throttles_one_tier() {
        let mut s = WorkloadSpec::new(6, 30, 4.0, 17);
        s.tier_mix = [0.0, 0.0, 1.0];
        let limited = AdmissionPolicy::unbounded(3).with_rate_limit(
            2,
            chipforge_admit::RateLimit {
                rate: 0.05,
                burst: 2.0,
            },
        );
        let r = hub(&s, &fair_share(4, limited));
        assert!(
            r.tiers[2].rejected > 0,
            "rate limiter must throttle the flood"
        );
        assert_eq!(r.tiers[0].rejected + r.tiers[1].rejected, 0);
    }

    #[test]
    fn fair_share_with_aging_bounds_beginner_waits() {
        // Advanced-heavy saturating mix: strict priority would serve
        // beginners first anyway, but fair share must ALSO keep the
        // advanced tier moving; weights favoring beginners must keep
        // their max wait well under the advanced one.
        let mut s = WorkloadSpec::new(8, 40, 3.0, 19);
        s.tier_mix = [0.3, 0.1, 0.6];
        let policy = AdmissionPolicy::unbounded(3)
            .with_weights(vec![6.0, 3.0, 1.0])
            .with_aging(0.2);
        let r = hub(&s, &fair_share(2, policy));
        assert_eq!(r.completed, 8 * 40);
        assert!(
            r.tiers[0].max_wait_h < r.tiers[2].max_wait_h,
            "beginner max wait {} must stay below advanced {}",
            r.tiers[0].max_wait_h,
            r.tiers[2].max_wait_h
        );
    }

    #[test]
    fn admitted_simulation_is_deterministic() {
        let s = WorkloadSpec::new(8, 40, 2.0, 13);
        let model = fair_share(
            2,
            AdmissionPolicy::bounded(3, 4)
                .with_shed_oldest()
                .with_aging(0.1),
        );
        assert_eq!(hub(&s, &model), hub(&s, &model));
    }

    #[test]
    fn admitted_tracing_is_inert_and_counts_decisions() {
        let s = WorkloadSpec::new(6, 20, 2.0, 13);
        let model = fair_share(2, AdmissionPolicy::bounded(3, 3));
        let tracer = Tracer::new();
        let traced = simulate_hub(&s.arrival_trace(), &model, &tracer).unwrap();
        assert_eq!(traced, hub(&s, &model), "tracing is inert");
        let snap = tracer.snapshot();
        let rejected: usize = traced.tiers.iter().map(|t| t.rejected).sum();
        let counted = snap
            .counters
            .iter()
            .find(|c| c.name == "admit.rejected")
            .map_or(0, |c| c.value);
        assert_eq!(counted as usize, rejected);
        assert!(
            snap.gauges
                .iter()
                .any(|g| g.name.starts_with("admit.queue_depth.")),
            "per-tier queue depth gauges are exported"
        );
    }

    #[test]
    fn outage_simulation_is_deterministic() {
        let s = spec();
        assert_eq!(hub(&s, &shaky(4, true)), hub(&s, &shaky(4, true)));
    }
}
