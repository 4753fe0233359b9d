//! `hub_open_loop`: seeded arrivals at a fixed rate against an
//! in-process hub server, spoken to over real sockets with the public
//! `serve::Client`. An *open* loop: a job is sent when it is due,
//! whether or not earlier ones have come back, and its turnaround runs
//! from its due time, so a stall is charged to every job it delays.

use crate::common::{
    check_outcome, end_to_end, num, reference_run, timed_setup, workers, Checker, Ctx, Digest,
    RunResult,
};
use crate::flow_probe::{stage_metric, stage_span};
use crate::inputs::{hub_schedule, Arrival, HUB_RATE_PER_S, TIER_KEYS};
use crate::micro;
use crate::stats;
use chipforge_flow::FlowStep;
use chipforge_serve::{Client, Hub, HubConfig, KeyRegistry, Server};
use serde::Value;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};

/// How often an outstanding job's status is asked for — the cadence of
/// `Client::wait`.
const POLL_EVERY: Duration = Duration::from_millis(10);
/// How long after the last arrival outstanding jobs may still finish.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// An in-process hub server that shuts down when dropped.
pub struct HubServer(Option<Server>);

impl HubServer {
    pub fn start(config: HubConfig) -> Self {
        let hub = Hub::new(config).expect("a hub without a journal starts");
        HubServer(Some(
            Server::start(hub, KeyRegistry::demo(), "127.0.0.1:0")
                .expect("an ephemeral loopback port binds"),
        ))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running until dropped").addr()
    }
}

impl Drop for HubServer {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

struct Inputs {
    schedule: Vec<Arrival>,
    server: HubServer,
}

fn clients(addr: SocketAddr) -> [Client; 3] {
    TIER_KEYS.map(|key| Client::new(addr.to_string(), key))
}

fn setup(seed: u64, seconds: f64) -> Inputs {
    let schedule = hub_schedule(seed, seconds);
    let server = HubServer::start(HubConfig {
        workers: workers(),
        queue_capacity: Some(64),
        ..HubConfig::default()
    });
    // One job per tier through the whole path warms the process up; its
    // `gen` seed lies outside the schedule's, so it primes no cache entry
    // the measured jobs could hit.
    let clients = clients(server.addr());
    for (tier, client) in clients.iter().enumerate() {
        let first = schedule.iter().find(|a| a.tier == tier);
        if let Some(arrival) = first {
            let mut warm = arrival.clone();
            warm.design = chipforge_gen::calibration_specs()[tier][0];
            warm.design.seed = u64::MAX - tier as u64;
            warm.clock_mhz = 50.0;
            if let Ok(Ok(id)) = client.submit(&warm.body()) {
                let _ = client.wait(id, Duration::from_secs(30));
            }
        }
    }
    Inputs { schedule, server }
}

/// What the submitter hands the poller for each accepted job.
struct Accepted {
    index: usize,
    id: u64,
    acked: Instant,
}

/// Everything the harness saw of one arrival.
#[derive(Default)]
struct Seen {
    /// Microseconds on the recorder's clock.
    sent_us: f64,
    acked_us: f64,
    seen_us: Option<f64>,
    polls: u32,
    refused: bool,
    /// The first terminal status JSON the poller saw.
    status: Option<Value>,
}

fn is_terminal(status: &Value) -> bool {
    !matches!(status.get("state").as_str(), Some("queued" | "running"))
}

pub fn run(ctx: &Ctx<'_>) -> RunResult {
    let (inputs, setup_s) = timed_setup(|| setup(ctx.seed, ctx.seconds));
    let Inputs { schedule, server } = &inputs;
    let rec = ctx.rec;
    let clients = clients(server.addr());
    let mut checker = Checker::default();
    let mut detail: Vec<(String, Value)> = Vec::new();
    let mut seen: Vec<Seen> = schedule.iter().map(|_| Seen::default()).collect();
    let mut status_rtt_ms: Vec<f64> = Vec::new();

    let root = rec.open("bench.hub_open_loop", None, 0, 0);
    let loop_started = Instant::now();
    let loop_started_us = rec.at_us(loop_started);
    let (to_poller, from_submitter) = mpsc::channel::<Accepted>();
    std::thread::scope(|scope| {
        let (clients, seconds) = (&clients, ctx.seconds);
        let poller = scope.spawn(move || {
            poll_until_done(&from_submitter, clients, schedule, loop_started, seconds)
        });
        // The submitter: this thread. It sleeps until each job is due
        // and never waits for a result.
        for (index, arrival) in schedule.iter().enumerate() {
            let due = loop_started + Duration::from_secs_f64(arrival.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let answer = clients[arrival.tier].submit(&arrival.body());
            let acked = Instant::now();
            seen[index].sent_us = rec.at_us(sent);
            seen[index].acked_us = rec.at_us(acked);
            match answer {
                Ok(Ok(id)) => {
                    let _ = to_poller.send(Accepted { index, id, acked });
                }
                _ => seen[index].refused = true,
            }
        }
        drop(to_poller);
        let (polled, rtts) = poller.join().expect("the poller does not panic");
        status_rtt_ms = rtts;
        for (index, done) in polled {
            seen[index].seen_us = done.seen.map(|at| rec.at_us(at));
            seen[index].polls = done.polls;
            seen[index].status = done.status;
        }
    });
    let last_seen_us = seen
        .iter()
        .filter_map(|s| s.seen_us)
        .fold(loop_started_us, f64::max);
    let hub_metrics = clients[0].metrics().ok();

    // Turnaround from the due time; a refused, failed or never-finished
    // job counts as infinitely late.
    let mut turnaround_ms: Vec<f64> = Vec::with_capacity(schedule.len());
    let mut by_identity: BTreeMap<String, Digest> = BTreeMap::new();
    for (arrival, s) in schedule.iter().zip(&seen) {
        let succeeded = s
            .status
            .as_ref()
            .is_some_and(|st| st.get("state").as_str() == Some("succeeded"));
        checker.operation(succeeded, || {
            let state = s.status.as_ref().and_then(|st| st.get("state").as_str());
            format!("{}: refused={} state={state:?}", arrival.design, s.refused)
        });
        let due_us = loop_started_us + arrival.due_s * 1e6;
        turnaround_ms.push(match (succeeded, s.seen_us) {
            (true, Some(seen_us)) => (seen_us - due_us) / 1e3,
            _ => f64::INFINITY,
        });
        // The same design and configuration must come back with the
        // same PPA and GDS however often it is submitted.
        if let Some(digest) = s.status.as_ref().and_then(Digest::of_status) {
            let first = by_identity
                .entry(arrival.identity())
                .or_insert_with(|| digest.clone());
            checker.check(*first == digest, || {
                format!("{}: a resubmission came back different", arrival.identity())
            });
        }
    }

    // One job per calibration design, re-run through `Pipeline::run`:
    // the hub must have returned the same artifact.
    let check_span = rec.open("bench.checks", root, 0, 0);
    let mut compared = std::collections::BTreeSet::new();
    for arrival in schedule.iter() {
        let mut family = arrival.design;
        family.seed = 0;
        if !compared.insert(family.to_string()) {
            continue;
        }
        let spec = serde::json::parse(&arrival.body())
            .ok()
            .and_then(|body| chipforge_serve::job_from_json(&body).ok());
        let direct = spec
            .as_ref()
            .and_then(|spec| reference_run(&spec.source, &spec.flow_config()));
        if let (Some(spec), Some(outcome)) = (&spec, &direct) {
            check_outcome(&mut checker, &spec.name, &spec.source, outcome);
        }
        let via_hub = by_identity.get(&arrival.identity());
        checker.check(
            via_hub.is_some() && via_hub == direct.as_ref().map(Digest::of_outcome).as_ref(),
            || format!("{}: hub and Pipeline::run disagree", arrival.identity()),
        );
    }
    rec.close(check_span);

    let lateness_ms: Vec<f64> = schedule
        .iter()
        .zip(&seen)
        .map(|(a, s)| (s.sent_us - loop_started_us) / 1e3 - a.due_s * 1e3)
        .collect();
    detail.push((
        "measured_s".into(),
        num(stats::median(&turnaround_ms) / 1e3),
    ));
    detail.push((
        "turnaround_ms".into(),
        crate::common::num_seq(&turnaround_ms),
    ));
    detail.push(("arrivals".into(), Value::U64(schedule.len() as u64)));
    detail.push(("rate_per_s".into(), num(HUB_RATE_PER_S)));
    detail.push((
        "generator_lateness_p95_ms".into(),
        num(stats::percentile(&lateness_ms, 95.0)),
    ));
    detail.push((
        "refused".into(),
        Value::U64(seen.iter().filter(|s| s.refused).count() as u64),
    ));

    let metrics = if ctx.traced() {
        let metrics = layer_metrics(
            ctx,
            schedule,
            &seen,
            &turnaround_ms,
            &lateness_ms,
            &status_rtt_ms,
            hub_metrics.as_ref(),
            loop_started_us,
            (last_seen_us - loop_started_us) / 1e3,
            root,
        );
        rec.close(root);
        metrics
    } else {
        rec.close(root);
        let completed = turnaround_ms.iter().filter(|t| t.is_finite()).count();
        let first_due_us = loop_started_us + schedule.first().map_or(0.0, |a| a.due_s) * 1e6;
        let jobs_per_s = completed as f64 / ((last_seen_us - first_due_us) / 1e6);
        end_to_end(setup_s, &[turnaround_ms], jobs_per_s, &mut detail)
    };
    RunResult {
        checker,
        metrics,
        detail,
    }
}

struct Polled {
    seen: Option<Instant>,
    polls: u32,
    status: Option<Value>,
}

/// The poller thread: asks for every outstanding job's status every
/// [`POLL_EVERY`], starting the moment the job was accepted, until each
/// is terminal (or [`DRAIN_LIMIT`] after the last arrival has passed).
fn poll_until_done(
    accepted: &mpsc::Receiver<Accepted>,
    clients: &[Client; 3],
    schedule: &[Arrival],
    loop_started: Instant,
    seconds: f64,
) -> (Vec<(usize, Polled)>, Vec<f64>) {
    struct Outstanding {
        job: Accepted,
        next_poll: Instant,
        polls: u32,
    }
    let give_up = loop_started + Duration::from_secs_f64(seconds) + DRAIN_LIMIT;
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let mut done: Vec<(usize, Polled)> = Vec::new();
    let mut rtt_ms: Vec<f64> = Vec::new();
    let mut submitter_done = false;
    loop {
        loop {
            match accepted.try_recv() {
                Ok(job) => outstanding.push(Outstanding {
                    next_poll: job.acked,
                    job,
                    polls: 0,
                }),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    submitter_done = true;
                    break;
                }
            }
        }
        let now = Instant::now();
        if outstanding.is_empty() && submitter_done {
            break;
        }
        if now >= give_up {
            break;
        }
        let next = outstanding
            .iter_mut()
            .min_by_key(|o| o.next_poll)
            .filter(|o| o.next_poll <= now);
        let Some(job) = next else {
            // Nothing is due: sleep a little, still waking for new jobs.
            std::thread::sleep(Duration::from_micros(500));
            continue;
        };
        let tier = schedule[job.job.index].tier;
        let asked = Instant::now();
        let status = clients[tier].job_status(job.job.id);
        let answered = Instant::now();
        rtt_ms.push((answered - asked).as_secs_f64() * 1e3);
        job.polls += 1;
        job.next_poll = answered + POLL_EVERY;
        if let Ok(status) = status {
            if is_terminal(&status) {
                let index = job.job.index;
                let polls = job.polls;
                outstanding.retain(|o| o.job.index != index);
                done.push((
                    index,
                    Polled {
                        seen: Some(answered),
                        polls,
                        status: Some(status),
                    },
                ));
            }
        }
    }
    for job in outstanding {
        done.push((
            job.job.index,
            Polled {
                seen: None,
                polls: job.polls,
                status: None,
            },
        ));
    }
    (done, rtt_ms)
}

/// The hub's own account of one finished job, from its status JSON.
struct HubTimes {
    queue_ms: f64,
    service_ms: f64,
    stages: Vec<(FlowStep, f64)>,
    cache_hit: bool,
}

fn hub_times(status: &Value) -> Option<HubTimes> {
    let submitted = status.get("submitted_ms").as_f64()?;
    let started = status.get("started_ms").as_f64()?;
    let finished = status.get("finished_ms").as_f64()?;
    let stages = status
        .get("stages")
        .seq()
        .unwrap_or(&[])
        .iter()
        .filter_map(|stage| {
            let name = stage.get("stage").as_str()?;
            let step = FlowStep::ALL.iter().find(|s| s.name() == name)?;
            Some((*step, stage.get("wall_ms").as_f64()?))
        })
        .collect();
    Some(HubTimes {
        queue_ms: started - submitted,
        service_ms: finished - started,
        stages,
        cache_hit: matches!(status.get("cache_hit"), Value::Bool(true)),
    })
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    ctx: &Ctx<'_>,
    schedule: &[Arrival],
    seen: &[Seen],
    turnaround_ms: &[f64],
    lateness_ms: &[f64],
    status_rtt_ms: &[f64],
    hub_metrics: Option<&Value>,
    loop_started_us: f64,
    loop_wall_ms: f64,
    root: Option<crate::spans::SpanId>,
) -> BTreeMap<&'static str, f64> {
    let rec = ctx.rec;
    let mut submit_rtt = Vec::new();
    let mut queue = Vec::new();
    let mut service = Vec::new();
    let mut flow = Vec::new();
    let mut overhead = Vec::new();
    let mut notify = Vec::new();
    let mut polls = Vec::new();
    let mut hits = 0usize;
    let mut by_tier: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut stage_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last_status = None;
    for (index, ((arrival, s), turnaround)) in
        schedule.iter().zip(seen).zip(turnaround_ms).enumerate()
    {
        by_tier[arrival.tier].push(*turnaround);
        let (Some(status), Some(seen_us)) = (&s.status, s.seen_us) else {
            continue;
        };
        let Some(times) = hub_times(status) else {
            continue;
        };
        last_status = Some(status);
        let rtt_ms = (s.acked_us - s.sent_us) / 1e3;
        let flow_ms: f64 = times.stages.iter().map(|(_, ms)| ms).sum();
        submit_rtt.push(rtt_ms);
        queue.push(times.queue_ms);
        service.push(times.service_ms);
        overhead.push(times.service_ms - flow_ms);
        notify.push(turnaround - lateness_ms[index] - rtt_ms - times.queue_ms - times.service_ms);
        polls.push(f64::from(s.polls));
        hits += usize::from(times.cache_hit);
        if !times.stages.is_empty() {
            flow.push(flow_ms);
        }
        for (step, ms) in &times.stages {
            if let Some(name) = stage_metric(step.name()) {
                stage_ms.entry(name).or_default().push(*ms);
            }
        }

        // The job's spans, laid end to end from the moment it was due:
        // harness lateness, the submit round trip, the hub's queue and
        // service (its stages inside), then the wait for a poll to see it.
        let op = index as u64;
        let track = 1 + (index % 16) as u32;
        let due_us = loop_started_us + arrival.due_s * 1e6;
        rec.record("bench.lateness", root, op, track, due_us, s.sent_us);
        rec.record("serve.submit", root, op, track, s.sent_us, s.acked_us);
        let queued_until = s.acked_us + times.queue_ms * 1e3;
        rec.record(
            "serve.queue_wait",
            root,
            op,
            track,
            s.acked_us,
            queued_until,
        );
        let served_until = queued_until + times.service_ms * 1e3;
        let service_span = rec.record("serve.service", root, op, track, queued_until, served_until);
        let mut cursor = queued_until;
        for (step, ms) in &times.stages {
            rec.record(
                stage_span(*step),
                service_span,
                op,
                track,
                cursor,
                cursor + ms * 1e3,
            );
            cursor += ms * 1e3;
        }
        rec.record("serve.notify_lag", root, op, track, served_until, seen_us);
    }

    let finished = service.len().max(1) as f64;
    let mut metrics: BTreeMap<&'static str, f64> = stage_ms
        .iter()
        .map(|(name, samples)| (*name, stats::mean(samples)))
        .collect();
    let p = stats::percentile;
    metrics.insert("serve.submit_rtt_p50_ms", stats::median(&submit_rtt));
    metrics.insert("serve.status_rtt_p50_ms", stats::median(status_rtt_ms));
    metrics.insert("serve.queue_wait_p50_ms", stats::median(&queue));
    metrics.insert("serve.queue_wait_p95_ms", p(&queue, 95.0));
    metrics.insert("serve.service_p50_ms", stats::median(&service));
    metrics.insert("serve.service_p95_ms", p(&service, 95.0));
    metrics.insert("serve.flow_p50_ms", stats::median(&flow));
    metrics.insert("serve.service_overhead_p50_ms", stats::median(&overhead));
    metrics.insert("serve.notify_lag_p50_ms", stats::median(&notify));
    metrics.insert("serve.polls_per_job", stats::mean(&polls));
    // One connection per request: the submit and every poll.
    metrics.insert("serve.connections_per_job", stats::mean(&polls) + 1.0);
    metrics.insert(
        "serve.worker_utilization",
        service.iter().sum::<f64>() / (workers() as f64 * loop_wall_ms),
    );
    metrics.insert("serve.cache_hit_share", hits as f64 / finished);
    metrics.insert(
        "serve.rejected_share",
        seen.iter().filter(|s| s.refused).count() as f64 / seen.len().max(1) as f64,
    );
    metrics.insert("serve.generator_lateness_p95_ms", p(lateness_ms, 95.0));
    for (tier, name) in [
        "serve.turnaround_p50_ms.beginner",
        "serve.turnaround_p50_ms.intermediate",
        "serve.turnaround_p50_ms.advanced",
    ]
    .into_iter()
    .enumerate()
    {
        metrics.insert(name, stats::median(&by_tier[tier]));
    }
    if let Some(hub) = hub_metrics {
        let total = |field: &str| -> f64 {
            hub.get("admission")
                .get(field)
                .seq()
                .unwrap_or(&[])
                .iter()
                .filter_map(Value::as_u64)
                .sum::<u64>() as f64
        };
        metrics.insert("admit.shed", total("shed"));
        metrics.insert("admit.rejected", total("rejected"));
    }
    let probes = rec.open("bench.probes", root, 0, 0);
    let status_body = last_status.map_or_else(String::new, serde::json::to_string);
    metrics.extend(micro::http_codec(&schedule[0].body(), &status_body));
    rec.close(probes);
    metrics
}
