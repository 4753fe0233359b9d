//! `sweep_publish` and `sweep_fetch`: one 32-job sweep against the
//! remote stage-cache tier of a loopback hub, first written, then read.
//!
//! Publishing runs every kernel and stores every stage over the wire;
//! fetching runs no kernel and restores every stage over the wire. They
//! are two workloads, not two phases of one, so that each has its own
//! row for every end-to-end metric: a gain for restores that costs
//! stores (or the reverse) shows as one row improving and one regressing.

use crate::batches::{check_against_direct_runs, Repetitions};
use crate::common::{timed_setup, workers, Ctx, RunResult};
use crate::hub_open_loop::HubServer;
use crate::inputs::{cheapest_jobs, remote_sweep_jobs};
use crate::micro;
use crate::stats;
use chipforge_exec::{
    BatchEngine, EngineConfig, JobSpec, RemoteCache, RemoteCacheConfig, StageCacheMode,
};
use chipforge_flow::Pipeline;
use chipforge_serve::{Hub, HubConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

fn cache_hub() -> HubServer {
    HubServer::start(HubConfig {
        workers: 1,
        ..HubConfig::default()
    })
}

fn remote_config(addr: SocketAddr) -> RemoteCacheConfig {
    RemoteCacheConfig::new(format!("http://{addr}"))
}

/// A fresh engine with empty local tiers whose stage cache reads from
/// and writes to the hub at `addr`.
fn remote_engine(addr: SocketAddr) -> BatchEngine {
    BatchEngine::new(EngineConfig {
        stage_cache: StageCacheMode::Memory,
        remote_cache: Some(remote_config(addr)),
        workers: workers(),
        ..EngineConfig::default()
    })
}

pub fn run_publish(ctx: &Ctx<'_>) -> RunResult {
    let (jobs, setup_s) = timed_setup(|| {
        let jobs = remote_sweep_jobs(ctx.seed);
        let hub = cache_hub();
        std::hint::black_box(remote_engine(hub.addr()).run_batch(cheapest_jobs(&jobs, 2)));
        jobs
    });
    let rec = ctx.rec;
    let mut sweep = Repetitions::new(ctx, &jobs);
    let mut traced = BTreeMap::new();
    let root = rec.open("bench.sweep_publish", None, 0, 0);
    let loop_started = Instant::now();
    while sweep.time_left(loop_started) {
        let first = sweep.rep_s.is_empty();
        let hub = cache_hub();
        let published = sweep.repetition(root, remote_engine(hub.addr()));
        if first {
            // What was published must serve a second machine: a fresh
            // engine restores every job from the hub and reports the
            // same artifacts.
            let check_span = rec.open("bench.checks", root, 0, 0);
            let restored = remote_engine(hub.addr()).run_batch(jobs.clone());
            let full_restores = restored
                .report
                .stage_cache
                .as_ref()
                .map_or(0, |s| s.full_restores);
            sweep.checker.check(
                restored.canonical_report() == published.canonical_report(),
                || "the fetching engine reports other artifacts than the publishing one".into(),
            );
            sweep.checker.check(full_restores == jobs.len() as u64, || {
                format!("{full_restores} of {} jobs restored in full", jobs.len())
            });
            check_against_direct_runs(&mut sweep.checker, &jobs, &published);
            rec.close(check_span);
            if ctx.traced() {
                let probes = rec.open("bench.probes", root, 0, 0);
                traced = publish_probes(&jobs, hub.addr());
                rec.close(probes);
            }
        }
        // Shutting the hub down is not part of the sweep.
        drop(published);
        drop(hub);
    }
    rec.close(root);
    sweep.finish(setup_s, traced)
}

/// Direct calls on the write path: one publish per snapshot over the
/// wire with a client of its own, and the hub's side of a store in
/// process.
fn publish_probes(jobs: &[JobSpec], addr: SocketAddr) -> BTreeMap<&'static str, f64> {
    let mut traced = BTreeMap::new();
    let snapshots = micro::capture_snapshots(&cheapest_jobs(jobs, 2));
    let client = RemoteCache::new(remote_config(addr));
    let mut publish_ms = Vec::new();
    let mut bytes = Vec::new();
    for (key, snapshot) in &snapshots {
        bytes.push(serde::json::to_string(snapshot).len() as f64);
        // A key of its own, so the store is a new entry, not a rewrite.
        let started = Instant::now();
        client.publish(key ^ u128::MAX, snapshot);
        publish_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    traced.insert("remote.publish_p50_ms", stats::median(&publish_ms));
    traced.insert("remote.bytes_per_snapshot", stats::mean(&bytes));
    if let Ok(local) = Hub::new(HubConfig::default()) {
        let put_us: Vec<f64> = snapshots
            .iter()
            .map(|(key, snapshot)| {
                let body = chipforge_resil::frame_checksummed(&serde::json::to_string(snapshot));
                let started = Instant::now();
                let _ = local.cache_put(*key, &body);
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        traced.insert("serve.cache_put_us", stats::median(&put_us));
    }
    traced
}

struct FetchInputs {
    jobs: Vec<JobSpec>,
    hub: HubServer,
    /// Canonical report of the pass that filled the hub.
    published: String,
}

pub fn run_fetch(ctx: &Ctx<'_>) -> RunResult {
    // Filling the hub is this workload's set-up: engine A computes the
    // sweep and publishes every stage, then one fetching pass over the
    // cheapest jobs warms the process up.
    let mut publish_failures = Vec::new();
    let (inputs, setup_s) = timed_setup(|| {
        let jobs = remote_sweep_jobs(ctx.seed);
        let hub = cache_hub();
        let published = remote_engine(hub.addr()).run_batch(jobs.clone());
        publish_failures = published
            .results
            .iter()
            .filter(|r| !r.status.is_success())
            .map(|r| format!("{}: the publishing pass ended {}", r.name, r.status))
            .collect();
        std::hint::black_box(remote_engine(hub.addr()).run_batch(cheapest_jobs(&jobs, 2)));
        FetchInputs {
            jobs,
            hub,
            published: published.canonical_report(),
        }
    });
    let FetchInputs {
        jobs,
        hub,
        published,
    } = &inputs;
    let rec = ctx.rec;
    let mut sweep = Repetitions::new(ctx, jobs);
    for failure in publish_failures {
        sweep.checker.check(false, || failure);
    }
    // Repetition 1 is the publishing pass: every fetch must equal it.
    sweep.first_canonical = Some(published.clone());
    let mut traced = BTreeMap::new();
    let root = rec.open("bench.sweep_fetch", None, 0, 0);
    let loop_started = Instant::now();
    while sweep.time_left(loop_started) {
        let first = sweep.rep_s.is_empty();
        let fetched = sweep.repetition(root, remote_engine(hub.addr()));
        let full_restores = fetched
            .report
            .stage_cache
            .as_ref()
            .map_or(0, |s| s.full_restores);
        sweep.checker.check(full_restores == jobs.len() as u64, || {
            format!("{full_restores} of {} jobs restored in full", jobs.len())
        });
        if first {
            let check_span = rec.open("bench.checks", root, 0, 0);
            check_against_direct_runs(&mut sweep.checker, jobs, &fetched);
            rec.close(check_span);
        }
    }
    if ctx.traced() {
        let probes = rec.open("bench.probes", root, 0, 0);
        traced = fetch_probes(jobs, hub.addr());
        // ROADMAP item 3's gate: restoring from the remote tier against
        // simply computing the sweep locally with a cold stage cache.
        let started = Instant::now();
        std::hint::black_box(crate::batch_classroom::engine(workers()).run_batch(jobs.clone()));
        let local_cold_s = started.elapsed().as_secs_f64();
        traced.insert(
            "remote.warm_vs_local_cold_ratio",
            stats::median(&sweep.rep_s) / local_cold_s,
        );
        rec.close(probes);
    }
    rec.close(root);
    sweep.finish(setup_s, traced)
}

/// Direct calls on the read path: every stage of every job fetched one
/// by one over the wire with a client of its own, and the hub's side of
/// a fetch in process.
fn fetch_probes(jobs: &[JobSpec], addr: SocketAddr) -> BTreeMap<&'static str, f64> {
    let mut traced = BTreeMap::new();
    let client = RemoteCache::new(remote_config(addr));
    let mut fetch_ms = Vec::new();
    let mut snapshots = Vec::new();
    for job in jobs {
        for (step, key) in Pipeline::stage_keys(&job.source, &job.flow_config()) {
            let started = Instant::now();
            let fetched = client.fetch(key, step);
            fetch_ms.push(started.elapsed().as_secs_f64() * 1e3);
            snapshots.extend(fetched.map(|snapshot| (key, snapshot)));
        }
    }
    traced.insert("remote.fetch_p50_ms", stats::median(&fetch_ms));
    let bytes: Vec<f64> = snapshots
        .iter()
        .map(|(_, s)| serde::json::to_string(s).len() as f64)
        .collect();
    traced.insert("remote.bytes_per_snapshot", stats::mean(&bytes));
    if let Ok(local) = Hub::new(HubConfig::default()) {
        for (key, snapshot) in &snapshots {
            let body = chipforge_resil::frame_checksummed(&serde::json::to_string(snapshot));
            let _ = local.cache_put(*key, &body);
        }
        let get_us: Vec<f64> = snapshots
            .iter()
            .map(|(key, _)| {
                let started = Instant::now();
                std::hint::black_box(local.cache_get(*key));
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        traced.insert("serve.cache_get_us", stats::median(&get_us));
    }
    traced
}
