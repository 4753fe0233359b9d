//! The remote stage-cache tier end to end, over real sockets: a live
//! hub, seeded flaky proxies, a mid-batch blackhole and a dead port.
//! The invariant under test everywhere: a remote tier — however broken
//! — may cost time and counters, but never job outcomes. Canonical
//! reports must stay byte-identical to a run that never had a remote.

use chipforge::exec::{
    BatchEngine, EngineConfig, JobSpec, RemoteCache, RemoteCacheConfig, StageCacheMode,
};
use chipforge::flow::{FlowStep, OptimizationProfile, StageArtifact, StageSnapshot};
use chipforge::hdl::designs;
use chipforge::pdk::TechnologyNode;
use chipforge::resil::{Backoff, FlakyProxy, NetFaultPlan};
use chipforge::serve::{Client, Hub, HubConfig, KeyRegistry, Server};
use std::time::{Duration, Instant};

/// A small sweep sharing a front end: one design, two clocks per
/// profile, so the stage cache has real prefix reuse to offer.
fn sweep() -> Vec<JobSpec> {
    let design = designs::counter(8);
    let mut jobs = Vec::new();
    for profile in [OptimizationProfile::quick(), OptimizationProfile::open()] {
        for clock in [50.0, 100.0] {
            jobs.push(
                JobSpec::new(
                    format!("{}-{}-{clock}", design.name(), profile.name),
                    design.source(),
                    TechnologyNode::N130,
                    profile.clone(),
                )
                .with_clock_mhz(clock)
                .with_seed(7),
            );
        }
    }
    jobs
}

/// Remote config tuned for tests: tight timeout, zero backoff, so
/// fault paths are exercised without sleeping through real delays.
fn fast_remote(url: String) -> RemoteCacheConfig {
    RemoteCacheConfig {
        timeout: Duration::from_millis(250),
        backoff: Backoff {
            base: Duration::ZERO,
            max: Duration::ZERO,
            seed: 0,
        },
        ..RemoteCacheConfig::new(url)
    }
}

fn engine(remote: Option<RemoteCacheConfig>) -> BatchEngine {
    BatchEngine::new(EngineConfig {
        stage_cache: StageCacheMode::Memory,
        remote_cache: remote,
        ..EngineConfig::with_workers(1)
    })
}

fn start_hub() -> Server {
    let hub = Hub::new(HubConfig {
        workers: 1,
        ..HubConfig::default()
    })
    .expect("hub starts");
    Server::start(hub, KeyRegistry::demo(), "127.0.0.1:0").expect("server binds")
}

#[test]
fn blackholed_remote_mid_batch_never_fails_a_job() {
    let truth = engine(None).run_batch(sweep()).canonical_report();

    let server = start_hub();
    // First 4 connections relay cleanly, then the network goes dark
    // mid-batch: every later request hangs until the client timeout.
    let proxy = FlakyProxy::start(
        server.addr(),
        NetFaultPlan::disabled().with_blackhole_after(4),
    )
    .expect("proxy binds");
    let batch = engine(Some(fast_remote(format!("http://{}", proxy.addr())))).run_batch(sweep());
    drop(proxy);
    server.shutdown();

    assert_eq!(batch.report.totals.failed, 0, "no job may fail");
    assert_eq!(batch.report.totals.timed_out, 0, "no job may time out");
    assert_eq!(
        batch.canonical_report(),
        truth,
        "blackholed remote changed job outcomes"
    );
    let remote = batch.report.remote_cache.expect("remote tier recorded");
    assert!(remote.timeouts > 0, "blackhole must surface as timeouts");
    assert!(remote.trips >= 1, "the breaker must trip open");
    assert!(
        remote.breaker_open > 0,
        "later operations must fast-fail instead of waiting out timeouts"
    );
}

#[test]
fn dead_port_and_fully_corrupting_network_change_nothing() {
    let truth = engine(None).run_batch(sweep()).canonical_report();

    // A remote that refuses every connection: instant failures, breaker
    // trips, batch completes locally.
    let batch = engine(Some(fast_remote("http://127.0.0.1:1".into()))).run_batch(sweep());
    assert_eq!(batch.report.totals.failed, 0);
    assert_eq!(
        batch.canonical_report(),
        truth,
        "dead remote changed outcomes"
    );
    let remote = batch.report.remote_cache.expect("remote tier recorded");
    assert!(remote.hits == 0 && remote.stores == 0);
    assert!(
        remote.trips >= 1,
        "refused connections must trip the breaker"
    );

    // A hub warmed over a clean network, then fetched through a proxy
    // corrupting 100% of relayed bodies: every fetch fails its
    // checksum and is treated as a miss — never deserialized.
    let server = start_hub();
    let _ = engine(Some(fast_remote(format!("http://{}", server.addr())))).run_batch(sweep());
    let proxy = FlakyProxy::start(
        server.addr(),
        NetFaultPlan::disabled().with_corrupt_rate(1.0),
    )
    .expect("proxy binds");
    let batch = engine(Some(fast_remote(format!("http://{}", proxy.addr())))).run_batch(sweep());
    drop(proxy);
    server.shutdown();

    assert_eq!(batch.report.totals.failed, 0);
    assert_eq!(
        batch.canonical_report(),
        truth,
        "corrupted remote changed outcomes"
    );
    let remote = batch.report.remote_cache.expect("remote tier recorded");
    assert!(remote.corrupt > 0, "tampered bodies must be counted");
    assert_eq!(remote.hits, 0, "no tampered body may verify");
}

#[test]
fn a_second_engine_restores_the_sweep_from_the_hub() {
    let server = start_hub();
    let url = format!("http://{}", server.addr());

    let first = engine(Some(fast_remote(url.clone()))).run_batch(sweep());
    let first_remote = first.report.remote_cache.expect("remote recorded");
    assert!(first_remote.stores > 0, "cold engine must publish");

    // A fresh engine with empty local tiers: everything it restores
    // comes over the wire, checksum-verified, and outcomes match.
    let second = engine(Some(fast_remote(url))).run_batch(sweep());
    server.shutdown();
    let second_remote = second.report.remote_cache.expect("remote recorded");
    assert!(
        second_remote.hits > 0,
        "warm engine must fetch from the hub"
    );
    assert_eq!(second_remote.corrupt, 0);
    assert_eq!(first.canonical_report(), second.canonical_report());
    let stages = second.report.stage_cache.expect("stage cache recorded");
    assert!(
        stages.full_restores > 0,
        "at least some jobs must be fully restored from remote snapshots"
    );
}

#[test]
fn a_warm_restore_is_one_request_per_job() {
    let server = start_hub();
    // The default 1 s budget: this test counts requests, and a retry
    // on a busy machine is one more.
    let remote = RemoteCacheConfig::new(format!("http://{}", server.addr()));
    let jobs = sweep().len() as u64;

    // Cold: each job looks its chain up once (all misses), then
    // publishes the stages it computed.
    let cold = engine(Some(remote.clone())).run_batch(sweep());
    let cold_remote = cold.report.remote_cache.expect("remote recorded");
    assert_eq!(
        cold_remote.requests - cold_remote.retries,
        jobs + cold_remote.stores
    );

    // Warm, with empty local tiers: one lookup per job brings back
    // every stage the job does not already share with an earlier one.
    let warm = engine(Some(remote)).run_batch(sweep());
    let metrics = Client::new(server.addr().to_string(), "demo-beginner")
        .metrics()
        .expect("hub answers");
    server.shutdown();
    let warm_remote = warm.report.remote_cache.expect("remote recorded");
    let stages = warm
        .report
        .stage_cache
        .as_ref()
        .expect("stage cache recorded");
    assert_eq!(stages.full_restores, jobs, "every warm job restores");
    assert_eq!(
        warm_remote.requests - warm_remote.retries,
        jobs,
        "one round trip per job"
    );
    assert_eq!((warm_remote.misses, warm_remote.corrupt), (0, 0));
    assert_eq!(
        (stages.hits, stages.misses),
        (8 * jobs, 0),
        "every stage loads from the local tiers once its chain is promoted"
    );
    assert_eq!(cold.canonical_report(), warm.canonical_report());
    let protocol = metrics.get("cache_protocol");
    assert_eq!(protocol.get("chains").as_u64(), Some(2 * jobs));
    assert_eq!(protocol.get("chain_hits").as_u64(), Some(warm_remote.hits));
    assert_eq!(protocol.get("gets").as_u64(), Some(0), "no per-key GET");
}

#[test]
fn a_torn_disk_tier_restores_from_a_warm_hub() {
    let server = start_hub();
    let remote = fast_remote(format!("http://{}", server.addr()));
    let mut dir = std::env::temp_dir();
    dir.push(format!("chipforge-remote-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_engine = || {
        BatchEngine::new(EngineConfig {
            stage_cache: StageCacheMode::Disk(dir.clone()),
            remote_cache: Some(remote.clone()),
            ..EngineConfig::with_workers(1)
        })
    };

    // One run fills the disk tier and warms the hub; then every disk
    // entry is torn, as a killed copy or a full disk would leave it.
    let cold = disk_engine().run_batch(sweep());
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("disk tier written")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    assert!(!files.is_empty());
    for file in &files {
        std::fs::write(file, "torn").expect("tear the entry");
    }

    // A fresh engine finds every file bad and asks the hub instead of
    // recomputing, and the restores heal the disk tier.
    let warm = disk_engine().run_batch(sweep());
    server.shutdown();
    let stages = warm.report.stage_cache.as_ref().expect("stage cache");
    assert_eq!(stages.full_restores, sweep().len() as u64);
    assert_eq!(stages.misses, 0, "no stage recomputes");
    let warm_remote = warm.report.remote_cache.as_ref().expect("remote");
    assert_eq!(warm_remote.hits, files.len() as u64);
    assert_eq!(cold.canonical_report(), warm.canonical_report());
    for file in &files {
        let healed = std::fs::read_to_string(file).expect("rewritten");
        assert_ne!(healed, "torn", "{}", file.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_over_the_hub_body_limit_is_not_sent() {
    // The hub answers a `PUT` above `MAX_BODY` (1 MiB) with 413 before
    // it reads the body, so the sender sees a broken pipe mid-write: a
    // transport failure, retried after a back-off and charged to the
    // breaker. The back-off here is long enough to show in the clock.
    let server = start_hub();
    let sleep = Duration::from_secs(2);
    let cache = RemoteCache::new(RemoteCacheConfig {
        backoff: Backoff {
            base: sleep,
            max: sleep,
            seed: 0,
        },
        breaker_threshold: 1,
        ..RemoteCacheConfig::new(format!("http://{}", server.addr()))
    });
    let export = |gds: Vec<u8>| StageSnapshot {
        step: FlowStep::Export,
        detail: format!("{} bytes GDSII", gds.len()),
        artifact: StageArtifact::Export { gds },
    };
    let started = Instant::now();
    // Each byte is written as `255,`: about 1.6 MB of JSON.
    cache.publish(1, &export(vec![255; 400_000]));
    let elapsed = started.elapsed();
    cache.publish(2, &export(vec![255; 1_000]));

    let counters = cache.counters();
    assert_eq!(counters.retries, 0, "nothing to retry: nothing was sent");
    assert_eq!(counters.trips, 0, "and nothing to charge the breaker with");
    assert_eq!(counters.stores, 1, "the sendable snapshot is stored");
    assert!(elapsed < sleep, "no back-off sleep, took {elapsed:?}");
    let metrics = Client::new(server.addr().to_string(), "demo-beginner")
        .metrics()
        .expect("hub answers");
    assert_eq!(
        metrics.get("cache_protocol").get("puts").as_u64(),
        Some(1),
        "the hub saw one PUT"
    );
    assert!(cache.fetch(1, FlowStep::Export).is_none());
    assert!(cache.fetch(2, FlowStep::Export).is_some());
    server.shutdown();
}

#[test]
fn client_retries_and_names_the_unreachable_hub() {
    // Nothing listens on port 1: every attempt fails at connect. The
    // named error is what `forge client` maps to exit code 2.
    let client = Client::new("127.0.0.1:1", "demo-beginner").with_retries(2, 0);
    let error = client
        .request("GET", "/healthz", None)
        .expect_err("nothing listens");
    assert!(
        error.starts_with("hub unreachable: 127.0.0.1:1 after 3 attempt(s)"),
        "named error names the hub and the attempts: {error}"
    );

    // The retry wrapper changes nothing for a healthy hub.
    let server = start_hub();
    let ok = Client::new(server.addr().to_string(), "demo-beginner")
        .with_retries(3, 1)
        .request("GET", "/healthz", None)
        .expect("healthy hub answers");
    assert_eq!(ok.status, 200);
    server.shutdown();
}
