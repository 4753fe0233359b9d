//! Live hub integration: every test here talks to a real `Server` over
//! real TCP sockets — submit, poll, `/metrics`, journal recovery across
//! a restart, and a malformed-input storm that must never take down the
//! accept loop.

use chipforge::flow::{FlowStep, StageArtifact, StageSnapshot};
use chipforge::resil::frame_checksummed;
use chipforge::serve::{Client, Hub, HubConfig, KeyRegistry, Server};
use proptest::prelude::*;
use serde::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("chipforge-serve-{}-{name}", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

fn start_hub(config: HubConfig) -> Server {
    let hub = Hub::new(config).expect("hub starts");
    Server::start(hub, KeyRegistry::demo(), "127.0.0.1:0").expect("server binds")
}

fn quick_job(design: &str, seed: u64) -> String {
    format!(r#"{{"design": "{design}", "profile": "quick", "seed": {seed}}}"#)
}

/// Writes raw bytes to the server and returns whatever comes back.
/// Shutting down the write half signals EOF, so truncated requests
/// terminate instead of waiting out the read timeout.
fn raw_send(addr: &str, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("socket");
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    response
}

fn metrics_u64(metrics: &Value, group: &str, field: &str) -> u64 {
    metrics
        .get(group)
        .get(field)
        .as_u64()
        .unwrap_or_else(|| panic!("metrics has {group}.{field}: {metrics:?}"))
}

#[test]
fn submit_poll_and_metrics_over_real_sockets() {
    let server = start_hub(HubConfig::default());
    let addr = server.addr().to_string();
    let client = Client::new(&addr, "demo-beginner");

    let designs = ["counter8", "gray8", "popcount8", "lfsr8"];
    let ids: Vec<u64> = designs
        .iter()
        .enumerate()
        .map(|(i, design)| {
            client
                .submit(&quick_job(design, 100 + i as u64))
                .expect("transport")
                .expect("admitted")
        })
        .collect();
    for (&id, design) in ids.iter().zip(&designs) {
        let status = client.wait(id, WAIT).expect("finishes");
        assert_eq!(status.get("state").as_str(), Some("succeeded"), "{design}");
        assert_eq!(status.get("name").as_str(), Some(*design));
        // Progress streaming: the finished flow-stage spans are
        // reported back, in flow order.
        let stages = status.get("stages").seq().expect("stages seq");
        let names: Vec<&str> = stages
            .iter()
            .filter_map(|s| s.get("stage").as_str())
            .collect();
        assert!(names.contains(&"synthesize"), "stages: {names:?}");
        assert!(names.contains(&"export"), "stages: {names:?}");
        assert!(status
            .get("ppa")
            .get("cells")
            .as_u64()
            .is_some_and(|c| c > 0));
    }

    // Live gauges: job counters, admission queue depths and the shared
    // stage cache all surface in /metrics.
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics_u64(&metrics, "jobs", "succeeded"), 4);
    assert_eq!(metrics_u64(&metrics, "jobs", "completed"), 4);
    assert_eq!(metrics_u64(&metrics, "jobs", "queued"), 0);
    let depths = metrics
        .get("admission")
        .get("queue_depth")
        .seq()
        .expect("depths");
    assert_eq!(depths.len(), 3);
    assert!(depths.iter().all(|d| d.as_u64() == Some(0)));
    assert!(metrics_u64(&metrics, "stage_cache", "misses") > 0);
    assert_eq!(metrics_u64(&metrics, "artifact_cache", "entries"), 4);
    // Executor counters: the hub saw every job, none of them failing.
    assert_eq!(metrics_u64(&metrics, "exec", "jobs_run"), 4);
    assert_eq!(metrics_u64(&metrics, "exec", "failed"), 0);

    // Resubmitting an identical job is an artifact-cache hit, visible
    // both on the job and in the gauges.
    let id = client
        .submit(&quick_job("counter8", 100))
        .expect("transport")
        .expect("admitted");
    let status = client.wait(id, WAIT).expect("finishes");
    assert_eq!(status.get("state").as_str(), Some("succeeded"));
    assert_eq!(status.get("cache_hit"), &Value::Bool(true));
    let metrics = client.metrics().expect("metrics");
    assert!(metrics_u64(&metrics, "artifact_cache", "hits") >= 1);

    server.shutdown();
}

/// A timed-out job fails with the timeout error, and the hub-wide
/// run/failed counters in `/metrics` count it. Driven against the hub
/// directly because the wire format cannot inject a hanging fault.
#[test]
fn timed_out_jobs_surface_in_metrics_counters() {
    use chipforge::cloud::AccessTier;
    use chipforge::exec::{Fault, JobSpec};
    use chipforge::hdl::designs;
    use chipforge::serve::Identity;

    let hub = Hub::new(HubConfig {
        workers: 2,
        job_timeout: Duration::from_millis(150),
        ..HubConfig::default()
    })
    .expect("hub starts");
    let who = Identity {
        university: "metrics-uni".into(),
        tier: AccessTier::Beginner,
    };
    let design = designs::counter(8);
    let hung = JobSpec::new(
        design.name(),
        design.source(),
        chipforge::pdk::TechnologyNode::N130,
        chipforge::flow::OptimizationProfile::quick(),
    )
    .with_seed(71)
    .with_fault(Fault::Hang(8_000));
    let ok = JobSpec::new(
        design.name(),
        design.source(),
        chipforge::pdk::TechnologyNode::N130,
        chipforge::flow::OptimizationProfile::quick(),
    )
    .with_seed(72);
    let ids: Vec<u64> = [hung, ok]
        .into_iter()
        .map(|spec| match hub.submit(&who, spec) {
            chipforge::serve::SubmitOutcome::Accepted(id) => id,
            other => panic!("admitted, got {other:?}"),
        })
        .collect();
    let deadline = std::time::Instant::now() + WAIT;
    let statuses: Vec<Value> = ids
        .iter()
        .map(|id| loop {
            let status = hub.job_status(&who, *id).expect("job exists");
            let state = status.get("state").as_str().expect("state");
            if state != "queued" && state != "running" {
                break status;
            }
            assert!(std::time::Instant::now() < deadline, "job {id} stuck");
            std::thread::sleep(Duration::from_millis(10));
        })
        .collect();
    let hung = &statuses[0];
    assert_eq!(hung.get("state").as_str(), Some("failed"), "{hung:?}");
    assert_eq!(
        hung.get("error").as_str(),
        Some("exceeded the 150 ms job timeout"),
        "{hung:?}"
    );

    let metrics = hub.metrics();
    assert_eq!(
        metrics_u64(&metrics, "exec", "jobs_run"),
        2,
        "both jobs counted: {metrics:?}"
    );
    assert_eq!(
        metrics_u64(&metrics, "exec", "failed"),
        1,
        "the timed-out job counted as failed"
    );
    hub.shutdown();
}

/// The hub's fault behaviour over real sockets: the executor's retry
/// loop contains a panicking job (and the worker that ran it lives on),
/// and rides out a transient fault.
#[test]
fn injected_faults_retry_without_hurting_the_next_job() {
    let server = start_hub(HubConfig {
        workers: 1,
        ..HubConfig::default()
    });
    let addr = server.addr().to_string();
    let client = Client::new(&addr, "demo-beginner");
    let submit = |body: &str| client.submit(body).expect("transport").expect("admitted");

    let boom =
        submit(r#"{"design": "counter8", "profile": "quick", "seed": 41, "fault": "panic"}"#);
    let status = client.wait(boom, WAIT).expect("finishes");
    assert_eq!(status.get("state").as_str(), Some("failed"));
    assert_eq!(status.get("attempts").as_u64(), Some(2), "one retry");
    assert!(status
        .get("error")
        .as_str()
        .is_some_and(|e| e.starts_with("panicked on all 2 attempts")));

    // The single worker survived the panics and serves the next job.
    let next = submit(&quick_job("counter8", 42));
    let status = client.wait(next, WAIT).expect("finishes");
    assert_eq!(status.get("state").as_str(), Some("succeeded"));
    assert_eq!(status.get("attempts").as_u64(), Some(1));

    let flaky =
        submit(r#"{"design": "counter8", "profile": "quick", "seed": 43, "fault": "transient"}"#);
    let status = client.wait(flaky, WAIT).expect("finishes");
    assert_eq!(status.get("state").as_str(), Some("succeeded"));
    assert_eq!(status.get("attempts").as_u64(), Some(2), "retried once");

    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics_u64(&metrics, "exec", "jobs_run"), 3);
    assert_eq!(metrics_u64(&metrics, "exec", "failed"), 1);
    server.shutdown();
}

/// One executor, two callers: the same job through a `BatchEngine` and
/// through the hub must report the same PPA and GDS, and an identical
/// resubmission to the hub is an artifact-cache hit.
#[test]
fn hub_and_batch_engine_agree_on_a_job() {
    use chipforge::exec::{BatchEngine, EngineConfig};
    use chipforge::serve::job_from_json;

    let body = r#"{"design": "gray8", "profile": "quick", "seed": 51, "clock_mhz": 80}"#;
    let spec = job_from_json(&serde::json::parse(body).expect("json")).expect("spec");
    let batch = BatchEngine::new(EngineConfig::with_workers(1)).run_batch(vec![spec]);
    let (ppa, gds_fnv) = batch.results[0].artifact_digests().expect("artifact");

    let server = start_hub(HubConfig::default());
    let addr = server.addr().to_string();
    let client = Client::new(&addr, "demo-intermediate");
    let first = client.submit(body).expect("transport").expect("admitted");
    let status = client.wait(first, WAIT).expect("finishes");
    assert_eq!(status.get("state").as_str(), Some("succeeded"));
    assert_eq!(status.get("cache_hit"), &Value::Bool(false));
    assert_eq!(status.get("gds_fnv").as_u64(), Some(gds_fnv));
    assert_eq!(
        serde::json::to_string(status.get("ppa")),
        serde::json::to_string(&ppa),
        "hub and engine report different PPA"
    );

    let again = client.submit(body).expect("transport").expect("admitted");
    let status = client.wait(again, WAIT).expect("finishes");
    assert_eq!(status.get("cache_hit"), &Value::Bool(true));
    assert_eq!(status.get("gds_fnv").as_u64(), Some(gds_fnv));
    server.shutdown();
}

/// The hub refuses, by name, what only a local `forge batch` can
/// honour — and a clock no flow could meet.
#[test]
fn manifest_only_fields_are_a_named_400() {
    let server = start_hub(HubConfig::default());
    let addr = server.addr().to_string();
    let client = Client::new(&addr, "demo-beginner");
    for (field, body) in [
        ("copies", r#"{"design": "counter8", "copies": 3}"#),
        ("file", r#"{"file": "lab3.fhdl"}"#),
        ("clock_mhz", r#"{"design": "counter8", "clock_mhz": -5}"#),
        ("router", r#"{"design": "counter8", "router": "teleport"}"#),
    ] {
        let refusal = client
            .submit(body)
            .expect("transport")
            .expect_err("refused");
        assert_eq!(refusal.status, 400, "{field}");
        assert!(
            refusal
                .body
                .get("error")
                .as_str()
                .is_some_and(|e| e.contains(field)),
            "error names `{field}`: {:?}",
            refusal.body
        );
    }
    server.shutdown();
}

#[test]
fn unknown_api_keys_and_foreign_tenants_get_nothing() {
    let server = start_hub(HubConfig::default());
    let addr = server.addr().to_string();

    // Wrong key: 401 on every authenticated endpoint.
    let intruder = Client::new(&addr, "stolen-key");
    let refusal = intruder
        .submit(&quick_job("counter8", 1))
        .expect("transport")
        .expect_err("refused");
    assert_eq!(refusal.status, 401);
    let response = intruder
        .request("GET", "/api/v1/jobs", None)
        .expect("transport");
    assert_eq!(response.status, 401);

    // Missing key header entirely.
    let response = raw_send(&addr, b"GET /api/v1/jobs HTTP/1.1\r\n\r\n");
    assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 401"));

    // A valid key still cannot see another tenant's job.
    let owner = Client::new(&addr, "demo-beginner");
    let id = owner
        .submit(&quick_job("counter8", 2))
        .expect("transport")
        .expect("admitted");
    owner.wait(id, WAIT).expect("finishes");
    let peer = Client::new(&addr, "demo-advanced");
    let response = peer
        .request("GET", &format!("/api/v1/jobs/{id}"), None)
        .expect("transport");
    assert_eq!(
        response.status, 404,
        "foreign job indistinguishable from absent"
    );

    server.shutdown();
}

#[test]
fn journal_survives_a_server_restart() {
    let journal = temp_path("restart.jsonl");
    let config = HubConfig {
        journal: Some(journal.clone()),
        ..HubConfig::default()
    };

    let server = start_hub(config.clone());
    let addr = server.addr().to_string();
    let client = Client::new(&addr, "demo-intermediate");
    for seed in [31, 32] {
        let id = client
            .submit(&quick_job("counter8", seed))
            .expect("transport")
            .expect("admitted");
        let status = client.wait(id, WAIT).expect("finishes");
        assert_eq!(status.get("state").as_str(), Some("succeeded"));
    }
    server.shutdown();

    // A fresh server on the same journal re-lists both completed jobs
    // — no duplicates, no losses — and fresh ids never collide.
    let server = start_hub(config);
    let addr = server.addr().to_string();
    let client = Client::new(&addr, "demo-intermediate");
    let listing = client.list().expect("list");
    let jobs = listing.get("jobs").seq().expect("jobs seq");
    assert_eq!(jobs.len(), 2, "exactly the completed jobs: {listing:?}");
    let mut recovered_ids = Vec::new();
    for job in jobs {
        assert_eq!(job.get("state").as_str(), Some("succeeded"));
        assert_eq!(job.get("recovered"), &Value::Bool(true));
        assert!(job.get("ppa").get("cells").as_u64().is_some_and(|c| c > 0));
        recovered_ids.push(job.get("id").as_u64().expect("id"));
    }
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics_u64(&metrics, "jobs", "recovered"), 2);
    let fresh = client
        .submit(&quick_job("gray8", 33))
        .expect("transport")
        .expect("admitted");
    assert!(
        !recovered_ids.contains(&fresh),
        "fresh id {fresh} collides with recovered {recovered_ids:?}"
    );
    client.wait(fresh, WAIT).expect("finishes");

    server.shutdown();
    std::fs::remove_file(&journal).ok();
}

/// One framed `/cache/stage` body: an Export snapshot, checksummed the
/// way `RemoteCache::publish` frames it.
fn framed_snapshot() -> String {
    let snapshot = StageSnapshot {
        step: FlowStep::Export,
        detail: "integration test artifact".to_string(),
        artifact: StageArtifact::Export { gds: vec![1, 2, 3] },
    };
    frame_checksummed(&serde::json::to_string(&snapshot))
}

fn put_cache(addr: &str, key: &str, body: &str) -> String {
    let raw = format!(
        "PUT /cache/stage/{key} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    String::from_utf8_lossy(&raw_send(addr, raw.as_bytes())).into_owned()
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response {response:?}"))
}

#[test]
fn cache_protocol_round_trips_and_rejects_bad_entries() {
    let server = start_hub(HubConfig::default());
    let addr = server.addr().to_string();
    let key = "00000000000000000000000000000abc";
    let framed = framed_snapshot();

    // Probe/fetch before the entry exists: clean 404s.
    let probe = raw_send(
        &addr,
        format!("HEAD /cache/stage/{key} HTTP/1.1\r\n\r\n").as_bytes(),
    );
    assert_eq!(status_of(&String::from_utf8_lossy(&probe)), 404);
    let fetch = raw_send(
        &addr,
        format!("GET /cache/stage/{key} HTTP/1.1\r\n\r\n").as_bytes(),
    );
    assert_eq!(status_of(&String::from_utf8_lossy(&fetch)), 404);

    // Store, then read the exact framed bytes back.
    assert_eq!(status_of(&put_cache(&addr, key, &framed)), 200);
    let fetch = String::from_utf8_lossy(&raw_send(
        &addr,
        format!("GET /cache/stage/{key} HTTP/1.1\r\n\r\n").as_bytes(),
    ))
    .into_owned();
    assert_eq!(status_of(&fetch), 200);
    let body = fetch.split("\r\n\r\n").nth(1).expect("body");
    assert_eq!(body, framed, "served body must be the framed snapshot");
    let probe = raw_send(
        &addr,
        format!("HEAD /cache/stage/{key} HTTP/1.1\r\n\r\n").as_bytes(),
    );
    assert_eq!(status_of(&String::from_utf8_lossy(&probe)), 200);

    // Rejections: tampered digest, unframed JSON, empty body, non-hex
    // key, unsupported method.
    let mut tampered = framed.clone();
    tampered.replace_range(0..1, "X");
    assert_eq!(status_of(&put_cache(&addr, key, &tampered)), 400);
    assert_eq!(
        status_of(&put_cache(&addr, key, "{\"step\":\"export\"}")),
        400
    );
    assert_eq!(
        status_of(&put_cache(&addr, key, "")),
        400,
        "zero content-length"
    );
    assert_eq!(status_of(&put_cache(&addr, "not-hex", &framed)), 404);
    let posted = raw_send(
        &addr,
        format!("POST /cache/stage/{key} HTTP/1.1\r\n\r\n").as_bytes(),
    );
    assert_eq!(status_of(&String::from_utf8_lossy(&posted)), 405);

    // Protocol counters surface in /metrics.
    let metrics = Client::new(&addr, "demo-beginner")
        .metrics()
        .expect("metrics");
    assert_eq!(metrics_u64(&metrics, "cache_protocol", "puts"), 4);
    assert_eq!(metrics_u64(&metrics, "cache_protocol", "put_rejects"), 3);
    assert_eq!(metrics_u64(&metrics, "cache_protocol", "gets"), 2);
    assert_eq!(metrics_u64(&metrics, "cache_protocol", "get_hits"), 1);
    assert_eq!(metrics_u64(&metrics, "cache_protocol", "heads"), 2);
    assert_eq!(metrics_u64(&metrics, "cache_protocol", "head_hits"), 1);

    server.shutdown();
}

#[test]
fn a_chain_lookup_answers_every_held_frame_in_one_body() {
    let server = start_hub(HubConfig::default());
    let addr = server.addr().to_string();
    let framed = framed_snapshot();
    let held = [
        "00000000000000000000000000000abc",
        "00000000000000000000000000000def",
    ];
    for key in held {
        assert_eq!(status_of(&put_cache(&addr, key, &framed)), 200);
    }
    let get = |path: &str| {
        String::from_utf8_lossy(&raw_send(
            &addr,
            format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes(),
        ))
        .into_owned()
    };

    // Asked for three keys, the hub answers with the two it holds, in
    // the order asked, each with the exact frame it was sent.
    let answer = get(&format!("/cache/chain/{},1,{}", held[1], held[0]));
    assert_eq!(status_of(&answer), 200);
    let body = answer.split("\r\n\r\n").nth(1).expect("body");
    assert_eq!(
        body,
        format!("2\n{} {framed}\n{} {framed}\n", held[1], held[0])
    );
    let miss = get("/cache/chain/1");
    assert_eq!(miss.split("\r\n\r\n").nth(1), Some("0\n"));

    // Refusals: a key that is not hex, more keys than one flow has, and
    // any method but GET.
    assert_eq!(status_of(&get("/cache/chain/xyz")), 400);
    assert_eq!(status_of(&get("/cache/chain/")), 400);
    assert_eq!(status_of(&get("/cache/chain/1,2,3,4,5,6,7,8,9")), 400);
    let posted = raw_send(&addr, b"POST /cache/chain/1 HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&String::from_utf8_lossy(&posted)), 405);

    let metrics = Client::new(&addr, "demo-beginner")
        .metrics()
        .expect("metrics");
    assert_eq!(metrics_u64(&metrics, "cache_protocol", "chains"), 2);
    assert_eq!(metrics_u64(&metrics, "cache_protocol", "chain_keys"), 4);
    assert_eq!(metrics_u64(&metrics, "cache_protocol", "chain_hits"), 2);
    server.shutdown();

    let disabled = start_hub(HubConfig {
        stage_cache: chipforge::exec::StageCacheMode::Disabled,
        ..HubConfig::default()
    });
    let response = raw_send(
        &disabled.addr().to_string(),
        b"GET /cache/chain/1 HTTP/1.1\r\n\r\n",
    );
    assert_eq!(status_of(&String::from_utf8_lossy(&response)), 409);
    disabled.shutdown();
}

#[test]
fn cache_protocol_is_a_409_without_a_stage_cache() {
    let server = start_hub(HubConfig {
        stage_cache: chipforge::exec::StageCacheMode::Disabled,
        ..HubConfig::default()
    });
    let addr = server.addr().to_string();
    for request in [
        "GET /cache/stage/0 HTTP/1.1\r\n\r\n".to_string(),
        "HEAD /cache/stage/0 HTTP/1.1\r\n\r\n".to_string(),
    ] {
        let response = String::from_utf8_lossy(&raw_send(&addr, request.as_bytes())).into_owned();
        assert_eq!(status_of(&response), 409, "{request:?}");
    }
    assert_eq!(status_of(&put_cache(&addr, "0", &framed_snapshot())), 409);
    server.shutdown();
}

#[test]
fn malformed_requests_never_take_down_the_accept_loop() {
    let server = start_hub(HubConfig::default());
    let addr = server.addr().to_string();
    let health = Client::new(&addr, "demo-beginner");

    let oversized_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
    let header_bomb = format!(
        "GET /healthz HTTP/1.1\r\n{}\r\n",
        "x-filler: y\r\n".repeat(100)
    );
    let attacks: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"GARBAGE".to_vec(),
        b"GET /healthz".to_vec(), // truncated request line
        b"GET  HTTP/1.1\r\n\r\n".to_vec(),
        b"GET /healthz SMTP/1.0\r\n\r\n".to_vec(),
        oversized_line.into_bytes(),
        header_bomb.into_bytes(),
        b"POST /api/v1/jobs HTTP/1.1\r\ncontent-length: abc\r\n\r\n".to_vec(),
        b"POST /api/v1/jobs HTTP/1.1\r\ncontent-length: -5\r\n\r\n".to_vec(),
        b"POST /api/v1/jobs HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n".to_vec(),
        b"POST /api/v1/jobs HTTP/1.1\r\nx-api-key: demo-beginner\r\ncontent-length: 7\r\n\r\nnot json".to_vec(),
        vec![0xff; 64],
        b"GET /healthz HTTP/1.1\r\nbad header\r\n\r\n".to_vec(),
        // The /cache/stage PUT path gets the same storm treatment.
        b"PUT /cache/stage/abc HTTP/1.1\r\ncontent-length: 0\r\n\r\n".to_vec(),
        b"PUT /cache/stage/abc HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n".to_vec(),
        b"PUT /cache/stage/abc HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
            .to_vec(),
        b"PUT /cache/stage/abc HTTP/1.1\r\ncontent-length: 12\r\n\r\ngarbage body".to_vec(),
        b"PUT /cache/stage/zzz-not-hex HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}".to_vec(),
        b"PUT /cache/stage/ffffffffffffffffffffffffffffffffff HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}"
            .to_vec(),
    ];
    for (i, attack) in attacks.iter().enumerate() {
        let response = String::from_utf8_lossy(&raw_send(&addr, attack)).into_owned();
        if !response.is_empty() {
            let status: u16 = response
                .split(' ')
                .nth(1)
                .and_then(|code| code.parse().ok())
                .unwrap_or_else(|| panic!("attack {i}: unparseable response {response:?}"));
            assert!(
                (400..500).contains(&status),
                "attack {i} got HTTP {status}: {response:?}"
            );
        }
        // The accept loop is still alive after every attack.
        let alive = health.request("GET", "/healthz", None).expect("healthz");
        assert_eq!(alive.status, 200, "server died after attack {i}");
    }
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary byte storms: whatever a client writes, the server
    /// answers with a clean 4xx (or closes the connection) and keeps
    /// serving — the accept loop never panics.
    #[test]
    fn arbitrary_bytes_never_panic_the_server(
        bytes in proptest::collection::vec(0u8..=255, 0..600),
    ) {
        // One shared server across all cases would hide a crash behind
        // reconnect noise; binding per case keeps the check airtight
        // and is still cheap at 48 cases.
        let server = start_hub(HubConfig { workers: 1, ..HubConfig::default() });
        let addr = server.addr().to_string();
        let _ = raw_send(&addr, &bytes);
        let alive = Client::new(&addr, "demo-beginner")
            .request("GET", "/healthz", None)
            .expect("healthz after storm");
        assert_eq!(alive.status, 200);
        server.shutdown();
    }

    /// Arbitrary PUT bodies to the cache protocol: anything that is
    /// not a correctly framed snapshot is a 4xx, never a stored entry
    /// and never a panic.
    #[test]
    fn arbitrary_cache_put_bodies_never_corrupt_the_hub(
        body in proptest::collection::vec(0u8..=255, 0..400),
        key in "[0-9a-f]{1,32}",
    ) {
        let server = start_hub(HubConfig { workers: 1, ..HubConfig::default() });
        let addr = server.addr().to_string();
        let mut raw = format!(
            "PUT /cache/stage/{key} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        let response = String::from_utf8_lossy(&raw_send(&addr, &raw)).into_owned();
        if !response.is_empty() {
            let status = status_of(&response);
            prop_assert!(
                (400..500).contains(&status),
                "random body must be refused, got {status}"
            );
        }
        // The key must not have been stored, and the hub still serves.
        let fetch = String::from_utf8_lossy(&raw_send(
            &addr,
            format!("GET /cache/stage/{key} HTTP/1.1\r\n\r\n").as_bytes(),
        ))
        .into_owned();
        prop_assert_eq!(status_of(&fetch), 404);
        server.shutdown();
    }
}
