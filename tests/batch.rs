//! End-to-end batch execution: a classroom-sized job queue on a real
//! worker pool, with fault isolation, resubmission caching and the JSON
//! execution report.

use chipforge::exec::{BatchEngine, EngineConfig, Fault, JobSpec, JobStatus};
use chipforge::flow::OptimizationProfile;
use chipforge::hdl::designs;
use chipforge::pdk::TechnologyNode;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

fn classroom_jobs() -> Vec<JobSpec> {
    [
        designs::counter(8),
        designs::counter(16),
        designs::gray_encoder(8),
        designs::popcount(8),
        designs::lfsr(8),
        designs::pwm(8),
        designs::traffic_light(),
        designs::shift_register(16),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, design)| {
        JobSpec::new(
            design.name(),
            design.source(),
            TechnologyNode::N130,
            OptimizationProfile::quick(),
        )
        .with_seed(i as u64 + 1)
    })
    .collect()
}

#[test]
fn eight_jobs_across_four_workers_all_succeed() {
    let engine = BatchEngine::new(EngineConfig::with_workers(4));
    let batch = engine.run_batch(classroom_jobs());
    assert_eq!(batch.results.len(), 8);
    assert!(batch.results.iter().all(|r| r.status.is_success()));
    assert_eq!(batch.report.totals.succeeded, 8);
    // Every worker reported in; ids are 0..4.
    assert_eq!(batch.report.workers.len(), 4);
    assert!(batch.report.workers.iter().any(|w| w.jobs_run > 0));
}

#[test]
fn resubmitting_the_same_batch_is_mostly_cache_hits() {
    let engine = BatchEngine::new(EngineConfig::with_workers(4));
    let first = engine.run_batch(classroom_jobs());
    assert!(first.results.iter().all(|r| !r.cache_hit));
    let second = engine.run_batch(classroom_jobs());
    assert!(second.results.iter().all(|r| r.cache_hit));
    let stats = engine.cache().stats();
    // 8 misses (first run) + 8 hits (second run) = 50% lifetime rate;
    // the resubmitted batch itself is 100% > 90% hits.
    let resubmission_hit_rate =
        second.results.iter().filter(|r| r.cache_hit).count() as f64 / second.results.len() as f64;
    assert!(resubmission_hit_rate > 0.9);
    assert_eq!(stats.hits, 8);
    assert_eq!(stats.misses, 8);
    // Identical artifacts either way.
    assert_eq!(first.deterministic_digest(), second.deterministic_digest());
}

#[test]
fn faulty_jobs_are_isolated_from_the_rest_of_the_batch() {
    let engine = BatchEngine::new(EngineConfig {
        workers: 4,
        job_timeout: Duration::from_millis(250),
        max_retries: 1,
        retry_backoff: Duration::from_millis(1),
        ..EngineConfig::default()
    });
    let mut jobs = classroom_jobs();
    jobs[2] = jobs[2].clone().with_fault(Fault::Panic);
    jobs[5] = jobs[5].clone().with_fault(Fault::Hang(10_000));
    let batch = engine.run_batch(jobs);
    assert_eq!(batch.results[2].status, JobStatus::Failed);
    assert_eq!(batch.results[2].attempts, 2, "one retry after the panic");
    assert_eq!(batch.results[5].status, JobStatus::TimedOut);
    for (i, result) in batch.results.iter().enumerate() {
        if i != 2 && i != 5 {
            assert!(result.status.is_success(), "job {i} must be unaffected");
        }
    }
    assert_eq!(batch.report.totals.failed, 1);
    assert_eq!(batch.report.totals.timed_out, 1);
    assert_eq!(batch.report.totals.succeeded, 6);
}

#[test]
fn lru_evictions_surface_in_the_json_report() {
    // A 2-artifact cache over 8 distinct jobs must evict 6 times; the
    // count is part of the serialized execution report.
    let engine = BatchEngine::new(EngineConfig {
        workers: 1,
        cache_capacity: 2,
        ..EngineConfig::default()
    });
    let batch = engine.run_batch(classroom_jobs());
    assert_eq!(batch.report.cache.evictions, 6);
    assert_eq!(batch.report.cache.entries, 2);
    let parsed = serde::json::parse(&batch.report.to_json()).expect("report is valid JSON");
    let evictions = parsed
        .get("cache")
        .get("evictions")
        .as_u64()
        .expect("evictions field present in JSON");
    assert_eq!(evictions, batch.report.cache.evictions);
}

#[test]
fn json_report_carries_stage_times_and_worker_utilization() {
    let engine = BatchEngine::new(EngineConfig::with_workers(2));
    let batch = engine.run_batch(classroom_jobs());
    let json = batch.report.to_json();
    let parsed = serde::json::parse(&json).expect("report is valid JSON");
    let jobs = parsed.get("jobs").seq().expect("jobs array");
    assert_eq!(jobs.len(), 8);
    let stages = jobs[0].get("stages").seq().expect("stage array");
    assert!(!stages.is_empty(), "computed jobs carry stage timings");
    let steps: Vec<&str> = stages
        .iter()
        .filter_map(|s| s.get("step").as_str())
        .collect();
    assert!(steps.contains(&"synthesize"), "steps: {steps:?}");
    assert!(stages.iter().all(|s| s.get("wall_ms").as_f64().is_some()));
    let workers = parsed.get("workers").seq().expect("workers array");
    assert_eq!(workers.len(), 2);
    for worker in workers {
        let utilization = worker.get("utilization").as_f64().expect("utilization");
        assert!((0.0..=1.0).contains(&utilization));
    }
    assert!(parsed.get("totals").get("makespan_ms").as_f64().is_some());
    assert!(parsed.get("cache").get("hits").as_u64().is_some());
}

// ---------------------------------------------------------------------------
// CLI exit-code contract: 0 success, 1 job failures under --strict,
// 2 config/manifest error, 3 batch cut short (failure budget / breaker).
// ---------------------------------------------------------------------------

fn forge() -> Command {
    Command::new(env!("CARGO_BIN_EXE_forge"))
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("chipforge-batch-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path
}

#[test]
fn clean_batch_exits_zero() {
    let manifest = temp_file(
        "ok.json",
        r#"{"jobs": [{"design": "counter8", "profile": "quick"}]}"#,
    );
    let output = forge()
        .args(["batch", manifest.to_str().unwrap(), "--workers", "1"])
        .output()
        .expect("forge batch executes");
    std::fs::remove_file(&manifest).ok();
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn strict_job_failure_exits_one() {
    let manifest = temp_file(
        "strict.json",
        r#"{"jobs": [
            {"design": "counter8", "profile": "quick"},
            {"design": "gray8", "profile": "quick", "fault": "panic"}
        ]}"#,
    );
    let output = forge()
        .args([
            "batch",
            manifest.to_str().unwrap(),
            "--workers",
            "1",
            "--retries",
            "0",
            "--strict",
        ])
        .output()
        .expect("forge batch executes");
    std::fs::remove_file(&manifest).ok();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("did not succeed"),
        "stderr names the failing jobs: {stderr}"
    );
}

#[test]
fn config_errors_exit_two() {
    // Manifest without a top-level `jobs` array.
    let manifest = temp_file("bad.json", r#"{"not_jobs": []}"#);
    let output = forge()
        .args(["batch", manifest.to_str().unwrap()])
        .output()
        .expect("forge batch executes");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("jobs"),
        "stderr explains the shape: {stderr}"
    );

    // Unknown flag.
    let output = forge()
        .args(["batch", manifest.to_str().unwrap(), "--no-such-flag"])
        .output()
        .expect("forge batch executes");
    assert_eq!(output.status.code(), Some(2));

    // Invalid admission knob.
    let output = forge()
        .args([
            "batch",
            manifest.to_str().unwrap(),
            "--breaker-threshold",
            "0",
        ])
        .output()
        .expect("forge batch executes");
    std::fs::remove_file(&manifest).ok();
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn serve_stage_cache_conflicts_exit_two_before_binding() {
    for (args, named) in [
        (
            &["--stage-cache", "unused-dir", "--no-stage-cache"][..],
            "--stage-cache conflicts with --no-stage-cache",
        ),
        (
            &["--no-stage-cache", "--remote-cache", "http://127.0.0.1:9"][..],
            "--remote-cache requires the stage cache",
        ),
    ] {
        let output = forge()
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .output()
            .expect("forge serve executes");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

#[test]
fn missing_or_garbage_manifests_exit_two() {
    // Nonexistent manifest path: a clean config error, not a panic.
    let output = forge()
        .args(["batch", "/nonexistent/chipforge-missing.json"])
        .output()
        .expect("forge batch executes");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("cannot read"),
        "stderr names the unreadable file: {stderr}"
    );

    // Unparseable JSON.
    let garbage = temp_file("garbage.json", "this is not json {{{");
    let output = forge()
        .args(["batch", garbage.to_str().unwrap()])
        .output()
        .expect("forge batch executes");
    std::fs::remove_file(&garbage).ok();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("bad manifest"),
        "stderr names the parse failure: {stderr}"
    );
}

#[test]
fn unknown_design_in_manifest_exits_two_at_parse_time() {
    // The typo is in job 2: resolution must happen while the manifest
    // is parsed, so job 1 never runs and the exit is a config error
    // naming the unknown design — not a late job failure.
    let manifest = temp_file(
        "typo.json",
        r#"{"jobs": [
            {"design": "counter8", "profile": "quick"},
            {"design": "countr8", "profile": "quick"}
        ]}"#,
    );
    let output = forge()
        .args(["batch", manifest.to_str().unwrap(), "--workers", "1"])
        .output()
        .expect("forge batch executes");
    std::fs::remove_file(&manifest).ok();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown design `countr8`"),
        "stderr names the typo: {stderr}"
    );
    assert!(
        stderr.contains("job 2"),
        "stderr names the offending entry: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !stdout.contains("counter8"),
        "no job may run before the manifest validates: {stdout}"
    );

    // A malformed `gen:` spec is the same parse-time config error.
    let manifest = temp_file(
        "badspec.json",
        r#"{"jobs": [{"design": "gen:dsp/fir?width=999", "profile": "quick"}]}"#,
    );
    let output = forge()
        .args(["batch", manifest.to_str().unwrap()])
        .output()
        .expect("forge batch executes");
    std::fs::remove_file(&manifest).ok();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("width"), "stderr names the knob: {stderr}");
}

#[test]
fn gen_specs_run_in_manifests_like_builtin_names() {
    let manifest = temp_file(
        "gen.json",
        r#"{"jobs": [
            {"design": "gen:cpu/ctrl?width=8&depth=2&seed=5", "profile": "quick"},
            {"design": "gen:crypto/round?width=8&rounds=2&seed=5", "profile": "quick", "clock_mhz": 200}
        ]}"#,
    );
    let output = forge()
        .args([
            "batch",
            manifest.to_str().unwrap(),
            "--workers",
            "1",
            "--strict",
        ])
        .output()
        .expect("forge batch executes");
    std::fs::remove_file(&manifest).ok();
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("gen_cpu_ctrl_w8_d2_u1_s5"),
        "generated module name appears in the report: {stdout}"
    );
}

#[test]
fn wrong_typed_manifest_fields_exit_two() {
    // A mistyped field must be a named error, never silently dropped
    // in favour of the default value.
    for (name, body) in [
        (
            "clock_mhz",
            r#"{"jobs": [{"design": "counter8", "clock_mhz": "fast"}]}"#,
        ),
        ("node", r#"{"jobs": [{"design": "counter8", "node": "x"}]}"#),
        ("seed", r#"{"jobs": [{"design": "counter8", "seed": [1]}]}"#),
        ("design", r#"{"jobs": [{"design": 42}]}"#),
    ] {
        let manifest = temp_file(&format!("typed-{name}.json"), body);
        let output = forge()
            .args(["batch", manifest.to_str().unwrap()])
            .output()
            .expect("forge batch executes");
        std::fs::remove_file(&manifest).ok();
        assert_eq!(output.status.code(), Some(2), "field `{name}`");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(name),
            "stderr names the offending field `{name}`: {stderr}"
        );
    }
}

#[test]
fn nonpositive_clock_in_manifest_exits_two_naming_the_job() {
    // The hub has always answered 400 here; `forge batch` used to run
    // the job to "succeeded". One parser now, one answer.
    for clock in ["0", "-5"] {
        let manifest = temp_file(
            &format!("clock{clock}.json"),
            &format!(
                r#"{{"jobs": [
                    {{"design": "counter8", "profile": "quick"}},
                    {{"design": "gray8", "profile": "quick", "clock_mhz": {clock}}}
                ]}}"#
            ),
        );
        let output = forge()
            .args(["batch", manifest.to_str().unwrap(), "--workers", "1"])
            .output()
            .expect("forge batch executes");
        std::fs::remove_file(&manifest).ok();
        assert_eq!(output.status.code(), Some(2), "clock {clock}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("job 2") && stderr.contains("`clock_mhz` must be positive"),
            "stderr names the entry and the field: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            !stdout.contains("counter8"),
            "no job may run before the manifest validates: {stdout}"
        );
    }
}

#[test]
fn manifest_only_fields_still_work_around_the_shared_parser() {
    // `file`, `copies`, `tier` and the `hang` fault mean something only
    // to a local batch; the entry's other fields go through the hub's
    // parser.
    let source = temp_file("lab.fhdl", designs::counter(4).source());
    let manifest = temp_file(
        "local.json",
        &format!(
            r#"{{"jobs": [
                {{"file": "{}", "profile": "quick", "clock_mhz": 80,
                  "tier": "advanced", "copies": 2}},
                {{"design": "gray8", "profile": "quick", "fault": "hang"}}
            ]}}"#,
            source.display()
        ),
    );
    let report = temp_file("local-report.json", "");
    let output = forge()
        .args([
            "batch",
            manifest.to_str().unwrap(),
            "--workers",
            "1",
            "--timeout-ms",
            "200",
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("forge batch executes");
    let text = std::fs::read_to_string(&report).expect("report written");
    for path in [&source, &manifest, &report] {
        std::fs::remove_file(path).ok();
    }
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let parsed = serde::json::parse(&text).expect("report is JSON");
    let jobs = parsed.get("jobs").seq().expect("jobs");
    let statuses: Vec<&str> = jobs
        .iter()
        .filter_map(|j| j.get("status").as_str())
        .collect();
    assert_eq!(statuses, ["Succeeded", "Succeeded", "TimedOut"]);
    assert_eq!(
        jobs[1].get("cache_hit"),
        &serde::Value::Bool(true),
        "the second copy is served from the artifact cache"
    );
}

#[test]
fn breaker_fast_fail_exits_three() {
    // One transient failure trips a threshold-1 breaker; the remaining
    // jobs fast-fail, which cuts the batch short (exit 3).
    let manifest = temp_file(
        "breaker.json",
        r#"{"jobs": [
            {"design": "counter8", "profile": "quick", "fault": "transient"},
            {"design": "gray8", "profile": "quick"},
            {"design": "lfsr8", "profile": "quick"}
        ]}"#,
    );
    let output = forge()
        .args([
            "batch",
            manifest.to_str().unwrap(),
            "--workers",
            "1",
            "--retries",
            "0",
            "--breaker-threshold",
            "1",
        ])
        .output()
        .expect("forge batch executes");
    std::fs::remove_file(&manifest).ok();
    assert_eq!(
        output.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("cut short"),
        "stderr explains the fast-fail: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("circuit breaker open"),
        "per-job lines name the open breaker: {stdout}"
    );
}

#[test]
fn rejected_jobs_are_journaled_and_resume_composes_with_admission() {
    // Queue window = workers + max_queue = 1, so two of three jobs are
    // rejected at admission. A resumed run restores all three outcomes
    // from the journal instead of re-admitting (0 newly admitted).
    let manifest = temp_file(
        "resume.json",
        r#"{"jobs": [
            {"design": "counter8", "profile": "quick", "tier": "beginner"},
            {"design": "gray8", "profile": "quick"},
            {"design": "lfsr8", "profile": "quick"}
        ]}"#,
    );
    let journal = std::env::temp_dir().join(format!(
        "chipforge-batch-journal-{}.jsonl",
        std::process::id()
    ));
    let args = |journal_flag: &str| {
        vec![
            "batch".to_string(),
            manifest.to_str().unwrap().to_string(),
            "--workers".to_string(),
            "1".to_string(),
            "--max-queue".to_string(),
            "0".to_string(),
            journal_flag.to_string(),
            journal.to_str().unwrap().to_string(),
        ]
    };
    let first = forge()
        .args(args("--journal"))
        .output()
        .expect("forge batch executes");
    assert_eq!(
        first.status.code(),
        Some(0),
        "rejections alone are not strict failures: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(
        stdout.contains("admit:  1 admitted, 2 rejected"),
        "admission summary line: {stdout}"
    );

    let second = forge()
        .args(args("--resume"))
        .output()
        .expect("forge batch executes");
    std::fs::remove_file(&manifest).ok();
    std::fs::remove_file(&journal).ok();
    assert_eq!(second.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(
        stdout.contains("admit:  0 admitted, 2 rejected"),
        "resume restores rejections instead of re-admitting: {stdout}"
    );
    assert!(
        stdout.contains("(resumed)"),
        "restored jobs tagged: {stdout}"
    );
}

#[test]
fn shed_jobs_are_counted_once_on_the_admit_line() {
    // Window = 1 worker + 0 queue slots: under shed-oldest each newer
    // submission displaces the one before it, so the last job runs and
    // the first two are shed. They report status `rejected`, but the
    // admit line counts them as shed only.
    let manifest = temp_file(
        "shed.json",
        r#"{"jobs": [
            {"design": "counter8", "profile": "quick"},
            {"design": "gray8", "profile": "quick"},
            {"design": "lfsr8", "profile": "quick"}
        ]}"#,
    );
    let output = forge()
        .args(["batch", manifest.to_str().unwrap()])
        .args(["--workers", "1", "--max-queue", "0", "--shed-oldest"])
        .output()
        .expect("forge batch executes");
    std::fs::remove_file(&manifest).ok();
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("admit:  1 admitted, 0 rejected, 2 shed"),
        "admission summary line: {stdout}"
    );
}
