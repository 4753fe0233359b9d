//! Cross-crate resilience guarantees: checkpoint/resume determinism
//! under interruption, fault-plan behavior on a classroom-sized batch,
//! journal corruption robustness (property-based), and the
//! failure-containment policies.

use chipforge::exec::{
    AttemptLimits, BatchEngine, EngineConfig, JobSpec, JobStatus, ResilienceOptions,
};
use chipforge::flow::OptimizationProfile;
use chipforge::hdl::designs;
use chipforge::pdk::TechnologyNode;
use chipforge::resil::{FaultPlan, Journal, JournalRecord, JournalWriter, ResiliencePolicy};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

/// 24 distinct quick-profile jobs over the built-in design suite.
fn chaos_jobs() -> Vec<JobSpec> {
    let suite = designs::suite();
    (0..24usize)
        .map(|i| {
            let design = &suite[i % suite.len()];
            JobSpec::new(
                format!("{}-{i:02}", design.name()),
                design.source(),
                TechnologyNode::N130,
                OptimizationProfile::quick(),
            )
            .with_seed(500 + i as u64)
        })
        .collect()
}

fn fast_config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        limits: AttemptLimits {
            retry_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            ..AttemptLimits::default()
        },
        ..EngineConfig::default()
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "chipforge-resilience-{}-{tag}.jsonl",
        std::process::id()
    ))
}

/// A 20% transient plan with quarantine + degradation — the reference
/// chaos configuration from the E15 experiment.
fn chaos_options(
    journal: Option<JournalWriter>,
    resume: Option<Journal>,
    halt_after: Option<usize>,
) -> ResilienceOptions {
    ResilienceOptions {
        plan: FaultPlan::transient(42, 0.2),
        policy: ResiliencePolicy::resilient(2),
        journal,
        resume,
        halt_after,
        ..ResilienceOptions::default()
    }
}

/// The tentpole guarantee: a run killed after `k` journaled jobs and
/// resumed from its journal reproduces the uninterrupted run's
/// canonical report byte-for-byte — for k = 0 (nothing saved), a
/// mid-batch kill, and k = all (everything restored). The halted run
/// uses 4 workers and the resume 1, so neither the pool size nor the
/// jobs in flight at the halt may lose or repeat a job.
#[test]
fn resume_after_interruption_is_byte_identical() {
    let clean = BatchEngine::new(fast_config(2))
        .run_batch_resilient(chaos_jobs(), chaos_options(None, None, None));
    assert!(!clean.halted);
    assert_eq!(clean.results.len(), 24);

    for (tag, kill_after) in [("k0", 0usize), ("kmid", 12), ("kall", 24)] {
        let path = temp_path(tag);
        let writer = JournalWriter::create(&path).expect("create journal");
        let halted = BatchEngine::new(fast_config(4)).run_batch_resilient(
            chaos_jobs(),
            chaos_options(Some(writer), None, Some(kill_after)),
        );
        if kill_after < 24 {
            assert!(halted.halted, "kill at {kill_after} halts the run");
        }
        let journal = Journal::load(&path).expect("load journal");
        assert!(
            journal.records.len() >= kill_after,
            "at least {kill_after} records on disk (got {})",
            journal.records.len()
        );
        let resumed = BatchEngine::new(fast_config(1))
            .run_batch_resilient(chaos_jobs(), chaos_options(None, Some(journal), None));
        let indices: Vec<usize> = resumed.results.iter().map(|r| r.index).collect();
        assert_eq!(
            indices,
            (0..24).collect::<Vec<_>>(),
            "every job appears exactly once after resume-at-{kill_after}"
        );
        assert_eq!(
            clean.canonical_report(),
            resumed.canonical_report(),
            "resume after kill-at-{kill_after} diverged from the clean run"
        );
        if kill_after == 24 {
            assert!(
                resumed.results.iter().all(|r| r.resumed),
                "a complete journal restores every job"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A 20% transient plan over 24 jobs loses nothing: every job reaches a
/// terminal state, and only jobs whose planned faults outlast the
/// attempt limit are quarantined — exactly the ones the plan predicts.
#[test]
fn chaos_batch_loses_no_jobs_and_quarantines_predictably() {
    let plan = FaultPlan::transient(42, 0.2);
    let policy = ResiliencePolicy::resilient(2).without_degrade();
    let batch = BatchEngine::new(fast_config(4)).run_batch_resilient(
        chaos_jobs(),
        ResilienceOptions {
            plan,
            policy,
            ..ResilienceOptions::default()
        },
    );
    assert_eq!(batch.results.len(), 24, "no job was lost");

    // Predict per-job outcomes straight from the plan: a job is
    // quarantined iff both allowed attempts draw a transient fault.
    for (result, spec) in batch.results.iter().zip(chaos_jobs()) {
        let key = chipforge::exec::CacheKey::of(&spec).to_string();
        let doomed =
            (1..=2).all(|attempt| plan.disruption(&key, attempt).transient_stage.is_some());
        let expected = if doomed {
            JobStatus::Quarantined
        } else {
            JobStatus::Succeeded
        };
        assert_eq!(
            result.status, expected,
            "job {} diverged from the plan's prediction",
            result.name
        );
    }
}

/// Degraded retries surface in the per-job results and the report
/// totals, and carry the relaxed profile's fingerprint (an artifact is
/// still produced).
#[test]
fn degraded_jobs_are_reported_as_such() {
    use chipforge::exec::Fault;
    let batch = BatchEngine::new(fast_config(1)).run_batch_resilient(
        vec![chaos_jobs().remove(0).with_fault(Fault::Transient(3))],
        ResilienceOptions {
            policy: ResiliencePolicy::resilient(2),
            ..ResilienceOptions::default()
        },
    );
    let job = &batch.results[0];
    assert_eq!(job.status, JobStatus::Succeeded);
    assert!(job.degraded, "the relaxed retry is flagged");
    assert!(job.outcome.is_some(), "a degraded job still ships a GDS");
    assert_eq!(batch.report.totals.degraded, 1);
    let canonical = batch.canonical_report();
    assert!(
        canonical.contains("\"degraded\": true"),
        "degradation is part of the canonical report: {canonical}"
    );
}

/// The failure budget fail-fasts: once exceeded, jobs not yet started
/// are cancelled rather than executed.
#[test]
fn failure_budget_fail_fasts_the_batch() {
    use chipforge::exec::Fault;
    let mut jobs = chaos_jobs();
    jobs.truncate(4);
    jobs[0] = jobs[0].clone().with_fault(Fault::Transient(9));
    let batch = BatchEngine::new(fast_config(1)).run_batch_resilient(
        jobs,
        ResilienceOptions {
            policy: ResiliencePolicy::resilient(1)
                .without_degrade()
                .with_failure_budget(0),
            ..ResilienceOptions::default()
        },
    );
    assert_eq!(batch.results[0].status, JobStatus::Quarantined);
    assert!(
        batch.results[1..]
            .iter()
            .all(|r| r.status == JobStatus::Cancelled),
        "everything after the blown budget is cancelled"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Journal round-trip: any record survives write + parse exactly,
    /// and truncating the file after k records yields exactly the first
    /// k records back (the append-only, fsync-per-record contract).
    #[test]
    fn journal_round_trips_any_prefix(
        statuses in proptest::collection::vec(0u8..4, 1..12),
        k in 0usize..12,
    ) {
        let path = temp_path(&format!("prop-{}-{k}", statuses.len()));
        let mut writer = JournalWriter::create(&path).expect("create");
        let records: Vec<JournalRecord> = statuses.iter().enumerate().map(|(i, s)| JournalRecord {
            seq: i as u64,
            index: i,
            key: format!("{i:032x}"),
            name: format!("job-{i}"),
            status: ["succeeded", "failed", "timed-out", "quarantined"][*s as usize].to_string(),
            attempts: u32::from(*s) + 1,
            degraded: *s == 0,
            error: if *s == 0 { None } else { Some(format!("err {s}")) },
            ppa: None,
            gds_fnv: Some(u64::from(*s) * 17),
        }).collect();
        for record in &records {
            writer.append(record).expect("append");
        }
        drop(writer);

        // Full read-back.
        let full = Journal::load(&path).expect("load");
        prop_assert_eq!(&full.records, &records);
        prop_assert_eq!(full.skipped_lines, 0);

        // Truncate to the first k lines: exactly k records survive.
        let text = std::fs::read_to_string(&path).expect("read");
        let k = k.min(records.len());
        let prefix: String = text.lines().take(k).map(|l| format!("{l}\n")).collect();
        let truncated = Journal::parse(&prefix);
        prop_assert_eq!(&truncated.records[..], &records[..k]);
        let _ = std::fs::remove_file(&path);
    }

    /// Every single-byte flip in a journal line is caught by the CRC:
    /// the record is skipped, never silently misparsed.
    #[test]
    fn journal_detects_any_single_byte_flip(flip_pos in 0usize..200, xor in 1u8..=255) {
        let path = temp_path(&format!("flip-{flip_pos}-{xor}"));
        let mut writer = JournalWriter::create(&path).expect("create");
        writer.append(&JournalRecord {
            seq: 0,
            index: 0,
            key: "k".repeat(32),
            name: "victim".into(),
            status: "succeeded".into(),
            attempts: 1,
            degraded: false,
            error: None,
            ppa: None,
            gds_fnv: Some(99),
        }).expect("append");
        drop(writer);
        let mut bytes = std::fs::read(&path).expect("read");
        prop_assert!(bytes.len() > 1, "journal file has content");
        let pos = flip_pos % (bytes.len() - 1); // keep the trailing newline
        bytes[pos] ^= xor;
        let corrupted = Journal::parse(&String::from_utf8_lossy(&bytes));
        // FNV-1a's per-step bijectivity means a single flipped byte
        // always changes the line CRC, so the record can never survive
        // verification (a flip that injects a newline may split the
        // line in two — both halves must still be rejected).
        prop_assert!(
            corrupted.records.is_empty(),
            "flipped byte at {} went undetected",
            pos
        );
        prop_assert!(corrupted.skipped_lines >= 1);
        let _ = std::fs::remove_file(&path);
    }
}
