//! Direct calls into single layers, on real artifacts of the workload
//! that asks for them. Each call is timed on its own and the median
//! reported, in microseconds. Traced runs only.

use crate::flow_probe::CaptureStore;
use crate::stats;
use chipforge_exec::{ArtifactCache, CacheKey, JobSpec, StageCache};
use chipforge_flow::{FlowCtx, FlowOutcome, Pipeline, StageSnapshot, StageStore};
use chipforge_obs::Tracer;
use chipforge_resil::{JournalRecord, JournalWriter};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Median microseconds of `f` over `items`, one timed call per item.
fn median_us<I>(items: impl IntoIterator<Item = I>, mut f: impl FnMut(I)) -> f64 {
    let samples: Vec<f64> = items
        .into_iter()
        .map(|item| {
            let started = Instant::now();
            f(item);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// The stage snapshots a stage cache would hold after running `jobs`
/// cold: one storeless-looking flow per job under a capturing store.
pub fn capture_snapshots(jobs: &[JobSpec]) -> Vec<(u128, StageSnapshot)> {
    let store = CaptureStore::default();
    let tracer = Tracer::disabled();
    for job in jobs {
        let _ = Pipeline::standard().run(
            &job.source,
            &job.flow_config(),
            &FlowCtx::new(&tracer).with_stages(&store),
        );
    }
    store.snapshots.into_inner().expect("no store user panics")
}

/// A scratch directory under `out_dir`, removed when dropped.
pub struct ScratchDir(pub std::path::PathBuf);

impl ScratchDir {
    pub fn new(out_dir: &Path, label: &str) -> std::io::Result<Self> {
        let dir = out_dir.join(format!("scratch-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `exec` and `resil` primitives a batch leans on, timed on the
/// batch's own jobs, outcomes and stage snapshots.
pub fn exec_primitives(
    jobs: &[JobSpec],
    outcomes: &[(CacheKey, Arc<FlowOutcome>)],
    snapshots: &[(u128, StageSnapshot)],
    out_dir: &Path,
) -> BTreeMap<&'static str, f64> {
    let mut metrics = BTreeMap::new();
    metrics.insert(
        "exec.cache_key_us",
        median_us(jobs, |job| {
            std::hint::black_box(CacheKey::of(job));
        }),
    );

    let artifacts = ArtifactCache::new(4096);
    for (key, outcome) in outcomes {
        artifacts.insert(*key, Arc::clone(outcome));
    }
    metrics.insert(
        "exec.artifact_lookup_us",
        median_us(outcomes, |(key, _)| {
            std::hint::black_box(artifacts.lookup(*key));
        }),
    );

    let memory = StageCache::in_memory();
    metrics.insert(
        "exec.stage_store_us",
        median_us(snapshots, |(key, snapshot)| memory.store(*key, snapshot)),
    );
    metrics.insert(
        "exec.stage_load_us",
        median_us(snapshots, |(key, snapshot)| {
            std::hint::black_box(memory.load(*key, snapshot.step));
        }),
    );

    if let Ok(scratch) = ScratchDir::new(out_dir, "stage-cache") {
        let writer = StageCache::on_disk(&scratch.0);
        metrics.insert(
            "exec.stage_store_disk_us",
            median_us(snapshots, |(key, snapshot)| writer.store(*key, snapshot)),
        );
        // A second cache over the same directory has nothing in memory:
        // every load reads, verifies and parses the file.
        let reader = StageCache::on_disk(&scratch.0);
        metrics.insert(
            "exec.stage_load_disk_us",
            median_us(snapshots, |(key, snapshot)| {
                std::hint::black_box(reader.load(*key, snapshot.step));
            }),
        );
        if let Ok(mut journal) = JournalWriter::create(scratch.0.join("journal.jsonl")) {
            let records = outcomes
                .iter()
                .enumerate()
                .map(|(i, (key, outcome))| JournalRecord {
                    seq: i as u64,
                    index: i,
                    key: key.to_string(),
                    name: outcome.report.design.clone(),
                    status: "succeeded".into(),
                    attempts: 1,
                    degraded: false,
                    error: None,
                    ppa: Some(outcome.report.ppa.clone()),
                    gds_fnv: Some(chipforge_resil::fnv64(&outcome.gds)),
                });
            metrics.insert(
                "resil.journal_append_us",
                median_us(records, |record| {
                    let _ = journal.append(&record);
                }),
            );
        }
    }

    let payloads: Vec<String> = snapshots
        .iter()
        .map(|(_, snapshot)| serde::json::to_string(snapshot))
        .collect();
    let bytes: usize = payloads.iter().map(String::len).sum();
    let started = Instant::now();
    for payload in &payloads {
        std::hint::black_box(chipforge_resil::fnv64(payload.as_bytes()));
    }
    let secs = started.elapsed().as_secs_f64();
    metrics.insert(
        "resil.checksum_mb_per_s",
        bytes as f64 / 1e6 / secs.max(f64::MIN_POSITIVE),
    );
    metrics
}

/// The hub's HTTP codec on canned bytes: parsing one job submission and
/// writing one status response.
pub fn http_codec(submit_body: &str, status_body: &str) -> BTreeMap<&'static str, f64> {
    let request = format!(
        "POST /api/v1/jobs HTTP/1.1\r\nhost: 127.0.0.1\r\nx-api-key: demo-beginner\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{submit_body}",
        submit_body.len()
    );
    let mut metrics = BTreeMap::new();
    metrics.insert(
        "serve.http_read_request_us",
        median_us(0..2_000, |_| {
            let mut reader = std::io::BufReader::new(request.as_bytes());
            std::hint::black_box(chipforge_serve::http::read_request(&mut reader).is_ok());
        }),
    );
    metrics.insert(
        "serve.http_write_response_us",
        median_us(0..2_000, |_| {
            let mut sink = Vec::with_capacity(status_body.len() + 128);
            let _ = chipforge_serve::http::write_response(&mut sink, 200, status_body);
            std::hint::black_box(sink);
        }),
    );
    metrics
}
