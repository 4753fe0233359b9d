//! The per-stage snapshot cache behind incremental flow execution.
//!
//! This is the second level of the engine's two-level cache. The first
//! level ([`crate::cache::ArtifactCache`]) is keyed by everything that
//! affects the *whole* flow, so two jobs that differ in one backend knob
//! share nothing. The [`StageCache`] is keyed by the pipeline's chained
//! stage keys ([`chipforge_flow::Pipeline::stage_keys`]): a key for
//! stage N pins only the inputs that can influence stage N's artifact,
//! so a clock or profile sweep over one RTL source restores the shared
//! front-end (elaborate/synthesize) from snapshots and recomputes only
//! the stages its knobs actually reach.
//!
//! Storage is memory-first with an optional disk tier and an optional
//! *remote* tier. Disk entries are one checksum-framed canonical-JSON
//! [`StageSnapshot`] per file (`payload|fnv64`, the workspace-standard
//! frame), named by the 128-bit stage key, written via a temp file and
//! an atomic rename so concurrent workers (or a killed run) never leave
//! a torn entry; unreadable, truncated or bit-flipped files fail the
//! checksum, are deleted, and count as misses — the self-healing rule
//! the whole-flow [`crate::cache::ArtifactCache`] already follows. The
//! remote tier ([`crate::remote::RemoteCache`]) speaks the
//! `/cache/stage/<key>` protocol a `forge serve` hub hosts; lookups
//! fall through memory → disk → remote, and remote hits are promoted
//! into the local tiers. The memory map is unbounded — snapshots live
//! as long as the cache, which is the point of sharing one
//! [`Arc<StageCache>`] across engines (E17's warm pass) or batches.

use crate::metrics::{StageCacheRecord, StageCounter};
use crate::remote::{RemoteCache, RemoteCacheConfig};
use chipforge_flow::{FlowStep, StageSnapshot, StageStore};
use chipforge_resil::{frame_checksummed, verify_checksummed};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where the engine keeps per-stage flow snapshots.
#[derive(Debug, Clone, Default)]
pub enum StageCacheMode {
    /// No per-stage caching: every attempt recomputes every stage (the
    /// historical behavior, and still the default).
    #[default]
    Disabled,
    /// In-memory snapshots, shared by every batch the engine runs.
    Memory,
    /// Memory-backed snapshots with a disk tier that persists across
    /// processes (`forge batch --stage-cache <dir>`).
    Disk(PathBuf),
}

/// A monotonic snapshot of the per-stage hit/miss counters, taken at
/// batch start so the report can carry per-batch deltas even when the
/// cache outlives the batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCounters {
    hits: [u64; 8],
    misses: [u64; 8],
    disk_write_errors: u64,
}

/// Content-addressed storage for finished flow-stage snapshots.
///
/// Implements [`StageStore`], so the flow pipeline restores and stores
/// snapshots directly; the engine only decides *whether* a cache is
/// attached to an attempt (degraded retries run without one, mirroring
/// the whole-flow rule that degraded artifacts are never cached).
pub struct StageCache {
    /// Entries are shared, so the lock covers the map operation only:
    /// the deep copy a caller gets is made after it is released.
    memory: Mutex<HashMap<u128, Arc<StageSnapshot>>>,
    disk: Option<PathBuf>,
    remote: Option<Arc<RemoteCache>>,
    hits: [AtomicU64; 8],
    misses: [AtomicU64; 8],
    tmp_seq: AtomicU64,
    disk_write_errors: AtomicU64,
    disk_disabled: AtomicBool,
}

impl StageCache {
    fn new(disk: Option<PathBuf>, remote: Option<Arc<RemoteCache>>) -> Arc<Self> {
        Arc::new(StageCache {
            memory: Mutex::new(HashMap::new()),
            disk,
            remote,
            hits: Default::default(),
            misses: Default::default(),
            tmp_seq: AtomicU64::new(0),
            disk_write_errors: AtomicU64::new(0),
            disk_disabled: AtomicBool::new(false),
        })
    }

    /// A memory-only cache.
    #[must_use]
    pub fn in_memory() -> Arc<Self> {
        Self::new(None, None)
    }

    /// A memory-backed cache with a disk tier rooted at `dir` (created
    /// if missing; on failure the disk tier degrades to a no-op and the
    /// cache keeps working from memory).
    #[must_use]
    pub fn on_disk(dir: &Path) -> Arc<Self> {
        let _ = std::fs::create_dir_all(dir);
        Self::new(Some(dir.to_path_buf()), None)
    }

    /// The cache `mode` asks for — `None` when per-stage caching is
    /// disabled — with a client for `remote` attached as the third tier
    /// when one is configured. A remote upgrades
    /// [`StageCacheMode::Disabled`] to memory-only local tiers: pointing
    /// a run at a remote cache implies per-stage caching.
    #[must_use]
    pub fn from_mode(
        mode: &StageCacheMode,
        remote: Option<&RemoteCacheConfig>,
    ) -> Option<Arc<Self>> {
        let remote = remote.map(|config| Arc::new(RemoteCache::new(config.clone())));
        match mode {
            StageCacheMode::Disabled if remote.is_none() => None,
            StageCacheMode::Disabled | StageCacheMode::Memory => Some(Self::new(None, remote)),
            StageCacheMode::Disk(dir) => {
                let _ = std::fs::create_dir_all(dir);
                Some(Self::new(Some(dir.clone()), remote))
            }
        }
    }

    /// The attached remote tier, if any.
    #[must_use]
    pub fn remote(&self) -> Option<&Arc<RemoteCache>> {
        self.remote.as_ref()
    }

    /// Snapshots currently held in memory.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.memory.lock().expect("stage cache lock").len()
    }

    /// The current monotonic counter values; subtract two snapshots to
    /// get per-batch deltas.
    #[must_use]
    pub fn counters(&self) -> StageCounters {
        let mut snapshot = StageCounters::default();
        for i in 0..8 {
            snapshot.hits[i] = self.hits[i].load(Ordering::SeqCst);
            snapshot.misses[i] = self.misses[i].load(Ordering::SeqCst);
        }
        snapshot.disk_write_errors = self.disk_write_errors.load(Ordering::SeqCst);
        snapshot
    }

    /// The serializable per-batch accounting: counter deltas since
    /// `since`, plus the job-level restore/recompute split the engine
    /// tallied.
    #[must_use]
    pub fn record(
        &self,
        since: &StageCounters,
        full_restores: u64,
        recomputes: u64,
    ) -> StageCacheRecord {
        let now = self.counters();
        let stages: Vec<StageCounter> = FlowStep::ALL
            .iter()
            .map(|step| StageCounter {
                stage: step.name().to_string(),
                hits: now.hits[step.index()] - since.hits[step.index()],
                misses: now.misses[step.index()] - since.misses[step.index()],
            })
            .collect();
        StageCacheRecord {
            hits: stages.iter().map(|s| s.hits).sum(),
            misses: stages.iter().map(|s| s.misses).sum(),
            full_restores,
            recomputes,
            disk_write_errors: now.disk_write_errors - since.disk_write_errors,
            stages,
        }
    }

    fn remember(&self, key: u128, snapshot: Arc<StageSnapshot>) {
        self.memory
            .lock()
            .expect("stage cache lock")
            .insert(key, snapshot);
    }

    fn recall(&self, key: u128) -> Option<Arc<StageSnapshot>> {
        self.memory
            .lock()
            .expect("stage cache lock")
            .get(&key)
            .cloned()
    }

    fn disk_path(&self, key: u128) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|dir| dir.join(format!("{key:032x}.json")))
    }

    /// Reads and verifies the on-disk entry for `key`. A file that
    /// fails its checksum frame or its parse — truncated, bit-flipped,
    /// or written by a pre-frame version — is deleted so the slot heals
    /// on the next store, and the load is a miss.
    fn load_from_disk_any(&self, key: u128) -> Option<StageSnapshot> {
        let path = self.disk_path(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        let snapshot = verify_checksummed(&text)
            .and_then(|payload| serde::json::from_str::<StageSnapshot>(payload).ok());
        if snapshot.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        snapshot
    }

    fn load_from_disk(&self, key: u128, step: FlowStep) -> Option<StageSnapshot> {
        let snapshot = self.load_from_disk_any(key)?;
        (snapshot.step == step).then_some(snapshot)
    }

    /// Writes `snapshot` to the local tiers only (memory, then disk) —
    /// the promotion path for remote hits, and the body of
    /// [`StageStore::store`] minus the remote publish.
    fn store_local(&self, key: u128, snapshot: &StageSnapshot) {
        self.remember(key, Arc::new(snapshot.clone()));
        if self.disk_disabled.load(Ordering::SeqCst) {
            return;
        }
        if let Some(path) = self.disk_path(key) {
            // Unique temp name per write: two workers finishing the same
            // stage concurrently must not interleave into one temp file.
            let seq = self.tmp_seq.fetch_add(1, Ordering::SeqCst);
            let tmp = path.with_extension(format!("{seq}.tmp"));
            let text = frame_checksummed(&serde::json::to_string(snapshot));
            let written =
                std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, &path).is_ok();
            if !written {
                // A full or read-only disk must cost cache persistence,
                // never jobs: count the failure, disable the disk tier
                // for the life of the cache (memory keeps serving), and
                // warn the operator exactly once.
                let _ = std::fs::remove_file(&tmp);
                self.disk_write_errors.fetch_add(1, Ordering::SeqCst);
                if !self.disk_disabled.swap(true, Ordering::SeqCst) {
                    eprintln!(
                        "warning: stage cache disk tier at {} is not writable; \
                         continuing memory-only",
                        path.parent().unwrap_or(&path).display()
                    );
                }
            }
        }
    }

    /// A counter-free local lookup for the serve side of the protocol:
    /// memory first, then verified disk, any step. The hub uses this to
    /// answer `/cache/stage/<key>` GET/HEAD without skewing the batch
    /// hit/miss accounting its own workers produce.
    #[must_use]
    pub fn peek(&self, key: u128) -> Option<StageSnapshot> {
        match self.recall(key) {
            Some(shared) => Some(StageSnapshot::clone(&shared)),
            None => self.load_from_disk_any(key),
        }
    }

    /// Inserts a snapshot into the local tiers without touching the
    /// remote — the serve side of a `/cache/stage/<key>` PUT. (Going
    /// through [`StageStore::store`] would bounce the entry back to the
    /// remote that just sent it.)
    pub fn insert_local(&self, key: u128, snapshot: &StageSnapshot) {
        self.store_local(key, snapshot);
    }
}

impl StageStore for StageCache {
    fn load(&self, key: u128, step: FlowStep) -> Option<StageSnapshot> {
        let snapshot = self
            .recall(key)
            .filter(|shared| shared.step == step)
            .map(|shared| StageSnapshot::clone(&shared))
            .or_else(|| {
                // Promote disk entries so repeat loads stay in memory.
                let snapshot = self.load_from_disk(key, step)?;
                self.remember(key, Arc::new(snapshot.clone()));
                Some(snapshot)
            })
            .or_else(|| {
                // Remote tier last: every fetched byte is checksum-
                // verified by the client before it counts as a hit.
                // Promote into the local tiers so one remote round-trip
                // serves all later loads.
                let snapshot = self.remote.as_ref()?.fetch(key, step)?;
                self.store_local(key, &snapshot);
                Some(snapshot)
            });
        match &snapshot {
            Some(_) => self.hits[step.index()].fetch_add(1, Ordering::SeqCst),
            None => self.misses[step.index()].fetch_add(1, Ordering::SeqCst),
        };
        snapshot
    }

    fn store(&self, key: u128, snapshot: &StageSnapshot) {
        self.store_local(key, snapshot);
        if let Some(remote) = &self.remote {
            remote.publish(key, snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge_flow::StageArtifact;

    fn snapshot(step: FlowStep) -> StageSnapshot {
        StageSnapshot {
            step,
            detail: "42 bytes GDSII".to_string(),
            artifact: StageArtifact::Export { gds: vec![1, 2, 3] },
        }
    }

    #[test]
    fn memory_roundtrip_counts_hits_and_misses() {
        let cache = StageCache::in_memory();
        assert!(cache.load(7, FlowStep::Export).is_none());
        cache.store(7, &snapshot(FlowStep::Export));
        let restored = cache.load(7, FlowStep::Export).expect("stored");
        assert_eq!(restored.detail, "42 bytes GDSII");
        let record = cache.record(&StageCounters::default(), 0, 0);
        assert_eq!(record.hits, 1);
        assert_eq!(record.misses, 1);
        let export = record.stages.iter().find(|s| s.stage == "export").unwrap();
        assert_eq!((export.hits, export.misses), (1, 1));
    }

    #[test]
    fn mismatched_step_is_a_miss() {
        let cache = StageCache::in_memory();
        cache.store(9, &snapshot(FlowStep::Export));
        assert!(cache.load(9, FlowStep::Route).is_none());
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("chipforge-stage-cache-{}", std::process::id()));
        let cache = StageCache::on_disk(&dir);
        cache.store(11, &snapshot(FlowStep::Export));
        drop(cache);
        let fresh = StageCache::on_disk(&dir);
        assert_eq!(fresh.entries(), 0, "nothing promoted yet");
        assert!(fresh.load(11, FlowStep::Export).is_some());
        assert_eq!(fresh.entries(), 1, "disk hit promoted to memory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_disk_entry_is_detected_and_healed() {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "chipforge-stage-cache-trunc-{}",
            std::process::id()
        ));
        let cache = StageCache::on_disk(&dir);
        cache.store(21, &snapshot(FlowStep::Export));
        let path = dir.join(format!("{:032x}.json", 21u128));
        let text = std::fs::read_to_string(&path).expect("entry on disk");
        // Simulate a torn write / partial copy: drop the tail.
        std::fs::write(&path, &text[..text.len() - 6]).expect("truncate");
        let fresh = StageCache::on_disk(&dir);
        assert!(
            fresh.load(21, FlowStep::Export).is_none(),
            "truncated entry must miss, not deserialize garbage"
        );
        assert!(!path.exists(), "corrupt entry is removed (self-healing)");
        // The next store repopulates the slot cleanly.
        fresh.store(21, &snapshot(FlowStep::Export));
        let again = StageCache::on_disk(&dir);
        assert!(again.load(21, FlowStep::Export).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_disk_entry_is_detected_and_healed() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("chipforge-stage-cache-flip-{}", std::process::id()));
        let cache = StageCache::on_disk(&dir);
        cache.store(22, &snapshot(FlowStep::Export));
        let path = dir.join(format!("{:032x}.json", 22u128));
        let mut bytes = std::fs::read(&path).expect("entry on disk");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).expect("flip");
        let fresh = StageCache::on_disk(&dir);
        assert!(
            fresh.load(22, FlowStep::Export).is_none(),
            "bit-flipped entry must fail its checksum"
        );
        assert!(!path.exists(), "corrupt entry is removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peek_serves_any_step_without_counting() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("chipforge-stage-cache-peek-{}", std::process::id()));
        let cache = StageCache::on_disk(&dir);
        cache.store(23, &snapshot(FlowStep::Export));
        drop(cache);
        let fresh = StageCache::on_disk(&dir);
        assert!(fresh.peek(23).is_some(), "peek reads through to disk");
        assert!(fresh.peek(24).is_none());
        let record = fresh.record(&StageCounters::default(), 0, 0);
        assert_eq!(
            (record.hits, record.misses),
            (0, 0),
            "peek never skews batch accounting"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_disk_tier_degrades_to_memory_and_counts() {
        // A regular file where the cache directory should be makes every
        // disk write fail with ENOTDIR — unlike a chmod'd read-only
        // directory, this fails even when the tests run as root.
        let mut dir = std::env::temp_dir();
        dir.push(format!("chipforge-stage-cache-ro-{}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        std::fs::write(&dir, "not a directory").expect("placeholder file");
        let cache = StageCache::on_disk(&dir);
        cache.store(31, &snapshot(FlowStep::Export));
        cache.store(32, &snapshot(FlowStep::Route));
        assert!(
            cache.load(31, FlowStep::Export).is_some(),
            "memory tier must keep serving after the disk tier fails"
        );
        let record = cache.record(&StageCounters::default(), 0, 0);
        assert_eq!(
            record.disk_write_errors, 1,
            "the tier is disabled after the first failure, so later \
             stores must not retry the disk"
        );
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn counter_deltas_are_relative_to_the_snapshot() {
        let cache = StageCache::in_memory();
        cache.store(1, &snapshot(FlowStep::Export));
        let _ = cache.load(1, FlowStep::Export);
        let base = cache.counters();
        let _ = cache.load(1, FlowStep::Export);
        let record = cache.record(&base, 1, 0);
        assert_eq!(record.hits, 1, "only the post-snapshot load counts");
        assert_eq!(record.full_restores, 1);
    }
}
