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
//! checksum, are deleted, and count as misses. That frame is the one
//! integrity check of both cache levels: it is where bytes leave memory
//! (a disk file, a wire body, a `PUT`), while the whole-flow
//! [`crate::cache::ArtifactCache`] only ever shares in-memory artifacts.
//!
//! The remote tier ([`crate::remote::RemoteCache`]) speaks the protocol
//! a `forge serve` hub hosts, and it is asked once per run, not once per
//! stage: [`StageStore::prefetch`] sends every key of the run's chain
//! the local tiers lack in one request, promotes what comes back into
//! the local tiers, and the stage-by-stage loads that follow read
//! memory → disk only.
//!
//! A memory entry holds the snapshot, its frame (the exact bytes a disk
//! entry or a protocol body carries), or both, and derives the missing
//! one on first use: a hub serves `GET`s from the frames `PUT`s brought
//! in without re-encoding them, and a worker restores from the snapshot
//! it computed without decoding. The memory map is unbounded — entries
//! live as long as the cache, which is the point of sharing one
//! [`Arc<StageCache>`] across engines (E17's warm pass) or batches.

use crate::metrics::{StageCacheRecord, StageCounter};
use crate::remote::{decode, encode, RemoteCache, RemoteCacheConfig};
use chipforge_flow::{FlowStep, StageSnapshot, StageStore};
use chipforge_resil::verify_checksummed;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// One memory-tier entry: a snapshot, its checksum frame, or both.
/// Whichever is missing is derived from the other the first time it is
/// asked for, and kept.
struct Entry {
    snapshot: OnceLock<Option<Arc<StageSnapshot>>>,
    frame: OnceLock<Arc<str>>,
}

impl Entry {
    fn computed(snapshot: Arc<StageSnapshot>) -> Self {
        Entry {
            snapshot: OnceLock::from(Some(snapshot)),
            frame: OnceLock::new(),
        }
    }

    fn framed(frame: Arc<str>) -> Self {
        Entry {
            snapshot: OnceLock::new(),
            frame: OnceLock::from(frame),
        }
    }

    /// The snapshot, decoded from the frame on first use. Frames are
    /// verified before they become entries, so `None` is a frame that
    /// stopped decoding — a miss, never a panic.
    fn snapshot(&self) -> Option<Arc<StageSnapshot>> {
        self.snapshot
            .get_or_init(|| decode(self.frame.get()?).map(Arc::new))
            .clone()
    }

    /// The frame, encoded from the snapshot on first use.
    fn frame(&self) -> Arc<str> {
        let frame = self.frame.get_or_init(|| {
            let snapshot = self.snapshot.get().and_then(Option::as_ref);
            encode(snapshot.expect("an entry is built from a snapshot or a frame")).into()
        });
        Arc::clone(frame)
    }
}

/// Content-addressed storage for finished flow-stage snapshots.
///
/// Implements [`StageStore`], so the flow pipeline restores and stores
/// snapshots directly; the engine only decides *whether* a cache is
/// attached to an attempt (degraded retries run without one, mirroring
/// the whole-flow rule that degraded artifacts are never cached).
pub struct StageCache {
    /// Entries are shared, so the lock covers the map operation only:
    /// copies, encodes and decodes happen after it is released.
    memory: Mutex<HashMap<u128, Arc<Entry>>>,
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

    fn remember(&self, key: u128, entry: Entry) {
        let entry = Arc::new(entry);
        self.memory
            .lock()
            .expect("stage cache lock")
            .insert(key, entry);
    }

    fn recall(&self, key: u128) -> Option<Arc<Entry>> {
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

    /// Reads the on-disk entry for `key` and hands its text to `accept`.
    /// A file `accept` refuses — truncated, bit-flipped, or written by a
    /// pre-frame version — is deleted so the slot heals on the next
    /// store, and the read is a miss.
    fn read_disk<T>(&self, key: u128, accept: impl FnOnce(String) -> Option<T>) -> Option<T> {
        let path = self.disk_path(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        let accepted = accept(text);
        if accepted.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        accepted
    }

    /// Whether a disk write would be attempted.
    fn writes_disk(&self) -> bool {
        self.disk.is_some() && !self.disk_disabled.load(Ordering::SeqCst)
    }

    /// Writes an entry to the local tiers only (memory, then `frame` to
    /// disk) — the promotion path for remote hits, the serve side of a
    /// `PUT`, and [`StageStore::store`] minus the publish. Callers pass
    /// the frame whenever [`StageCache::writes_disk`] holds.
    fn store_local(&self, key: u128, entry: Entry, frame: Option<&str>) {
        self.remember(key, entry);
        let (Some(frame), Some(path)) = (frame, self.disk_path(key)) else {
            return;
        };
        if self.disk_disabled.load(Ordering::SeqCst) {
            return;
        }
        // Unique temp name per write: two workers finishing the same
        // stage concurrently must not interleave into one temp file.
        let seq = self.tmp_seq.fetch_add(1, Ordering::SeqCst);
        let tmp = path.with_extension(format!("{seq}.tmp"));
        let written = std::fs::write(&tmp, frame).is_ok() && std::fs::rename(&tmp, &path).is_ok();
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

    /// The serve side of the protocol: the checksum frame stored under
    /// `key`, any step — the body a hub answers with — from memory
    /// (encoded once, on the first request for an entry computed here)
    /// or from a disk file that passes its checksum and parses, so a
    /// file no snapshot can be read from is deleted, not served.
    /// Counter-free, so the hub's protocol traffic never skews the batch
    /// hit/miss accounting its own workers produce.
    #[must_use]
    pub fn peek(&self, key: u128) -> Option<Arc<str>> {
        match self.recall(key) {
            Some(entry) => Some(entry.frame()),
            None => self.read_disk(key, |text| decode(&text).map(|_| text.into())),
        }
    }

    /// Reads `key`'s disk entry into memory, so repeat loads stay there.
    fn promote_disk(&self, key: u128) -> Option<Arc<StageSnapshot>> {
        let snapshot = Arc::new(self.read_disk(key, |text| decode(&text))?);
        self.remember(key, Entry::computed(Arc::clone(&snapshot)));
        Some(snapshot)
    }

    /// Stores a checksum frame received from elsewhere in the local tiers
    /// only — the serve side of a `PUT`. The frame is kept as received,
    /// so later `GET`s send these bytes back without an encode. (Going
    /// through [`StageStore::store`] would bounce the entry back to the
    /// remote that just sent it.)
    ///
    /// # Errors
    ///
    /// A frame that fails its checksum or does not parse as a
    /// [`StageSnapshot`] is refused and the cache is left untouched.
    pub fn insert_frame(&self, key: u128, frame: &str) -> Result<(), String> {
        let payload = verify_checksummed(frame).ok_or("checksum mismatch")?;
        serde::json::from_str::<StageSnapshot>(payload)
            .map_err(|e| format!("malformed snapshot: {e}"))?;
        self.store_local(key, Entry::framed(frame.into()), Some(frame));
        Ok(())
    }
}

impl StageStore for StageCache {
    fn load(&self, key: u128, step: FlowStep) -> Option<StageSnapshot> {
        let shared = match self.recall(key) {
            Some(entry) => entry.snapshot(),
            None => self.promote_disk(key),
        };
        let snapshot = shared
            .filter(|shared| shared.step == step)
            .map(|shared| StageSnapshot::clone(&shared));
        match &snapshot {
            Some(_) => self.hits[step.index()].fetch_add(1, Ordering::SeqCst),
            None => self.misses[step.index()].fetch_add(1, Ordering::SeqCst),
        };
        snapshot
    }

    fn store(&self, key: u128, snapshot: &StageSnapshot) {
        // One encode serves both the disk tier and the remote publish.
        let frame = (self.remote.is_some() || self.writes_disk()).then(|| encode(snapshot));
        self.store_local(
            key,
            Entry::computed(Arc::new(snapshot.clone())),
            frame.as_deref(),
        );
        if let (Some(remote), Some(frame)) = (&self.remote, &frame) {
            remote.publish_frame(key, snapshot.step, frame);
        }
    }

    /// Asks the remote tier, in one request, for every key of the chain
    /// the local tiers cannot serve, and promotes what it verifies. Disk
    /// entries are read (and promoted) here rather than trusted by name,
    /// so a corrupt file is deleted and its key asked for.
    fn prefetch(&self, chain: &[(FlowStep, u128)]) {
        let Some(remote) = &self.remote else {
            return;
        };
        let wanted: Vec<(FlowStep, u128)> = chain
            .iter()
            .copied()
            .filter(|&(_, key)| self.recall(key).is_none() && self.promote_disk(key).is_none())
            .collect();
        remote.fetch_chain(&wanted, |key, snapshot, frame| {
            self.store_local(key, Entry::computed(Arc::new(snapshot)), Some(frame));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipforge_flow::StageArtifact;
    use chipforge_resil::frame_checksummed;

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
    fn a_put_frame_is_served_back_as_received_and_restores() {
        let cache = StageCache::in_memory();
        let frame = encode(&snapshot(FlowStep::Export));
        cache.insert_frame(41, &frame).expect("a valid frame");
        let served = cache.peek(41).expect("held");
        assert_eq!(&*served, frame);
        assert!(
            Arc::ptr_eq(&served, &cache.peek(41).expect("held")),
            "later requests share the one frame"
        );
        let restored = cache.load(41, FlowStep::Export).expect("decoded on use");
        assert_eq!(restored.detail, "42 bytes GDSII");
        assert!(cache.load(41, FlowStep::Route).is_none());

        let mut tampered = frame.clone();
        tampered.replace_range(2..3, "X");
        let unframed = r#"{"step":"export"}"#;
        let wrong_shape = frame_checksummed(r#"{"step":"export"}"#);
        for refused in [&*tampered, unframed, &wrong_shape, ""] {
            assert!(cache.insert_frame(42, refused).is_err(), "{refused:?}");
        }
        assert!(
            cache.peek(42).is_none(),
            "a refused frame leaves nothing behind"
        );
    }

    #[test]
    fn a_computed_entry_encodes_its_frame_once() {
        let cache = StageCache::in_memory();
        cache.store(43, &snapshot(FlowStep::Export));
        let first = cache.peek(43).expect("held");
        assert_eq!(&*first, encode(&snapshot(FlowStep::Export)));
        assert!(Arc::ptr_eq(&first, &cache.peek(43).expect("held")));
        assert!(cache.peek(44).is_none());
    }

    #[test]
    fn holds_and_peek_see_the_disk_tier() {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "chipforge-stage-cache-holds-{}",
            std::process::id()
        ));
        let cache = StageCache::on_disk(&dir);
        cache.store(45, &snapshot(FlowStep::Export));
        drop(cache);
        let fresh = StageCache::on_disk(&dir);
        assert!(fresh.peek(46).is_none());
        let frame = fresh.peek(45).expect("the file is the frame");
        assert_eq!(&*frame, encode(&snapshot(FlowStep::Export)));
        assert_eq!(fresh.entries(), 0, "serving a file does not promote it");
        let path = dir.join(format!("{:032x}.json", 45u128));
        std::fs::write(&path, "torn").expect("corrupt the entry");
        assert!(fresh.peek(45).is_none(), "a torn file is not served");
        assert!(!path.exists(), "the failed read heals the slot");
        // A frame that passes its checksum but holds no snapshot (another
        // build's layout, say) is not served either.
        std::fs::write(&path, frame_checksummed(r#"{"step":"export"}"#)).expect("rewrite");
        assert!(
            fresh.peek(45).is_none(),
            "an unparsable frame is not served"
        );
        assert!(!path.exists(), "and its slot heals too");
        let _ = std::fs::remove_dir_all(&dir);
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
