//! Content-addressed artifact cache.
//!
//! The flow is deterministic: identical inputs produce identical
//! artifacts (`tests/determinism.rs`). That makes results content
//! addressable — the cache key is a canonical hash of every input that
//! affects the artifact, and *only* those inputs. Display labels (job
//! name, profile name) are excluded, so two submissions that describe
//! the same work share one entry regardless of how they are labelled.

use crate::job::JobSpec;
use chipforge_flow::{FlowOutcome, Pipeline};
use chipforge_resil::fnv64;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A 128-bit content hash identifying one flow artifact: the last key of
/// the job's stage chain ([`Pipeline::stage_keys`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(u128);

impl CacheKey {
    /// The canonical key for a job: its export stage's key, which chains
    /// every earlier stage's. What it covers is decided in one place, the
    /// flow stages' `key_slice`s under `chipforge_flow::STAGE_KEY_SCHEMA`.
    /// Labels (job and profile names) and injected faults are never
    /// framed: a fault changes whether the artifact is produced, never
    /// its content.
    #[must_use]
    pub fn of(spec: &JobSpec) -> Self {
        let [.., (_, export)] = Pipeline::stage_keys(&spec.source, &spec.flow_config());
        CacheKey(export)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Counters describing cache effectiveness over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a flow run.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Reads that failed the integrity checksum; the entry was evicted
    /// and the artifact recomputed (also counted under `misses`).
    pub corrupted: u64,
    /// Artifacts currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when no lookups were made).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cache read's outcome, distinguishing integrity failures from
/// ordinary misses.
#[derive(Debug)]
pub enum Lookup {
    /// The artifact was present and passed its checksum.
    Hit(Arc<FlowOutcome>),
    /// No artifact under this key.
    Miss,
    /// The artifact failed its checksum; it has been evicted and must
    /// be recomputed (self-healing).
    Corrupt,
}

struct Entry {
    outcome: Arc<FlowOutcome>,
    /// FNV-1a digest of the GDS bytes at insertion time, verified on
    /// every read. FNV's per-byte multiply is injective, so any
    /// single-byte flip is guaranteed to be detected.
    checksum: u64,
    last_used: u64,
}

struct Store {
    entries: HashMap<u128, Entry>,
    tick: u64,
}

/// A bounded, thread-safe, content-addressed store of flow artifacts.
///
/// Artifacts are shared out as [`Arc`]s; eviction is least-recently-used
/// once `capacity` is reached. All methods take `&self` and are safe to
/// call from any worker thread.
pub struct ArtifactCache {
    store: Mutex<Store>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupted: AtomicU64,
}

impl ArtifactCache {
    /// A cache holding at most `capacity` artifacts (at least one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            store: Mutex::new(Store {
                entries: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
        }
    }

    /// Looks up an artifact, counting a hit or miss. A corrupt entry
    /// reads as a miss (see [`lookup_checked`](Self::lookup_checked)).
    #[must_use]
    pub fn lookup(&self, key: CacheKey) -> Option<Arc<FlowOutcome>> {
        match self.lookup_checked(key) {
            Lookup::Hit(outcome) => Some(outcome),
            Lookup::Miss | Lookup::Corrupt => None,
        }
    }

    /// Looks up an artifact, verifying its integrity checksum.
    ///
    /// A checksum mismatch evicts the entry and reports
    /// [`Lookup::Corrupt`]; the caller recomputes and re-inserts, so a
    /// flipped bit costs one flow run instead of a silently wrong GDS.
    #[must_use]
    pub fn lookup_checked(&self, key: CacheKey) -> Lookup {
        let mut store = self.store.lock().expect("cache lock");
        store.tick += 1;
        let tick = store.tick;
        match store.entries.get_mut(&key.0) {
            Some(entry) => {
                if fnv64(&entry.outcome.gds) != entry.checksum {
                    store.entries.remove(&key.0);
                    self.corrupted.fetch_add(1, Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Corrupt;
                }
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(Arc::clone(&entry.outcome))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
        }
    }

    /// Stores an artifact, evicting the least-recently-used entry if the
    /// cache is full. Re-inserting an existing key refreshes its entry.
    pub fn insert(&self, key: CacheKey, outcome: Arc<FlowOutcome>) {
        let mut store = self.store.lock().expect("cache lock");
        store.tick += 1;
        let tick = store.tick;
        if !store.entries.contains_key(&key.0) && store.entries.len() >= self.capacity {
            if let Some(&oldest) = store
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                store.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        store.entries.insert(
            key.0,
            Entry {
                checksum: fnv64(&outcome.gds),
                outcome,
                last_used: tick,
            },
        );
    }

    /// Flips one artifact byte in place, leaving the stored checksum
    /// stale — the chaos/test hook behind [`chipforge_resil::FaultPlan`]
    /// cache corruption. Returns `false` when there is nothing to
    /// corrupt (absent key, empty GDS or a zero mask).
    pub fn corrupt(&self, key: CacheKey, offset_seed: u64, xor: u8) -> bool {
        let mut store = self.store.lock().expect("cache lock");
        let Some(entry) = store.entries.get_mut(&key.0) else {
            return false;
        };
        if entry.outcome.gds.is_empty() || xor == 0 {
            return false;
        }
        let index = (offset_seed % entry.outcome.gds.len() as u64) as usize;
        // Clone-on-write: readers holding the old Arc keep the intact
        // artifact; only the cached copy is damaged.
        Arc::make_mut(&mut entry.outcome).gds[index] ^= xor;
        true
    }

    /// Number of resident artifacts.
    fn len(&self) -> usize {
        self.store.lock().expect("cache lock").entries.len()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Fault;
    use chipforge_flow::{FlowCtx, OptimizationProfile, Pipeline};
    use chipforge_hdl::designs;
    use chipforge_pdk::TechnologyNode;

    fn spec() -> JobSpec {
        JobSpec::new(
            "counter",
            designs::counter(4).source(),
            TechnologyNode::N130,
            OptimizationProfile::quick(),
        )
    }

    fn outcome() -> Arc<FlowOutcome> {
        let job = spec();
        let flow = Pipeline::standard().run(&job.source, &job.flow_config(), &FlowCtx::default());
        Arc::new(flow.expect("flow runs"))
    }

    #[test]
    fn labels_and_faults_do_not_change_the_key() {
        let base = CacheKey::of(&spec());
        let mut renamed = spec();
        renamed.name = "totally-different-label".into();
        renamed.profile.name = "bespoke".into();
        let faulted = spec().with_fault(Fault::Hang(50));
        assert_eq!(CacheKey::of(&renamed), base);
        assert_eq!(CacheKey::of(&faulted), base);
    }

    #[test]
    fn every_behavioral_knob_changes_the_key() {
        let base = CacheKey::of(&spec());
        let mut other = spec();
        other.source.push('\n');
        assert_ne!(CacheKey::of(&other), base, "source");
        assert_ne!(CacheKey::of(&spec().with_seed(2)), base, "seed");
        assert_ne!(CacheKey::of(&spec().with_clock_mhz(50.0)), base, "clock");
        assert_ne!(CacheKey::of(&spec().with_scan()), base, "scan");
        let mut node = spec();
        node.node = TechnologyNode::N180;
        assert_ne!(CacheKey::of(&node), base, "node");
        let mut knobs = spec();
        knobs.profile.route_iterations += 1;
        assert_ne!(CacheKey::of(&knobs), base, "route iterations");
    }

    /// The whole-flow key of one fixed job is its export stage key
    /// (pinned in `flow/tests/pipeline_props.rs`), beside the values the
    /// last binaries with a key schema of exec's own computed for it —
    /// schema 2 (kernel names and move budget framed), 3 (whole-AIG
    /// BDDs) and 4 (staged prover): a journal or artifact any of them
    /// wrote can never be restored as this binary's result.
    #[test]
    fn key_schema_is_pinned_and_misses_the_annealing_binarys() {
        let job = JobSpec::new(
            "counter8",
            designs::counter(8).source(),
            TechnologyNode::N130,
            OptimizationProfile::quick(),
        )
        .with_clock_mhz(100.0)
        .with_seed(3);
        let key = CacheKey::of(&job).to_string();
        assert_eq!(key, "75b083ff2a67e54ae1212a96cae821e5");
        assert_ne!(key, "2a4e521c2f991b18c879398575a6bbf4", "schema-4 value");
        assert_ne!(key, "93335587fb795efe78980c5df66881a5", "schema-3 value");
        assert_ne!(key, "5ab4df6d9877c72f2b6e992e80cbe944", "schema-2 value");
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = ArtifactCache::new(8);
        let key = CacheKey::of(&spec());
        assert!(cache.lookup(key).is_none());
        cache.insert(key, outcome());
        assert!(cache.lookup(key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn corrupt_entries_are_detected_and_self_healed() {
        let cache = ArtifactCache::new(8);
        let key = CacheKey::of(&spec());
        let artifact = outcome();
        cache.insert(key, Arc::clone(&artifact));
        assert!(cache.corrupt(key, 12345, 0x40), "corruption hook applies");
        match cache.lookup_checked(key) {
            Lookup::Corrupt => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The corrupt entry was evicted: the next read is a clean miss,
        // and re-inserting heals the cache.
        match cache.lookup_checked(key) {
            Lookup::Miss => {}
            other => panic!("expected Miss after eviction, got {other:?}"),
        }
        cache.insert(key, artifact);
        assert!(cache.lookup(key).is_some());
        let stats = cache.stats();
        assert_eq!(stats.corrupted, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2, "the corrupt read counts as a miss");
    }

    #[test]
    fn corrupting_a_shared_artifact_leaves_prior_readers_intact() {
        let cache = ArtifactCache::new(8);
        let key = CacheKey::of(&spec());
        cache.insert(key, outcome());
        let reader = cache.lookup(key).expect("hit");
        let clean_gds = reader.gds.clone();
        assert!(cache.corrupt(key, 0, 0xff));
        assert_eq!(reader.gds, clean_gds, "copy-on-write protects readers");
    }

    #[test]
    fn corrupt_hook_rejects_noop_masks_and_absent_keys() {
        let cache = ArtifactCache::new(8);
        let key = CacheKey::of(&spec());
        assert!(!cache.corrupt(key, 0, 0xff), "absent key");
        cache.insert(key, outcome());
        assert!(!cache.corrupt(key, 0, 0), "zero mask would be a no-op");
        assert!(cache.lookup(key).is_some(), "entry still intact");
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = ArtifactCache::new(2);
        let artifact = outcome();
        let keys: Vec<CacheKey> = (1..=3)
            .map(|seed| CacheKey::of(&spec().with_seed(seed)))
            .collect();
        cache.insert(keys[0], Arc::clone(&artifact));
        cache.insert(keys[1], Arc::clone(&artifact));
        assert!(cache.lookup(keys[0]).is_some()); // refresh key 0
        cache.insert(keys[2], artifact); // evicts key 1
        assert!(cache.lookup(keys[0]).is_some());
        assert!(cache.lookup(keys[1]).is_none());
        assert!(cache.lookup(keys[2]).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }
}
