//! # chipforge-resil
//!
//! Resilience primitives for the chipforge execution stack.
//!
//! The position paper's Recommendation 7 argues that a *centralized*
//! cloud enablement hub is only viable if the shared service absorbs the
//! failure modes that per-university setups push onto students — wedged
//! tools, flaky runs, lost batches mid-course. This crate supplies the
//! machinery to inject those failures deterministically and to survive
//! them:
//!
//! * [`FaultPlan`] — a seeded, deterministic fault-injection plane.
//!   Every decision (transient stage error, slow-down, worker panic,
//!   server outage) is a pure hash of the plan seed
//!   and the fault site, so a faulty run replays identically across
//!   worker counts, process restarts and resumed batches.
//! * [`Journal`] / [`JournalWriter`] — an append-only JSONL checkpoint
//!   of completed jobs, one fsynced CRC-framed record per line, so a
//!   killed batch can resume without repeating finished work and still
//!   reproduce the uninterrupted report byte-for-byte.
//! * [`Backoff`] — bounded exponential retry backoff with deterministic
//!   seeded jitter (no retry stampedes, no RNG state).
//! * [`ResiliencePolicy`] — per-job quarantine limits, batch failure
//!   budgets and graceful stage degradation, consumed by
//!   `chipforge-exec`'s batch engine.
//! * [`OutagePlan`] — seeded server outage/repair processes for the
//!   cloud discrete-event simulator (experiment E15).
//!
//! Nothing in this crate keeps mutable random state: determinism is the
//! point. A fault either fires for `(seed, site, key, attempt)` or it
//! never does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod fault;
mod journal;
mod net;
mod policy;

pub use backoff::Backoff;
pub use fault::{
    is_degradable_stage, Disruption, Fault, FaultPlan, OutagePlan, DEGRADABLE_STAGES,
    TRANSIENT_STAGES,
};
pub use journal::{Journal, JournalRecord, JournalWriter};
pub use net::{FlakyProxy, NetFault, NetFaultPlan};
pub use policy::ResiliencePolicy;

/// FNV-1a 64-bit hash, the workspace's standard content digest.
///
/// Used for journal record CRCs, artifact checksums and fault-plan
/// rolls. FNV-1a's per-byte multiply is injective, so any single-byte
/// flip changes the digest — the guarantee the cache-integrity check
/// relies on.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Maps a 64-bit hash onto a uniform fraction in `[0, 1)`.
#[must_use]
pub fn hash_fraction(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// Frames `payload` with its 16-hex-digit FNV-1a digest:
/// `{payload}|{digest}`.
///
/// This is the workspace's standard integrity frame — the journal, the
/// on-disk stage-cache entries and the remote cache-protocol bodies all
/// use it, so every persisted or transmitted artifact can be verified
/// before it is deserialized. The payload must not contain a newline
/// (compact JSON never does).
#[must_use]
pub fn frame_checksummed(payload: &str) -> String {
    format!("{payload}|{:016x}", fnv64(payload.as_bytes()))
}

/// Verifies a [`frame_checksummed`] string and returns the payload, or
/// `None` when the frame is malformed, truncated or fails its digest.
///
/// The digest suffix has fixed width, so the split never confuses a `|`
/// inside a JSON string for the frame separator. A trailing newline is
/// tolerated (journal lines carry one).
#[must_use]
pub fn verify_checksummed(framed: &str) -> Option<&str> {
    let framed = framed.strip_suffix('\n').unwrap_or(framed);
    if framed.len() < 17 || !framed.is_char_boundary(framed.len() - 17) {
        return None;
    }
    let (payload, suffix) = framed.split_at(framed.len() - 17);
    let digest = suffix.strip_prefix('|')?;
    let expected = u64::from_str_radix(digest, 16).ok()?;
    if fnv64(payload.as_bytes()) != expected {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_detects_any_single_byte_flip() {
        let base = b"journal record payload".to_vec();
        let digest = fnv64(&base);
        for i in 0..base.len() {
            for xor in [1u8, 0x40, 0xff] {
                let mut flipped = base.clone();
                flipped[i] ^= xor;
                assert_ne!(fnv64(&flipped), digest, "flip at {i} xor {xor:#x}");
            }
        }
    }

    #[test]
    fn hash_fraction_is_a_unit_interval() {
        for h in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            let f = hash_fraction(h);
            assert!((0.0..1.0).contains(&f), "{f}");
        }
        assert!(hash_fraction(u64::MAX) > 0.999);
    }

    #[test]
    fn checksummed_frame_round_trips() {
        let payload = r#"{"key":"value|with|pipes"}"#;
        let framed = frame_checksummed(payload);
        assert_eq!(verify_checksummed(&framed), Some(payload));
        // Tolerates the journal's trailing newline.
        assert_eq!(verify_checksummed(&format!("{framed}\n")), Some(payload));
    }

    #[test]
    fn checksummed_frame_rejects_tampering() {
        let framed = frame_checksummed("payload");
        // Any single flipped payload byte fails verification.
        let tampered = framed.replacen("payload", "paYload", 1);
        assert_eq!(verify_checksummed(&tampered), None);
        // Truncation fails verification.
        assert_eq!(verify_checksummed(&framed[..framed.len() - 1]), None);
        // Garbage fails cleanly.
        assert_eq!(verify_checksummed(""), None);
        assert_eq!(verify_checksummed("short"), None);
        assert_eq!(verify_checksummed("|zzzzzzzzzzzzzzzz"), None);
    }
}
