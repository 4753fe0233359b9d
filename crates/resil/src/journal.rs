//! Append-only JSONL checkpoint journal for batch runs.
//!
//! Each completed job appends one line: a compact JSON record followed
//! by `|` and its 16-hex-digit FNV-1a digest. Writes are flushed and
//! fsynced per record, so a `SIGKILL` can lose at most the torn tail
//! line — which the loader detects (bad digest) and skips. Records are
//! content-addressed: a resume only trusts a record whose cache key
//! still matches the resubmitted job, so editing a design between runs
//! transparently re-executes it.

use chipforge_flow::PpaReport;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One journaled job completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Append order within the journal.
    pub seq: u64,
    /// Position in the submitted batch.
    pub index: usize,
    /// The job's content-addressed key (32 hex digits): the last key of
    /// its flow stage chain, as exec's `CacheKey` displays it.
    pub key: String,
    /// Job display name.
    pub name: String,
    /// Terminal status name (`succeeded`, `failed`, ...).
    pub status: String,
    /// Flow attempts made.
    pub attempts: u32,
    /// Whether the job succeeded via a degraded (relaxed) retry.
    pub degraded: bool,
    /// Error description for non-succeeded jobs.
    pub error: Option<String>,
    /// The PPA report, when the job produced an artifact.
    pub ppa: Option<PpaReport>,
    /// FNV-1a digest of the GDS bytes, when the job produced an artifact.
    pub gds_fnv: Option<u64>,
}

/// Appends CRC-framed records to a journal file, fsyncing each one.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    records: u64,
}

impl JournalWriter {
    /// Creates (or truncates) the journal at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JournalWriter {
            file: File::create(path.as_ref())?,
            path: path.as_ref().to_path_buf(),
            records: 0,
        })
    }

    /// Opens the journal at `path` for appending, creating it when
    /// missing. Existing records are preserved, so a restarted service
    /// can keep extending the journal it recovered from; pass the
    /// loaded [`Journal`]'s length as the caller's starting `seq`.
    pub fn open_append(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JournalWriter {
            file: std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path.as_ref())?,
            path: path.as_ref().to_path_buf(),
            records: 0,
        })
    }

    /// Appends one record and forces it to disk before returning.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let payload = serde::json::to_string(record);
        debug_assert!(!payload.contains('\n'), "compact JSON is single-line");
        let line = format!("{}\n", crate::frame_checksummed(&payload));
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        // One fsync per record is the durability contract: after a kill,
        // every acknowledged record is on disk.
        self.file.sync_data()?;
        self.records += 1;
        Ok(())
    }

    /// Records appended so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A loaded journal: verified records plus a count of rejected lines.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Verified records, in append order.
    pub records: Vec<JournalRecord>,
    /// Lines rejected by the CRC or parse check (torn tail, corruption).
    pub skipped_lines: usize,
}

impl Journal {
    /// Loads and verifies the journal at `path`.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::parse(&std::fs::read_to_string(path)?))
    }

    /// Parses journal text, skipping any line that fails verification.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut journal = Journal::default();
        for line in text.lines() {
            match parse_line(line) {
                Some(record) => journal.records.push(record),
                None => journal.skipped_lines += 1,
            }
        }
        journal
    }

    /// The latest verified record for `(index, key)`, if any. Matching
    /// on both fields makes restoration content-addressed: a record is
    /// only trusted for a job that still describes the same work.
    #[must_use]
    pub fn find(&self, index: usize, key: &str) -> Option<&JournalRecord> {
        self.records
            .iter()
            .rev()
            .find(|r| r.index == index && r.key == key)
    }

    /// Number of verified records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no verified records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

fn parse_line(line: &str) -> Option<JournalRecord> {
    // Layout: `{json}|{16 hex digits}` — the workspace-standard frame,
    // split at the fixed-width digest suffix rather than searching for
    // `|`, which may occur inside JSON strings.
    serde::json::from_str(crate::verify_checksummed(line)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, index: usize) -> JournalRecord {
        JournalRecord {
            seq,
            index,
            key: format!("{:032x}", 0xabcu128 + index as u128),
            name: format!("job{index}"),
            status: "succeeded".into(),
            attempts: 1,
            degraded: false,
            error: None,
            ppa: None,
            gds_fnv: Some(0xdead_beef),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("chipforge-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn write_then_load_round_trips() {
        let path = temp_path("roundtrip");
        let mut writer = JournalWriter::create(&path).expect("create");
        for i in 0..5 {
            writer.append(&record(i, i as usize)).expect("append");
        }
        assert_eq!(writer.records(), 5);
        let journal = Journal::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(journal.len(), 5);
        assert_eq!(journal.skipped_lines, 0);
        assert_eq!(journal.records[3], record(3, 3));
    }

    #[test]
    fn torn_tail_line_is_skipped() {
        let path = temp_path("torn");
        let mut writer = JournalWriter::create(&path).expect("create");
        writer.append(&record(0, 0)).expect("append");
        writer.append(&record(1, 1)).expect("append");
        let mut text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        // Simulate a kill mid-write: the last line is truncated.
        text.truncate(text.len() - 9);
        let journal = Journal::parse(&text);
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.skipped_lines, 1);
    }

    #[test]
    fn corrupted_payload_fails_the_crc() {
        let mut writer_text = String::new();
        let payload = serde::json::to_string(&record(0, 0));
        writer_text.push_str(&format!("{}\n", crate::frame_checksummed(&payload)));
        let flipped = writer_text.replacen("job0", "jobX", 1);
        assert_eq!(Journal::parse(&writer_text).len(), 1);
        let journal = Journal::parse(&flipped);
        assert_eq!(journal.len(), 0);
        assert_eq!(journal.skipped_lines, 1);
    }

    #[test]
    fn find_matches_index_and_key_and_prefers_latest() {
        let mut journal = Journal::default();
        journal.records.push(record(0, 2));
        let mut newer = record(1, 2);
        newer.status = "failed".into();
        journal.records.push(newer);
        let key = record(0, 2).key;
        assert_eq!(journal.find(2, &key).expect("found").status, "failed");
        assert!(journal.find(2, "wrongkey").is_none(), "key must match");
        assert!(journal.find(3, &key).is_none(), "index must match");
    }

    #[test]
    fn append_mode_preserves_existing_records() {
        let path = temp_path("append");
        let mut writer = JournalWriter::create(&path).expect("create");
        writer.append(&record(0, 0)).expect("append");
        drop(writer);
        // A second writer in append mode (a restarted service) extends
        // the journal instead of truncating it.
        let mut writer = JournalWriter::open_append(&path).expect("open");
        writer.append(&record(1, 1)).expect("append");
        assert_eq!(writer.records(), 1, "counts only this writer's records");
        let journal = Journal::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.records[0], record(0, 0));
        assert_eq!(journal.records[1], record(1, 1));
    }

    #[test]
    fn empty_journal_restores_nothing() {
        let journal = Journal::parse("");
        assert!(journal.is_empty());
        assert_eq!(journal.skipped_lines, 0);
    }
}
