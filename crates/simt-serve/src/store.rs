//! Durable result store: an append-only, checksummed log that carries the
//! content-addressed response cache across process restarts.
//!
//! # Log format
//!
//! `<state-dir>/cache.log` is a sequence of self-delimiting records:
//!
//! ```text
//! [magic  u32 = "BSLG"]
//! [len    u32]            payload length in bytes
//! [crc    u64]            FNV-1a over the payload
//! [payload]               SnapWriter: key u64, canon str, body str
//! ```
//!
//! A record is **committed** once [`DurableStore::append`] returns `Ok`:
//! the bytes are written and `fdatasync`ed before the call returns, so a
//! crash at any later point cannot lose it. A crash *during* an append can
//! leave a torn tail — a prefix of a record, or garbage past the last
//! commit — which the opening scan detects (bad magic, impossible length,
//! checksum mismatch, or truncation) and truncates away. Everything before
//! the first bad byte is recovered; everything after is dropped, which for
//! crash-shaped damage is exactly the uncommitted tail. For media-shaped
//! damage (a flipped bit mid-log) dropping the suffix trades cache
//! warmth for correctness: the entries are re-simulated on next request,
//! never served corrupt.
//!
//! There is deliberately **no separate index file**: the index (key →
//! entry) is rebuilt in memory by the same scan that validates the log, so
//! there is exactly one persistent artifact to corrupt and one recovery
//! path to test. Within one log generation the newest record for a key
//! wins, which makes append-after-update safe without ever rewriting.

use crate::request::body_checksum;
use simt_snap::{SnapReader, SnapWriter};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic prefix of every log record.
const RECORD_MAGIC: [u8; 4] = *b"BSLG";
/// Fixed header size: magic + payload length + payload checksum.
const RECORD_HEADER: usize = 4 + 4 + 8;
/// Upper bound on one record's payload — anything larger in the log is
/// damage, not data (bodies are bounded far below this by request caps).
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// A committed cache entry recovered from (or written to) the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredEntry {
    /// The request's 64-bit content address.
    pub key: u64,
    /// Canonical request encoding (verified on cache hits).
    pub canon: String,
    /// Response body.
    pub body: String,
}

/// Counters describing what the opening scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Committed records recovered.
    pub recovered: u64,
    /// Bytes of torn/corrupt tail truncated away.
    pub truncated_bytes: u64,
    /// Records dropped because they sat after the first bad byte.
    pub dropped_records: u64,
}

/// The append-only store. All methods take `&mut self`; the service wraps
/// it in a `Mutex` beside the in-memory cache.
pub struct DurableStore {
    log: File,
    path: PathBuf,
    /// key → checksum of the newest persisted body for that key, so a
    /// re-simulated identical result is not appended twice.
    index: HashMap<u64, u64>,
    recovery: RecoveryStats,
    append_errors: u64,
}

impl DurableStore {
    /// Open (creating if absent) the log under `dir`, scan it, truncate
    /// any torn tail, and return the store plus every committed entry in
    /// log order (oldest first — replay them in order so the newest body
    /// for a key wins).
    ///
    /// # Errors
    ///
    /// An I/O failure creating the directory or opening/repairing the log.
    /// Scan *damage* is not an error: it is repaired and reported in
    /// [`DurableStore::recovery_stats`].
    pub fn open(dir: &Path) -> Result<(DurableStore, Vec<StoredEntry>), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("create state dir {}: {e}", dir.display()))?;
        let path = dir.join("cache.log");
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let (entries, valid_len, dropped_records) = scan(&bytes);
        let mut recovery = RecoveryStats {
            recovered: entries.len() as u64,
            truncated_bytes: (bytes.len() - valid_len) as u64,
            dropped_records,
        };
        if valid_len < bytes.len() {
            // Cut the torn tail *before* appending anything, so the next
            // record lands on a clean boundary. fsync makes the repair as
            // durable as the data it protects.
            let f = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| format!("repair {}: {e}", path.display()))?;
            f.set_len(valid_len as u64)
                .map_err(|e| format!("truncate {}: {e}", path.display()))?;
            f.sync_all()
                .map_err(|e| format!("sync {}: {e}", path.display()))?;
        } else {
            recovery.truncated_bytes = 0;
        }
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        let index = entries
            .iter()
            .map(|e| (e.key, body_checksum(&e.body)))
            .collect();
        Ok((
            DurableStore {
                log,
                path,
                index,
                recovery,
                append_errors: 0,
            },
            entries,
        ))
    }

    /// Append one entry and fsync it. On `Ok` the entry is committed: no
    /// later crash can lose it. Appending a key whose newest persisted
    /// body is already identical is a no-op.
    ///
    /// # Errors
    ///
    /// The I/O failure, after incrementing the append-error counter. The
    /// in-memory cache is unaffected either way — persistence failures
    /// cost warm restarts, never responses.
    pub fn append(&mut self, key: u64, canon: &str, body: &str) -> Result<(), String> {
        let checksum = body_checksum(body);
        if self.index.get(&key) == Some(&checksum) {
            return Ok(());
        }
        let record = encode_record(key, canon, body);
        match self.write_record(&record) {
            Ok(()) => {
                self.index.insert(key, checksum);
                Ok(())
            }
            Err(e) => {
                self.append_errors += 1;
                Err(format!("append to {}: {e}", self.path.display()))
            }
        }
    }

    /// [`DurableStore::append`] with a chaos fault applied to the bytes on
    /// their way to the log. The *in-memory* index is only updated for an
    /// intact write: a faulted record must be re-offered (and re-detected)
    /// rather than believed committed.
    pub fn append_faulty(
        &mut self,
        key: u64,
        canon: &str,
        body: &str,
        fault: crate::chaos::StoreFault,
    ) -> Result<(), String> {
        use crate::chaos::StoreFault;
        if fault == StoreFault::None {
            return self.append(key, canon, body);
        }
        let mut record = encode_record(key, canon, body);
        match fault {
            StoreFault::Torn => record.truncate(record.len() / 2),
            StoreFault::Short => {
                record.pop();
            }
            StoreFault::BitFlip => {
                // Flip a payload bit so the header parses but the record
                // checksum fails — the subtlest shape of damage.
                let i = RECORD_HEADER + (record.len() - RECORD_HEADER) / 2;
                record[i] ^= 0x10;
            }
            StoreFault::None => unreachable!(),
        }
        let r = self.write_record(&record);
        self.append_errors += 1;
        r.map_err(|e| format!("append to {}: {e}", self.path.display()))
    }

    fn write_record(&mut self, record: &[u8]) -> Result<(), std::io::Error> {
        self.log.write_all(record)?;
        self.log.sync_data()
    }

    /// Entries whose newest version is committed in this log generation.
    pub fn persisted_entries(&self) -> u64 {
        self.index.len() as u64
    }

    /// What the opening scan recovered, truncated, and dropped.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Appends that failed (I/O or injected fault) since open.
    pub fn append_errors(&self) -> u64 {
        self.append_errors
    }
}

fn encode_record(key: u64, canon: &str, body: &str) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u64(key);
    w.str(canon);
    w.str(body);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&RECORD_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&simt_snap::fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Walk the log from the front, collecting committed records. Returns the
/// entries, the byte length of the valid prefix, and how many *parseable*
/// records were abandoned past the first bad byte (for media-shaped damage
/// the suffix may still contain well-formed records; they are dropped —
/// and counted — because nothing downstream of unverified bytes can be
/// trusted to line up with what was committed).
fn scan(bytes: &[u8]) -> (Vec<StoredEntry>, usize, u64) {
    let mut entries = Vec::new();
    let mut off = 0usize;
    while bytes.len() - off >= RECORD_HEADER {
        let head = &bytes[off..off + RECORD_HEADER];
        if head[..4] != RECORD_MAGIC {
            break;
        }
        let len = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if len > MAX_PAYLOAD {
            break;
        }
        let crc = u64::from_le_bytes(head[8..16].try_into().unwrap());
        let start = off + RECORD_HEADER;
        let Some(end) = start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            break; // truncated payload: torn tail
        };
        let payload = &bytes[start..end];
        if simt_snap::fnv1a(payload) != crc {
            break;
        }
        let mut r = SnapReader::new(payload);
        let parsed = (|| -> Result<StoredEntry, simt_snap::SnapshotError> {
            let key = r.u64()?;
            let canon = r.str()?.to_string();
            let body = r.str()?.to_string();
            r.expect_exhausted()?;
            Ok(StoredEntry { key, canon, body })
        })();
        match parsed {
            Ok(e) => entries.push(e),
            Err(_) => break, // checksummed but malformed: treat as damage
        }
        off = end;
    }
    // Count checksum-valid records stranded past the cut, so operators
    // can tell "lost the torn tail record" from "lost half the cache".
    let mut dropped = 0u64;
    let mut probe = off;
    while bytes.len().saturating_sub(probe) >= RECORD_HEADER {
        if bytes[probe..probe + 4] == RECORD_MAGIC {
            let len = u32::from_le_bytes(bytes[probe + 4..probe + 8].try_into().unwrap());
            let crc = u64::from_le_bytes(bytes[probe + 8..probe + 16].try_into().unwrap());
            match (probe + RECORD_HEADER).checked_add(len as usize) {
                Some(end) if end <= bytes.len() && len <= MAX_PAYLOAD => {
                    if simt_snap::fnv1a(&bytes[probe + RECORD_HEADER..end]) == crc {
                        dropped += 1;
                    }
                    probe = end;
                    continue;
                }
                _ => {}
            }
        }
        probe += 1;
    }
    (entries, off, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::StoreFault;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bows-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = tmp_dir("rt");
        let (mut s, recovered) = DurableStore::open(&dir).unwrap();
        assert!(recovered.is_empty());
        s.append(1, "req-a", "body-a").unwrap();
        s.append(2, "req-b", "body-b").unwrap();
        s.append(1, "req-a", "body-a").unwrap(); // dedup: no growth
        drop(s);
        let (s2, recovered) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(
            recovered[0],
            StoredEntry {
                key: 1,
                canon: "req-a".into(),
                body: "body-a".into()
            }
        );
        assert_eq!(recovered[1].key, 2);
        assert_eq!(s2.recovery_stats().truncated_bytes, 0);
        assert_eq!(s2.persisted_entries(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_committed_prefix_survives() {
        let dir = tmp_dir("torn");
        let (mut s, _) = DurableStore::open(&dir).unwrap();
        s.append(1, "a", "first").unwrap();
        s.append_faulty(2, "b", "second", StoreFault::Torn).unwrap();
        assert_eq!(s.append_errors(), 1);
        drop(s);
        let (s2, recovered) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1, "committed record survives");
        assert_eq!(recovered[0].body, "first");
        assert!(s2.recovery_stats().truncated_bytes > 0);
        // The repaired log accepts new appends cleanly.
        drop(s2);
        let (mut s3, _) = DurableStore::open(&dir).unwrap();
        s3.append(2, "b", "second").unwrap();
        drop(s3);
        let (_, recovered) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovered.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_and_bit_flip_degrade_to_truncation() {
        for fault in [StoreFault::Short, StoreFault::BitFlip] {
            let dir = tmp_dir(if fault == StoreFault::Short {
                "short"
            } else {
                "flip"
            });
            let (mut s, _) = DurableStore::open(&dir).unwrap();
            s.append(1, "a", "keep-me").unwrap();
            s.append_faulty(2, "b", "lose-me", fault).unwrap();
            drop(s);
            let (s2, recovered) = DurableStore::open(&dir).unwrap();
            assert_eq!(recovered.len(), 1, "{fault:?}: committed prefix only");
            assert_eq!(recovered[0].body, "keep-me");
            assert!(s2.recovery_stats().truncated_bytes > 0, "{fault:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn mid_log_flip_drops_suffix_and_counts_it() {
        let dir = tmp_dir("midflip");
        let (mut s, _) = DurableStore::open(&dir).unwrap();
        s.append(1, "a", "one").unwrap();
        s.append_faulty(2, "b", "two", StoreFault::BitFlip).unwrap();
        s.append(3, "c", "three").unwrap(); // intact, but after damage
        drop(s);
        let (s2, recovered) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(s2.recovery_stats().dropped_records, 1, "record 3 counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_record_for_a_key_wins_on_replay() {
        let dir = tmp_dir("newest");
        let (mut s, _) = DurableStore::open(&dir).unwrap();
        s.append(1, "a", "old").unwrap();
        s.append(1, "a", "new").unwrap(); // different body: appended
        drop(s);
        let (_, recovered) = DurableStore::open(&dir).unwrap();
        // Replay in order: a cache inserting both ends with "new".
        assert_eq!(recovered.last().unwrap().body, "new");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_log_recovers_to_empty() {
        let dir = tmp_dir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("cache.log"), b"not a log at all").unwrap();
        let (mut s, recovered) = DurableStore::open(&dir).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(s.recovery_stats().truncated_bytes, 16);
        s.append(9, "q", "fresh").unwrap();
        drop(s);
        let (_, recovered) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
