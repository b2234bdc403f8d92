//! An append-only, checksummed job journal.
//!
//! The crash-safety story for asynchronous sweeps: every job-lifecycle
//! event (submission, finished body or failure) is appended here
//! *before* it takes effect in memory, so a SIGKILL'd coordinator
//! replays the journal on restart and resumes exactly the unfinished
//! work. This module owns only the **framing** — records are opaque
//! UTF-8 payloads ([`crate::jobs`] encodes, folds and compacts the JSON
//! records inside them):
//!
//! ```text
//! ┌────────────┬──────────────────┬───────────────┐
//! │ u32 LE len │ u64 LE FNV-1a of │ payload bytes │
//! │ of payload │ the payload      │ (UTF-8)       │
//! └────────────┴──────────────────┴───────────────┘
//! ```
//!
//! Replay is **truncation-tolerant**: a process killed mid-append leaves
//! a short or checksum-broken tail record, and [`replay`] stops cleanly
//! at the last intact record instead of failing — exactly the property an
//! append-only log needs (losing the in-flight record is fine; the work
//! it described simply re-runs, idempotent under the sweep cache's
//! content-hash identity). Appends are flushed to the OS on every record,
//! which survives process death; no fsync, so a *machine* crash may drop
//! the tail — the same re-run-idempotent story covers that too.

use cnt_sweep::seed::fnv1a;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// A record payload may not exceed 16 MiB — far above any real job
/// record, and a cheap guard against interpreting corrupt length prefixes
/// as gigabyte allocations during replay.
const MAX_RECORD: u32 = 16 * 1024 * 1024;

/// What [`replay`] recovered from a journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Every intact record payload, append order.
    pub records: Vec<String>,
    /// Whether the file ended in a short, corrupt, or non-UTF-8 tail
    /// (i.e. the writer died mid-append). The records before the tail are
    /// still good.
    pub truncated: bool,
}

/// An open journal, appending framed records to one file.
#[derive(Debug)]
pub struct Journal {
    writer: BufWriter<File>,
}

impl Journal {
    /// Opens (creating parents and the file as needed) `path` for
    /// appending.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            writer: BufWriter::new(file),
        })
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Propagates write errors; an oversized payload is
    /// [`std::io::ErrorKind::InvalidInput`].
    pub fn append(&mut self, payload: &str) -> std::io::Result<()> {
        write_frame(&mut self.writer, payload)?;
        self.writer.flush()
    }
}

/// Writes one framed record: length, checksum, payload.
fn write_frame(out: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() as u64 > u64::from(MAX_RECORD) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "journal record of {} bytes exceeds {MAX_RECORD}",
                bytes.len()
            ),
        ));
    }
    out.write_all(&(bytes.len() as u32).to_le_bytes())?;
    out.write_all(&fnv1a(bytes).to_le_bytes())?;
    out.write_all(bytes)
}

/// Reads every intact record out of the journal at `path`. A missing file
/// is an empty journal; a damaged tail sets [`Replay::truncated`] and
/// keeps everything before it.
///
/// # Errors
///
/// Propagates read errors other than "file does not exist".
pub fn replay(path: &Path) -> std::io::Result<Replay> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Replay {
                records: Vec::new(),
                truncated: false,
            })
        }
        Err(e) => return Err(e),
    }
    Ok(decode(&raw))
}

/// Decodes framed records from a byte buffer (the replay core, separated
/// for testing against hand-built corruption).
fn decode(raw: &[u8]) -> Replay {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < raw.len() {
        let Some(head) = raw.get(at..at + 12) else {
            return Replay {
                records,
                truncated: true,
            };
        };
        let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(head[4..12].try_into().expect("8 bytes"));
        if len as u64 > u64::from(MAX_RECORD) {
            return Replay {
                records,
                truncated: true,
            };
        }
        let Some(payload) = raw.get(at + 12..at + 12 + len) else {
            return Replay {
                records,
                truncated: true,
            };
        };
        if fnv1a(payload) != sum {
            return Replay {
                records,
                truncated: true,
            };
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            return Replay {
                records,
                truncated: true,
            };
        };
        records.push(text.to_string());
        at += 12 + len;
    }
    Replay {
        records,
        truncated: false,
    }
}

/// Rewrites the journal at `path` to exactly `records` (compaction after
/// a replay folded superseded events away). Atomic: written to a `.tmp`
/// sibling, then renamed over the original, so a crash mid-compaction
/// leaves either the old or the new journal, never a mix.
///
/// # Errors
///
/// Propagates filesystem errors; oversized records as in
/// [`Journal::append`].
pub fn rewrite(path: &Path, records: &[String]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("tmp");
    {
        let file = File::create(&tmp)?;
        let mut writer = BufWriter::new(file);
        for payload in records {
            write_frame(&mut writer, payload)?;
        }
        writer.flush()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cnt-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn append_replay_round_trips_in_order() {
        let path = tmp("round-trip").join("journal.log");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
        let mut journal = Journal::open(&path).unwrap();
        for record in ["{\"a\":1}", "", "{\"b\":\"π unicode\"}"] {
            journal.append(record).unwrap();
        }
        drop(journal);
        let replayed = replay(&path).unwrap();
        assert!(!replayed.truncated);
        assert_eq!(replayed.records, ["{\"a\":1}", "", "{\"b\":\"π unicode\"}"]);
        // Reopening appends after the existing tail.
        Journal::open(&path).unwrap().append("{\"c\":3}").unwrap();
        assert_eq!(replay(&path).unwrap().records.len(), 4);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let replayed = replay(&tmp("missing").join("nope.log")).unwrap();
        assert_eq!(
            replayed,
            Replay {
                records: Vec::new(),
                truncated: false
            }
        );
    }

    #[test]
    fn truncated_tails_keep_the_intact_prefix() {
        // Build two good records, then chop the file at every byte
        // boundary inside the second: the first must always survive.
        let path = tmp("truncate").join("journal.log");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
        let mut journal = Journal::open(&path).unwrap();
        journal.append("first").unwrap();
        let first_len = std::fs::metadata(&path).unwrap().len();
        journal.append("second-record").unwrap();
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        // A cut exactly at the first record's end is a clean journal of
        // one record; every cut inside the second record is a truncation.
        let boundary = decode(&full[..first_len as usize]);
        assert!(!boundary.truncated);
        assert_eq!(boundary.records, ["first"]);
        for cut in first_len as usize + 1..full.len() {
            let replayed = decode(&full[..cut]);
            assert!(replayed.truncated, "cut at {cut} must read as truncated");
            assert_eq!(replayed.records, ["first"], "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn corrupt_checksum_and_absurd_length_stop_replay() {
        let mut raw = Vec::new();
        let good = b"good";
        raw.extend_from_slice(&(good.len() as u32).to_le_bytes());
        raw.extend_from_slice(&fnv1a(good).to_le_bytes());
        raw.extend_from_slice(good);
        // A record whose payload was bit-flipped after framing.
        let bad = b"bitflipped";
        raw.extend_from_slice(&(bad.len() as u32).to_le_bytes());
        raw.extend_from_slice(&(fnv1a(bad) ^ 1).to_le_bytes());
        raw.extend_from_slice(bad);
        let replayed = decode(&raw);
        assert!(replayed.truncated);
        assert_eq!(replayed.records, ["good"]);

        // A length prefix claiming more than MAX_RECORD never allocates.
        let mut absurd = Vec::new();
        absurd.extend_from_slice(&u32::MAX.to_le_bytes());
        absurd.extend_from_slice(&0u64.to_le_bytes());
        let replayed = decode(&absurd);
        assert!(replayed.truncated);
        assert!(replayed.records.is_empty());

        // Non-UTF-8 payload with a valid checksum also stops replay.
        let mut binary = Vec::new();
        let junk = [0xff, 0xfe, 0x00];
        binary.extend_from_slice(&(junk.len() as u32).to_le_bytes());
        binary.extend_from_slice(&fnv1a(&junk).to_le_bytes());
        binary.extend_from_slice(&junk);
        assert!(decode(&binary).truncated);
    }

    #[test]
    fn rewrite_compacts_atomically() {
        let path = tmp("rewrite").join("journal.log");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
        let mut journal = Journal::open(&path).unwrap();
        for i in 0..10 {
            journal.append(&format!("event-{i}")).unwrap();
        }
        drop(journal);
        rewrite(&path, &["folded".to_string()]).unwrap();
        let replayed = replay(&path).unwrap();
        assert!(!replayed.truncated);
        assert_eq!(replayed.records, ["folded"]);
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        // Appends continue after a compaction.
        Journal::open(&path).unwrap().append("after").unwrap();
        assert_eq!(replay(&path).unwrap().records, ["folded", "after"]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
