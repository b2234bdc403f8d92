//! Content-addressed result store: in-memory, optionally mirrored to disk.
//!
//! A sweep's identity is everything that determines its numbers: the plan
//! fingerprint (id, axis names, every value's bit pattern), the root seed,
//! and a caller-supplied salt for the *code version* of the work function.
//! Two runs with the same [`CacheKey`] are guaranteed to produce the same
//! table, so re-running `repro sweep …` is a lookup. Bump the salt when
//! the physics in the work function changes.
//!
//! On disk, entries live in a 256-way sharded layout keyed by the first
//! byte of the content hash (`cache/ab/abcdef….json`), so lookups and
//! `repro cache gc` scans never depend on one huge directory listing.
//! Flat `cache/abcdef….json` files from before sharding are no longer
//! read; both GC passes still scan and delete them.

use crate::json;
use crate::plan::SweepPlan;
use crate::seed::fnv1a;
use crate::{Error, Result};
use cnt_obs::Counter;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::SystemTime;

/// `get_or_compute` outcomes, process-wide (memory and disk hits count
/// alike — either way the sweep was not recomputed).
fn hit_miss_counters() -> &'static (Arc<Counter>, Arc<Counter>) {
    static HANDLES: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let g = cnt_obs::global();
        (
            g.counter(
                "cnt_sweep_cache_hits_total",
                "sweep lookups answered from the result store",
            ),
            g.counter(
                "cnt_sweep_cache_misses_total",
                "sweep lookups that had to recompute",
            ),
        )
    })
}

/// The content hash identifying one sweep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Derives the key for `plan` run under `root_seed` with the given
    /// work-function version `salt`.
    pub fn derive(plan: &SweepPlan, root_seed: u64, salt: &str) -> Self {
        let mut bytes = Vec::with_capacity(32 + salt.len());
        bytes.extend_from_slice(&plan.fingerprint().to_le_bytes());
        bytes.extend_from_slice(&root_seed.to_le_bytes());
        bytes.extend_from_slice(salt.as_bytes());
        Self(fnv1a(&bytes))
    }

    /// Hex rendering (the on-disk file stem).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A cached sweep result: column headers plus numeric rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The hex cache key this table was stored under.
    pub key: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Numeric data, one inner vector per row.
    pub rows: Vec<Vec<f64>>,
}

/// In-memory table cache with an optional on-disk JSON mirror.
#[derive(Debug, Default)]
pub struct ResultStore {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<String, Table>>,
}

impl ResultStore {
    /// A purely in-memory store (one process lifetime).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A store mirrored to `dir` (created on first write). Tables written
    /// by previous processes are visible.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: Some(dir.into()),
            mem: Mutex::new(HashMap::new()),
        }
    }

    /// The mirror directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The sharded on-disk location: `dir/ab/abcdef….json`, keyed by the
    /// first byte of the content hash so directory listings stay short
    /// (256-way fan-out) as entry counts grow.
    fn path_for(&self, key: &CacheKey) -> Option<PathBuf> {
        let hex = key.hex();
        self.dir
            .as_ref()
            .map(|d| d.join(&hex[..2]).join(format!("{hex}.json")))
    }

    /// Looks up a table, consulting memory, then the disk mirror. A disk
    /// hit is promoted into memory. Corrupt disk entries are treated as
    /// misses (the next `put` overwrites them).
    pub fn get(&self, key: &CacheKey) -> Option<Table> {
        if let Some(hit) = self.mem.lock().expect("store poisoned").get(&key.hex()) {
            return Some(hit.clone());
        }
        let text = std::fs::read_to_string(self.path_for(key)?).ok()?;
        let table = json::decode_table(&text).ok()?;
        if table.key != key.hex() {
            return None; // foreign or stale file under our name
        }
        self.mem
            .lock()
            .expect("store poisoned")
            .insert(table.key.clone(), table.clone());
        Some(table)
    }

    /// Stores a table under `key` (memory always; disk if mirrored).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the mirror directory or file cannot be
    /// written.
    pub fn put(&self, key: &CacheKey, columns: Vec<String>, rows: Vec<Vec<f64>>) -> Result<Table> {
        let table = Table {
            key: key.hex(),
            columns,
            rows,
        };
        if let Some(path) = self.path_for(key) {
            let dir = path.parent().expect("cache file has a parent");
            let encoded = json::encode_table(&table);
            // A concurrent `cache gc` may prune the shard directory
            // between create_dir_all and write; one retry closes the
            // race (the cache is best-effort everywhere else too).
            let attempt = || -> std::io::Result<()> {
                std::fs::create_dir_all(dir)?;
                std::fs::write(&path, &encoded)
            };
            attempt().or_else(|_| attempt()).map_err(|e| Error::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
        }
        self.mem
            .lock()
            .expect("store poisoned")
            .insert(table.key.clone(), table.clone());
        Ok(table)
    }

    /// Returns the cached table for `key`, or computes, stores, and
    /// returns it. The boolean reports whether this was a cache hit.
    ///
    /// # Errors
    ///
    /// Propagates the compute function's error or the store's I/O error.
    pub fn get_or_compute<F>(&self, key: &CacheKey, compute: F) -> Result<(Table, bool)>
    where
        F: FnOnce() -> Result<(Vec<String>, Vec<Vec<f64>>)>,
    {
        let (hits, misses) = hit_miss_counters();
        if let Some(hit) = self.get(key) {
            hits.inc();
            return Ok((hit, true));
        }
        misses.inc();
        let (columns, rows) = compute()?;
        Ok((self.put(key, columns, rows)?, false))
    }
}

/// What a [`gc`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Cache entries found.
    pub scanned: usize,
    /// Entries deleted.
    pub evicted: usize,
    /// Total entry bytes before the pass.
    pub bytes_before: u64,
    /// Total entry bytes after the pass.
    pub bytes_after: u64,
}

/// `true` for the two-hex-digit subdirectories of the sharded layout.
fn is_shard_dir_name(name: &str) -> bool {
    name.len() == 2
        && name
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase())
}

/// Lists every cache entry (`*.json` file) in `dir`, covering both the
/// legacy flat layout and the sharded `dir/ab/` subdirectories. A
/// missing directory is an empty cache, not an error.
fn list_entries(dir: &Path) -> Result<Vec<(PathBuf, u64, SystemTime)>> {
    fn scan(
        dir: &Path,
        recurse_shards: bool,
        out: &mut Vec<(PathBuf, u64, SystemTime)>,
    ) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)?.flatten() {
            let path = entry.path();
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                if recurse_shards
                    && path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(is_shard_dir_name)
                {
                    // Shard directories that vanish mid-pass are fine.
                    let _ = scan(&path, false, out);
                }
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            out.push((path, meta.len(), mtime));
        }
        Ok(())
    }
    let mut entries = Vec::new();
    match scan(dir, true, &mut entries) {
        Ok(()) => Ok(entries),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(Error::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        }),
    }
}

/// Removes now-empty shard subdirectories left behind by an eviction
/// pass (best effort — a non-empty directory simply refuses).
fn prune_empty_shards(evicted: &[&PathBuf]) {
    let mut dirs: Vec<&Path> = evicted
        .iter()
        .filter_map(|p| p.parent())
        .filter(|d| {
            d.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(is_shard_dir_name)
        })
        .collect();
    dirs.sort_unstable();
    dirs.dedup();
    for d in dirs {
        let _ = std::fs::remove_dir(d);
    }
}

/// Shrinks an on-disk result cache to at most `max_bytes` of entries by
/// deleting the oldest-modified `*.json` files first (the disk mirror of
/// [`ResultStore::on_disk`], flat and sharded layouts alike). Content
/// hashes make entries self-contained, so evicting any subset is always
/// safe — the worst case is a recompute. A missing directory is an empty
/// cache, not an error; files that vanish mid-pass are treated as
/// already evicted.
///
/// # Errors
///
/// Returns [`Error::Io`] when the directory exists but cannot be listed.
pub fn gc(dir: &Path, max_bytes: u64) -> Result<GcStats> {
    let mut entries = list_entries(dir)?;
    // Oldest first; the path tiebreak keeps the pass deterministic when a
    // filesystem's mtime granularity lumps entries together.
    entries.sort_by(|a, b| (a.2, &a.1, &a.0).cmp(&(b.2, &b.1, &b.0)));
    let bytes_before: u64 = entries.iter().map(|e| e.1).sum();
    let scanned = entries.len();
    let mut bytes_after = bytes_before;
    let mut evicted = 0;
    let mut evicted_paths: Vec<&PathBuf> = Vec::new();
    for (path, len, _) in &entries {
        if bytes_after <= max_bytes {
            break;
        }
        if std::fs::remove_file(path).is_ok() || !path.exists() {
            bytes_after -= len;
            evicted += 1;
            evicted_paths.push(path);
        }
    }
    prune_empty_shards(&evicted_paths);
    Ok(GcStats {
        scanned,
        evicted,
        bytes_before,
        bytes_after,
    })
}

/// Evicts every cache entry older than `max_age` (by mtime), regardless
/// of total size — the time-based twin of [`gc`]. Useful for bounding
/// staleness instead of footprint: entries for retired code versions stop
/// being read (their salt changed) but would survive a size-capped pass
/// forever on a quiet cache.
///
/// # Errors
///
/// Returns [`Error::Io`] when the directory exists but cannot be listed.
pub fn gc_by_age(dir: &Path, max_age: std::time::Duration) -> Result<GcStats> {
    gc_by_age_at(dir, max_age, SystemTime::now())
}

/// [`gc_by_age`] against an explicit "now" — the testable core (unit
/// tests feed synthetic mtimes and a pinned clock).
pub fn gc_by_age_at(dir: &Path, max_age: std::time::Duration, now: SystemTime) -> Result<GcStats> {
    let cutoff = now.checked_sub(max_age).unwrap_or(SystemTime::UNIX_EPOCH);
    let entries = list_entries(dir)?;
    let mut scanned = 0usize;
    let mut evicted = 0usize;
    let mut bytes_before = 0u64;
    let mut bytes_after = 0u64;
    let mut evicted_paths: Vec<&PathBuf> = Vec::new();
    for (path, len, mtime) in &entries {
        scanned += 1;
        bytes_before += len;
        // Strictly older than the cutoff: an entry exactly max_age old
        // survives, so --max-age 0 is "evict only strictly-past entries",
        // not "empty the cache" (use --max-bytes 0 for that).
        if *mtime < cutoff && (std::fs::remove_file(path).is_ok() || !path.exists()) {
            evicted += 1;
            evicted_paths.push(path);
        } else {
            bytes_after += len;
        }
    }
    prune_empty_shards(&evicted_paths);
    Ok(GcStats {
        scanned,
        evicted,
        bytes_before,
        bytes_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::Axis;

    fn plan() -> SweepPlan {
        SweepPlan::new("cache-test")
            .axis(Axis::grid("d", &[1.0, 2.0]))
            .axis(Axis::trials(3))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cnt-sweep-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_tracks_plan_seed_and_salt() {
        let k = CacheKey::derive(&plan(), 42, "v1");
        assert_eq!(k, CacheKey::derive(&plan(), 42, "v1"));
        assert_ne!(k, CacheKey::derive(&plan(), 43, "v1"));
        assert_ne!(k, CacheKey::derive(&plan(), 42, "v2"));
        let other = SweepPlan::new("cache-test").axis(Axis::grid("d", &[1.0, 2.5]));
        assert_ne!(k, CacheKey::derive(&other, 42, "v1"));
        assert_eq!(k.hex().len(), 16);
    }

    #[test]
    fn memory_roundtrip_and_hit_flag() {
        let store = ResultStore::in_memory();
        let key = CacheKey::derive(&plan(), 1, "v1");
        let mut computes = 0;
        for expect_hit in [false, true, true] {
            let (table, hit) = store
                .get_or_compute(&key, || {
                    computes += 1;
                    Ok((vec!["x".to_string()], vec![vec![1.5], vec![2.5]]))
                })
                .unwrap();
            assert_eq!(hit, expect_hit);
            assert_eq!(table.rows, vec![vec![1.5], vec![2.5]]);
        }
        assert_eq!(computes, 1);
    }

    #[test]
    fn disk_mirror_survives_store_instances() {
        let dir = tmp_dir("mirror");
        let key = CacheKey::derive(&plan(), 7, "v1");
        {
            let store = ResultStore::on_disk(&dir);
            store
                .put(&key, vec!["v".to_string()], vec![vec![0.25]])
                .unwrap();
        }
        let fresh = ResultStore::on_disk(&dir);
        let table = fresh.get(&key).expect("disk hit");
        assert_eq!(table.rows, vec![vec![0.25]]);
        assert_eq!(fresh.dir(), Some(dir.as_path()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_entries_first() {
        let dir = tmp_dir("gc");
        std::fs::create_dir_all(&dir).unwrap();
        // Three 100-byte entries with strictly increasing mtimes.
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, [b'x'; 100]).unwrap();
            let mtime = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1000 + i as u64);
            let file = std::fs::File::options().write(true).open(&path).unwrap();
            file.set_modified(mtime).unwrap();
        }
        // A non-cache file is never touched.
        std::fs::write(dir.join("README.txt"), "keep me").unwrap();

        let stats = gc(&dir, 250).unwrap();
        assert_eq!(stats.scanned, 3);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.bytes_before, 300);
        assert_eq!(stats.bytes_after, 200);
        assert!(!dir.join("a.json").exists(), "oldest entry must go first");
        assert!(dir.join("b.json").exists() && dir.join("c.json").exists());
        assert!(dir.join("README.txt").exists());

        // max-bytes 0 empties the cache; a second pass is a no-op.
        let stats = gc(&dir, 0).unwrap();
        assert_eq!((stats.evicted, stats.bytes_after), (2, 0));
        let stats = gc(&dir, 0).unwrap();
        assert_eq!((stats.scanned, stats.evicted), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_by_age_evicts_only_entries_past_the_cutoff() {
        use std::time::Duration;
        let dir = tmp_dir("gc-age");
        std::fs::create_dir_all(&dir).unwrap();
        // Synthetic mtimes: 1000 s, 1100 s, 1200 s after the epoch.
        for (i, name) in ["old", "mid", "new"].iter().enumerate() {
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, [b'x'; 50]).unwrap();
            let mtime = SystemTime::UNIX_EPOCH + Duration::from_secs(1000 + 100 * i as u64);
            let file = std::fs::File::options().write(true).open(&path).unwrap();
            file.set_modified(mtime).unwrap();
        }
        std::fs::write(dir.join("README.txt"), "keep me").unwrap();

        // Clock pinned at t = 1250 s; max age 100 s ⇒ cutoff 1150 s:
        // "old" (1000) and "mid" (1100) go, "new" (1200) stays.
        let now = SystemTime::UNIX_EPOCH + Duration::from_secs(1250);
        let stats = gc_by_age_at(&dir, Duration::from_secs(100), now).unwrap();
        assert_eq!(stats.scanned, 3);
        assert_eq!(stats.evicted, 2);
        assert_eq!(stats.bytes_before, 150);
        assert_eq!(stats.bytes_after, 50);
        assert!(!dir.join("old.json").exists());
        assert!(!dir.join("mid.json").exists());
        assert!(dir.join("new.json").exists());
        assert!(dir.join("README.txt").exists());

        // An entry exactly at the cutoff survives (strict comparison).
        let stats = gc_by_age_at(&dir, Duration::from_secs(50), now).unwrap();
        assert_eq!(stats.evicted, 0, "1200 == cutoff 1200 must survive");
        // A later clock takes it too; a second pass is a no-op.
        let later = SystemTime::UNIX_EPOCH + Duration::from_secs(1301);
        let stats = gc_by_age_at(&dir, Duration::from_secs(100), later).unwrap();
        assert_eq!((stats.scanned, stats.evicted), (1, 1));
        let stats = gc_by_age_at(&dir, Duration::from_secs(100), later).unwrap();
        assert_eq!((stats.scanned, stats.evicted), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_by_age_on_a_missing_directory_is_an_empty_pass() {
        let dir = tmp_dir("gc-age-missing");
        let stats = gc_by_age(&dir, std::time::Duration::from_secs(1)).unwrap();
        assert_eq!((stats.scanned, stats.evicted), (0, 0));
    }

    #[test]
    fn gc_on_a_missing_directory_is_an_empty_pass() {
        let dir = tmp_dir("gc-missing");
        let stats = gc(&dir, 1024).unwrap();
        assert_eq!(stats.scanned, 0);
        assert_eq!(stats.evicted, 0);
    }

    #[test]
    fn put_uses_the_sharded_layout() {
        let dir = tmp_dir("shard-put");
        let key = CacheKey::derive(&plan(), 11, "v1");
        let store = ResultStore::on_disk(&dir);
        store
            .put(&key, vec!["v".to_string()], vec![vec![1.0]])
            .unwrap();
        let hex = key.hex();
        let sharded = dir.join(&hex[..2]).join(format!("{hex}.json"));
        assert!(sharded.exists(), "entry must land in its shard");
        assert!(
            !dir.join(format!("{hex}.json")).exists(),
            "no flat file for new writes"
        );
        // A fresh store instance reads it back through the sharded path.
        let fresh = ResultStore::on_disk(&dir);
        assert_eq!(fresh.get(&key).expect("disk hit").rows, vec![vec![1.0]]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_spans_flat_and_sharded_layouts() {
        let dir = tmp_dir("shard-gc");
        std::fs::create_dir_all(dir.join("ab")).unwrap();
        std::fs::create_dir_all(dir.join("cd")).unwrap();
        // Oldest entry is sharded, newer ones flat and sharded.
        for (rel, secs) in [
            ("ab/abcdef.json", 1000u64),
            ("flat.json", 1100),
            ("cd/cdef01.json", 1200),
        ] {
            let path = dir.join(rel);
            std::fs::write(&path, [b'x'; 100]).unwrap();
            let file = std::fs::File::options().write(true).open(&path).unwrap();
            file.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs))
                .unwrap();
        }
        // A non-shard subdirectory is never scanned.
        std::fs::create_dir_all(dir.join("notashard")).unwrap();
        std::fs::write(dir.join("notashard/skip.json"), "keep").unwrap();

        let stats = gc(&dir, 250).unwrap();
        assert_eq!(stats.scanned, 3, "flat + sharded entries are scanned");
        assert_eq!(stats.evicted, 1);
        assert!(!dir.join("ab/abcdef.json").exists(), "oldest goes first");
        assert!(!dir.join("ab").exists(), "emptied shard dir is pruned");
        assert!(dir.join("flat.json").exists());
        assert!(dir.join("cd/cdef01.json").exists());
        assert!(dir.join("notashard/skip.json").exists());

        // The age pass sees both layouts too.
        let now = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1301);
        let stats = gc_by_age_at(&dir, std::time::Duration::from_secs(150), now).unwrap();
        assert_eq!((stats.scanned, stats.evicted), (2, 1));
        assert!(!dir.join("flat.json").exists());
        assert!(dir.join("cd/cdef01.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_miss() {
        let dir = tmp_dir("corrupt");
        let key = CacheKey::derive(&plan(), 9, "v1");
        let store = ResultStore::on_disk(&dir);
        let path = store.path_for(&key).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{not json").unwrap();
        assert!(store.get(&key).is_none());
        // And a key-mismatched (foreign) file is also a miss.
        let foreign = Table {
            key: "0000000000000000".to_string(),
            columns: vec![],
            rows: vec![],
        };
        std::fs::write(&path, json::encode_table(&foreign)).unwrap();
        assert!(store.get(&key).is_none());
        // A pre-sharding flat file is not read at all.
        let flat = Table {
            key: key.hex(),
            columns: vec!["v".to_string()],
            rows: vec![vec![2.5]],
        };
        std::fs::remove_file(&path).unwrap();
        std::fs::write(
            dir.join(format!("{}.json", key.hex())),
            json::encode_table(&flat),
        )
        .unwrap();
        assert!(store.get(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
