//! Content-addressed result store: a directory of JSON tables.
//!
//! A sweep's identity is everything that determines its numbers: the plan
//! fingerprint (id, axis names, every value's bit pattern), the root seed,
//! and a caller-supplied salt for the *code version* of the work function.
//! Two runs with the same [`CacheKey`] are guaranteed to produce the same
//! table, so re-running `repro sweep …` is a lookup. Bump the salt when
//! the physics in the work function changes.
//!
//! Entries live in a 256-way sharded layout keyed by the first byte of
//! the content hash (`cache/ab/abcdef….json`), so lookups and `repro
//! cache gc` scans never depend on one huge directory listing. Files
//! directly under the cache directory are neither read nor collected.
//! The store keeps nothing in memory: every lookup reads its file.

use crate::json;
use crate::plan::SweepPlan;
use crate::seed::fnv1a;
use crate::{Error, Result};
use cnt_obs::Counter;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::SystemTime;

/// [`ResultStore`] outcomes, process-wide: lookup hits and misses, and
/// failed writes. The three register together, so the failure count
/// reads 0 beside the first hit or miss.
struct StoreCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    write_failures: Arc<Counter>,
}

fn store_counters() -> &'static StoreCounters {
    static HANDLES: OnceLock<StoreCounters> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let g = cnt_obs::global();
        StoreCounters {
            hits: g.counter(
                "cnt_sweep_cache_hits_total",
                "sweep lookups answered from the result store",
            ),
            misses: g.counter(
                "cnt_sweep_cache_misses_total",
                "sweep lookups that had to recompute",
            ),
            write_failures: g.counter(
                "cnt_sweep_cache_write_failures_total",
                "result-store writes that failed",
            ),
        }
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

/// A directory of tables, one JSON file per [`CacheKey`]. Tables written
/// by earlier processes are visible.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// A store in `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The sharded location: `dir/ab/abcdef….json`, keyed by the first
    /// byte of the content hash so directory listings stay short
    /// (256-way fan-out) as entry counts grow.
    fn path_for(&self, key: &CacheKey) -> PathBuf {
        let hex = key.hex();
        self.dir.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// The table stored under `key`, if `fits` accepts its shape. A
    /// missing, corrupt or foreign file (another key's table under this
    /// name) is a miss, as is a table `fits` refuses; the next
    /// [`ResultStore::put`] overwrites it. Each call counts one hit or
    /// one miss on the process-wide sweep cache counters.
    pub fn get(&self, key: &CacheKey, fits: impl FnOnce(&Table) -> bool) -> Option<Table> {
        let table = std::fs::read_to_string(self.path_for(key))
            .ok()
            .and_then(|text| json::decode_table(&text).ok())
            .filter(|table| table.key == key.hex() && fits(table));
        let StoreCounters { hits, misses, .. } = store_counters();
        if table.is_some() { hits } else { misses }.inc();
        table
    }

    /// Writes `table` under `key`. A failed write counts on the
    /// process-wide `cnt_sweep_cache_write_failures_total`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the shard directory or file cannot be
    /// written.
    pub fn put(&self, key: &CacheKey, table: &Table) -> Result<()> {
        let failures = &store_counters().write_failures;
        let path = self.path_for(key);
        let dir = path.parent().expect("cache file has a parent");
        let encoded = json::encode_table(table);
        // A concurrent `cache gc` may prune the shard directory between
        // create_dir_all and write; one retry closes the race (the cache
        // is best-effort everywhere else too).
        let attempt = || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            std::fs::write(&path, &encoded)
        };
        attempt().or_else(|_| attempt()).map_err(|e| {
            failures.inc();
            Error::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            }
        })
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

/// Lists every cache entry (`*.json` file) in the shard directories
/// `dir/ab/`. A missing directory is an empty cache, not an error.
fn list_entries(dir: &Path) -> Result<Vec<(PathBuf, u64, SystemTime)>> {
    let shards = match std::fs::read_dir(dir) {
        Ok(shards) => shards,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(Error::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })
        }
    };
    let mut entries = Vec::new();
    for shard in shards.flatten() {
        let is_shard = shard.file_name().to_str().is_some_and(is_shard_dir_name)
            && shard.metadata().is_ok_and(|m| m.is_dir());
        if !is_shard {
            continue;
        }
        // Shard directories that vanish mid-pass are fine.
        let Ok(files) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        for entry in files.flatten() {
            let path = entry.path();
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_dir() && path.extension().and_then(|e| e.to_str()) == Some("json") {
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                entries.push((path, meta.len(), mtime));
            }
        }
    }
    Ok(entries)
}

/// Removes now-empty shard subdirectories left behind by an eviction
/// pass (best effort — a non-empty directory simply refuses).
fn prune_empty_shards(evicted: &[&PathBuf]) {
    let mut dirs: Vec<&Path> = evicted.iter().filter_map(|p| p.parent()).collect();
    dirs.sort_unstable();
    dirs.dedup();
    for d in dirs {
        let _ = std::fs::remove_dir(d);
    }
}

/// Shrinks a [`ResultStore`] directory to at most `max_bytes` of entries
/// by deleting the oldest-modified `*.json` files first. Content
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

    fn table(key: &CacheKey, rows: Vec<Vec<f64>>) -> Table {
        Table {
            key: key.hex(),
            columns: vec!["v".to_string()],
            rows,
        }
    }

    /// Writes `len` bytes at `rel` under `dir` with the given mtime.
    fn entry(dir: &Path, rel: &str, len: usize, secs: u64) {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, vec![b'x'; len]).unwrap();
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs))
            .unwrap();
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
    fn disk_mirror_survives_store_instances() {
        let dir = tmp_dir("mirror");
        let key = CacheKey::derive(&plan(), 7, "v1");
        ResultStore::new(&dir)
            .put(&key, &table(&key, vec![vec![0.25]]))
            .unwrap();
        let fresh = ResultStore::new(&dir);
        let hit = fresh.get(&key, |_| true).expect("disk hit");
        assert_eq!(hit, table(&key, vec![vec![0.25]]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_table_the_caller_refuses_is_a_miss() {
        let dir = tmp_dir("refused");
        let key = CacheKey::derive(&plan(), 8, "v1");
        let store = ResultStore::new(&dir);
        assert!(store.get(&key, |_| true).is_none(), "empty store");
        store
            .put(&key, &table(&key, vec![vec![1.5], vec![2.5]]))
            .unwrap();
        assert!(store.get(&key, |t| t.rows.len() == 3).is_none());
        let hit = store.get(&key, |t| t.rows.len() == 2).expect("fits");
        assert_eq!(hit.rows, vec![vec![1.5], vec![2.5]]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_entries_first() {
        let dir = tmp_dir("gc");
        // Three 100-byte entries with strictly increasing mtimes.
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            entry(&dir, &format!("0{i}/{name}.json"), 100, 1000 + i as u64);
        }
        // A non-cache file is never touched.
        std::fs::write(dir.join("00/README.txt"), "keep me").unwrap();

        let stats = gc(&dir, 250).unwrap();
        assert_eq!(stats.scanned, 3);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.bytes_before, 300);
        assert_eq!(stats.bytes_after, 200);
        assert!(
            !dir.join("00/a.json").exists(),
            "oldest entry must go first"
        );
        assert!(dir.join("01/b.json").exists() && dir.join("02/c.json").exists());
        assert!(dir.join("00/README.txt").exists());

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
        // Synthetic mtimes: 1000 s, 1100 s, 1200 s after the epoch.
        for (i, name) in ["old", "mid", "new"].iter().enumerate() {
            entry(
                &dir,
                &format!("0{i}/{name}.json"),
                50,
                1000 + 100 * i as u64,
            );
        }
        std::fs::write(dir.join("00/README.txt"), "keep me").unwrap();

        // Clock pinned at t = 1250 s; max age 100 s ⇒ cutoff 1150 s:
        // "old" (1000) and "mid" (1100) go, "new" (1200) stays.
        let now = SystemTime::UNIX_EPOCH + Duration::from_secs(1250);
        let stats = gc_by_age_at(&dir, Duration::from_secs(100), now).unwrap();
        assert_eq!(stats.scanned, 3);
        assert_eq!(stats.evicted, 2);
        assert_eq!(stats.bytes_before, 150);
        assert_eq!(stats.bytes_after, 50);
        assert!(!dir.join("00/old.json").exists());
        assert!(!dir.join("01/mid.json").exists());
        assert!(dir.join("02/new.json").exists());
        assert!(dir.join("00/README.txt").exists());

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
        let store = ResultStore::new(&dir);
        store.put(&key, &table(&key, vec![vec![1.0]])).unwrap();
        let hex = key.hex();
        let sharded = dir.join(&hex[..2]).join(format!("{hex}.json"));
        assert!(sharded.exists(), "entry must land in its shard");
        assert!(
            !dir.join(format!("{hex}.json")).exists(),
            "no flat file for new writes"
        );
        // A fresh store instance reads it back through the sharded path.
        let fresh = ResultStore::new(&dir);
        assert_eq!(
            fresh.get(&key, |_| true).expect("disk hit").rows,
            vec![vec![1.0]]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_spans_flat_and_sharded_layouts() {
        let dir = tmp_dir("shard-gc");
        // Two sharded entries, the older first.
        entry(&dir, "ab/abcdef.json", 100, 1000);
        entry(&dir, "cd/cdef01.json", 100, 1200);
        // A flat file from before sharding and a non-shard subdirectory
        // are neither scanned nor deleted.
        entry(&dir, "flat.json", 100, 900);
        entry(&dir, "notashard/skip.json", 100, 900);

        let stats = gc(&dir, 150).unwrap();
        assert_eq!(stats.scanned, 2, "only shard entries are scanned");
        assert_eq!(stats.evicted, 1);
        assert!(!dir.join("ab/abcdef.json").exists(), "oldest goes first");
        assert!(!dir.join("ab").exists(), "emptied shard dir is pruned");
        assert!(dir.join("cd/cdef01.json").exists());
        assert!(dir.join("flat.json").exists());
        assert!(dir.join("notashard/skip.json").exists());

        // The age pass sees only the shards too.
        let now = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1301);
        let stats = gc_by_age_at(&dir, std::time::Duration::from_secs(50), now).unwrap();
        assert_eq!((stats.scanned, stats.evicted), (1, 1));
        assert!(!dir.join("cd").exists());
        assert!(dir.join("flat.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_miss() {
        let dir = tmp_dir("corrupt");
        let key = CacheKey::derive(&plan(), 9, "v1");
        let store = ResultStore::new(&dir);
        let path = store.path_for(&key);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{not json").unwrap();
        assert!(store.get(&key, |_| true).is_none());
        // A key-mismatched (foreign) file is also a miss.
        let foreign = Table {
            key: "0000000000000000".to_string(),
            columns: vec![],
            rows: vec![],
        };
        std::fs::write(&path, json::encode_table(&foreign)).unwrap();
        assert!(store.get(&key, |_| true).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
