//! An in-memory LRU for rendered run bodies.
//!
//! Keys are the canonical request hash (experiment id + format + the
//! resolved parameter point's
//! [`content_hash`](cnt_interconnect::experiments::Params::content_hash),
//! same FNV-1a family as the on-disk sweep cache), so a hot operating
//! point is served without re-running any kernel. Values are the complete
//! response bodies — byte-identical replay is free by construction.

use std::collections::HashMap;
use std::sync::Arc;

/// A cached run response: content type plus the exact body bytes.
#[derive(Debug, Clone)]
pub struct CachedBody {
    /// The `Content-Type` the body renders as.
    pub content_type: &'static str,
    /// The full response body.
    pub body: Arc<String>,
}

/// A fixed-capacity least-recently-used map from request hash to body.
///
/// Recency is a monotonic touch counter; eviction scans for the minimum,
/// which is exact LRU and plenty at the few-hundred-entry capacities the
/// server runs with. Capacity 0 disables caching entirely.
#[derive(Debug, Default)]
pub struct LruCache {
    capacity: usize,
    tick: u64,
    map: HashMap<u64, (CachedBody, u64)>,
}

impl LruCache {
    /// A cache holding at most `capacity` bodies.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity.min(1024)),
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks a body up, marking it most recently used.
    pub fn get(&mut self, key: u64) -> Option<CachedBody> {
        self.tick += 1;
        let tick = self.tick;
        let (body, touched) = self.map.get_mut(&key)?;
        *touched = tick;
        Some(body.clone())
    }

    /// Inserts (or refreshes) a body, evicting the least recently used
    /// entry when over capacity.
    pub fn put(&mut self, key: u64, value: CachedBody) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        self.map.insert(key, (value, self.tick));
        if self.map.len() > self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> CachedBody {
        CachedBody {
            content_type: "application/json",
            body: Arc::new(text.to_string()),
        }
    }

    #[test]
    fn get_returns_exactly_what_was_put() {
        let mut cache = LruCache::new(4);
        assert!(cache.get(1).is_none());
        cache.put(1, body("one"));
        assert_eq!(cache.get(1).unwrap().body.as_str(), "one");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.put(1, body("one"));
        cache.put(2, body("two"));
        // Touch 1 so 2 becomes the eviction victim.
        cache.get(1).unwrap();
        cache.put(3, body("three"));
        assert!(cache.get(2).is_none(), "LRU entry must be evicted");
        assert!(cache.get(1).is_some() && cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.put(1, body("one"));
        assert!(cache.get(1).is_none());
        assert!(cache.is_empty());
    }
}
