//! A small, dependency-free LRU cache. It keeps no counters: the
//! service counts hits, misses and evictions in
//! [`crate::ServiceMetrics`] from what [`LruCache::get`] and
//! [`LruCache::insert`] return.
//!
//! Two instances back the service: the **response cache** (canonical
//! request hash → rendered response bytes) and the **context cache**
//! (spec hash → shared [`eh_fleet::FleetContext`], deduplicating the
//! population stamping and light-trace synthesis across requests that
//! differ only in tracker or engine; the PV surface tables come from
//! the process-wide [`eh_pv::registry`] either way). Both are correct
//! by construction — the fleet pipeline is deterministic, so a cached
//! value is byte-identical to a recomputation — which is why eviction
//! policy only affects *cost*, never *answers*.
//!
//! Recency is tracked with a monotonic tick per entry; eviction scans
//! for the minimum. That is O(capacity) per insert, which is the right
//! trade at service cache sizes (tens to a few thousand entries)
//! against pulling in an intrusive-list dependency.

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded least-recently-used map.
#[derive(Debug)]
pub struct LruCache<K, V> {
    entries: HashMap<K, (u64, V)>,
    capacity: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let (last_used, value) = self.entries.get_mut(key)?;
        *last_used = self.tick;
        Some(value.clone())
    }

    /// Inserts (or refreshes) a value, evicting the least recently
    /// used entry when the capacity bound would be exceeded. Returns
    /// whether an eviction happened.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                evicted = true;
            }
        }
        self.entries.insert(key, (self.tick, value));
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_refresh() {
        let mut c: LruCache<u64, String> = LruCache::new(2);
        assert!(c.get(&1).is_none());
        assert!(!c.insert(1, "one".into()));
        assert!(!c.insert(2, "two".into()));
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        // 1 was refreshed, so inserting 3 evicts 2, and only 2.
        assert!(c.insert(3, "three".into()));
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        assert_eq!(c.get(&3).as_deref(), Some("three"));
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut c: LruCache<u8, u8> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(!c.insert(1, 11), "refresh must not evict");
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), Some(20));
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut c: LruCache<u8, u8> = LruCache::new(0);
        assert!(!c.insert(1, 1));
        assert_eq!(c.get(&1), Some(1));
        assert!(c.insert(2, 2), "a second key evicts the first");
        assert!(c.get(&1).is_none());
        assert_eq!(c.get(&2), Some(2));
        assert!(c.insert(3, 3));
    }
}
