//! A deterministic least-recently-used cache with bounded capacity.
//!
//! Recency is tracked with stamps drawn from a monotone counter, not wall
//! clocks: every lookup and every insertion takes a fresh stamp, and
//! eviction removes the entry with the smallest stamp. Stamps are unique,
//! so ties cannot occur and eviction order is a pure function of the
//! operation sequence — the property the serve-layer determinism tests
//! pin down. The [`ModelInterner`](crate::hash::ModelInterner) keeps its
//! compiled models and its source texts here, and `mfu-serve` its bound
//! artifacts.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Bounded map with LRU eviction.
///
/// ```
/// use mfu_lang::cache::LruCache;
///
/// let mut cache = LruCache::new(2);
/// cache.insert("sir", 1);
/// cache.insert("sis", 2);
/// cache.get(&"sir"); // refresh: "sir" is now the most recently used
/// cache.insert("seir", 3); // evicts "sis", the least recently used
/// assert!(cache.contains(&"sir") && !cache.contains(&"sis"));
/// assert_eq!(cache.evictions(), 1);
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    entries: HashMap<K, (V, u64)>,
    capacity: usize,
    stamp: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries. Capacity zero caches
    /// nothing (every insert is dropped immediately).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            entries: HashMap::new(),
            capacity,
            stamp: 0,
            evictions: 0,
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted so far to stay within the bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn touch(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Looks `key` up, marking it most recently used on a hit. The key may
    /// be borrowed, so a `&str` finds a `String` key without a copy.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let stamp = self.touch();
        let (value, last_used) = self.entries.get_mut(key)?;
        *last_used = stamp;
        Some(&*value)
    }

    /// `true` when `key` is present, *without* refreshing its recency.
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts `key → value` as most recently used, evicting the least
    /// recently used entries while over capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.touch();
        self.entries.insert(key, (value, stamp));
        while self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    self.entries.remove(&k);
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_refresh_recency() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(&1)); // "b" is now LRU
        cache.insert("c", 3);
        assert!(cache.contains(&"a"));
        assert!(!cache.contains(&"b"));
        assert!(cache.contains(&"c"));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn eviction_order_is_deterministic() {
        // The same operation sequence must always leave the same survivor
        // set, run after run (HashMap iteration order must not leak in).
        let run = || {
            let mut cache = LruCache::new(3);
            for k in 0..6u32 {
                cache.insert(k, k);
                if k % 2 == 0 {
                    cache.get(&0);
                }
            }
            let mut held: Vec<u32> = (0..6).filter(|k| cache.contains(k)).collect();
            held.sort_unstable();
            (held, cache.evictions())
        };
        let first = run();
        for _ in 0..20 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut cache = LruCache::new(0);
        cache.insert("a", 1);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&"a"), None);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn contains_does_not_refresh() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert!(cache.contains(&"a")); // peek, not a touch
        cache.insert("c", 3);
        assert!(!cache.contains(&"a"), "peeked entry must still be LRU");
    }
}
