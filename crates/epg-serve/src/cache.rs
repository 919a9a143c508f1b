//! The bounded LRU source cache.
//!
//! The unit of caching is a whole per-source result array — the level
//! array of one BFS, the distance array of one SSSP, the rank array of
//! one PageRank — because one expansion answers *every* point query
//! sharing that source (the GAP same-source observation, applied across
//! requests). Entries are `Arc`-shared: a hit hands the
//! caller a reference to the exact bytes the traversal produced, so
//! cached answers are byte-identical to uncached recomputation (pinned
//! by a proptest in `tests/`).
//!
//! The counters are exact, not sampled: every lookup increments exactly
//! one of `hits`/`misses`, every insert increments `insertions` and at
//! most one `evictions`, and all four live under the same lock as the map,
//! so a [`CacheStats`] snapshot is internally consistent (`hits + misses
//! == lookups` exactly, never approximately).

use epg_engine_api::Algorithm;
use epg_graph::{VertexId, Weight};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: one traversal source under one algorithm. PageRank has no
/// source; its single whole-graph result is keyed under source 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SourceKey {
    /// The algorithm whose result array this is.
    pub algo: Algorithm,
    /// The traversal source (0 for PageRank).
    pub source: VertexId,
}

/// One per-source result array, as produced by a kernel.
#[derive(Clone, Debug, PartialEq)]
pub enum SourceArray {
    /// BFS levels: hop count per vertex, `u32::MAX` when unreached.
    Levels(Vec<u32>),
    /// SSSP distances: `INF_DIST` when unreached.
    Dists(Vec<Weight>),
    /// PageRank ranks.
    Ranks(Vec<f64>),
}

impl SourceArray {
    /// The answer for target vertex `v`, widened to `f64` with
    /// unreachable encoded as `+∞`. BFS levels and SSSP distances widen
    /// losslessly, so equality on the returned value is equality on the
    /// stored bytes.
    pub fn value_at(&self, v: VertexId) -> f64 {
        match self {
            SourceArray::Levels(l) => {
                let hops = l[v as usize];
                if hops == u32::MAX {
                    f64::INFINITY
                } else {
                    f64::from(hops)
                }
            }
            SourceArray::Dists(d) => f64::from(d[v as usize]),
            SourceArray::Ranks(r) => r[v as usize],
        }
    }

    /// Bytes the array's values take.
    pub fn size_bytes(&self) -> usize {
        match self {
            SourceArray::Levels(l) => std::mem::size_of_val(l.as_slice()),
            SourceArray::Dists(d) => std::mem::size_of_val(d.as_slice()),
            SourceArray::Ranks(r) => std::mem::size_of_val(r.as_slice()),
        }
    }
}

struct Entry {
    value: Arc<SourceArray>,
    /// Monotone recency stamp; the minimum stamp is the LRU victim.
    stamp: u64,
}

struct Lru {
    cap: usize,
    clock: u64,
    map: HashMap<SourceKey, Entry>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// Consistent snapshot of the cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a resident array.
    pub hits: u64,
    /// Lookups that found nothing (every lookup is exactly one of the
    /// two: `hits + misses` is the exact lookup count).
    pub misses: u64,
    /// Arrays offered to the cache (including re-inserts of a resident
    /// key and inserts dropped by a zero capacity).
    pub insertions: u64,
    /// Resident arrays displaced to make room.
    pub evictions: u64,
    /// Arrays resident at snapshot time.
    pub resident: usize,
    /// Bytes of the resident arrays' values ([`SourceArray::size_bytes`]).
    pub resident_bytes: usize,
}

/// A bounded least-recently-used map from traversal source to its whole
/// result array. Capacity zero is legal and caches nothing (every
/// lookup misses, every insert is counted but dropped, nothing is ever
/// evicted — eviction means displacing a *resident* entry).
pub struct SourceCache {
    inner: Mutex<Lru>,
}

impl SourceCache {
    /// Creates a cache holding at most `capacity` source arrays.
    pub fn new(capacity: usize) -> SourceCache {
        SourceCache {
            inner: Mutex::new(Lru {
                cap: capacity,
                clock: 0,
                map: HashMap::new(),
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
            }),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn lookup(&self, key: &SourceKey) -> Option<Arc<SourceArray>> {
        let mut lru = self.inner.lock();
        lru.clock += 1;
        let stamp = lru.clock;
        match lru.map.get_mut(key) {
            Some(e) => {
                e.stamp = stamp;
                let value = Arc::clone(&e.value);
                lru.hits += 1;
                Some(value)
            }
            None => {
                lru.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// resident entry if the cache is full.
    pub fn insert(&self, key: SourceKey, value: Arc<SourceArray>) {
        let mut lru = self.inner.lock();
        lru.insertions += 1;
        if lru.cap == 0 {
            return;
        }
        lru.clock += 1;
        let stamp = lru.clock;
        if let Some(e) = lru.map.get_mut(&key) {
            e.value = value;
            e.stamp = stamp;
            return;
        }
        if lru.map.len() >= lru.cap {
            // O(resident) victim scan; capacities are tens of arrays, and
            // each array is megabytes — the scan is noise next to one.
            let victim = lru
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("full cache has a victim");
            lru.map.remove(&victim);
            lru.evictions += 1;
        }
        lru.map.insert(key, Entry { value, stamp });
    }

    /// Consistent counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let lru = self.inner.lock();
        CacheStats {
            hits: lru.hits,
            misses: lru.misses,
            insertions: lru.insertions,
            evictions: lru.evictions,
            resident: lru.map.len(),
            resident_bytes: lru.map.values().map(|e| e.value.size_bytes()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(algo: Algorithm, source: VertexId) -> SourceKey {
        SourceKey { algo, source }
    }

    fn levels(xs: &[u32]) -> Arc<SourceArray> {
        Arc::new(SourceArray::Levels(xs.to_vec()))
    }

    #[test]
    fn eviction_follows_recency_order() {
        let c = SourceCache::new(2);
        let (a, b, d) = (key(Algorithm::Bfs, 1), key(Algorithm::Bfs, 2), key(Algorithm::Bfs, 3));
        c.insert(a, levels(&[0]));
        c.insert(b, levels(&[1]));
        // Touch `a`: `b` becomes the LRU victim.
        assert!(c.lookup(&a).is_some());
        c.insert(d, levels(&[2]));
        assert!(c.lookup(&b).is_none(), "b was least recently used");
        assert!(c.lookup(&a).is_some(), "a was refreshed by the hit");
        assert!(c.lookup(&d).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().resident, 2);
        assert_eq!(c.stats().resident_bytes, 2 * 4, "two one-level arrays");
    }

    #[test]
    fn same_source_different_algorithms_are_distinct_keys() {
        let c = SourceCache::new(4);
        c.insert(key(Algorithm::Bfs, 5), levels(&[1]));
        c.insert(key(Algorithm::Sssp, 5), Arc::new(SourceArray::Dists(vec![0.5])));
        assert!(matches!(
            c.lookup(&key(Algorithm::Bfs, 5)).unwrap().as_ref(),
            SourceArray::Levels(_)
        ));
        assert!(matches!(
            c.lookup(&key(Algorithm::Sssp, 5)).unwrap().as_ref(),
            SourceArray::Dists(_)
        ));
    }

    #[test]
    fn capacity_zero_caches_nothing_and_evicts_nothing() {
        let c = SourceCache::new(0);
        let k = key(Algorithm::Bfs, 0);
        c.insert(k, levels(&[0]));
        assert!(c.lookup(&k).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions, s.resident), (0, 1, 1, 0, 0));
        assert_eq!(s.resident_bytes, 0);
    }

    #[test]
    fn reinsert_of_resident_key_refreshes_without_eviction() {
        let c = SourceCache::new(2);
        let (a, b) = (key(Algorithm::Bfs, 1), key(Algorithm::Bfs, 2));
        c.insert(a, levels(&[0]));
        c.insert(b, levels(&[1]));
        c.insert(a, levels(&[9])); // refresh, not displace
        let s = c.stats();
        assert_eq!((s.insertions, s.evictions, s.resident), (3, 0, 2));
        let SourceArray::Levels(l) = c.lookup(&a).unwrap().as_ref().clone() else { panic!() };
        assert_eq!(l, vec![9], "refresh must replace the value");
    }

    #[test]
    fn hit_and_miss_counters_sum_to_lookups_exactly() {
        // Exact counts, including under concurrency: every lookup lands
        // in exactly one bucket, under the map's lock.
        let c = SourceCache::new(8);
        for s in 0..8 {
            c.insert(key(Algorithm::Bfs, s), levels(&[s]));
        }
        let lookups = 64 * 4;
        std::thread::scope(|scope| {
            for t in 0..4 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..64u32 {
                        // Half the keys are resident, half never inserted.
                        let _ = c.lookup(&key(Algorithm::Bfs, (t * 64 + i) % 16));
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits + s.misses, lookups, "exact sum, no lost updates");
        assert!(s.hits > 0 && s.misses > 0);
    }

    #[test]
    fn value_at_widens_unreachable_to_infinity() {
        let l = SourceArray::Levels(vec![0, 3, u32::MAX]);
        assert_eq!(l.value_at(1), 3.0);
        assert!(l.value_at(2).is_infinite());
        let d = SourceArray::Dists(vec![0.0, epg_graph::INF_DIST]);
        assert!(d.value_at(1).is_infinite());
        let r = SourceArray::Ranks(vec![0.25]);
        assert_eq!(r.value_at(0), 0.25);
    }
}
