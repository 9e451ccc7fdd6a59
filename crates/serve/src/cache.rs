//! The sharded decoded-chunk cache: the daemon's working set.
//!
//! Queries and reports over the same store keep touching the same chunks,
//! and decoding a chunk (CRC verify + four adaptive column decodes) is the
//! dominant per-request cost once the footer has pruned the candidate
//! set. The cache keeps decoded [`ColumnBatch`]es keyed by
//! `(store id, chunk ordinal)` behind `Arc`s, so any number of concurrent
//! requests share one decode.
//!
//! Sharding: keys hash onto `N` independent shards, each its own mutex,
//! so concurrent requests for different chunks rarely contend on the same
//! lock. The global byte budget is split evenly across shards and each
//! shard evicts its own least-recently-used entries when its slice
//! overflows — eviction never needs a cross-shard lock. Recency is a
//! per-shard monotonic tick stamped on each hit.
//!
//! Correctness note: the cache stores *successful* decodes only. A
//! corrupt chunk fails decode on every fetch, so salvage accounting in
//! the request layer sees the same error whether or not its neighbors
//! are cached — responses stay byte-identical to a cold, cache-free scan.

use pinpoint_store::{ColumnBatch, StoreError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache lookup counters, cumulative since startup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a cached batch.
    pub hits: u64,
    /// Lookups that ran the decode closure.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Decoded bytes currently resident across all shards.
    pub bytes: u64,
    /// Entries currently resident across all shards.
    pub entries: u64,
}

#[derive(Debug)]
struct Entry {
    batch: Arc<ColumnBatch>,
    bytes: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<(u64, usize), Entry>,
    bytes: u64,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: (u64, usize)) -> Option<Arc<ColumnBatch>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.batch)
        })
    }

    /// Inserts `batch`, evicting least-recently-used entries as needed to
    /// keep this shard under `budget`. Returns the number of evictions.
    fn insert(&mut self, key: (u64, usize), batch: Arc<ColumnBatch>, budget: u64) -> u64 {
        self.tick += 1;
        let bytes = batch.heap_bytes() as u64;
        if let Some(old) = self.map.insert(
            key,
            Entry {
                batch,
                bytes,
                last_used: self.tick,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        let mut evicted = 0;
        while self.bytes > budget && self.map.len() > 1 {
            let oldest = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match oldest {
                Some(k) => {
                    let e = self.map.remove(&k).expect("oldest key present");
                    self.bytes -= e.bytes;
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }
}

/// A sharded LRU cache of decoded chunks under a global byte budget.
#[derive(Debug)]
pub struct ChunkCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ChunkCache {
    /// Creates a cache with the given total byte budget across
    /// `shards` independent LRU shards (clamped to at least 1 each).
    pub fn new(budget_bytes: u64, shards: usize) -> Self {
        let shards = shards.max(1);
        ChunkCache {
            shard_budget: (budget_bytes / shards as u64).max(1),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: (u64, usize)) -> &Mutex<Shard> {
        // Fibonacci hashing over the mixed key; any deterministic spread
        // works, the shard choice never affects results.
        let mixed = key
            .0
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.1 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 32) as usize % self.shards.len()]
    }

    /// Returns the cached batch for `(store_id, chunk)`, or runs `decode`
    /// and caches its result. Decode errors are returned and never cached.
    ///
    /// The decode closure runs *outside* the shard lock, so a slow decode
    /// blocks neither hits on other chunks of the same shard nor
    /// concurrent misses; two racing misses on the same chunk may both
    /// decode, and the later insert simply wins (same bytes either way).
    ///
    /// # Errors
    ///
    /// Whatever `decode` returns.
    pub fn get_or_decode<F>(
        &self,
        store_id: u64,
        chunk: usize,
        decode: F,
    ) -> Result<Arc<ColumnBatch>, StoreError>
    where
        F: FnOnce() -> Result<ColumnBatch, StoreError>,
    {
        let key = (store_id, chunk);
        let shard = self.shard_for(key);
        if let Some(batch) = shard.lock().expect("cache shard poisoned").touch(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(batch);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let batch = Arc::new(decode()?);
        let evicted = shard.lock().expect("cache shard poisoned").insert(
            key,
            Arc::clone(&batch),
            self.shard_budget,
        );
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(batch)
    }

    /// Drops every cached chunk of the given store (e.g. when the catalog
    /// reopens it after a file change).
    pub fn invalidate_store(&self, store_id: u64) {
        for shard in &self.shards {
            let mut s = shard.lock().expect("cache shard poisoned");
            let keys: Vec<_> = s
                .map
                .keys()
                .filter(|(id, _)| *id == store_id)
                .copied()
                .collect();
            for k in keys {
                let e = s.map.remove(&k).expect("key present");
                s.bytes -= e.bytes;
            }
        }
    }

    /// A consistent-enough snapshot of the counters (each shard is locked
    /// in turn; totals may straddle in-flight lookups).
    pub fn stats(&self) -> CacheStats {
        let mut st = CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let s = shard.lock().expect("cache shard poisoned");
            st.bytes += s.bytes;
            st.entries += s.map.len() as u64;
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_store::{write_store_chunked, StoreReader};
    use pinpoint_trace::{BlockId, EventKind, MemoryKind, Trace};

    /// A store with 8 equally sized chunks of 64 events each.
    fn fixture() -> StoreReader {
        let mut t = Trace::new();
        for i in 0..512u64 {
            t.record(
                i * 5,
                EventKind::Write,
                BlockId(i % 13),
                256,
                0,
                MemoryKind::Activation,
                None,
            );
        }
        let mut bytes = Vec::new();
        write_store_chunked(&t, &mut bytes, 64).unwrap();
        StoreReader::from_bytes(bytes).unwrap()
    }

    #[test]
    fn hit_after_miss_shares_the_batch() {
        let r = fixture();
        let cache = ChunkCache::new(1 << 20, 4);
        let a = cache.get_or_decode(1, 0, || r.decode_chunk(0)).unwrap();
        let b = cache
            .get_or_decode(1, 0, || panic!("must not re-decode"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
        assert!(st.bytes > 0);
    }

    #[test]
    fn errors_are_not_cached() {
        let r = fixture();
        let cache = ChunkCache::new(1 << 20, 2);
        let err = cache.get_or_decode(1, 3, || {
            Err::<ColumnBatch, _>(StoreError::Truncated("chunk payload"))
        });
        assert!(err.is_err());
        // the next lookup decodes again (and may succeed)
        cache.get_or_decode(1, 3, || r.decode_chunk(3)).unwrap();
        let st = cache.stats();
        assert_eq!(st.misses, 2);
        assert_eq!(st.entries, 1);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let r = fixture();
        // one shard so recency order is total; budget fits ~2 batches
        let unit = r.decode_chunk(0).unwrap().heap_bytes() as u64;
        let budget = unit * 2 + unit / 2;
        let cache = ChunkCache::new(budget, 1);
        cache.get_or_decode(1, 0, || r.decode_chunk(0)).unwrap();
        cache.get_or_decode(1, 1, || r.decode_chunk(1)).unwrap();
        cache.get_or_decode(1, 0, || panic!("0 still hot")).unwrap();
        cache.get_or_decode(1, 2, || r.decode_chunk(2)).unwrap();
        // chunk 1 was least recently used and must be gone
        let st = cache.stats();
        assert!(st.evictions >= 1, "{st:?}");
        assert!(st.bytes <= budget, "{st:?}");
        cache.get_or_decode(1, 0, || panic!("0 survived")).unwrap();
        let mut redecoded = false;
        cache
            .get_or_decode(1, 1, || {
                redecoded = true;
                r.decode_chunk(1)
            })
            .unwrap();
        assert!(redecoded, "chunk 1 should have been evicted");
    }

    #[test]
    fn invalidate_store_clears_only_that_store() {
        let r = fixture();
        let cache = ChunkCache::new(1 << 20, 4);
        for c in 0..6 {
            cache.get_or_decode(7, c, || r.decode_chunk(c)).unwrap();
            cache.get_or_decode(8, c, || r.decode_chunk(c)).unwrap();
        }
        cache.invalidate_store(7);
        let st = cache.stats();
        assert_eq!(st.entries, 6, "{st:?}");
        cache
            .get_or_decode(8, 0, || panic!("store 8 untouched"))
            .unwrap();
    }
}
