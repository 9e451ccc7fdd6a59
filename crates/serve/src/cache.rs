//! The daemon's caches: one sharded, byte-budgeted LRU type, [`Cache`],
//! instantiated twice.
//!
//! - **The chunk tier** (`Cache<usize, Arc<ColumnBatch>>`, 8 shards):
//!   decoded chunks keyed by chunk ordinal. Decoding a chunk (CRC verify
//!   plus four adaptive column decodes) is the dominant per-request cost
//!   once the footer has pruned the candidate set, so concurrent requests
//!   share one decode through the `Arc`. [`Cache::get_or_decode`] runs
//!   the decode outside the shard lock and never caches an error: a
//!   corrupt chunk fails on every fetch, so salvage accounting is the same
//!   whether or not its neighbors are cached.
//! - **The result tier** (`Cache<String, CachedResult>`, 1 shard): fully
//!   rendered `query`/`report` bodies keyed by the request's normalized
//!   params. A repeated question costs one hash probe and a vectored
//!   write of the shared body — no fold, no render, no copy.
//!
//! **One key.** Every entry is keyed by `(store id, K)`, where the id is
//! the one the catalog mints per (store, generation). A store replaced on
//! disk gets a fresh id, so a lookup can never reach a previous file's
//! entries, and the catalog's stale id is all [`Cache::invalidate_store`]
//! needs to drop them from both tiers. A request still holding the
//! superseded id neither hits nor disturbs the current id's entries.
//!
//! **One budget rule.** A budget of 0 disables the cache. Otherwise each
//! shard owns its share of the budget and evicts its own least recently
//! used entries when the share overflows, so eviction never takes a
//! cross-shard lock; the entry just inserted is never evicted, so one
//! entry may exceed the budget. Keys hash onto the shards (one shard is
//! picked without hashing), and the counters live in the shard, updated
//! under its lock.
//!
//! **Recency without a scan.** Each shard stamps every lookup and insert
//! with its own clock and keeps a recency index, from each resident
//! entry's last tick to its key, beside the map. A hit moves its key to
//! the new tick, and an eviction pops the oldest tick, so keeping and
//! evicting in exact LRU order costs a tree step per operation, not a
//! pass over the shard's entries under its lock.

use pinpoint_store::{ColumnBatch, StoreError};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// One cache's counters, cumulative since startup, plus its occupancy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries dropped because the catalog superseded their store id.
    pub invalidations: u64,
    /// Bytes currently resident.
    pub bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// One rendered `query`/`report` answer: the body, shared with every
/// response that serves it, and its salvage accounting.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The rendered JSON body.
    pub body: Arc<[u8]>,
    /// `X-Pinpoint-Chunks-Skipped` salvage accounting for the response.
    pub chunks_skipped: u64,
    /// `X-Pinpoint-Events-Lost` salvage accounting for the response.
    pub events_lost: u64,
}

/// The strong `ETag` for a response: generation fingerprint + FNV-1a of
/// the normalized params, both in fixed-width hex. Two requests get the
/// same tag iff they normalize to the same params against the same
/// on-disk bytes — the exact condition under which the daemon would
/// serve byte-identical bodies — and a tag survives a daemon restart.
pub fn etag(generation: u64, params: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in params.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("\"g{generation:016x}-{h:016x}\"")
}

/// Whether an `If-None-Match` header value matches `etag` (`*` or any
/// listed tag; we only ever emit strong tags, so comparison is literal).
pub fn if_none_match(header: &str, etag: &str) -> bool {
    header.split(',').any(|t| {
        let t = t.trim();
        t == "*" || t == etag
    })
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    bytes: u64,
    /// The tick of the entry's last use: its key in the recency index.
    last_used: u64,
}

#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<(u64, K), Entry<V>>,
    /// Every resident key under its entry's `last_used`, oldest first.
    recency: BTreeMap<u64, (u64, K)>,
    /// LRU clock, advanced by every lookup and insert.
    tick: u64,
    /// This shard's counters (`entries` is read off `map` instead).
    stats: CacheStats,
}

/// A sharded LRU cache under a byte budget, keyed by `(store id, K)`.
#[derive(Debug)]
pub struct Cache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Each shard's share of the budget; 0 disables the cache.
    shard_budget: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Cache<K, V> {
    /// A cache of `budget_bytes` in total over `shards` shards (at least
    /// one).
    pub fn new(budget_bytes: u64, shards: usize) -> Self {
        let shards = shards.max(1);
        Cache {
            shard_budget: budget_bytes.div_ceil(shards as u64),
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        recency: BTreeMap::new(),
                        tick: 0,
                        stats: CacheStats::default(),
                    })
                })
                .collect(),
        }
    }

    fn shard(&self, key: &(u64, K)) -> &Mutex<Shard<K, V>> {
        if self.shards.len() == 1 {
            return &self.shards[0];
        }
        // any deterministic spread works: the shard never affects an answer
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// The value cached under `key`, marked most recently used.
    pub fn get(&self, key: &(u64, K)) -> Option<V> {
        let mut guard = self.shard(key).lock().expect("cache shard poisoned");
        let s = &mut *guard;
        s.tick += 1;
        match s.map.get_mut(key) {
            Some(e) => {
                let k = s
                    .recency
                    .remove(&e.last_used)
                    .expect("a resident key is indexed");
                s.recency.insert(s.tick, k);
                e.last_used = s.tick;
                s.stats.hits += 1;
                Some(e.value.clone())
            }
            None => {
                s.stats.misses += 1;
                None
            }
        }
    }

    /// Caches `value`, costing `bytes` against the budget, then evicts
    /// least recently used entries of its shard until the shard is back
    /// under its share. A no-op when the cache is disabled.
    pub fn insert(&self, key: (u64, K), value: V, bytes: u64) {
        if self.shard_budget == 0 {
            return;
        }
        let mut guard = self.shard(&key).lock().expect("cache shard poisoned");
        let s = &mut *guard;
        s.tick += 1;
        let tick = s.tick;
        let entry = Entry {
            value,
            bytes,
            last_used: tick,
        };
        if let Some(old) = s.map.insert(key.clone(), entry) {
            s.stats.bytes -= old.bytes;
            s.recency.remove(&old.last_used);
        }
        s.recency.insert(tick, key);
        s.stats.bytes += bytes;
        // the entry just inserted holds the newest tick, so it is popped
        // last and never while another entry is resident
        while s.stats.bytes > self.shard_budget && s.recency.len() > 1 {
            let (_, oldest) = s.recency.pop_first().expect("more than one entry");
            let e = s.map.remove(&oldest).expect("an indexed key is resident");
            s.stats.bytes -= e.bytes;
            s.stats.evictions += 1;
        }
    }

    /// Drops every entry of store id `store` (the catalog superseded it:
    /// the file changed or vanished), counting each as an invalidation.
    pub fn invalidate_store(&self, store: u64) {
        for shard in &self.shards {
            let mut guard = shard.lock().expect("cache shard poisoned");
            let s = &mut *guard;
            let (stats, recency) = (&mut s.stats, &mut s.recency);
            s.map.retain(|(id, _), e| {
                if *id != store {
                    return true;
                }
                recency.remove(&e.last_used);
                stats.bytes -= e.bytes;
                stats.invalidations += 1;
                false
            });
        }
    }

    /// The counters summed over the shards (each locked in turn, so the
    /// totals may straddle in-flight lookups).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().expect("cache shard poisoned");
            total.hits += s.stats.hits;
            total.misses += s.stats.misses;
            total.evictions += s.stats.evictions;
            total.invalidations += s.stats.invalidations;
            total.bytes += s.stats.bytes;
            total.entries += s.map.len() as u64;
        }
        total
    }
}

impl Cache<usize, Arc<ColumnBatch>> {
    /// Returns chunk `chunk` of store id `store`, running `decode` and
    /// caching its result on a miss. Decode errors are returned and never
    /// cached.
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
        store: u64,
        chunk: usize,
        decode: F,
    ) -> Result<Arc<ColumnBatch>, StoreError>
    where
        F: FnOnce() -> Result<ColumnBatch, StoreError>,
    {
        let key = (store, chunk);
        if let Some(batch) = self.get(&key) {
            return Ok(batch);
        }
        let batch = Arc::new(decode()?);
        let bytes = batch.heap_bytes() as u64;
        self.insert(key, Arc::clone(&batch), bytes);
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_store::{write_store_chunked, StoreReader};
    use pinpoint_tensor::rng::Rng64;
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

    fn result(body: &str) -> CachedResult {
        CachedResult {
            body: Arc::from(body.as_bytes()),
            chunks_skipped: 0,
            events_lost: 0,
        }
    }

    fn key(store: u64, params: &str) -> (u64, String) {
        (store, params.to_string())
    }

    #[test]
    fn a_chunk_hit_shares_the_decoded_batch() {
        let r = fixture();
        let cache = Cache::new(1 << 20, 4);
        let a = cache.get_or_decode(1, 0, || r.decode_chunk(0)).unwrap();
        let b = cache
            .get_or_decode(1, 0, || panic!("must not re-decode"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
        assert_eq!(st.bytes, a.heap_bytes() as u64);
    }

    #[test]
    fn a_result_hit_shares_the_body() {
        let cache = Cache::new(1 << 20, 1);
        assert!(cache.get(&key(7, "q1")).is_none());
        let r = result("{\"x\":1}");
        cache.insert(key(7, "q1"), r.clone(), 100);
        let hit = cache.get(&key(7, "q1")).expect("hit");
        assert!(Arc::ptr_eq(&hit.body, &r.body), "body must be shared");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries, st.bytes), (1, 1, 1, 100));
    }

    #[test]
    fn decode_errors_are_not_cached() {
        let r = fixture();
        let cache = Cache::new(1 << 20, 2);
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
        // one shard so recency order is total; the budget fits two entries
        let cache = Cache::new(250, 1);
        cache.insert(key(1, "a"), result("a"), 100);
        cache.insert(key(1, "b"), result("b"), 100);
        assert!(cache.get(&key(1, "a")).is_some(), "a is now hot");
        cache.insert(key(1, "c"), result("c"), 100);
        let st = cache.stats();
        assert_eq!((st.evictions, st.entries, st.bytes), (1, 2, 200));
        assert!(
            cache.get(&key(1, "b")).is_none(),
            "b was least recently used"
        );
        assert!(cache.get(&key(1, "a")).is_some());
        assert!(cache.get(&key(1, "c")).is_some());
    }

    #[test]
    fn chunk_eviction_keeps_the_hot_chunk() {
        let r = fixture();
        let unit = r.decode_chunk(0).unwrap().heap_bytes() as u64;
        let budget = unit * 2 + unit / 2;
        let cache = Cache::new(budget, 1);
        cache.get_or_decode(1, 0, || r.decode_chunk(0)).unwrap();
        cache.get_or_decode(1, 1, || r.decode_chunk(1)).unwrap();
        cache.get_or_decode(1, 0, || panic!("0 still hot")).unwrap();
        cache.get_or_decode(1, 2, || r.decode_chunk(2)).unwrap();
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
    fn the_entry_just_inserted_survives_even_over_budget() {
        let cache = Cache::new(100, 1);
        cache.insert(key(1, "small"), result("s"), 60);
        cache.insert(key(1, "huge"), result("h"), 500);
        let st = cache.stats();
        assert_eq!((st.evictions, st.entries, st.bytes), (1, 1, 500));
        assert!(cache.get(&key(1, "huge")).is_some());
    }

    #[test]
    fn zero_budget_stores_nothing() {
        let results = Cache::new(0, 1);
        results.insert(key(1, "q"), result("x"), 10);
        assert!(results.get(&key(1, "q")).is_none());
        let st = results.stats();
        assert_eq!((st.entries, st.bytes, st.misses), (0, 0, 1));

        let r = fixture();
        let chunks = Cache::new(0, 8);
        chunks.get_or_decode(1, 0, || r.decode_chunk(0)).unwrap();
        chunks.get_or_decode(1, 0, || r.decode_chunk(0)).unwrap();
        let st = chunks.stats();
        assert_eq!((st.entries, st.bytes, st.hits, st.misses), (0, 0, 0, 2));
    }

    #[test]
    fn invalidate_store_drops_only_that_id_and_frees_its_bytes() {
        let r = fixture();
        let chunks = Cache::new(1 << 20, 4);
        for c in 0..6 {
            chunks.get_or_decode(7, c, || r.decode_chunk(c)).unwrap();
            chunks.get_or_decode(8, c, || r.decode_chunk(c)).unwrap();
        }
        let before = chunks.stats();
        chunks.invalidate_store(7);
        let st = chunks.stats();
        assert_eq!((st.entries, st.invalidations), (6, 6), "{st:?}");
        assert_eq!(st.bytes, before.bytes / 2, "{st:?}");
        chunks
            .get_or_decode(8, 0, || panic!("store 8 untouched"))
            .unwrap();

        let results = Cache::new(1 << 20, 1);
        results.insert(key(1, "q"), result("x"), 10);
        results.insert(key(2, "q"), result("y"), 20);
        results.invalidate_store(1);
        assert!(results.get(&key(1, "q")).is_none());
        assert!(results.get(&key(2, "q")).is_some());
        let st = results.stats();
        assert_eq!((st.invalidations, st.entries, st.bytes), (1, 1, 20));
    }

    #[test]
    fn a_superseded_id_neither_hits_nor_evicts_the_current_entry() {
        // store generation 1 had id 1; the catalog reopened it as id 2
        let results = Cache::new(1 << 20, 1);
        results.insert(key(2, "q"), result("new"), 10);
        // a request still holding the old entry looks up under id 1
        assert!(results.get(&key(1, "q")).is_none());
        let st = results.stats();
        assert_eq!((st.entries, st.invalidations), (1, 0), "{st:?}");
        assert!(results.get(&key(2, "q")).is_some(), "no thrash");
    }

    /// The cache's contract written the obvious way: one map, whose LRU
    /// victim is found by scanning every entry for the oldest
    /// `last_used`, with the same clock, budget rule and counters.
    #[derive(Default)]
    struct ScanModel {
        /// `(value, bytes, last_used)` per key.
        map: HashMap<(u64, u32), (u32, u64, u64)>,
        tick: u64,
        budget: u64,
        stats: CacheStats,
    }

    impl ScanModel {
        fn get(&mut self, key: &(u64, u32)) -> Option<u32> {
            self.tick += 1;
            let Some(e) = self.map.get_mut(key) else {
                self.stats.misses += 1;
                return None;
            };
            e.2 = self.tick;
            self.stats.hits += 1;
            Some(e.0)
        }

        fn insert(&mut self, key: (u64, u32), value: u32, bytes: u64) {
            if self.budget == 0 {
                return;
            }
            self.tick += 1;
            let tick = self.tick;
            if let Some(old) = self.map.insert(key, (value, bytes, tick)) {
                self.stats.bytes -= old.1;
            }
            self.stats.bytes += bytes;
            while self.stats.bytes > self.budget {
                let oldest = self
                    .map
                    .iter()
                    .filter(|(_, e)| e.2 != tick)
                    .min_by_key(|(_, e)| e.2)
                    .map(|(k, _)| *k);
                let Some(oldest) = oldest else { break };
                self.stats.bytes -= self.map.remove(&oldest).unwrap().1;
                self.stats.evictions += 1;
            }
        }

        fn invalidate_store(&mut self, store: u64) {
            let stats = &mut self.stats;
            self.map.retain(|(id, _), e| {
                if *id != store {
                    return true;
                }
                stats.bytes -= e.1;
                stats.invalidations += 1;
                false
            });
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                entries: self.map.len() as u64,
                ..self.stats.clone()
            }
        }
    }

    /// The keys resident in a one-shard cache, sorted.
    fn resident(cache: &Cache<u32, u32>) -> Vec<(u64, u32)> {
        let s = cache.shards[0].lock().unwrap();
        let mut keys: Vec<_> = s.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn one_shard_matches_the_scanning_model_step_by_step() {
        let mut rng = Rng64::seed_from_u64(0x1a0_cac4e);
        // budgets from "disabled" and "below any entry" up to ~20 entries
        for budget in [0, 1, 250, 1_000, 4_000] {
            let cache = Cache::new(budget, 1);
            let mut model = ScanModel {
                budget,
                ..ScanModel::default()
            };
            for step in 0..4_000 {
                // few stores and keys, so hits, re-inserts and
                // invalidations of resident entries all happen often
                let key = (rng.gen_below(3), rng.gen_below(40) as u32);
                let what = match rng.gen_below(20) {
                    0 => {
                        model.invalidate_store(key.0);
                        cache.invalidate_store(key.0);
                        format!("invalidate_store({})", key.0)
                    }
                    1..=9 => {
                        let got = cache.get(&key);
                        assert_eq!(got, model.get(&key), "step {step}: get({key:?})");
                        format!("get({key:?}) = {got:?}")
                    }
                    _ => {
                        let value = rng.next_u64() as u32;
                        // now and then an entry over the whole budget
                        let bytes = if rng.gen_below(50) == 0 {
                            budget + 1 + rng.gen_below(100)
                        } else {
                            1 + rng.gen_below(200)
                        };
                        model.insert(key, value, bytes);
                        cache.insert(key, value, bytes);
                        format!("insert({key:?}, {bytes} B)")
                    }
                };
                let mut want: Vec<_> = model.map.keys().copied().collect();
                want.sort_unstable();
                let tag = format!("budget {budget}, step {step}: {what}");
                assert_eq!(resident(&cache), want, "{tag}");
                assert_eq!(cache.stats(), model.stats(), "{tag}");
                let s = cache.shards[0].lock().unwrap();
                assert_eq!(s.recency.len(), s.map.len(), "{tag}: index size");
            }
            let st = cache.stats();
            if budget > 0 {
                assert!(
                    st.hits > 0 && st.evictions > 0 && st.invalidations > 0,
                    "{st:?}"
                );
            }
        }
    }

    #[test]
    fn etag_is_strong_and_distinct_per_generation_and_params() {
        let a = etag(1, "q1");
        assert!(a.starts_with('"') && a.ends_with('"'), "{a}");
        assert_ne!(a, etag(2, "q1"));
        assert_ne!(a, etag(1, "q2"));
        assert_eq!(a, etag(1, "q1"));
        assert!(if_none_match(&a.clone(), &a));
        assert!(if_none_match("*", &a));
        assert!(if_none_match(&format!("\"zz\", {a}"), &a));
        assert!(!if_none_match("\"zz\"", &a));
    }
}
