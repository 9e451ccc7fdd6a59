//! A PyTorch-style caching device allocator.
//!
//! This is a faithful-in-spirit model of the c10 CUDA caching allocator the
//! paper instrumented:
//!
//! * requests round up to 512 B ([`super::MIN_BLOCK_BYTES`]);
//! * requests ≤ 1 MB are served from a *small pool* carved out of 2 MB
//!   segments; larger requests from a *large pool* of ≥ 20 MB segments;
//! * freed chunks are cached in per-pool free lists (never returned to the
//!   device) and reused best-fit, splitting when the remainder is useful;
//! * adjacent free chunks within a segment coalesce.
//!
//! The cache is what produces the paper's hallmark observation: after the
//! first iteration warms the cache, every later iteration's mallocs are
//! cache hits at the *same offsets*, yielding the periodic Gantt chart of
//! Fig. 2 and the low fragmentation the paper notes.

use super::{round_up, AllocError, AllocStats, Block, DeviceAllocator, MIN_BLOCK_BYTES};
use pinpoint_trace::BlockId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Requests at or below this size go to the small pool (PyTorch `kSmallSize`).
const SMALL_REQUEST_LIMIT: usize = 1 << 20;
/// Segment size for the small pool (PyTorch `kSmallBuffer`).
const SMALL_SEGMENT_BYTES: usize = 2 << 20;
/// Minimum segment size for the large pool (PyTorch `kLargeBuffer`).
const LARGE_SEGMENT_MIN_BYTES: usize = 20 << 20;
/// Large-pool chunks only split when the remainder is at least this big.
const LARGE_SPLIT_REMAINDER: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Small,
    Large,
}

#[derive(Debug, Clone, Copy)]
struct Chunk {
    size: usize,
    segment: u32,
    pool: Pool,
    free: bool,
}

/// Cache statistics of one size-class pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Bytes of segments assigned to the pool.
    pub reserved_bytes: usize,
    /// Bytes sitting free in the pool's cache.
    pub cached_free_bytes: usize,
    /// Number of free chunks.
    pub free_chunks: usize,
    /// Largest single free chunk.
    pub largest_free_bytes: usize,
}

/// The caching allocator. See the module docs for the policy.
///
/// # Examples
///
/// ```
/// use pinpoint_device::alloc::{CachingAllocator, DeviceAllocator};
///
/// let mut a = CachingAllocator::new(1 << 30);
/// let b1 = a.malloc(300_000)?;
/// a.free(b1.id)?;
/// let b2 = a.malloc(300_000)?;
/// // the cache serves the same region again
/// assert_eq!(b1.offset, b2.offset);
/// # Ok::<(), pinpoint_device::alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct CachingAllocator {
    capacity: usize,
    next_offset: usize,
    next_id: u64,
    next_segment: u32,
    /// Every chunk (free or allocated), keyed by offset. Chunks partition
    /// the reserved segments exactly.
    chunks: BTreeMap<usize, Chunk>,
    free_small: BTreeSet<(usize, usize)>,
    free_large: BTreeSet<(usize, usize)>,
    live: HashMap<BlockId, usize>,
    requested: HashMap<BlockId, usize>,
    /// Segment extents: id → (offset, size); needed by `empty_cache` to
    /// recognize whole-segment free chunks.
    segments: HashMap<u32, (usize, usize)>,
    /// Address ranges of released segments (offset → size), coalesced and
    /// reusable by later reservations; ranges touching the bump pointer
    /// rewind it instead.
    free_va: BTreeMap<usize, usize>,
    stats: AllocStats,
}

impl CachingAllocator {
    /// Creates an allocator managing `capacity` bytes of device memory.
    pub fn new(capacity: usize) -> Self {
        CachingAllocator {
            capacity,
            next_offset: 0,
            next_id: 0,
            next_segment: 0,
            chunks: BTreeMap::new(),
            free_small: BTreeSet::new(),
            free_large: BTreeSet::new(),
            live: HashMap::new(),
            requested: HashMap::new(),
            segments: HashMap::new(),
            free_va: BTreeMap::new(),
            stats: AllocStats::default(),
        }
    }

    fn free_set(&mut self, pool: Pool) -> &mut BTreeSet<(usize, usize)> {
        match pool {
            Pool::Small => &mut self.free_small,
            Pool::Large => &mut self.free_large,
        }
    }

    /// Best-fit lookup: smallest free chunk of the pool with size ≥ rounded.
    fn find_free(&self, pool: Pool, rounded: usize) -> Option<(usize, usize)> {
        let set = match pool {
            Pool::Small => &self.free_small,
            Pool::Large => &self.free_large,
        };
        set.range((rounded, 0)..).next().copied()
    }

    /// Reserves a fresh segment from the device for `pool`, inserting it as
    /// one big free chunk.
    fn reserve_segment(&mut self, pool: Pool, rounded: usize) -> Result<(), AllocError> {
        let preferred = match pool {
            Pool::Small => SMALL_SEGMENT_BYTES,
            Pool::Large => LARGE_SEGMENT_MIN_BYTES.max(rounded),
        };
        // physical budget = capacity minus what is currently reserved
        let physical_remaining = self.capacity - self.stats.reserved_bytes.min(self.capacity);
        let fits = |seg: usize, this: &Self| {
            seg <= physical_remaining
                && (this.next_offset + seg <= this.capacity
                    || this.free_va.values().any(|&sz| sz >= seg))
        };
        let seg_size = if fits(preferred, self) {
            preferred
        } else if pool == Pool::Large && fits(rounded, self) {
            // fall back to an exactly-sized segment, as PyTorch does under
            // memory pressure
            rounded
        } else {
            return Err(AllocError::OutOfMemory {
                requested: rounded,
                capacity: self.capacity,
                reserved: self.stats.reserved_bytes,
            });
        };
        // prefer reusing a released address range over growing the space
        let reuse = self
            .free_va
            .iter()
            .filter(|&(_, &sz)| sz >= seg_size)
            .min_by_key(|&(_, &sz)| sz)
            .map(|(&off, &sz)| (off, sz));
        let offset = if let Some((va_off, va_size)) = reuse {
            self.free_va.remove(&va_off);
            if va_size > seg_size {
                self.free_va.insert(va_off + seg_size, va_size - seg_size);
            }
            va_off
        } else {
            let off = self.next_offset;
            self.next_offset += seg_size;
            off
        };
        let segment = self.next_segment;
        self.next_segment += 1;
        self.segments.insert(segment, (offset, seg_size));
        self.chunks.insert(
            offset,
            Chunk {
                size: seg_size,
                segment,
                pool,
                free: true,
            },
        );
        self.free_set(pool).insert((seg_size, offset));
        self.stats.on_reserve(seg_size);
        Ok(())
    }

    /// Releases every cached (fully free) segment back to the device,
    /// returning the bytes released — the analogue of
    /// `torch.cuda.empty_cache()`. Also invoked automatically when a
    /// reservation fails, before reporting OOM (PyTorch's retry).
    pub fn empty_cache(&mut self) -> usize {
        let whole_segments: Vec<(usize, Chunk)> = self
            .chunks
            .iter()
            .filter(|(&off, c)| c.free && self.segments.get(&c.segment) == Some(&(off, c.size)))
            .map(|(&off, c)| (off, *c))
            .collect();
        let mut released = 0usize;
        for (off, c) in whole_segments {
            self.chunks.remove(&off);
            self.free_set(c.pool).remove(&(c.size, off));
            self.segments.remove(&c.segment);
            self.release_va(off, c.size);
            self.stats.reserved_bytes -= c.size;
            released += c.size;
        }
        released
    }

    /// Returns an address range to the free-VA map, coalescing with
    /// neighbors and rewinding the bump pointer for tail ranges.
    fn release_va(&mut self, mut offset: usize, mut size: usize) {
        // merge with the previous free range
        if let Some((&prev_off, &prev_size)) = self.free_va.range(..offset).next_back() {
            if prev_off + prev_size == offset {
                self.free_va.remove(&prev_off);
                offset = prev_off;
                size += prev_size;
            }
        }
        // merge with the next free range
        if let Some(&next_size) = self.free_va.get(&(offset + size)) {
            self.free_va.remove(&(offset + size));
            size += next_size;
        }
        if offset + size == self.next_offset {
            // tail range: rewind the bump pointer instead of banking it
            self.next_offset = offset;
        } else {
            self.free_va.insert(offset, size);
        }
    }

    /// Per-pool cache statistics: `(reserved, cached_free, largest_free)`
    /// bytes for the small and large pools respectively.
    pub fn pool_stats(&self) -> (PoolStats, PoolStats) {
        let mut small = PoolStats::default();
        let mut large = PoolStats::default();
        for c in self.chunks.values() {
            let s = match c.pool {
                Pool::Small => &mut small,
                Pool::Large => &mut large,
            };
            s.reserved_bytes += c.size;
            if c.free {
                s.cached_free_bytes += c.size;
                s.free_chunks += 1;
                s.largest_free_bytes = s.largest_free_bytes.max(c.size);
            }
        }
        (small, large)
    }

    fn split_threshold(pool: Pool) -> usize {
        match pool {
            Pool::Small => MIN_BLOCK_BYTES,
            Pool::Large => LARGE_SPLIT_REMAINDER,
        }
    }

    /// Verifies internal invariants; used by property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    #[doc(hidden)]
    pub fn debug_check_invariants(&self) -> Result<(), String> {
        // chunks partition [segment starts, reserved) with no overlap
        let mut covered = 0usize;
        let mut prev_end: Option<usize> = None;
        for (&off, c) in &self.chunks {
            if let Some(end) = prev_end {
                if off < end {
                    return Err(format!("chunk at {off} overlaps previous ending at {end}"));
                }
            }
            prev_end = Some(off + c.size);
            covered += c.size;
        }
        if covered != self.stats.reserved_bytes {
            return Err(format!(
                "chunks cover {covered} B but reserved is {} B",
                self.stats.reserved_bytes
            ));
        }
        let seg_total: usize = self.segments.values().map(|&(_, s)| s).sum();
        if seg_total != self.stats.reserved_bytes {
            return Err(format!(
                "segment map covers {seg_total} B but reserved is {} B",
                self.stats.reserved_bytes
            ));
        }
        // free sets mirror free chunks exactly
        let mut free_count = 0usize;
        for (&off, c) in &self.chunks {
            let set = match c.pool {
                Pool::Small => &self.free_small,
                Pool::Large => &self.free_large,
            };
            if c.free {
                free_count += 1;
                if !set.contains(&(c.size, off)) {
                    return Err(format!("free chunk at {off} missing from free set"));
                }
            } else if set.contains(&(c.size, off)) {
                return Err(format!("allocated chunk at {off} present in free set"));
            }
        }
        if free_count != self.free_small.len() + self.free_large.len() {
            return Err("free sets hold stale entries".to_string());
        }
        // no two adjacent free chunks in the same segment (coalescing holds)
        let entries: Vec<(usize, Chunk)> = self.chunks.iter().map(|(o, c)| (*o, *c)).collect();
        for w in entries.windows(2) {
            let (ao, a) = w[0];
            let (bo, b) = w[1];
            if a.free && b.free && a.segment == b.segment && ao + a.size == bo {
                return Err(format!("uncoalesced free chunks at {ao} and {bo}"));
            }
        }
        // live blocks point at allocated chunks
        for (id, &off) in &self.live {
            match self.chunks.get(&off) {
                Some(c) if !c.free => {}
                _ => {
                    return Err(format!(
                        "live block {id} points at non-allocated chunk {off}"
                    ))
                }
            }
        }
        Ok(())
    }
}

impl DeviceAllocator for CachingAllocator {
    fn name(&self) -> &'static str {
        "caching"
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn malloc(&mut self, size: usize) -> Result<Block, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let rounded = round_up(size);
        let pool = if rounded <= SMALL_REQUEST_LIMIT {
            Pool::Small
        } else {
            Pool::Large
        };
        let mut cache_hit = true;
        if self.find_free(pool, rounded).is_none() {
            if let Err(e) = self.reserve_segment(pool, rounded) {
                // PyTorch's OOM path: release all cached segments and retry
                if self.empty_cache() == 0 {
                    return Err(e);
                }
                self.reserve_segment(pool, rounded)?;
            }
            cache_hit = false;
        }
        let (chunk_size, offset) = self
            .find_free(pool, rounded)
            .expect("a free chunk must exist after reservation");
        self.free_set(pool).remove(&(chunk_size, offset));
        let chunk = self.chunks.get_mut(&offset).expect("chunk exists");
        chunk.free = false;
        let segment = chunk.segment;
        let alloc_size = if chunk_size - rounded >= Self::split_threshold(pool) {
            chunk.size = rounded;
            let rem_off = offset + rounded;
            let rem_size = chunk_size - rounded;
            self.chunks.insert(
                rem_off,
                Chunk {
                    size: rem_size,
                    segment,
                    pool,
                    free: true,
                },
            );
            self.free_set(pool).insert((rem_size, rem_off));
            rounded
        } else {
            chunk_size
        };
        let id = BlockId(self.next_id);
        self.next_id += 1;
        self.live.insert(id, offset);
        self.requested.insert(id, size);
        self.stats.on_malloc(alloc_size, cache_hit);
        Ok(Block {
            id,
            offset,
            size: alloc_size,
            requested: size,
        })
    }

    fn free(&mut self, id: BlockId) -> Result<Block, AllocError> {
        let offset = self.live.remove(&id).ok_or(AllocError::UnknownBlock(id))?;
        let requested = self.requested.remove(&id).unwrap_or(0);
        let chunk = *self.chunks.get(&offset).expect("live chunk exists");
        self.stats.on_free(chunk.size);
        // coalesce with the previous chunk if free and contiguous in the
        // same segment
        let mut new_off = offset;
        let mut new_size = chunk.size;
        if let Some((&prev_off, &prev)) = self.chunks.range(..offset).next_back() {
            if prev.free && prev.segment == chunk.segment && prev_off + prev.size == offset {
                self.free_set(prev.pool).remove(&(prev.size, prev_off));
                self.chunks.remove(&offset);
                new_off = prev_off;
                new_size += prev.size;
            }
        }
        // coalesce with the next chunk
        let next_entry = self
            .chunks
            .range(new_off + 1..)
            .next()
            .map(|(o, c)| (*o, *c));
        if let Some((next_off, next)) = next_entry {
            if next.free && next.segment == chunk.segment && new_off + new_size == next_off {
                self.free_set(next.pool).remove(&(next.size, next_off));
                self.chunks.remove(&next_off);
                new_size += next.size;
            }
        }
        let merged = self.chunks.get_mut(&new_off).expect("merged chunk exists");
        merged.free = true;
        merged.size = new_size;
        let pool = merged.pool;
        self.free_set(pool).insert((new_size, new_off));
        Ok(Block {
            id,
            offset,
            size: chunk.size,
            requested,
        })
    }

    fn stats(&self) -> &AllocStats {
        &self.stats
    }

    fn live_blocks(&self) -> Vec<Block> {
        let mut out: Vec<Block> = self
            .live
            .iter()
            .map(|(&id, &offset)| Block {
                id,
                offset,
                size: self.chunks[&offset].size,
                requested: self.requested.get(&id).copied().unwrap_or(0),
            })
            .collect();
        out.sort_by_key(|b| b.offset);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: usize = 1 << 30;

    #[test]
    fn first_malloc_reserves_a_segment() {
        let mut a = CachingAllocator::new(GB);
        let b = a.malloc(1000).unwrap();
        assert_eq!(b.size, 1024);
        assert_eq!(a.stats().reserved_bytes, SMALL_SEGMENT_BYTES);
        assert_eq!(a.stats().cache_hit_mallocs, 0);
        a.debug_check_invariants().unwrap();
    }

    #[test]
    fn freed_block_is_reused_at_same_offset() {
        let mut a = CachingAllocator::new(GB);
        let b1 = a.malloc(300_000).unwrap();
        a.free(b1.id).unwrap();
        let b2 = a.malloc(300_000).unwrap();
        assert_eq!(b1.offset, b2.offset);
        assert_ne!(b1.id, b2.id, "a new block identity is minted");
        assert_eq!(a.stats().cache_hit_mallocs, 1);
        assert_eq!(a.stats().reserved_bytes, SMALL_SEGMENT_BYTES);
        a.debug_check_invariants().unwrap();
    }

    #[test]
    fn small_and_large_pools_are_disjoint() {
        let mut a = CachingAllocator::new(GB);
        let small = a.malloc(1000).unwrap();
        let large = a.malloc(4 << 20).unwrap();
        // large request opens a separate ≥20 MB segment
        assert!(large.offset >= SMALL_SEGMENT_BYTES);
        assert_eq!(
            a.stats().reserved_bytes,
            SMALL_SEGMENT_BYTES + LARGE_SEGMENT_MIN_BYTES
        );
        a.free(small.id).unwrap();
        a.free(large.id).unwrap();
        a.debug_check_invariants().unwrap();
    }

    #[test]
    fn splitting_keeps_remainder_usable() {
        let mut a = CachingAllocator::new(GB);
        let b1 = a.malloc(1000).unwrap();
        let b2 = a.malloc(1000).unwrap();
        // both served from the same 2 MB segment, back to back
        assert_eq!(b2.offset, b1.offset + b1.size);
        assert_eq!(a.stats().reserved_bytes, SMALL_SEGMENT_BYTES);
        a.debug_check_invariants().unwrap();
    }

    #[test]
    fn coalescing_merges_neighbors() {
        let mut a = CachingAllocator::new(GB);
        let b1 = a.malloc(1000).unwrap();
        let b2 = a.malloc(1000).unwrap();
        let b3 = a.malloc(1000).unwrap();
        a.free(b1.id).unwrap();
        a.free(b3.id).unwrap();
        a.free(b2.id).unwrap(); // merges with both neighbors + tail
        a.debug_check_invariants().unwrap();
        // after full free the segment is one chunk again
        let free_chunks = a.free_small.len();
        assert_eq!(free_chunks, 1);
        assert_eq!(a.free_small.iter().next().unwrap().0, SMALL_SEGMENT_BYTES);
    }

    #[test]
    fn large_chunks_do_not_split_for_small_remainders() {
        let mut a = CachingAllocator::new(GB);
        let b1 = a.malloc(19 << 20).unwrap(); // 19 MB from a 20 MB segment
                                              // remainder would be 1 MB == threshold → split happens at exactly 1MB
        assert_eq!(b1.size, 19 << 20);
        a.free(b1.id).unwrap();
        // now request 19.8 MB: remainder 0.2 MB < 1 MB → no split
        let b2 = a.malloc((198 << 20) / 10).unwrap();
        assert_eq!(b2.size, 20 << 20, "whole chunk handed out");
        a.debug_check_invariants().unwrap();
    }

    #[test]
    fn oom_when_capacity_exhausted() {
        let mut a = CachingAllocator::new(30 << 20);
        let _b = a.malloc(25 << 20).unwrap(); // exact-size fallback segment
        let err = a.malloc(10 << 20).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
    }

    #[test]
    fn exact_size_fallback_segment_under_pressure() {
        let mut a = CachingAllocator::new(30 << 20);
        // 25 MB > 20 MB min, fits only as exact-size segment
        let b = a.malloc(25 << 20).unwrap();
        assert_eq!(b.size, 25 << 20);
        assert_eq!(a.stats().reserved_bytes, 25 << 20);
    }

    #[test]
    fn zero_size_and_double_free_rejected() {
        let mut a = CachingAllocator::new(GB);
        assert_eq!(a.malloc(0).unwrap_err(), AllocError::ZeroSize);
        let b = a.malloc(100).unwrap();
        a.free(b.id).unwrap();
        assert_eq!(a.free(b.id).unwrap_err(), AllocError::UnknownBlock(b.id));
    }

    #[test]
    fn steady_state_reuses_cache_with_no_new_reservations() {
        // the Fig. 2 phenomenon: after warm-up, reserved stays flat and all
        // mallocs hit cache
        let mut a = CachingAllocator::new(GB);
        let sizes = [4096usize, 200_000, 1 << 22, 32_768];
        // warm-up iteration
        let ids: Vec<_> = sizes.iter().map(|&s| a.malloc(s).unwrap().id).collect();
        for id in ids {
            a.free(id).unwrap();
        }
        let reserved_after_warmup = a.stats().reserved_bytes;
        let hits_before = a.stats().cache_hit_mallocs;
        let mut offsets_per_iter = Vec::new();
        for _ in 0..5 {
            let blocks: Vec<_> = sizes.iter().map(|&s| a.malloc(s).unwrap()).collect();
            offsets_per_iter.push(blocks.iter().map(|b| b.offset).collect::<Vec<_>>());
            for b in blocks {
                a.free(b.id).unwrap();
            }
        }
        assert_eq!(a.stats().reserved_bytes, reserved_after_warmup);
        assert_eq!(
            a.stats().cache_hit_mallocs - hits_before,
            5 * sizes.len() as u64
        );
        // identical offsets every iteration: the periodic Gantt pattern
        for w in offsets_per_iter.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        a.debug_check_invariants().unwrap();
    }

    #[test]
    fn live_blocks_snapshot_is_sorted_and_complete() {
        let mut a = CachingAllocator::new(GB);
        let b1 = a.malloc(1000).unwrap();
        let b2 = a.malloc(2 << 20).unwrap();
        let live = a.live_blocks();
        assert_eq!(live.len(), 2);
        assert!(live[0].offset < live[1].offset);
        assert!(live.iter().any(|b| b.id == b1.id));
        assert!(live.iter().any(|b| b.id == b2.id));
    }
}

#[cfg(test)]
mod cache_release_tests {
    use super::*;

    const GB: usize = 1 << 30;

    #[test]
    fn empty_cache_releases_fully_free_segments() {
        let mut a = CachingAllocator::new(GB);
        let b1 = a.malloc(1000).unwrap();
        let b2 = a.malloc(4 << 20).unwrap();
        a.free(b1.id).unwrap();
        a.free(b2.id).unwrap();
        let reserved = a.stats().reserved_bytes;
        assert!(reserved > 0);
        let released = a.empty_cache();
        assert_eq!(released, reserved, "everything was cached");
        assert_eq!(a.stats().reserved_bytes, 0);
        a.debug_check_invariants().unwrap();
        // the allocator is still fully usable
        let b3 = a.malloc(1000).unwrap();
        assert_eq!(b3.size, 1024);
        a.debug_check_invariants().unwrap();
    }

    #[test]
    fn empty_cache_keeps_segments_with_live_blocks() {
        let mut a = CachingAllocator::new(GB);
        let _live = a.malloc(1000).unwrap();
        let dead = a.malloc(40 << 20).unwrap();
        a.free(dead.id).unwrap();
        let released = a.empty_cache();
        assert_eq!(released, 40 << 20, "only the large segment was idle");
        assert_eq!(a.stats().reserved_bytes, SMALL_SEGMENT_BYTES);
        a.debug_check_invariants().unwrap();
    }

    #[test]
    fn oom_retries_after_releasing_the_cache() {
        // 30 MB device: a cached 20 MB large segment blocks a 25 MB
        // request until the automatic empty_cache retry releases it
        let mut a = CachingAllocator::new(30 << 20);
        let b1 = a.malloc(5 << 20).unwrap(); // 20 MB segment reserved
        a.free(b1.id).unwrap();
        assert_eq!(a.stats().reserved_bytes, 20 << 20);
        let b2 = a.malloc(25 << 20).expect("retry must release the cache");
        assert_eq!(b2.size, 25 << 20);
        assert_eq!(a.stats().cache_hit_mallocs, 0);
        a.debug_check_invariants().unwrap();
    }

    #[test]
    fn released_address_ranges_are_reused() {
        let mut a = CachingAllocator::new(GB);
        let b1 = a.malloc(30 << 20).unwrap();
        let off1 = b1.offset;
        a.free(b1.id).unwrap();
        a.empty_cache();
        let b2 = a.malloc(10 << 20).unwrap();
        assert_eq!(b2.offset, off1, "released VA must be recycled");
        a.debug_check_invariants().unwrap();
    }

    #[test]
    fn pool_stats_split_by_size_class() {
        let mut a = CachingAllocator::new(GB);
        let s = a.malloc(1000).unwrap();
        let l = a.malloc(4 << 20).unwrap();
        a.free(l.id).unwrap();
        let (small, large) = a.pool_stats();
        assert_eq!(small.reserved_bytes, SMALL_SEGMENT_BYTES);
        assert!(small.cached_free_bytes < SMALL_SEGMENT_BYTES); // s is live
        assert_eq!(large.reserved_bytes, LARGE_SEGMENT_MIN_BYTES);
        assert_eq!(large.cached_free_bytes, LARGE_SEGMENT_MIN_BYTES);
        assert_eq!(large.free_chunks, 1);
        assert_eq!(large.largest_free_bytes, LARGE_SEGMENT_MIN_BYTES);
        let _ = s;
    }

    #[test]
    fn empty_cache_on_empty_allocator_is_noop() {
        let mut a = CachingAllocator::new(GB);
        assert_eq!(a.empty_cache(), 0);
        a.debug_check_invariants().unwrap();
    }
}
