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
//! As in c10, where each `Block` points at its `prev`/`next` neighbours,
//! every chunk lives in a slab and links to the chunks on either side of
//! it in the same segment. A free therefore finds the neighbours it may
//! coalesce with in O(1), and only the per-pool best-fit sets (ordered by
//! `(size, offset)`) are searched.
//!
//! The cache is what produces the paper's hallmark observation: after the
//! first iteration warms the cache, every later iteration's mallocs are
//! cache hits at the *same offsets*, yielding the periodic Gantt chart of
//! Fig. 2 and the low fragmentation the paper notes.

use super::{round_up, AllocError, AllocStats, Block, DeviceAllocator, MIN_BLOCK_BYTES};
use pinpoint_trace::{BlockId, BlockMap};
use std::collections::{BTreeMap, BTreeSet};

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

/// Slab index of a chunk.
type Slot = usize;
/// The missing neighbour at either end of a segment.
const NIL: Slot = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Chunk {
    offset: usize,
    size: usize,
    pool: Pool,
    free: bool,
    /// The chunks just below and just above this one in its segment
    /// (`NIL` at the segment's ends).
    prev: Slot,
    next: Slot,
}

/// A reserved segment: its size and the slot of its first chunk. The
/// first chunk keeps its slot for the segment's whole life, because a
/// merge always keeps the lower of the two chunks.
#[derive(Debug, Clone, Copy)]
struct Segment {
    size: usize,
    head: Slot,
}

/// A best-fit set entry: ordered by `(size, offset)`, which is unique per
/// chunk, so the slot riding along never decides a comparison.
type FreeKey = (usize, usize, Slot);

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
    /// Every chunk (free or allocated). Within a segment the chunks form
    /// a linked list in address order that partitions the segment
    /// exactly; slots of chunks merged away or released with their
    /// segment are recycled via `vacant`.
    chunks: Vec<Chunk>,
    vacant: Vec<Slot>,
    free_small: BTreeSet<FreeKey>,
    free_large: BTreeSet<FreeKey>,
    /// Live blocks: their chunk's slot and the size the caller asked for.
    live: BlockMap<(Slot, usize)>,
    /// Reserved segments by offset.
    segments: BTreeMap<usize, Segment>,
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
            chunks: Vec::new(),
            vacant: Vec::new(),
            free_small: BTreeSet::new(),
            free_large: BTreeSet::new(),
            live: BlockMap::default(),
            segments: BTreeMap::new(),
            free_va: BTreeMap::new(),
            stats: AllocStats::default(),
        }
    }

    fn free_set(&mut self, pool: Pool) -> &mut BTreeSet<FreeKey> {
        match pool {
            Pool::Small => &mut self.free_small,
            Pool::Large => &mut self.free_large,
        }
    }

    /// Best-fit lookup: smallest free chunk of the pool with size ≥ rounded.
    fn find_free(&self, pool: Pool, rounded: usize) -> Option<FreeKey> {
        let set = match pool {
            Pool::Small => &self.free_small,
            Pool::Large => &self.free_large,
        };
        set.range((rounded, 0, 0)..).next().copied()
    }

    /// Stores `chunk` in a vacant slot, or a new one.
    fn new_chunk(&mut self, chunk: Chunk) -> Slot {
        match self.vacant.pop() {
            Some(slot) => {
                self.chunks[slot] = chunk;
                slot
            }
            None => {
                self.chunks.push(chunk);
                self.chunks.len() - 1
            }
        }
    }

    /// Unlinks chunk `slot`, which has a lower neighbour, from its
    /// segment's list and vacates its slot.
    fn unlink(&mut self, slot: Slot) {
        let Chunk { prev, next, .. } = self.chunks[slot];
        self.chunks[prev].next = next;
        if next != NIL {
            self.chunks[next].prev = prev;
        }
        self.vacant.push(slot);
    }

    /// The chunks of the segment starting at `head`, in address order.
    fn segment_chunks(&self, head: Slot) -> impl Iterator<Item = (Slot, &Chunk)> + '_ {
        std::iter::successors(Some(head), move |&s| {
            let next = self.chunks[s].next;
            (next != NIL).then_some(next)
        })
        .map(move |s| (s, &self.chunks[s]))
    }

    /// Reserves a fresh segment from the device for `pool`, inserting it as
    /// one big free chunk, and returns that chunk's best-fit key.
    fn reserve_segment(&mut self, pool: Pool, rounded: usize) -> Result<FreeKey, AllocError> {
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
        let head = self.new_chunk(Chunk {
            offset,
            size: seg_size,
            pool,
            free: true,
            prev: NIL,
            next: NIL,
        });
        self.segments.insert(
            offset,
            Segment {
                size: seg_size,
                head,
            },
        );
        let key = (seg_size, offset, head);
        self.free_set(pool).insert(key);
        self.stats.on_reserve(seg_size);
        Ok(key)
    }

    /// Releases every cached (fully free) segment back to the device,
    /// returning the bytes released — the analogue of
    /// `torch.cuda.empty_cache()`. Also invoked automatically when a
    /// reservation fails, before reporting OOM (PyTorch's retry).
    pub fn empty_cache(&mut self) -> usize {
        // a segment is idle when its first chunk is free and spans it
        let idle: Vec<(usize, Segment)> = self
            .segments
            .iter()
            .filter(|(_, seg)| {
                let head = &self.chunks[seg.head];
                head.free && head.next == NIL
            })
            .map(|(&off, &seg)| (off, seg))
            .collect();
        let mut released = 0usize;
        for (off, seg) in idle {
            let pool = self.chunks[seg.head].pool;
            self.free_set(pool).remove(&(seg.size, off, seg.head));
            self.vacant.push(seg.head);
            self.segments.remove(&off);
            self.release_va(off, seg.size);
            self.stats.reserved_bytes -= seg.size;
            released += seg.size;
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
        for seg in self.segments.values() {
            for (_, c) in self.segment_chunks(seg.head) {
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
        // each segment's list starts at the segment, links both ways, and
        // partitions it with chunks of one pool; segments never overlap
        const VACANT: u8 = 1;
        const LINKED: u8 = 2;
        let mut slots = vec![0u8; self.chunks.len()];
        for &v in &self.vacant {
            if std::mem::replace(&mut slots[v], VACANT) != 0 {
                return Err(format!("chunk slot {v} is vacant twice"));
            }
        }
        let mut covered = 0usize;
        let mut seg_end = 0usize;
        let mut free_count = 0usize;
        let mut allocated = 0usize;
        for (&seg_off, seg) in &self.segments {
            if seg_off < seg_end {
                return Err(format!(
                    "segment at {seg_off} overlaps previous ending at {seg_end}"
                ));
            }
            seg_end = seg_off + seg.size;
            let pool = self.chunks[seg.head].pool;
            let mut expect = seg_off;
            let mut prev = NIL;
            let mut prev_free = false;
            for (slot, c) in self.segment_chunks(seg.head) {
                if std::mem::replace(&mut slots[slot], LINKED) != 0 {
                    return Err(format!("chunk slot {slot} is vacant or linked twice"));
                }
                if c.offset != expect {
                    return Err(format!("chunk at {} should start at {expect}", c.offset));
                }
                if c.prev != prev {
                    return Err(format!("chunk at {} has a stale prev link", c.offset));
                }
                if c.pool != pool {
                    return Err(format!("chunk at {} is in another pool", c.offset));
                }
                if c.free && prev_free {
                    return Err(format!("uncoalesced free chunk at {}", c.offset));
                }
                let set = match c.pool {
                    Pool::Small => &self.free_small,
                    Pool::Large => &self.free_large,
                };
                let in_set = set.contains(&(c.size, c.offset, slot));
                if c.free {
                    free_count += 1;
                    if !in_set {
                        return Err(format!("free chunk at {} missing from free set", c.offset));
                    }
                } else {
                    allocated += 1;
                    if in_set {
                        return Err(format!(
                            "allocated chunk at {} present in free set",
                            c.offset
                        ));
                    }
                }
                expect = c.offset + c.size;
                prev = slot;
                prev_free = c.free;
            }
            if expect != seg_end {
                return Err(format!(
                    "segment at {seg_off} ends at {seg_end}, chunks at {expect}"
                ));
            }
            covered += seg.size;
        }
        if covered != self.stats.reserved_bytes {
            return Err(format!(
                "segments cover {covered} B but reserved is {} B",
                self.stats.reserved_bytes
            ));
        }
        if slots.contains(&0) {
            return Err("a chunk slot is neither linked nor vacant".to_string());
        }
        if free_count != self.free_small.len() + self.free_large.len() {
            return Err("free sets hold stale entries".to_string());
        }
        // live blocks point at distinct allocated chunks
        for (id, &(slot, _)) in &self.live {
            if slots.get(slot) != Some(&LINKED) || self.chunks[slot].free {
                return Err(format!(
                    "live block {id} points at non-allocated slot {slot}"
                ));
            }
        }
        if allocated != self.live.len() {
            return Err(format!(
                "{allocated} allocated chunks but {} live blocks",
                self.live.len()
            ));
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
        // on a miss the fresh segment is the only fit: nothing in the pool
        // was big enough, and releasing the cache only removes chunks
        let key = match self.find_free(pool, rounded) {
            Some(key) => key,
            None => {
                cache_hit = false;
                match self.reserve_segment(pool, rounded) {
                    Ok(key) => key,
                    // PyTorch's OOM path: release all cached segments and
                    // retry
                    Err(e) if self.empty_cache() == 0 => return Err(e),
                    Err(_) => self.reserve_segment(pool, rounded)?,
                }
            }
        };
        let (chunk_size, offset, slot) = key;
        self.free_set(pool).remove(&key);
        self.chunks[slot].free = false;
        let alloc_size = if chunk_size - rounded >= Self::split_threshold(pool) {
            let next = self.chunks[slot].next;
            let rem = self.new_chunk(Chunk {
                offset: offset + rounded,
                size: chunk_size - rounded,
                pool,
                free: true,
                prev: slot,
                next,
            });
            let chunk = &mut self.chunks[slot];
            chunk.size = rounded;
            chunk.next = rem;
            if next != NIL {
                self.chunks[next].prev = rem;
            }
            self.free_set(pool)
                .insert((chunk_size - rounded, offset + rounded, rem));
            rounded
        } else {
            chunk_size
        };
        let id = BlockId(self.next_id);
        self.next_id += 1;
        self.live.insert(id, (slot, size));
        self.stats.on_malloc(alloc_size, cache_hit);
        Ok(Block {
            id,
            offset,
            size: alloc_size,
            requested: size,
        })
    }

    fn free(&mut self, id: BlockId) -> Result<Block, AllocError> {
        let (slot, requested) = self.live.remove(&id).ok_or(AllocError::UnknownBlock(id))?;
        let Chunk {
            offset,
            size,
            pool,
            prev,
            ..
        } = self.chunks[slot];
        self.stats.on_free(size);
        // coalesce with the neighbours in the segment that are free; the
        // lower chunk of a merge survives
        let mut head = slot;
        let mut merged = size;
        if prev != NIL && self.chunks[prev].free {
            let p = self.chunks[prev];
            self.free_set(pool).remove(&(p.size, p.offset, prev));
            merged += p.size;
            self.unlink(slot);
            head = prev;
        }
        let next = self.chunks[head].next;
        if next != NIL && self.chunks[next].free {
            let n = self.chunks[next];
            self.free_set(pool).remove(&(n.size, n.offset, next));
            merged += n.size;
            self.unlink(next);
        }
        let chunk = &mut self.chunks[head];
        chunk.free = true;
        chunk.size = merged;
        let key = (merged, chunk.offset, head);
        self.free_set(pool).insert(key);
        Ok(Block {
            id,
            offset,
            size,
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
            .map(|(&id, &(slot, requested))| Block {
                id,
                offset: self.chunks[slot].offset,
                size: self.chunks[slot].size,
                requested,
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
