//! One-decode analysis engine.
//!
//! The paper derives all of its characterization results (Figs. 2–7) from
//! *one* trace. Each pass is an [`EventFold`] (`push_batch` per decoded
//! chunk, associative `merge`, final `finish`), and [`run`] folds one over
//! a **single scan**: it prunes chunks with the fold's predicate, decodes
//! each surviving chunk exactly once, gives each `pinpoint-parallel`
//! worker a contiguous range of chunks to fold into one accumulator, and
//! merges the workers' partial states **in range order** — so results are
//! bit-identical at any thread count, the repo's established determinism
//! invariant, and a one-thread run merges nothing.
//!
//! Two folds ship with the crate. [`PeakFold`] sweeps the live total, and
//! its predicate lets the index prune chunks of pure accesses. A
//! [`TraceReport`](crate::TraceReport)'s fold is the only fold over the
//! block table: a block's lifetime is a Fig. 2 rectangle and the gaps
//! between its accesses are the Figs. 3–4 ATIs, so the ATI and Gantt
//! passes ([`AtiDataset::from_trace`], [`crate::gantt_rects`]) are that
//! fold's results too. Its accumulator keeps per-block state, found at the
//! slot equal to the block's id while ids come in sequence (as allocators
//! mint them) and through a paged index otherwise, and the finished ATI
//! records in event order, beside the peak's accumulator. Every event is
//! folded straight from the decoded columns; none is built. A merge
//! touches only the later worker's blocks and appends its records, and
//! the records and rectangles finish in order without a full sort. The
//! breakdown row and the outliers need no fold of their own:
//! [`BreakdownRow::from_peak`](crate::BreakdownRow::from_peak) and
//! [`sift`](crate::sift) derive them from the peak and the ATIs.
//!
//! [`run`] takes any [`ChunkSource`] (a `.ptrc` reader, the serving tier's
//! chunk cache, or an in-memory trace's [`EventSource`]) through the
//! store's one [`scan`]; [`run_trace`] is the in-memory shorthand.

use crate::ati::{AtiDataset, AtiRecord};
use crate::gantt::GanttRect;
use pinpoint_store::{
    meta_kind, meta_mem_kind, scan, ChunkMeta, ChunkSource, ColumnBatch, EventSource, Predicate,
    QueryStats, StoreError,
};
use pinpoint_trace::{BlockId, EventKind, MemoryKind, PeakAcc, PeakUsage, Trace};
use std::collections::HashMap;

/// One analysis pass expressed as a chunk-parallel fold.
///
/// The engine cuts a source's chunks into one contiguous range per
/// worker. Each worker folds the decoded chunks of its range, in chunk
/// order, into one [`Acc`](Self::Acc) with [`push_batch`](Self::push_batch);
/// the workers' accumulators are then combined **left-to-right in range
/// order** with [`merge`](Self::merge), and the fully merged accumulator
/// becomes the pass's result through [`finish`](Self::finish).
///
/// # Contract
///
/// * `merge` must be **associative** with chunk order preserved: merging
///   one worker's accumulator (earlier chunks) with the next worker's
///   (later chunks) must equal folding both ranges' chunks into one
///   accumulator. The engine always passes the earlier accumulator as `a`.
/// * [`predicate`](Self::predicate) must be **sound**: an event that does
///   not match the predicate must not affect the result. The engine uses
///   it to prune whole chunks, so `push_batch` may meet events outside it
///   in the chunks that survive, and must ignore them itself.
pub trait EventFold: Send + Sync {
    /// Per-worker partial state.
    type Acc: Send;
    /// Final result of the pass.
    type Output;

    /// The events this fold needs to observe (see the trait contract).
    fn predicate(&self) -> Predicate;
    /// Creates an empty accumulator for one worker.
    fn new_acc(&self) -> Self::Acc;
    /// Readies a fresh accumulator, before its first chunk, for at most
    /// `events` events, so that one that keeps per-event output sizes it
    /// once instead of growing it chunk by chunk. The default ignores the
    /// bound.
    fn reserve(&self, _acc: &mut Self::Acc, _events: usize) {}
    /// Folds one decoded chunk, straight off its columns, into the
    /// accumulator that holds the chunks before it in the worker's range.
    fn push_batch(&self, acc: &mut Self::Acc, batch: &ColumnBatch);
    /// Combines two accumulators; `a` covers strictly earlier chunks.
    fn merge(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc;
    /// Converts the fully merged accumulator into the pass result.
    fn finish(&self, acc: Self::Acc) -> Self::Output;
}

/// Scan accounting for one fold run — how much pruning and decoding the
/// fold's predicate bought, and (under
/// [`ReadPolicy::Salvage`](pinpoint_store::ReadPolicy::Salvage)) exactly
/// what corruption cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Chunks in the store (or synthesized from the in-memory trace).
    pub chunks_total: usize,
    /// Chunks actually decoded — each exactly once per run.
    pub chunks_decoded: usize,
    /// Chunks skipped via the footer index and the fold's predicate.
    pub chunks_pruned: usize,
    /// Of the pruned chunks, how many were rejected *specifically* by the
    /// v3 per-chunk op-label bitset — every other zone-map test would
    /// have let them through. Always 0 when the fold does not constrain
    /// the op label, and on pre-v3 stores (their index defaults to the
    /// all-labels bitset).
    pub chunks_pruned_by_label: usize,
    /// Events scanned across all decoded chunks.
    pub events_scanned: u64,
    /// Chunks read but dropped as corrupt (always 0 under
    /// [`ReadPolicy::Strict`](pinpoint_store::ReadPolicy::Strict) — a
    /// corrupt chunk is an error there).
    pub chunks_skipped: usize,
    /// Events lost with the dropped chunks, per the index counts.
    pub events_lost: u64,
    /// Detail of the first corruption encountered, in chunk order.
    pub first_error: Option<String>,
}

impl FusedStats {
    fn from_scan(scan: QueryStats, events_scanned: u64) -> Self {
        FusedStats {
            chunks_total: scan.chunks_total,
            chunks_decoded: scan.chunks_decoded,
            chunks_pruned: scan.chunks_pruned,
            chunks_pruned_by_label: scan.chunks_pruned_by_label,
            events_scanned,
            chunks_skipped: scan.chunks_skipped,
            events_lost: scan.events_lost,
            first_error: scan.first_error,
        }
    }
}

/// Runs `fold` over a chunk source in **one pass**: chunks not matching
/// the fold's predicate are pruned via the index, and each surviving chunk
/// is fetched (read, CRC-checked and decoded, taken from a cache, or
/// filled from memory) exactly once. The chunks are cut into one
/// contiguous range per worker; each worker folds its range into one
/// accumulator, and the workers' accumulators merge in range order —
/// bit-identical results at any `threads` count, whatever mix of cache
/// hits serves the batches. At one thread nothing is merged.
///
/// Under the source's
/// [`ReadPolicy::Salvage`](pinpoint_store::ReadPolicy::Salvage), corrupt
/// chunks are dropped with exact accounting (`chunks_skipped`,
/// `events_lost`, `first_error`) instead of failing the run; the result
/// is then bit-identical — at any thread count — to a run over a store
/// containing only the surviving chunks.
///
/// # Errors
///
/// I/O errors and [`StoreError::Cancelled`] always; corruption errors
/// under [`ReadPolicy::Strict`](pinpoint_store::ReadPolicy::Strict).
pub fn run<F: EventFold, S: ChunkSource + ?Sized>(
    fold: &F,
    source: &S,
    threads: usize,
) -> Result<(F::Output, FusedStats), StoreError> {
    let _run_span = pinpoint_obs::tracer().span("engine.run");
    let pred = fold.predicate();
    let ((acc, events_scanned), stats) = scan(
        source,
        &pred,
        "engine.prune",
        threads,
        || (fold.new_acc(), 0u64),
        |(acc, events), i, batch| {
            let _fold_span = pinpoint_obs::tracer().span_with("engine.fold", batch.len() as u64);
            if *events == 0 {
                fold.reserve(acc, range_events(source.chunks(), i, threads));
            }
            fold.push_batch(acc, batch);
            *events += batch.len() as u64;
        },
        |(a, a_events), (b, b_events)| {
            let _merge_span = pinpoint_obs::tracer().span("engine.merge");
            (fold.merge(a, b), a_events + b_events)
        },
    )?;
    let _finish_span = pinpoint_obs::tracer().span("engine.finish");
    Ok((
        fold.finish(acc),
        FusedStats::from_scan(stats, events_scanned),
    ))
}

/// The largest bound [`range_events`] gives. The index's counts are read
/// from the file, so a crafted count must not drive a large reservation;
/// a longer range grows its buffers past this.
const MAX_RESERVED_EVENTS: u64 = 1 << 20;

/// The events the index counts in the range of a scan worker that starts
/// at chunk `first`, when a scan at `threads` cuts the chunks into even
/// ranges, each at most `ceil(chunks / workers)` long. Pruned chunks can
/// stretch a range past that, and its buffers then grow.
fn range_events(chunks: &[ChunkMeta], first: usize, threads: usize) -> usize {
    let workers = threads.clamp(1, chunks.len().max(1));
    let range = chunks[first..].iter().take(chunks.len().div_ceil(workers));
    let events = range.map(|c| c.count).fold(0, u64::saturating_add);
    events.min(MAX_RESERVED_EVENTS) as usize
}

/// [`run`] over an in-memory trace's [`EventSource`], whose fetches never
/// fail.
///
/// ```
/// use pinpoint_analysis::{run_trace, PeakFold};
/// # use pinpoint_trace::Trace;
/// let (usage, stats) = run_trace(&PeakFold, &Trace::new(), 1);
/// assert_eq!(usage.peak_total_bytes, 0);
/// assert_eq!(stats.chunks_total, 0);
/// ```
pub fn run_trace<F: EventFold>(fold: &F, trace: &Trace, threads: usize) -> (F::Output, FusedStats) {
    run(fold, &EventSource::new(trace.events()), threads)
        .expect("in-memory chunks never fail to fetch")
}

// ---------------------------------------------------------------------------
// The paper's passes as folds.
// ---------------------------------------------------------------------------

/// Whether a meta byte records a read or a write.
fn is_access(meta: u8) -> bool {
    meta_kind(meta).is_access()
}

/// Ids `p << PAGE_BITS ..= (p << PAGE_BITS) | (PAGE - 1)` share page `p`
/// of the slot index.
const PAGE_BITS: u32 = 8;
/// Slots per page of the slot index.
const PAGE: usize = 1 << PAGE_BITS;
/// An empty directory entry, or an empty slot in a page.
const NONE: u32 = u32::MAX;
/// Words (`u32`) the slot index may hold beyond [`WORDS_PER_BLOCK`] per
/// indexed block: room for the first few pages.
const SLACK_WORDS: u64 = 4 * PAGE as u64;
/// Words the slot index may hold per indexed block. Past this bound the
/// index is a keyed hash map, so crafted ids cannot force a large index.
const WORDS_PER_BLOCK: u64 = 8;

/// Where a [`BlockTable`] finds a block that it does not hold at the slot
/// equal to the block's id.
#[derive(Debug)]
enum BlockIndex {
    /// A block's slot is found by two array loads, without hashing:
    /// `dir[id >> PAGE_BITS]` names a page, whose word `id % PAGE` is the
    /// slot. Only touched pages exist, so persistent low ids plus a window
    /// of fresh high ones cost a few pages, not one word per id in
    /// between.
    Slots {
        dir: Vec<u32>,
        pages: Vec<[u32; PAGE]>,
    },
    /// std's keyed hash map, once an id falls past the slot bound: an
    /// unkeyed hash would let crafted ids collide into one bucket.
    Hashed(HashMap<BlockId, usize>),
}

impl BlockIndex {
    fn get(&self, block: BlockId) -> Option<usize> {
        match self {
            BlockIndex::Slots { dir, pages } => {
                let page = *dir.get(usize::try_from(block.0 >> PAGE_BITS).ok()?)?;
                // a NONE page number lies past the end of `pages`
                let slot = *pages.get(page as usize)?.get(block.0 as usize % PAGE)?;
                (slot != NONE).then_some(slot as usize)
            }
            BlockIndex::Hashed(map) => map.get(&block).copied(),
        }
    }

    /// Indexes `block` at `slot` of `held` blocks, or returns false when
    /// that would take the slot index past its bound.
    fn insert(&mut self, block: BlockId, slot: usize, held: usize) -> bool {
        match self {
            BlockIndex::Slots { dir, pages } => {
                let p = block.0 >> PAGE_BITS;
                let page = dir.get(p as usize).copied().unwrap_or(NONE);
                let dir_words = (p + 1).max(dir.len() as u64);
                let pages_after = pages.len() as u64 + u64::from(page == NONE);
                let words = dir_words + pages_after * PAGE as u64;
                if slot >= NONE as usize || words > SLACK_WORDS + WORDS_PER_BLOCK * held as u64 {
                    return false;
                }
                // within the bound, so the directory stays small
                let p = p as usize;
                if p >= dir.len() {
                    dir.resize(p + 1, NONE);
                }
                if page == NONE {
                    dir[p] = pages.len() as u32;
                    pages.push([NONE; PAGE]);
                }
                pages[dir[p] as usize][block.0 as usize % PAGE] = slot as u32;
            }
            BlockIndex::Hashed(map) => {
                map.insert(block, slot);
            }
        }
        true
    }
}

/// A block's first access in an accumulator. It closes no interval there:
/// a merge that finds the block accessed on the earlier side makes the
/// bridge record this access closes, to go before run record `at`.
#[derive(Debug, Clone, Copy)]
struct FirstAccess {
    /// Run records the accumulator held before the access.
    at: u32,
    time_ns: u64,
    kind: EventKind,
}

/// A record position, as [`FirstAccess::at`] keeps it.
fn record_at(pos: usize) -> u32 {
    u32::try_from(pos).expect("an accumulator holds fewer than 2^32 records")
}

/// Everything the block table keeps about one block, mirroring one
/// `Trace::lifetimes()` entry without its access list.
#[derive(Debug, Clone, Copy)]
struct BlockState {
    block: BlockId,
    /// (time, size, offset, kind) of the last malloc, or of the block's
    /// first event while it has had no malloc.
    time_ns: u64,
    size: usize,
    offset: usize,
    mem_kind: MemoryKind,
    /// Whether the geometry above is a malloc's.
    mallocd: bool,
    /// Last free's time.
    free_time_ns: Option<u64>,
    first_access: Option<FirstAccess>,
    /// Time of the most recent access (the open end of the next interval).
    last_access_ns: Option<u64>,
}

/// The per-block states, in first-touch order, found by id.
#[derive(Debug)]
struct BlockTable {
    blocks: Vec<BlockState>,
    /// The slots of the blocks not held at the slot equal to their id.
    index: BlockIndex,
}

impl Default for BlockTable {
    fn default() -> Self {
        BlockTable {
            blocks: Vec::new(),
            index: BlockIndex::Slots {
                dir: Vec::new(),
                pages: Vec::new(),
            },
        }
    }
}

impl BlockTable {
    /// The slot of `block`'s state. Allocators mint ids in sequence and a
    /// profile first touches its blocks in that order, so a block's slot
    /// is usually its id: that slot is tried first, the index on a miss.
    #[inline]
    fn find(&self, block: BlockId) -> Option<usize> {
        let at_id = usize::try_from(block.0)
            .ok()
            .filter(|&slot| self.blocks.get(slot).is_some_and(|st| st.block == block));
        at_id.or_else(|| self.index.get(block))
    }

    /// Appends `st` as a new block and returns its slot, indexing it
    /// unless the slot is its id.
    fn insert(&mut self, st: BlockState) -> usize {
        let slot = self.blocks.len();
        self.blocks.push(st);
        if st.block.0 != slot as u64 && !self.index.insert(st.block, slot, self.blocks.len()) {
            let off_id = self.blocks.iter().enumerate();
            let off_id = off_id.filter(|&(slot, b)| b.block.0 != slot as u64);
            self.index = BlockIndex::Hashed(off_id.map(|(slot, b)| (b.block, slot)).collect());
        }
        slot
    }
}

/// The block table a report folds, and the ATI records finished from it.
/// A scan worker folds its whole range of chunks into one.
///
/// * A block's state is found at the slot equal to its id, as ids are
///   minted in sequence, or else through a paged slot index. An id past
///   the index's bound, a small multiple of the blocks held, moves the
///   accumulator to a keyed hash map, so neither crafted ids nor a long
///   trace can drive a large allocation.
/// * An access that closes an interval pushes its finished record, with
///   the size and kind of the state its lookup loaded, and the interval's
///   value. A block's first access pushes nothing; its state keeps it. A
///   merge appends the later side's run of records, and for each block
///   the earlier side also accessed keeps the bridge record with the
///   place it goes; finishing lays the runs and the bridges out in one
///   pass. One accumulator, as at one thread, finishes its one run as it
///   is.
/// * A record must carry its block's final size and kind. A malloc or a
///   merge that changes them for a block already accessed marks the
///   accumulator, and only then does finishing look each record's block
///   up again.
/// * The records are in event order, which in a time-ordered trace is
///   `(end_time_ns, block)` order up to accesses of one instant, so
///   finishing sorts only within each instant. Blocks first touched by
///   their malloc, as in a profile, are in start order too, so the Gantt
///   rectangles likewise sort only blocks malloc'd at one instant.
#[derive(Debug, Default)]
pub(crate) struct BlockAcc {
    table: BlockTable,
    /// The finished ATI records of the last worker's range merged in (of
    /// this accumulator's own, before any merge), in the event order of
    /// their closing accesses.
    run: Vec<AtiRecord>,
    /// The earlier ranges' runs, in range order.
    earlier_runs: Vec<Vec<AtiRecord>>,
    /// Records in the earlier runs.
    earlier: usize,
    /// The merges' bridge records, each with the run records before it.
    bridges: Vec<(usize, AtiRecord)>,
    /// The interval values of the runs and the bridges, in any order.
    intervals: Vec<u64>,
    /// Whether some record may carry a size or kind other than its
    /// block's final one.
    stale_geometry: bool,
    /// Time of the last event seen (lifetime end of never-freed blocks).
    end_time_ns: Option<u64>,
}

impl BlockAcc {
    /// Sizes the run for at most `events` events at once, so that it is
    /// not copied as it grows.
    pub(crate) fn reserve(&mut self, events: usize) {
        self.run.reserve(events);
        self.intervals.reserve(events);
    }

    /// Folds a decoded chunk straight from its columns, without building
    /// an event. Each malloc and free is also handed to `alloc` as its
    /// kind, size and memory kind.
    pub(crate) fn push_batch(
        &mut self,
        batch: &ColumnBatch,
        mut alloc: impl FnMut(EventKind, usize, MemoryKind),
    ) {
        let (time, meta, block) = (batch.time(), batch.meta(), batch.block());
        let accesses = meta.iter().filter(|&&m| is_access(m)).count();
        self.reserve(accesses);
        let BlockAcc {
            table,
            run,
            earlier,
            intervals,
            stale_geometry,
            ..
        } = self;
        let events = time.iter().zip(meta).zip(block);
        let geometry = batch.size().iter().zip(batch.offset());
        for (((&t, &m), &id), (&size, &offset)) in events.zip(geometry) {
            let (block, kind, size) = (BlockId(id), meta_kind(m), size as usize);
            let slot = match table.find(block) {
                Some(slot) => slot,
                None => table.insert(BlockState {
                    block,
                    time_ns: t,
                    size,
                    offset: offset as usize,
                    mem_kind: meta_mem_kind(m),
                    mallocd: false,
                    free_time_ns: None,
                    first_access: None,
                    last_access_ns: None,
                }),
            };
            let st = &mut table.blocks[slot];
            match kind {
                EventKind::Read | EventKind::Write => {
                    match st.last_access_ns {
                        Some(prev) => {
                            let interval_ns = t - prev;
                            run.push(AtiRecord {
                                block,
                                size: st.size,
                                mem_kind: st.mem_kind,
                                interval_ns,
                                end_time_ns: t,
                                closing_kind: kind,
                            });
                            intervals.push(interval_ns);
                        }
                        None => {
                            st.first_access = Some(FirstAccess {
                                at: record_at(*earlier + run.len()),
                                time_ns: t,
                                kind,
                            });
                        }
                    }
                    st.last_access_ns = Some(t);
                }
                EventKind::Malloc => {
                    let mem_kind = meta_mem_kind(m);
                    *stale_geometry |=
                        st.last_access_ns.is_some() && (st.size, st.mem_kind) != (size, mem_kind);
                    (st.time_ns, st.size, st.offset) = (t, size, offset as usize);
                    st.mem_kind = mem_kind;
                    st.mallocd = true;
                    alloc(kind, size, mem_kind);
                }
                EventKind::Free => {
                    st.free_time_ns = Some(t);
                    alloc(kind, size, meta_mem_kind(m));
                }
            }
        }
        if let Some(&t) = time.last() {
            self.end_time_ns = Some(t);
        }
    }

    /// Appends `b`, whose events all follow this accumulator's: its runs
    /// follow this one's, and each block that both sides accessed gets
    /// the bridge record that `b`'s first access closes, kept with the
    /// place it goes.
    pub(crate) fn merge(mut self, b: BlockAcc) -> BlockAcc {
        let BlockAcc {
            table,
            run,
            earlier_runs,
            earlier,
            bridges,
            mut intervals,
            stale_geometry,
            end_time_ns,
        } = b;
        // b's run record r is run record base + r here
        let base = self.earlier + self.run.len();
        let rebase = |f: FirstAccess| FirstAccess {
            at: record_at(base + f.at as usize),
            ..f
        };
        self.stale_geometry |= stale_geometry;
        self.intervals.append(&mut intervals);
        for sb in table.blocks {
            let Some(slot) = self.table.find(sb.block) else {
                self.table.insert(BlockState {
                    first_access: sb.first_access.map(rebase),
                    ..sb
                });
                continue;
            };
            let sa = &mut self.table.blocks[slot];
            // the block's final geometry so far: b's malloc's, else a's
            let (size, mem_kind) = if sb.mallocd {
                (sb.size, sb.mem_kind)
            } else {
                (sa.size, sa.mem_kind)
            };
            let changes = |st: &BlockState| {
                st.last_access_ns.is_some() && (st.size, st.mem_kind) != (size, mem_kind)
            };
            self.stale_geometry |= changes(sa) || changes(&sb);
            if let (Some(prev), Some(f)) = (sa.last_access_ns, sb.first_access) {
                let bridge = AtiRecord {
                    block: sb.block,
                    size,
                    mem_kind,
                    interval_ns: f.time_ns - prev,
                    end_time_ns: f.time_ns,
                    closing_kind: f.kind,
                };
                self.bridges.push((base + f.at as usize, bridge));
                self.intervals.push(bridge.interval_ns);
            }
            if sb.mallocd {
                (sa.time_ns, sa.size, sa.offset) = (sb.time_ns, sb.size, sb.offset);
                sa.mem_kind = sb.mem_kind;
                sa.mallocd = true;
            }
            sa.free_time_ns = sb.free_time_ns.or(sa.free_time_ns);
            sa.first_access = sa.first_access.or(sb.first_access.map(rebase));
            sa.last_access_ns = sb.last_access_ns.or(sa.last_access_ns);
        }
        let rebased = bridges.into_iter().map(|(at, r)| (base + at, r));
        self.bridges.extend(rebased);
        self.earlier = base + earlier;
        let a_run = std::mem::replace(&mut self.run, run);
        self.earlier_runs.push(a_run);
        self.earlier_runs.extend(earlier_runs);
        self.end_time_ns = end_time_ns.or(self.end_time_ns);
        self
    }

    /// The ATI records, in `(end_time_ns, block)` order with a block's own
    /// records in event order (what a stable sort of the event-ordered
    /// records by that key gives), and one Gantt rectangle per block, in
    /// `(t0_ns, offset, block)` order.
    pub(crate) fn finish(self) -> (AtiDataset, Vec<GanttRect>) {
        let gantt = self.gantt();
        let BlockAcc {
            table,
            run,
            earlier_runs,
            mut bridges,
            intervals,
            stale_geometry,
            ..
        } = self;
        let mut records = if earlier_runs.is_empty() && bridges.is_empty() {
            run
        } else {
            let mut runs = earlier_runs;
            runs.push(run);
            // the runs in order, each bridge before the run record it
            // precedes; bridges at one place keep time order
            bridges.sort_by_key(|&(at, r)| (at, r.end_time_ns));
            let n = runs.iter().map(Vec::len).sum::<usize>() + bridges.len();
            let mut records = Vec::with_capacity(n);
            let (mut bridges, mut done) = (bridges.into_iter().peekable(), 0);
            for run in &runs {
                let mut from = 0;
                while let Some((at, bridge)) = bridges.next_if(|&(at, _)| at <= done + run.len()) {
                    records.extend_from_slice(&run[from..at - done]);
                    from = at - done;
                    records.push(bridge);
                }
                records.extend_from_slice(&run[from..]);
                done += run.len();
            }
            records
        };
        if stale_geometry {
            for r in &mut records {
                let slot = table.find(r.block).expect("an accessed block has a state");
                let st = &table.blocks[slot];
                (r.size, r.mem_kind) = (st.size, st.mem_kind);
            }
        }
        sort_by_time_then(&mut records, |r| r.end_time_ns, |r| r.block);
        (AtiDataset::with_intervals(records, intervals), gantt)
    }

    /// One rectangle per block, in `(t0_ns, offset, block)` order.
    fn gantt(&self) -> Vec<GanttRect> {
        let end = self.end_time_ns.unwrap_or(0);
        let mut rects: Vec<GanttRect> = self
            .table
            .blocks
            .iter()
            .map(|st| GanttRect {
                block: st.block,
                t0_ns: st.time_ns,
                t1_ns: st.free_time_ns.unwrap_or(end),
                offset: st.offset,
                size: st.size,
                mem_kind: st.mem_kind,
            })
            .collect();
        // blocks are in first-touch order, which is malloc order unless a
        // block is malloc'd again or first seen by another event; the
        // block breaks (t0_ns, offset) ties, and blocks are unique
        sort_by_time_then(&mut rects, |r| r.t0_ns, |r| (r.offset, r.block));
        rects
    }
}

/// Stable-sorts `items` by `(time, tie)`, in one pass where it can. Items
/// already in time order, as a time-ordered trace's records and rects
/// come, can be out of order only within an instant, so the pass sorts
/// each instant that needs it by `tie` alone. An instant earlier than the
/// one before sends everything to the full sort; the instants sorted by
/// then kept equal keys in their order, so it gives what it would have
/// given on the input.
fn sort_by_time_then<T, K: Ord>(items: &mut [T], time: impl Fn(&T) -> u64, tie: impl Fn(&T) -> K) {
    let mut last = 0;
    let mut in_time_order = true;
    for instant in items.chunk_by_mut(|a, b| time(a) == time(b)) {
        let t = time(&instant[0]);
        if t < last {
            in_time_order = false;
            break;
        }
        last = t;
        if !instant.is_sorted_by_key(&tie) {
            instant.sort_by_key(&tie);
        }
    }
    if !in_time_order {
        items.sort_by_key(|x| (time(x), tie(x)));
    }
}

/// Peak-footprint extraction as a fold, over the same [`PeakAcc`] that
/// `Trace::peak_live_bytes()` sweeps a whole trace with.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeakFold;

impl EventFold for PeakFold {
    type Acc = PeakAcc;
    type Output = PeakUsage;

    /// Only allocation events move the live total — chunks of pure
    /// accesses are prunable for this fold.
    fn predicate(&self) -> Predicate {
        Predicate::any()
            .with_kind(EventKind::Malloc)
            .with_kind(EventKind::Free)
    }
    fn new_acc(&self) -> PeakAcc {
        PeakAcc::default()
    }
    /// The meta column's 2-bit kind code rules out accesses with one byte
    /// test, so in access-heavy traces — the paper's regime — the vast
    /// majority of events are skipped; a malloc or a free is swept from
    /// its meta byte and size, never materialized.
    fn push_batch(&self, acc: &mut PeakAcc, batch: &ColumnBatch) {
        for (&m, &size) in batch.meta().iter().zip(batch.size()) {
            if !is_access(m) {
                acc.push_fields(meta_kind(m), size as usize, meta_mem_kind(m));
            }
        }
    }
    fn merge(&self, a: PeakAcc, b: PeakAcc) -> PeakAcc {
        a.merge(b)
    }
    fn finish(&self, acc: PeakAcc) -> PeakUsage {
        acc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gantt_rects;
    use crate::report::ReportFold;
    use pinpoint_store::{Batch, DecodeScratch, ReadPolicy, DEFAULT_CHUNK_EVENTS};
    use pinpoint_trace::{Category, MemEvent};

    /// Folds `events` into one block table, chunk by chunk, as a scan
    /// worker folds its range.
    fn fold(events: &[MemEvent]) -> BlockAcc {
        let source = EventSource::new(events);
        let mut scratch = DecodeScratch::new();
        let mut acc = BlockAcc::default();
        for i in 0..source.chunks().len() {
            acc.push_batch(&source.fetch(i, &mut scratch).unwrap(), |_, _, _| {});
        }
        acc
    }

    fn mixed_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..30u64 {
            let b = BlockId(i % 7);
            t.record(
                i * 10,
                EventKind::Malloc,
                b,
                ((i % 7 + 1) * 100) as usize,
                (i * 64) as usize,
                MemoryKind::Activation,
                None,
            );
            t.record(
                i * 10 + 3,
                EventKind::Write,
                b,
                ((i % 7 + 1) * 100) as usize,
                (i * 64) as usize,
                MemoryKind::Activation,
                None,
            );
            t.record(
                i * 10 + 7,
                EventKind::Read,
                b,
                ((i % 7 + 1) * 100) as usize,
                (i * 64) as usize,
                MemoryKind::Activation,
                None,
            );
            if i % 3 == 0 {
                t.record(
                    i * 10 + 9,
                    EventKind::Free,
                    b,
                    ((i % 7 + 1) * 100) as usize,
                    (i * 64) as usize,
                    MemoryKind::Activation,
                    None,
                );
            }
        }
        t
    }

    #[test]
    fn tied_peaks_keep_the_earliest_category_split() {
        // the running total reaches 100 three times, each with another
        // category split: twice within the first chunk, then again after
        // enough reads that it lands in a later chunk of `run_trace` (and
        // of the store); the first split must win every tie
        let mut t = Trace::new();
        let mut time = 0u64;
        let mut ev = |t: &mut Trace, kind, block, size, mem_kind| {
            time += 1;
            t.record(time, kind, BlockId(block), size, 0, mem_kind, None);
        };
        ev(&mut t, EventKind::Malloc, 0, 60, MemoryKind::Activation);
        ev(&mut t, EventKind::Malloc, 1, 40, MemoryKind::Weight);
        ev(&mut t, EventKind::Free, 0, 60, MemoryKind::Activation);
        ev(&mut t, EventKind::Malloc, 2, 60, MemoryKind::Input);
        ev(&mut t, EventKind::Free, 1, 40, MemoryKind::Weight);
        ev(&mut t, EventKind::Free, 2, 60, MemoryKind::Input);
        for _ in 0..DEFAULT_CHUNK_EVENTS {
            ev(&mut t, EventKind::Read, 9, 8, MemoryKind::Other);
        }
        ev(&mut t, EventKind::Malloc, 3, 100, MemoryKind::WeightGrad);
        ev(&mut t, EventKind::Free, 3, 100, MemoryKind::WeightGrad);
        let want = PeakUsage {
            peak_total_bytes: 100,
            at_peak_by_category: vec![
                (Category::InputData, 0),
                (Category::Parameters, 40),
                (Category::Intermediates, 60),
            ],
        };
        assert_eq!(t.peak_live_bytes(), want, "one sweep");

        let mut bytes = Vec::new();
        pinpoint_store::write_store_chunked(&t, &mut bytes, 4).unwrap();
        let reader = pinpoint_store::StoreReader::from_bytes(bytes).unwrap();
        for threads in [1, 4] {
            let (peak, stats) = run_trace(&PeakFold, &t, threads);
            assert!(stats.chunks_total > 1);
            assert_eq!(peak, want, "run_trace, threads={threads}");
            let (peak, _) = run(&PeakFold, &reader, threads).unwrap();
            assert_eq!(peak, want, "store, threads={threads}");
        }
    }

    /// A chunk source that serves real decoded chunks except chunk
    /// `broken`, which fails with `error`.
    struct FailingSource {
        chunks: Vec<pinpoint_store::ChunkMeta>,
        batches: Vec<std::sync::Arc<ColumnBatch>>,
        policy: ReadPolicy,
        broken: usize,
        cancel: bool,
    }

    impl ChunkSource for FailingSource {
        fn chunks(&self) -> &[pinpoint_store::ChunkMeta] {
            &self.chunks
        }
        fn policy(&self) -> ReadPolicy {
            self.policy
        }
        fn fetch<'s>(
            &self,
            i: usize,
            _: &'s mut pinpoint_store::DecodeScratch,
        ) -> Result<Batch<'s>, StoreError> {
            if i != self.broken {
                Ok(Batch::Shared(std::sync::Arc::clone(&self.batches[i])))
            } else if self.cancel {
                Err(StoreError::Cancelled)
            } else {
                Err(StoreError::Corrupt(format!("chunk {i} rotted")))
            }
        }
    }

    #[test]
    fn salvage_skips_a_failed_chunk_but_never_a_cancelled_one() {
        let t = mixed_trace();
        let mut bytes = Vec::new();
        pinpoint_store::write_store_chunked(&t, &mut bytes, 16).unwrap();
        let reader = pinpoint_store::StoreReader::from_bytes(bytes).unwrap();
        let chunks = reader.footer().chunks.clone();
        let batches: Vec<_> = (0..chunks.len())
            .map(|i| std::sync::Arc::new(reader.decode_chunk(i).unwrap()))
            .collect();
        let broken = 2;
        let lost = chunks[broken].count;
        let mut survivors = Trace::new();
        for (i, b) in batches.iter().enumerate() {
            if i != broken {
                (0..b.len()).for_each(|k| survivors.push(b.event(k)));
            }
        }

        for threads in [1, 4] {
            for policy in [ReadPolicy::Strict, ReadPolicy::Salvage] {
                for cancel in [false, true] {
                    let source = FailingSource {
                        chunks: chunks.clone(),
                        batches: batches.clone(),
                        policy,
                        broken,
                        cancel,
                    };
                    let case = format!("threads={threads} {policy:?} cancel={cancel}");
                    let q = pinpoint_store::query(&source, &Predicate::any(), threads);
                    let folded = run(&ReportFold, &source, threads);
                    if policy == ReadPolicy::Strict || cancel {
                        let want = if cancel { "cancelled" } else { "rotted" };
                        for err in [q.unwrap_err(), folded.unwrap_err()] {
                            assert!(err.to_string().contains(want), "{case}: {err}");
                        }
                        continue;
                    }
                    let (q, ((ati, peak, gantt), stats)) = (q.unwrap(), folded.unwrap());
                    let first_error = Some(format!("corrupt store: chunk {broken} rotted"));
                    assert_eq!(q.events, survivors.events(), "{case}");
                    assert_eq!(q.stats.chunks_skipped, 1, "{case}");
                    assert_eq!(q.stats.events_lost, lost, "{case}");
                    assert_eq!(q.stats.first_error, first_error, "{case}");
                    assert_eq!(stats.chunks_skipped, 1, "{case}");
                    assert_eq!(stats.events_lost, lost, "{case}");
                    assert_eq!(stats.first_error, first_error, "{case}");
                    assert_eq!(stats.chunks_decoded, chunks.len() - 1, "{case}");
                    assert_eq!(peak, survivors.peak_live_bytes(), "{case}");
                    assert_eq!(ati, AtiDataset::from_trace(&survivors), "{case}");
                    assert_eq!(gantt, gantt_rects(&survivors, 0, u64::MAX), "{case}");
                }
            }
        }
    }

    #[test]
    fn block_merge_is_associative_at_every_split() {
        let t = mixed_trace();
        let (ati, gantt) = fold(t.events()).finish();
        let n = t.len();
        for i in 0..=n {
            for j in i..=n {
                let (a, b, c) = (&t.events()[..i], &t.events()[i..j], &t.events()[j..]);
                let left = fold(a).merge(fold(b)).merge(fold(c));
                let right = fold(a).merge(fold(b).merge(fold(c)));
                for (side, acc) in [("left", left), ("right", right)] {
                    let (got_ati, got_gantt) = acc.finish();
                    assert_eq!(got_ati, ati, "{side}, splits at {i} and {j}");
                    assert_eq!(got_gantt, gantt, "{side}, {i}, {j}");
                }
            }
        }
    }

    /// One 4096-event chunk shaped like a late chunk of a long training
    /// profile: 100 persistent blocks with the lowest ids, then a window
    /// of fresh blocks near id 15 000, each malloc'd, written, read
    /// beside a persistent block, and freed.
    fn long_trace_chunk() -> Vec<MemEvent> {
        let mut events = Vec::with_capacity(DEFAULT_CHUNK_EVENTS);
        let ev = |events: &mut Vec<MemEvent>, kind, block: u64| {
            events.push(MemEvent {
                time_ns: events.len() as u64,
                kind,
                block: BlockId(block),
                size: 512,
                offset: block as usize * 512,
                mem_kind: MemoryKind::Activation,
                op_label: None,
            });
        };
        for id in 0..100 {
            ev(&mut events, EventKind::Write, id);
        }
        let mut fresh = 15_000;
        while events.len() + 5 <= DEFAULT_CHUNK_EVENTS {
            ev(&mut events, EventKind::Malloc, fresh);
            ev(&mut events, EventKind::Write, fresh);
            ev(&mut events, EventKind::Read, fresh % 100);
            ev(&mut events, EventKind::Read, fresh);
            ev(&mut events, EventKind::Free, fresh);
            fresh += 1;
        }
        events
    }

    fn on_slots(acc: &BlockAcc) -> bool {
        matches!(acc.table.index, BlockIndex::Slots { .. })
    }

    #[test]
    fn a_long_traces_chunk_stays_on_the_slot_index() {
        let events = long_trace_chunk();
        let (lo, hi) = (events[0].block.0, events.last().unwrap().block.0);
        assert!(hi - lo > 15_000, "the chunk spans ids {lo}..={hi}");
        let acc = fold(&events);
        assert!(
            on_slots(&acc),
            "{} blocks went hashed",
            acc.table.blocks.len()
        );
        // merged with the next chunk of the same shape, it stays there too
        let merged = fold(&events[..100]).merge(fold(&events[100..]));
        assert!(on_slots(&merged));
        assert_eq!(merged.finish(), acc.finish());

        // an id past the bound moves the accumulator to the hash map
        // mid-chunk, with the same results
        let mut far = events.clone();
        far[2000].block = BlockId(1 << 40);
        let mut t = Trace::new();
        far.iter().for_each(|e| t.push(e.clone()));
        let acc = fold(&far);
        assert!(!on_slots(&acc));
        let (ati, gantt) = acc.finish();
        assert_eq!(ati, AtiDataset::from_trace(&t));
        assert_eq!(gantt, gantt_rects(&t, 0, u64::MAX));
    }

    /// A training profile long enough that its fresh ids drift far past
    /// the persistent ones: 100 persistent blocks, touched again in every
    /// stretch of `chunk` events, and per stretch a window of fresh
    /// blocks, each malloc'd, written, read and freed, whose ids start
    /// `step` higher than the stretch before's.
    fn drifting_ids_trace(stretches: u64, chunk: usize, step: u64) -> Trace {
        let mut t = Trace::new();
        let ev = |t: &mut Trace, kind, block: u64| {
            let time = t.len() as u64 * 10;
            let offset = (block % 4096) as usize * 512;
            t.record(
                time,
                kind,
                BlockId(block),
                512,
                offset,
                MemoryKind::Activation,
                None,
            );
        };
        for k in 0..stretches {
            let end = t.len() + chunk;
            let kind = if k == 0 {
                EventKind::Malloc
            } else {
                EventKind::Read
            };
            (0..100).for_each(|id| ev(&mut t, kind, id));
            let mut fresh = 1_000 + k * step;
            while t.len() + 4 <= end {
                for kind in [
                    EventKind::Malloc,
                    EventKind::Write,
                    EventKind::Read,
                    EventKind::Free,
                ] {
                    ev(&mut t, kind, fresh);
                }
                fresh += 1;
            }
            while t.len() < end {
                ev(&mut t, EventKind::Read, 0);
            }
        }
        t
    }

    /// The block table as a fold whose result says whether every worker's
    /// table was on the slot index after each chunk it folded, and whether
    /// the merged table is.
    struct SlotProbe;

    impl EventFold for SlotProbe {
        type Acc = (BlockAcc, bool);
        type Output = (bool, bool, AtiDataset, Vec<GanttRect>);

        fn predicate(&self) -> Predicate {
            Predicate::any()
        }
        fn new_acc(&self) -> Self::Acc {
            (BlockAcc::default(), true)
        }
        fn push_batch(&self, (acc, slots): &mut Self::Acc, batch: &ColumnBatch) {
            acc.push_batch(batch, |_, _, _| {});
            *slots &= on_slots(acc);
        }
        fn merge(&self, (a, a_slots): Self::Acc, (b, b_slots): Self::Acc) -> Self::Acc {
            (a.merge(b), a_slots && b_slots)
        }
        fn finish(&self, (acc, slots): Self::Acc) -> Self::Output {
            let merged = on_slots(&acc);
            let (ati, gantt) = acc.finish();
            (slots, merged, ati, gantt)
        }
    }

    #[test]
    fn a_workers_block_table_stays_on_the_slot_index_past_the_per_chunk_bound() {
        const CHUNK: usize = 512;
        let t = drifting_ids_trace(150, CHUNK, 20_000);
        // folded alone, as when each chunk had an accumulator of its own,
        // a late chunk's ids lie past the slot index's bound
        let alone = fold(&t.events()[149 * CHUNK..]);
        assert!(
            !on_slots(&alone),
            "the last chunk alone must leave the index"
        );

        let mut bytes = Vec::new();
        pinpoint_store::write_store_chunked(&t, &mut bytes, CHUNK).unwrap();
        let reader = pinpoint_store::StoreReader::from_bytes(bytes).unwrap();
        assert_eq!(reader.num_chunks(), 150);
        let (ati, gantt) = (AtiDataset::from_trace(&t), gantt_rects(&t, 0, u64::MAX));
        let (report, _) = run_trace(&ReportFold, &t, 1);
        for threads in [1, 4] {
            let ((every_chunk, merged, got_ati, got_gantt), _) =
                run(&SlotProbe, &reader, threads).unwrap();
            // one worker holds every block it has seen, so its bound grows
            // past the drift; at four, a later worker starts far above id 0
            // with few blocks and may leave the index, but the table the
            // report finishes from is the first worker's, and stays on it
            if threads == 1 {
                assert!(every_chunk, "the one worker's table went hashed");
            }
            assert!(merged, "threads {threads}: the report's table went hashed");
            assert_eq!(got_ati, ati, "threads {threads}");
            assert_eq!(got_gantt, gantt, "threads {threads}");
            let (got, _) = run(&ReportFold, &reader, threads).unwrap();
            assert_eq!(got, report, "threads {threads}");
        }
    }

    /// A trace shaped like a training profile: ids minted in sequence
    /// from 0, every block malloc'd before its accesses, 40 persistent
    /// blocks read twice per iteration, and per iteration a stack of fresh
    /// blocks each written, read twice (two by one op, at one instant, in
    /// descending id order) and freed.
    fn profile_shaped_trace(iterations: u64) -> Trace {
        let mut t = Trace::new();
        let mut next_id = 0;
        let mut time = 0;
        let ev = |t: &mut Trace, time: u64, kind, block: u64, mem_kind| {
            let offset = (block % 1024) as usize * 4096;
            t.record(time, kind, BlockId(block), 4096, offset, mem_kind, None);
        };
        let persistent: Vec<u64> = (0..40).collect();
        for &id in &persistent {
            ev(&mut t, time, EventKind::Malloc, id, MemoryKind::Weight);
            next_id += 1;
        }
        for _ in 0..iterations {
            let fresh: Vec<u64> = (next_id..next_id + 60).collect();
            next_id += 60;
            for (&id, &w) in fresh.iter().zip(persistent.iter().cycle()) {
                time += 10;
                ev(&mut t, time, EventKind::Malloc, id, MemoryKind::Activation);
                ev(&mut t, time, EventKind::Read, w, MemoryKind::Weight);
                ev(&mut t, time, EventKind::Write, id, MemoryKind::Activation);
            }
            for pair in fresh.rchunks(2) {
                time += 10;
                for &id in pair.iter().rev() {
                    ev(&mut t, time, EventKind::Read, id, MemoryKind::Activation);
                }
                for &id in pair {
                    ev(
                        &mut t,
                        time + 1,
                        EventKind::Read,
                        id,
                        MemoryKind::Activation,
                    );
                    ev(
                        &mut t,
                        time + 2,
                        EventKind::Free,
                        id,
                        MemoryKind::Activation,
                    );
                }
                ev(
                    &mut t,
                    time + 3,
                    EventKind::Read,
                    pair[0] % 40,
                    MemoryKind::Weight,
                );
            }
        }
        t
    }

    #[test]
    fn a_profile_folds_at_each_blocks_slot_with_nothing_left_to_fix() {
        let t = profile_shaped_trace(40);
        let chunks = t.len().div_ceil(DEFAULT_CHUNK_EVENTS);
        assert!(chunks >= 4, "{} events fill {chunks} chunks", t.len());
        let acc = fold(t.events());
        // every block at the slot equal to its id, none in the index
        for (slot, st) in acc.table.blocks.iter().enumerate() {
            assert_eq!(st.block, BlockId(slot as u64));
        }
        let BlockIndex::Slots { dir, pages } = &acc.table.index else {
            panic!("a profile's table went hashed");
        };
        assert!(dir.is_empty() && pages.is_empty(), "a block was indexed");
        // each access but a block's first pushed its finished record into
        // the one run, which finishing takes as it is, and no record needs
        // another size or kind
        let accesses = t.events().iter().filter(|e| e.kind.is_access());
        let accessed: std::collections::HashSet<BlockId> =
            accesses.clone().map(|e| e.block).collect();
        assert!(acc.earlier_runs.is_empty() && acc.bridges.is_empty());
        assert_eq!(acc.run.len(), accesses.count() - accessed.len());
        assert_eq!(acc.intervals.len(), acc.run.len());
        assert!(!acc.stale_geometry, "a record's geometry needs patching");
        // and the one worker's table finishes as a report's does
        let ((ati, _, gantt), stats) = run_trace(&ReportFold, &t, 1);
        assert_eq!(stats.chunks_decoded, chunks);
        assert_eq!(acc.finish(), (ati, gantt));
    }

    #[test]
    fn empty_trace_is_fine() {
        let (usage, stats) = run_trace(&PeakFold, &Trace::new(), 4);
        assert_eq!(usage.peak_total_bytes, 0);
        assert_eq!(stats.chunks_total, 0);
    }
}
