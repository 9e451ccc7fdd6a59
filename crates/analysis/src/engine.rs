//! One-decode analysis engine.
//!
//! The paper derives all of its characterization results (Figs. 2–7) from
//! *one* trace. Each pass is an [`EventFold`] (per-chunk `push`,
//! associative `merge`, final `finish`), and [`run`] folds one over a
//! **single scan**: it prunes chunks with the fold's predicate, decodes
//! each surviving chunk exactly once, fans chunks out across
//! `pinpoint-parallel` workers, and merges the per-chunk partial states
//! back **in chunk order** — so results are bit-identical at any thread
//! count, the repo's established determinism invariant.
//!
//! The paper's passes ship as three ready-made folds — [`AtiFold`],
//! [`PeakFold`] and [`GanttFold`] — and the public `from_trace` passes
//! ([`AtiDataset::from_trace`], [`crate::gantt_rects`]) are wrappers over
//! them. The ATI and Gantt folds share one accumulator, [`BlockAcc`]: a
//! table of per-block state found through a slot index (no hashing while
//! ids come in sequence, as allocators mint them), plus each chunk's
//! accesses as one run in event order. A merge touches only the later
//! chunk's blocks, and the records finish in order without a full sort.
//! A [`TraceReport`](crate::TraceReport) runs all three passes as one
//! fold over one block table and the peak's accumulator, so a report
//! decodes each chunk once, builds each event once, and looks its block
//! up once. The breakdown row and the outliers need no fold of their own:
//! [`BreakdownRow::from_peak`](crate::BreakdownRow::from_peak) and
//! [`sift`](crate::sift) derive them from the peak and the ATIs.
//!
//! [`run`] takes any [`ChunkSource`] (a `.ptrc` reader, the serving tier's
//! chunk cache, or an in-memory trace's [`EventSource`]) through the
//! store's one [`scan`]; [`run_trace`] is the in-memory shorthand.

use crate::ati::{AtiDataset, AtiRecord};
use crate::gantt::GanttRect;
use pinpoint_store::{
    scan, ChunkSource, ColumnBatch, EventSource, Predicate, QueryStats, StoreError,
};
use pinpoint_trace::{BlockId, EventKind, MemEvent, MemoryKind, PeakAcc, PeakUsage, Trace};
use std::collections::HashMap;

/// One analysis pass expressed as a chunk-parallel fold.
///
/// The engine decodes a chunk of events, folds them into a fresh
/// per-chunk [`Acc`](Self::Acc) with [`push_batch`](Self::push_batch),
/// then combines per-chunk accumulators **left-to-right in chunk order**
/// with [`merge`](Self::merge), and finally converts the fully merged
/// accumulator into the pass's result with [`finish`](Self::finish).
///
/// # Contract
///
/// * `merge` must be **associative** with `push` order preserved: merging
///   chunk A's accumulator (earlier events) with chunk B's (later events)
///   must equal pushing A's events then B's into one accumulator. The
///   engine always passes the earlier accumulator as `a`.
/// * [`predicate`](Self::predicate) must be **sound**: an event that does
///   not match the predicate must not affect the result. The engine uses
///   it both to prune whole chunks and to skip single events.
pub trait EventFold: Send + Sync {
    /// Per-chunk partial state.
    type Acc: Send;
    /// Final result of the pass.
    type Output;

    /// The events this fold needs to observe (see the trait contract).
    fn predicate(&self) -> Predicate;
    /// Creates an empty accumulator for one chunk.
    fn new_acc(&self) -> Self::Acc;
    /// Folds one event into a chunk accumulator.
    fn push(&self, acc: &mut Self::Acc, e: &MemEvent);
    /// Combines two accumulators; `a` covers strictly earlier events.
    fn merge(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc;
    /// Converts the fully merged accumulator into the pass result.
    fn finish(&self, acc: Self::Acc) -> Self::Output;

    /// Folds one decoded chunk, column-batch style. `pred` is always this
    /// fold's own [`predicate`](Self::predicate); the engine passes it so
    /// overrides don't have to recompute it per chunk.
    ///
    /// The default materializes each event and filters with `pred`.
    /// Folds whose predicate can be tested straight off a column override
    /// this to skip events without ever building a [`MemEvent`] (see
    /// [`PeakFold`], which rules out accesses with one byte test per
    /// event). Overrides must stay bit-identical to the default.
    fn push_batch(&self, acc: &mut Self::Acc, batch: &ColumnBatch, pred: &Predicate) {
        for i in 0..batch.len() {
            let e = batch.event(i);
            if pred.matches_event(&e) {
                self.push(acc, &e);
            }
        }
    }
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
/// the fold's predicate are pruned via the index, each surviving chunk is
/// fetched (read, CRC-checked and decoded, taken from a cache, or filled
/// from memory) exactly once and folded into a fresh accumulator, and the
/// per-chunk accumulators merge in chunk order — bit-identical results at
/// any `threads` count, whatever mix of cache hits serves the batches.
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
    let mut merged: Option<F::Acc> = None;
    let mut events_scanned = 0u64;
    let stats = scan(
        source,
        &pred,
        "engine.prune",
        threads,
        |_, batch| {
            let _fold_span = pinpoint_obs::tracer().span_with("engine.fold", batch.len() as u64);
            let mut acc = fold.new_acc();
            fold.push_batch(&mut acc, batch, &pred);
            (acc, batch.len() as u64)
        },
        |i, (acc, n)| {
            events_scanned += n;
            let _merge_span = pinpoint_obs::tracer().span_with("engine.merge", i as u64);
            merged = Some(match merged.take() {
                None => acc,
                Some(prev) => fold.merge(prev, acc),
            });
        },
    )?;
    let _finish_span = pinpoint_obs::tracer().span("engine.finish");
    // no chunk folded: the fold finishes from an empty accumulator
    let acc = merged.unwrap_or_else(|| fold.new_acc());
    Ok((
        fold.finish(acc),
        FusedStats::from_scan(stats, events_scanned),
    ))
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

/// The meta column's 2-bit kind code: malloc = 0, free = 1, and the two
/// accesses above.
fn is_access(meta: u8) -> bool {
    meta & 0b11 > 1
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

/// Where a [`BlockAcc`] finds a block's entry.
#[derive(Debug)]
enum BlockIndex {
    /// Allocators mint ids in sequence, so a block's slot is found by two
    /// array loads, without hashing: `dir[id >> PAGE_BITS]` names a page,
    /// whose word `id % PAGE` is the slot. Only touched pages exist, so
    /// persistent low ids plus a window of fresh high ones cost a few
    /// pages, not one word per id in between.
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

/// Everything the ATI and Gantt passes keep about one block, mirroring
/// one `Trace::lifetimes()` entry without its access list.
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
    /// `(run, position)` of the placeholder the block's first access left
    /// in the runs: a merge fills it with the bridge from the earlier
    /// side's last access.
    first_access: Option<(u32, u32)>,
    /// Time of the most recent access (the open end of the next interval).
    last_access_ns: Option<u64>,
}

/// A placeholder's `(run, position)`, as [`BlockState::first_access`]
/// keeps it.
fn placeholder_at(run: usize, pos: usize) -> (u32, u32) {
    let fits = |i: usize| u32::try_from(i).expect("runs and runs' lengths stay below 2^32");
    (fits(run), fits(pos))
}

impl BlockState {
    fn new(e: &MemEvent) -> Self {
        BlockState {
            block: e.block,
            time_ns: e.time_ns,
            size: e.size,
            offset: e.offset,
            mem_kind: e.mem_kind,
            mallocd: false,
            free_time_ns: None,
            first_access: None,
            last_access_ns: None,
        }
    }
}

/// One access, at its event position in its run: the interval it closes,
/// or, for the block's first access in the accumulator, a placeholder that
/// stays open until a merge bridges it (or for good, at the block's first
/// access in the trace).
#[derive(Debug, Clone, Copy)]
struct Interval {
    block: BlockId,
    end_time_ns: u64,
    interval_ns: u64,
    closing_kind: EventKind,
    closed: bool,
}

/// The accumulator of [`AtiFold`] and [`GanttFold`], and of a report:
/// one table of per-block state, in first-touch order, and the accesses
/// as one run per chunk, in event order.
///
/// * A block's entry is found through a paged slot index (ids are minted
///   in sequence); an id past the index's bound, which is a small multiple
///   of the blocks held, moves the accumulator to a keyed hash map, so
///   neither crafted ids nor a long trace can drive a large allocation.
/// * A merge touches only the later side's blocks: it fills each one's
///   placeholder with the bridge from the earlier side's last access and
///   appends the later runs, so the running list is never copied.
/// * The runs are in event order, which in a time-ordered trace is
///   `(end_time_ns, block)` order up to accesses of one instant, so
///   [`AtiFold::finish`] sorts only within each instant.
#[derive(Debug)]
pub struct BlockAcc {
    blocks: Vec<BlockState>,
    index: BlockIndex,
    /// One run per chunk; the last one takes pushed accesses.
    runs: Vec<Vec<Interval>>,
    /// Closed intervals across the runs.
    intervals: usize,
    /// Time of the last event seen (lifetime end of never-freed blocks).
    end_time_ns: Option<u64>,
}

impl Default for BlockAcc {
    fn default() -> Self {
        BlockAcc {
            blocks: Vec::new(),
            index: BlockIndex::Slots {
                dir: Vec::new(),
                pages: Vec::new(),
            },
            runs: vec![Vec::new()],
            intervals: 0,
            end_time_ns: None,
        }
    }
}

impl BlockAcc {
    /// Appends `st` as a new block, indexes it, and returns its slot.
    fn insert(&mut self, st: BlockState) -> usize {
        let slot = self.blocks.len();
        self.blocks.push(st);
        if !self.index.insert(st.block, slot, self.blocks.len()) {
            let slots = self.blocks.iter().enumerate().map(|(i, b)| (b.block, i));
            self.index = BlockIndex::Hashed(slots.collect());
        }
        slot
    }

    pub(crate) fn push(&mut self, e: &MemEvent) {
        self.end_time_ns = Some(e.time_ns);
        let slot = match self.index.get(e.block) {
            Some(slot) => slot,
            None => self.insert(BlockState::new(e)),
        };
        let st = &mut self.blocks[slot];
        match e.kind {
            EventKind::Malloc => {
                (st.time_ns, st.size, st.offset) = (e.time_ns, e.size, e.offset);
                st.mem_kind = e.mem_kind;
                st.mallocd = true;
            }
            EventKind::Free => st.free_time_ns = Some(e.time_ns),
            EventKind::Read | EventKind::Write => {
                let r = self.runs.len() - 1;
                let run = &mut self.runs[r];
                let mut iv = Interval {
                    block: e.block,
                    end_time_ns: e.time_ns,
                    interval_ns: 0,
                    closing_kind: e.kind,
                    closed: false,
                };
                match st.last_access_ns {
                    Some(prev) => {
                        iv.interval_ns = e.time_ns - prev;
                        iv.closed = true;
                        self.intervals += 1;
                    }
                    None => st.first_access = Some(placeholder_at(r, run.len())),
                }
                run.push(iv);
                st.last_access_ns = Some(e.time_ns);
            }
        }
    }

    /// Sizes the current run exactly for a decoded chunk's accesses: a
    /// run left to double can cross the allocator's mmap threshold, which
    /// costs more than the fold.
    pub(crate) fn reserve_run(&mut self, batch: &ColumnBatch) {
        let accesses = batch.meta().iter().filter(|&&m| is_access(m)).count();
        let run = self.runs.last_mut().expect("an accumulator has a run");
        run.reserve_exact(accesses);
    }

    fn push_batch(&mut self, batch: &ColumnBatch) {
        self.reserve_run(batch);
        for i in 0..batch.len() {
            self.push(&batch.event(i));
        }
    }

    /// Appends `b`, whose events all follow this accumulator's.
    pub(crate) fn merge(mut self, b: BlockAcc) -> BlockAcc {
        let BlockAcc {
            blocks,
            mut runs,
            intervals,
            end_time_ns,
            ..
        } = b;
        // b's run r becomes run base + r here
        let base = self.runs.len();
        let rebase = |at: Option<(u32, u32)>| {
            at.map(|(r, pos)| placeholder_at(base + r as usize, pos as usize))
        };
        self.intervals += intervals;
        for sb in blocks {
            let Some(slot) = self.index.get(sb.block) else {
                self.insert(BlockState {
                    first_access: rebase(sb.first_access),
                    ..sb
                });
                continue;
            };
            let sa = &mut self.blocks[slot];
            // bridge a's last access to b's first, in b's placeholder
            if let (Some(ta), Some((r, pos))) = (sa.last_access_ns, sb.first_access) {
                let iv = &mut runs[r as usize][pos as usize];
                iv.interval_ns = iv.end_time_ns - ta;
                iv.closed = true;
                self.intervals += 1;
            }
            if sb.mallocd {
                (sa.time_ns, sa.size, sa.offset) = (sb.time_ns, sb.size, sb.offset);
                sa.mem_kind = sb.mem_kind;
                sa.mallocd = true;
            }
            sa.free_time_ns = sb.free_time_ns.or(sa.free_time_ns);
            if sa.first_access.is_none() {
                sa.first_access = rebase(sb.first_access);
            }
            if sb.last_access_ns.is_some() {
                sa.last_access_ns = sb.last_access_ns;
            }
        }
        self.runs.append(&mut runs);
        self.end_time_ns = end_time_ns.or(self.end_time_ns);
        self
    }

    /// The ATI records: the closed intervals, completed with each block's
    /// final size and kind, in `(end_time_ns, block)` order, a block's own
    /// records in event order (what a stable sort of the event-ordered
    /// runs by that key gives).
    pub(crate) fn ati(&self) -> AtiDataset {
        let mut records = Vec::with_capacity(self.intervals);
        for iv in self.runs.iter().flatten().filter(|iv| iv.closed) {
            let slot = self
                .index
                .get(iv.block)
                .expect("an accessed block has an entry");
            let st = &self.blocks[slot];
            records.push(AtiRecord {
                block: iv.block,
                size: st.size,
                mem_kind: st.mem_kind,
                interval_ns: iv.interval_ns,
                end_time_ns: iv.end_time_ns,
                closing_kind: iv.closing_kind,
            });
        }
        if records.is_sorted_by_key(|r| r.end_time_ns) {
            // event order is time order: only one instant's accesses can
            // be out of block order
            for instant in records.chunk_by_mut(|a, b| a.end_time_ns == b.end_time_ns) {
                if !instant.is_sorted_by_key(|r| r.block) {
                    instant.sort_by_key(|r| r.block);
                }
            }
        } else {
            records.sort_by_key(|r| (r.end_time_ns, r.block));
        }
        AtiDataset::from_records(records)
    }

    /// One rectangle per block whose lifetime intersects
    /// `[t_start, t_end]`.
    pub(crate) fn gantt(&self, t_start: u64, t_end: u64) -> Vec<GanttRect> {
        let end = self.end_time_ns.unwrap_or(0);
        let mut rects: Vec<GanttRect> = self
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
            .filter(|r| r.t1_ns >= t_start && r.t0_ns <= t_end)
            .collect();
        // the block breaks (t0_ns, offset) ties; blocks are unique, so the
        // key is total and an unstable sort is deterministic
        rects.sort_unstable_by_key(|r| (r.t0_ns, r.offset, r.block));
        rects
    }
}

/// Access-time-interval extraction as a fold; [`AtiDataset::from_trace`]
/// runs it over an in-memory trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct AtiFold;

impl EventFold for AtiFold {
    type Acc = BlockAcc;
    type Output = AtiDataset;

    /// Everything: accesses close intervals, mallocs set size/kind, and
    /// even a leading free initializes the block's fallback metadata
    /// (mirroring `Trace::lifetimes()`).
    fn predicate(&self) -> Predicate {
        Predicate::any()
    }
    fn new_acc(&self) -> BlockAcc {
        BlockAcc::default()
    }
    fn push(&self, acc: &mut BlockAcc, e: &MemEvent) {
        acc.push(e);
    }
    fn merge(&self, a: BlockAcc, b: BlockAcc) -> BlockAcc {
        a.merge(b)
    }
    /// Completes the closed intervals with each block's final size/kind,
    /// ordered by closing time, then block.
    fn finish(&self, acc: BlockAcc) -> AtiDataset {
        acc.ati()
    }
    /// Every event matches, so none is tested.
    fn push_batch(&self, acc: &mut BlockAcc, batch: &ColumnBatch, _: &Predicate) {
        acc.push_batch(batch);
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
    fn push(&self, acc: &mut PeakAcc, e: &MemEvent) {
        acc.push(e);
    }
    fn merge(&self, a: PeakAcc, b: PeakAcc) -> PeakAcc {
        a.merge(b)
    }
    fn finish(&self, acc: PeakAcc) -> PeakUsage {
        acc.finish()
    }
    /// The meta column's 2-bit kind code rules out accesses with one byte
    /// test, so in access-heavy traces — the paper's regime — the vast
    /// majority of events are skipped without ever being materialized.
    fn push_batch(&self, acc: &mut PeakAcc, batch: &ColumnBatch, pred: &Predicate) {
        for (i, &m) in batch.meta().iter().enumerate() {
            if is_access(m) {
                continue;
            }
            let e = batch.event(i);
            if pred.matches_event(&e) {
                acc.push(&e);
            }
        }
    }
}

/// Gantt-rectangle extraction as a fold, restricted to lifetimes
/// intersecting `[t_start, t_end]`; [`crate::gantt_rects`] runs it over an
/// in-memory trace.
#[derive(Debug, Clone, Copy)]
pub struct GanttFold {
    /// Window start (inclusive).
    pub t_start: u64,
    /// Window end (inclusive).
    pub t_end: u64,
}

impl EventFold for GanttFold {
    type Acc = BlockAcc;
    type Output = Vec<GanttRect>;

    /// Everything: never-freed blocks extend to the trace's last event of
    /// *any* kind, and a block's fallback geometry comes from its first
    /// event of any kind — so even chunks outside the window matter.
    fn predicate(&self) -> Predicate {
        Predicate::any()
    }
    fn new_acc(&self) -> BlockAcc {
        BlockAcc::default()
    }
    fn push(&self, acc: &mut BlockAcc, e: &MemEvent) {
        acc.push(e);
    }
    fn merge(&self, a: BlockAcc, b: BlockAcc) -> BlockAcc {
        a.merge(b)
    }
    fn finish(&self, acc: BlockAcc) -> Vec<GanttRect> {
        acc.gantt(self.t_start, self.t_end)
    }
    /// Every event matches, so none is tested.
    fn push_batch(&self, acc: &mut BlockAcc, batch: &ColumnBatch, _: &Predicate) {
        acc.push_batch(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gantt_rects;
    use crate::report::ReportFold;
    use pinpoint_store::{Batch, ReadPolicy, DEFAULT_CHUNK_EVENTS};
    use pinpoint_trace::Category;

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
        let fold = |events: &[MemEvent]| {
            let mut acc = BlockAcc::default();
            events.iter().for_each(|e| acc.push(e));
            acc
        };
        let whole = fold(t.events());
        let (ati, gantt) = (whole.ati(), whole.gantt(0, u64::MAX));
        let n = t.len();
        for i in 0..=n {
            for j in i..=n {
                let (a, b, c) = (&t.events()[..i], &t.events()[i..j], &t.events()[j..]);
                let left = fold(a).merge(fold(b)).merge(fold(c));
                let right = fold(a).merge(fold(b).merge(fold(c)));
                for (side, acc) in [("left", left), ("right", right)] {
                    assert_eq!(acc.ati(), ati, "{side}, splits at {i} and {j}");
                    assert_eq!(acc.gantt(0, u64::MAX), gantt, "{side}, {i}, {j}");
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
        matches!(acc.index, BlockIndex::Slots { .. })
    }

    #[test]
    fn a_long_traces_chunk_stays_on_the_slot_index() {
        let events = long_trace_chunk();
        let (lo, hi) = (events[0].block.0, events.last().unwrap().block.0);
        assert!(hi - lo > 15_000, "the chunk spans ids {lo}..={hi}");
        let fold = |events: &[MemEvent]| {
            let mut acc = BlockAcc::default();
            events.iter().for_each(|e| acc.push(e));
            acc
        };
        let acc = fold(&events);
        assert!(on_slots(&acc), "{} blocks went hashed", acc.blocks.len());
        // merged with the next chunk of the same shape, it stays there too
        let merged = fold(&events[..100]).merge(fold(&events[100..]));
        assert!(on_slots(&merged));
        assert_eq!(merged.ati(), acc.ati());
        assert_eq!(merged.gantt(0, u64::MAX), acc.gantt(0, u64::MAX));

        // an id past the bound moves the accumulator to the hash map
        // mid-chunk, with the same results
        let mut far = events.clone();
        far[2000].block = BlockId(1 << 40);
        let mut t = Trace::new();
        far.iter().for_each(|e| t.push(e.clone()));
        let acc = fold(&far);
        assert!(!on_slots(&acc));
        assert_eq!(acc.ati(), AtiDataset::from_trace(&t));
        assert_eq!(acc.gantt(0, u64::MAX), gantt_rects(&t, 0, u64::MAX));
    }

    #[test]
    fn empty_trace_is_fine() {
        let (usage, stats) = run_trace(&PeakFold, &Trace::new(), 4);
        assert_eq!(usage.peak_total_bytes, 0);
        assert_eq!(stats.chunks_total, 0);
    }
}
