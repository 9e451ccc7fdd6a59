//! Fused one-decode analysis engine.
//!
//! The paper derives all of its characterization results (Figs. 2–7) from
//! *one* trace, yet running the passes one at a time re-reads that trace
//! once per pass. This module fuses any set of passes over a **single
//! scan**: each pass is an [`EventFold`] (per-chunk `push`, associative
//! `merge`, final `finish`), and a [`FusedPipeline`] registers folds,
//! prunes chunks with the **union** of their predicates, decodes each
//! surviving chunk exactly once, fans chunks out across
//! `pinpoint-parallel` workers, and merges the per-chunk partial states
//! back **in chunk order** — so results are bit-identical at any thread
//! count, the repo's established determinism invariant.
//!
//! The paper's passes ship as three ready-made folds — [`AtiFold`],
//! [`PeakFold`] and [`GanttFold`] — and the public `from_trace` passes
//! ([`AtiDataset::from_trace`], [`crate::gantt_rects`]) are wrappers over
//! them. The breakdown row and the outliers need no fold of their own:
//! [`BreakdownRow::from_peak`](crate::BreakdownRow::from_peak) and
//! [`sift`](crate::sift) derive them from the peak and the ATIs.
//!
//! [`FusedPipeline::run`] takes any [`ChunkSource`] (a `.ptrc` reader, the
//! serving tier's chunk cache, or an in-memory trace's [`EventSource`])
//! through the store's one [`scan`]; [`FusedPipeline::run_trace`] is the
//! in-memory shorthand.

use crate::ati::{AtiDataset, AtiRecord};
use crate::gantt::GanttRect;
use pinpoint_store::{
    scan, ChunkSource, ColumnBatch, EventSource, Predicate, QueryStats, StoreError,
};
use pinpoint_trace::{BlockId, EventKind, MemEvent, MemoryKind, PeakAcc, PeakUsage, Trace};
use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;

/// One analysis pass expressed as a chunk-parallel fold.
///
/// The engine decodes a chunk of events, calls [`push`](Self::push) for
/// each event into a fresh per-chunk [`Acc`](Self::Acc), then combines
/// per-chunk accumulators **left-to-right in chunk order** with
/// [`merge`](Self::merge), and finally converts the fully merged
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
///   it both to prune whole chunks (via the union across registered
///   folds) and to skip single events for this fold.
pub trait EventFold: Send + Sync {
    /// Per-chunk partial state.
    type Acc: Send + 'static;
    /// Final result of the pass.
    type Output: Send + 'static;

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
    /// The default materializes each event and filters with `pred` —
    /// semantically identical to the per-event path. Folds whose
    /// predicate can be tested straight off a column override this to
    /// skip events without ever building a [`MemEvent`] (see
    /// [`PeakFold`], which rules out accesses with one byte test per
    /// event) — and must then also override
    /// [`columnar`](Self::columnar) to return `true`, or the engine's
    /// shared per-event loop is used and the override never runs.
    /// Overrides must stay bit-identical to the default.
    fn push_batch(&self, acc: &mut Self::Acc, batch: &ColumnBatch, pred: &Predicate) {
        for i in 0..batch.len() {
            let e = batch.event(i);
            if pred.matches_event(&e) {
                self.push(acc, &e);
            }
        }
    }

    /// Whether [`push_batch`](Self::push_batch) is overridden with a
    /// columnar implementation. The engine materializes each event
    /// **once per chunk** and shares it among every non-columnar fold in
    /// the pipeline; columnar folds are handed the raw batch instead,
    /// so a report never builds an event more than once.
    fn columnar(&self) -> bool {
        false
    }
}

/// Type-erased accumulator, so one pipeline can carry folds with
/// different `Acc` types.
type DynAcc = Box<dyn Any + Send>;

/// Object-safe mirror of [`EventFold`]; implemented for every fold via
/// the blanket impl below.
trait DynFold: Send + Sync {
    fn predicate_dyn(&self) -> Predicate;
    fn new_acc_dyn(&self) -> DynAcc;
    fn push_dyn(&self, acc: &mut DynAcc, e: &MemEvent);
    fn push_batch_dyn(&self, acc: &mut DynAcc, batch: &ColumnBatch, pred: &Predicate);
    fn columnar_dyn(&self) -> bool;
    fn merge_dyn(&self, a: DynAcc, b: DynAcc) -> DynAcc;
    fn finish_dyn(&self, acc: DynAcc) -> DynAcc;
}

impl<F: EventFold> DynFold for F {
    fn predicate_dyn(&self) -> Predicate {
        self.predicate()
    }
    fn new_acc_dyn(&self) -> DynAcc {
        Box::new(self.new_acc())
    }
    fn push_dyn(&self, acc: &mut DynAcc, e: &MemEvent) {
        let acc = acc.downcast_mut::<F::Acc>().expect("fold acc type");
        self.push(acc, e);
    }
    fn push_batch_dyn(&self, acc: &mut DynAcc, batch: &ColumnBatch, pred: &Predicate) {
        let acc = acc.downcast_mut::<F::Acc>().expect("fold acc type");
        self.push_batch(acc, batch, pred);
    }
    fn columnar_dyn(&self) -> bool {
        self.columnar()
    }
    fn merge_dyn(&self, a: DynAcc, b: DynAcc) -> DynAcc {
        let a = a.downcast::<F::Acc>().expect("fold acc type");
        let b = b.downcast::<F::Acc>().expect("fold acc type");
        Box::new(self.merge(*a, *b))
    }
    fn finish_dyn(&self, acc: DynAcc) -> DynAcc {
        let acc = acc.downcast::<F::Acc>().expect("fold acc type");
        Box::new(self.finish(*acc))
    }
}

/// Typed receipt for a registered fold; redeem it with
/// [`FusedOutputs::take`] after the pipeline runs.
pub struct FoldHandle<O> {
    index: usize,
    _output: PhantomData<fn() -> O>,
}

impl<O> Clone for FoldHandle<O> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<O> Copy for FoldHandle<O> {}

impl<O> fmt::Debug for FoldHandle<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FoldHandle")
            .field("index", &self.index)
            .finish()
    }
}

/// Scan accounting for one fused run — how much pruning and decoding the
/// union predicate bought, and (under
/// [`ReadPolicy::Salvage`](pinpoint_store::ReadPolicy::Salvage)) exactly
/// what corruption cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Chunks in the store (or synthesized from the in-memory trace).
    pub chunks_total: usize,
    /// Chunks actually decoded — each exactly once, however many folds ran.
    pub chunks_decoded: usize,
    /// Chunks skipped via the footer index and the union predicate.
    pub chunks_pruned: usize,
    /// Of the pruned chunks, how many were rejected *specifically* by the
    /// v3 per-chunk op-label bitset — every other zone-map test would
    /// have let them through. Always 0 when no registered fold constrains
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

/// Results of a fused run: one output slot per registered fold, plus
/// scan statistics.
pub struct FusedOutputs {
    outputs: Vec<Option<DynAcc>>,
    stats: FusedStats,
}

impl fmt::Debug for FusedOutputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FusedOutputs")
            .field("outputs", &self.outputs.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FusedOutputs {
    /// Removes and returns the output of the fold behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle came from a different pipeline or the output
    /// was already taken.
    pub fn take<O: 'static>(&mut self, handle: FoldHandle<O>) -> O {
        let boxed = self
            .outputs
            .get_mut(handle.index)
            .and_then(Option::take)
            .expect("fold output present (taken once, handle from this run)");
        *boxed.downcast::<O>().expect("handle output type")
    }

    /// Scan accounting for the run.
    pub fn stats(&self) -> &FusedStats {
        &self.stats
    }
}

/// A set of registered folds run over **one** decode of a trace.
///
/// See the module docs for the full picture; in short:
///
/// ```
/// use pinpoint_analysis::{AtiFold, FusedPipeline, PeakFold};
/// # use pinpoint_trace::Trace;
/// let mut pipe = FusedPipeline::new();
/// let ati = pipe.register(AtiFold);
/// let peak = pipe.register(PeakFold);
/// let mut out = pipe.run_trace(&Trace::new(), 1);
/// let (dataset, usage) = (out.take(ati), out.take(peak));
/// # assert!(dataset.is_empty());
/// # assert_eq!(usage.peak_total_bytes, 0);
/// ```
#[derive(Default)]
pub struct FusedPipeline {
    folds: Vec<Box<dyn DynFold>>,
}

impl fmt::Debug for FusedPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FusedPipeline")
            .field("folds", &self.folds.len())
            .finish()
    }
}

impl FusedPipeline {
    /// An empty pipeline; register folds, then run it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fold; redeem the returned handle for its output after
    /// a run.
    pub fn register<F: EventFold + 'static>(&mut self, fold: F) -> FoldHandle<F::Output> {
        let index = self.folds.len();
        self.folds.push(Box::new(fold));
        FoldHandle {
            index,
            _output: PhantomData,
        }
    }

    /// Number of registered folds.
    pub fn len(&self) -> usize {
        self.folds.len()
    }

    /// True when no folds are registered.
    pub fn is_empty(&self) -> bool {
        self.folds.is_empty()
    }

    /// The union of every registered fold's predicate — the coarsest
    /// filter that is still sound for all of them, used for chunk-index
    /// pruning. Returns the match-everything predicate when the pipeline
    /// is empty.
    pub fn union_predicate(&self) -> Predicate {
        self.folds
            .iter()
            .map(|f| f.predicate_dyn())
            .reduce(|a, b| a.union(&b))
            .unwrap_or_else(Predicate::any)
    }

    /// Runs every registered fold over a chunk source in **one pass**:
    /// chunks not matching the union predicate are pruned via the index,
    /// each surviving chunk is fetched (read, CRC-checked and decoded,
    /// taken from a cache, or filled from memory) exactly once, and
    /// per-chunk partial states merge in chunk order — bit-identical
    /// results at any `threads` count, whatever mix of cache hits serves
    /// the batches.
    ///
    /// Under the source's
    /// [`ReadPolicy::Salvage`](pinpoint_store::ReadPolicy::Salvage),
    /// corrupt chunks are dropped with exact accounting (`chunks_skipped`,
    /// `events_lost`, `first_error`) instead of failing the run; the fold
    /// results are then bit-identical — at any thread count — to a run
    /// over a store containing only the surviving chunks.
    ///
    /// # Errors
    ///
    /// I/O errors and [`StoreError::Cancelled`] always; corruption errors
    /// under [`ReadPolicy::Strict`](pinpoint_store::ReadPolicy::Strict).
    pub fn run<S: ChunkSource + ?Sized>(
        &self,
        source: &S,
        threads: usize,
    ) -> Result<FusedOutputs, StoreError> {
        let _run_span = pinpoint_obs::tracer().span_with("engine.run", self.folds.len() as u64);
        let preds: Vec<Predicate> = self.folds.iter().map(|f| f.predicate_dyn()).collect();
        let folds = &self.folds;
        let mut merged: Option<Vec<DynAcc>> = None;
        let mut events_scanned = 0u64;
        // an empty pipeline feeds no fold, so its empty kind mask prunes
        // every chunk instead of decoding them all for nothing
        let pred = if folds.is_empty() {
            Predicate {
                kind_mask: Some(0),
                ..Predicate::any()
            }
        } else {
            self.union_predicate()
        };
        let stats = scan(
            source,
            &pred,
            "engine.prune",
            threads,
            |_, batch| (fold_chunk_batch(folds, &preds, batch), batch.len() as u64),
            |i, (accs, n)| {
                events_scanned += n;
                let _merge_span = pinpoint_obs::tracer().span_with("engine.merge", i as u64);
                merged = merge_accs(folds, merged.take(), accs);
            },
        )?;
        let _finish_span = pinpoint_obs::tracer().span("engine.finish");
        // no chunk folded: every fold finishes from an empty accumulator
        let accs = merged.unwrap_or_else(|| folds.iter().map(|f| f.new_acc_dyn()).collect());
        let outputs = folds
            .iter()
            .zip(accs)
            .map(|(f, a)| Some(f.finish_dyn(a)))
            .collect();
        Ok(FusedOutputs {
            outputs,
            stats: FusedStats::from_scan(stats, events_scanned),
        })
    }

    /// [`run`](Self::run) over an in-memory trace's [`EventSource`],
    /// whose fetches never fail.
    pub fn run_trace(&self, trace: &Trace, threads: usize) -> FusedOutputs {
        self.run(&EventSource::new(trace.events()), threads)
            .expect("in-memory chunks never fail to fetch")
    }
}

/// Folds one decoded column batch into fresh per-fold accumulators.
///
/// Columnar folds consume the batch directly (never building an event);
/// all remaining folds share a single materialization loop, so each
/// event is built at most once per chunk however many folds registered.
fn fold_chunk_batch(
    folds: &[Box<dyn DynFold>],
    preds: &[Predicate],
    batch: &ColumnBatch,
) -> Vec<DynAcc> {
    let _fold_span = pinpoint_obs::tracer().span_with("engine.fold", batch.len() as u64);
    let mut accs: Vec<DynAcc> = folds.iter().map(|f| f.new_acc_dyn()).collect();
    let mut shared: Vec<usize> = Vec::new();
    for (j, fold) in folds.iter().enumerate() {
        if fold.columnar_dyn() {
            fold.push_batch_dyn(&mut accs[j], batch, &preds[j]);
        } else {
            shared.push(j);
        }
    }
    if !shared.is_empty() {
        for i in 0..batch.len() {
            let e = batch.event(i);
            for &j in &shared {
                if preds[j].matches_event(&e) {
                    folds[j].push_dyn(&mut accs[j], &e);
                }
            }
        }
    }
    accs
}

/// In-order reduce step: merge the next chunk's accumulators into the
/// running ones (earlier chunks on the left).
fn merge_accs(
    folds: &[Box<dyn DynFold>],
    acc: Option<Vec<DynAcc>>,
    next: Vec<DynAcc>,
) -> Option<Vec<DynAcc>> {
    Some(match acc {
        None => next,
        Some(prev) => prev
            .into_iter()
            .zip(next)
            .zip(folds)
            .map(|((a, b), f)| f.merge_dyn(a, b))
            .collect(),
    })
}

// ---------------------------------------------------------------------------
// The paper's passes as folds.
// ---------------------------------------------------------------------------

/// Per-block state the ATI fold keeps — O(1) per live block, not every
/// access (this is what bounds the fold's memory on a store scan).
#[derive(Debug, Clone, Copy)]
struct AtiBlockState {
    /// Size/kind fallback from the block's first event of any kind
    /// (mirrors `Trace::lifetimes()` entry initialization).
    fallback_size: usize,
    fallback_kind: MemoryKind,
    /// Last malloc's (size, kind); overrides the fallback.
    malloc_meta: Option<(usize, MemoryKind)>,
    /// First access in this accumulator's span (bridge target on merge).
    first_access: Option<(u64, EventKind)>,
    /// Most recent access (the open end of the next interval).
    last_access: Option<(u64, EventKind)>,
}

/// An interval observed before the block's final size/kind are known;
/// completed into an [`AtiRecord`] at `finish`.
#[derive(Debug, Clone, Copy)]
struct PendingAti {
    block: BlockId,
    interval_ns: u64,
    end_time_ns: u64,
    closing_kind: EventKind,
}

/// Accumulator of [`AtiFold`]: per-block scalar state plus the intervals
/// closed so far, in per-block chronological order. The block map is
/// hashed (std's keyed hasher, so crafted ids cannot collide it into one
/// bucket); no output order depends on its iteration order.
#[derive(Debug, Default)]
pub struct AtiAcc {
    blocks: HashMap<BlockId, AtiBlockState>,
    pending: Vec<PendingAti>,
}

/// Access-time-interval extraction as a fold; [`AtiDataset::from_trace`]
/// runs it over an in-memory trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct AtiFold;

impl EventFold for AtiFold {
    type Acc = AtiAcc;
    type Output = AtiDataset;

    /// Everything: accesses close intervals, mallocs set size/kind, and
    /// even a leading free initializes the block's fallback metadata
    /// (mirroring `Trace::lifetimes()`).
    fn predicate(&self) -> Predicate {
        Predicate::any()
    }
    fn new_acc(&self) -> AtiAcc {
        AtiAcc::default()
    }
    fn push(&self, acc: &mut AtiAcc, e: &MemEvent) {
        let st = acc.blocks.entry(e.block).or_insert(AtiBlockState {
            fallback_size: e.size,
            fallback_kind: e.mem_kind,
            malloc_meta: None,
            first_access: None,
            last_access: None,
        });
        match e.kind {
            EventKind::Malloc => st.malloc_meta = Some((e.size, e.mem_kind)),
            EventKind::Free => {}
            EventKind::Read | EventKind::Write => {
                if let Some((prev, _)) = st.last_access {
                    acc.pending.push(PendingAti {
                        block: e.block,
                        interval_ns: e.time_ns - prev,
                        end_time_ns: e.time_ns,
                        closing_kind: e.kind,
                    });
                }
                if st.first_access.is_none() {
                    st.first_access = Some((e.time_ns, e.kind));
                }
                st.last_access = Some((e.time_ns, e.kind));
            }
        }
    }
    fn merge(&self, mut a: AtiAcc, b: AtiAcc) -> AtiAcc {
        let AtiAcc {
            blocks: b_blocks,
            pending: b_pending,
        } = b;
        for (block, sb) in b_blocks {
            match a.blocks.entry(block) {
                Entry::Vacant(v) => {
                    v.insert(sb);
                }
                Entry::Occupied(mut o) => {
                    let sa = o.get_mut();
                    // Bridge the interval spanning the two accumulators'
                    // event spans: A's last access → B's first.
                    if let (Some((ta, _)), Some((tb, kb))) = (sa.last_access, sb.first_access) {
                        a.pending.push(PendingAti {
                            block,
                            interval_ns: tb - ta,
                            end_time_ns: tb,
                            closing_kind: kb,
                        });
                    }
                    sa.malloc_meta = sb.malloc_meta.or(sa.malloc_meta);
                    if sa.first_access.is_none() {
                        sa.first_access = sb.first_access;
                    }
                    if sb.last_access.is_some() {
                        sa.last_access = sb.last_access;
                    }
                }
            }
        }
        // A's intervals, then the bridges (closed by B's first accesses,
        // at most one per block, in map order), then B's: per-block
        // chronological order is preserved, which the final stable
        // (end_time_ns, block) sort relies on to give every chunking the
        // same record order.
        a.pending.extend(b_pending);
        a
    }
    /// Completes pending intervals with each block's final size/kind and
    /// orders the records by closing time, then block.
    fn finish(&self, acc: AtiAcc) -> AtiDataset {
        let mut records: Vec<AtiRecord> = acc
            .pending
            .iter()
            .map(|p| {
                let st = &acc.blocks[&p.block];
                let (size, mem_kind) = st
                    .malloc_meta
                    .unwrap_or((st.fallback_size, st.fallback_kind));
                AtiRecord {
                    block: p.block,
                    size,
                    mem_kind,
                    interval_ns: p.interval_ns,
                    end_time_ns: p.end_time_ns,
                    closing_kind: p.closing_kind,
                }
            })
            .collect();
        records.sort_by_key(|r| (r.end_time_ns, r.block));
        AtiDataset::from_records(records)
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
    /// The meta column's 2-bit kind code (malloc = 0, free = 1) rules out
    /// accesses with one byte test, so in access-heavy traces — the
    /// paper's regime — the vast majority of events are skipped without
    /// ever being materialized.
    fn push_batch(&self, acc: &mut PeakAcc, batch: &ColumnBatch, pred: &Predicate) {
        for (i, &m) in batch.meta().iter().enumerate() {
            if m & 0b11 > 1 {
                continue;
            }
            let e = batch.event(i);
            if pred.matches_event(&e) {
                acc.push(&e);
            }
        }
    }
    fn columnar(&self) -> bool {
        true
    }
}

/// Per-block state of the Gantt fold, mirroring one
/// `Trace::lifetimes()` entry without the access list.
#[derive(Debug, Clone, Copy)]
struct GanttBlockState {
    /// (time, size, offset, kind) of the block's first event of any kind.
    first: (u64, usize, usize, MemoryKind),
    /// Last malloc's (time, size, offset, kind); overrides `first`.
    malloc: Option<(u64, usize, usize, MemoryKind)>,
    /// Last free's time.
    free_time_ns: Option<u64>,
}

/// Accumulator of [`GanttFold`]. The block map is hashed like
/// [`AtiAcc`]'s; `finish` sorts by an explicit key.
#[derive(Debug, Default)]
pub struct GanttAcc {
    blocks: HashMap<BlockId, GanttBlockState>,
    /// Time of the last event seen (lifetime end of never-freed blocks).
    end_time_ns: Option<u64>,
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
    type Acc = GanttAcc;
    type Output = Vec<GanttRect>;

    /// Everything: never-freed blocks extend to the trace's last event of
    /// *any* kind, and a block's fallback geometry comes from its first
    /// event of any kind — so even chunks outside the window matter.
    fn predicate(&self) -> Predicate {
        Predicate::any()
    }
    fn new_acc(&self) -> GanttAcc {
        GanttAcc::default()
    }
    fn push(&self, acc: &mut GanttAcc, e: &MemEvent) {
        acc.end_time_ns = Some(e.time_ns);
        let st = acc.blocks.entry(e.block).or_insert(GanttBlockState {
            first: (e.time_ns, e.size, e.offset, e.mem_kind),
            malloc: None,
            free_time_ns: None,
        });
        match e.kind {
            EventKind::Malloc => st.malloc = Some((e.time_ns, e.size, e.offset, e.mem_kind)),
            EventKind::Free => st.free_time_ns = Some(e.time_ns),
            EventKind::Read | EventKind::Write => {}
        }
    }
    fn merge(&self, mut a: GanttAcc, b: GanttAcc) -> GanttAcc {
        for (block, sb) in b.blocks {
            match a.blocks.entry(block) {
                Entry::Vacant(v) => {
                    v.insert(sb);
                }
                Entry::Occupied(mut o) => {
                    let sa = o.get_mut();
                    sa.malloc = sb.malloc.or(sa.malloc);
                    sa.free_time_ns = sb.free_time_ns.or(sa.free_time_ns);
                }
            }
        }
        a.end_time_ns = b.end_time_ns.or(a.end_time_ns);
        a
    }
    fn finish(&self, acc: GanttAcc) -> Vec<GanttRect> {
        let end = acc.end_time_ns.unwrap_or(0);
        let mut rects: Vec<GanttRect> = acc
            .blocks
            .iter()
            .map(|(block, st)| {
                let (t0_ns, size, offset, mem_kind) = st.malloc.unwrap_or(st.first);
                GanttRect {
                    block: *block,
                    t0_ns,
                    t1_ns: st.free_time_ns.unwrap_or(end),
                    offset,
                    size,
                    mem_kind,
                }
            })
            .filter(|r| r.t1_ns >= self.t_start && r.t0_ns <= self.t_end)
            .collect();
        // the block breaks (t0_ns, offset) ties; blocks are unique, so the
        // key is total and an unstable sort is deterministic
        rects.sort_unstable_by_key(|r| (r.t0_ns, r.offset, r.block));
        rects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut pipe = FusedPipeline::new();
        let peak = pipe.register(PeakFold);
        for threads in [1, 4] {
            let mut out = pipe.run_trace(&t, threads);
            assert!(out.stats().chunks_total > 1);
            assert_eq!(out.take(peak), want, "run_trace, threads={threads}");
            let mut out = pipe.run(&reader, threads).unwrap();
            assert_eq!(out.take(peak), want, "store, threads={threads}");
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
        let mut pipe = FusedPipeline::new();
        let peak = pipe.register(PeakFold);
        let ati = pipe.register(AtiFold);

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
                    let run = pipe.run(&source, threads);
                    if policy == ReadPolicy::Strict || cancel {
                        let want = if cancel { "cancelled" } else { "rotted" };
                        for err in [q.unwrap_err(), run.unwrap_err()] {
                            assert!(err.to_string().contains(want), "{case}: {err}");
                        }
                        continue;
                    }
                    let (q, mut out) = (q.unwrap(), run.unwrap());
                    let first_error = Some(format!("corrupt store: chunk {broken} rotted"));
                    assert_eq!(q.events, survivors.events(), "{case}");
                    assert_eq!(q.stats.chunks_skipped, 1, "{case}");
                    assert_eq!(q.stats.events_lost, lost, "{case}");
                    assert_eq!(q.stats.first_error, first_error, "{case}");
                    let stats = out.stats().clone();
                    assert_eq!(stats.chunks_skipped, 1, "{case}");
                    assert_eq!(stats.events_lost, lost, "{case}");
                    assert_eq!(stats.first_error, first_error, "{case}");
                    assert_eq!(stats.chunks_decoded, chunks.len() - 1, "{case}");
                    assert_eq!(out.take(peak), survivors.peak_live_bytes(), "{case}");
                    assert_eq!(out.take(ati), AtiDataset::from_trace(&survivors), "{case}");
                }
            }
        }
    }

    #[test]
    fn union_predicate_is_the_hull_of_registered_folds() {
        let mut pipe = FusedPipeline::new();
        pipe.register(PeakFold);
        pipe.register(PeakFold);
        // alloc-only folds keep the alloc-only mask...
        let u = pipe.union_predicate();
        assert_eq!(u, PeakFold.predicate());
        // ...until an everything-fold joins.
        pipe.register(AtiFold);
        assert_eq!(pipe.union_predicate(), Predicate::any());
    }

    #[test]
    fn empty_pipeline_and_empty_trace_are_fine() {
        let pipe = FusedPipeline::new();
        let out = pipe.run_trace(&Trace::new(), 4);
        assert_eq!(out.stats().chunks_total, 0);

        // over a store, an empty pipeline prunes every chunk
        let mut bytes = Vec::new();
        pinpoint_store::write_store_chunked(&mixed_trace(), &mut bytes, 16).unwrap();
        let reader = pinpoint_store::StoreReader::from_bytes(bytes).unwrap();
        let out = pipe.run(&reader, 4).unwrap();
        assert!(out.stats().chunks_total > 1);
        assert_eq!(out.stats().chunks_pruned, out.stats().chunks_total);
        assert_eq!(reader.chunks_decoded(), 0);

        let mut pipe = FusedPipeline::new();
        let peak = pipe.register(PeakFold);
        let mut out = pipe.run_trace(&Trace::new(), 4);
        assert_eq!(out.take(peak).peak_total_bytes, 0);
    }
}
