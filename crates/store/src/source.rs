//! One chunk scan for every store-backed consumer.
//!
//! A [`ChunkSource`] hands out a store's chunks in decoded form: the
//! [`StoreReader`](crate::StoreReader) reads and decodes into pooled
//! [`DecodeScratch`] buffers, while a serving tier can answer from a
//! cache of shared [`ColumnBatch`]es. [`scan`] is the single loop over
//! such a source. It prunes the chunk index against a [`Predicate`],
//! decodes and maps the surviving chunks on worker threads, folds their
//! results **in chunk order** on the calling thread, and, under
//! [`ReadPolicy::Salvage`], skips corrupt chunks with exact accounting.
//! [`query`] and the fused analysis engine both run on it, so pruning,
//! ordering and loss accounting exist once.

use crate::columns::{ColumnBatch, DecodeScratch};
use crate::error::StoreError;
use crate::format::ChunkMeta;
use crate::reader::{Predicate, QueryResult, QueryStats, ReadPolicy};
use pinpoint_obs::tracer;
use std::ops::Deref;
use std::sync::Arc;

/// A decoded chunk, as [`ChunkSource::fetch`] hands it out.
#[derive(Debug)]
pub enum Batch<'a> {
    /// Decoded into the caller's scratch buffers.
    Scratch(&'a ColumnBatch),
    /// Shared with a cache.
    Shared(Arc<ColumnBatch>),
}

impl Deref for Batch<'_> {
    type Target = ColumnBatch;

    fn deref(&self) -> &ColumnBatch {
        match self {
            Batch::Scratch(b) => b,
            Batch::Shared(b) => b,
        }
    }
}

/// A store's chunks, decoded on demand: what [`scan`] runs over.
///
/// The scan calls [`read`](Self::read) and then [`fetch`](Self::fetch)
/// for each chunk, from worker threads, hence the `Sync` bound.
pub trait ChunkSource: Sync {
    /// The chunk index, in file order.
    fn chunks(&self) -> &[ChunkMeta];

    /// What a scan does with a corrupt chunk.
    fn policy(&self) -> ReadPolicy;

    /// Stages chunk `i`'s raw bytes in `scratch`: the I/O half of a
    /// fetch, timed apart from the decode. Sources that do no I/O of
    /// their own keep the default, which stages nothing.
    ///
    /// # Errors
    ///
    /// I/O errors, which a scan never skips, or
    /// [`StoreError::ChunkOutOfRange`].
    fn read(&self, _i: usize, _scratch: &mut DecodeScratch) -> Result<(), StoreError> {
        Ok(())
    }

    /// Chunk `i`, decoded: from what [`read`](Self::read) staged in
    /// `scratch`, or from a cache.
    ///
    /// # Errors
    ///
    /// A typed corruption error for a damaged chunk; I/O errors and
    /// [`StoreError::Cancelled`], which a scan never skips.
    fn fetch<'s>(&self, i: usize, scratch: &'s mut DecodeScratch) -> Result<Batch<'s>, StoreError>;

    /// Lends the source's decode buffers to one scan. The default lends
    /// none, and the scan starts from empty buffers.
    fn lend_scratch(&self) -> Vec<DecodeScratch> {
        Vec::new()
    }

    /// Takes back the buffers a scan borrowed, each in the slot it was
    /// lent in. The default drops them.
    fn restore_scratch(&self, _pool: Vec<DecodeScratch>) {}
}

/// Runs `map` over every chunk of `source` that the index cannot rule
/// out for `pred`, and hands each result to `fold` **in chunk order**,
/// so the outcome is the same at every `threads` count. `prune_span`
/// names the span around the index pass.
///
/// Chunks go out in waves of `4 × threads`. Each wave position keeps its
/// scratch slot from one scan to the next, so a repeated scan hands
/// every chunk a buffer that already fit it and allocates nothing per
/// chunk. `map` runs on worker threads; `fold` runs on the calling
/// thread. Under [`ReadPolicy::Salvage`] a corrupt chunk is skipped and
/// counted in the returned stats instead of failing the scan.
///
/// # Errors
///
/// I/O errors and [`StoreError::Cancelled`] always; corruption errors
/// under [`ReadPolicy::Strict`].
pub fn scan<S, T, M, F>(
    source: &S,
    pred: &Predicate,
    prune_span: &'static str,
    threads: usize,
    map: M,
    mut fold: F,
) -> Result<QueryStats, StoreError>
where
    S: ChunkSource + ?Sized,
    T: Send,
    M: Fn(usize, &ColumnBatch) -> T + Sync,
    F: FnMut(usize, T),
{
    let index = source.chunks();
    let mut stats = QueryStats {
        chunks_total: index.len(),
        ..QueryStats::default()
    };
    let mut candidates = Vec::new();
    {
        let _prune_span = tracer().span(prune_span);
        for (i, meta) in index.iter().enumerate() {
            if pred.matches_chunk(meta) {
                candidates.push(i);
            } else if pred.pruned_by_label(meta) {
                stats.chunks_pruned_by_label += 1;
            }
        }
    }
    stats.chunks_pruned = index.len() - candidates.len();

    let salvage = source.policy() == ReadPolicy::Salvage;
    let _scan_span = tracer().span_with("store.scan", candidates.len() as u64);
    let mut pool = source.lend_scratch();
    let mut outcome = Ok(());
    'waves: for window in candidates.chunks(threads.max(1) * 4) {
        if pool.len() < window.len() {
            pool.resize_with(window.len(), DecodeScratch::default);
        }
        let items: Vec<_> = window
            .iter()
            .zip(pool.iter_mut())
            .map(|(&i, slot)| (i, std::mem::take(slot)))
            .collect();
        let mapped = pinpoint_parallel::map_ordered(items, threads, |(i, mut scratch)| {
            let res = source.read(i, &mut scratch).and_then(|()| {
                let _chunk_span = tracer().span_with("store.chunk", i as u64);
                let batch = source.fetch(i, &mut scratch)?;
                let _fold_span = tracer().span_with("store.fold", i as u64);
                Ok(map(i, &batch))
            });
            (res, scratch)
        });
        for ((res, scratch), (slot, &i)) in mapped.into_iter().zip(pool.iter_mut().zip(window)) {
            *slot = scratch;
            match res {
                Ok(t) => {
                    stats.chunks_decoded += 1;
                    fold(i, t);
                }
                Err(e) if salvage && e.is_corruption() => {
                    stats.chunks_skipped += 1;
                    stats.events_lost += index[i].count;
                    stats.first_error.get_or_insert_with(|| e.to_string());
                }
                Err(e) => {
                    outcome = Err(e);
                    break 'waves;
                }
            }
        }
    }
    source.restore_scratch(pool);
    outcome.map(|()| stats)
}

/// Runs a filtered query over `source`: prunes chunks with the index,
/// decodes the survivors on `threads` worker threads, and keeps the
/// events `pred` matches, in trace order. The result, salvage
/// accounting included, is the same at every thread count.
///
/// # Errors
///
/// As [`scan`].
pub fn query<S: ChunkSource + ?Sized>(
    source: &S,
    pred: &Predicate,
    threads: usize,
) -> Result<QueryResult, StoreError> {
    let _query_span = tracer().span("store.query");
    let mut events = Vec::new();
    let stats = scan(
        source,
        pred,
        "store.prune",
        threads,
        |_, batch| {
            (0..batch.len())
                .map(|k| batch.event(k))
                .filter(|e| pred.matches_event(e))
                .collect::<Vec<_>>()
        },
        |_, matched| events.extend(matched),
    )?;
    Ok(QueryResult { events, stats })
}
