//! Gantt-chart extraction and fragmentation measurement (Fig. 2).
//!
//! Each rectangle is one block: x-extent from malloc to free (lifetime),
//! y-extent from device offset to offset+size. Blank vertical space between
//! live rectangles is device memory fragmentation.

use crate::engine::{FusedPipeline, GanttFold};
use pinpoint_trace::{BlockId, MemoryKind, Trace};

/// One rectangle of the Gantt chart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GanttRect {
    /// Block identity.
    pub block: BlockId,
    /// Lifetime start (malloc time).
    pub t0_ns: u64,
    /// Lifetime end (free time, or trace end for never-freed blocks).
    pub t1_ns: u64,
    /// Device offset (y start).
    pub offset: usize,
    /// Size in bytes (y extent).
    pub size: usize,
    /// Content tag.
    pub mem_kind: MemoryKind,
}

/// Extracts the Gantt rectangles of all blocks whose lifetime intersects
/// `[t_start, t_end]`, sorted by start time, then offset, then block, by
/// running [`GanttFold`] over the trace.
pub fn gantt_rects(trace: &Trace, t_start: u64, t_end: u64) -> Vec<GanttRect> {
    let mut pipe = FusedPipeline::new();
    let rects = pipe.register(GanttFold { t_start, t_end });
    pipe.run_trace(trace, 1).take(rects)
}

/// Fragmentation of the device address space at instant `t`: the live
/// rectangles at `t`, the gaps between them, and summary ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentationSnapshot {
    /// Time of the snapshot.
    pub time_ns: u64,
    /// Bytes occupied by live blocks.
    pub live_bytes: usize,
    /// Extent of the address space in use (max offset+size of live blocks).
    pub span_bytes: usize,
    /// Gap bytes inside the span (blank y-space in Fig. 2).
    pub gap_bytes: usize,
    /// Number of distinct gaps.
    pub gap_count: usize,
}

impl FragmentationSnapshot {
    /// Fraction of the in-use span that is gaps (0 when nothing is live).
    pub fn gap_fraction(&self) -> f64 {
        if self.span_bytes == 0 {
            0.0
        } else {
            self.gap_bytes as f64 / self.span_bytes as f64
        }
    }
}

/// Computes the fragmentation snapshot at instant `t` from Gantt rects.
pub fn fragmentation_at(rects: &[GanttRect], t: u64) -> FragmentationSnapshot {
    let mut live: Vec<&GanttRect> = rects
        .iter()
        .filter(|r| r.t0_ns <= t && t < r.t1_ns)
        .collect();
    live.sort_by_key(|r| r.offset);
    let mut live_bytes = 0usize;
    let mut gap_bytes = 0usize;
    let mut gap_count = 0usize;
    let mut cursor = None::<usize>;
    let mut span_end = 0usize;
    for r in &live {
        live_bytes += r.size;
        if let Some(end) = cursor {
            if r.offset > end {
                gap_bytes += r.offset - end;
                gap_count += 1;
            }
        }
        cursor = Some(cursor.map_or(r.offset + r.size, |e| e.max(r.offset + r.size)));
        span_end = span_end.max(r.offset + r.size);
    }
    let span_start = live.first().map(|r| r.offset).unwrap_or(0);
    FragmentationSnapshot {
        time_ns: t,
        live_bytes,
        span_bytes: span_end.saturating_sub(span_start),
        gap_bytes,
        gap_count,
    }
}

/// Sweeps fragmentation over `samples` evenly spaced instants of the trace
/// and returns the snapshot with the worst gap fraction.
pub fn worst_fragmentation(trace: &Trace, samples: usize) -> FragmentationSnapshot {
    let rects = gantt_rects(trace, 0, trace.end_time_ns());
    let end = trace.end_time_ns().max(1);
    let mut worst = fragmentation_at(&rects, 0);
    for i in 1..=samples {
        let t = end * i as u64 / samples.max(1) as u64;
        let snap = fragmentation_at(&rects, t);
        if snap.gap_fraction() > worst.gap_fraction() {
            worst = snap;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_trace::EventKind;

    fn block(t: &mut Trace, id: u64, t0: u64, t1: Option<u64>, offset: usize, size: usize) {
        t.record(
            t0,
            EventKind::Malloc,
            BlockId(id),
            size,
            offset,
            MemoryKind::Activation,
            None,
        );
        if let Some(t1) = t1 {
            t.record(
                t1,
                EventKind::Free,
                BlockId(id),
                size,
                offset,
                MemoryKind::Activation,
                None,
            );
        }
    }

    #[test]
    fn rects_cover_window_intersections() {
        let mut t = Trace::new();
        block(&mut t, 0, 0, Some(10), 0, 100);
        block(&mut t, 1, 5, Some(50), 200, 100);
        block(&mut t, 2, 60, None, 0, 100);
        let rects = gantt_rects(&t, 0, 20);
        assert_eq!(rects.len(), 2);
        let rects_all = gantt_rects(&t, 0, u64::MAX);
        assert_eq!(rects_all.len(), 3);
        // never-freed block extends to trace end
        assert_eq!(rects_all[2].t1_ns, t.end_time_ns());
    }

    #[test]
    fn fragmentation_counts_gaps_between_live_blocks() {
        let mut t = Trace::new();
        block(&mut t, 0, 0, Some(1000), 0, 100);
        block(&mut t, 1, 0, Some(1000), 200, 100); // gap of 100 at [100, 200)
        block(&mut t, 2, 0, Some(1000), 300, 100); // contiguous with block 1
        let rects = gantt_rects(&t, 0, u64::MAX);
        let snap = fragmentation_at(&rects, 500);
        assert_eq!(snap.live_bytes, 300);
        assert_eq!(snap.span_bytes, 400);
        assert_eq!(snap.gap_bytes, 100);
        assert_eq!(snap.gap_count, 1);
        assert!((snap.gap_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_instant_has_zero_fragmentation() {
        let mut t = Trace::new();
        block(&mut t, 0, 10, Some(20), 0, 100);
        let rects = gantt_rects(&t, 0, u64::MAX);
        let snap = fragmentation_at(&rects, 5);
        assert_eq!(snap.live_bytes, 0);
        assert_eq!(snap.gap_fraction(), 0.0);
    }

    #[test]
    fn worst_fragmentation_finds_the_gap() {
        let mut t = Trace::new();
        block(&mut t, 0, 0, Some(100), 0, 100);
        block(&mut t, 1, 0, Some(200), 100, 100);
        block(&mut t, 2, 0, Some(200), 200, 100);
        // after t=100 block 0's slot is a hole below blocks 1 and 2? no —
        // hole is *before* the first live block, which span ignores; make a
        // middle hole instead: free block 1 early
        let mut t2 = Trace::new();
        block(&mut t2, 0, 0, Some(200), 0, 100);
        block(&mut t2, 1, 0, Some(100), 100, 100);
        block(&mut t2, 2, 0, Some(200), 200, 100);
        let worst = worst_fragmentation(&t2, 10);
        assert!(worst.gap_fraction() > 0.3, "{worst:?}");
        let _ = t;
    }
}
