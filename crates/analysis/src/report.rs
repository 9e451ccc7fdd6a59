//! [`TraceReport`]: every analysis pass of the paper computed over
//! **one** decode of a trace via the fold engine, plus the canonical
//! JSON renderings shared by the CLI and the `pinpoint-serve` daemon.
//!
//! A report is one fold, whose accumulator holds one block table
//! ([`BlockAcc`]) for the ATI and Gantt passes and the peak sweep's
//! accumulator: each chunk is decoded once, each event is built once and
//! its block looked up once, and the other two results are derived from
//! theirs — the breakdown row from the peak, the outliers by sifting the
//! ATIs. [`TraceReport::from_trace`] and [`TraceReport::from_store`]
//! run the same scan, over an in-memory trace's chunks or a store's, so a
//! report of a trace equals the report of its default-chunked store, scan
//! accounting included.
//!
//! The JSON here is the *wire contract* between the offline tool and the
//! server: both call the same [`report_json`] / [`query_json`] builders,
//! and both feed them results from the same deterministic engine — so a
//! daemon response is byte-identical to the offline subcommand's output
//! on the same store, at any thread count, whatever mix of cache hits
//! served the chunks. To keep that guarantee trivial to audit, the
//! builders emit integers and strings only (no floats), field order is
//! fixed, and every string goes through the in-repo JSON escaper.

use crate::ati::AtiDataset;
use crate::breakdown::BreakdownRow;
use crate::cdf::nearest_rank;
use crate::engine::{run, run_trace, BlockAcc, EventFold, FusedStats};
use crate::gantt::GanttRect;
use crate::outlier::{sift, OutlierCriteria, OutlierReport};
use pinpoint_store::{ChunkSource, ColumnBatch, Predicate, QueryResult, StoreError};
use pinpoint_trace::export::{kind_name, mem_kind_name, write_event_json};
use pinpoint_trace::{json, MemEvent, PeakAcc, PeakUsage, Trace};
use std::fmt::Write as _;

/// Every analysis pass of the paper — ATI, peak, breakdown, Gantt,
/// outliers — computed over **one** decode of the trace by the fold
/// engine (the five standalone passes would each rescan it), with each
/// event built once: the breakdown and the outliers are derived from the
/// peak and the ATIs.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Access-time intervals (Figs. 3–4 input).
    pub ati: AtiDataset,
    /// Peak footprint split by category.
    pub peak: PeakUsage,
    /// Occupation-breakdown row (Figs. 5–7 shape).
    pub breakdown: BreakdownRow,
    /// Gantt rectangles of every block lifetime (Fig. 2).
    pub gantt: Vec<GanttRect>,
    /// Fig. 4 outliers under the given criteria.
    pub outliers: OutlierReport,
    /// Scan accounting: chunks decoded (each exactly once) vs pruned.
    pub stats: FusedStats,
}

/// The fold behind [`TraceReport`]: the ATI and Gantt passes over one
/// [`BlockAcc`], and the peak sweep. Its predicate matches every event,
/// since the ATI and Gantt passes need them all; [`PeakAcc::push`]
/// ignores accesses itself.
#[derive(Debug)]
pub(crate) struct ReportFold;

/// Accumulator of [`ReportFold`]: one block table for the ATI and Gantt
/// passes, so each event costs one block lookup, and the peak's.
#[derive(Debug, Default)]
pub(crate) struct ReportAcc {
    blocks: BlockAcc,
    peak: PeakAcc,
}

impl EventFold for ReportFold {
    type Acc = ReportAcc;
    type Output = (AtiDataset, PeakUsage, Vec<GanttRect>);

    fn predicate(&self) -> Predicate {
        Predicate::any()
    }
    fn new_acc(&self) -> ReportAcc {
        ReportAcc::default()
    }
    fn push(&self, acc: &mut ReportAcc, e: &MemEvent) {
        acc.blocks.push(e);
        acc.peak.push(e);
    }
    fn merge(&self, a: ReportAcc, b: ReportAcc) -> ReportAcc {
        ReportAcc {
            blocks: a.blocks.merge(b.blocks),
            peak: a.peak.merge(b.peak),
        }
    }
    /// The ATI records and the whole trace's Gantt rectangles both come
    /// from the one block table.
    fn finish(&self, acc: ReportAcc) -> Self::Output {
        (
            acc.blocks.ati(),
            acc.peak.finish(),
            acc.blocks.gantt(0, u64::MAX),
        )
    }
    /// Every event matches, so each is built once and pushed into both
    /// parts with no per-event predicate test.
    fn push_batch(&self, acc: &mut ReportAcc, batch: &ColumnBatch, _: &Predicate) {
        acc.blocks.reserve_run(batch);
        for i in 0..batch.len() {
            self.push(acc, &batch.event(i));
        }
    }
}

impl TraceReport {
    /// Runs all five passes over a chunk source in one scan: each chunk
    /// is decoded exactly once and each event built once.
    /// The source is a `.ptrc` reader, or the daemon's chunk cache, which
    /// gives the same report at any `threads` count whatever mix of
    /// cache hits serves the chunks.
    ///
    /// # Errors
    ///
    /// As [`run`].
    pub fn from_store<S: ChunkSource + ?Sized>(
        source: &S,
        criteria: OutlierCriteria,
        threads: usize,
    ) -> Result<Self, StoreError> {
        Ok(Self::derive(run(&ReportFold, source, threads)?, criteria))
    }

    /// Runs all five passes over an in-memory trace in one scan, through
    /// the same chunked scan as [`TraceReport::from_store`] —
    /// bit-identical to it on a store of the same trace.
    pub fn from_trace(trace: &Trace, criteria: OutlierCriteria, threads: usize) -> Self {
        Self::derive(run_trace(&ReportFold, trace, threads), criteria)
    }

    /// Assembles the report from a [`ReportFold`] run, deriving the
    /// breakdown row (labelled `"trace"`) and the outliers.
    fn derive(
        ((ati, peak, gantt), stats): (<ReportFold as EventFold>::Output, FusedStats),
        criteria: OutlierCriteria,
    ) -> Self {
        TraceReport {
            breakdown: BreakdownRow::from_peak("trace", &peak),
            outliers: sift(&ati, criteria),
            ati,
            peak,
            gantt,
            stats,
        }
    }
}

fn write_opt_str(s: &mut String, v: Option<&str>) {
    match v {
        Some(v) => json::write_str(s, v),
        None => s.push_str("null"),
    }
}

fn write_fused_stats(s: &mut String, st: &FusedStats) {
    let _ = write!(
        s,
        "{{\"chunks_total\":{},\"chunks_pruned\":{},\"chunks_pruned_by_label\":{},\
         \"chunks_decoded\":{},\"chunks_skipped\":{},\"events_scanned\":{},\
         \"events_lost\":{},\"first_error\":",
        st.chunks_total,
        st.chunks_pruned,
        st.chunks_pruned_by_label,
        st.chunks_decoded,
        st.chunks_skipped,
        st.events_scanned,
        st.events_lost,
    );
    write_opt_str(s, st.first_error.as_deref());
    s.push('}');
}

/// Reusable scratch for the JSON renderers, mirroring the store's
/// `DecodeScratch` pattern: one long-lived buffer per worker, cleared and
/// refilled on every render, so a steady-state render allocates nothing
/// once the buffer has grown to the working-set size.
///
/// [`RenderScratch::report`] and [`RenderScratch::query`] produce exactly
/// the bytes of [`report_json`] / [`query_json`] — the scratch only
/// changes where the `String` lives, never a byte of the wire contract.
#[derive(Debug, Default)]
pub struct RenderScratch {
    buf: String,
}

impl RenderScratch {
    /// An empty scratch; the buffer grows on first use and is kept.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders a report into the reused buffer; same bytes as
    /// [`report_json`].
    pub fn report(&mut self, d: &TraceReport, max_rects: usize) -> &str {
        self.buf.clear();
        report_json_into(d, max_rects, &mut self.buf);
        &self.buf
    }

    /// Renders a query result into the reused buffer; same bytes as
    /// [`query_json`].
    pub fn query(&mut self, q: &QueryResult, limit: usize) -> &str {
        self.buf.clear();
        query_json_into(q, limit, &mut self.buf);
        &self.buf
    }

    /// Current buffer capacity, for allocation-hygiene assertions.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Renders a [`TraceReport`] as deterministic JSON — the body of the
/// CLI's `report --json` and of the daemon's `POST /stores/{name}/report`
/// response. Integers and strings only; Gantt rectangles are truncated to
/// `max_rects` (with the total always present), everything else is
/// complete.
pub fn report_json(d: &TraceReport, max_rects: usize) -> String {
    let mut s = String::with_capacity(1024 + d.gantt.len().min(max_rects) * 96);
    report_json_into(d, max_rects, &mut s);
    s
}

/// Appends [`report_json`]'s bytes to `s` — the scratch-reuse entry point
/// behind [`RenderScratch`].
pub fn report_json_into(d: &TraceReport, max_rects: usize, s: &mut String) {
    s.push_str("{\"stats\":");
    write_fused_stats(s, &d.stats);
    let _ = write!(
        s,
        ",\"peak\":{{\"total_bytes\":{},\"input_bytes\":{},\"parameter_bytes\":{},\
         \"intermediate_bytes\":{}}}",
        d.peak.peak_total_bytes,
        d.peak.bytes(pinpoint_trace::Category::InputData),
        d.peak.bytes(pinpoint_trace::Category::Parameters),
        d.peak.bytes(pinpoint_trace::Category::Intermediates),
    );
    s.push_str(",\"breakdown\":{\"label\":");
    json::write_str(s, &d.breakdown.label);
    let _ = write!(
        s,
        ",\"peak_bytes\":{},\"input_bytes\":{},\"parameter_bytes\":{},\"intermediate_bytes\":{}}}",
        d.breakdown.peak_bytes,
        d.breakdown.input_bytes,
        d.breakdown.parameter_bytes,
        d.breakdown.intermediate_bytes,
    );
    // read straight off the dataset's sorted cache: a CDF would clone it
    let sorted = d.ati.sorted_intervals_ns();
    let (p50, p90, p99) = if sorted.is_empty() {
        (0, 0, 0)
    } else {
        (
            nearest_rank(sorted, 0.5),
            nearest_rank(sorted, 0.9),
            nearest_rank(sorted, 0.99),
        )
    };
    let _ = write!(
        s,
        ",\"ati\":{{\"count\":{},\"p50_ns\":{p50},\"p90_ns\":{p90},\"p99_ns\":{p99}}}",
        d.ati.len(),
    );
    let _ = write!(
        s,
        ",\"outliers\":{{\"total_behaviors\":{},\"min_ati_ns\":{},\"min_size_bytes\":{},\
         \"outliers\":[",
        d.outliers.total_behaviors,
        d.outliers.criteria.min_ati_ns,
        d.outliers.criteria.min_size_bytes,
    );
    for (i, o) in d.outliers.outliers.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"block\":{},\"size\":{},\"interval_ns\":{},\"end_time_ns\":{},\
             \"mem_kind\":\"{}\",\"closing_kind\":\"{}\"}}",
            o.block.0,
            o.size,
            o.interval_ns,
            o.end_time_ns,
            mem_kind_name(o.mem_kind),
            kind_name(o.closing_kind),
        );
    }
    let _ = write!(s, "]}},\"gantt\":{{\"total\":{},\"rects\":[", d.gantt.len());
    for (i, r) in d.gantt.iter().take(max_rects).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"block\":{},\"t0_ns\":{},\"t1_ns\":{},\"offset\":{},\"size\":{},\
             \"mem_kind\":\"{}\"}}",
            r.block.0,
            r.t0_ns,
            r.t1_ns,
            r.offset,
            r.size,
            mem_kind_name(r.mem_kind),
        );
    }
    s.push_str("]}}");
}

/// Renders a [`QueryResult`] as deterministic JSON — the body of the
/// CLI's `query --json` and of the daemon's `POST /stores/{name}/query`
/// response. Events are truncated to `limit` (the `matched` total is
/// always present) and use the exact trace-export wire layout.
pub fn query_json(q: &QueryResult, limit: usize) -> String {
    let n = q.events.len().min(limit);
    let mut s = String::with_capacity(256 + n * 128);
    query_json_into(q, limit, &mut s);
    s
}

/// Appends [`query_json`]'s bytes to `s` — the scratch-reuse entry point
/// behind [`RenderScratch`].
pub fn query_json_into(q: &QueryResult, limit: usize, s: &mut String) {
    let n = q.events.len().min(limit);
    let st = &q.stats;
    let _ = write!(
        s,
        "{{\"stats\":{{\"chunks_total\":{},\"chunks_pruned\":{},\"chunks_pruned_by_label\":{},\
         \"chunks_decoded\":{},\"chunks_skipped\":{},\"events_lost\":{},\"first_error\":",
        st.chunks_total,
        st.chunks_pruned,
        st.chunks_pruned_by_label,
        st.chunks_decoded,
        st.chunks_skipped,
        st.events_lost,
    );
    write_opt_str(s, st.first_error.as_deref());
    let _ = write!(
        s,
        "}},\"matched\":{},\"returned\":{n},\"events\":[",
        q.events.len()
    );
    for (i, e) in q.events.iter().take(limit).enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_event_json(s, e);
    }
    s.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_store::{write_store_chunked, Predicate, StoreReader};
    use pinpoint_trace::{BlockId, EventKind, MemoryKind};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Allocations made by this thread while counting, if counting.
        static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// The system allocator, counting each thread's allocations while
    /// that thread runs [`allocs_during`].
    struct CountingAlloc;

    // SAFETY: forwards every call unchanged to the system allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get().map(|n| n + 1)));
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    /// Allocations (reallocs included) `f` makes on this thread.
    fn allocs_during(f: impl FnOnce()) -> u64 {
        ALLOCS.with(|c| c.set(Some(0)));
        f();
        ALLOCS.with(|c| c.replace(None)).unwrap_or(0)
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..120u64 {
            let b = BlockId(i % 11);
            t.record(
                i * 50,
                EventKind::Malloc,
                b,
                ((i % 11 + 1) * 1000) as usize,
                (i * 128) as usize,
                MemoryKind::Activation,
                None,
            );
            t.record(
                i * 50 + 20,
                EventKind::Write,
                b,
                ((i % 11 + 1) * 1000) as usize,
                (i * 128) as usize,
                MemoryKind::Activation,
                None,
            );
            if i % 4 == 0 {
                t.record(
                    i * 50 + 40,
                    EventKind::Free,
                    b,
                    ((i % 11 + 1) * 1000) as usize,
                    (i * 128) as usize,
                    MemoryKind::Activation,
                    None,
                );
            }
        }
        t
    }

    fn criteria() -> OutlierCriteria {
        OutlierCriteria {
            min_ati_ns: 100,
            min_size_bytes: 2000,
        }
    }

    #[test]
    fn report_json_is_deterministic_and_truncates_gantt() {
        let t = sample_trace();
        let d = TraceReport::from_trace(&t, criteria(), 1);
        let a = report_json(&d, 5);
        let b = report_json(&TraceReport::from_trace(&t, criteria(), 4), 5);
        assert_eq!(a, b, "thread count must not change a byte");
        assert!(a.contains("\"total\":11"), "{a}");
        assert_eq!(a.matches("\"t0_ns\"").count(), 5, "truncated to 5 rects");
        assert!(a.starts_with("{\"stats\":{\"chunks_total\":"));
    }

    #[test]
    fn render_scratch_matches_allocating_renderers_and_reuses_its_buffer() {
        let t = sample_trace();
        let d = TraceReport::from_trace(&t, criteria(), 1);
        let mut bytes = Vec::new();
        write_store_chunked(&t, &mut bytes, 16).unwrap();
        let r = StoreReader::from_bytes(bytes).unwrap();
        let q = r.query(&Predicate::any(), 1).unwrap();
        let mut scratch = RenderScratch::new();
        assert_eq!(scratch.report(&d, 5), report_json(&d, 5));
        assert_eq!(scratch.query(&q, 7), query_json(&q, 7));
        // steady state: re-rendering the same shapes must not regrow
        let cap = scratch.capacity();
        for _ in 0..4 {
            scratch.report(&d, 5);
            scratch.query(&q, 7);
        }
        assert_eq!(scratch.capacity(), cap, "steady-state render reallocated");
        assert_eq!(scratch.report(&d, 5), report_json(&d, 5));
    }

    #[test]
    fn warm_render_allocates_nothing() {
        let t = sample_trace();
        let d = TraceReport::from_trace(&t, criteria(), 1);
        assert!(!d.ati.is_empty() && !d.outliers.outliers.is_empty());
        let mut scratch = RenderScratch::new();
        let want = scratch.report(&d, 5).to_string();
        let n = allocs_during(|| assert_eq!(scratch.report(&d, 5), want));
        assert_eq!(n, 0, "a warm report render allocated {n} time(s)");
    }

    #[test]
    fn query_json_matches_export_event_layout() {
        let t = sample_trace();
        let mut bytes = Vec::new();
        write_store_chunked(&t, &mut bytes, 16).unwrap();
        let r = StoreReader::from_bytes(bytes).unwrap();
        let q = r
            .query(&Predicate::any().with_kind(EventKind::Free), 1)
            .unwrap();
        let s = query_json(&q, 3);
        assert!(s.contains("\"matched\":30"), "{s}");
        assert!(s.contains("\"returned\":3"), "{s}");
        assert!(
            s.contains("\"kind\":\"Free\",\"block\":0,\"size\":1000"),
            "{s}"
        );
        // the export path renders the identical event bytes
        let mut expect = String::new();
        write_event_json(&mut expect, &q.events[0]);
        assert!(s.contains(&expect), "{s}\nvs\n{expect}");
    }
}
