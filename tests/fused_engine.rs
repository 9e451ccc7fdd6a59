//! Property tests for the fused analysis engine: against seeded
//! pseudo-random traces, a fused multi-pass run — and the report built on
//! it — must be bit-identical to the five standalone passes, at any thread
//! count, for both `.ptrc` stores and in-memory traces — and must decode
//! each chunk exactly once.

use pinpoint::analysis::{
    gantt_rects, sift, AtiDataset, AtiFold, BreakdownFold, BreakdownRow, FusedPipeline, GanttFold,
    OutlierCriteria, OutlierFold, PeakFold, TraceReport,
};
use pinpoint::store::{write_store_chunked, StoreReader};
use pinpoint::tensor::rng::Rng64;
use pinpoint::trace::{BlockId, EventKind, Marker, MemEvent, MemoryKind, Trace};

/// Generates a pseudo-random trace: arbitrary event mixes, shared and
/// fresh blocks, op labels, markers (mirrors `store_roundtrip.rs`).
/// About a third of the traces use sparse block ids that differ only in
/// their high bits, and about a third use coarse times and offsets, so
/// that Gantt `(t0_ns, offset)` ties across blocks occur.
fn arbitrary_trace(rng: &mut Rng64, events: usize) -> Trace {
    let sparse_ids = rng.gen_range_usize(0, 3) == 0;
    let coarse = rng.gen_range_usize(0, 3) == 0;
    let mut t = Trace::new();
    let n_labels = rng.gen_range_usize(0, 8);
    for i in 0..n_labels {
        t.intern_label(&format!("op.{i}"));
    }
    let kinds = [
        EventKind::Malloc,
        EventKind::Free,
        EventKind::Read,
        EventKind::Write,
    ];
    let mem_kinds = [
        MemoryKind::Input,
        MemoryKind::Weight,
        MemoryKind::WeightGrad,
        MemoryKind::OptimizerState,
        MemoryKind::Activation,
        MemoryKind::ActivationGrad,
        MemoryKind::Workspace,
        MemoryKind::Other,
    ];
    let mut time = 0u64;
    for _ in 0..events {
        time += if coarse {
            rng.gen_below(2)
        } else {
            let dt_bits = rng.gen_range_usize(1, 30);
            rng.gen_below(1 << dt_bits)
        };
        let op_label = if n_labels > 0 && rng.gen_bool() {
            Some(rng.gen_range_usize(0, n_labels) as u32)
        } else {
            None
        };
        // few distinct blocks, so intervals and re-mallocs actually happen
        let id = rng.gen_below(12);
        let block = BlockId(if sparse_ids { id << 40 } else { id });
        let size_bits = rng.gen_range_usize(1, 33);
        let offset = if coarse {
            rng.gen_below(4) << 12
        } else {
            let offset_bits = rng.gen_range_usize(1, 38);
            rng.gen_below(1 << offset_bits)
        };
        t.push(MemEvent {
            time_ns: time,
            kind: kinds[rng.gen_range_usize(0, kinds.len())],
            block,
            size: rng.gen_below(1 << size_bits) as usize,
            offset: offset as usize,
            mem_kind: mem_kinds[rng.gen_range_usize(0, mem_kinds.len())],
            op_label,
        });
        if rng.gen_range_usize(0, 25) == 0 {
            t.push_marker(Marker {
                time_ns: time,
                event_index: t.len(),
                label: format!("marker:{time}"),
            });
        }
    }
    t
}

fn store_of(t: &Trace, chunk: usize) -> StoreReader {
    let mut bytes = Vec::new();
    write_store_chunked(t, &mut bytes, chunk).unwrap();
    StoreReader::from_bytes(bytes).unwrap()
}

/// The five standalone sequential passes — the oracle the fused engine
/// must reproduce bit for bit.
struct Oracle {
    ati: AtiDataset,
    peak: pinpoint::trace::PeakUsage,
    breakdown: BreakdownRow,
    gantt: Vec<pinpoint::analysis::GanttRect>,
    outliers: pinpoint::analysis::OutlierReport,
}

fn oracle(t: &Trace, criteria: OutlierCriteria) -> Oracle {
    let ati = AtiDataset::from_trace(t);
    let outliers = sift(&ati, criteria);
    Oracle {
        peak: t.peak_live_bytes(),
        breakdown: BreakdownRow::from_trace("trace", t),
        gantt: gantt_rects(t, 0, t.end_time_ns()),
        outliers,
        ati,
    }
}

#[allow(clippy::type_complexity)]
fn five_fold_pipeline(
    criteria: OutlierCriteria,
    t_end: u64,
) -> (
    FusedPipeline,
    pinpoint::analysis::FoldHandle<AtiDataset>,
    pinpoint::analysis::FoldHandle<pinpoint::trace::PeakUsage>,
    pinpoint::analysis::FoldHandle<BreakdownRow>,
    pinpoint::analysis::FoldHandle<Vec<pinpoint::analysis::GanttRect>>,
    pinpoint::analysis::FoldHandle<pinpoint::analysis::OutlierReport>,
) {
    let mut pipe = FusedPipeline::new();
    let ati = pipe.register(AtiFold);
    let peak = pipe.register(PeakFold);
    let breakdown = pipe.register(BreakdownFold {
        label: "trace".to_string(),
    });
    let gantt = pipe.register(GanttFold { t_start: 0, t_end });
    let outliers = pipe.register(OutlierFold { criteria });
    (pipe, ati, peak, breakdown, gantt, outliers)
}

/// Compares a report with the oracle, field by field.
fn assert_report_matches(got: &TraceReport, want: &Oracle, events: usize, tag: &str) {
    assert_eq!(got.ati, want.ati, "{tag}");
    assert_eq!(got.peak, want.peak, "{tag}");
    assert_eq!(got.breakdown, want.breakdown, "{tag}");
    assert_eq!(got.gantt, want.gantt, "{tag}");
    assert_eq!(got.outliers, want.outliers, "{tag}");
    assert_eq!(got.stats.events_scanned, events as u64, "{tag}");
}

#[test]
fn fused_five_passes_match_standalone_on_arbitrary_traces() {
    let criteria = OutlierCriteria {
        min_ati_ns: 1 << 20,
        min_size_bytes: 1 << 24,
    };
    let mut rng = Rng64::seed_from_u64(0xf05e_d0e5);
    let mut gantt_ties = 0;
    for case in 0..20 {
        let events = rng.gen_range_usize(0, 500);
        let chunk = rng.gen_range_usize(1, 64);
        let t = arbitrary_trace(&mut rng, events);
        let want = oracle(&t, criteria);
        gantt_ties += want
            .gantt
            .windows(2)
            .filter(|w| (w[0].t0_ns, w[0].offset) == (w[1].t0_ns, w[1].offset))
            .count();
        let end = t.end_time_ns();
        for threads in [1, 4] {
            // in-memory fused run
            let (pipe, ati, peak, breakdown, gantt, outliers) = five_fold_pipeline(criteria, end);
            let mut out = pipe.run_trace(&t, threads);
            let tag = format!("case {case}, chunk {chunk}, threads {threads}, in-memory");
            assert_eq!(out.take(ati), want.ati, "{tag}");
            assert_eq!(out.take(peak), want.peak, "{tag}");
            assert_eq!(out.take(breakdown), want.breakdown, "{tag}");
            assert_eq!(out.take(gantt), want.gantt, "{tag}");
            assert_eq!(out.take(outliers), want.outliers, "{tag}");

            // `.ptrc` fused run
            let r = store_of(&t, chunk);
            let (pipe, ati, peak, breakdown, gantt, outliers) = five_fold_pipeline(criteria, end);
            let mut out = pipe.run(&r, threads).unwrap();
            let tag = format!("case {case}, chunk {chunk}, threads {threads}, store");
            assert_eq!(out.take(ati), want.ati, "{tag}");
            assert_eq!(out.take(peak), want.peak, "{tag}");
            assert_eq!(out.take(breakdown), want.breakdown, "{tag}");
            assert_eq!(out.take(gantt), want.gantt, "{tag}");
            assert_eq!(out.take(outliers), want.outliers, "{tag}");

            // the report, which folds three passes and derives two
            let tag = format!("case {case}, chunk {chunk}, threads {threads}, report");
            let d = TraceReport::from_trace(&t, criteria, threads);
            assert_report_matches(&d, &want, t.len(), &format!("{tag} from_trace"));
            let d = TraceReport::from_store(&r, criteria, threads).unwrap();
            assert_report_matches(&d, &want, t.len(), &format!("{tag} from_store"));
        }
    }
    assert!(gantt_ties > 0, "no Gantt (t0_ns, offset) tie was generated");
}

#[test]
fn fused_five_pass_run_decodes_each_chunk_exactly_once() {
    let mut rng = Rng64::seed_from_u64(0x0dec_0de1);
    let t = arbitrary_trace(&mut rng, 600);
    let r = store_of(&t, 32);
    let chunks = r.num_chunks();
    assert!(chunks >= 10, "need many chunks, got {chunks}");
    let criteria = OutlierCriteria {
        min_ati_ns: 1,
        min_size_bytes: 1,
    };
    let (pipe, ati, ..) = five_fold_pipeline(criteria, t.end_time_ns());
    let out = pipe.run(&r, 4).unwrap();
    // five consumers, one decode per chunk — not five
    assert_eq!(r.chunks_decoded(), chunks as u64);
    assert_eq!(out.stats().chunks_decoded, chunks);
    assert_eq!(out.stats().chunks_pruned, 0);
    assert_eq!(out.stats().events_scanned, t.len() as u64);
    let _ = { out }.take(ati);
}

#[test]
fn alloc_only_pipeline_prunes_chunks_but_stays_exact() {
    // only Malloc|Free folds registered -> the union predicate lets the
    // footer index skip access-only chunks, without changing any result
    let mut rng = Rng64::seed_from_u64(0x9a7e_5007);
    for case in 0..10 {
        let t = arbitrary_trace(&mut rng, 400);
        let r = store_of(&t, 16);
        let mut pipe = FusedPipeline::new();
        let peak = pipe.register(PeakFold);
        let breakdown = pipe.register(BreakdownFold {
            label: "trace".to_string(),
        });
        let mut out = pipe.run(&r, 1).unwrap();
        assert_eq!(out.take(peak), t.peak_live_bytes(), "case {case}");
        assert_eq!(
            out.take(breakdown),
            BreakdownRow::from_trace("trace", &t),
            "case {case}"
        );
        let stats = out.stats();
        assert_eq!(
            stats.chunks_decoded + stats.chunks_pruned,
            stats.chunks_total,
            "case {case}"
        );
        assert_eq!(r.chunks_decoded(), stats.chunks_decoded as u64);
    }
}

#[test]
fn peak_only_pipeline_skips_access_only_chunks_through_the_index() {
    // a few mallocs up front, then a long run of reads: most chunks hold
    // no Malloc|Free event, so the peak fold's predicate must prune them
    let mut t = Trace::new();
    let mut time = 0u64;
    for i in 0..4u64 {
        t.record(
            time,
            EventKind::Malloc,
            BlockId(i),
            1 << 20,
            (i as usize) << 20,
            MemoryKind::Activation,
            None,
        );
        time += 3;
    }
    for i in 0..400u64 {
        t.record(
            time,
            EventKind::Read,
            BlockId(i % 4),
            1 << 20,
            ((i % 4) as usize) << 20,
            MemoryKind::Activation,
            None,
        );
        time += 5;
    }
    for threads in [1, 4] {
        let r = store_of(&t, 32);
        let mut pipe = FusedPipeline::new();
        let peak = pipe.register(PeakFold);
        let mut out = pipe.run(&r, threads).unwrap();
        assert_eq!(out.take(peak), t.peak_live_bytes(), "threads {threads}");
        let stats = out.stats();
        assert!(
            stats.chunks_pruned > 0,
            "threads {threads}: access-only chunks must be pruned, stats: {stats:?}"
        );
        assert_eq!(
            stats.chunks_decoded + stats.chunks_pruned,
            stats.chunks_total,
            "threads {threads}"
        );
        assert!(
            r.chunks_decoded() < r.num_chunks() as u64,
            "threads {threads}: {} of {} chunks decoded",
            r.chunks_decoded(),
            r.num_chunks()
        );
    }
}
