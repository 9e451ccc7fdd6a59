//! Property tests for the fused analysis engine: against seeded
//! pseudo-random traces, every pass — the folds a report runs, the report
//! built on them, and the public `from_trace` wrappers over the folds —
//! must equal the brute-force oracles in `tests/oracle`, field by field,
//! at any thread count, for both `.ptrc` stores and in-memory traces; and
//! a fused run must decode each chunk exactly once and prune chunks its
//! fold does not need.

mod oracle;

use pinpoint::analysis::{
    gantt_rects, run, run_trace, sift, AtiDataset, AtiFold, AtiRecord, BreakdownRow, GanttFold,
    GanttRect, OutlierCriteria, OutlierReport, PeakFold, TraceReport,
};
use pinpoint::store::{write_store_chunked, StoreReader, DEFAULT_CHUNK_EVENTS};
use pinpoint::tensor::rng::Rng64;
use pinpoint::trace::{
    BlockId, Category, EventKind, Marker, MemEvent, MemoryKind, PeakUsage, Trace,
};

/// Block ids from here up lie past the fold's slot index bound for any
/// trace this small, so a chunk that meets one leaves the index for a
/// hash map.
const FAR_ID: u64 = 1 << 40;

/// Generates a pseudo-random trace: arbitrary event mixes, shared and
/// fresh blocks, op labels, markers (mirrors `store_roundtrip.rs`).
/// Each of four modes is drawn for about a third of the traces:
/// * sparse block ids that differ only in their high bits;
/// * coarse times, offsets and sizes, so that Gantt `(t0_ns, offset)`
///   ties across blocks occur, and the live total reaches its peak again
///   with another category split;
/// * small ids mixed with rare ids past the slot bound, so a chunk leaves
///   the slot index mid-chunk and merges with chunks that stayed on it;
/// * two time-ordered streams over disjoint blocks, interleaved, so global
///   time goes backwards while each block's own events stay in order.
fn arbitrary_trace(rng: &mut Rng64, events: usize) -> Trace {
    let sparse_ids = rng.gen_range_usize(0, 3) == 0;
    let coarse = rng.gen_range_usize(0, 3) == 0;
    let far_ids = rng.gen_range_usize(0, 3) == 0;
    let two_clocks = rng.gen_range_usize(0, 3) == 0;
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
    // one clock per stream; a single stream unless `two_clocks`
    let mut clocks = [0u64; 2];
    for _ in 0..events {
        let stream = usize::from(two_clocks && rng.gen_bool());
        clocks[stream] += if coarse {
            rng.gen_below(2)
        } else {
            let dt_bits = rng.gen_range_usize(1, 30);
            rng.gen_below(1 << dt_bits)
        };
        let time = clocks[stream];
        let op_label = if n_labels > 0 && rng.gen_bool() {
            Some(rng.gen_range_usize(0, n_labels) as u32)
        } else {
            None
        };
        // few distinct blocks, so intervals and re-mallocs actually happen;
        // with two clocks, even ids belong to stream 0 and odd to stream 1
        let id = if two_clocks {
            2 * rng.gen_below(6) + stream as u64
        } else {
            rng.gen_below(12)
        };
        let block = BlockId(if sparse_ids {
            id << 40
        } else if far_ids && rng.gen_range_usize(0, 40) == 0 {
            FAR_ID + id
        } else {
            id
        });
        let size = if coarse {
            rng.gen_below(4) << 12
        } else {
            let size_bits = rng.gen_range_usize(1, 33);
            rng.gen_below(1 << size_bits)
        };
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
            size: size as usize,
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

/// Whether, cut into chunks of `chunk` events, the trace has both a chunk
/// that meets a far id after a small one (it leaves the slot index
/// mid-chunk) and a chunk with small ids only (it stays on the index).
fn leaves_the_index_mid_chunk(t: &Trace, chunk: usize) -> bool {
    let (mut left, mut stayed) = (false, false);
    for c in t.events().chunks(chunk) {
        let first_far = c.iter().position(|e| e.block.0 >= FAR_ID);
        left |= first_far.is_some_and(|i| i > 0);
        stayed |= first_far.is_none();
    }
    left && stayed
}

/// Neighbouring events whose time goes backwards.
fn backward_steps(t: &Trace) -> usize {
    let e = t.events();
    e.windows(2).filter(|w| w[1].time_ns < w[0].time_ns).count()
}

fn store_of(t: &Trace, chunk: usize) -> StoreReader {
    let mut bytes = Vec::new();
    write_store_chunked(t, &mut bytes, chunk).unwrap();
    StoreReader::from_bytes(bytes).unwrap()
}

/// The five passes, as the oracles compute them.
struct Oracle {
    ati: Vec<AtiRecord>,
    sorted_intervals: Vec<u64>,
    peak: PeakUsage,
    breakdown: BreakdownRow,
    gantt: Vec<GanttRect>,
    outliers: OutlierReport,
}

fn oracle(t: &Trace, criteria: OutlierCriteria) -> Oracle {
    let ati = oracle::ati_records(t);
    Oracle {
        sorted_intervals: oracle::sorted_intervals(&ati),
        peak: oracle::peak(t),
        breakdown: oracle::breakdown("trace", t),
        // a report's Gantt window is the whole trace
        gantt: oracle::gantt(t, 0, u64::MAX),
        outliers: oracle::outliers(&ati, criteria),
        ati,
    }
}

fn assert_ati_matches(got: &AtiDataset, want: &Oracle, tag: &str) {
    assert_eq!(got.records(), want.ati, "{tag}");
    assert_eq!(got.sorted_intervals_ns(), want.sorted_intervals, "{tag}");
}

/// Compares a report with the oracle, field by field.
fn assert_report_matches(got: &TraceReport, want: &Oracle, events: usize, tag: &str) {
    assert_ati_matches(&got.ati, want, tag);
    assert_eq!(got.peak, want.peak, "{tag}");
    assert_eq!(got.breakdown, want.breakdown, "{tag}");
    assert_eq!(got.gantt, want.gantt, "{tag}");
    assert_eq!(got.outliers, want.outliers, "{tag}");
    assert_eq!(got.stats.events_scanned, events as u64, "{tag}");
}

/// Malloc events after the first peak instant at which the live total
/// equals the peak again with another category split: the ties the
/// earliest-maximum rule decides.
fn peak_ties(t: &Trace, want: &PeakUsage) -> usize {
    let mut live = [0i64; 3];
    let mut split_at_first_peak = None;
    let mut ties = 0;
    for e in t.events() {
        let c = Category::ALL
            .iter()
            .position(|&c| c == e.mem_kind.category())
            .expect("a listed category");
        match e.kind {
            EventKind::Malloc => live[c] += e.size as i64,
            EventKind::Free => live[c] -= e.size as i64,
            EventKind::Read | EventKind::Write => continue,
        }
        let total: i64 = live.iter().sum();
        if e.kind == EventKind::Malloc && total > 0 && total as u64 == want.peak_total_bytes {
            match split_at_first_peak {
                None => split_at_first_peak = Some(live),
                Some(first) => ties += usize::from(first != live),
            }
        }
    }
    ties
}

#[test]
fn fused_five_passes_match_standalone_on_arbitrary_traces() {
    let criteria = OutlierCriteria {
        min_ati_ns: 1 << 20,
        min_size_bytes: 1 << 24,
    };
    let mut rng = Rng64::seed_from_u64(0xf05e_d0e5);
    let (mut gantt_ties, mut tied_peaks) = (0, 0);
    let (mut mid_chunk_exits, mut backward) = (0, 0);
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
        tied_peaks += peak_ties(&t, &want.peak);
        mid_chunk_exits += usize::from(leaves_the_index_mid_chunk(&t, 7));
        backward += backward_steps(&t);

        // the public in-memory passes, each a wrapper over its fold
        let tag = format!("case {case}, from_trace");
        let ati = AtiDataset::from_trace(&t);
        assert_ati_matches(&ati, &want, &tag);
        assert_eq!(t.peak_live_bytes(), want.peak, "{tag}");
        assert_eq!(
            BreakdownRow::from_trace("trace", &t),
            want.breakdown,
            "{tag}"
        );
        assert_eq!(gantt_rects(&t, 0, u64::MAX), want.gantt, "{tag}");
        assert_eq!(sift(&ati, criteria), want.outliers, "{tag}");
        for (t0, t1) in [
            (0, t.end_time_ns()),
            (t.end_time_ns() / 3, t.end_time_ns() / 2),
        ] {
            assert_eq!(gantt_rects(&t, t0, t1), oracle::gantt(&t, t0, t1), "{tag}");
        }

        for threads in [1, 4] {
            // the report's folds over both sources, the breakdown and the
            // outliers derived from their outputs
            let tag = format!("case {case}, threads {threads}, report");
            let d = TraceReport::from_trace(&t, criteria, threads);
            assert_report_matches(&d, &want, t.len(), &format!("{tag} from_trace"));
            for chunk in [chunk, 1, 7, DEFAULT_CHUNK_EVENTS] {
                let tag = format!("{tag} from_store, chunk {chunk}");
                let r = store_of(&t, chunk);
                let d = TraceReport::from_store(&r, criteria, threads).unwrap();
                assert_report_matches(&d, &want, t.len(), &tag);
                let (ati, _) = run(&AtiFold, &r, threads).unwrap();
                assert_ati_matches(&ati, &want, &tag);
                let whole = GanttFold {
                    t_start: 0,
                    t_end: u64::MAX,
                };
                assert_eq!(run(&whole, &r, threads).unwrap().0, want.gantt, "{tag}");
            }
        }
    }
    assert!(gantt_ties > 0, "no Gantt (t0_ns, offset) tie was generated");
    assert!(tied_peaks > 0, "no peak was reached twice with two splits");
    assert!(
        mid_chunk_exits > 0,
        "no chunk left the slot index mid-chunk"
    );
    assert!(backward > 0, "no trace went backwards in time");
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
    let d = TraceReport::from_store(&r, criteria, 4).unwrap();
    // five passes from three folds, one decode per chunk — not five
    assert_eq!(r.chunks_decoded(), chunks as u64);
    assert_eq!(d.stats.chunks_decoded, chunks);
    assert_eq!(d.stats.chunks_pruned, 0);
    assert_eq!(d.stats.events_scanned, t.len() as u64);
}

#[test]
fn alloc_only_pipeline_prunes_chunks_but_stays_exact() {
    // a Malloc|Free-only fold -> its predicate lets the footer index skip
    // access-only chunks, without changing any result
    let mut rng = Rng64::seed_from_u64(0x9a7e_5007);
    for case in 0..10 {
        let t = arbitrary_trace(&mut rng, 400);
        let r = store_of(&t, 16);
        let (peak, stats) = run(&PeakFold, &r, 1).unwrap();
        assert_eq!(peak, oracle::peak(&t), "case {case}");
        assert_eq!(
            BreakdownRow::from_peak("trace", &peak),
            oracle::breakdown("trace", &t),
            "case {case}"
        );
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
    // no Malloc|Free event, so the peak fold's predicate must prune them,
    // in a store and in memory alike
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
    for i in 0..(3 * DEFAULT_CHUNK_EVENTS as u64 + 400) {
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
    let want = oracle::peak(&t);
    for threads in [1, 4] {
        for chunk in [32, DEFAULT_CHUNK_EVENTS] {
            let r = store_of(&t, chunk);
            let (peak, stats) = run(&PeakFold, &r, threads).unwrap();
            let tag = format!("threads {threads}, store chunked by {chunk}");
            assert_eq!(peak, want, "{tag}");
            assert!(
                stats.chunks_pruned > 0,
                "{tag}: access-only chunks must be pruned, stats: {stats:?}"
            );
            assert_eq!(
                stats.chunks_decoded + stats.chunks_pruned,
                stats.chunks_total,
                "{tag}"
            );
            assert!(
                r.chunks_decoded() < r.num_chunks() as u64,
                "{tag}: {} of {} chunks decoded",
                r.chunks_decoded(),
                r.num_chunks()
            );
            if chunk == DEFAULT_CHUNK_EVENTS {
                // the in-memory trace is cut into the same chunks, so it
                // prunes exactly the same ones
                let (mem_peak, mem_stats) = run_trace(&PeakFold, &t, threads);
                assert_eq!(mem_peak, want, "threads {threads}, in-memory");
                assert_eq!(mem_stats, stats, "threads {threads}, in-memory");
            }
        }
    }
}
