//! Fused one-decode analysis engine vs the sequential five-pass baseline.
//!
//! Profiles ResNet-18, encodes the trace into a `.ptrc` store, then runs
//! the five report analyses (ATI, peak, breakdown, gantt, outliers) two
//! ways: five standalone single-fold runs (each decoding every chunk; the
//! breakdown and outlier passes are a peak and an ATI run followed by
//! `BreakdownRow::from_peak` and `sift`) and one fused report run —
//! `TraceReport::from_store`, the call that `report`, the daemon and
//! perfbench make, each chunk decoded exactly once. Reports wall clock at
//! 1 and 4 worker threads in `BENCH_report.json` and asserts that the
//! fused run is bit-identical to the baseline, decodes each chunk once,
//! and is no slower at either thread count.
//!
//! The fused run is measured on both a v2 and a v3 store of the same
//! trace: results must be bit-identical across formats, and the v3 run
//! must not be slower (timer-noise margin) — the batched-decode
//! regression guard on every CI bench-smoke run. The two stores are
//! timed interleaved, v3 then v2 in each round, so a slow burst on the
//! host lands on both sides instead of deciding the comparison. The scan
//! accounting (including the v3-only `chunks_pruned_by_label` counter)
//! lands in the JSON.
//!
//! This bench also carries the observability overhead guard: the hot
//! paths are instrumented with `pinpoint-obs` spans, and with the
//! tracer **disabled** (the default) each span site must cost one
//! relaxed atomic load — asserted two ways: no span records and no
//! span buffers appear during the measured runs, and a repeated (warm)
//! fused scan performs zero decode-buffer reallocations.
//!
//! The fold's work is guarded by a count rather than a timing: a warm
//! `TraceReport::from_store` at one thread (which runs on the calling
//! thread) may make at most [`MAX_WARM_REPORT_ALLOCS`] heap allocations,
//! counted by a thread-local counting global allocator. The count repeats
//! exactly from run to run and needs no recorded baseline, so the guard
//! fires on a clean checkout and cannot flap; it lands in the JSON.

use pinpoint_analysis::{
    run, sift, AtiDataset, AtiFold, BreakdownRow, EventFold, GanttFold, GanttRect, OutlierCriteria,
    OutlierReport, PeakFold, TraceReport,
};
use pinpoint_bench::by_scale;
use pinpoint_bench::criterion::Criterion;
use pinpoint_bench::{criterion_group, criterion_main};
use pinpoint_core::{profile, ProfileConfig};
use pinpoint_data::DatasetSpec;
use pinpoint_models::{Architecture, ResNetDepth};
use pinpoint_obs::tracer;
use pinpoint_store::{write_store_chunked, write_store_chunked_v2, StoreReader};
use pinpoint_trace::{PeakUsage, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// Rounds of the interleaved v3-vs-v2 timing. A fused report of this
/// bench's store takes about half a millisecond, so on a busy two-CPU
/// host the median of a few rounds swings past the 1.25x bound.
const PAIRED_ROUNDS: usize = 101;

/// The most heap allocations (reallocations included) one warm
/// single-thread report of this bench's store may make: the count when
/// the bound was set (99), plus about 10%. It is the same at both scales,
/// whose batch sizes change block sizes but not the events.
const MAX_WARM_REPORT_ALLOCS: u64 = 109;

thread_local! {
    /// Allocations made by this thread while counting, if counting.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting each thread's allocations while that
/// thread runs [`allocs_during`].
struct CountingAlloc;

fn count_one() {
    // `try_with`: the thread-local may already be gone while a thread
    // exits, and the allocator must not panic then
    let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: forwards every call unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocs_during<R>(f: impl FnOnce() -> R) -> u64 {
    ALLOCS.with(|c| c.set(Some(0)));
    std::hint::black_box(f());
    ALLOCS.with(|c| c.replace(None)).unwrap_or(0)
}

const CRITERIA: OutlierCriteria = OutlierCriteria {
    min_ati_ns: 800_000_000,
    min_size_bytes: 600_000_000,
};

fn time_ns(f: &mut impl FnMut()) -> u128 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos()
}

fn median(mut times: Vec<u128>) -> u128 {
    times.sort_unstable();
    times[times.len() / 2]
}

fn median_ns(runs: usize, mut f: impl FnMut()) -> u128 {
    median((0..runs).map(|_| time_ns(&mut f)).collect())
}

/// Medians of `a` and `b` over `runs` rounds timed interleaved, `a` then
/// `b` in each round.
fn paired_median_ns(runs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (u128, u128) {
    let (ta, tb) = (0..runs)
        .map(|_| (time_ns(&mut a), time_ns(&mut b)))
        .unzip();
    (median(ta), median(tb))
}

fn resnet18_trace() -> Trace {
    let batch = by_scale(32, 64);
    let cfg = ProfileConfig::breakdown_sweep(
        Architecture::ResNet(ResNetDepth::R18),
        DatasetSpec::cifar100(),
        batch,
    );
    profile(&cfg).expect("resnet-18 profile").trace
}

/// The five analysis outputs, however they were produced.
#[derive(PartialEq)]
struct Report {
    ati: AtiDataset,
    peak: PeakUsage,
    breakdown: BreakdownRow,
    gantt: Vec<GanttRect>,
    outliers: OutlierReport,
}

/// One standalone single-fold run over a freshly opened store; adds its
/// decoded chunks to `decoded`.
fn fold_store<F: EventFold>(
    bytes: &[u8],
    fold: &F,
    threads: usize,
    decoded: &mut usize,
) -> F::Output {
    let r = StoreReader::from_bytes(bytes.to_vec()).expect("open");
    let (out, stats) = run(fold, &r, threads).expect("run");
    *decoded += stats.chunks_decoded;
    out
}

/// Five standalone single-fold runs: every pass re-opens the store and
/// decodes every chunk, so the decode work is ~5x the fused run's.
fn sequential_five_pass(bytes: &[u8], t_end: u64, threads: usize) -> (Report, usize) {
    let mut decoded = 0usize;
    let ati = fold_store(bytes, &AtiFold, threads, &mut decoded);
    let peak = fold_store(bytes, &PeakFold, threads, &mut decoded);
    let breakdown = BreakdownRow::from_peak(
        "trace",
        &fold_store(bytes, &PeakFold, threads, &mut decoded),
    );
    let gantt = fold_store(
        bytes,
        &GanttFold { t_start: 0, t_end },
        threads,
        &mut decoded,
    );
    let outliers = sift(
        &fold_store(bytes, &AtiFold, threads, &mut decoded),
        CRITERIA,
    );
    (
        Report {
            ati,
            peak,
            breakdown,
            gantt,
            outliers,
        },
        decoded,
    )
}

/// One fused report run: [`TraceReport::from_store`] feeds each chunk's
/// one decode to the ATI, peak and Gantt folds, and derives the breakdown
/// row and the outliers from the peak and the ATIs. Also returns the
/// pruned-by-op-label count from the scan accounting (0 here — the
/// report's predicate constrains no op label — surfaced so the bench JSON
/// records the counter end to end).
fn fused_report(bytes: &[u8], threads: usize) -> (Report, usize, usize) {
    let r = StoreReader::from_bytes(bytes.to_vec()).expect("open");
    let d = TraceReport::from_store(&r, CRITERIA, threads).expect("run");
    (
        Report {
            ati: d.ati,
            peak: d.peak,
            breakdown: d.breakdown,
            gantt: d.gantt,
            outliers: d.outliers,
        },
        d.stats.chunks_decoded,
        d.stats.chunks_pruned_by_label,
    )
}

fn bench(c: &mut Criterion) {
    let runs = by_scale(3, 7);
    let trace = resnet18_trace();
    let events = trace.len();
    let t_end = trace.end_time_ns();

    // chunk finer than the 4096-event default so the per-chunk decode
    // accounting is exercised across many chunks even at quick scale
    let mut bytes = Vec::new();
    write_store_chunked(&trace, &mut bytes, 512).expect("encode");
    let mut v2_bytes = Vec::new();
    write_store_chunked_v2(&trace, &mut v2_bytes, 512).expect("encode v2");
    let chunks = StoreReader::from_bytes(bytes.clone())
        .expect("open")
        .num_chunks();
    assert!(chunks > 1, "trace must span several chunks, got {chunks}");

    // the span sites on the scan/decode/fold hot paths must be inert
    // while the tracer is disabled (the default): record the counters
    // now, assert below that the measured runs moved neither
    assert!(
        !tracer().enabled(),
        "benches measure the tracing-disabled fast path"
    );
    let span_records_before = tracer().total_records();
    let span_bufs_before = tracer().buffer_allocs();

    // warm-scan zero-allocation: the same reader running a fused scan
    // twice must not grow its decode scratch pool the second time (the
    // per-chunk zero-alloc contract the obs spans ride on)
    {
        let r = StoreReader::from_bytes(bytes.clone()).expect("open");
        let scan = |r: &StoreReader| run(&AtiFold, r, 4).expect("run").0.len();
        let cold = scan(&r);
        let warmed = r.decode_reallocs();
        let warm = scan(&r);
        assert_eq!(cold, warm);
        assert_eq!(
            r.decode_reallocs(),
            warmed,
            "warm fused scan must perform zero decode-buffer reallocations"
        );
    }

    // fold-work guard: a warm single-thread report's allocation count
    let warm_report_allocs = {
        let r = StoreReader::from_bytes(bytes.clone()).expect("open");
        let report = || TraceReport::from_store(&r, CRITERIA, 1).expect("run");
        report();
        let n = allocs_during(report);
        assert_eq!(n, allocs_during(report), "the count must repeat");
        n
    };
    println!(
        "fused_report: warm report at 1 thread: {warm_report_allocs} allocations \
         (bound {MAX_WARM_REPORT_ALLOCS})"
    );
    assert!(
        warm_report_allocs <= MAX_WARM_REPORT_ALLOCS,
        "a warm report made {warm_report_allocs} heap allocations, \
         over the bound {MAX_WARM_REPORT_ALLOCS}"
    );

    let mut per_thread = Vec::new();
    for threads in [1usize, 4] {
        let (seq, seq_decoded) = sequential_five_pass(&bytes, t_end, threads);
        let (fused, fused_decoded, pruned_by_label) = fused_report(&bytes, threads);
        let (fused_v2, ..) = fused_report(&v2_bytes, threads);
        assert!(
            seq == fused,
            "fused output diverges from sequential at threads={threads}"
        );
        assert!(
            fused_v2 == fused,
            "fused output diverges between v2 and v3 stores at threads={threads}"
        );
        assert_eq!(
            fused_decoded, chunks,
            "fused run must decode each chunk exactly once"
        );
        assert_eq!(
            seq_decoded,
            5 * chunks,
            "sequential baseline decodes every chunk five times"
        );

        let seq_ns = median_ns(runs, || {
            let (r, _) = sequential_five_pass(&bytes, t_end, threads);
            assert_eq!(r.ati.len(), seq.ati.len());
        });
        let (fused_ns, fused_v2_ns) = paired_median_ns(
            PAIRED_ROUNDS,
            || {
                let (r, ..) = fused_report(&bytes, threads);
                assert_eq!(r.ati.len(), fused.ati.len());
            },
            || {
                let (r, ..) = fused_report(&v2_bytes, threads);
                assert_eq!(r.ati.len(), fused.ati.len());
            },
        );
        assert!(
            fused_ns <= seq_ns,
            "fused run must be no slower than the five-pass baseline \
             at threads={threads}: fused {fused_ns} ns vs sequential {seq_ns} ns"
        );
        assert!(
            fused_ns <= fused_v2_ns + fused_v2_ns / 4,
            "v3 fused report regressed past v2 at threads={threads}: \
             v3 {fused_ns} ns vs v2 {fused_v2_ns} ns"
        );
        let speedup = seq_ns as f64 / fused_ns as f64;
        let v3_speedup = fused_v2_ns as f64 / fused_ns as f64;
        println!(
            "fused_report: threads={threads}: sequential {seq_ns} ns ({seq_decoded} chunk \
             decodes) vs fused {fused_ns} ns ({fused_decoded}) -> {speedup:.2}x; \
             v2 store {fused_v2_ns} ns -> v3 {v3_speedup:.2}x"
        );
        per_thread.push(format!(
            "{{\"threads\":{threads},\"sequential_ns\":{seq_ns},\"fused_ns\":{fused_ns},\
             \"fused_v2_ns\":{fused_v2_ns},\
             \"sequential_chunk_decodes\":{seq_decoded},\
             \"fused_chunk_decodes\":{fused_decoded},\
             \"chunks_pruned_by_label\":{pruned_by_label},\
             \"speedup\":{speedup:.4},\"v3_vs_v2_speedup\":{v3_speedup:.4}}}"
        ));
    }

    // every measured run above went through the instrumented hot paths;
    // with the tracer disabled none of them may have touched it
    assert_eq!(
        tracer().total_records(),
        span_records_before,
        "disabled tracer must record no spans during the bench"
    );
    assert_eq!(
        tracer().buffer_allocs(),
        span_bufs_before,
        "disabled tracer must allocate no span buffers during the bench"
    );

    let json = format!(
        "{{\"bench\":\"fused_report\",\"events\":{events},\"chunks\":{chunks},\
         \"passes\":5,\"v2_store_bytes\":{},\"v3_store_bytes\":{},\
         \"warm_report_allocs\":{warm_report_allocs},\"max_warm_report_allocs\":{MAX_WARM_REPORT_ALLOCS},\
         \"runs\":[{}],\"bit_identical\":true}}\n",
        v2_bytes.len(),
        bytes.len(),
        per_thread.join(",")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json");
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("could not write {out}: {e}");
    }

    let mut g = c.benchmark_group("fused_report");
    g.sample_size(10);
    g.bench_function("sequential_five_pass_resnet18", |b| {
        b.iter(|| sequential_five_pass(&bytes, t_end, 1).0.ati.len())
    });
    g.bench_function("fused_report_resnet18", |b| {
        b.iter(|| fused_report(&bytes, 1).0.ati.len())
    });
    g.bench_function("fused_report_resnet18_v2_store", |b| {
        b.iter(|| fused_report(&v2_bytes, 1).0.ati.len())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
