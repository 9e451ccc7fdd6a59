//! The fused report over v2 and v3 stores, with its format, decode,
//! allocation and tracer guards.
//!
//! Profiles ResNet-18, encodes the trace into a v2 and a v3 `.ptrc`
//! store, and runs the report over each — `TraceReport::from_store`, the
//! call that the CLI's `report`, `ati`, `gantt` and `outliers`, the daemon
//! and perfbench make, each chunk decoded exactly once. Reports wall clock
//! at 1 and 4 worker threads in `BENCH_report.json` and asserts that the
//! report is bit-identical across formats and decodes each chunk once.
//! That the report equals the standalone passes is checked against
//! brute-force oracles by `tests/fused_engine.rs`.
//!
//! The v3 report must not be slower than the v2 one (timer-noise margin).
//! Decode is a small share of a report run, so a second guard times a
//! `PeakFold` run of each store, which skips every access without
//! building it and so is mostly read, checksum and decode, under the same
//! bound: the batched-decode regression guard on every CI bench-smoke
//! run. Each pair of stores is timed interleaved, v3 then v2 in each
//! round, so a slow burst on the host lands on both sides instead of
//! deciding the comparison. The scan accounting (including the v3-only
//! `chunks_pruned_by_label` counter) lands in the JSON.
//!
//! This bench also carries the observability overhead guard: the hot
//! paths are instrumented with `pinpoint-obs` spans, and with the
//! tracer **disabled** (the default) each span site must cost one
//! relaxed atomic load — asserted two ways: no span records and no
//! span buffers appear during the measured runs, and a repeated (warm)
//! four-thread report performs zero decode-buffer reallocations.
//!
//! The fold's work is guarded by a count rather than a timing: a warm
//! `TraceReport::from_store` at one thread (which runs on the calling
//! thread) may make at most [`MAX_WARM_REPORT_ALLOCS`] heap allocations,
//! counted by a thread-local counting global allocator. The count repeats
//! exactly from run to run and needs no recorded baseline, so the guard
//! fires on a clean checkout and cannot flap; it lands in the JSON.
//!
//! Two more rows time the fold alone, over chunks decoded up front: a
//! one-thread report of a default-chunked 8-iteration store, which is
//! what the daemon folds from its chunk cache for every `serve-cold`
//! request, and a trace built to take every exact fallback of the fold
//! (time running backwards, re-mallocs that change an accessed block's
//! size and kind, blocks accessed in every worker's range), at 1 and 4
//! threads. Both are checked against the report of the trace itself.

use pinpoint_analysis::{
    run, AtiDataset, BreakdownRow, GanttRect, OutlierCriteria, OutlierReport, PeakFold, TraceReport,
};
use pinpoint_bench::by_scale;
use pinpoint_bench::criterion::Criterion;
use pinpoint_bench::{criterion_group, criterion_main};
use pinpoint_core::{profile, ProfileConfig};
use pinpoint_data::DatasetSpec;
use pinpoint_models::{Architecture, ResNetDepth};
use pinpoint_obs::tracer;
use pinpoint_store::{
    write_store, write_store_chunked, write_store_chunked_v2, Batch, ChunkMeta, ChunkSource,
    ColumnBatch, DecodeScratch, ReadPolicy, StoreError, StoreReader,
};
use pinpoint_trace::{BlockId, EventKind, MemoryKind, PeakUsage, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Rounds of each interleaved v3-vs-v2 timing. A fused report of this
/// bench's store takes about half a millisecond, so on a busy two-CPU
/// host the median of a few rounds swings past the 1.25x bound.
const PAIRED_ROUNDS: usize = 101;

/// The most heap allocations (reallocations included) one warm
/// single-thread report of this bench's store may make: the count when
/// the bound was last set, 18, plus about 10%. The fold pushes the
/// finished ATI records and their interval values into one buffer each,
/// sized once from the store index's event counts. The count is the same
/// at both scales, whose batch sizes change block sizes but not the
/// events.
const MAX_WARM_REPORT_ALLOCS: u64 = 20;

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

/// Medians of `a` and `b` over `runs` rounds timed interleaved, `a` then
/// `b` in each round.
fn paired_median_ns(runs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (u128, u128) {
    let (ta, tb) = (0..runs)
        .map(|_| (time_ns(&mut a), time_ns(&mut b)))
        .unzip();
    (median(ta), median(tb))
}

/// Training iterations of the stores the daemon workloads fold.
const SERVE_ITERATIONS: usize = 8;

fn resnet18_trace(iterations: usize) -> Trace {
    let batch = by_scale(32, 64);
    let mut cfg = ProfileConfig::breakdown_sweep(
        Architecture::ResNet(ResNetDepth::R18),
        DatasetSpec::cifar100(),
        batch,
    );
    cfg.iterations = iterations;
    profile(&cfg).expect("resnet-18 profile").trace
}

/// A store's chunks, decoded up front and shared, as the daemon's chunk
/// cache serves them.
struct Decoded {
    chunks: Vec<ChunkMeta>,
    batches: Vec<Arc<ColumnBatch>>,
}

impl Decoded {
    /// The default-chunked store of `trace`, decoded.
    fn of(trace: &Trace) -> Self {
        let mut bytes = Vec::new();
        write_store(trace, &mut bytes).expect("encode");
        let r = StoreReader::from_bytes(bytes).expect("open");
        let batches = (0..r.num_chunks())
            .map(|i| Arc::new(r.decode_chunk(i).expect("decode")))
            .collect();
        Decoded {
            chunks: r.footer().chunks.clone(),
            batches,
        }
    }
}

impl ChunkSource for Decoded {
    fn chunks(&self) -> &[ChunkMeta] {
        &self.chunks
    }
    fn policy(&self) -> ReadPolicy {
        ReadPolicy::Strict
    }
    fn fetch<'s>(&self, i: usize, _: &'s mut DecodeScratch) -> Result<Batch<'s>, StoreError> {
        Ok(Batch::Shared(Arc::clone(&self.batches[i])))
    }
}

/// A trace of `events` events that takes every exact fallback of the
/// report's fold: two streams interleave, one clock running three times
/// as fast as the other, so time goes backwards at every other event
/// (each block belongs to one stream, so its own events stay in order);
/// 64 blocks are first touched by accesses, accessed throughout, and now
/// and then malloc'd again with another size and memory kind.
fn fallback_trace(events: u64) -> Trace {
    let mut t = Trace::new();
    for i in 0..events {
        let stream = i % 2;
        let time = (i / 2) * if stream == 0 { 3 } else { 1 };
        let block = BlockId(2 * ((i / 2) % 32) + stream);
        let kind = if i % 101 < 2 {
            EventKind::Malloc
        } else if i % 3 == 0 {
            EventKind::Write
        } else {
            EventKind::Read
        };
        let epoch = i / 101;
        let size = 4096 << (epoch % 3);
        let mem_kind = if epoch % 2 == 0 {
            MemoryKind::Activation
        } else {
            MemoryKind::Weight
        };
        t.record(time, kind, block, size, 0, mem_kind, None);
    }
    t
}

/// Median wall time of a report over `source` at `threads`, checked
/// against `want`.
fn report_ns(source: &Decoded, threads: usize, want: &TraceReport) -> u128 {
    let mut report = || {
        let d = TraceReport::from_store(source, CRITERIA, threads).expect("run");
        assert!(d.ati == want.ati && d.gantt == want.gantt && d.peak == want.peak);
    };
    median((0..PAIRED_ROUNDS).map(|_| time_ns(&mut report)).collect())
}

/// The five analysis outputs of one report.
#[derive(PartialEq)]
struct Report {
    ati: AtiDataset,
    peak: PeakUsage,
    breakdown: BreakdownRow,
    gantt: Vec<GanttRect>,
    outliers: OutlierReport,
}

/// One fused report run: [`TraceReport::from_store`] folds each chunk's
/// one decode into the report's block table and peak sweep, and derives
/// the breakdown row and the outliers from the peak and the ATIs. Also
/// returns the pruned-by-op-label count from the scan accounting (0 here
/// — the report's predicate constrains no op label — surfaced so the
/// bench JSON records the counter end to end).
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
    let trace = resnet18_trace(2);
    let events = trace.len();

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

    // warm-scan zero-allocation: the same reader running a four-thread
    // report twice must not grow its decode scratch pool the second time
    // (the per-chunk zero-alloc contract the obs spans ride on)
    {
        let r = StoreReader::from_bytes(bytes.clone()).expect("open");
        let scan = |r: &StoreReader| {
            TraceReport::from_store(r, CRITERIA, 4)
                .expect("run")
                .ati
                .len()
        };
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
        let (fused, fused_decoded, pruned_by_label) = fused_report(&bytes, threads);
        let (fused_v2, ..) = fused_report(&v2_bytes, threads);
        assert!(
            fused_v2 == fused,
            "fused output diverges between v2 and v3 stores at threads={threads}"
        );
        assert_eq!(
            fused_decoded, chunks,
            "fused run must decode each chunk exactly once"
        );

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
            fused_ns <= fused_v2_ns + fused_v2_ns / 4,
            "v3 fused report regressed past v2 at threads={threads}: \
             v3 {fused_ns} ns vs v2 {fused_v2_ns} ns"
        );
        // the decode guard: a peak run of each store, on readers opened
        // once, so the timing is the scan (read, checksum, decode) and the
        // peak sweep's byte test per event
        let (v3_reader, v2_reader) = (
            StoreReader::from_bytes(bytes.clone()).expect("open"),
            StoreReader::from_bytes(v2_bytes.clone()).expect("open"),
        );
        let peak = |r: &StoreReader| run(&PeakFold, r, threads).expect("run").0;
        assert!(
            peak(&v3_reader) == fused.peak && peak(&v2_reader) == fused.peak,
            "peak runs diverge from the report at threads={threads}"
        );
        let (peak_ns, peak_v2_ns) = paired_median_ns(
            PAIRED_ROUNDS,
            || {
                assert_eq!(
                    peak(&v3_reader).peak_total_bytes,
                    fused.peak.peak_total_bytes
                )
            },
            || {
                assert_eq!(
                    peak(&v2_reader).peak_total_bytes,
                    fused.peak.peak_total_bytes
                )
            },
        );
        assert!(
            peak_ns <= peak_v2_ns + peak_v2_ns / 4,
            "v3 decode regressed past v2 at threads={threads}: \
             v3 peak run {peak_ns} ns vs v2 {peak_v2_ns} ns"
        );
        let v3_speedup = fused_v2_ns as f64 / fused_ns as f64;
        println!(
            "fused_report: threads={threads}: v3 store {fused_ns} ns ({fused_decoded} chunk \
             decodes) vs v2 store {fused_v2_ns} ns -> v3 {v3_speedup:.2}x; \
             peak run v2 {peak_v2_ns} ns -> v3 {peak_ns} ns"
        );
        per_thread.push(format!(
            "{{\"threads\":{threads},\"fused_ns\":{fused_ns},\
             \"fused_v2_ns\":{fused_v2_ns},\"peak_ns\":{peak_ns},\"peak_v2_ns\":{peak_v2_ns},\
             \"fused_chunk_decodes\":{fused_decoded},\
             \"chunks_pruned_by_label\":{pruned_by_label},\
             \"v3_vs_v2_speedup\":{v3_speedup:.4}}}"
        ));
    }

    // the daemon's cold fold: one thread over a cached store's chunks
    let serve_trace = resnet18_trace(SERVE_ITERATIONS);
    let serve_source = Decoded::of(&serve_trace);
    let want = TraceReport::from_trace(&serve_trace, CRITERIA, 1);
    let serve_cold_ns = report_ns(&serve_source, 1, &want);
    println!(
        "fused_report: serve-cold fold, {} events in {} chunks: {serve_cold_ns} ns",
        serve_trace.len(),
        serve_source.chunks.len()
    );
    let serve_cold = format!(
        "{{\"events\":{},\"chunks\":{},\"threads\":1,\"report_ns\":{serve_cold_ns}}}",
        serve_trace.len(),
        serve_source.chunks.len()
    );

    // the exact fallbacks, and at 4 threads the merges' bridge records
    let fallback = fallback_trace(serve_trace.len() as u64);
    let fallback_source = Decoded::of(&fallback);
    let want = TraceReport::from_trace(&fallback, CRITERIA, 1);
    let fallback_runs: Vec<String> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let ns = report_ns(&fallback_source, threads, &want);
            println!("fused_report: fallback trace, threads={threads}: {ns} ns");
            format!("{{\"threads\":{threads},\"report_ns\":{ns}}}")
        })
        .collect();
    let fallbacks = format!(
        "{{\"events\":{},\"chunks\":{},\"runs\":[{}]}}",
        fallback.len(),
        fallback_source.chunks.len(),
        fallback_runs.join(",")
    );

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
         \"runs\":[{}],\"serve_cold\":{serve_cold},\"fallbacks\":{fallbacks},\
         \"bit_identical\":true}}\n",
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
