//! Fused one-decode analysis engine vs the sequential five-pass baseline.
//!
//! Profiles ResNet-18, encodes the trace into a `.ptrc` store, then runs
//! the five report analyses (ATI, peak, breakdown, gantt, outliers) two
//! ways: five standalone single-fold runs (each decoding every chunk; the
//! breakdown and outlier passes are a peak and an ATI run followed by
//! `BreakdownRow::from_peak` and `sift`) and one fused report run — the
//! three `ReportFolds` that `report`, the daemon and perfbench register,
//! each chunk decoded exactly once. Reports wall clock at 1 and 4 worker
//! threads in `BENCH_report.json` and asserts that the fused run is
//! bit-identical to the baseline, decodes each chunk once, and is no
//! slower at either thread count.
//!
//! The fused run is measured on both a v2 and a v3 store of the same
//! trace: results must be bit-identical across formats, and the v3 run
//! must not be slower (timer-noise margin) — the batched-decode
//! regression guard on every CI bench-smoke run. The scan accounting
//! (including the v3-only `chunks_pruned_by_label` counter) lands in the
//! JSON.
//!
//! This bench also carries the observability overhead guard: the hot
//! paths are instrumented with `pinpoint-obs` spans, and with the
//! tracer **disabled** (the default) each span site must cost one
//! relaxed atomic load — asserted three ways: no span records and no
//! span buffers appear during the measured runs, a repeated (warm)
//! fused scan performs zero decode-buffer reallocations, and the
//! measured fused time stays within 5% of the recorded
//! `BENCH_report.json` baseline (plus a small absolute timer-noise
//! slack, since 5% of a few ms sits near scheduler jitter).

use pinpoint_analysis::{
    sift, AtiDataset, AtiFold, BreakdownRow, FusedPipeline, GanttFold, GanttRect, OutlierCriteria,
    OutlierReport, PeakFold, ReportFolds,
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
use std::time::Instant;

const CRITERIA: OutlierCriteria = OutlierCriteria {
    min_ati_ns: 800_000_000,
    min_size_bytes: 600_000_000,
};

fn median_ns(runs: usize, mut f: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
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

/// Five standalone single-fold runs: every pass re-opens the store and
/// decodes every chunk, so the decode work is ~5x the fused run's.
fn sequential_five_pass(bytes: &[u8], t_end: u64, threads: usize) -> (Report, usize) {
    let mut decoded = 0usize;
    let mut one = |pipe: FusedPipeline| {
        let r = StoreReader::from_bytes(bytes.to_vec()).expect("open");
        let out = pipe.run(&r, threads).expect("run");
        decoded += out.stats().chunks_decoded;
        out
    };
    let mut pipe = FusedPipeline::new();
    let h = pipe.register(AtiFold);
    let ati = one(pipe).take(h);
    let mut pipe = FusedPipeline::new();
    let h = pipe.register(PeakFold);
    let peak = one(pipe).take(h);
    let mut pipe = FusedPipeline::new();
    let h = pipe.register(PeakFold);
    let breakdown = BreakdownRow::from_peak("trace", &one(pipe).take(h));
    let mut pipe = FusedPipeline::new();
    let h = pipe.register(GanttFold { t_start: 0, t_end });
    let gantt = one(pipe).take(h);
    let mut pipe = FusedPipeline::new();
    let h = pipe.register(AtiFold);
    let outliers = sift(&one(pipe).take(h), CRITERIA);
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

/// One fused report run: the three [`ReportFolds`] fed from each chunk's
/// one decode, the breakdown row and the outliers derived from the peak
/// and the ATIs. Also returns the pruned-by-op-label count from the scan
/// accounting (0 here — the report's union predicate constrains no op
/// label — surfaced so the bench JSON records the counter end to end).
fn fused_report(bytes: &[u8], threads: usize) -> (Report, usize, usize) {
    let mut pipe = FusedPipeline::new();
    let folds = ReportFolds::register(&mut pipe, CRITERIA);
    let r = StoreReader::from_bytes(bytes.to_vec()).expect("open");
    let d = folds.take(&mut pipe.run(&r, threads).expect("run"));
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

    // recorded fused_ns baseline per thread count from the previous run
    // (BENCH_report.json, which is gitignored, so only a local earlier
    // run leaves one); absent or unparseable skips the overhead guard —
    // a fresh checkout's first run records it instead
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json");
    let baseline: Vec<(u64, u64)> = std::fs::read_to_string(out)
        .ok()
        .and_then(|s| pinpoint_trace::json::parse(&s).ok())
        .and_then(|j| {
            Some(
                j.get("runs")?
                    .as_arr()?
                    .iter()
                    .filter_map(|r| {
                        Some((r.get("threads")?.as_u64()?, r.get("fused_ns")?.as_u64()?))
                    })
                    .collect(),
            )
        })
        .unwrap_or_default();

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
        let run = |r: &StoreReader| {
            let mut pipe = FusedPipeline::new();
            let h = pipe.register(AtiFold);
            let mut out = pipe.run(r, 4).expect("run");
            out.take(h).len()
        };
        let cold = run(&r);
        let warmed = r.decode_reallocs();
        let warm = run(&r);
        assert_eq!(cold, warm);
        assert_eq!(
            r.decode_reallocs(),
            warmed,
            "warm fused scan must perform zero decode-buffer reallocations"
        );
    }

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
        let fused_ns = median_ns(runs, || {
            let (r, ..) = fused_report(&bytes, threads);
            assert_eq!(r.ati.len(), fused.ati.len());
        });
        let fused_v2_ns = median_ns(runs, || {
            let (r, ..) = fused_report(&v2_bytes, threads);
            assert_eq!(r.ati.len(), fused.ati.len());
        });
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
        // tracing-disabled overhead guard: within 5% of the recorded
        // baseline plus 250us absolute slack — 5% of a few-ms run sits
        // near scheduler jitter, so the relative bound alone would flap
        if let Some(&(_, base_ns)) = baseline.iter().find(|(t, _)| *t == threads as u64) {
            let bound = base_ns as u128 + (base_ns as u128) / 20 + 250_000;
            assert!(
                fused_ns <= bound,
                "fused run with tracing disabled regressed past the recorded \
                 baseline at threads={threads}: {fused_ns} ns vs {base_ns} ns (+5% +250us)"
            );
        }
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
         \"runs\":[{}],\"bit_identical\":true}}\n",
        v2_bytes.len(),
        bytes.len(),
        per_thread.join(",")
    );
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
