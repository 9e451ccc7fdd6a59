//! `.ptrc` store round trip on a ResNet-18 training trace.
//!
//! Profiles ResNet-18, encodes the trace into the chunked columnar store,
//! decodes it back, and reports encode/decode throughput plus the
//! compression ratio against the JSON export in `BENCH_store.json`. The
//! ratio is asserted (the format must stay ≥5x smaller than JSON) and so
//! is losslessness of the round trip.
//!
//! The same trace is also written in the legacy v2 format: the v3 file
//! must be smaller — the size guard for the adaptive column encodings,
//! enforced on every CI bench-smoke run. Both decode times land in the
//! JSON; the v3-vs-v2 decode speed is guarded by `fused_report`, which
//! times the two stores interleaved.

use pinpoint_bench::by_scale;
use pinpoint_bench::criterion::Criterion;
use pinpoint_bench::{criterion_group, criterion_main};
use pinpoint_core::{profile, ProfileConfig};
use pinpoint_data::DatasetSpec;
use pinpoint_models::{Architecture, ResNetDepth};
use pinpoint_store::{
    write_store, write_store_chunked_v2, Predicate, StoreReader, DEFAULT_CHUNK_EVENTS,
};
use pinpoint_trace::export::json_string;
use pinpoint_trace::Trace;
use std::time::Instant;

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

fn bench(c: &mut Criterion) {
    let runs = by_scale(3, 7);
    let trace = resnet18_trace();
    let events = trace.len();

    let mut store_bytes = Vec::new();
    write_store(&trace, &mut store_bytes).expect("encode");
    let json_len = json_string(&trace).len();
    let ratio = json_len as f64 / store_bytes.len() as f64;
    assert!(
        ratio >= 5.0,
        "ResNet-18 .ptrc must be >=5x smaller than JSON, got {ratio:.2}x"
    );

    let reader = StoreReader::from_bytes(store_bytes.clone()).expect("open");
    let decoded = reader.read_trace().expect("decode");
    assert_eq!(decoded, trace, "round trip must be lossless");

    let encode_ns = median_ns(runs, || {
        let mut out = Vec::with_capacity(store_bytes.len());
        write_store(&trace, &mut out).expect("encode");
        assert_eq!(out.len(), store_bytes.len());
    });
    let decode_ns = median_ns(runs, || {
        let r = StoreReader::from_bytes(store_bytes.clone()).expect("open");
        assert_eq!(r.read_trace().expect("decode").len(), events);
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let query_ns = median_ns(runs, || {
        let r = StoreReader::from_bytes(store_bytes.clone()).expect("open");
        let q = r.query(&Predicate::any(), cores).expect("query");
        assert_eq!(q.events.len(), events);
    });

    // v2 vs v3: the adaptive encodings must shrink the file
    let mut v2_bytes = Vec::new();
    write_store_chunked_v2(&trace, &mut v2_bytes, DEFAULT_CHUNK_EVENTS).expect("encode v2");
    assert!(
        store_bytes.len() < v2_bytes.len(),
        "v3 ({} B) must be smaller than v2 ({} B)",
        store_bytes.len(),
        v2_bytes.len()
    );
    let r = StoreReader::from_bytes(v2_bytes.clone()).expect("open v2");
    assert_eq!(r.read_trace().expect("decode v2"), trace, "v2 lossless");
    let v2_decode_ns = median_ns(runs, || {
        let r = StoreReader::from_bytes(v2_bytes.clone()).expect("open");
        assert_eq!(r.read_trace().expect("decode").len(), events);
    });
    let v3_size_ratio = v2_bytes.len() as f64 / store_bytes.len() as f64;
    let v3_decode_speedup = v2_decode_ns as f64 / decode_ns as f64;

    let encode_meps = events as f64 / (encode_ns as f64 / 1e9) / 1e6;
    let decode_meps = events as f64 / (decode_ns as f64 / 1e9) / 1e6;
    println!(
        "\nstore_roundtrip: {events} events, json {json_len} B -> ptrc {} B ({ratio:.2}x); \
         encode {encode_meps:.1} Mev/s, decode {decode_meps:.1} Mev/s; \
         v2 {} B -> v3 {:.2}x smaller, decode {:.2}x vs v2",
        store_bytes.len(),
        v2_bytes.len(),
        v3_size_ratio,
        v3_decode_speedup
    );
    let json = format!(
        "{{\"bench\":\"store_roundtrip\",\"events\":{events},\
         \"json_bytes\":{json_len},\"store_bytes\":{},\
         \"compression_ratio\":{ratio:.4},\
         \"encode_ns\":{encode_ns},\"decode_ns\":{decode_ns},\
         \"parallel_query_ns\":{query_ns},\"threads\":{cores},\
         \"encode_mevents_per_s\":{encode_meps:.3},\
         \"decode_mevents_per_s\":{decode_meps:.3},\
         \"v2_store_bytes\":{},\"v2_decode_ns\":{v2_decode_ns},\
         \"v3_size_ratio_vs_v2\":{v3_size_ratio:.4},\
         \"v3_decode_speedup_vs_v2\":{v3_decode_speedup:.4},\
         \"lossless\":true}}\n",
        store_bytes.len(),
        v2_bytes.len()
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("could not write {out}: {e}");
    }

    let mut g = c.benchmark_group("store_roundtrip");
    g.sample_size(10);
    g.bench_function("encode_resnet18", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(store_bytes.len());
            write_store(&trace, &mut out).expect("encode");
            out
        })
    });
    g.bench_function("decode_resnet18", |b| {
        b.iter(|| {
            StoreReader::from_bytes(store_bytes.clone())
                .and_then(|r| r.read_trace())
                .expect("decode")
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
