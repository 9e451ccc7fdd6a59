//! Corruption-matrix tests for the `.ptrc` store: truncations at every
//! chunk boundary, seeded bit-flip fuzz, pure-garbage inputs, and the
//! writer's fault paths — all driven by the deterministic
//! `pinpoint::store::fault` harness, no OS randomness and no wall clock.
//!
//! The invariants under test, from the robustness issue:
//!
//! 1. **No input byte sequence panics the reader** — every failure is a
//!    typed `StoreError` under `Strict`.
//! 2. **Salvage recovers exactly the CRC-intact chunks**, and analysis
//!    over a salvaged store is bit-identical — at any thread count — to
//!    the same analysis over a store containing only those chunks.
//! 3. The writer's crash-safety holds under injected faults: a failed
//!    finish leaves no destination file and no temp litter; transient
//!    write errors are absorbed by the seeded retry policy.

use pinpoint::core::report::TraceReport;
use pinpoint::core::{profile, ProfileConfig};
use pinpoint::data::DatasetSpec;
use pinpoint::models::{Architecture, ResNetDepth};
use pinpoint::store::fault::{flip_bits, FaultKind, FaultyIo};
use pinpoint::store::{
    write_store_chunked, write_store_chunked_v1, write_store_chunked_v2, ChunkMeta, Predicate,
    ReadPolicy, RetryPolicy, StoreReader, StoreWriter,
};
use pinpoint::tensor::rng::Rng64;
use pinpoint::trace::{BlockId, EventKind, MemEvent, MemoryKind, Trace, TraceSink};
use pinpoint_analysis::OutlierCriteria;
use std::io::Cursor;
use std::sync::OnceLock;

/// Events per chunk for the fixture store — small, so the truncation
/// matrix has many boundaries to probe.
const CHUNK_EVENTS: usize = 256;

const HEADER_LEN: usize = 5;
const CHUNK_HEADER_LEN: usize = 12;

fn resnet18_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let cfg = ProfileConfig::breakdown_sweep(
            Architecture::ResNet(ResNetDepth::R18),
            DatasetSpec::cifar100(),
            8,
        );
        profile(&cfg).expect("resnet-18 profile").trace
    })
}

fn fixture_store() -> &'static Vec<u8> {
    static STORE: OnceLock<Vec<u8>> = OnceLock::new();
    STORE.get_or_init(|| {
        let mut bytes = Vec::new();
        write_store_chunked(resnet18_trace(), &mut bytes, CHUNK_EVENTS).unwrap();
        bytes
    })
}

/// The pristine chunk index, and each chunk's decoded events, for ground
/// truth against salvage results.
fn fixture_chunks() -> &'static (Vec<ChunkMeta>, Vec<Vec<MemEvent>>) {
    static CHUNKS: OnceLock<(Vec<ChunkMeta>, Vec<Vec<MemEvent>>)> = OnceLock::new();
    CHUNKS.get_or_init(|| {
        let r = StoreReader::from_bytes(fixture_store().clone()).unwrap();
        let metas = r.footer().chunks.clone();
        let events = (0..metas.len())
            .map(|i| {
                let b = r.decode_chunk(i).unwrap();
                (0..b.len()).map(|k| b.event(k)).collect()
            })
            .collect();
        (metas, events)
    })
}

/// Events of every chunk satisfying `keep`, concatenated in chunk order —
/// the exact stream a correct salvage must produce.
fn surviving_events(keep: impl Fn(usize, &ChunkMeta) -> bool) -> Vec<MemEvent> {
    let (metas, events) = fixture_chunks();
    metas
        .iter()
        .enumerate()
        .filter(|(i, m)| keep(*i, m))
        .flat_map(|(i, _)| events[i].iter().cloned())
        .collect()
}

#[test]
fn truncation_at_every_chunk_boundary_salvages_the_contained_prefix() {
    let bytes = fixture_store();
    let (metas, _) = fixture_chunks();
    assert!(
        metas.len() >= 8,
        "fixture too small: {} chunks",
        metas.len()
    );

    for (ci, meta) in metas.iter().enumerate() {
        let boundary = (meta.offset + meta.byte_len) as usize;
        for delta in [-3i64, -1, 0, 1, 3] {
            let cut = boundary.saturating_add_signed(delta as isize);
            if cut >= bytes.len() {
                continue;
            }
            let maimed = bytes[..cut].to_vec();

            // strict: typed error, never a panic (the footer is gone)
            assert!(
                StoreReader::from_bytes(maimed.clone()).is_err(),
                "chunk {ci} cut {cut}: strict open of a truncated store must fail"
            );

            // salvage: exactly the fully-contained chunks survive
            let r = StoreReader::from_bytes_with_policy(maimed, ReadPolicy::Salvage)
                .unwrap_or_else(|e| panic!("chunk {ci} cut {cut}: salvage open failed: {e}"));
            let s = r.salvage_summary().expect("footer was cut off").clone();
            let expect = surviving_events(|_, m| (m.offset + m.byte_len) as usize <= cut);
            assert_eq!(
                s.events_recovered,
                expect.len() as u64,
                "chunk {ci} cut {cut} (delta {delta}): wrong recovery count"
            );
            let q = r.query(&Predicate::any(), 1).unwrap();
            assert_eq!(
                q.events, expect,
                "chunk {ci} cut {cut}: salvaged events are not the contained prefix"
            );
        }
    }
}

#[test]
fn salvaged_analysis_is_bit_identical_to_the_surviving_chunk_store() {
    let bytes = fixture_store();
    let (metas, _) = fixture_chunks();
    // probe a few representative cuts: early, middle, late
    for ci in [1, metas.len() / 2, metas.len() - 2] {
        let cut = (metas[ci].offset + metas[ci].byte_len) as usize + 1;
        let maimed = bytes[..cut].to_vec();
        let salvaged = StoreReader::from_bytes_with_policy(maimed, ReadPolicy::Salvage).unwrap();

        // rebuild a pristine store holding only the surviving chunks
        let mut rebuilt = StoreWriter::with_chunk_events(Vec::new(), CHUNK_EVENTS).unwrap();
        salvaged.scrub_into(&mut rebuilt).unwrap();
        rebuilt.finish().unwrap();
        let clean = StoreReader::from_bytes(rebuilt.into_inner()).unwrap();

        let criteria = OutlierCriteria::paper_fig4();
        let base = TraceReport::from_store(&clean, criteria, 1).unwrap();
        for threads in [1, 4] {
            let d = TraceReport::from_store(&salvaged, criteria, threads).unwrap();
            assert_eq!(d.ati, base.ati, "cut after chunk {ci}, threads {threads}");
            assert_eq!(d.peak, base.peak, "cut after chunk {ci}, threads {threads}");
            assert_eq!(
                d.gantt, base.gantt,
                "cut after chunk {ci}, threads {threads}"
            );
            assert_eq!(
                d.outliers, base.outliers,
                "cut after chunk {ci}, threads {threads}"
            );
            assert_eq!(
                d.breakdown.peak_bytes, base.breakdown.peak_bytes,
                "cut after chunk {ci}, threads {threads}"
            );
        }
    }
}

#[test]
fn a_salvaged_read_trace_equals_the_read_of_its_scrubbed_copy() {
    // 48 events in 16-event chunks with a marker every 10 events; chunk 1
    // (events 16..32) is corrupt
    let mut t = Trace::new();
    for i in 0..48u64 {
        if i % 10 == 0 {
            t.mark(i * 10, format!("iter:{}", i / 10));
        }
        let (block, offset) = (BlockId(i), i as usize * 512);
        t.record(
            i * 10,
            EventKind::Malloc,
            block,
            512,
            offset,
            MemoryKind::Activation,
            None,
        );
    }
    let mut bytes = Vec::new();
    write_store_chunked(&t, &mut bytes, 16).unwrap();
    let meta = StoreReader::from_bytes(bytes.clone())
        .unwrap()
        .footer()
        .chunks[1];
    bytes[meta.offset as usize + CHUNK_HEADER_LEN] ^= 0x08;
    let salvaged = StoreReader::from_bytes_with_policy(bytes, ReadPolicy::Salvage).unwrap();

    let mut scrubbed = StoreWriter::with_chunk_events(Vec::new(), 16).unwrap();
    salvaged.scrub_into(&mut scrubbed).unwrap();
    scrubbed.finish().unwrap();
    let clean = StoreReader::from_bytes(scrubbed.into_inner()).unwrap();

    let (read, want) = (salvaged.read_trace().unwrap(), clean.read_trace().unwrap());
    assert_eq!(read.len(), 32);
    assert_eq!(read.events(), want.events());
    assert_eq!(read.markers(), want.markers());
    // a marker inside the dropped chunk lands at the boundary where it
    // was, and the later ones move left by its 16 events
    let at: Vec<usize> = read.markers().iter().map(|m| m.event_index).collect();
    assert_eq!(at, [0, 10, 16, 16, 24]);
}

#[test]
fn salvage_accounting_is_the_same_at_every_thread_count() {
    // corrupt the first and the last chunk of the second worker's range at
    // four threads; at other thread counts they fall elsewhere in ranges
    let (metas, _) = fixture_chunks();
    let n = metas.len();
    let (first, last) = (n / 4, 2 * n / 4 - 1);
    let mut damaged = fixture_store().clone();
    for ci in [first, last] {
        let m = &metas[ci];
        damaged[(m.offset + m.byte_len / 2) as usize] ^= 0x40;
    }
    let r = StoreReader::from_bytes_with_policy(damaged, ReadPolicy::Salvage).unwrap();
    let criteria = OutlierCriteria::paper_fig4();
    let want = r.query(&Predicate::any(), 1).unwrap();
    assert_eq!(
        want.events,
        surviving_events(|i, _| i != first && i != last)
    );
    assert_eq!(want.stats.chunks_skipped, 2);
    assert_eq!(
        want.stats.events_lost,
        metas[first].count + metas[last].count
    );
    let first_error = want.stats.first_error.clone().expect("a chunk was lost");
    assert!(
        first_error.contains(&format!("chunk {first}")),
        "{first_error}"
    );
    let report = TraceReport::from_store(&r, criteria, 1).unwrap();
    assert_eq!(report.stats.chunks_skipped, 2);
    assert_eq!(report.stats.first_error, Some(first_error));
    for threads in 1..=6 {
        let q = r.query(&Predicate::any(), threads).unwrap();
        assert_eq!(q.stats, want.stats, "threads {threads}");
        assert_eq!(q.events, want.events, "threads {threads}");
        let d = TraceReport::from_store(&r, criteria, threads).unwrap();
        assert_eq!(d.stats, report.stats, "threads {threads}");
        assert_eq!(d.ati, report.ati, "threads {threads}");
        assert_eq!(d.gantt, report.gantt, "threads {threads}");
        assert_eq!(d.peak, report.peak, "threads {threads}");
    }
}

#[test]
fn bit_flip_fuzz_salvages_exactly_the_intact_chunks() {
    let bytes = fixture_store();
    let (metas, _) = fixture_chunks();
    let footer_start = (metas.last().unwrap().offset + metas.last().unwrap().byte_len) as usize;

    for seed in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(seed ^ 0x0BAD_F00D);
        let flips = rng.gen_range_usize(1, 9);
        let mut maimed = bytes.clone();
        let hit = flip_bits(&mut maimed, seed, flips, HEADER_LEN);

        // strict must never panic: either a typed error, or — when every
        // flip landed outside the payloads and footer (e.g. in a chunk
        // record header, which only the rescan path reads) — a clean,
        // exact read
        // (an `Err` here is typed by construction; no panic is the assertion)
        if let Ok(r) = StoreReader::from_bytes(maimed.clone()) {
            if let Ok(q) = r.query(&Predicate::any(), 2) {
                assert_eq!(
                    q.events,
                    surviving_events(|_, _| true),
                    "seed {seed}: strict read succeeded but events differ"
                );
            }
        }

        let payload_hit = |m: &ChunkMeta| {
            hit.iter()
                .any(|&o| (o as u64) >= m.offset && (o as u64) < m.offset + m.byte_len)
        };
        let record_hit = |m: &ChunkMeta| {
            hit.iter().any(|&o| {
                (o as u64) >= m.offset - CHUNK_HEADER_LEN as u64
                    && (o as u64) < m.offset + m.byte_len
            })
        };
        let footer_hit = hit.iter().any(|&o| o >= footer_start);

        let r = StoreReader::from_bytes_with_policy(maimed, ReadPolicy::Salvage)
            .unwrap_or_else(|e| panic!("seed {seed}: salvage open failed: {e}"));
        if footer_hit {
            // footer/trailer damaged: the index is rebuilt by rescan, and
            // a chunk survives iff its whole record (header + payload) is
            // untouched
            assert!(
                r.salvage_summary().is_some(),
                "seed {seed}: footer was hit, expected a rescan"
            );
            let expect = surviving_events(|_, m| !record_hit(m));
            let q = r.query(&Predicate::any(), 2).unwrap();
            assert_eq!(q.events, expect, "seed {seed}: rescan salvage mismatch");
        } else {
            // footer intact: reads go through the index (record headers
            // are never consulted), so a chunk survives iff its payload
            // is untouched
            assert!(
                r.salvage_summary().is_none(),
                "seed {seed}: footer intact, no rescan expected"
            );
            let expect = surviving_events(|_, m| !payload_hit(m));
            let damaged = metas.iter().filter(|m| payload_hit(m)).count();
            let q = r.query(&Predicate::any(), 2).unwrap();
            assert_eq!(q.events, expect, "seed {seed}: salvage mismatch");
            assert_eq!(
                q.stats.chunks_skipped, damaged,
                "seed {seed}: wrong skip accounting"
            );
            assert_eq!(
                q.stats.events_lost,
                metas
                    .iter()
                    .filter(|m| payload_hit(m))
                    .map(|m| m.count)
                    .sum::<u64>(),
                "seed {seed}: wrong loss accounting"
            );
        }
    }
}

#[test]
fn arbitrary_garbage_never_panics_the_reader() {
    for seed in 0..32u64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let len = rng.gen_range_usize(0, 2000);
        let mut garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        for policy in [ReadPolicy::Strict, ReadPolicy::Salvage] {
            // pure noise
            let _ = StoreReader::from_bytes_with_policy(garbage.clone(), policy)
                .map(|r| r.read_trace());
            // noise wearing a valid header, to reach the deeper decoders
            // of every supported format version
            if garbage.len() >= HEADER_LEN {
                garbage[..4].copy_from_slice(b"PTRC");
                for version in [3, 2, 1] {
                    garbage[4] = version;
                    let _ = StoreReader::from_bytes_with_policy(garbage.clone(), policy)
                        .map(|r| r.read_trace());
                }
            }
        }
    }
}

#[test]
fn v2_truncation_salvages_the_contained_prefix() {
    // the main matrix runs on the current (v3) fixture; this keeps the
    // legacy v2 read path under the same truncation discipline
    let t = resnet18_trace();
    let mut bytes = Vec::new();
    write_store_chunked_v2(t, &mut bytes, CHUNK_EVENTS).unwrap();
    let pristine = StoreReader::from_bytes(bytes.clone()).unwrap();
    let metas = pristine.footer().chunks.clone();
    let ci = metas.len() / 2;
    let cut = (metas[ci].offset + metas[ci].byte_len) as usize + 1;
    let r =
        StoreReader::from_bytes_with_policy(bytes[..cut].to_vec(), ReadPolicy::Salvage).unwrap();
    assert_eq!(r.salvage_summary().unwrap().chunks_recovered, ci + 1);
    let back = r.read_trace().unwrap();
    assert_eq!(
        back.events(),
        &t.events()[..((ci + 1) * CHUNK_EVENTS).min(t.events().len())]
    );
}

#[test]
fn v1_truncation_salvages_the_cleanly_decoding_prefix() {
    let t = resnet18_trace();
    let mut bytes = Vec::new();
    write_store_chunked_v1(t, &mut bytes, CHUNK_EVENTS).unwrap();
    let pristine = StoreReader::from_bytes(bytes.clone()).unwrap();
    let metas = pristine.footer().chunks.clone();
    let ci = metas.len() / 2;
    let cut = (metas[ci].offset + metas[ci].byte_len / 2) as usize;
    let r =
        StoreReader::from_bytes_with_policy(bytes[..cut].to_vec(), ReadPolicy::Salvage).unwrap();
    assert_eq!(r.salvage_summary().unwrap().chunks_recovered, ci);
    let back = r.read_trace().unwrap();
    assert_eq!(back.events(), &t.events()[..ci * CHUNK_EVENTS]);
}

#[test]
fn injected_transient_write_errors_are_absorbed_by_the_retry_policy() {
    let t = resnet18_trace();
    let faulty = FaultyIo::new(Cursor::new(Vec::new()), 3)
        .fail_op(1, FaultKind::Transient)
        .fail_op(5, FaultKind::Transient)
        .fail_op(9, FaultKind::Transient);
    let mut w = StoreWriter::with_chunk_events(faulty, CHUNK_EVENTS).unwrap();
    w.set_retry_policy(RetryPolicy {
        max_attempts: 4,
        base_backoff_us: 1,
        seed: 7,
    });
    w.set_sleeper(Box::new(|_| {})); // deterministic: no wall clock
    for l in t.labels() {
        w.intern_label(l);
    }
    for e in t.events() {
        w.record_event(e.clone());
    }
    w.finish().unwrap();
    let bytes = w.into_inner().into_inner().into_inner();
    let r = StoreReader::from_bytes(bytes).unwrap();
    assert!(r.verify_chunks().unwrap().is_empty());
    assert_eq!(r.read_trace().unwrap().events(), t.events());
}

#[test]
fn failed_finish_leaves_no_destination_and_no_temp_litter() {
    let t = resnet18_trace();
    let dir = std::env::temp_dir();
    let dest = dir.join("pinpoint_corruption_atomic.ptrc");
    let tmp = dir.join("pinpoint_corruption_atomic.ptrc.tmp");
    let _ = std::fs::remove_file(&dest);
    let _ = std::fs::remove_file(&tmp);

    // a permanent device fault late in the stream: the error is deferred
    // into finish(), which must surface it AND clean up the temp file
    let file = std::fs::File::create(&tmp).unwrap();
    let faulty = FaultyIo::new(file, 11).fail_op(6, FaultKind::Permanent);
    let mut w = StoreWriter::with_chunk_events(faulty, CHUNK_EVENTS).unwrap();
    w.set_atomic_finalize(tmp.clone(), dest.clone());
    for e in t.events() {
        w.record_event(e.clone());
    }
    let err = w.finish().expect_err("the injected fault must surface");
    assert!(err.to_string().contains("injected permanent fault"));
    assert!(!dest.exists(), "failed finish must not produce {dest:?}");
    assert!(!tmp.exists(), "failed finish must remove {tmp:?}");

    // the same pipeline with no fault lands the file atomically
    let file = std::fs::File::create(&tmp).unwrap();
    let mut w = StoreWriter::with_chunk_events(FaultyIo::new(file, 11), CHUNK_EVENTS).unwrap();
    w.set_atomic_finalize(tmp.clone(), dest.clone());
    for l in t.labels() {
        w.intern_label(l);
    }
    for e in t.events() {
        w.record_event(e.clone());
    }
    w.finish().unwrap();
    assert!(
        dest.exists() && !tmp.exists(),
        "finish renames tmp onto dest"
    );
    let r = StoreReader::open(&dest).unwrap();
    assert_eq!(r.read_trace().unwrap().events(), t.events());
    let _ = std::fs::remove_file(&dest);
}
