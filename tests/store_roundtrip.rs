//! Cross-format integration tests: the `.ptrc` store against JSON and the
//! in-memory trace, plus the acceptance criteria for the chunked layout
//! (pushdown skips chunks; the binary format is much smaller than JSON).

mod oracle;

use pinpoint::analysis::{
    sift, AtiFold, BreakdownRow, EventFold, FusedPipeline, GanttFold, OutlierCriteria, PeakFold,
};
use pinpoint::core::{profile, ProfileConfig};
use pinpoint::store::{write_store_chunked, Predicate, StoreReader};
use pinpoint::tensor::rng::Rng64;
use pinpoint::trace::export::{json_string, read_json, write_json};
use pinpoint::trace::{BlockId, EventKind, Marker, MemEvent, MemoryKind, Trace};

/// Generates a pseudo-random trace: arbitrary event mixes, shared and
/// fresh blocks, op labels, markers — everything the wire formats carry.
fn arbitrary_trace(rng: &mut Rng64, events: usize) -> Trace {
    let mut t = Trace::new();
    let n_labels = rng.gen_range_usize(0, 8);
    for i in 0..n_labels {
        t.intern_label(&format!("op.{i}/with,comma\"quote"));
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
        let dt_bits = rng.gen_range_usize(1, 30);
        time += rng.gen_below(1 << dt_bits);
        let op_label = if n_labels > 0 && rng.gen_bool() {
            Some(rng.gen_range_usize(0, n_labels) as u32)
        } else {
            None
        };
        let block_bits = rng.gen_range_usize(1, 40);
        let size_bits = rng.gen_range_usize(1, 33);
        let offset_bits = rng.gen_range_usize(1, 38);
        t.push(MemEvent {
            time_ns: time,
            kind: kinds[rng.gen_range_usize(0, kinds.len())],
            block: BlockId(rng.gen_below(1 << block_bits)),
            size: rng.gen_below(1 << size_bits) as usize,
            offset: rng.gen_below(1 << offset_bits) as usize,
            mem_kind: mem_kinds[rng.gen_range_usize(0, mem_kinds.len())],
            op_label,
        });
        if rng.gen_range_usize(0, 20) == 0 {
            t.push_marker(Marker {
                time_ns: time,
                event_index: t.len(),
                label: format!("marker:{time}"),
            });
        }
    }
    t
}

#[test]
fn json_round_trip_is_lossless_for_arbitrary_traces() {
    let mut rng = Rng64::seed_from_u64(0x9_1517_2021);
    for case in 0..25 {
        let events = rng.gen_range_usize(0, 400);
        let t = arbitrary_trace(&mut rng, events);
        let mut buf = Vec::new();
        write_json(&t, &mut buf).unwrap();
        let back = read_json(&buf[..]).unwrap();
        assert_eq!(back, t, "JSON round trip diverged (case {case})");
    }
}

#[test]
fn store_round_trip_is_lossless_for_arbitrary_traces() {
    let mut rng = Rng64::seed_from_u64(0x5107_7e57);
    for case in 0..25 {
        let events = rng.gen_range_usize(0, 400);
        let chunk = rng.gen_range_usize(1, 64);
        let t = arbitrary_trace(&mut rng, events);
        let mut bytes = Vec::new();
        write_store_chunked(&t, &mut bytes, chunk).unwrap();
        let r = StoreReader::from_bytes(bytes).unwrap();
        let back = r.read_trace().unwrap();
        assert_eq!(
            back, t,
            "store round trip diverged (case {case}, chunk {chunk})"
        );
    }
}

fn profiled_trace() -> Trace {
    profile(&ProfileConfig::mlp_case_study(8)).unwrap().trace
}

fn store_of(t: &Trace, chunk: usize) -> StoreReader {
    let mut bytes = Vec::new();
    write_store_chunked(t, &mut bytes, chunk).unwrap();
    StoreReader::from_bytes(bytes).unwrap()
}

/// Runs one fold over a store through the fused engine.
fn fold_store<F: EventFold + 'static>(r: &StoreReader, fold: F) -> F::Output {
    let mut pipe = FusedPipeline::new();
    let h = pipe.register(fold);
    pipe.run(r, 4).unwrap().take(h)
}

#[test]
fn analyses_from_store_are_bit_identical_to_in_memory() {
    let t = profiled_trace();
    let r = store_of(&t, 512);

    let ati = fold_store(&r, AtiFold);
    let ati_want = oracle::ati_records(&t);
    assert_eq!(ati.records(), ati_want);

    let criteria = OutlierCriteria {
        min_ati_ns: 1_000,
        min_size_bytes: 1_000,
    };
    assert_eq!(sift(&ati, criteria), oracle::outliers(&ati_want, criteria));

    let peak = fold_store(&r, PeakFold);
    assert_eq!(peak, oracle::peak(&t));
    assert_eq!(
        BreakdownRow::from_peak("w", &peak),
        oracle::breakdown("w", &t)
    );

    let end = t.end_time_ns();
    for (t_start, t_end) in [(0, end), (end / 3, end / 2)] {
        assert_eq!(
            fold_store(&r, GanttFold { t_start, t_end }),
            oracle::gantt(&t, t_start, t_end),
            "window {t_start}..{t_end}"
        );
    }
}

#[test]
fn full_query_is_thread_count_invariant_on_profiled_trace() {
    let t = profiled_trace();
    for threads in [1, 4] {
        let r = store_of(&t, 256);
        let q = r.query(&Predicate::any(), threads).unwrap();
        assert_eq!(q.events, t.events(), "threads={threads}");
        assert_eq!(q.stats.chunks_pruned, 0);
    }
}

#[test]
fn narrow_time_query_decodes_under_half_the_chunks() {
    let t = profiled_trace();
    let r = store_of(&t, 32);
    let total = r.num_chunks();
    assert!(
        total >= 20,
        "need many chunks for a meaningful test, got {total}"
    );

    // a window covering <10% of the trace's time span
    let end = t.end_time_ns();
    let lo = end / 2;
    let hi = lo + end / 20; // 5% of the span
    let before = r.chunks_decoded();
    let q = r
        .query(&Predicate::any().with_time_range(lo, hi), 1)
        .unwrap();
    assert_eq!(r.chunks_decoded() - before, q.stats.chunks_decoded as u64);
    assert!(
        q.stats.chunks_decoded * 2 < total,
        "time window of 5% decoded {}/{} chunks",
        q.stats.chunks_decoded,
        total
    );
    // and it found the right events
    let expect: Vec<MemEvent> = t
        .events()
        .iter()
        .filter(|e| e.time_ns >= lo && e.time_ns <= hi)
        .cloned()
        .collect();
    assert_eq!(q.events, expect);
    assert!(!q.events.is_empty(), "window should not be empty");
}

#[test]
fn store_is_at_least_5x_smaller_than_json() {
    let t = profiled_trace();
    let json_len = json_string(&t).len();
    let mut bytes = Vec::new();
    pinpoint::store::write_store(&t, &mut bytes).unwrap();
    let ratio = json_len as f64 / bytes.len() as f64;
    assert!(
        ratio >= 5.0,
        "compression ratio vs JSON is only {ratio:.2}x ({json_len} -> {})",
        bytes.len()
    );
}
