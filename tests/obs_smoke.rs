//! Smoke tests for the `pinpoint-obs` self-observability layer at the
//! integration boundary: span-tree structure must be identical at every
//! thread count (the determinism contract extended to the tracer), the
//! disabled tracer must cost nothing on the store's zero-alloc scan
//! path, and the CLI's `--trace-out` Chrome trace must round-trip the
//! span hierarchy through the in-repo JSON parser.

use pinpoint::analysis::{report_json, OutlierCriteria};
use pinpoint::core::report::TraceReport;
use pinpoint::core::{profile, profile_into_sink, ProfileConfig};
use pinpoint::data::DatasetSpec;
use pinpoint::models::{Architecture, ResNetDepth};
use pinpoint::obs::tracer;
use pinpoint::store::{StoreReader, StoreWriter};
use pinpoint::trace::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Mutex, MutexGuard, OnceLock};

const CRITERIA: OutlierCriteria = OutlierCriteria {
    min_ati_ns: 800_000_000,
    min_size_bytes: 600_000_000,
};

/// The in-process tests drive the process-global tracer, and making a
/// fixture profiles and writes a store, which records spans; serialize
/// them so the harness's concurrent test threads don't interleave spans.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A small but real store: the paper's Fig. 1 MLP case study, chunked
/// finely so the scan spans several chunks and threads=4 really fans
/// out worker threads (one chunk would degrade to the inline path).
fn mlp_store(tag: &str) -> PathBuf {
    let report = profile(&ProfileConfig::mlp_case_study(4)).unwrap();
    let path = std::env::temp_dir().join(format!("pinpoint_obs_{tag}_{}.ptrc", std::process::id()));
    let mut bytes = Vec::new();
    pinpoint::store::write_store_chunked(&report.trace, &mut bytes, 128).unwrap();
    std::fs::write(&path, bytes).unwrap();
    let chunks = StoreReader::open(&path).unwrap().num_chunks();
    assert!(chunks > 1, "fixture must span several chunks, got {chunks}");
    path
}

/// The ResNet-18 trace the CI `obs-smoke` job exercises the CLI with:
/// the paper's breakdown sweep at batch 8, chunked so the scan fans out.
fn resnet18_store(tag: &str) -> PathBuf {
    let cfg = ProfileConfig::breakdown_sweep(
        Architecture::ResNet(ResNetDepth::R18),
        DatasetSpec::cifar100(),
        8,
    );
    let report = profile(&cfg).unwrap();
    let path = std::env::temp_dir().join(format!(
        "pinpoint_obs_r18_{tag}_{}.ptrc",
        std::process::id()
    ));
    let mut bytes = Vec::new();
    pinpoint::store::write_store_chunked(&report.trace, &mut bytes, 2048).unwrap();
    std::fs::write(&path, bytes).unwrap();
    let chunks = StoreReader::open(&path).unwrap().num_chunks();
    assert!(chunks > 1, "fixture must span several chunks, got {chunks}");
    path
}

fn run_report(path: &std::path::Path, threads: usize) -> TraceReport {
    let r = StoreReader::open(path).unwrap();
    TraceReport::from_store(&r, CRITERIA, threads).unwrap()
}

fn bin(name: &str) -> PathBuf {
    // integration tests run from the workspace root; binaries are built
    // into the same profile directory as the test executable
    let mut p = std::env::current_exe().unwrap();
    p.pop(); // deps/
    p.pop();
    p.join(name)
}

#[test]
fn span_structure_is_thread_count_invariant() {
    let _g = obs_lock();
    let store = mlp_store("threads");
    let t = tracer();

    t.clear();
    t.set_enabled(true);
    let report_1 = run_report(&store, 1);
    let snap_1 = t.snapshot();
    t.clear();
    let report_4 = run_report(&store, 4);
    let snap_4 = t.snapshot();
    t.set_enabled(false);
    t.clear();

    assert_eq!(
        report_json(&report_1, 30),
        report_json(&report_4, 30),
        "analysis output must not depend on threads"
    );
    assert!(!snap_1.is_empty() && !snap_4.is_empty());

    // same spans, same counts — only the wall-clock totals may differ —
    // except the merges: one per worker after the first, so none at one
    // thread and one fewer than the workers, min(4, chunks), at four
    let chunks = StoreReader::open(&store).unwrap().num_chunks() as u64;
    let counts = |s: &pinpoint::obs::TraceSnapshot| -> BTreeMap<&str, u64> {
        s.totals_by_name()
            .into_iter()
            .map(|(n, c, _)| (n, c))
            .collect()
    };
    let (mut counts_1, mut counts_4) = (counts(&snap_1), counts(&snap_4));
    assert_eq!(
        counts_1.remove("engine.merge"),
        None,
        "one thread merges nothing"
    );
    assert_eq!(
        counts_4.remove("engine.merge"),
        Some(chunks.min(4) - 1),
        "four threads merge once per worker after the first"
    );
    assert_eq!(
        counts_1, counts_4,
        "span names/counts must be identical at any thread count"
    );
    for (name, per_chunk) in [("store.chunk", 1), ("store.decode", 1), ("engine.fold", 1)] {
        assert_eq!(counts_1.get(name), Some(&(per_chunk * chunks)), "{name}");
    }
    assert_eq!(counts_1.get("engine.run"), Some(&1));

    // per-chunk subtree structure: at threads=1 the chunk spans nest
    // under the calling thread's scan, at threads=4 they are worker
    // roots — anchored at `store.chunk` the shapes must agree exactly
    assert_eq!(
        snap_1.relative_paths("store.chunk"),
        snap_4.relative_paths("store.chunk"),
        "chunk span subtrees must be identical at any thread count"
    );
    let anchored = snap_1.relative_paths("store.chunk");
    assert!(
        anchored
            .iter()
            .any(|(p, _)| p == "store.chunk;store.decode"),
        "decode spans must nest under their chunk: {anchored:?}"
    );
}

#[test]
fn disabled_tracer_adds_nothing_to_the_warm_scan_path() {
    let _g = obs_lock();
    let store = mlp_store("disabled");
    let t = tracer();
    t.set_enabled(false);
    t.clear();

    let records_before = t.total_records();
    let bufs_before = t.buffer_allocs();

    // same reader, scanned twice: the second (warm) scan must neither
    // grow the decode scratch pool nor touch the tracer
    let r = StoreReader::open(&store).unwrap();
    let cold = TraceReport::from_store(&r, CRITERIA, 4).unwrap();
    let warmed = r.decode_reallocs();
    let warm = TraceReport::from_store(&r, CRITERIA, 4).unwrap();
    assert_eq!(report_json(&cold, 30), report_json(&warm, 30));
    assert_eq!(
        r.decode_reallocs(),
        warmed,
        "warm scan must perform zero decode-buffer reallocations"
    );

    assert_eq!(
        t.total_records(),
        records_before,
        "disabled tracer must record no spans"
    );
    assert_eq!(
        t.buffer_allocs(),
        bufs_before,
        "disabled tracer must allocate no span buffers"
    );
    assert!(t.snapshot().is_empty());
}

/// Streams the MLP case study (5 iterations) into a `.ptrc` file.
fn profile_mlp_into_store(tag: &str) {
    let path = std::env::temp_dir().join(format!(
        "pinpoint_obs_profile_{tag}_{}.ptrc",
        std::process::id()
    ));
    let writer = StoreWriter::create(&path).unwrap();
    profile_into_sink(&ProfileConfig::mlp_case_study(5), Box::new(writer)).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn profiling_records_iteration_and_encode_spans() {
    let _g = obs_lock();
    let t = tracer();
    t.clear();
    t.set_enabled(true);
    profile_mlp_into_store("traced");
    let snap = t.snapshot();
    t.set_enabled(false);
    t.clear();

    // one exec.iteration per iteration, carrying its index
    let iterations: Vec<u64> = snap
        .subtrees("exec.iteration")
        .iter()
        .map(|(_, tree)| tree[0].arg)
        .collect();
    assert_eq!(iterations, vec![0, 1, 2, 3, 4]);
    // one store.encode under each store.flush, carrying its chunk index
    let flushes = snap.subtrees("store.flush");
    assert!(!flushes.is_empty());
    for (_, tree) in &flushes {
        let encodes: Vec<_> = tree.iter().filter(|r| r.name == "store.encode").collect();
        assert_eq!(encodes.len(), 1, "{tree:?}");
        assert_eq!(encodes[0].depth, tree[0].depth + 1, "directly nested");
        assert_eq!(encodes[0].arg, tree[0].arg, "same chunk index");
    }
    let counts: BTreeMap<&str, u64> = snap
        .totals_by_name()
        .into_iter()
        .map(|(name, count, _)| (name, count))
        .collect();
    assert_eq!(counts.get("store.encode"), Some(&(flushes.len() as u64)));

    // disabled, the same profile records nothing and allocates no buffer
    let records = t.total_records();
    let buffers = t.buffer_allocs();
    profile_mlp_into_store("untraced");
    assert_eq!(
        t.total_records(),
        records,
        "disabled tracer records nothing"
    );
    assert_eq!(t.buffer_allocs(), buffers);
    assert!(t.snapshot().is_empty());
}

/// Rebuilds every span's `;`-joined ancestor path from a Chrome trace's
/// events: grouped by `tid`, ordered by the exported open ticket, nested
/// by the exported depth — no timestamp containment needed.
fn chrome_paths(trace: &Json) -> Vec<String> {
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let mut by_tid: BTreeMap<u64, Vec<(u64, u64, String)>> = BTreeMap::new();
    for e in events {
        assert_eq!(
            e.get("ph").and_then(Json::as_str),
            Some("X"),
            "complete events only"
        );
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        let args = e.get("args").expect("args");
        by_tid.entry(tid).or_default().push((
            args.get("ticket").and_then(Json::as_u64).expect("ticket"),
            args.get("depth").and_then(Json::as_u64).expect("depth"),
            e.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string(),
        ));
    }
    let mut out = Vec::new();
    for (_, mut recs) in by_tid {
        recs.sort_by_key(|r| r.0);
        let mut stack: Vec<(u64, String)> = Vec::new();
        for (_, depth, name) in recs {
            while stack.last().is_some_and(|(d, _)| *d >= depth) {
                stack.pop();
            }
            let path = match stack.last() {
                Some((_, p)) => format!("{p};{name}"),
                None => name.clone(),
            };
            out.push(path.clone());
            stack.push((depth, path));
        }
    }
    out
}

/// Suffix of each path from the last `anchor` segment, sorted — the
/// thread-count-invariant shape of the anchored subtrees.
fn anchored(paths: &[String], anchor: &str) -> Vec<String> {
    let mut v: Vec<String> = paths
        .iter()
        .filter_map(|p| {
            let segs: Vec<&str> = p.split(';').collect();
            let i = segs.iter().rposition(|s| *s == anchor)?;
            Some(segs[i..].join(";"))
        })
        .collect();
    v.sort();
    v
}

#[test]
fn trace_out_round_trips_span_hierarchy_at_any_thread_count() {
    // profiling the fixture records spans: not while another test traces
    let _g = obs_lock();
    let store = resnet18_store("chrome");
    let tool = bin("pinpoint-trace-tool");
    if !tool.exists() {
        eprintln!("skipping: {tool:?} not built (run with --workspace)");
        return;
    }

    // the reference stdout: the same report without any obs flags
    let plain = Command::new(&tool)
        .arg("report")
        .arg(&store)
        .output()
        .unwrap();
    assert!(plain.status.success(), "{plain:?}");

    let mut per_threads = Vec::new();
    for threads in ["1", "4"] {
        let trace_out = std::env::temp_dir().join(format!(
            "pinpoint_obs_chrome_{threads}_{}.json",
            std::process::id()
        ));
        let out = Command::new(&tool)
            .arg("report")
            .arg(&store)
            .args(["--threads", threads, "--timing", "--trace-out"])
            .arg(&trace_out)
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        // stdout stays byte-deterministic: the wall-clock-dependent
        // timing table and trace confirmation go to stderr
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&plain.stdout),
            "--timing/--trace-out must not change stdout"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("stage"), "timing table missing: {stderr}");
        assert!(
            stderr.contains("engine.run"),
            "stage rows missing: {stderr}"
        );
        assert!(stderr.contains("wrote"), "trace-out note missing: {stderr}");

        let json = std::fs::read_to_string(&trace_out).unwrap();
        let trace = parse(&json).expect("trace JSON must parse with the in-repo parser");
        let paths = chrome_paths(&trace);
        assert!(
            paths.iter().any(|p| p == "engine.run"),
            "engine root span missing: {paths:?}"
        );
        assert!(
            paths
                .iter()
                .any(|p| p.ends_with("store.chunk;store.decode")),
            "decode spans must nest under their chunk: {paths:?}"
        );
        per_threads.push(anchored(&paths, "store.chunk"));
    }
    assert_eq!(
        per_threads[0], per_threads[1],
        "exported chunk subtrees must be identical at any thread count"
    );
}

#[test]
fn query_timing_reports_store_stages() {
    let _g = obs_lock();
    let store = mlp_store("query");
    let tool = bin("pinpoint-trace-tool");
    if !tool.exists() {
        eprintln!("skipping: {tool:?} not built (run with --workspace)");
        return;
    }
    let plain = Command::new(&tool)
        .arg("query")
        .arg(&store)
        .args(["--kind", "malloc", "--max", "5"])
        .output()
        .unwrap();
    assert!(plain.status.success(), "{plain:?}");
    let out = Command::new(&tool)
        .arg("query")
        .arg(&store)
        .args(["--kind", "malloc", "--max", "5", "--timing"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&plain.stdout),
        "--timing must not change stdout"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("store.query"), "{stderr}");
    assert!(stderr.contains("store.prune"), "{stderr}");
}
