//! `analyze`: the offline `report --json` path, one report per operation —
//! open a `.ptrc` store, run the fused five-fold scan (ATI, peak,
//! breakdown, Gantt, outliers; each chunk read, checked and decoded once),
//! render the JSON.
//!
//! Set-up profiles the seeded ResNet-18 configuration, writes its trace as
//! a v3 store, and renders the reference report from the in-memory trace,
//! which never touches the store's encode or decode. Every measured report
//! must equal that reference byte for byte.

use crate::profile::resnet18_config;
use crate::{closed_loop, Args, Outcome, SetUps, SpanTotals, STREAMS};
use pinpoint_analysis::{report_json, OutlierCriteria, TraceReport};
use pinpoint_core::profile;
use pinpoint_obs::tracer;
use pinpoint_store::StoreReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The CLI's default outlier criteria (`--min-ati-ms 800 --min-size-mb 600`).
pub const CRITERIA: OutlierCriteria = OutlierCriteria {
    min_ati_ns: 800_000_000,
    min_size_bytes: 600_000_000,
};

/// Gantt rectangles rendered, as the CLI's default `--max 30`.
pub const MAX_RECTS: usize = 30;

/// Training iterations traced: sixteen (~24k events, six chunks), so the
/// scan dominates the fixed cost of opening the store.
const ITERATIONS: usize = 16;

struct Input {
    path: PathBuf,
    reference: String,
}

/// One offline report, with a span around each layer call.
fn report(path: &Path) -> Result<(String, usize), String> {
    let mut reader = {
        let _s = tracer().span("bench.open");
        StoreReader::open(path).map_err(|e| e.to_string())?
    };
    let d = {
        let _s = tracer().span("bench.scan");
        TraceReport::from_store(&mut reader, CRITERIA, 1).map_err(|e| e.to_string())?
    };
    let _s = tracer().span("bench.render");
    Ok((report_json(&d, MAX_RECTS), d.stats.chunks_decoded))
}

pub fn run(args: &Args, work: &Path) -> Result<(Outcome, f64), String> {
    let cfg = resnet18_config(args.seed, ITERATIONS);
    let (mut setups, input) = SetUps::new(args, work, |dir| {
        let trace = profile(&cfg).map_err(|e| format!("profile: {e}"))?.trace;
        let path = dir.join("resnet18.ptrc");
        pinpoint_store::write_store_file(&trace, &path).map_err(|e| format!("write store: {e}"))?;
        let reference = report_json(&TraceReport::from_trace(&trace, CRITERIA, 1), MAX_RECTS);
        Ok(Input { path, reference })
    })?;

    let chunks = AtomicUsize::new(0);
    tracer().set_enabled(args.trace);
    let window = closed_loop(
        args.seconds,
        STREAMS,
        |_| {
            let (input, chunks) = (&input, &chunks);
            move || match report(&input.path) {
                Ok((json, decoded)) => {
                    chunks.fetch_add(decoded, Ordering::Relaxed);
                    json == input.reference
                }
                Err(e) => {
                    eprintln!("report failed: {e}");
                    false
                }
            }
        },
        || setups.burst(),
    )?;
    tracer().set_enabled(false);
    let spans = SpanTotals::snapshot();

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    if args.trace {
        let ms = |name: &str| spans.per(name, "bench.scan") / 1e6;
        out.layers.insert("analyze.open_ms", ms("bench.open"));
        out.layers.insert("analyze.scan_ms", ms("bench.scan"));
        out.layers.insert("analyze.read_ms", ms("store.read"));
        out.layers
            .insert("analyze.decode_ms", ms("store.chunk") - ms("store.fold"));
        out.layers.insert("analyze.fold_ms", ms("store.fold"));
        out.layers.insert("analyze.merge_ms", ms("engine.merge"));
        out.layers.insert("analyze.render_ms", ms("bench.render"));
        out.layers.insert(
            "analyze.chunks_decoded",
            chunks.into_inner() as f64 / window.latencies_ns.len().max(1) as f64,
        );
    }
    out.window = window;
    Ok((out, setups.median()))
}
