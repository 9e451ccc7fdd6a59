//! `profile`: one instrumented ResNet-18 training profile per operation,
//! streamed through the trace sink into a `.ptrc` store on disk — the
//! producing half of the pipeline (executor → caching allocator → trace
//! sink → store writer).
//!
//! The seed picks the mini-batch size and the profile seed. Symbolic
//! execution emits the same number of events at any batch size, so every
//! seed costs about the same while block sizes (and thus allocator
//! decisions and encoded bytes) differ.
//!
//! Checks: every profile reports the event count and allocator counters of
//! an in-memory reference profile made during set-up, and the last store
//! written reads back equal to the reference trace.

use crate::{closed_loop, Args, Outcome, SetUps, SpanTotals, STREAMS};
use pinpoint_core::{profile, profile_into_sink, ProfileConfig};
use pinpoint_data::DatasetSpec;
use pinpoint_device::alloc::AllocStats;
use pinpoint_models::{Architecture, ResNetDepth};
use pinpoint_obs::tracer;
use pinpoint_store::{StoreReader, StoreWriter};
use pinpoint_tensor::rng::Rng64;
use pinpoint_trace::Trace;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Training iterations per measured profile (~24k events).
const ITERATIONS: usize = 16;

/// The seeded ResNet-18 training profile every workload draws its traces
/// from: `iterations` iterations at batch 16, 32, 48 or 64 on
/// CIFAR-100-sized inputs, one thread.
pub fn resnet18_config(seed: u64, iterations: usize) -> ProfileConfig {
    let mut rng = Rng64::seed_from_u64(seed);
    let batch = 16 * (1 + rng.gen_below(4) as usize);
    let mut cfg = ProfileConfig::breakdown_sweep(
        Architecture::ResNet(ResNetDepth::R18),
        DatasetSpec::cifar100(),
        batch,
    );
    cfg.iterations = iterations;
    cfg.seed = seed;
    cfg.threads = 1;
    cfg
}

struct Reference {
    trace: Trace,
    alloc: AllocStats,
}

pub fn run(args: &Args, work: &Path) -> Result<(Outcome, f64), String> {
    let cfg = resnet18_config(args.seed, ITERATIONS);
    // set-up: the reference profile every measured one is checked against
    let (mut setups, reference) = SetUps::new(args, work, |_| {
        let report = profile(&cfg).map_err(|e| format!("reference profile: {e}"))?;
        Ok(Reference {
            trace: report.trace,
            alloc: report.alloc_stats,
        })
    })?;
    let events = reference.trace.len() as u64;
    let paths: Vec<PathBuf> = (0..STREAMS)
        .map(|i| work.join(format!("profile-{i}.ptrc")))
        .collect();

    let mallocs = AtomicU64::new(0);
    let cache_hits = AtomicU64::new(0);
    tracer().set_enabled(args.trace);
    let window = closed_loop(
        args.seconds,
        STREAMS,
        |stream| {
            let (path, cfg, reference, mallocs, cache_hits) =
                (&paths[stream], &cfg, &reference, &mallocs, &cache_hits);
            move || {
                let _s = tracer().span("bench.profile");
                StoreWriter::create(path)
                    .map_err(|e| e.to_string())
                    .and_then(|w| profile_into_sink(cfg, Box::new(w)).map_err(|e| e.to_string()))
                    .map(|r| {
                        mallocs.fetch_add(r.alloc_stats.num_mallocs, Ordering::Relaxed);
                        cache_hits.fetch_add(r.alloc_stats.cache_hit_mallocs, Ordering::Relaxed);
                        r.events_recorded == events && r.alloc_stats == reference.alloc
                    })
                    .unwrap_or_else(|e| {
                        eprintln!("profile failed: {e}");
                        false
                    })
            }
        },
        || setups.burst(),
    )?;
    tracer().set_enabled(false);
    let spans = SpanTotals::snapshot();

    // the last store of each stream reads back as the reference trace
    let mut correct = true;
    let mut store_bytes = 0;
    for path in &paths {
        let mut reader = StoreReader::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        store_bytes += reader.file_len();
        let trace = reader
            .read_trace()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        correct &= trace == reference.trace;
    }

    let mut out = Outcome {
        correct,
        ..Outcome::default()
    };
    if args.trace {
        let ms = |name: &str| spans.per(name, "bench.profile") / 1e6;
        let mallocs = mallocs.into_inner();
        out.layers
            .insert("profile.exec_ms", ms("bench.profile") - ms("store.flush"));
        out.layers
            .insert("profile.sink_flush_ms", ms("store.flush"));
        out.layers.insert(
            "alloc.mallocs",
            mallocs as f64 / window.latencies_ns.len().max(1) as f64,
        );
        out.layers.insert(
            "alloc.cache_hit_pct",
            100.0 * cache_hits.into_inner() as f64 / mallocs.max(1) as f64,
        );
        out.layers.insert(
            "store.bytes_per_event",
            store_bytes as f64 / (paths.len() as u64 * events.max(1)) as f64,
        );
    }
    out.window = window;
    Ok((out, setups.median()))
}
