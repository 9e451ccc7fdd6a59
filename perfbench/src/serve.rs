//! The daemon workloads: `pinpoint-serve`, in process, over a catalog of
//! three seeded ResNet-18 stores, driven by [`STREAMS`] closed-loop
//! clients against as many workers. Every request is the same kind — a
//! `report` with a given outlier threshold — so the workloads differ only
//! in whether keys repeat and how clients connect:
//!
//! - **Hot** (kept-alive): keys drawn from three, the CLI-default report
//!   of each store. After set-up warms them, the result cache answers
//!   every request.
//! - **Cold** (kept-alive): no key repeats — each request raises the
//!   threshold — so the result cache never hits; every answer is folded
//!   from the (warm) chunk cache and rendered.
//! - **Connect**: the hot keys, each request on a fresh connection, so the
//!   time is the connection path: accept, hand-off to a worker, close.
//!
//! Kept-alive clients hold their connection for the whole window (the
//! daemon's per-connection request budget is lifted), so no hot or cold
//! request pays for a connection.
//!
//! Checks: every response must be a 200. Hot bodies must equal reports
//! rendered offline from the in-memory traces; cold bodies are hashed, and
//! an evenly spaced sample of them is recomputed offline from the stores
//! after the measured window.

use crate::analyze::{CRITERIA, MAX_RECTS};
use crate::http::{one_shot, Conn, Response};
use crate::profile::resnet18_config;
use crate::{closed_loop, Args, Outcome, SetUps, SpanTotals, STREAMS};
use pinpoint_analysis::{report_json, OutlierCriteria, TraceReport};
use pinpoint_core::profile;
use pinpoint_obs::tracer;
use pinpoint_serve::{start, ServeConfig, ServerHandle};
use pinpoint_store::StoreReader;
use pinpoint_tensor::rng::Rng64;
use pinpoint_trace::json::Json;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Stores in the catalog.
const STORES: usize = 3;
/// Training iterations traced per store (~12k events).
const ITERATIONS: usize = 8;
/// Cold answers recomputed offline after the measured window.
const VERIFY_SAMPLES: usize = 48;

/// Which traffic drives the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hot,
    Cold,
    Connect,
}

/// One request: a report on `store` with outlier threshold `min_ati_ms`
/// (the size threshold stays the CLI default).
#[derive(Debug, Clone, Copy)]
struct Key {
    store: usize,
    min_ati_ms: u64,
}

impl Key {
    /// The hot keys: the CLI-default report of each store.
    fn hot(store: usize) -> Self {
        Key {
            store,
            min_ati_ms: CRITERIA.min_ati_ns / 1_000_000,
        }
    }

    /// The `k`-th cold key: stores rotate, and every threshold lies above
    /// the default, so no cold key is ever a hot one or an earlier one.
    fn cold(k: u64) -> Self {
        Key {
            store: (k % STORES as u64) as usize,
            min_ati_ms: Key::hot(0).min_ati_ms + 1 + k,
        }
    }

    fn path(&self) -> String {
        format!("/stores/{}/report", store_name(self.store))
    }

    fn body(&self) -> String {
        format!("{{\"min_ati_ms\":{}}}", self.min_ati_ms)
    }

    fn criteria(&self) -> OutlierCriteria {
        OutlierCriteria {
            min_ati_ns: self.min_ati_ms * 1_000_000,
            ..CRITERIA
        }
    }

    /// The answer computed offline from the store: a fresh reader and the
    /// renderer the CLI's `report --json` uses.
    fn expected(&self, stores: &[PathBuf]) -> Result<Vec<u8>, String> {
        let mut reader = StoreReader::open(&stores[self.store]).map_err(|e| e.to_string())?;
        let d =
            TraceReport::from_store(&mut reader, self.criteria(), 1).map_err(|e| e.to_string())?;
        Ok(report_json(&d, MAX_RECTS).into_bytes())
    }
}

fn store_name(i: usize) -> String {
    format!("resnet18-{i}")
}

/// A running daemon over freshly profiled stores; shut down on drop.
struct Daemon {
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    stores: Vec<PathBuf>,
    /// The hot answer of each store, rendered from its in-memory trace.
    hot: Vec<Vec<u8>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

/// Profiles and writes the stores, starts the daemon, and warms both of
/// its caches with the hot keys (the first report of a store decodes every
/// chunk), each answer checked against the offline one.
fn launch(seed: u64, work: &Path, mix: Mix) -> Result<Daemon, String> {
    let mut stores = Vec::new();
    let mut hot = Vec::new();
    for i in 0..STORES {
        let cfg = resnet18_config(seed.wrapping_mul(31).wrapping_add(i as u64), ITERATIONS);
        let trace = profile(&cfg).map_err(|e| format!("profile: {e}"))?.trace;
        let path = work.join(format!("{}.ptrc", store_name(i)));
        pinpoint_store::write_store_file(&trace, &path).map_err(|e| format!("write store: {e}"))?;
        stores.push(path);
        let d = TraceReport::from_trace(&trace, Key::hot(i).criteria(), 1);
        hot.push(report_json(&d, MAX_RECTS).into_bytes());
    }
    let mut config = ServeConfig {
        catalog_dir: work.to_path_buf(),
        workers: STREAMS,
        ..ServeConfig::default()
    };
    if mix != Mix::Connect {
        config.keepalive_requests = usize::MAX;
    }
    let handle = start(config).map_err(|e| format!("start daemon: {e}"))?;
    let daemon = Daemon {
        addr: handle.addr(),
        handle: Some(handle),
        stores,
        hot,
    };
    for (store, want) in daemon.hot.iter().enumerate() {
        let key = Key::hot(store);
        if expect_ok(one_shot(daemon.addr, "POST", &key.path(), &key.body()))? != *want {
            return Err(format!(
                "{}: warm-up report differs from offline",
                key.path()
            ));
        }
    }
    Ok(daemon)
}

fn expect_ok(r: std::io::Result<Response>) -> Result<Vec<u8>, String> {
    let r = r.map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!(
            "status {}: {}",
            r.status,
            String::from_utf8_lossy(&r.body)
        ));
    }
    Ok(r.body)
}

/// The daemon's `/metrics` document.
fn metrics(addr: SocketAddr) -> Result<Json, String> {
    let body = expect_ok(one_shot(addr, "GET", "/metrics", ""))?;
    pinpoint_trace::json::parse(&String::from_utf8_lossy(&body))
        .map_err(|e| format!("/metrics: {e}"))
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics.get(name).and_then(Json::as_u64).unwrap_or(0)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One hot or connect client: a seeded draw over the hot keys, on its
/// kept-alive connection or, if not `kept_alive`, a fresh connection per
/// request, each answer compared with its offline reference.
fn hot_client(d: &Daemon, seed: u64, kept_alive: bool) -> impl FnMut() -> bool + '_ {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut conn = Conn::new(d.addr);
    move || {
        let key = Key::hot(rng.gen_below(STORES as u64) as usize);
        let (path, body) = (key.path(), key.body());
        let res = if kept_alive {
            conn.request("POST", &path, &body)
        } else {
            one_shot(d.addr, "POST", &path, &body)
        };
        match res {
            Ok(r) => r.status == 200 && r.body == d.hot[key.store],
            Err(e) => {
                eprintln!("hot request {path} failed: {e}");
                false
            }
        }
    }
}

/// Cold client `stream`: keys `stream`, `stream + STREAMS`, …, recording
/// `(key, body hash)` for later checking.
fn cold_client<'a>(
    d: &'a Daemon,
    stream: usize,
    answers: &'a Mutex<Vec<(u64, u64)>>,
) -> impl FnMut() -> bool + 'a {
    let mut k = stream as u64;
    let mut conn = Conn::new(d.addr);
    move || {
        let key = Key::cold(k);
        let path = key.path();
        let ok = match conn.request("POST", &path, &key.body()) {
            Ok(r) if r.status == 200 => {
                answers
                    .lock()
                    .expect("answer log poisoned")
                    .push((k, fnv1a(&r.body)));
                true
            }
            Ok(r) => {
                eprintln!("cold request {path}: status {}", r.status);
                false
            }
            Err(e) => {
                eprintln!("cold request {path} failed: {e}");
                false
            }
        };
        k += STREAMS as u64;
        ok
    }
}

pub fn run(args: &Args, work: &Path, mix: Mix) -> Result<(Outcome, f64), String> {
    let (mut setups, daemon) = SetUps::new(args, work, |dir| launch(args.seed, dir, mix))?;
    let answers = Mutex::new(Vec::new());
    let before = metrics(daemon.addr)?;
    // the daemon records spans all the time; start the window's from empty
    tracer().clear();
    // each client's connection closes when its thread ends with the window
    let window = closed_loop(
        args.seconds,
        STREAMS,
        |stream| -> Box<dyn FnMut() -> bool + '_> {
            let seed = args.seed ^ (stream as u64 + 1).wrapping_mul(0x9E37_79B9);
            match mix {
                Mix::Hot => Box::new(hot_client(&daemon, seed, true)),
                Mix::Connect => Box::new(hot_client(&daemon, seed, false)),
                Mix::Cold => Box::new(cold_client(&daemon, stream, &answers)),
            }
        },
        || setups.burst(),
    )?;
    let spans = SpanTotals::snapshot();
    let after = metrics(daemon.addr)?;

    // cold answers: recompute an evenly spaced sample offline
    let mut correct = true;
    let mut answers = answers.into_inner().expect("answer log poisoned");
    answers.sort_unstable();
    let step = (answers.len() / VERIFY_SAMPLES).max(1);
    for &(k, hash) in answers.iter().step_by(step) {
        let key = Key::cold(k);
        if fnv1a(&key.expected(&daemon.stores)?) != hash {
            eprintln!(
                "cold answer {} {} differs from offline",
                key.path(),
                key.body()
            );
            correct = false;
        }
    }
    drop(daemon);

    let mut out = Outcome {
        correct,
        ..Outcome::default()
    };
    if args.trace {
        let delta =
            |name: &str| counter(&after, name).saturating_sub(counter(&before, name)) as f64;
        let pct = |hit: &str, miss: &str| 100.0 * delta(hit) / (delta(hit) + delta(miss)).max(1.0);
        let us = |name: &str| spans.per(name, "serve.request") / 1e3;
        let client_us = window.latencies_ns.iter().sum::<u64>() as f64
            / 1e3
            / window.latencies_ns.len().max(1) as f64;
        out.layers.insert("serve.request_us", us("serve.request"));
        out.layers.insert("serve.queue_us", us("serve.queue"));
        out.layers.insert("serve.parse_us", us("serve.parse"));
        out.layers.insert("serve.lookup_us", us("serve.lookup"));
        out.layers.insert("serve.fold_us", us("serve.fold"));
        out.layers.insert("serve.render_us", us("serve.render"));
        out.layers.insert("serve.write_us", us("serve.write"));
        out.layers
            .insert("serve.client_wait_us", client_us - us("serve.request"));
        out.layers.insert(
            "serve.chunk_cache_hit_pct",
            pct("cache_hits", "cache_misses"),
        );
        out.layers.insert(
            "serve.result_cache_hit_pct",
            pct("result_hits", "result_misses"),
        );
    }
    out.window = window;
    Ok((out, setups.median()))
}
