//! Full-stack chaos harness for `pinpoint-serve`: a seeded in-process
//! driver hammers a live daemon with a shuffled mix of good queries,
//! salvage queries against a corrupted store, malformed and oversized
//! requests, mid-run store deletion/restoration, injected handler panics,
//! worker kills, and deadline-stalled handlers — across many seeds and
//! both worker-pool widths.
//!
//! The harness holds the daemon to exact books, not vibes:
//!
//! - every success body is byte-identical to the offline reader's answer,
//!   and the full body transcript is identical between `workers = 1` and
//!   `workers = 4` for the same seed;
//! - `/metrics` status counters match an independent client-side tally
//!   exactly (ok / client_error / server_error, panics, deadlines,
//!   respawns);
//! - every run shuts down cleanly (token drain or direct shutdown by
//!   seed parity) and no run leaks a thread.

mod serve_client;

use pinpoint::analysis::query_json;
use pinpoint::core::{profile, ProfileConfig};
use pinpoint::serve::{start, ServeConfig};
use pinpoint::store::{write_store_chunked, Predicate, ReadPolicy, StoreReader};
use pinpoint::tensor::rng::Rng64;
use pinpoint::trace::EventKind;
use serve_client::{chaos, get, metric, post, quiet_chaos_panics, roundtrip};
use std::path::PathBuf;
use std::time::Duration;

/// A canned query: the HTTP body plus the offline-computed truth for
/// both the pristine and the corrupted store.
struct Canned {
    body: String,
    want_good: String,
    want_flaky: String,
}

/// Independent client-side books, kept with the same status buckets as
/// the daemon's `count_status`.
#[derive(Default)]
struct Tally {
    ok: u64,
    client_error: u64,
    server_error: u64,
    panics: u64,
    kills: u64,
    stalls: u64,
}

impl Tally {
    fn count(&mut self, status: u16) {
        match status {
            200..=399 => self.ok += 1,
            400..=499 => self.client_error += 1,
            _ => self.server_error += 1,
        }
    }
}

fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

/// One seeded chaos run against a fresh daemon; returns the transcript
/// of every successful store-query body, in action order.
#[allow(clippy::too_many_lines)]
fn chaos_run(
    seed: u64,
    workers: usize,
    good_bytes: &[u8],
    flaky_bytes: &[u8],
    canned: &[Canned],
) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!(
        "pinpoint-chaos-{seed}-w{workers}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("good.ptrc"), good_bytes).unwrap();
    let flaky_path = dir.join("flaky.ptrc");
    std::fs::write(&flaky_path, flaky_bytes).unwrap();

    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers,
        request_deadline_ms: 500,
        shutdown_token: Some("tok".to_string()),
        chaos_token: Some("chaos".to_string()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let mut rng = Rng64::seed_from_u64(seed);
    let mut tally = Tally::default();
    let mut bodies = Vec::new();
    let mut flaky_present = true;
    // stalls burn a full deadline each; gate them to a few seeds so the
    // whole sweep stays fast while the path still sees real coverage
    let stalls_allowed = u64::from(seed.is_multiple_of(8));

    for _ in 0..24 {
        match rng.gen_below(16) {
            0..=4 => {
                let q = &canned[rng.gen_below(canned.len() as u64) as usize];
                let (status, _, body) = post(addr, "/stores/good/query", &q.body);
                tally.count(status);
                assert_eq!(status, 200, "seed {seed}: {body}");
                assert_eq!(body, q.want_good, "seed {seed}: good body drifted");
                bodies.push(body);
            }
            5..=8 => {
                let q = &canned[rng.gen_below(canned.len() as u64) as usize];
                let (status, _, body) = post(addr, "/stores/flaky/query", &q.body);
                tally.count(status);
                if flaky_present {
                    assert_eq!(status, 200, "seed {seed}: {body}");
                    assert_eq!(body, q.want_flaky, "seed {seed}: salvage body drifted");
                    bodies.push(body);
                } else {
                    assert_eq!(status, 404, "seed {seed}: deleted store must 404");
                }
            }
            9 => {
                // unparseable request line: framing is gone, answer 400
                let (status, _, _) = roundtrip(addr, b"BLARG\r\n\r\n");
                tally.count(status);
                assert_eq!(status, 400, "seed {seed}");
            }
            10 => {
                // declared body far past the cap: refused before reading it
                let (status, _, _) = roundtrip(
                    addr,
                    b"POST /stores/good/query HTTP/1.1\r\nHost: x\r\n\
                      Content-Length: 9000000\r\n\r\n",
                );
                tally.count(status);
                assert_eq!(status, 413, "seed {seed}");
            }
            11 => {
                let (status, _, _) = post(addr, "/stores/missing/query", "{}");
                tally.count(status);
                assert_eq!(status, 404, "seed {seed}");
            }
            12 => {
                let (status, _, body) = chaos(addr, "panic");
                tally.count(status);
                tally.panics += 1;
                assert_eq!(status, 500, "seed {seed}: {body}");
                assert!(body.contains("handler panicked"), "seed {seed}: {body}");
            }
            13 => {
                let (status, _, _) = chaos(addr, "kill");
                tally.count(status);
                tally.kills += 1;
                assert_eq!(status, 204, "seed {seed}");
                // wait for the watchdog so the pool is back at full
                // strength before the next action (each poll is a
                // request too — keep the books straight)
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                loop {
                    let (status, _, m) = get(addr, "/metrics");
                    tally.count(status);
                    if metric(&m, "workers_respawned") >= tally.kills {
                        break;
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "seed {seed}: watchdog never respawned: {m}"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            14 => {
                // mid-run store removal / restoration, no request issued;
                // the next flaky action observes whichever state holds
                if flaky_present {
                    std::fs::remove_file(&flaky_path).unwrap();
                } else {
                    std::fs::write(&flaky_path, flaky_bytes).unwrap();
                }
                flaky_present = !flaky_present;
            }
            _ => {
                if tally.stalls < stalls_allowed {
                    let (status, head, body) = chaos(addr, "stall");
                    tally.count(status);
                    tally.stalls += 1;
                    assert_eq!(status, 503, "seed {seed}: {body}");
                    assert!(head.contains("Retry-After: 1"), "seed {seed}: {head}");
                    assert!(body.contains("deadline exceeded"), "seed {seed}: {body}");
                } else {
                    let (status, _, _) = get(addr, "/stores");
                    tally.count(status);
                    assert_eq!(status, 200, "seed {seed}");
                }
            }
        }
    }

    // the daemon's books must agree with the client's, exactly — the
    // /metrics body excludes only this final request itself
    let (_, _, m) = get(addr, "/metrics");
    assert_eq!(metric(&m, "ok"), tally.ok, "seed {seed} w{workers}: {m}");
    assert_eq!(
        metric(&m, "client_error"),
        tally.client_error,
        "seed {seed} w{workers}: {m}"
    );
    assert_eq!(
        metric(&m, "server_error"),
        tally.server_error,
        "seed {seed} w{workers}: {m}"
    );
    assert_eq!(
        metric(&m, "panics_caught"),
        tally.panics,
        "seed {seed}: {m}"
    );
    assert_eq!(
        metric(&m, "workers_respawned"),
        tally.kills,
        "seed {seed}: {m}"
    );
    assert_eq!(
        metric(&m, "deadline_exceeded"),
        tally.stalls,
        "seed {seed}: {m}"
    );
    assert_eq!(metric(&m, "breaker_trips"), 0, "seed {seed}: {m}");

    // alternate the two clean-exit paths across seeds
    if seed.is_multiple_of(2) {
        handle.shutdown();
    } else {
        let (status, _, _) = roundtrip(
            addr,
            b"POST /shutdown HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\
              X-Pinpoint-Token: tok\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 204, "seed {seed}: drain must start");
        handle.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
    bodies
}

/// The whole harness is one test so the thread-leak ledger sees a quiet
/// process: seeds × worker widths, exact books per run, byte-identical
/// transcripts across widths, and no thread left behind.
#[test]
fn seeded_chaos_sweep_keeps_exact_books_across_worker_widths() {
    quiet_chaos_panics();
    let baseline_threads = threads_now();

    // one trace, encoded once: `good` is pristine, `flaky` has a flipped
    // payload byte in chunk 1 (salvageable, deterministic loss)
    let report = profile(&ProfileConfig::mlp_case_study(3)).unwrap();
    let mut good_bytes = Vec::new();
    write_store_chunked(&report.trace, &mut good_bytes, 64).unwrap();
    let scratch = std::env::temp_dir().join(format!("pinpoint-chaos-truth-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let good_path = scratch.join("good.ptrc");
    std::fs::write(&good_path, &good_bytes).unwrap();
    let chunk1_off = {
        let reader = StoreReader::open(&good_path).unwrap();
        assert!(reader.num_chunks() > 2, "need several chunks");
        reader.footer().chunks[1].offset
    };
    let mut flaky_bytes = good_bytes.clone();
    flaky_bytes[chunk1_off as usize + 1] ^= 0x40;
    let flaky_path = scratch.join("flaky.ptrc");
    std::fs::write(&flaky_path, &flaky_bytes).unwrap();

    // offline truth for every canned query, against both stores
    let canned: Vec<Canned> = [
        (
            "{\"kind\":\"malloc\",\"max\":10}",
            Some(EventKind::Malloc),
            10,
        ),
        ("{\"kind\":\"free\",\"max\":5}", Some(EventKind::Free), 5),
        ("{\"max\":8}", None, 8),
    ]
    .into_iter()
    .map(|(body, kind, max)| {
        let pred = match kind {
            Some(k) => Predicate::any().with_kind(k),
            None => Predicate::any(),
        };
        let truth = |path: &PathBuf| {
            let reader = StoreReader::open_with_policy(path, ReadPolicy::Salvage).unwrap();
            query_json(&reader.query(&pred, 1).unwrap(), max)
        };
        Canned {
            body: body.to_string(),
            want_good: truth(&good_path),
            want_flaky: truth(&flaky_path),
        }
    })
    .collect();
    {
        // the corruption must actually bite, or `flaky` tests nothing
        let reader = StoreReader::open_with_policy(&flaky_path, ReadPolicy::Salvage).unwrap();
        let stats = reader.query(&Predicate::any(), 1).unwrap().stats;
        assert!(stats.chunks_skipped >= 1 && stats.events_lost > 0);
    }

    let seeds: u64 = std::env::var("PINPOINT_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    for seed in 0..seeds {
        let narrow = chaos_run(seed, 1, &good_bytes, &flaky_bytes, &canned);
        let wide = chaos_run(seed, 4, &good_bytes, &flaky_bytes, &canned);
        assert_eq!(
            narrow, wide,
            "seed {seed}: success transcript must not depend on pool width"
        );
    }

    // every daemon joined its threads; give stragglers a moment, then
    // hold the line
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if threads_now() <= baseline_threads {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "leaked threads: baseline {baseline_threads}, now {}",
            threads_now()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
