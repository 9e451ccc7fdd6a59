//! Smoke tests for the `pinpoint-serve` daemon at the process boundary:
//! scripted TCP sessions against an in-process server, byte-identity
//! against the CLI's offline `--json` output, salvage answers for damaged
//! stores with exact loss accounting, deterministic overload shedding,
//! keep-alive sessions, result-cache behavior (hits, eviction,
//! generation invalidation, conditional `304`s), fresh-connection
//! latency, and the `pinpoint-trace-tool serve` subcommand end to end.

mod serve_client;

use pinpoint::analysis::{report_json, OutlierCriteria, TraceReport};
use pinpoint::core::{profile, ProfileConfig};
use pinpoint::serve::{start, ServeConfig};
use pinpoint::store::{write_store_file, Predicate, ReadPolicy, StoreReader};
use pinpoint::trace::EventKind;
use serve_client::{
    get, header, metric, mlp_store, post, post_with, read_one_response, roundtrip, tmp_catalog,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn bin(name: &str) -> PathBuf {
    // integration tests run from the workspace root; binaries are built
    // into the same profile directory as the test executable
    let mut p = std::env::current_exe().unwrap();
    p.pop(); // deps/
    p.pop();
    p.join(name)
}

fn header_u64(head: &str, name: &str) -> u64 {
    header(head, name).parse().unwrap()
}

/// The daemon's query and report responses are the same bytes as the
/// CLI's `--json` output on the same store — the contract that lets
/// dashboards switch between the two without re-parsing.
#[test]
fn daemon_bodies_match_cli_json_output() {
    let tool = bin("pinpoint-trace-tool");
    if !tool.exists() {
        eprintln!("skipping: {tool:?} not built (run with --workspace)");
        return;
    }
    let dir = tmp_catalog("cli-ident");
    let store = mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // report: daemon defaults == CLI defaults (800 ms / 600 MB / max 30)
    let (status, _, daemon) = post(addr, "/stores/mlp/report", "");
    assert_eq!(status, 200);
    let out = Command::new(&tool)
        .arg("report")
        .arg(&store)
        .arg("--json")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let cli = String::from_utf8(out.stdout).unwrap();
    assert_eq!(daemon, cli.trim_end_matches('\n'), "report bytes diverge");

    // query: same predicate via JSON body and CLI flags, several thread
    // counts on the CLI side — identical bytes every way, with kind and
    // category names spelled any way the CLI accepts
    let cases: [(&str, &[&str]); 2] = [
        (
            "{\"kind\":\"malloc\",\"min_size_bytes\":1000,\"max\":7}",
            &["--kind", "malloc", "--min-size-bytes", "1000", "--max", "7"],
        ),
        (
            "{\"kind\":\"MALLOC\",\"category\":\"params\",\"max\":7}",
            &["--kind", "MALLOC", "--category", "params", "--max", "7"],
        ),
    ];
    for (body, flags) in cases {
        let (status, _, daemon) = post(addr, "/stores/mlp/query", body);
        assert_eq!(status, 200, "{body}: {daemon}");
        for threads in ["1", "4"] {
            let out = Command::new(&tool)
                .arg("query")
                .arg(&store)
                .args(flags)
                .args(["--threads", threads, "--json"])
                .output()
                .unwrap();
            assert!(out.status.success(), "{out:?}");
            let cli = String::from_utf8(out.stdout).unwrap();
            assert_eq!(
                daemon,
                cli.trim_end_matches('\n'),
                "query bytes diverge for {body} at --threads {threads}"
            );
        }
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged store answers 200 under salvage with the exact loss carried
/// in response headers — the same accounting the offline salvage reader
/// reports, not an approximation.
#[test]
fn corrupt_store_answers_with_exact_loss_accounting() {
    let dir = tmp_catalog("salvage");
    // chunk finely so the trace spans many chunks and one lost chunk is
    // a small, precisely-accounted slice of the answer
    let report = profile(&ProfileConfig::mlp_case_study(3)).unwrap();
    let mut encoded = Vec::new();
    pinpoint::store::write_store_chunked(&report.trace, &mut encoded, 64).unwrap();
    let store = dir.join("hurt.ptrc");
    std::fs::write(&store, &encoded).unwrap();

    // flip one payload byte inside chunk 1 so its CRC check fails
    let chunk1_off = {
        let reader = StoreReader::open(&store).unwrap();
        assert!(reader.num_chunks() > 2, "need several chunks");
        reader.footer().chunks[1].offset
    };
    let mut bytes = std::fs::read(&store).unwrap();
    bytes[chunk1_off as usize + 1] ^= 0x40;
    std::fs::write(&store, &bytes).unwrap();

    // offline truth: the salvage reader's loss accounting
    let reader = StoreReader::open_with_policy(&store, ReadPolicy::Salvage).unwrap();
    let pred = Predicate::any().with_kind(EventKind::Malloc);
    let want = reader.query(&pred, 1).unwrap();
    assert!(want.stats.chunks_skipped >= 1, "corruption must be seen");
    assert!(want.stats.events_lost > 0);

    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let (status, head, body) = post(
        addr,
        "/stores/hurt/query",
        "{\"kind\":\"malloc\",\"max\":20}",
    );
    assert_eq!(status, 200, "salvage answers, it does not error: {body}");
    assert_eq!(
        header_u64(&head, "X-Pinpoint-Chunks-Skipped"),
        want.stats.chunks_skipped as u64
    );
    assert_eq!(
        header_u64(&head, "X-Pinpoint-Events-Lost"),
        want.stats.events_lost
    );
    assert_eq!(body, pinpoint::analysis::query_json(&want, 20));

    // report over the same damaged store: 200 with the loss in headers
    let (status, head, _) = post(addr, "/stores/hurt/report", "");
    assert_eq!(status, 200);
    assert!(header_u64(&head, "X-Pinpoint-Events-Lost") > 0);

    // the result cache must carry the loss headers on a hit, too
    let (status, head, _) = post(addr, "/stores/hurt/report", "");
    assert_eq!(status, 200);
    assert!(header_u64(&head, "X-Pinpoint-Events-Lost") > 0);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A repeated query is served from the result cache — and the cached
/// bytes are identical to the cold ones, at one worker and at four.
#[test]
fn result_cache_hits_are_byte_identical_across_worker_counts() {
    let dir = tmp_catalog("result-hit");
    mlp_store(&dir, "mlp");
    let mut bodies = Vec::new();
    for workers in [1usize, 4] {
        let handle = start(ServeConfig {
            catalog_dir: dir.clone(),
            workers,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr();
        let q = "{\"kind\":\"malloc\",\"max\":9}";
        let (status, cold_head, cold) = post(addr, "/stores/mlp/query", q);
        assert_eq!(status, 200);
        // spelled differently, same canonical params → same cache entry
        let (status, warm_head, warm) =
            post(addr, "/stores/mlp/query", "{\"max\":9,\"kind\":\"malloc\"}");
        assert_eq!(status, 200);
        assert_eq!(cold, warm, "hit bytes diverge at {workers} workers");
        assert_eq!(header(&cold_head, "ETag"), header(&warm_head, "ETag"));
        let (_, _, metrics) = get(addr, "/metrics");
        assert!(metrics.contains("\"result_hits\":1"), "{metrics}");
        assert!(metrics.contains("\"result_misses\":1"), "{metrics}");
        bodies.push(cold);
        handle.shutdown();
    }
    assert_eq!(bodies[0], bodies[1], "bytes diverge across worker counts");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under a result-cache budget too small for two entries, distinct
/// queries evict each other — visibly in `/metrics`, and without ever
/// changing response bytes.
#[test]
fn result_cache_evicts_under_a_tiny_budget() {
    let dir = tmp_catalog("result-evict");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        result_cache_bytes: 600, // roughly one small rendered body
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let (_, _, first) = post(addr, "/stores/mlp/query", "{\"kind\":\"free\",\"max\":1}");
    for max in 2..6 {
        let (status, _, _) = post(
            addr,
            "/stores/mlp/query",
            &format!("{{\"kind\":\"free\",\"max\":{max}}}"),
        );
        assert_eq!(status, 200);
    }
    let (_, _, again) = post(addr, "/stores/mlp/query", "{\"kind\":\"free\",\"max\":1}");
    assert_eq!(first, again, "eviction must never change bytes");
    let (_, _, metrics) = get(addr, "/metrics");
    let evictions: u64 = metrics
        .split("\"result_evictions\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .unwrap()
        .parse()
        .unwrap();
    assert!(evictions >= 1, "{metrics}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The result tier evicts in least-recently-used order. With one worker
/// and a budget of two answers, asking A, B, A, then C evicts B, whose
/// last use is older than A's; then A still hits and B misses again.
/// `/metrics` counts each step, and every body is the offline
/// `report --json` output.
#[test]
fn result_cache_evicts_the_least_recently_used_answer() {
    let dir = tmp_catalog("result-lru");
    let store = mlp_store(&dir, "mlp");
    // thresholds above every interval: three keys, same-sized answers
    let keys = ["801", "802", "803"];
    let tool = bin("pinpoint-trace-tool");
    let reader = StoreReader::open(&store).unwrap();
    let offline: Vec<String> = keys
        .iter()
        .map(|ms| {
            let criteria = OutlierCriteria {
                min_ati_ns: ms.parse::<u64>().unwrap() * 1_000_000,
                min_size_bytes: 600_000_000,
            };
            let rendered = report_json(&TraceReport::from_store(&reader, criteria, 1).unwrap(), 30);
            // the CLI renders with the same builder; compare with it too
            // when it is built
            if tool.exists() {
                let out = Command::new(&tool)
                    .arg("report")
                    .arg(&store)
                    .args(["--min-ati-ms", ms, "--json"])
                    .output()
                    .unwrap();
                assert!(out.status.success(), "{out:?}");
                let cli = String::from_utf8(out.stdout).unwrap();
                assert_eq!(cli.trim_end_matches('\n'), rendered, "--min-ati-ms {ms}");
            }
            rendered
        })
        .collect();
    // each answer costs its body plus a small allowance for its key, so
    // two fit in two and a half bodies and a third does not
    let body = offline[0].len() as u64;
    assert!(offline.iter().all(|b| b.len() as u64 == body));
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        result_cache_bytes: 2 * body + body / 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let ask = |k: usize| {
        let req = format!("{{\"min_ati_ms\":{}}}", keys[k]);
        let (status, _, got) = post(addr, "/stores/mlp/report", &req);
        assert_eq!(status, 200, "{got}");
        assert_eq!(got, offline[k], "key {}", keys[k]);
        let (_, _, m) = get(addr, "/metrics");
        let counters = ["result_hits", "result_misses", "result_evictions"];
        counters.map(|c| metric(&m, c))
    };
    let (a, b, c) = (0, 1, 2);
    assert_eq!(ask(a), [0, 1, 0]);
    assert_eq!(ask(b), [0, 2, 0]);
    assert_eq!(ask(a), [1, 2, 0], "A is now the most recently used");
    assert_eq!(ask(c), [1, 3, 1], "C evicts one answer");
    assert_eq!(ask(a), [2, 3, 1], "A survived C");
    assert_eq!(ask(b), [2, 4, 2], "B was the one evicted");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replacing a `.ptrc` in place (same name, new bytes) is detected on the
/// next access: the store reopens, both cache tiers invalidate, and the
/// response reflects the new bytes — never a stale cached answer.
#[test]
fn replaced_store_serves_fresh_bytes_and_invalidates_caches() {
    let dir = tmp_catalog("replace");
    let path = mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let q = "{\"kind\":\"malloc\",\"max\":50}";
    let (status, old_head, old_body) = post(addr, "/stores/mlp/query", q);
    assert_eq!(status, 200);
    // warm the result cache so staleness would be easy to get wrong
    let (_, _, warm) = post(addr, "/stores/mlp/query", q);
    assert_eq!(old_body, warm);

    // replace in place with a different trace (fewer epochs → different
    // length, so the generation fingerprint changes even on coarse mtime)
    let report = profile(&ProfileConfig::mlp_case_study(2)).unwrap();
    write_store_file(&report.trace, &path).unwrap();

    let (status, new_head, new_body) = post(addr, "/stores/mlp/query", q);
    assert_eq!(status, 200);
    assert_ne!(old_body, new_body, "must not serve the stale store");
    assert_ne!(header(&old_head, "ETag"), header(&new_head, "ETag"));
    // fresh bytes match the offline reader on the new file
    let reader = StoreReader::open_with_policy(&path, ReadPolicy::Salvage).unwrap();
    let want = reader
        .query(&Predicate::any().with_kind(EventKind::Malloc), 1)
        .unwrap();
    assert_eq!(new_body, pinpoint::analysis::query_json(&want, 50));

    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("\"store_reopens\":1"), "{metrics}");
    // the superseded generation's cached answer was dropped, and the new
    // generation's answer is cached and served
    assert!(metric(&metrics, "result_invalidations") >= 1, "{metrics}");
    let hits = metric(&metrics, "result_hits");
    let (status, _, again) = post(addr, "/stores/mlp/query", q);
    assert_eq!(status, 200);
    assert_eq!(again, new_body);
    let (_, _, metrics) = get(addr, "/metrics");
    assert_eq!(metric(&metrics, "result_hits"), hits + 1, "{metrics}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Conditional requests: a matching `If-None-Match` gets a body-less
/// `304 Not Modified`; after the store is replaced the old tag no longer
/// matches and the same request gets a full `200` with a new tag.
#[test]
fn conditional_requests_flow_304_then_200_after_replacement() {
    let dir = tmp_catalog("etag");
    let path = mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let q = "{\"kind\":\"write\",\"max\":3}";
    let (status, head, body) = post(addr, "/stores/mlp/query", q);
    assert_eq!(status, 200);
    assert!(!body.is_empty());
    let tag = header(&head, "ETag").to_string();

    let inm = format!("If-None-Match: {tag}\r\n");
    let (status, head, body) = post_with(addr, "/stores/mlp/query", q, &inm);
    assert_eq!(status, 304, "matching tag revalidates");
    assert!(body.is_empty(), "304 carries no body: {body:?}");
    assert_eq!(header(&head, "ETag"), tag, "304 echoes the tag");

    // a non-matching tag is a plain 200
    let (status, _, _) = post_with(addr, "/stores/mlp/query", q, "If-None-Match: \"stale\"\r\n");
    assert_eq!(status, 200);

    // replace the store: the old tag must stop matching
    let report = profile(&ProfileConfig::mlp_case_study(2)).unwrap();
    write_store_file(&report.trace, &path).unwrap();
    let (status, head, body) = post_with(addr, "/stores/mlp/query", q, &inm);
    assert_eq!(status, 200, "old tag must not validate a replaced store");
    assert!(!body.is_empty());
    assert_ne!(header(&head, "ETag"), tag);

    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("\"not_modified\":1"), "{metrics}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kept-alive session gets byte-identical bodies to one-shot
/// connections, across both cold and cached responses.
#[test]
fn keep_alive_session_matches_one_shot_bytes() {
    let dir = tmp_catalog("keepalive");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let q = "{\"kind\":\"malloc\",\"max\":11}";
    let (_, _, want) = post(addr, "/stores/mlp/query", q);

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let req = format!(
        "POST /stores/mlp/query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{q}",
        q.len()
    );
    for i in 0..4 {
        s.write_all(req.as_bytes()).unwrap();
        let (status, head, got) = read_one_response(&mut s);
        assert_eq!(status, 200, "request {i}");
        assert_eq!(header(&head, "Connection"), "keep-alive", "{head}");
        assert_eq!(got, want, "kept-alive bytes diverge on request {i}");
    }
    // the client can still end the session explicitly
    let bye = format!(
        "POST /stores/mlp/query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{q}",
        q.len()
    );
    s.write_all(bye.as_bytes()).unwrap();
    let (status, head, got) = read_one_response(&mut s);
    assert_eq!(status, 200);
    assert_eq!(header(&head, "Connection"), "close", "{head}");
    assert_eq!(got, want);
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after Connection: close");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store deleted out from under the catalog is a 404, never a panic or
/// a hang; a name that was never there is the same 404.
#[test]
fn deleted_store_is_a_404_not_a_panic() {
    let dir = tmp_catalog("deleted");
    let store = mlp_store(&dir, "gone");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // the directory listing sees it, but it vanishes before first open
    let (status, _, body) = get(addr, "/stores");
    assert_eq!(status, 200);
    assert!(body.contains("\"gone\""), "{body}");
    std::fs::remove_file(&store).unwrap();
    let (status, _, _) = get(addr, "/stores/gone/info");
    assert_eq!(status, 404);
    let (status, _, _) = post(addr, "/stores/never/query", "{}");
    assert_eq!(status, 404);

    // the server is still healthy afterwards
    let (status, _, _) = get(addr, "/metrics");
    assert_eq!(status, 200);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// With one worker and a one-deep queue, the third concurrent connection
/// is shed with `503 Retry-After: 1` — deterministically, and without
/// disturbing the two admitted requests.
#[test]
fn overload_sheds_a_deterministic_503() {
    let dir = tmp_catalog("shed");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // c1 pins the single worker: it sends half a request and stalls
    let mut c1 = TcpStream::connect(addr).unwrap();
    c1.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c1.write_all(b"GET /stores HTTP/1.1\r\nConnection: close\r\nHost:")
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // c2 fills the one queue slot
    let mut c2 = TcpStream::connect(addr).unwrap();
    c2.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c2.write_all(b"GET /stores HTTP/1.1\r\nConnection: close\r\nHost: x\r\n\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // c3 finds the queue full and is refused at the door
    let mut c3 = TcpStream::connect(addr).unwrap();
    c3.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut refusal = Vec::new();
    c3.read_to_end(&mut refusal).unwrap();
    let refusal = String::from_utf8(refusal).unwrap();
    assert!(refusal.starts_with("HTTP/1.1 503"), "{refusal}");
    assert!(refusal.contains("Retry-After: 1"), "{refusal}");

    // un-stall c1: both admitted requests complete normally
    c1.write_all(b" x\r\n\r\n").unwrap();
    for c in [&mut c1, &mut c2] {
        let mut buf = Vec::new();
        c.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("\"mlp\""), "{text}");
    }

    // the shed is counted
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("\"shed\":1"), "{body}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Retry-After` scales with queue depth: a four-deep backlog draining
/// through one worker backs the shed client off for four seconds.
#[test]
fn deeper_queue_backs_shed_clients_off_longer() {
    let dir = tmp_catalog("shed-deep");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        queue_cap: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // pin the single worker with a half-sent request
    let mut pin = TcpStream::connect(addr).unwrap();
    pin.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    pin.write_all(b"GET /stores HTTP/1.1\r\nConnection: close\r\nHost:")
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // fill all four queue slots
    let mut queued = Vec::new();
    for _ in 0..4 {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c.write_all(b"GET /stores HTTP/1.1\r\nConnection: close\r\nHost: x\r\n\r\n")
            .unwrap();
        queued.push(c);
    }
    std::thread::sleep(Duration::from_millis(300));

    // the next connection is shed with the depth-derived backoff
    let mut shed = TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut refusal = Vec::new();
    shed.read_to_end(&mut refusal).unwrap();
    let refusal = String::from_utf8(refusal).unwrap();
    assert!(refusal.starts_with("HTTP/1.1 503"), "{refusal}");
    assert!(
        refusal.contains("Retry-After: 4"),
        "ceil(4 / 1) = 4: {refusal}"
    );

    // un-stall the pin; every admitted request still completes
    pin.write_all(b" x\r\n\r\n").unwrap();
    for c in std::iter::once(&mut pin).chain(queued.iter_mut()) {
        let mut buf = Vec::new();
        c.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CLI `serve` subcommand end to end: spawn the daemon as a child
/// process, parse the bound port from its banner, query it over TCP, and
/// stop it cleanly through the token-gated shutdown endpoint.
#[test]
fn cli_serve_round_trip() {
    let tool = bin("pinpoint-trace-tool");
    if !tool.exists() {
        eprintln!("skipping: {tool:?} not built (run with --workspace)");
        return;
    }
    let dir = tmp_catalog("cli-serve");
    mlp_store(&dir, "mlp");
    let mut child = Command::new(&tool)
        .arg("serve")
        .args(["--catalog"])
        .arg(&dir)
        .args(["--addr", "127.0.0.1:0", "--shutdown-token", "tok"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();

    // the first stdout line carries the bound address
    let mut out = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    out.read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .split_once("http://")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner:?}"))
        .parse()
        .unwrap();
    // no timeout flags given: the CLI runs on the library's defaults
    let defaults = ServeConfig::default();
    assert!(
        banner.contains(&format!(
            "io-timeout {}ms, request-deadline {}ms",
            defaults.io_timeout_ms, defaults.request_deadline_ms
        )),
        "{banner:?}"
    );

    let (status, _, body) = get(addr, "/stores");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"stores\":[\"mlp\"]}");

    // a kept-alive session against the real process, ETag reuse included
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let q = "{\"kind\":\"malloc\",\"max\":2}";
    let req = format!(
        "POST /stores/mlp/query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{q}",
        q.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    let (status, head, body) = read_one_response(&mut s);
    assert_eq!(status, 200);
    assert!(!body.is_empty());
    let tag = header(&head, "ETag").to_string();
    let cond = format!(
        "POST /stores/mlp/query HTTP/1.1\r\nHost: x\r\nIf-None-Match: {tag}\r\n\
         Content-Length: {}\r\n\r\n{q}",
        q.len()
    );
    s.write_all(cond.as_bytes()).unwrap();
    let (status, _, body) = read_one_response(&mut s);
    assert_eq!(status, 304, "same connection, same tag → 304");
    assert!(body.is_empty());
    drop(s);

    // shutdown requires the token, then the process exits cleanly
    let (status, _, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 403);
    let (status, _, _) = roundtrip(
        addr,
        b"POST /shutdown HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\
          X-Pinpoint-Token: tok\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 204);
    let status = child.wait().unwrap();
    assert!(status.success(), "serve must exit cleanly: {status:?}");
    let mut rest = String::new();
    out.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("shutdown complete"), "{rest:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/metrics` and `/debug/spans` are dynamic diagnostics: both must
/// carry `Cache-Control: no-store` and a conditional GET against
/// `/metrics` must never be answered `304` — regression guard for the
/// obs endpoints leaking into the ETag/result-cache machinery.
#[test]
fn observability_endpoints_are_never_cached() {
    let dir = tmp_catalog("obs-nostore");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let (status, head, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(header(&head, "Cache-Control"), "no-store");
    assert!(pinpoint::trace::json::parse(&body).is_ok(), "{body}");

    // a conditional request must get fresh bytes, whatever tag it sends
    let (status, head, body) = roundtrip(
        addr,
        b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\
          If-None-Match: \"0-0\"\r\n\r\n",
    );
    assert_eq!(status, 200, "conditional GET /metrics must never 304");
    assert_eq!(header(&head, "Cache-Control"), "no-store");
    assert!(body.contains("\"accepted\""), "{body}");

    let (status, head, body) = get(addr, "/debug/spans");
    assert_eq!(status, 200);
    assert_eq!(header(&head, "Cache-Control"), "no-store");
    assert!(pinpoint::trace::json::parse(&body).is_ok(), "{body}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `/metrics` latency section: per-endpoint log2-bucketed
/// histograms with exact-rank percentiles, appended after every
/// pre-existing flat counter key (byte-compatible prefix).
#[test]
fn metrics_latency_histograms_cover_endpoints() {
    let dir = tmp_catalog("obs-latency");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let (status, _, _) = post(addr, "/stores/mlp/report", "");
    assert_eq!(status, 200);
    let (status, _, _) = post(addr, "/stores/mlp/query", "{\"kind\":\"malloc\",\"max\":3}");
    assert_eq!(status, 200);

    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    // the flat counters stay a byte-compatible prefix before `latency`
    let lat_pos = body.find("\"latency\":").expect("latency section");
    for key in [
        "\"accepted\":",
        "\"queries\":1",
        "\"reports\":1",
        "\"result_entries\":",
    ] {
        let pos = body
            .find(key)
            .unwrap_or_else(|| panic!("missing {key} in {body}"));
        assert!(pos < lat_pos, "{key} must precede the latency section");
    }
    let parsed = pinpoint::trace::json::parse(&body).unwrap();
    let lat = parsed.get("latency").expect("latency object");
    for endpoint in ["query", "report"] {
        let h = lat
            .get(endpoint)
            .unwrap_or_else(|| panic!("missing {endpoint}"));
        let count = h.get("count").and_then(|j| j.as_u64()).unwrap();
        assert_eq!(count, 1, "{endpoint} histogram count");
        let p50 = h.get("p50_ns").and_then(|j| j.as_u64()).unwrap();
        let p99 = h.get("p99_ns").and_then(|j| j.as_u64()).unwrap();
        assert!(p50 > 0 && p99 >= p50, "{endpoint}: p50 {p50}, p99 {p99}");
        assert!(h.get("mean_ns").and_then(|j| j.as_u64()).unwrap() > 0);
    }
    // the /metrics GETs themselves land in the `other` histogram
    assert!(lat.get("other").is_some());

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every query/report response carries an `X-Pinpoint-Timing` header
/// with per-stage durations — on the fresh fold path, on a result-cache
/// hit, and on a conditional `304`.
#[test]
fn timing_header_reports_stages() {
    let dir = tmp_catalog("obs-timing");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // fresh fold: all stages present
    let (status, head, _) = post(addr, "/stores/mlp/report", "");
    assert_eq!(status, 200);
    let timing = header(&head, "X-Pinpoint-Timing");
    for stage in [
        "parse;dur=",
        "lookup;dur=",
        "fold;dur=",
        "render;dur=",
        "total;dur=",
    ] {
        assert!(timing.contains(stage), "missing {stage} in {timing}");
    }

    // result-cache hit: no fold/render, but still parsed and looked up
    let (status, head, _) = post(addr, "/stores/mlp/report", "");
    assert_eq!(status, 200);
    let timing = header(&head, "X-Pinpoint-Timing");
    assert!(
        timing.contains("lookup;dur=") && timing.contains("total;dur="),
        "{timing}"
    );
    assert!(
        !timing.contains("fold;dur="),
        "cache hit must skip the fold: {timing}"
    );

    // conditional 304: same shape as the cache hit
    let (_, head, _) = post(addr, "/stores/mlp/report", "");
    let tag = header(&head, "ETag").to_string();
    let (status, head, _) = post_with(
        addr,
        "/stores/mlp/report",
        "",
        &format!("If-None-Match: {tag}\r\n"),
    );
    assert_eq!(status, 304);
    let timing = header(&head, "X-Pinpoint-Timing");
    assert!(
        timing.contains("lookup;dur=") && timing.contains("total;dur="),
        "{timing}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Registry counters stay exact under the concurrent worker pool: with
/// many client threads hammering the daemon at once, the flat counters
/// must add up request-for-request — no lost increments, no
/// double-counting across the fan-out.
#[test]
fn counters_stay_exact_under_concurrent_load() {
    let dir = tmp_catalog("obs-counters");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 4,
        queue_cap: 256,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // warm the caches so the load phase is fast
    let (status, _, _) = post(addr, "/stores/mlp/report", "");
    assert_eq!(status, 200);

    let clients = 8usize;
    let per_client = 12usize;
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                for i in 0..per_client {
                    let (status, _, _) = if (c + i) % 3 == 0 {
                        post(addr, "/stores/mlp/query", "{\"kind\":\"malloc\",\"max\":2}")
                    } else {
                        post(addr, "/stores/mlp/report", "")
                    };
                    assert_eq!(status, 200);
                }
            });
        }
    });

    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let total = clients * per_client;
    let queries = (0..clients)
        .flat_map(|c| (0..per_client).map(move |i| (c + i) % 3))
        .filter(|&r| r == 0)
        .count();
    // warm-up + load + this /metrics request, each over its own connection
    assert_eq!(metric(&body, "accepted"), total as u64 + 2);
    assert_eq!(metric(&body, "shed"), 0);
    assert_eq!(metric(&body, "queries"), queries as u64);
    assert_eq!(metric(&body, "reports"), (total - queries) as u64 + 1);
    // every finished response (the in-flight /metrics one is not yet
    // tallied when its own body renders)
    assert_eq!(metric(&body, "ok"), total as u64 + 1);
    assert_eq!(metric(&body, "client_error"), 0);
    assert_eq!(metric(&body, "server_error"), 0);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/debug/spans` replays recent request span trees: each entry is a
/// `serve.request` root with its stage children, and a fresh report
/// request shows the full parse → lookup → fold → render → write chain.
#[test]
fn debug_spans_replays_request_trees() {
    let dir = tmp_catalog("obs-spans");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // a fresh report (full pipeline) and a query
    let (status, _, _) = post(addr, "/stores/mlp/report", "");
    assert_eq!(status, 200);
    let (status, _, _) = post(addr, "/stores/mlp/query", "{\"kind\":\"malloc\",\"max\":2}");
    assert_eq!(status, 200);

    let (status, _, body) = get(addr, "/debug/spans");
    assert_eq!(status, 200);
    let parsed = pinpoint::trace::json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
    let requests = parsed
        .get("requests")
        .and_then(|j| j.as_arr())
        .expect("requests array");
    // the in-flight /debug/spans request is still open, so it never
    // lists itself — but both finished requests above must appear
    assert!(requests.len() >= 2, "{body}");
    let mut saw_full_chain = false;
    for req in requests {
        let spans = req.get("spans").and_then(|j| j.as_arr()).expect("spans");
        assert!(!spans.is_empty());
        assert_eq!(
            spans[0].get("name").and_then(|j| j.as_str()),
            Some("serve.request"),
            "{body}"
        );
        assert_eq!(spans[0].get("depth").and_then(|j| j.as_u64()), Some(0));
        assert!(req.get("id").and_then(|j| j.as_u64()).is_some());
        assert!(req.get("dur_ns").and_then(|j| j.as_u64()).is_some());
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("name").and_then(|j| j.as_str()))
            .collect();
        if [
            "serve.parse",
            "serve.lookup",
            "serve.fold",
            "serve.render",
            "serve.write",
        ]
        .iter()
        .all(|n| names.contains(n))
        {
            saw_full_chain = true;
        }
    }
    assert!(
        saw_full_chain,
        "a fresh report must replay its full stage chain: {body}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The request ids of a `/debug/spans` body, in replay order.
fn replayed_ids(body: &str) -> Vec<u64> {
    let parsed = pinpoint::trace::json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    let requests = parsed.get("requests").and_then(|j| j.as_arr());
    let requests = requests.unwrap_or_else(|| panic!("no requests array: {body}"));
    requests
        .iter()
        .map(|r| r.get("id").and_then(|j| j.as_u64()).expect("an id"))
        .collect()
}

/// The tracer is process-wide, but a daemon's `/debug/spans` replays only
/// its own requests: another daemon's, even more than the replay window
/// holds and with the same per-daemon ids, never push them out.
#[test]
fn debug_spans_replay_only_their_own_daemons_requests() {
    let dirs = [tmp_catalog("spans-a"), tmp_catalog("spans-b")];
    let [a, b] = dirs.clone().map(|dir| {
        mlp_store(&dir, "mlp");
        // one worker: a request's span closes before the next is read
        start(ServeConfig {
            catalog_dir: dir,
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap()
    });

    assert_eq!(post(a.addr(), "/stores/mlp/report", "").0, 200);
    assert_eq!(post(a.addr(), "/stores/mlp/query", "{\"max\":2}").0, 200);
    for _ in 0..20 {
        assert_eq!(post(b.addr(), "/stores/mlp/report", "").0, 200);
    }
    let (status, _, body) = get(a.addr(), "/debug/spans");
    assert_eq!(status, 200);
    assert_eq!(replayed_ids(&body), [0, 1], "{body}");
    let (status, _, body) = get(b.addr(), "/debug/spans");
    assert_eq!(status, 200);
    assert_eq!(replayed_ids(&body), (4..20).collect::<Vec<u64>>(), "{body}");

    a.shutdown();
    b.shutdown();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fresh connection reaches a worker as soon as it arrives: no poll
/// interval sits between a client's connect and the daemon's accept.
/// Sequential one-shot health checks must take well under the 5 ms a
/// polling accept loop added to every one of them.
#[test]
fn fresh_connections_wait_on_no_accept_poll() {
    let dir = tmp_catalog("connect-floor");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let mut round_trips: Vec<Duration> = (0..50)
        .map(|_| {
            let t = Instant::now();
            let (status, _, body) = get(addr, "/healthz");
            assert_eq!(status, 200, "{body}");
            t.elapsed()
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_micros(2_500),
        "median one-shot /healthz round trip {median:?}: a fresh connection \
         is waiting on something other than the daemon's work"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
