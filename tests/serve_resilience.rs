//! Resilience tests for the `pinpoint-serve` daemon: deadline budgets
//! that cut doomed work with a deterministic `503`, panic isolation
//! (contained 500s and watchdog respawns), the per-store circuit
//! breaker's full deterministic cycle, graceful drain with `/healthz`
//! observability, stop paths that wake a blocked accept, and
//! slow-loris defense via the I/O timeout.

mod serve_client;

use pinpoint::serve::{cooldown_rejections, start, BreakerConfig, ServeConfig};
use serve_client::{
    chaos, get, header, metric, mlp_store, post, post_with, quiet_chaos_panics, read_one_response,
    tmp_catalog,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// A stalled handler is cut loose by its request deadline: the answer
/// is a deterministic `503` + `Retry-After: 1`, and the cut is visible
/// in `deadline_exceeded` and the `deadline` latency histogram.
#[test]
fn deadline_cuts_a_stalled_request_to_a_deterministic_503() {
    let dir = tmp_catalog("deadline");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 2,
        request_deadline_ms: 100,
        chaos_token: Some("chaos".to_string()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // gating first: no token header → 403, the endpoint gives nothing away
    let (status, _, _) = post(addr, "/debug/chaos", "{\"mode\":\"stall\"}");
    assert_eq!(status, 403);

    let (status, head, body) = chaos(addr, "stall");
    assert_eq!(status, 503, "{body}");
    assert_eq!(header(&head, "Retry-After"), "1");
    assert!(body.contains("deadline exceeded"), "{body}");

    // an ordinary request with budget to spare still answers
    let (status, _, _) = post(addr, "/stores/mlp/query", "{\"kind\":\"malloc\"}");
    assert_eq!(status, 200);

    let (_, _, m) = get(addr, "/metrics");
    assert_eq!(metric(&m, "deadline_exceeded"), 1, "{m}");
    assert!(m.contains("\"deadline\":{\"count\":1"), "{m}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panicking handler becomes a stable `500` and the worker keeps
/// serving — with one worker, the very next request proves survival.
#[test]
fn a_handler_panic_is_contained_and_the_worker_survives() {
    quiet_chaos_panics();
    let dir = tmp_catalog("panic");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        chaos_token: Some("chaos".to_string()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let (status, _, body) = chaos(addr, "panic");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("handler panicked"), "{body}");

    // same worker, next request: alive and correct
    let (status, _, _) = post(addr, "/stores/mlp/query", "{\"kind\":\"free\"}");
    assert_eq!(status, 200);

    let (_, _, m) = get(addr, "/metrics");
    assert_eq!(metric(&m, "panics_caught"), 1, "{m}");
    assert_eq!(metric(&m, "workers_respawned"), 0, "{m}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that dies outside the unwind guard is respawned by the
/// watchdog, and the pool keeps serving.
#[test]
fn a_killed_worker_is_respawned_by_the_watchdog() {
    quiet_chaos_panics();
    let dir = tmp_catalog("kill");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        chaos_token: Some("chaos".to_string()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let (status, _, _) = chaos(addr, "kill");
    assert_eq!(status, 204, "kill answers before dying");

    // the watchdog polls every ~10ms; wait for the respawn to land
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (_, _, m) = get(addr, "/metrics");
        if metric(&m, "workers_respawned") >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watchdog never respawned the worker: {m}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let (status, _, _) = post(addr, "/stores/mlp/query", "{\"kind\":\"malloc\"}");
    assert_eq!(status, 200, "the respawned worker serves stores");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full deterministic breaker cycle against a real on-disk failure:
/// consecutive hard 500s trip it, exactly `cooldown_rejections` requests
/// are refused with `Retry-After`, the half-open probe runs against the
/// repaired file, and success closes the breaker.
#[test]
fn breaker_trips_on_hard_failures_and_recovers_through_a_probe() {
    let dir = tmp_catalog("breaker");
    let store = mlp_store(&dir, "mlp");
    let good_bytes = std::fs::read(&store).unwrap();
    let config = BreakerConfig {
        threshold: 2,
        cooldown: 2,
        seed: 7,
    };
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        breaker: config,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let q = "{\"kind\":\"malloc\",\"max\":5}";

    let (status, _, baseline) = post(addr, "/stores/mlp/query", q);
    assert_eq!(status, 200);

    // replace the store with garbage (different length → new generation):
    // not salvageable, every open is a hard failure
    std::fs::write(&store, b"this is not a ptrc store at all").unwrap();
    for i in 0..config.threshold {
        let (status, _, body) = post(addr, "/stores/mlp/query", q);
        assert_eq!(status, 500, "hard failure {i}: {body}");
        assert!(body.contains("cannot open store"), "{body}");
    }

    // tripped: exactly k rejections, breaker state visible everywhere
    let k = cooldown_rejections(&config, "mlp", 1);
    let (_, _, h) = get(addr, "/healthz");
    assert!(h.contains("\"breakers_open\":1"), "{h}");
    for i in 0..k {
        let (status, head, body) = post(addr, "/stores/mlp/query", q);
        assert_eq!(status, 503, "rejection {i}: {body}");
        assert_eq!(header(&head, "X-Pinpoint-Breaker"), "open");
        assert!(body.contains("store circuit open"), "{body}");
        let retry: u64 = header(&head, "Retry-After").parse().unwrap();
        assert_eq!(
            retry,
            u64::from(k - 1 - i).clamp(1, 8),
            "deterministic backoff"
        );
    }
    let (_, _, m) = get(addr, "/metrics");
    assert_eq!(metric(&m, "breaker_trips"), 1, "{m}");
    assert_eq!(metric(&m, "breaker_rejected"), u64::from(k), "{m}");
    assert_eq!(metric(&m, "breaker_half_open"), 1, "{m}");

    // repair the file; the next request is the half-open probe and closes
    // the breaker, answering the same bytes as before the outage
    std::fs::write(&store, &good_bytes).unwrap();
    let (status, _, body) = post(addr, "/stores/mlp/query", q);
    assert_eq!(status, 200, "probe succeeds: {body}");
    assert_eq!(body, baseline, "repaired store answers identical bytes");
    let (_, _, m) = get(addr, "/metrics");
    assert_eq!(metric(&m, "breaker_open"), 0, "{m}");
    assert_eq!(metric(&m, "breaker_half_open"), 0, "{m}");
    let (status, _, _) = post(addr, "/stores/mlp/query", q);
    assert_eq!(status, 200, "closed breaker admits normally");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The control plane outranks the deadline: a `/shutdown` that starved
/// in the queue behind a slow client — for longer than its whole
/// request budget — must still be honored, or a wedged single-worker
/// daemon could never be drained.
#[test]
fn queue_starved_shutdown_is_still_honored() {
    let dir = tmp_catalog("starved");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        io_timeout_ms: 400,
        request_deadline_ms: 100,
        shutdown_token: Some("tok".to_string()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // pin the only worker: one served request, then silence — the
    // worker sits in the keep-alive read until the 400ms io timeout,
    // so anything queued behind it waits longer than the 100ms budget
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let q = "{\"kind\":\"malloc\",\"max\":1}";
    slow.write_all(
        format!(
            "POST /stores/mlp/query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{q}",
            q.len()
        )
        .as_bytes(),
    )
    .unwrap();
    assert_eq!(read_one_response(&mut slow).0, 200);

    let (status, _, body) = post_with(addr, "/shutdown", "", "X-Pinpoint-Token: tok\r\n");
    assert_eq!(status, 204, "a starved shutdown must not be doomed: {body}");
    drop(slow);
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful drain: `/shutdown` flips `/healthz` to `503 draining`,
/// drain-time connections get refused store service while pre-drain
/// connections finish full service, and the daemon then exits cleanly.
#[test]
fn graceful_drain_finishes_inflight_work_and_stays_observable() {
    let dir = tmp_catalog("drain");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 2,
        shutdown_token: Some("tok".to_string()),
        drain_deadline_ms: 10_000,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let (_, _, h) = get(addr, "/healthz");
    assert!(h.contains("\"status\":\"ready\""), "{h}");

    // a pre-drain keep-alive connection, held open across the shutdown
    let mut pre = TcpStream::connect(addr).unwrap();
    pre.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let q = "{\"kind\":\"malloc\",\"max\":3}";
    let req = format!(
        "POST /stores/mlp/query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{q}",
        q.len()
    );
    pre.write_all(req.as_bytes()).unwrap();
    let first = read_one_response(&mut pre);
    assert_eq!(first.0, 200);
    assert!(first.1.contains("Connection: keep-alive"), "{}", first.1);

    // start the drain; the response itself is a 204
    let (status, _, _) = post_with(addr, "/shutdown", "", "X-Pinpoint-Token: tok\r\n");
    assert_eq!(status, 204);

    // drain-time connections: health stays observable, stores are refused
    let (status, head, h) = get(addr, "/healthz");
    assert_eq!(status, 503);
    assert!(h.contains("\"status\":\"draining\""), "{h}");
    assert_eq!(header(&head, "Retry-After"), "1");
    let (status, head, body) = post(addr, "/stores/mlp/query", q);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("draining"), "{body}");
    assert_eq!(header(&head, "Retry-After"), "1");

    // the pre-drain connection still gets full service — and then the
    // daemon tells it to close and finishes the drain
    pre.write_all(req.as_bytes()).unwrap();
    let second = read_one_response(&mut pre);
    assert_eq!(second.0, 200);
    assert_eq!(second.2, first.2, "drained request answers identical bytes");
    assert!(second.1.contains("Connection: close"), "{}", second.1);
    drop(pre);

    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `stop` (a call that joins the daemon) on a helper thread and
/// fails, instead of hanging the suite, if it has not returned within
/// a few seconds — the symptom of an accept thread nobody woke.
fn returns_promptly(what: &str, stop: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        stop();
        let _ = done.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(5)) {
        panic!("{what} did not return within 5 s: is the accept thread still blocked?");
    }
    // re-raises a panic from `stop` itself
    helper.join().unwrap();
}

/// `ServerHandle::shutdown` on an idle daemon bound to every interface
/// wakes the accept thread (through loopback) and returns.
#[test]
fn shutdown_wakes_an_idle_accept_on_an_unspecified_bind() {
    let dir = tmp_catalog("wake-any");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        addr: "0.0.0.0:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    assert!(handle.addr().ip().is_unspecified());
    returns_promptly("shutdown() of an idle 0.0.0.0 daemon", move || {
        handle.shutdown()
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A token `POST /shutdown` finishes its drain on the watchdog, which
/// must wake the accept thread so `wait()` returns.
#[test]
fn token_shutdown_wakes_the_accept_so_wait_returns() {
    let dir = tmp_catalog("wake-token");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        shutdown_token: Some("tok".to_string()),
        ..ServeConfig::default()
    })
    .unwrap();
    let (status, _, body) = post_with(handle.addr(), "/shutdown", "", "X-Pinpoint-Token: tok\r\n");
    assert_eq!(status, 204, "{body}");
    returns_promptly("wait() after a token shutdown", move || handle.wait());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Slow-loris defense: a client that trickles a header forever (or never
/// finishes one) is cut at the I/O timeout, the cut is counted, and the
/// single worker is free again for real clients.
#[test]
fn slowloris_clients_are_cut_by_the_io_timeout() {
    let dir = tmp_catalog("loris");
    mlp_store(&dir, "mlp");
    let handle = start(ServeConfig {
        catalog_dir: dir.clone(),
        workers: 1,
        io_timeout_ms: 200,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // half a request head, then silence: the worker must not wait forever
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"GET /stores HTTP/1.1\r\nHost: x").unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = Vec::new();
    loris.read_to_end(&mut sink).unwrap();
    assert!(
        sink.is_empty(),
        "a half-request earns no response, just a close"
    );
    drop(loris);

    // with its one worker freed, the daemon serves normally again
    let (status, _, _) = post(addr, "/stores/mlp/query", "{\"kind\":\"free\"}");
    assert_eq!(status, 200);
    let (_, _, m) = get(addr, "/metrics");
    assert_eq!(metric(&m, "conn_timeouts"), 1, "{m}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
