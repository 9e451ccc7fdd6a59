//! The daemon core: accept loop, bounded admission queue, worker pool,
//! keep-alive connection handling, request routing, and the resilience
//! layer (deadlines, panic isolation, circuit breakers, graceful drain).
//!
//! Request lifecycle: the accept thread blocks in `accept()`, sets
//! `TCP_NODELAY` on each new connection, and pushes it onto a bounded
//! queue, so a fresh connection waits on no timer. The stop paths wake
//! the blocked accept with one self-connection to the listener (to
//! loopback for an unspecified bind), which the loop drops unserved and
//! uncounted. When the queue is at capacity the connection is answered
//! 503 *in the accept thread* and closed — load shedding costs one small
//! write, never a worker, so the daemon degrades to fast refusals
//! instead of growing an unbounded backlog or hanging clients. The
//! `Retry-After` value is derived from the queue's depth and the pool's
//! drain width (`ceil(depth / workers)`, clamped to 1..=8 seconds): a
//! barely-full queue says "come right back", a deep one backs clients
//! off proportionally — and deterministically, so tests can assert the
//! exact header.
//!
//! Queued connections are drained by a fixed pool of worker threads.
//! Each worker owns one `WorkerCtx` — reusable connection buffers and a
//! reusable render scratch — and serves up to
//! [`ServeConfig::keepalive_requests`] requests per connection before
//! closing it, honoring the client's `Connection` preference per request.
//! A kept-alive request costs no allocation on the transport path: the
//! read accumulator, response-head buffer, and JSON render scratch all
//! persist across requests.
//!
//! **Resilience.** Four failure domains are isolated from each other:
//!
//! - *Slow work*: every admitted request carries a [`Deadline`] whose
//!   budget starts at accept (queue wait spends budget). The deadline is
//!   checked before routing, after parsing, and — as a
//!   [`CancelToken`] — before every chunk
//!   decode inside the fold, so a doomed scan stops mid-store and
//!   answers a deterministic `503` + `Retry-After: 1`.
//! - *Buggy handlers*: the whole router runs under `catch_unwind`; a
//!   panic becomes a stable `500`, bumps `panics_caught`, and the worker
//!   keeps serving. A worker that dies anyway (panic outside the guard)
//!   is respawned by the watchdog thread.
//! - *Rotten stores*: each store has a deterministic count-based
//!   circuit breaker ([`crate::breaker`]); consecutive hard failures
//!   trip it and requests are rejected at the door with `503` +
//!   `Retry-After` until a half-open probe succeeds.
//! - *Shutdown*: `POST /shutdown` starts a graceful drain — the
//!   listener keeps accepting (so `/healthz` stays observable and
//!   answers `503 draining`), pre-drain connections finish under a
//!   bounded drain deadline, and then the process exits cleanly; the
//!   deadline expiring aborts the drain and drops what is left
//!   (counted in `drain_dropped`).
//!
//! Every store-reading endpoint folds per-chunk results in file order, so
//! a response is byte-identical to the offline CLI on the same store —
//! at any worker count, any per-request fan-out, any cache state, and
//! whether the connection is fresh or reused. `query` and `report` share
//! one answer path: a strong `ETag` (`If-None-Match` → `304`), then the
//! result tier of the [`Cache`], then a fold over the chunk tier and a
//! render whose body the result tier keeps.

use crate::breaker::{Admission, BreakerConfig, BreakerEvent, BreakerSet};
use crate::cache::{etag, if_none_match, Cache, CachedResult};
use crate::catalog::{Catalog, CatalogError, StoreEntry};
use crate::deadline::Deadline;
use crate::http::{error_body, read_request, ConnBuffers, ReadOutcome, Request, Response};
use crate::metrics::{Endpoint, Metrics};
use pinpoint_analysis::{OutlierCriteria, RenderScratch, TraceReport};
use pinpoint_obs::{tracer, SpanGuard, NO_ARG};
use pinpoint_store::{
    parse_category, parse_kind, Batch, CancelToken, ChunkMeta, ChunkSource, ColumnBatch,
    DecodeScratch, Predicate, ReadPolicy, StoreError,
};
use pinpoint_trace::json::{self, Json};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Request span trees replayed by `GET /debug/spans`.
const DEBUG_SPAN_REQUESTS: usize = 16;

/// Low bits of a `serve.request` span's arg: the request id. The bits
/// above hold the daemon's instance number, since the tracer is
/// process-wide and each daemon numbers its requests from 0.
const REQUEST_ID_BITS: u32 = 40;

/// Daemons started in this process so far: the next one's instance.
static INSTANCES: AtomicU64 = AtomicU64::new(0);

/// Per-thread span ring capacity while the daemon runs (each record is
/// ~56 B, so a worker's ring tops out around 3.5 MB).
const SERVE_SPAN_CAPACITY: usize = 65_536;

/// Lifecycle phases, strictly monotone (`fetch_max` only).
const PHASE_RUNNING: u8 = 0;
/// Graceful drain in progress: still accepting (restricted service),
/// pre-drain connections finishing.
const PHASE_DRAINING: u8 = 1;
/// Workers serve what is already queued, then exit.
const PHASE_STOPPING: u8 = 2;
/// Drain deadline blew: workers drop the queue unanswered and exit.
const PHASE_ABORTING: u8 = 3;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory of `.ptrc` stores served by name.
    pub catalog_dir: PathBuf,
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// Global decoded-chunk cache budget in bytes.
    pub cache_bytes: u64,
    /// Rendered-result cache budget in bytes (0 disables it).
    pub result_cache_bytes: u64,
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it are shed with 503.
    pub queue_cap: usize,
    /// Maximum requests served per kept-alive connection before the
    /// daemon closes it (a fairness bound: one chatty client cannot pin a
    /// worker forever). 0 behaves as 1 — every connection gets at least
    /// one request.
    pub keepalive_requests: usize,
    /// Socket read/write timeout in milliseconds (0 disables it): bounds
    /// how long a slow or stalled client can pin a worker.
    pub io_timeout_ms: u64,
    /// Per-request deadline budget in milliseconds (0 disables it),
    /// measured from accept for a connection's first request and from
    /// read-complete for kept-alive follow-ups.
    pub request_deadline_ms: u64,
    /// Graceful-drain window in milliseconds (0 waits forever): how long
    /// `POST /shutdown` lets in-flight work finish before aborting.
    pub drain_deadline_ms: u64,
    /// Per-store circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Token required by `POST /shutdown`; `None` disables the endpoint.
    pub shutdown_token: Option<String>,
    /// Token required by `POST /debug/chaos` (fault injection for the
    /// chaos harness); `None` hides the endpoint entirely.
    pub chaos_token: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            catalog_dir: PathBuf::from("."),
            addr: "127.0.0.1:0".to_string(),
            cache_bytes: 256 << 20,
            result_cache_bytes: 64 << 20,
            workers: pinpoint_parallel::configured_threads(),
            queue_cap: 64,
            keepalive_requests: 128,
            io_timeout_ms: 10_000,
            request_deadline_ms: 30_000,
            drain_deadline_ms: 5_000,
            breaker: BreakerConfig::default(),
            shutdown_token: None,
            chaos_token: None,
        }
    }
}

/// State shared by the accept loop and every worker.
#[derive(Debug)]
struct Shared {
    catalog: Catalog,
    /// Decoded chunks, keyed by (store id, chunk ordinal).
    chunks: Cache<usize, Arc<ColumnBatch>>,
    /// Rendered `query`/`report` answers, keyed by (store id, params).
    results: Cache<String, CachedResult>,
    metrics: Metrics,
    breakers: BreakerSet,
    /// Connections waiting for a worker: the stream, its enqueue
    /// timestamp (tracer clock), and whether it was accepted before the
    /// drain started (`pre` connections get full service; drain-time
    /// ones get one restricted request).
    queue: Mutex<VecDeque<(TcpStream, u64, bool)>>,
    ready: Condvar,
    /// Current [`PHASE_RUNNING`]..=[`PHASE_ABORTING`]; advanced with
    /// `fetch_max`, never rolled back.
    phase: AtomicU8,
    /// Tracer timestamp of the drain's start (valid once phase ≥ 1;
    /// stored *before* the phase advances).
    drain_start_ns: AtomicU64,
    /// Pre-drain connections still queued or in flight — the drain
    /// finishes (phase → stopping) when this reaches zero.
    pre_pending: AtomicU64,
    /// This daemon's process-unique number, stamped on every
    /// `serve.request` span above its request id.
    instance: u64,
    /// Monotone request ids, stamped on every `serve.request` span.
    req_seq: AtomicU64,
    /// Where a self-connection reaches the listener (see [`wake_addr`]).
    wake_addr: SocketAddr,
    config: ServeConfig,
}

impl Shared {
    fn phase(&self) -> u8 {
        self.phase.load(Ordering::SeqCst)
    }

    /// Monotone phase advance; wakes every parked worker, and — on the
    /// first move to stopping or beyond — the accept thread blocked in
    /// `accept()`, by opening one connection to the listener. The accept
    /// loop drops that connection unserved.
    fn advance_phase(&self, to: u8) {
        let from = self.phase.fetch_max(to, Ordering::SeqCst);
        self.ready.notify_all();
        if from < PHASE_STOPPING && to >= PHASE_STOPPING {
            // a refused or timed-out connect means the accept loop has
            // already left (or is about to): it re-checks the phase
            // before every accept
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }

    /// Absolute tracer timestamp by which the drain must finish
    /// (`u64::MAX` when unbounded).
    fn drain_cutoff_ns(&self) -> u64 {
        if self.config.drain_deadline_ms == 0 {
            return u64::MAX;
        }
        self.drain_start_ns
            .load(Ordering::SeqCst)
            .saturating_add(self.config.drain_deadline_ms.saturating_mul(1_000_000))
    }
}

/// Per-worker reusable state: connection buffers (read accumulator +
/// response-head buffer), the JSON render scratch, and the chaos
/// kill flag (set by `/debug/chaos` mode `kill`, honored after the
/// response is written). One per worker thread, reused across every
/// connection and request it serves.
#[derive(Debug)]
struct WorkerCtx {
    bufs: ConnBuffers,
    render: RenderScratch,
    /// `/debug/chaos` mode `kill`: answer first, then die so the
    /// watchdog's respawn path gets exercised.
    kill_after_response: bool,
}

impl WorkerCtx {
    fn new() -> Self {
        WorkerCtx {
            bufs: ConnBuffers::new(),
            render: RenderScratch::new(),
            kill_after_response: false,
        }
    }
}

/// A running daemon; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] or [`ServerHandle::wait`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals immediate shutdown (skipping the graceful drain: the
    /// already-queued connections are still served) and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.shared.advance_phase(PHASE_STOPPING);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until the daemon stops (via `POST /shutdown`).
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds, spawns the accept loop, worker pool, and watchdog, and
/// returns a handle.
///
/// # Errors
///
/// Propagates bind errors.
pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // the daemon is its own observability consumer: spans back the
    // `/debug/spans` endpoint and the `X-Pinpoint-Timing` header, so
    // recording is on for the process lifetime (bounded by the ring size)
    tracer().set_capacity(SERVE_SPAN_CAPACITY);
    tracer().set_enabled(true);
    let shared = Arc::new(Shared {
        catalog: Catalog::new(&config.catalog_dir),
        chunks: Cache::new(config.cache_bytes, 8),
        results: Cache::new(config.result_cache_bytes, 1),
        metrics: Metrics::default(),
        breakers: BreakerSet::new(config.breaker),
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        phase: AtomicU8::new(PHASE_RUNNING),
        drain_start_ns: AtomicU64::new(0),
        pre_pending: AtomicU64::new(0),
        instance: INSTANCES.fetch_add(1, Ordering::Relaxed),
        req_seq: AtomicU64::new(0),
        wake_addr: wake_addr(addr),
        config: config.clone(),
    });
    let mut workers = Vec::with_capacity(config.workers.max(1));
    for _ in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || worker_loop(&shared)));
    }
    let mut threads = Vec::with_capacity(2);
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || accept_loop(&listener, &shared)));
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || watchdog_loop(&shared, workers)));
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Seconds a shed client should back off: how long the queue needs to
/// drain at one request per worker per second, clamped to 1..=8. A
/// pure function of observable state, so the header is deterministic.
fn retry_after_secs(queue_depth: usize, workers: usize) -> u64 {
    (queue_depth.div_ceil(workers.max(1)) as u64).clamp(1, 8)
}

/// The address a self-connection uses to reach a listener bound to
/// `bound`: the bound address itself, or for an unspecified bind
/// (`0.0.0.0` / `[::]`) the loopback address of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Blocks in `accept()`, so a fresh connection is handed to the queue
/// as soon as it arrives. The stop paths wake it through
/// [`Shared::advance_phase`]'s self-connection.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let io_timeout = (shared.config.io_timeout_ms > 0)
        .then(|| Duration::from_millis(shared.config.io_timeout_ms));
    while shared.phase() < PHASE_STOPPING {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if shared.phase() >= PHASE_STOPPING {
                    // the wake connection (or a straggler racing it): a
                    // stopping daemon admits nothing new
                    return;
                }
                shared.metrics.accepted.inc();
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(io_timeout);
                let _ = stream.set_write_timeout(io_timeout);
                let mut queue = shared.queue.lock().expect("queue poisoned");
                if queue.len() >= shared.config.queue_cap {
                    let depth = queue.len();
                    drop(queue);
                    shared.metrics.shed.inc();
                    shared.metrics.count_status(503);
                    let retry = retry_after_secs(depth, shared.config.workers);
                    let resp = Response::new(503)
                        .with_header("Retry-After", retry.to_string())
                        .with_json_body(error_body("request queue full"));
                    let mut head = Vec::new();
                    let _ = resp.write_to(&mut stream, false, &mut head);
                } else {
                    // connections accepted before the drain get full
                    // service and hold the drain open until they finish
                    let pre = shared.phase() == PHASE_RUNNING;
                    if pre {
                        shared.pre_pending.fetch_add(1, Ordering::SeqCst);
                    }
                    queue.push_back((stream, tracer().now_ns(), pre));
                    drop(queue);
                    shared.ready.notify_one();
                }
            }
            // the peer gave up before the accept, or a signal landed
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                ) => {}
            // fd or memory exhaustion: back off instead of spinning
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut ctx = WorkerCtx::new();
    loop {
        let next = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                let phase = shared.phase();
                if phase >= PHASE_ABORTING {
                    // drain deadline blew: drop the backlog unanswered
                    while let Some((stream, _, pre)) = queue.pop_front() {
                        shared.metrics.drain_dropped.inc();
                        if pre {
                            shared.pre_pending.fetch_sub(1, Ordering::SeqCst);
                        }
                        drop(stream);
                    }
                    break None;
                }
                if let Some(entry) = queue.pop_front() {
                    break Some(entry);
                }
                if phase >= PHASE_STOPPING {
                    break None;
                }
                let (q, _) = shared
                    .ready
                    .wait_timeout(queue, Duration::from_millis(50))
                    .expect("queue poisoned");
                queue = q;
            }
        };
        match next {
            Some((mut s, enqueued_ns, pre)) => {
                handle_connection(shared, &mut s, &mut ctx, enqueued_ns, pre);
                if pre {
                    shared.pre_pending.fetch_sub(1, Ordering::SeqCst);
                }
                if ctx.kill_after_response {
                    // deliberate death *outside* the unwind guard: the
                    // watchdog must notice and respawn this worker
                    ctx.kill_after_response = false;
                    panic!("chaos: worker killed by /debug/chaos");
                }
            }
            None => return,
        }
    }
}

/// Supervises the worker pool and the drain state machine: respawns
/// workers that died (panicked outside the unwind guard), finishes the
/// drain when the last pre-drain connection completes, aborts it when
/// the drain deadline expires, and joins everything on the way out.
fn watchdog_loop(shared: &Arc<Shared>, mut workers: Vec<JoinHandle<()>>) {
    loop {
        let phase = shared.phase();
        if phase >= PHASE_STOPPING {
            shared.ready.notify_all();
            for w in workers.drain(..) {
                let _ = w.join();
            }
            return;
        }
        for slot in workers.iter_mut() {
            if slot.is_finished() {
                let respawned = Arc::clone(shared);
                let fresh = std::thread::spawn(move || worker_loop(&respawned));
                let dead = std::mem::replace(slot, fresh);
                let _ = dead.join();
                shared.metrics.workers_respawned.inc();
            }
        }
        if phase == PHASE_DRAINING {
            if shared.pre_pending.load(Ordering::SeqCst) == 0 {
                shared.advance_phase(PHASE_STOPPING);
                continue;
            }
            if tracer().now_ns() >= shared.drain_cutoff_ns() {
                shared.advance_phase(PHASE_ABORTING);
                continue;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The control plane: health, metrics, introspection, and shutdown.
/// These requests stay servable during a drain (the backlog only
/// shrinks, but observers must not go dark) and are exempt from the
/// request deadline — a health check or a shutdown order must be
/// honored precisely when the daemon is wedged enough to blow budgets.
fn control_plane(req: &Request) -> bool {
    matches!(
        (req.method.as_str(), req.path.as_str()),
        ("GET", "/healthz") | ("GET", "/metrics") | ("GET", "/debug/spans") | ("POST", "/shutdown")
    )
}

/// The deterministic answer for a request whose deadline budget ran
/// out; records how late the doomed request was by the time it was cut.
fn deadline_response(shared: &Shared, deadline: Deadline) -> Response {
    shared.metrics.deadline_exceeded.inc();
    shared
        .metrics
        .lat_deadline
        .record(tracer().now_ns().saturating_sub(deadline.at_ns()));
    Response::new(503)
        .with_header("Retry-After", "1")
        .with_json_body(error_body("deadline exceeded"))
}

/// Serves one connection: up to `keepalive_requests` request/response
/// cycles, closing early when the client asks (`Connection: close` or an
/// HTTP/1.0 request without `keep-alive`), on any transport or framing
/// error, or when the daemon leaves the running phase. Connections
/// accepted during a drain (`pre == false`) get exactly one request of
/// restricted service.
fn handle_connection(
    shared: &Shared,
    stream: &mut TcpStream,
    ctx: &mut WorkerCtx,
    enqueued_ns: u64,
    pre: bool,
) {
    ctx.bufs.reset();
    let budget = if pre {
        shared.config.keepalive_requests.max(1)
    } else {
        1
    };
    // queue wait ended when this worker picked the connection up; it is
    // replayed as a child span of the connection's *first* request
    let mut queue_wait = Some((enqueued_ns, tracer().now_ns().saturating_sub(enqueued_ns)));
    for served in 0..budget {
        let outcome = match read_request(stream, &mut ctx.bufs) {
            Ok(o) => o,
            Err(e) => {
                // transport error: nothing to answer, but a timeout is a
                // misbehaving (slow-loris or never-reading) client
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) {
                    shared.metrics.conn_timeouts.inc();
                }
                return;
            }
        };
        // lifecycle clock starts once the request is fully read (read
        // time is the client's pace, not the daemon's)
        let started_ns = tracer().now_ns();
        let mut req_span: Option<SpanGuard> = None;
        let mut endpoint = Endpoint::Other;
        let (response, keep_alive) = match outcome {
            ReadOutcome::Closed => return,
            ReadOutcome::Malformed(detail) => {
                // framing is broken: the next request boundary is unknowable
                (Response::new(400).with_json_body(error_body(detail)), false)
            }
            ReadOutcome::TooLarge(what) => {
                let status = if what == "request head" { 431 } else { 413 };
                (
                    Response::new(status).with_json_body(error_body(what)),
                    false,
                )
            }
            ReadOutcome::Ok(req) => {
                if served > 0 {
                    shared.metrics.keepalive_requests.inc();
                }
                let seq = shared.req_seq.fetch_add(1, Ordering::Relaxed);
                let id = (shared.instance << REQUEST_ID_BITS) | (seq % (1 << REQUEST_ID_BITS));
                req_span = Some(tracer().span_with("serve.request", id));
                if let Some((start, dur)) = queue_wait.take() {
                    tracer().record_at("serve.queue", start, dur, NO_ARG);
                }
                endpoint = endpoint_of(&req);
                // the budget clock started at accept for the first
                // request (queue wait spends budget) and at read-complete
                // for kept-alive follow-ups
                let base_ns = if served == 0 { enqueued_ns } else { started_ns };
                let mut deadline = Deadline::after(base_ns, shared.config.request_deadline_ms);
                if shared.phase() >= PHASE_DRAINING {
                    // in-flight work cannot outlive the drain window
                    deadline = deadline.clamped_to(shared.drain_cutoff_ns());
                }
                let keep = pre
                    && req.wants_keep_alive()
                    && served + 1 < budget
                    && shared.phase() == PHASE_RUNNING;
                if !pre && !control_plane(&req) {
                    (
                        Response::new(503)
                            .with_header("Retry-After", "1")
                            .with_json_body(error_body("draining")),
                        false,
                    )
                } else if deadline.exceeded() && !control_plane(&req) {
                    // starved in the queue past its whole budget — but
                    // only store work is doomed; a health probe or a
                    // shutdown order answers no matter how late
                    (deadline_response(shared, deadline), keep)
                } else {
                    match catch_unwind(AssertUnwindSafe(|| route(shared, &req, ctx, deadline))) {
                        Ok(resp) => (resp, keep),
                        Err(_) => {
                            // contained: stable answer, fresh scratch (the
                            // old one may hold a half-rendered body), and
                            // the worker keeps serving
                            shared.metrics.panics_caught.inc();
                            ctx.render = RenderScratch::new();
                            (
                                Response::new(500)
                                    .with_json_body(error_body("internal error: handler panicked")),
                                false,
                            )
                        }
                    }
                }
            }
        };
        shared.metrics.count_status(response.status());
        let write_failed = {
            let _write_span = tracer().span("serve.write");
            match response.write_to(stream, keep_alive, &mut ctx.bufs.head_out) {
                Ok(()) => false,
                Err(e) => {
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) {
                        shared.metrics.conn_timeouts.inc();
                    }
                    true
                }
            }
        };
        shared
            .metrics
            .record_latency(endpoint, tracer().now_ns().saturating_sub(started_ns));
        drop(req_span);
        if write_failed || !keep_alive || ctx.kill_after_response {
            return;
        }
    }
}

/// Classifies a request path for per-endpoint latency accounting.
fn endpoint_of(req: &Request) -> Endpoint {
    let mut segments = req.path.split('/').filter(|s| !s.is_empty());
    match (
        segments.next(),
        segments.next(),
        segments.next(),
        segments.next(),
    ) {
        (Some("stores"), Some(_), Some("query"), None) => Endpoint::Query,
        (Some("stores"), Some(_), Some("report"), None) => Endpoint::Report,
        _ => Endpoint::Other,
    }
}

fn route(shared: &Shared, req: &Request, ctx: &mut WorkerCtx, deadline: Deadline) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["stores"]) => handle_stores(shared),
        ("GET", ["metrics"]) => handle_metrics(shared),
        ("GET", ["healthz"]) => handle_healthz(shared),
        ("GET", ["debug", "spans"]) => handle_debug_spans(shared),
        ("POST", ["debug", "chaos"]) => handle_chaos(shared, req, ctx, deadline),
        ("POST", ["shutdown"]) => handle_shutdown(shared, req),
        ("GET", ["stores", name, "info"]) => with_store(shared, name, handle_info),
        ("POST", ["stores", name, "query"]) => with_store(shared, name, |sh, e| {
            handle_query(sh, e, req, &mut ctx.render, deadline)
        }),
        ("POST", ["stores", name, "report"]) => with_store(shared, name, |sh, e| {
            handle_report(sh, e, req, &mut ctx.render, deadline)
        }),
        ("GET", ["stores", _, "query" | "report"]) | ("POST", ["stores"] | ["metrics"]) => {
            Response::new(405).with_json_body(error_body("method not allowed"))
        }
        _ => Response::new(404).with_json_body(error_body("no such endpoint")),
    }
}

/// Surfaces a breaker transition: counters plus a span event visible in
/// `/debug/spans` (the events fire inside a request span, so they show
/// up as children of the request that caused them).
fn note_breaker_event(shared: &Shared, event: BreakerEvent) {
    let now = tracer().now_ns();
    match event {
        BreakerEvent::Tripped { trip } => {
            shared.metrics.breaker_trips.inc();
            tracer().record_at("serve.breaker.trip", now, 0, u64::from(trip));
        }
        BreakerEvent::ProbeArmed => tracer().record_at("serve.breaker.probe", now, 0, NO_ARG),
        BreakerEvent::Closed => tracer().record_at("serve.breaker.close", now, 0, NO_ARG),
    }
}

/// Resolves a store through the catalog and runs `f` on it, gated by
/// the store's circuit breaker. When the catalog reports that the
/// on-disk file changed (reopen) or vanished (eviction), the superseded
/// id is dropped from both cache tiers before answering.
///
/// Breaker accounting: a `500` answer, an unopenable store, or a panic
/// inside `f` is a hard failure; a `503` (deadline) is neutral; any
/// other status — including salvage 200s with loss accounting — is a
/// success. A missing store (404) carries no health signal at all.
fn with_store(
    shared: &Shared,
    name: &str,
    f: impl FnOnce(&Shared, &StoreEntry) -> Response,
) -> Response {
    let (admission, event) = shared.breakers.admit(name);
    if let Some(ev) = event {
        note_breaker_event(shared, ev);
    }
    if let Admission::Reject { retry_after_secs } = admission {
        shared.metrics.breaker_rejected.inc();
        return Response::new(503)
            .with_header("Retry-After", retry_after_secs.to_string())
            .with_header("X-Pinpoint-Breaker", "open")
            .with_json_body(error_body("store circuit open"));
    }
    let response = match shared.catalog.get(name) {
        Ok(resolved) => {
            drop_superseded(shared, resolved.stale_id);
            match catch_unwind(AssertUnwindSafe(|| f(shared, &resolved.entry))) {
                Ok(resp) => resp,
                Err(payload) => {
                    // the panic still becomes the connection-level 500,
                    // but the breaker must hear about it first
                    if let Some(ev) = shared.breakers.record(name, false) {
                        note_breaker_event(shared, ev);
                    }
                    resume_unwind(payload)
                }
            }
        }
        Err(CatalogError::NotFound { stale_id }) => {
            drop_superseded(shared, stale_id);
            return Response::new(404).with_json_body(error_body("store not found"));
        }
        Err(CatalogError::Open(e)) => {
            Response::new(500).with_json_body(error_body(&format!("cannot open store: {e}")))
        }
    };
    let verdict = match response.status() {
        500 => Some(false),
        503 => None,
        _ => Some(true),
    };
    if let Some(success) = verdict {
        if let Some(ev) = shared.breakers.record(name, success) {
            note_breaker_event(shared, ev);
        }
    }
    response
}

/// Drops a store id the catalog superseded (its file changed or
/// vanished) from both cache tiers, counting a reopen.
fn drop_superseded(shared: &Shared, stale_id: Option<u64>) {
    if let Some(stale) = stale_id {
        shared.chunks.invalidate_store(stale);
        shared.results.invalidate_store(stale);
        shared.metrics.store_reopens.inc();
    }
}

fn handle_stores(shared: &Shared) -> Response {
    let mut s = String::from("{\"stores\":[");
    for (i, name) in shared.catalog.list().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json::write_str(&mut s, name);
    }
    s.push_str("]}");
    Response::json(s)
}

fn handle_metrics(shared: &Shared) -> Response {
    let depth = shared.queue.lock().expect("queue poisoned").len();
    let (open, half_open) = shared.breakers.open_counts();
    let draining = shared.phase() >= PHASE_DRAINING;
    // dynamic body: must never be ETag'd, conditionally answered, or
    // replayed from the result cache
    Response::json(shared.metrics.to_json(
        &shared.chunks.stats(),
        &shared.results.stats(),
        depth,
        open,
        half_open,
        draining,
    ))
    .with_header("Cache-Control", "no-store")
}

/// Readiness: `200 ready` while running, `503 draining` once a drain
/// has started — with the breaker gauges either way, so a balancer (or
/// the chaos harness) can see partial degradation before it routes.
fn handle_healthz(shared: &Shared) -> Response {
    let (open, half_open) = shared.breakers.open_counts();
    let draining = shared.phase() >= PHASE_DRAINING;
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"status\":\"{}\",\"breakers_open\":{open},\"breakers_half_open\":{half_open},\
         \"workers\":{}}}",
        if draining { "draining" } else { "ready" },
        shared.config.workers,
    );
    let resp = if draining {
        Response::new(503)
            .with_header("Retry-After", "1")
            .with_json_body(s)
    } else {
        Response::json(s)
    };
    resp.with_header("Cache-Control", "no-store")
}

/// Replays this daemon's last [`DEBUG_SPAN_REQUESTS`] completed request
/// span trees from the tracer's ring buffers, oldest first. Requests of
/// other daemons in the process are left out. The in-flight request
/// serving this endpoint is still open, so it never lists itself.
fn handle_debug_spans(shared: &Shared) -> Response {
    let snap = tracer().snapshot();
    let mut trees = snap.subtrees("serve.request");
    trees.retain(|(_, tree)| tree[0].arg >> REQUEST_ID_BITS == shared.instance);
    trees.sort_by_key(|(_, tree)| tree[0].start_ns);
    let skip = trees.len().saturating_sub(DEBUG_SPAN_REQUESTS);
    let mut s = String::from("{\"requests\":[");
    for (i, (track, tree)) in trees[skip..].iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let root = tree[0];
        let id = root.arg % (1 << REQUEST_ID_BITS);
        let _ = write!(
            s,
            "{{\"id\":{id},\"track\":{track},\"start_ns\":{},\"dur_ns\":{},\"spans\":[",
            root.start_ns, root.dur_ns
        );
        for (j, rec) in tree.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"depth\":{},\"start_ns\":{},\"dur_ns\":{}",
                rec.name,
                rec.depth - root.depth,
                rec.start_ns,
                rec.dur_ns
            );
            // the root's arg is the request id, without the instance
            let arg = if j == 0 { id } else { rec.arg };
            if arg != NO_ARG {
                let _ = write!(s, ",\"arg\":{arg}");
            }
            s.push('}');
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    Response::json(s).with_header("Cache-Control", "no-store")
}

/// Token-gated fault injection for the chaos harness: `panic` blows up
/// inside the unwind guard (a contained 500), `kill` answers 204 and
/// then dies outside the guard (a watchdog respawn), `stall` naps until
/// the request deadline cuts it loose (a deterministic deadline 503).
fn handle_chaos(
    shared: &Shared,
    req: &Request,
    ctx: &mut WorkerCtx,
    deadline: Deadline,
) -> Response {
    let Some(token) = &shared.config.chaos_token else {
        return Response::new(404).with_json_body(error_body("no such endpoint"));
    };
    if req.header("x-pinpoint-token") != Some(token.as_str()) {
        return Response::new(403).with_json_body(error_body("chaos not authorized"));
    }
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let mode = body
        .as_ref()
        .and_then(|b| b.get("mode"))
        .and_then(Json::as_str)
        .unwrap_or("");
    match mode {
        "panic" => panic!("chaos: injected handler panic"),
        "kill" => {
            ctx.kill_after_response = true;
            Response::new(204)
        }
        "stall" => {
            // a worker wedged in a loop that at least naps: the deadline
            // must cut it loose. Hard 2 s cap so a disabled deadline
            // cannot wedge the worker forever.
            let cap_ns = tracer().now_ns().saturating_add(2_000_000_000);
            while !deadline.exceeded() && tracer().now_ns() < cap_ns {
                std::thread::sleep(Duration::from_millis(5));
            }
            if deadline.exceeded() {
                deadline_response(shared, deadline)
            } else {
                Response::new(204)
            }
        }
        other => {
            Response::new(400).with_json_body(error_body(&format!("unknown chaos mode `{other}`")))
        }
    }
}

/// Starts a graceful drain (idempotent): the listener keeps accepting
/// for observability, pre-drain connections finish under the drain
/// deadline, then the daemon stops.
fn handle_shutdown(shared: &Shared, req: &Request) -> Response {
    let authorized = match &shared.config.shutdown_token {
        Some(token) => req.header("x-pinpoint-token") == Some(token.as_str()),
        None => false,
    };
    if !authorized {
        return Response::new(403).with_json_body(error_body("shutdown not authorized"));
    }
    if shared.phase() == PHASE_RUNNING {
        // stamp the drain clock before the phase flips so every observer
        // of phase ≥ draining sees a valid cutoff
        shared
            .drain_start_ns
            .store(tracer().now_ns(), Ordering::SeqCst);
        shared.advance_phase(PHASE_DRAINING);
    }
    Response::new(204)
}

fn handle_info(_shared: &Shared, entry: &StoreEntry) -> Response {
    let f = entry.reader.footer();
    let mut s = String::from("{\"name\":");
    json::write_str(&mut s, &entry.name);
    let _ = write!(
        s,
        ",\"version\":{},\"chunks\":{},\"events\":{},\"labels\":{},\"markers\":{},\
         \"file_len\":{},\"salvage_rescan\":{}}}",
        entry.reader.version(),
        f.chunks.len(),
        f.total_events,
        f.labels.len(),
        f.markers.len(),
        entry.reader.file_len(),
        entry.reader.salvage_summary().is_some(),
    );
    Response::json(s)
}

/// Parses an optional JSON body; an empty body means "all defaults".
fn parse_body(req: &Request) -> Result<Option<Json>, Response> {
    if req.body.is_empty() {
        return Ok(None);
    }
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::new(400).with_json_body(error_body("body is not UTF-8")))?;
    json::parse(text)
        .map(Some)
        .map_err(|e| Response::new(400).with_json_body(error_body(&format!("bad JSON body: {e}"))))
}

fn num_field(body: Option<&Json>, key: &str) -> Result<Option<f64>, String> {
    match body.and_then(|b| b.get(key)) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(format!("field `{key}` must be a number")),
    }
}

/// Builds a [`Predicate`] from the query body, mirroring the CLI's
/// `query` flags field for field (same names modulo `--`/`_`, same
/// float-to-ns conversions, the same kind and category name parsers) so
/// the two paths can never drift. One kind and one category per body.
fn predicate_from_body(body: Option<&Json>, entry: &StoreEntry) -> Result<Predicate, String> {
    let mut pred = Predicate::any();
    let t0 = num_field(body, "t0_us")?;
    let t1 = num_field(body, "t1_us")?;
    if t0.is_some() || t1.is_some() {
        let lo = t0.map(|v| (v * 1e3) as u64).unwrap_or(0);
        let hi = t1.map(|v| (v * 1e3) as u64).unwrap_or(u64::MAX);
        pred = pred.with_time_range(lo, hi);
    }
    let b0 = num_field(body, "block_min")?;
    let b1 = num_field(body, "block_max")?;
    if b0.is_some() || b1.is_some() {
        pred = pred.with_block_range(
            b0.map(|v| v as u64).unwrap_or(0),
            b1.map(|v| v as u64).unwrap_or(u64::MAX),
        );
    }
    if let Some(kind) = body.and_then(|b| b.get("kind")).and_then(Json::as_str) {
        pred = pred.with_kind(parse_kind(kind)?);
    }
    if let Some(cat) = body.and_then(|b| b.get("category")).and_then(Json::as_str) {
        pred = pred.with_category(parse_category(cat)?);
    }
    if let Some(min) = num_field(body, "min_size_bytes")? {
        pred = pred.with_min_size(min as u64);
    }
    match body.and_then(|b| b.get("op_label")) {
        None | Some(Json::Null) => {}
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => {
            pred = pred.with_op_label(*n as u32);
        }
        Some(Json::Str(name)) => {
            let labels = &entry.reader.footer().labels;
            match labels.iter().position(|l| l == name) {
                Some(i) => pred = pred.with_op_label(i as u32),
                None => return Err(format!("unknown op label `{name}`")),
            }
        }
        Some(_) => return Err("field `op_label` must be a name or an id".to_string()),
    }
    Ok(pred)
}

/// A store as one request sees it: chunks come from the shared chunk
/// cache (decoded on a miss), and the request's deadline token is polled
/// before each one. A fired token surfaces as [`StoreError::Cancelled`],
/// which salvage never swallows. Scans over it fold in file order, so
/// answers are byte-identical to the offline reader's whatever mix of
/// cache hits serves the chunks.
struct CachedSource<'a> {
    entry: &'a StoreEntry,
    cache: &'a Cache<usize, Arc<ColumnBatch>>,
    cancel: CancelToken,
}

impl ChunkSource for CachedSource<'_> {
    fn chunks(&self) -> &[ChunkMeta] {
        &self.entry.reader.footer().chunks
    }

    fn policy(&self) -> ReadPolicy {
        self.entry.reader.policy()
    }

    fn fetch<'s>(&self, i: usize, _: &'s mut DecodeScratch) -> Result<Batch<'s>, StoreError> {
        self.cancel.check()?;
        let reader = &self.entry.reader;
        self.cache
            .get_or_decode(self.entry.id, i, || reader.decode_chunk(i))
            .map(Batch::Shared)
    }
}

/// The 200 response for a cached or just-rendered result: `Arc`-shared
/// body, strong `ETag`, salvage-accounting headers.
fn ok_with_result(r: &CachedResult, tag: String) -> Response {
    Response::json_shared(Arc::clone(&r.body))
        .with_header("ETag", tag)
        .with_header("X-Pinpoint-Chunks-Skipped", r.chunks_skipped.to_string())
        .with_header("X-Pinpoint-Events-Lost", r.events_lost.to_string())
}

/// Per-request stage stopwatch backing both the `X-Pinpoint-Timing`
/// response header and the replayed `/debug/spans` tree: each finished
/// stage is recorded as a span (when tracing) and kept as a
/// `(label, ns)` pair for the header.
struct StageTimer {
    stages: Vec<(&'static str, u64)>,
    last_ns: u64,
}

impl StageTimer {
    fn start() -> Self {
        StageTimer {
            stages: Vec::with_capacity(4),
            last_ns: tracer().now_ns(),
        }
    }

    /// Closes the current stage under `name` (a `serve.*` span label).
    fn stage(&mut self, name: &'static str) {
        let now = tracer().now_ns();
        let dur = now.saturating_sub(self.last_ns);
        tracer().record_at(name, self.last_ns, dur, NO_ARG);
        self.stages.push((name, dur));
        self.last_ns = now;
    }

    /// `Server-Timing`-style header value: `parse;dur=0.012,
    /// fold;dur=1.302, total;dur=1.314` — durations in milliseconds.
    fn header_value(&self) -> String {
        let mut s = String::new();
        let mut total = 0u64;
        for (name, ns) in &self.stages {
            let label = name.strip_prefix("serve.").unwrap_or(name);
            let _ = write!(
                s,
                "{label};dur={}.{:03}, ",
                ns / 1_000_000,
                (ns % 1_000_000) / 1_000
            );
            total += ns;
        }
        let _ = write!(
            s,
            "total;dur={}.{:03}",
            total / 1_000_000,
            (total % 1_000_000) / 1_000
        );
        s
    }
}

/// The one answer path of `query` and `report`, given the normalized
/// `params` the handler parsed its body into: a body-less `304` when the
/// client's `If-None-Match` covers the strong `ETag`, else a result-tier
/// hit, else — budget permitting — `fold` over the chunk tier, `render`,
/// and keep the rendered body in the result tier. `what` names the
/// endpoint in a `500` body.
#[allow(clippy::too_many_arguments)]
fn answer<T>(
    shared: &Shared,
    entry: &StoreEntry,
    req: &Request,
    deadline: Deadline,
    mut timer: StageTimer,
    params: String,
    what: &str,
    fold: impl FnOnce(&CachedSource<'_>) -> Result<T, StoreError>,
    render: impl FnOnce(T) -> CachedResult,
) -> Response {
    timer.stage("serve.parse");
    let tag = etag(entry.generation, &params);
    // the strong tag is a pure function of (generation, params), so a
    // matching one is answered even before anything is cached
    if req
        .header("if-none-match")
        .is_some_and(|inm| if_none_match(inm, &tag))
    {
        shared.metrics.not_modified.inc();
        timer.stage("serve.lookup");
        return Response::new(304)
            .with_header("ETag", tag)
            .with_header("X-Pinpoint-Timing", timer.header_value());
    }
    let key = (entry.id, params);
    if let Some(hit) = shared.results.get(&key) {
        timer.stage("serve.lookup");
        return ok_with_result(&hit, tag).with_header("X-Pinpoint-Timing", timer.header_value());
    }
    timer.stage("serve.lookup");
    // checkpoint before the fold: don't start work that cannot finish
    if deadline.exceeded() {
        return deadline_response(shared, deadline);
    }
    let source = CachedSource {
        entry,
        cache: &shared.chunks,
        cancel: deadline.cancel_token(),
    };
    match fold(&source) {
        Ok(folded) => {
            timer.stage("serve.fold");
            let result = render(folded);
            timer.stage("serve.render");
            let resp =
                ok_with_result(&result, tag).with_header("X-Pinpoint-Timing", timer.header_value());
            // body and params, plus an allowance for the map entry
            let bytes = (result.body.len() + key.1.len() + 64) as u64;
            shared.results.insert(key, result, bytes);
            resp
        }
        Err(StoreError::Cancelled) => deadline_response(shared, deadline),
        Err(e) => Response::new(500).with_json_body(error_body(&format!("{what} failed: {e}"))),
    }
}

fn handle_query(
    shared: &Shared,
    entry: &StoreEntry,
    req: &Request,
    render: &mut RenderScratch,
    deadline: Deadline,
) -> Response {
    shared.metrics.queries.inc();
    let timer = StageTimer::start();
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let pred = match predicate_from_body(body.as_ref(), entry) {
        Ok(p) => p,
        Err(msg) => return Response::new(400).with_json_body(error_body(&msg)),
    };
    let max = match num_field(body.as_ref(), "max") {
        Ok(v) => v.map(|v| v as usize).unwrap_or(20),
        Err(msg) => return Response::new(400).with_json_body(error_body(&msg)),
    };
    // canonical cache key: requests that differ only in body spelling
    // (field order, whitespace, label name vs id) collapse to one entry
    let params = format!("query|{pred:?}|max={max}");
    // one thread per request: the worker pool runs requests in parallel
    answer(
        shared,
        entry,
        req,
        deadline,
        timer,
        params,
        "query",
        |source| pinpoint_store::query(source, &pred, 1),
        |q| CachedResult {
            body: Arc::from(render.query(&q, max).as_bytes()),
            chunks_skipped: q.stats.chunks_skipped as u64,
            events_lost: q.stats.events_lost,
        },
    )
}

fn handle_report(
    shared: &Shared,
    entry: &StoreEntry,
    req: &Request,
    render: &mut RenderScratch,
    deadline: Deadline,
) -> Response {
    shared.metrics.reports.inc();
    let timer = StageTimer::start();
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let (min_ati_ms, min_size_mb, max) = match (
        num_field(body.as_ref(), "min_ati_ms"),
        num_field(body.as_ref(), "min_size_mb"),
        num_field(body.as_ref(), "max"),
    ) {
        (Ok(a), Ok(s), Ok(m)) => (
            a.unwrap_or(800.0),
            s.unwrap_or(600.0),
            m.map(|v| v as usize).unwrap_or(30),
        ),
        (Err(msg), _, _) | (_, Err(msg), _) | (_, _, Err(msg)) => {
            return Response::new(400).with_json_body(error_body(&msg))
        }
    };
    // same float-to-integer conversion as the CLI's outlier flags
    let criteria = OutlierCriteria {
        min_ati_ns: (min_ati_ms * 1e6) as u64,
        min_size_bytes: (min_size_mb * 1e6) as usize,
    };
    let params = format!(
        "report|ati={}|size={}|max={max}",
        criteria.min_ati_ns, criteria.min_size_bytes
    );
    answer(
        shared,
        entry,
        req,
        deadline,
        timer,
        params,
        "report",
        |source| TraceReport::from_store(source, criteria, 1),
        |d| CachedResult {
            body: Arc::from(render.report(&d, max).as_bytes()),
            chunks_skipped: d.stats.chunks_skipped as u64,
            events_lost: d.stats.events_lost,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_scales_with_depth_and_drain_width() {
        assert_eq!(retry_after_secs(1, 1), 1);
        assert_eq!(retry_after_secs(4, 1), 4);
        assert_eq!(retry_after_secs(4, 4), 1);
        assert_eq!(retry_after_secs(9, 4), 3);
        assert_eq!(retry_after_secs(1000, 1), 8, "clamped");
        assert_eq!(retry_after_secs(0, 0), 1, "degenerate inputs stay sane");
    }

    #[test]
    fn wake_addr_maps_unspecified_binds_to_loopback_of_the_same_family() {
        let wake = |bound: &str| wake_addr(bound.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7070"), "127.0.0.1:7070");
        assert_eq!(wake("[::]:7070"), "[::1]:7070");
        assert_eq!(wake("127.0.0.1:7070"), "127.0.0.1:7070");
        assert_eq!(wake("10.1.2.3:7070"), "10.1.2.3:7070");
    }

    #[test]
    fn control_plane_is_observability_only() {
        fn req(method: &str, path: &str) -> Request {
            Request {
                method: method.to_string(),
                path: path.to_string(),
                headers: Vec::new(),
                body: Vec::new(),
                http11: true,
            }
        }
        assert!(control_plane(&req("GET", "/healthz")));
        assert!(control_plane(&req("GET", "/metrics")));
        assert!(control_plane(&req("GET", "/debug/spans")));
        assert!(control_plane(&req("POST", "/shutdown")));
        assert!(!control_plane(&req("GET", "/stores")));
        assert!(!control_plane(&req("POST", "/stores/mlp/query")));
        assert!(!control_plane(&req("POST", "/debug/chaos")));
    }
}
