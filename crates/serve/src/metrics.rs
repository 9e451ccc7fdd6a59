//! Daemon-wide metrics, rendered as JSON by `GET /metrics`.
//!
//! Backed by the shared [`pinpoint_obs::Registry`]: every counter is a
//! named registry counter (relaxed atomics — metrics order across
//! threads is not load-bearing, the values are monotone tallies), and
//! per-endpoint request latencies feed log2-bucketed
//! [`pinpoint_obs::Histogram`]s with exact-rank percentile extraction.
//!
//! The rendered JSON keeps every pre-existing flat counter key
//! byte-compatible with earlier daemons and **appends** a `latency`
//! object — per endpoint (`query`, `report`, `other`):
//! `{"count","p50_ns","p90_ns","p99_ns","mean_ns"}`. Consumers that
//! scanned flat keys keep working unchanged.

use crate::cache::CacheStats;
use pinpoint_obs::{Counter, Histogram, Registry};
use std::fmt::Write as _;
use std::sync::Arc;

/// Cumulative request/queue counters plus per-endpoint latency
/// histograms, all living in one [`Registry`].
#[derive(Debug)]
pub struct Metrics {
    registry: Registry,
    /// Connections accepted (including ones later shed).
    pub accepted: Counter,
    /// Connections answered 503 at the door because the queue was full.
    pub shed: Counter,
    /// Requests fully handled, by status class (2xx/3xx).
    pub ok: Counter,
    /// 4xx responses.
    pub client_error: Counter,
    /// 5xx responses (other than shed 503s).
    pub server_error: Counter,
    /// Query requests served.
    pub queries: Counter,
    /// Report requests served.
    pub reports: Counter,
    /// Requests served on a reused (kept-alive) connection — i.e. the
    /// second and later requests of each connection.
    pub keepalive_requests: Counter,
    /// Conditional requests answered `304 Not Modified`.
    pub not_modified: Counter,
    /// Stores reopened because their on-disk file changed (or evicted
    /// because it vanished) — each one invalidated both cache tiers.
    pub store_reopens: Counter,
    /// Requests answered `503` because their deadline budget ran out
    /// (scan cancelled mid-store or checkpoint missed).
    pub deadline_exceeded: Counter,
    /// Request handlers that panicked and were contained to a stable
    /// `500` by the worker's unwind guard.
    pub panics_caught: Counter,
    /// Worker threads that died anyway and were respawned by the
    /// watchdog.
    pub workers_respawned: Counter,
    /// Connections cut because a socket read/write hit the I/O timeout
    /// (slow-loris headers, clients that never read).
    pub conn_timeouts: Counter,
    /// Circuit-breaker trips (closed/half-open → open), all stores.
    pub breaker_trips: Counter,
    /// Requests rejected `503` by an open breaker.
    pub breaker_rejected: Counter,
    /// Queued connections dropped unanswered because the drain deadline
    /// expired before a worker got to them.
    pub drain_dropped: Counter,
    /// Full-lifecycle latency of `POST .../query` requests.
    pub lat_query: Arc<Histogram>,
    /// Full-lifecycle latency of `POST .../report` requests.
    pub lat_report: Arc<Histogram>,
    /// Full-lifecycle latency of every other endpoint.
    pub lat_other: Arc<Histogram>,
    /// Full-lifecycle latency of requests that died at the deadline —
    /// how late the doomed ones were by the time they were cut.
    pub lat_deadline: Arc<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates the daemon's metric set in its canonical registration
    /// order (the order `/metrics` renders).
    pub fn new() -> Self {
        let registry = Registry::new();
        Metrics {
            accepted: registry.counter("accepted"),
            shed: registry.counter("shed"),
            ok: registry.counter("ok"),
            client_error: registry.counter("client_error"),
            server_error: registry.counter("server_error"),
            queries: registry.counter("queries"),
            reports: registry.counter("reports"),
            keepalive_requests: registry.counter("keepalive_requests"),
            not_modified: registry.counter("not_modified"),
            store_reopens: registry.counter("store_reopens"),
            deadline_exceeded: registry.counter("deadline_exceeded"),
            panics_caught: registry.counter("panics_caught"),
            workers_respawned: registry.counter("workers_respawned"),
            conn_timeouts: registry.counter("conn_timeouts"),
            breaker_trips: registry.counter("breaker_trips"),
            breaker_rejected: registry.counter("breaker_rejected"),
            drain_dropped: registry.counter("drain_dropped"),
            lat_query: registry.histogram("query"),
            lat_report: registry.histogram("report"),
            lat_other: registry.histogram("other"),
            lat_deadline: registry.histogram("deadline"),
            registry,
        }
    }

    /// Records one finished request's latency against its endpoint
    /// histogram.
    pub fn record_latency(&self, endpoint: Endpoint, ns: u64) {
        match endpoint {
            Endpoint::Query => self.lat_query.record(ns),
            Endpoint::Report => self.lat_report.record(ns),
            Endpoint::Other => self.lat_other.record(ns),
        }
    }

    /// Renders every counter plus both cache tiers' stats (`cache` the
    /// chunk tier, `results` the result tier) as one flat JSON object
    /// (pre-existing keys byte-compatible), then the appended
    /// per-endpoint `latency` histograms. `breaker_open` /
    /// `breaker_half_open` are instantaneous gauges from the breaker
    /// set; `draining` reflects the daemon's lifecycle phase.
    pub fn to_json(
        &self,
        cache: &CacheStats,
        results: &CacheStats,
        queue_depth: usize,
        breaker_open: u64,
        breaker_half_open: u64,
        draining: bool,
    ) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"accepted\":{},\"shed\":{},\"ok\":{},\"client_error\":{},\
             \"server_error\":{},\"queries\":{},\"reports\":{},\
             \"keepalive_requests\":{},\"not_modified\":{},\"store_reopens\":{},\
             \"queue_depth\":{queue_depth},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
             \"cache_bytes\":{},\"cache_entries\":{},\
             \"result_hits\":{},\"result_misses\":{},\"result_evictions\":{},\
             \"result_invalidations\":{},\"result_bytes\":{},\"result_entries\":{}",
            self.accepted.get(),
            self.shed.get(),
            self.ok.get(),
            self.client_error.get(),
            self.server_error.get(),
            self.queries.get(),
            self.reports.get(),
            self.keepalive_requests.get(),
            self.not_modified.get(),
            self.store_reopens.get(),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.bytes,
            cache.entries,
            results.hits,
            results.misses,
            results.evictions,
            results.invalidations,
            results.bytes,
            results.entries,
        );
        // resilience counters and gauges: appended after every
        // pre-existing flat key so naive first-occurrence scanners keep
        // reading the same bytes, still ahead of the latency object
        let _ = write!(
            s,
            ",\"deadline_exceeded\":{},\"panics_caught\":{},\"workers_respawned\":{},\
             \"conn_timeouts\":{},\"breaker_trips\":{},\"breaker_rejected\":{},\
             \"breaker_open\":{breaker_open},\"breaker_half_open\":{breaker_half_open},\
             \"drain_dropped\":{},\"draining\":{}",
            self.deadline_exceeded.get(),
            self.panics_caught.get(),
            self.workers_respawned.get(),
            self.conn_timeouts.get(),
            self.breaker_trips.get(),
            self.breaker_rejected.get(),
            self.drain_dropped.get(),
            u64::from(draining),
        );
        s.push_str(",\"latency\":{");
        for (i, (name, h)) in self.registry.snapshot().hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"count\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"mean_ns\":{}}}",
                h.count(),
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.mean(),
            );
        }
        s.push_str("}}");
        s
    }

    /// Tallies a finished response by status code (3xx — i.e. `304 Not
    /// Modified` — is a success, not an error).
    pub fn count_status(&self, status: u16) {
        let counter = match status {
            200..=399 => &self.ok,
            400..=499 => &self.client_error,
            _ => &self.server_error,
        };
        counter.inc();
    }
}

/// Endpoint class for per-endpoint latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /stores/{name}/query`.
    Query,
    /// `POST /stores/{name}/report`.
    Report,
    /// Everything else.
    Other,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_json() {
        let m = Metrics::default();
        m.accepted.add(5);
        m.count_status(200);
        m.count_status(304);
        m.count_status(404);
        m.count_status(503);
        let s = m.to_json(
            &CacheStats::default(),
            &CacheStats::default(),
            2,
            1,
            0,
            false,
        );
        assert!(s.contains("\"accepted\":5"), "{s}");
        assert!(s.contains("\"ok\":2"), "{s}");
        assert!(s.contains("\"client_error\":1"), "{s}");
        assert!(s.contains("\"server_error\":1"), "{s}");
        assert!(s.contains("\"queue_depth\":2"), "{s}");
        assert!(s.contains("\"result_hits\":0"), "{s}");
        assert!(s.contains("\"keepalive_requests\":0"), "{s}");
        assert!(pinpoint_trace::json::parse(&s).is_ok(), "{s}");
    }

    #[test]
    fn latency_section_reports_exact_rank_percentiles() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record_latency(Endpoint::Query, 1_000);
        }
        m.record_latency(Endpoint::Query, 1_000_000);
        m.record_latency(Endpoint::Report, 2_000);
        let s = m.to_json(
            &CacheStats::default(),
            &CacheStats::default(),
            0,
            0,
            0,
            false,
        );
        let parsed = pinpoint_trace::json::parse(&s).unwrap();
        let lat = parsed.get("latency").expect("latency object");
        let q = lat.get("query").expect("query histogram");
        assert_eq!(q.get("count").and_then(|j| j.as_u64()), Some(100));
        // p50 of 99×1us + 1×1ms sits in the 1us bucket [512,1023]
        assert_eq!(q.get("p50_ns").and_then(|j| j.as_u64()), Some(1023));
        // p99 rank 99 is still the 1us bucket; p100 would hit the 1ms one
        assert_eq!(q.get("p99_ns").and_then(|j| j.as_u64()), Some(1023));
        let r = lat.get("report").expect("report histogram");
        assert_eq!(r.get("count").and_then(|j| j.as_u64()), Some(1));
        assert!(lat.get("other").is_some());
    }

    #[test]
    fn latency_keys_come_after_all_flat_counters() {
        // the flat counter section must stay a byte-compatible prefix:
        // naive `"key":`-scanning consumers read the first occurrence
        let m = Metrics::new();
        m.record_latency(Endpoint::Other, 5);
        let s = m.to_json(
            &CacheStats::default(),
            &CacheStats::default(),
            0,
            2,
            1,
            true,
        );
        let lat_pos = s.find("\"latency\":").unwrap();
        for key in [
            "accepted",
            "shed",
            "ok",
            "client_error",
            "server_error",
            "queries",
            "reports",
            "keepalive_requests",
            "not_modified",
            "store_reopens",
            "queue_depth",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_bytes",
            "cache_entries",
            "result_hits",
            "result_misses",
            "result_evictions",
            "result_invalidations",
            "result_bytes",
            "result_entries",
            "deadline_exceeded",
            "panics_caught",
            "workers_respawned",
            "conn_timeouts",
            "breaker_trips",
            "breaker_rejected",
            "breaker_open",
            "breaker_half_open",
            "drain_dropped",
            "draining",
        ] {
            let pos = s.find(&format!("\"{key}\":")).unwrap();
            assert!(pos < lat_pos, "flat key {key} must precede latency");
        }
    }
}
