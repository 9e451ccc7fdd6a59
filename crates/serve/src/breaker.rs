//! Per-store circuit breakers: failure isolation between catalog
//! entries.
//!
//! One rotten store must not soak up worker time that healthy stores'
//! clients are paying for. Each store gets an independent breaker driven
//! only by **hard** failures — catalog opens that error, 500-class
//! query/report failures, a panic inside the store's handler. Salvage
//! answers are successes: a damaged store that still answers (with exact
//! loss accounting) is serving, not failing.
//!
//! The state machine is the classic three states, made fully
//! deterministic so tests can assert the exact cycle:
//!
//! ```text
//!            N consecutive failures
//!   Closed ──────────────────────────▶ Open
//!     ▲                                 │ rejects the next K requests
//!     │ probe succeeds                  │ with 503 + Retry-After
//!     │                                 ▼
//!     └────────────────────────────  HalfOpen ── probe fails ──▶ Open
//!                                    (admits exactly one probe)   (K doubles)
//! ```
//!
//! Cooldowns are counted in *rejected requests*, not wall time — the
//! daemon has no business guessing how fast a disk gets replaced, and a
//! count-based window makes every transition reproducible in tests. `K`
//! starts at [`BreakerConfig::cooldown`] and doubles per consecutive
//! trip (capped at 8x), plus a small seeded, per-store jitter so a fleet
//! of breakers over identical stores does not probe in lockstep — the
//! jitter is a pure function of `(seed, store, trip)`, so runs stay
//! deterministic end to end ([`cooldown_rejections`]).

use std::collections::HashMap;
use std::sync::Mutex;

/// Breaker tuning; one config governs every store's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive hard failures that trip a closed breaker. 0 disables
    /// breaking entirely.
    pub threshold: u32,
    /// Base cooldown: requests rejected while open before the first
    /// half-open probe (doubles per consecutive trip, capped at 8x).
    pub cooldown: u32,
    /// Seed for the deterministic per-store cooldown jitter.
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 5,
            cooldown: 8,
            seed: 0,
        }
    }
}

/// Breaker state for one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are rejected with 503 until the cooldown count
    /// is spent.
    Open,
    /// Cooldown spent: exactly one probe request is admitted; its
    /// outcome closes or re-opens the breaker.
    HalfOpen,
}

/// What [`BreakerSet::admit`] decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed normally.
    Allow,
    /// Proceed as the half-open probe: this request's outcome decides
    /// the breaker's next state.
    Probe,
    /// Reject with `503` and this `Retry-After` (seconds).
    Reject {
        /// Deterministic client back-off, derived from the rejections
        /// still to be served before the next probe.
        retry_after_secs: u64,
    },
}

/// A state transition worth surfacing (span events, counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// Closed → Open after `trip` consecutive-failure streaks (1-based).
    Tripped {
        /// Consecutive trip ordinal since the breaker last closed.
        trip: u32,
    },
    /// Open → HalfOpen: the next admitted request is the probe.
    ProbeArmed,
    /// HalfOpen → Closed: the probe succeeded.
    Closed,
}

#[derive(Debug)]
struct StoreBreaker {
    state: BreakerState,
    /// Consecutive hard failures while closed.
    consecutive: u32,
    /// Rejections left to serve before arming the half-open probe.
    rejections_left: u32,
    /// Consecutive trips since the breaker last closed (cooldown grows
    /// with it).
    trips: u32,
    /// Whether the half-open probe is currently in flight.
    probing: bool,
}

impl StoreBreaker {
    fn new() -> Self {
        StoreBreaker {
            state: BreakerState::Closed,
            consecutive: 0,
            rejections_left: 0,
            trips: 0,
            probing: false,
        }
    }
}

/// The cooldown (rejected requests before a probe) for a store's
/// `trip`-th consecutive trip: base doubled per trip, capped at 8x, plus
/// a seeded per-store jitter in `0..=cooldown/2`. Pure, so tests can
/// predict every transition.
pub fn cooldown_rejections(config: &BreakerConfig, store: &str, trip: u32) -> u32 {
    let base = config.cooldown.max(1);
    let scaled = base.saturating_mul(1 << trip.saturating_sub(1).min(3));
    // FNV-1a over the store name, folded with seed and trip through a
    // splitmix64 finalizer: deterministic, but decorrelated across stores
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in store.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h ^ config.seed ^ (u64::from(trip) << 32);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    scaled + (z % u64::from(base / 2 + 1)) as u32
}

/// All stores' breakers behind one lock (the critical section is a few
/// integer updates; store handlers run outside it).
#[derive(Debug)]
pub struct BreakerSet {
    config: BreakerConfig,
    stores: Mutex<HashMap<String, StoreBreaker>>,
}

impl BreakerSet {
    /// A breaker set where every store starts closed.
    pub fn new(config: BreakerConfig) -> Self {
        BreakerSet {
            config,
            stores: Mutex::new(HashMap::new()),
        }
    }

    /// Gate one request for `store`. `Reject` costs one unit of the open
    /// cooldown; when the cooldown is spent the breaker half-opens and
    /// the *next* request is admitted as the probe.
    pub fn admit(&self, store: &str) -> (Admission, Option<BreakerEvent>) {
        if self.config.threshold == 0 {
            return (Admission::Allow, None);
        }
        let mut stores = self.stores.lock().expect("breaker lock poisoned");
        let b = stores
            .entry(store.to_string())
            .or_insert_with(StoreBreaker::new);
        match b.state {
            BreakerState::Closed => (Admission::Allow, None),
            BreakerState::Open => {
                b.rejections_left = b.rejections_left.saturating_sub(1);
                let retry = u64::from(b.rejections_left).clamp(1, 8);
                if b.rejections_left == 0 {
                    b.state = BreakerState::HalfOpen;
                    b.probing = false;
                    (
                        Admission::Reject {
                            retry_after_secs: retry,
                        },
                        Some(BreakerEvent::ProbeArmed),
                    )
                } else {
                    (
                        Admission::Reject {
                            retry_after_secs: retry,
                        },
                        None,
                    )
                }
            }
            BreakerState::HalfOpen => {
                if b.probing {
                    // one probe at a time; everyone else keeps backing off
                    (
                        Admission::Reject {
                            retry_after_secs: 1,
                        },
                        None,
                    )
                } else {
                    b.probing = true;
                    (Admission::Probe, None)
                }
            }
        }
    }

    /// Record the outcome of an admitted (`Allow` or `Probe`) request.
    /// Success closes and fully resets the breaker; failure advances it
    /// toward (or back to) open.
    pub fn record(&self, store: &str, success: bool) -> Option<BreakerEvent> {
        if self.config.threshold == 0 {
            return None;
        }
        let mut stores = self.stores.lock().expect("breaker lock poisoned");
        let b = stores
            .entry(store.to_string())
            .or_insert_with(StoreBreaker::new);
        if success {
            let was_probe = b.state == BreakerState::HalfOpen;
            *b = StoreBreaker::new();
            return was_probe.then_some(BreakerEvent::Closed);
        }
        match b.state {
            BreakerState::HalfOpen => {
                // failed probe: reopen with a doubled (capped) cooldown
                b.trips += 1;
                b.state = BreakerState::Open;
                b.probing = false;
                b.consecutive = 0;
                b.rejections_left = cooldown_rejections(&self.config, store, b.trips);
                Some(BreakerEvent::Tripped { trip: b.trips })
            }
            BreakerState::Closed => {
                b.consecutive += 1;
                if b.consecutive >= self.config.threshold {
                    b.trips += 1;
                    b.state = BreakerState::Open;
                    b.consecutive = 0;
                    b.rejections_left = cooldown_rejections(&self.config, store, b.trips);
                    Some(BreakerEvent::Tripped { trip: b.trips })
                } else {
                    None
                }
            }
            // late completion racing a rejection window: nothing to do
            BreakerState::Open => None,
        }
    }

    /// `(open, half_open)` store counts, for `/metrics` gauges.
    pub fn open_counts(&self) -> (u64, u64) {
        let stores = self.stores.lock().expect("breaker lock poisoned");
        let open = stores
            .values()
            .filter(|b| b.state == BreakerState::Open)
            .count() as u64;
        let half = stores
            .values()
            .filter(|b| b.state == BreakerState::HalfOpen)
            .count() as u64;
        (open, half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u32, cooldown: u32) -> BreakerConfig {
        BreakerConfig {
            threshold,
            cooldown,
            seed: 7,
        }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures_only() {
        let set = BreakerSet::new(cfg(3, 2));
        assert_eq!(set.admit("a").0, Admission::Allow);
        assert_eq!(set.record("a", false), None);
        assert_eq!(set.record("a", false), None);
        // a success resets the streak
        assert_eq!(set.record("a", true), None);
        assert_eq!(set.record("a", false), None);
        assert_eq!(set.record("a", false), None);
        let e = set.record("a", false);
        assert_eq!(e, Some(BreakerEvent::Tripped { trip: 1 }));
        assert!(matches!(set.admit("a").0, Admission::Reject { .. }));
    }

    #[test]
    fn full_cycle_open_half_open_probe_close_is_deterministic() {
        let config = cfg(2, 2);
        let set = BreakerSet::new(config);
        set.record("s", false);
        assert_eq!(
            set.record("s", false),
            Some(BreakerEvent::Tripped { trip: 1 })
        );
        // exactly cooldown_rejections(…, 1) rejections, last one arms the probe
        let k = cooldown_rejections(&config, "s", 1);
        for i in 0..k {
            let (adm, event) = set.admit("s");
            assert!(matches!(adm, Admission::Reject { .. }), "rejection {i}");
            assert_eq!(event.is_some(), i + 1 == k, "probe arms on the last one");
        }
        // one probe admitted; a concurrent request keeps being rejected
        assert_eq!(set.admit("s").0, Admission::Probe);
        assert!(matches!(set.admit("s").0, Admission::Reject { .. }));
        // failed probe reopens with the doubled trip-2 cooldown
        assert_eq!(
            set.record("s", false),
            Some(BreakerEvent::Tripped { trip: 2 })
        );
        let k2 = cooldown_rejections(&config, "s", 2);
        assert!(k2 > k, "cooldown must grow per consecutive trip");
        for _ in 0..k2 {
            assert!(matches!(set.admit("s").0, Admission::Reject { .. }));
        }
        assert_eq!(set.admit("s").0, Admission::Probe);
        // successful probe closes and fully resets
        assert_eq!(set.record("s", true), Some(BreakerEvent::Closed));
        assert_eq!(set.admit("s").0, Admission::Allow);
        assert_eq!(set.stores.lock().unwrap()["s"].state, BreakerState::Closed);
        assert_eq!(set.open_counts(), (0, 0));
        // the trip count restarted: the next streak is trip 1 again
        set.record("s", false);
        assert_eq!(
            set.record("s", false),
            Some(BreakerEvent::Tripped { trip: 1 })
        );
    }

    #[test]
    fn stores_fail_independently() {
        let set = BreakerSet::new(cfg(1, 2));
        set.record("bad", false);
        assert!(matches!(set.admit("bad").0, Admission::Reject { .. }));
        assert_eq!(set.admit("good").0, Admission::Allow);
        let (open, half) = set.open_counts();
        assert_eq!((open, half), (1, 0));
    }

    #[test]
    fn zero_threshold_disables_breaking() {
        let set = BreakerSet::new(cfg(0, 2));
        for _ in 0..50 {
            set.record("s", false);
        }
        assert_eq!(set.admit("s").0, Admission::Allow);
        assert!(set.stores.lock().unwrap().is_empty());
    }

    #[test]
    fn cooldown_is_pure_seeded_and_grows_capped() {
        let config = cfg(3, 8);
        let a = cooldown_rejections(&config, "store-a", 1);
        assert_eq!(a, cooldown_rejections(&config, "store-a", 1));
        // jitter stays within base/2 of the scaled base
        for trip in 1..=6u32 {
            let scaled = 8 * (1 << (trip - 1).min(3));
            let k = cooldown_rejections(&config, "store-a", trip);
            assert!((scaled..=scaled + 4).contains(&k), "trip {trip}: {k}");
        }
        // different stores (and seeds) de-correlate, same bounds
        let b = cooldown_rejections(&config, "store-b", 1);
        assert!((8..=12).contains(&b));
    }
}
