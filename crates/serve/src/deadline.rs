//! Per-request deadline budgets.
//!
//! Every admitted request gets a [`Deadline`]: an absolute point on the
//! tracer clock by which the daemon must have answered. The deadline is
//! threaded from accept through parse → catalog lookup → the fused
//! chunk fold, where it becomes a
//! [`CancelToken`] polled before every
//! chunk decode — so a doomed scan stops mid-store and the worker
//! answers a deterministic `503` with `Retry-After` instead of finishing
//! work whose client has already given up.
//!
//! The budget clock starts when the connection is *accepted* for the
//! first request of a connection (queue wait spends budget: a request
//! that starved in the queue has less scan time left) and when the
//! request head starts arriving for kept-alive follow-ups. During a
//! graceful drain, every deadline is additionally clamped to the drain
//! deadline, so in-flight work cannot outlive the drain window.

use pinpoint_obs::tracer;
use pinpoint_store::CancelToken;

/// An absolute answer-by point on the tracer clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at_ns: u64,
}

impl Deadline {
    /// A deadline `budget_ms` after `base_ns` (a `tracer().now_ns()`
    /// reading). A zero budget disables the deadline entirely.
    pub fn after(base_ns: u64, budget_ms: u64) -> Self {
        let at_ns = if budget_ms == 0 {
            u64::MAX
        } else {
            base_ns.saturating_add(budget_ms.saturating_mul(1_000_000))
        };
        Deadline { at_ns }
    }

    /// A deadline that never fires.
    pub fn unbounded() -> Self {
        Deadline { at_ns: u64::MAX }
    }

    /// The earlier of this deadline and an absolute clamp point — how a
    /// drain window caps every in-flight request.
    #[must_use]
    pub fn clamped_to(self, at_ns: u64) -> Self {
        Deadline {
            at_ns: self.at_ns.min(at_ns),
        }
    }

    /// The absolute expiry point (tracer clock, ns).
    pub fn at_ns(&self) -> u64 {
        self.at_ns
    }

    /// Whether the budget is spent.
    pub fn exceeded(&self) -> bool {
        self.at_ns != u64::MAX && tracer().now_ns() >= self.at_ns
    }

    /// A [`CancelToken`] view of this deadline, polled by scan loops
    /// before each chunk decode.
    pub fn cancel_token(&self) -> CancelToken {
        if self.at_ns == u64::MAX {
            return CancelToken::never();
        }
        let at = self.at_ns;
        CancelToken::new(move || tracer().now_ns() >= at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_generous_deadline_is_not_exceeded_and_a_spent_one_is() {
        let now = tracer().now_ns();
        let generous = Deadline::after(now, 60_000);
        assert!(!generous.exceeded());
        assert!(!generous.cancel_token().is_cancelled());
        let spent = Deadline::after(now.saturating_sub(2_000_000), 1);
        assert!(spent.exceeded());
        assert!(spent.cancel_token().is_cancelled());
    }

    #[test]
    fn zero_budget_disables_the_deadline() {
        let d = Deadline::after(0, 0);
        assert_eq!(d.at_ns(), u64::MAX);
        assert!(!d.exceeded());
        assert!(!d.cancel_token().is_cancelled());
        assert_eq!(Deadline::unbounded(), d);
    }

    #[test]
    fn clamping_takes_the_earlier_point() {
        let d = Deadline::after(1_000, 10);
        assert_eq!(d.clamped_to(5_000).at_ns(), 5_000);
        assert_eq!(d.clamped_to(u64::MAX), d);
        assert_eq!(Deadline::unbounded().clamped_to(7).at_ns(), 7);
    }
}
