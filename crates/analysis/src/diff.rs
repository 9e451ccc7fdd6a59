//! Trace comparison: quantifies how two training runs' memory behaviors
//! differ (allocator policies, checkpointing densities, batch sizes, code
//! versions — any A/B over the same workload).

use crate::ati::AtiDataset;
use crate::breakdown::BreakdownRow;
use crate::iterative::detect;
use pinpoint_trace::Trace;

/// Side-by-side summary of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// The metric in trace A.
    pub a: f64,
    /// The metric in trace B.
    pub b: f64,
}

impl Delta {
    fn new(a: f64, b: f64) -> Self {
        Delta { a, b }
    }

    /// `b / a`: `±inf` when only `a` is 0, `NaN` when both are.
    pub fn ratio(&self) -> f64 {
        self.b / self.a
    }

    /// Relative change `(b - a) / a` as a fraction.
    pub fn relative_change(&self) -> f64 {
        (self.b - self.a) / self.a
    }
}

/// The structural diff of two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Event counts.
    pub events: Delta,
    /// Peak live bytes.
    pub peak_bytes: Delta,
    /// Total simulated duration (ns).
    pub duration_ns: Delta,
    /// Median access-time interval (ns); 0 when a trace has no intervals.
    pub median_ati_ns: Delta,
    /// Mean iteration period (ns); 0 when not periodic / unmarked.
    pub period_ns: Delta,
    /// Intermediate-result fraction of the peak.
    pub intermediate_fraction: Delta,
}

impl TraceDiff {
    /// True when every metric matches within `tol` relative tolerance.
    pub fn is_same_within(&self, tol: f64) -> bool {
        [
            self.events,
            self.peak_bytes,
            self.duration_ns,
            self.median_ati_ns,
            self.period_ns,
            self.intermediate_fraction,
        ]
        .iter()
        .all(|d| {
            if d.a == 0.0 && d.b == 0.0 {
                true
            } else if d.a == 0.0 {
                false
            } else {
                d.relative_change().abs() <= tol
            }
        })
    }
}

fn median_ati(trace: &Trace) -> f64 {
    let d = AtiDataset::from_trace(trace);
    let v = d.sorted_intervals_ns();
    if v.is_empty() {
        return 0.0;
    }
    v[v.len() / 2] as f64
}

/// Computes the structural diff of two traces.
pub fn diff_traces(a: &Trace, b: &Trace) -> TraceDiff {
    let (pa, pb) = (a.peak_live_bytes(), b.peak_live_bytes());
    let (ba, bb) = (
        BreakdownRow::from_peak("a", &pa),
        BreakdownRow::from_peak("b", &pb),
    );
    TraceDiff {
        events: Delta::new(a.len() as f64, b.len() as f64),
        peak_bytes: Delta::new(pa.peak_total_bytes as f64, pb.peak_total_bytes as f64),
        duration_ns: Delta::new(a.end_time_ns() as f64, b.end_time_ns() as f64),
        median_ati_ns: Delta::new(median_ati(a), median_ati(b)),
        period_ns: Delta::new(detect(a).mean_period_ns, detect(b).mean_period_ns),
        intermediate_fraction: Delta::new(ba.fractions().2, bb.fractions().2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_trace::{BlockId, EventKind, MemoryKind};

    fn trace(scale: usize) -> Trace {
        let mut t = Trace::new();
        let mut clock = 0u64;
        for i in 0..4u64 {
            t.mark(clock, format!("iter:{i}"));
            let b = BlockId(i);
            t.record(
                clock,
                EventKind::Malloc,
                b,
                1024 * scale,
                0,
                MemoryKind::Activation,
                None,
            );
            clock += 10_000;
            t.record(
                clock,
                EventKind::Write,
                b,
                1024 * scale,
                0,
                MemoryKind::Activation,
                None,
            );
            clock += 10_000;
            t.record(
                clock,
                EventKind::Read,
                b,
                1024 * scale,
                0,
                MemoryKind::Activation,
                None,
            );
            t.record(
                clock,
                EventKind::Free,
                b,
                1024 * scale,
                0,
                MemoryKind::Activation,
                None,
            );
            clock += 5_000;
        }
        t
    }

    #[test]
    fn identical_traces_diff_to_zero() {
        let d = diff_traces(&trace(1), &trace(1));
        assert!(d.is_same_within(0.0));
        assert_eq!(d.peak_bytes.ratio(), 1.0);
    }

    #[test]
    fn scaled_trace_shows_peak_ratio() {
        let d = diff_traces(&trace(1), &trace(4));
        assert_eq!(d.peak_bytes.ratio(), 4.0);
        assert_eq!(d.events.ratio(), 1.0);
        assert!(!d.is_same_within(0.1));
        assert!((d.peak_bytes.relative_change() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_vs_nonempty_is_not_same() {
        let d = diff_traces(&Trace::new(), &trace(1));
        assert!(!d.is_same_within(0.5));
    }
}
