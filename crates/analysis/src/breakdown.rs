//! Memory-occupation breakdown (Figs. 5–7).
//!
//! Splits the peak device footprint into the paper's three categories —
//! input data, parameters, intermediate results — and tracks the occupancy
//! timeline that peak comes from.

use pinpoint_trace::{Category, EventKind, PeakUsage, Trace};

/// One row of a breakdown figure.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Workload label, e.g. `"alexnet/cifar100/bs128"`.
    pub label: String,
    /// Peak total footprint in bytes.
    pub peak_bytes: u64,
    /// Input-data bytes at the peak instant.
    pub input_bytes: u64,
    /// Parameter bytes at the peak instant.
    pub parameter_bytes: u64,
    /// Intermediate-result bytes at the peak instant.
    pub intermediate_bytes: u64,
}

impl BreakdownRow {
    /// Computes the row for a trace.
    pub fn from_trace(label: impl Into<String>, trace: &Trace) -> Self {
        Self::from_peak(label, &trace.peak_live_bytes())
    }

    /// The row for an already-computed peak footprint, such as a
    /// [`PeakFold`](crate::PeakFold)'s output.
    pub fn from_peak(label: impl Into<String>, peak: &PeakUsage) -> Self {
        BreakdownRow {
            label: label.into(),
            peak_bytes: peak.peak_total_bytes,
            input_bytes: peak.bytes(Category::InputData),
            parameter_bytes: peak.bytes(Category::Parameters),
            intermediate_bytes: peak.bytes(Category::Intermediates),
        }
    }

    /// Fractions `(input, parameters, intermediates)` of the peak.
    pub fn fractions(&self) -> (f64, f64, f64) {
        if self.peak_bytes == 0 {
            return (0.0, 0.0, 0.0);
        }
        let p = self.peak_bytes as f64;
        (
            self.input_bytes as f64 / p,
            self.parameter_bytes as f64 / p,
            self.intermediate_bytes as f64 / p,
        )
    }
}

/// A point of the occupancy timeline: live bytes right after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyPoint {
    /// Event time.
    pub time_ns: u64,
    /// Total live bytes after the event.
    pub live_bytes: u64,
}

/// The full occupancy-over-time curve of a trace (changes at every
/// malloc/free).
pub fn occupancy_timeline(trace: &Trace) -> Vec<OccupancyPoint> {
    let mut out = Vec::new();
    let mut live: i64 = 0;
    for e in trace.events() {
        match e.kind {
            EventKind::Malloc => live += e.size as i64,
            EventKind::Free => live -= e.size as i64,
            _ => continue,
        }
        out.push(OccupancyPoint {
            time_ns: e.time_ns,
            live_bytes: live.max(0) as u64,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_trace::{BlockId, MemoryKind};

    fn mixed_trace() -> Trace {
        let mut t = Trace::new();
        t.record(
            0,
            EventKind::Malloc,
            BlockId(0),
            100,
            0,
            MemoryKind::Weight,
            None,
        );
        t.record(
            1,
            EventKind::Malloc,
            BlockId(1),
            50,
            100,
            MemoryKind::Input,
            None,
        );
        t.record(
            2,
            EventKind::Malloc,
            BlockId(2),
            850,
            200,
            MemoryKind::Activation,
            None,
        );
        t.record(
            3,
            EventKind::Free,
            BlockId(2),
            850,
            200,
            MemoryKind::Activation,
            None,
        );
        t.record(
            4,
            EventKind::Free,
            BlockId(1),
            50,
            100,
            MemoryKind::Input,
            None,
        );
        t
    }

    #[test]
    fn row_splits_peak_by_category() {
        let row = BreakdownRow::from_trace("test", &mixed_trace());
        assert_eq!(row.peak_bytes, 1000);
        assert_eq!(row.input_bytes, 50);
        assert_eq!(row.parameter_bytes, 100);
        assert_eq!(row.intermediate_bytes, 850);
        let (i, p, m) = row.fractions();
        assert!((i - 0.05).abs() < 1e-12);
        assert!((p - 0.10).abs() < 1e-12);
        assert!((m - 0.85).abs() < 1e-12);
    }

    #[test]
    fn timeline_rises_and_falls() {
        let tl = occupancy_timeline(&mixed_trace());
        let bytes: Vec<u64> = tl.iter().map(|p| p.live_bytes).collect();
        assert_eq!(bytes, vec![100, 150, 1000, 150, 100]);
    }

    #[test]
    fn empty_trace_yields_zero_row() {
        let row = BreakdownRow::from_trace("empty", &Trace::new());
        assert_eq!(row.peak_bytes, 0);
        assert_eq!(row.fractions(), (0.0, 0.0, 0.0));
    }
}
