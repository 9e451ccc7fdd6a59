//! Access-time-interval (ATI) extraction.
//!
//! The ATI is the paper's central metric: the elapsed time between two
//! adjacent accesses (reads/writes) to the same device memory block. Fig. 3
//! studies the ATI distribution; Fig. 4 pairs every ATI with its block's
//! size to find the swappable outliers.

use crate::engine::{run_trace, AtiFold};
use pinpoint_trace::{BlockId, EventKind, MemoryKind, Trace};

/// One access-time interval of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtiRecord {
    /// The block the interval belongs to.
    pub block: BlockId,
    /// Block size in bytes.
    pub size: usize,
    /// Content tag of the block.
    pub mem_kind: MemoryKind,
    /// The interval, in nanoseconds.
    pub interval_ns: u64,
    /// Time of the interval's closing access (x-position in Fig. 4).
    pub end_time_ns: u64,
    /// Kind of the closing access (read or write) — the "behavior" the
    /// paper's Fig. 3b violins split by.
    pub closing_kind: EventKind,
}

/// All ATIs of a trace, in closing-access time order.
///
/// The sorted interval values are computed once at construction, so the
/// distribution queries ([`AtiDataset::fraction_at_or_below`],
/// [`AtiDataset::sorted_intervals_ns`], [`AtiDataset::cdf`]) never re-scan
/// or re-sort the records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AtiDataset {
    records: Vec<AtiRecord>,
    /// Interval values in ascending order, built once at construction.
    sorted_intervals: Vec<u64>,
}

impl AtiDataset {
    /// Extracts every ATI from a trace by running [`AtiFold`] over it.
    pub fn from_trace(trace: &Trace) -> Self {
        run_trace(&AtiFold, trace, 1).0
    }

    /// Builds a dataset around pre-extracted records, computing the sorted
    /// interval cache in one pass.
    pub(crate) fn from_records(records: Vec<AtiRecord>) -> Self {
        let mut sorted_intervals: Vec<u64> = records.iter().map(|r| r.interval_ns).collect();
        sorted_intervals.sort_unstable();
        AtiDataset {
            records,
            sorted_intervals,
        }
    }

    /// All records, ordered by closing-access time.
    pub fn records(&self) -> &[AtiRecord] {
        &self.records
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no intervals were observed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The interval values only, in record order.
    pub fn intervals_ns(&self) -> Vec<u64> {
        self.records.iter().map(|r| r.interval_ns).collect()
    }

    /// The interval values in ascending order, from the construction-time
    /// cache — no per-call clone or sort.
    pub fn sorted_intervals_ns(&self) -> &[u64] {
        &self.sorted_intervals
    }

    /// The interval CDF, reusing the construction-time sorted cache.
    pub fn cdf(&self) -> crate::cdf::EmpiricalCdf {
        crate::cdf::EmpiricalCdf::from_sorted(self.sorted_intervals.clone())
    }

    /// Fraction of intervals at or below `threshold_ns` (the paper's
    /// "90 % of ATIs are below 25 µs" style statement). Binary search on
    /// the sorted cache.
    pub fn fraction_at_or_below(&self, threshold_ns: u64) -> f64 {
        if self.sorted_intervals.is_empty() {
            return 0.0;
        }
        let n = self
            .sorted_intervals
            .partition_point(|&v| v <= threshold_ns);
        n as f64 / self.sorted_intervals.len() as f64
    }

    /// Records whose closing access is of the given kind (read vs write —
    /// the per-behavior split of Fig. 3b).
    pub fn of_closing_kind(&self, kind: EventKind) -> AtiDataset {
        Self::from_records(
            self.records
                .iter()
                .copied()
                .filter(|r| r.closing_kind == kind)
                .collect(),
        )
    }

    /// Records restricted to one memory kind.
    pub fn of_kind(&self, kind: MemoryKind) -> AtiDataset {
        Self::from_records(
            self.records
                .iter()
                .copied()
                .filter(|r| r.mem_kind == kind)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_trace::EventKind;

    fn trace_with_accesses(times: &[(u64, BlockId)]) -> Trace {
        let mut t = Trace::new();
        let mut seen = std::collections::BTreeSet::new();
        for &(_, b) in times {
            if seen.insert(b) {
                t.record(
                    0,
                    EventKind::Malloc,
                    b,
                    1024,
                    0,
                    MemoryKind::Activation,
                    None,
                );
            }
        }
        let mut sorted = times.to_vec();
        sorted.sort();
        for (time, b) in sorted {
            t.record(
                time,
                EventKind::Read,
                b,
                1024,
                0,
                MemoryKind::Activation,
                None,
            );
        }
        t
    }

    #[test]
    fn intervals_are_adjacent_differences_per_block() {
        let t = trace_with_accesses(&[
            (10, BlockId(0)),
            (35, BlockId(0)),
            (40, BlockId(0)),
            (20, BlockId(1)),
            (120, BlockId(1)),
        ]);
        let d = AtiDataset::from_trace(&t);
        let mut intervals = d.intervals_ns();
        intervals.sort();
        assert_eq!(intervals, vec![5, 25, 100]);
    }

    #[test]
    fn fraction_at_or_below_matches_paper_statement_shape() {
        let t = trace_with_accesses(&[
            (0, BlockId(0)),
            (10, BlockId(0)),
            (20, BlockId(0)),
            (30, BlockId(0)),
            (40, BlockId(0)),
            (0, BlockId(1)),
            (1_000_000, BlockId(1)),
        ]);
        let d = AtiDataset::from_trace(&t);
        assert_eq!(d.len(), 5);
        assert!((d.fraction_at_or_below(10) - 0.8).abs() < 1e-12);
        assert_eq!(d.fraction_at_or_below(1_000_000), 1.0);
    }

    #[test]
    fn empty_trace_yields_empty_dataset() {
        let d = AtiDataset::from_trace(&Trace::new());
        assert!(d.is_empty());
        assert_eq!(d.fraction_at_or_below(100), 0.0);
    }

    #[test]
    fn closing_kind_splits_reads_from_writes() {
        let mut t = Trace::new();
        t.record(
            0,
            EventKind::Malloc,
            BlockId(0),
            64,
            0,
            MemoryKind::Activation,
            None,
        );
        t.record(
            10,
            EventKind::Write,
            BlockId(0),
            64,
            0,
            MemoryKind::Activation,
            None,
        );
        t.record(
            30,
            EventKind::Read,
            BlockId(0),
            64,
            0,
            MemoryKind::Activation,
            None,
        );
        t.record(
            70,
            EventKind::Write,
            BlockId(0),
            64,
            0,
            MemoryKind::Activation,
            None,
        );
        let d = AtiDataset::from_trace(&t);
        assert_eq!(d.len(), 2);
        let reads = d.of_closing_kind(EventKind::Read);
        let writes = d.of_closing_kind(EventKind::Write);
        assert_eq!(reads.intervals_ns(), vec![20]);
        assert_eq!(writes.intervals_ns(), vec![40]);
    }

    #[test]
    fn kind_filter() {
        let mut t = Trace::new();
        t.record(
            0,
            EventKind::Malloc,
            BlockId(0),
            64,
            0,
            MemoryKind::Weight,
            None,
        );
        t.record(
            1,
            EventKind::Read,
            BlockId(0),
            64,
            0,
            MemoryKind::Weight,
            None,
        );
        t.record(
            5,
            EventKind::Read,
            BlockId(0),
            64,
            0,
            MemoryKind::Weight,
            None,
        );
        let d = AtiDataset::from_trace(&t);
        assert_eq!(d.of_kind(MemoryKind::Weight).len(), 1);
        assert_eq!(d.of_kind(MemoryKind::Activation).len(), 0);
    }
}
