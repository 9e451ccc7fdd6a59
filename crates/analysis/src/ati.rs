//! Access-time-interval (ATI) extraction.
//!
//! The ATI is the paper's central metric: the elapsed time between two
//! adjacent accesses (reads/writes) to the same device memory block. Fig. 3
//! studies the ATI distribution; Fig. 4 pairs every ATI with its block's
//! size to find the swappable outliers.

use crate::cdf::nearest_rank_index;
use crate::engine::run_trace;
use crate::report::ReportFold;
use pinpoint_trace::{BlockId, EventKind, MemoryKind, Trace};
use std::sync::OnceLock;

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

/// The interval percentiles a report renders: p50, p90 and p99.
const REPORT_PERCENTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// All ATIs of a trace, in closing-access time order.
///
/// The report's nearest-rank p50, p90 and p99 are selected at
/// construction, without sorting the intervals. The sorted interval
/// values behind the distribution queries
/// ([`AtiDataset::fraction_at_or_below`],
/// [`AtiDataset::sorted_intervals_ns`], [`AtiDataset::cdf`]) are built on
/// the first such query and kept, so none of them re-scans or re-sorts
/// the records. Two datasets are equal when their records are.
#[derive(Debug, Clone, Default)]
pub struct AtiDataset {
    records: Vec<AtiRecord>,
    /// The intervals' [`REPORT_PERCENTILES`], all 0 when there are none.
    percentiles: [u64; 3],
    /// Interval values in ascending order, built on first use.
    sorted_intervals: OnceLock<Vec<u64>>,
}

/// The percentiles and the sorted intervals derive from the records.
impl PartialEq for AtiDataset {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

impl AtiDataset {
    /// Extracts every ATI from a trace: the ATIs of a report's fold over
    /// it.
    pub fn from_trace(trace: &Trace) -> Self {
        let ((ati, ..), _) = run_trace(&ReportFold, trace, 1);
        ati
    }

    /// Builds a dataset around pre-extracted records, selecting the
    /// report's percentiles from one scratch copy of the intervals.
    pub(crate) fn from_records(records: Vec<AtiRecord>) -> Self {
        let intervals = records.iter().map(|r| r.interval_ns).collect();
        Self::with_intervals(records, intervals)
    }

    /// Builds a dataset around pre-extracted records and their interval
    /// values, in any order, as the report's fold keeps them: the
    /// percentiles are selected in `intervals` itself, which is then
    /// dropped.
    pub(crate) fn with_intervals(records: Vec<AtiRecord>, mut intervals: Vec<u64>) -> Self {
        debug_assert_eq!(records.len(), intervals.len());
        let mut percentiles = [0; 3];
        if !intervals.is_empty() {
            // a selection leaves every value above its rank to the rank's
            // right, so each higher rank is selected from there alone
            let mut lo = 0;
            for (v, p) in percentiles.iter_mut().zip(REPORT_PERCENTILES) {
                let rank = nearest_rank_index(intervals.len(), p);
                *v = *intervals[lo..].select_nth_unstable(rank - lo).1;
                lo = rank;
            }
        }
        AtiDataset {
            records,
            percentiles,
            sorted_intervals: OnceLock::new(),
        }
    }

    /// The intervals' nearest-rank p50, p90 and p99, as a report renders
    /// them (all 0 when there are no intervals).
    pub(crate) fn percentiles(&self) -> [u64; 3] {
        self.percentiles
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

    /// The interval values in ascending order, sorted on the first call
    /// (or the first [`cdf`](Self::cdf) or
    /// [`fraction_at_or_below`](Self::fraction_at_or_below)) and kept —
    /// no later clone or sort.
    pub fn sorted_intervals_ns(&self) -> &[u64] {
        self.sorted_intervals.get_or_init(|| {
            let mut sorted = self.intervals_ns();
            sorted.sort_unstable();
            sorted
        })
    }

    /// The interval CDF, from the sorted intervals.
    pub fn cdf(&self) -> crate::cdf::EmpiricalCdf {
        crate::cdf::EmpiricalCdf::from_sorted(self.sorted_intervals_ns().to_vec())
    }

    /// Fraction of intervals at or below `threshold_ns` (the paper's
    /// "90 % of ATIs are below 25 µs" style statement). Binary search on
    /// the sorted intervals.
    pub fn fraction_at_or_below(&self, threshold_ns: u64) -> f64 {
        let sorted = self.sorted_intervals_ns();
        if sorted.is_empty() {
            return 0.0;
        }
        let n = sorted.partition_point(|&v| v <= threshold_ns);
        n as f64 / sorted.len() as f64
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
    use pinpoint_tensor::rng::Rng64;
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

    /// Checks `d`'s selected percentiles and lazily sorted intervals
    /// against a fresh sort, and that equality ignores the lazy cache.
    fn assert_ranks_hold(d: &AtiDataset, tag: &str) {
        let unfilled = AtiDataset::from_records(d.records().to_vec());
        assert_eq!(*d, unfilled, "{tag}: neither cache filled");
        let mut want = d.intervals_ns();
        want.sort_unstable();
        assert_eq!(d.sorted_intervals_ns(), want, "{tag}");
        assert_eq!(*d, unfilled, "{tag}: one cache filled");
        assert_eq!(unfilled, *d, "{tag}: one cache filled");
        let ranks = if want.is_empty() {
            [0; 3]
        } else {
            REPORT_PERCENTILES.map(|p| d.cdf().percentile(p))
        };
        assert_eq!(d.percentiles(), ranks, "{tag}");
        if let Some((_, fewer)) = d.records().split_last() {
            let fewer = AtiDataset::from_records(fewer.to_vec());
            assert_ne!(*d, fewer, "{tag}: a record fewer");
        }
    }

    #[test]
    fn selected_percentiles_are_the_nearest_ranks_of_the_sorted_intervals() {
        let mut rng = Rng64::seed_from_u64(0xa71_5e1e);
        let mem_kinds = [
            MemoryKind::Weight,
            MemoryKind::Activation,
            MemoryKind::Workspace,
        ];
        for n in 0..=257u64 {
            // a few distinct values, so ranks fall inside runs of
            // duplicates, and now and then a wide one
            let distinct = 1 + rng.gen_below(6);
            let records: Vec<AtiRecord> = (0..n)
                .map(|i| AtiRecord {
                    block: BlockId(rng.gen_below(9)),
                    size: 1024,
                    mem_kind: mem_kinds[rng.gen_range_usize(0, mem_kinds.len())],
                    interval_ns: if rng.gen_below(10) == 0 {
                        rng.next_u64()
                    } else {
                        rng.gen_below(distinct) * 25
                    },
                    end_time_ns: i,
                    closing_kind: if rng.gen_bool() {
                        EventKind::Read
                    } else {
                        EventKind::Write
                    },
                })
                .collect();
            let d = AtiDataset::from_records(records);
            assert_ranks_hold(&d, &format!("{n} records"));
            for kind in mem_kinds {
                assert_ranks_hold(&d.of_kind(kind), &format!("{n} records, {kind:?}"));
            }
            for kind in [EventKind::Read, EventKind::Write] {
                let split = d.of_closing_kind(kind);
                assert_ranks_hold(&split, &format!("{n} records, closed by {kind:?}"));
            }
        }
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
