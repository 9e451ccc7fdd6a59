//! The trace container and per-block lifetime extraction.

use crate::event::{BlockId, Category, EventKind, MemEvent, MemoryKind};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A named point in time, used to mark iteration and epoch boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// Simulated time of the marker.
    pub time_ns: u64,
    /// Number of events already recorded when the marker was placed —
    /// an unambiguous split point even when timestamps collide.
    pub event_index: usize,
    /// Marker label, e.g. `"iter:3"` or `"epoch:1"`.
    pub label: String,
}

/// An append-only log of memory behaviors plus boundary markers.
///
/// Events are expected (and verified by [`Trace::validate`]) to be in
/// non-decreasing time order, as they come from a single simulated device
/// clock.
///
/// # Examples
///
/// ```
/// use pinpoint_trace::{Trace, EventKind, MemoryKind, BlockId};
///
/// let mut t = Trace::new();
/// let op = t.intern_label("matmul");
/// t.record(0, EventKind::Malloc, BlockId(0), 1024, 0, MemoryKind::Activation, None);
/// t.record(10, EventKind::Write, BlockId(0), 1024, 0, MemoryKind::Activation, Some(op));
/// t.record(20, EventKind::Free, BlockId(0), 1024, 0, MemoryKind::Activation, None);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.lifetimes().len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct Trace {
    events: Vec<MemEvent>,
    markers: Vec<Marker>,
    labels: Vec<String>,
    /// `labels` inverted, for interning. Derived from `labels`, so
    /// equality and `Debug` leave it out.
    label_index: HashMap<String, u32>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events && self.markers == other.markers && self.labels == other.labels
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("events", &self.events)
            .field("markers", &self.markers)
            .field("labels", &self.labels)
            .finish()
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an op label, returning its index for use in events.
    ///
    /// Repeated calls with the same label return the same index; new
    /// labels take the next index, in first-seen order.
    pub fn intern_label(&mut self, label: &str) -> u32 {
        if let Some(&i) = self.label_index.get(label) {
            return i;
        }
        let i = self.labels.len() as u32;
        self.labels.push(label.to_string());
        self.label_index.insert(label.to_string(), i);
        i
    }

    /// Resolves a label index to its string, if valid.
    pub fn label(&self, idx: u32) -> Option<&str> {
        self.labels.get(idx as usize).map(String::as_str)
    }

    /// All interned labels in index order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Appends one event.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        time_ns: u64,
        kind: EventKind,
        block: BlockId,
        size: usize,
        offset: usize,
        mem_kind: MemoryKind,
        op_label: Option<u32>,
    ) {
        self.events.push(MemEvent {
            time_ns,
            kind,
            block,
            size,
            offset,
            mem_kind,
            op_label,
        });
    }

    /// Appends a pre-built event.
    pub fn push(&mut self, event: MemEvent) {
        self.events.push(event);
    }

    /// Adds a boundary marker (iteration/epoch) at the current event index.
    pub fn mark(&mut self, time_ns: u64, label: impl Into<String>) {
        self.markers.push(Marker {
            time_ns,
            event_index: self.events.len(),
            label: label.into(),
        });
    }

    /// Appends a pre-built marker with an explicit event index (used when
    /// reloading a serialized trace).
    pub fn push_marker(&mut self, marker: Marker) {
        self.markers.push(marker);
    }

    /// Slices the events belonging to marker `i` (from that marker up to the
    /// next one, or to the end of the trace for the last marker).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn events_of_marker(&self, i: usize) -> &[MemEvent] {
        let start = self.markers[i].event_index;
        let end = self
            .markers
            .get(i + 1)
            .map(|m| m.event_index)
            .unwrap_or(self.events.len());
        &self.events[start..end]
    }

    /// All events, in record order.
    pub fn events(&self) -> &[MemEvent] {
        &self.events
    }

    /// All markers, in record order.
    pub fn markers(&self) -> &[Marker] {
        &self.markers
    }

    /// Markers whose label starts with `prefix`.
    pub fn markers_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a Marker> {
        self.markers
            .iter()
            .filter(move |m| m.label.starts_with(prefix))
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last event (0 for an empty trace).
    pub fn end_time_ns(&self) -> u64 {
        self.events.last().map(|e| e.time_ns).unwrap_or(0)
    }

    /// Checks trace invariants, returning a description of the first
    /// violation found.
    ///
    /// Invariants:
    /// * event times are non-decreasing;
    /// * each block is malloc'd at most once and freed at most once;
    /// * accesses and the free of a block happen after its malloc;
    /// * no access happens after the block's free.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a human-readable description of the violated
    /// invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut last_t = 0u64;
        #[derive(Clone, Copy, PartialEq)]
        enum St {
            Unborn,
            Live,
            Freed,
        }
        let mut state: BTreeMap<BlockId, St> = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if e.time_ns < last_t {
                return Err(format!(
                    "event {i} time {} precedes previous time {last_t}",
                    e.time_ns
                ));
            }
            last_t = e.time_ns;
            let st = state.entry(e.block).or_insert(St::Unborn);
            match e.kind {
                EventKind::Malloc => {
                    if *st != St::Unborn {
                        return Err(format!("event {i}: double malloc of {}", e.block));
                    }
                    *st = St::Live;
                }
                EventKind::Free => {
                    if *st != St::Live {
                        return Err(format!("event {i}: free of non-live {}", e.block));
                    }
                    *st = St::Freed;
                }
                EventKind::Read | EventKind::Write => {
                    if *st != St::Live {
                        return Err(format!("event {i}: access to non-live {}", e.block));
                    }
                }
            }
        }
        Ok(())
    }

    /// Extracts per-block lifetime records, keyed by block id.
    ///
    /// Blocks never freed get `free_time_ns == None` (lifetime extends to
    /// the end of the trace — e.g. parameters).
    pub fn lifetimes(&self) -> BTreeMap<BlockId, BlockLifetime> {
        let mut map: BTreeMap<BlockId, BlockLifetime> = BTreeMap::new();
        for e in &self.events {
            let entry = map.entry(e.block).or_insert_with(|| BlockLifetime {
                block: e.block,
                size: e.size,
                offset: e.offset,
                mem_kind: e.mem_kind,
                malloc_time_ns: e.time_ns,
                free_time_ns: None,
                accesses: Vec::new(),
            });
            match e.kind {
                EventKind::Malloc => {
                    entry.malloc_time_ns = e.time_ns;
                    entry.size = e.size;
                    entry.offset = e.offset;
                    entry.mem_kind = e.mem_kind;
                }
                EventKind::Free => entry.free_time_ns = Some(e.time_ns),
                EventKind::Read | EventKind::Write => {
                    entry.accesses.push((e.time_ns, e.kind));
                }
            }
        }
        map
    }

    /// Returns the peak over time of total live bytes per paper category,
    /// plus the overall peak, by sweeping mallocs/frees through one
    /// [`PeakAcc`].
    ///
    /// This is the quantity behind the occupation-breakdown figures: the
    /// footprint a training iteration actually needs from the device.
    pub fn peak_live_bytes(&self) -> PeakUsage {
        let mut acc = PeakAcc::default();
        self.events.iter().for_each(|e| acc.push(e));
        acc.finish()
    }
}

/// Total footprint at the moment of peak usage, split by category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeakUsage {
    /// Largest total live bytes seen at any instant.
    pub peak_total_bytes: u64,
    /// Live bytes per category at that instant (same instant for all).
    pub at_peak_by_category: Vec<(Category, u64)>,
}

impl PeakUsage {
    /// Live bytes of one category at the peak instant.
    pub fn bytes(&self, cat: Category) -> u64 {
        self.at_peak_by_category
            .iter()
            .find(|(c, _)| *c == cat)
            .map(|(_, b)| *b)
            .unwrap_or(0)
    }

    /// Fraction of the peak footprint held by one category (0 if peak is 0).
    pub fn fraction(&self, cat: Category) -> f64 {
        if self.peak_total_bytes == 0 {
            0.0
        } else {
            self.bytes(cat) as f64 / self.peak_total_bytes as f64
        }
    }
}

/// Live-byte amounts per category, indexed by `Category as usize`
/// (declaration order, the order of [`Category::ALL`]).
type CategoryBytes = [i64; Category::ALL.len()];

/// The peak-footprint sweep over a contiguous span of events, split so
/// that spans can be swept apart and merged in order: the span's net
/// allocation delta plus its best peak candidate, both relative to the
/// span start. [`Trace::peak_live_bytes`] pushes a whole trace through
/// one accumulator; the fused analysis engine pushes each chunk through
/// its own and merges them in chunk order, with the same result.
#[derive(Debug, Default)]
pub struct PeakAcc {
    /// Net live-byte change per category over the span.
    delta: CategoryBytes,
    /// Net live-byte change overall.
    delta_total: i64,
    /// Earliest maximum of the running total at a malloc within the
    /// span, with the per-category live bytes at that instant. A new
    /// running peak costs an array copy.
    peak: Option<(i64, CategoryBytes)>,
}

impl PeakAcc {
    /// Sweeps one event: mallocs and frees move the live totals, accesses
    /// are ignored.
    #[inline]
    pub fn push(&mut self, e: &MemEvent) {
        self.push_fields(e.kind, e.size, e.mem_kind);
    }

    /// [`push`](Self::push) from an event's kind, size and memory kind
    /// alone, as a fold reads them from a decoded chunk's columns.
    #[inline]
    pub fn push_fields(&mut self, kind: EventKind, size: usize, mem_kind: MemoryKind) {
        let cat = mem_kind.category() as usize;
        let size = size as i64;
        match kind {
            EventKind::Malloc => {
                self.delta[cat] += size;
                self.delta_total += size;
                // strict: the earliest of tied maxima wins
                if self.peak.is_none_or(|(p, _)| self.delta_total > p) {
                    self.peak = Some((self.delta_total, self.delta));
                }
            }
            EventKind::Free => {
                self.delta[cat] -= size;
                self.delta_total -= size;
            }
            EventKind::Read | EventKind::Write => {}
        }
    }

    /// Appends the span `b`, which starts where `self` ends.
    pub fn merge(self, b: PeakAcc) -> PeakAcc {
        // rebase B's candidate onto A's closing totals; keep A's on ties
        // so the earliest maximum wins, as in one sweep
        let cand_b = b
            .peak
            .map(|(pt, pc)| (self.delta_total + pt, add_bytes(self.delta, pc)));
        let peak = match (self.peak, cand_b) {
            (Some(pa), Some(pb)) => Some(if pb.0 > pa.0 { pb } else { pa }),
            (x, y) => x.or(y),
        };
        PeakAcc {
            delta: add_bytes(self.delta, b.delta),
            delta_total: self.delta_total + b.delta_total,
            peak,
        }
    }

    /// The peak of a span that starts with nothing live. A span whose
    /// running total never rises above zero reports an all-zero peak.
    pub fn finish(self) -> PeakUsage {
        let (peak_total, at_peak) = match self.peak {
            Some((p, cats)) if p > 0 => (p, cats),
            _ => (0, CategoryBytes::default()),
        };
        PeakUsage {
            peak_total_bytes: peak_total as u64,
            at_peak_by_category: Category::ALL
                .iter()
                .map(|&c| (c, at_peak[c as usize].max(0) as u64))
                .collect(),
        }
    }
}

/// Element-wise `a + b`.
fn add_bytes(a: CategoryBytes, b: CategoryBytes) -> CategoryBytes {
    std::array::from_fn(|c| a[c] + b[c])
}

/// One device memory block's full observed life.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockLifetime {
    /// Block identity.
    pub block: BlockId,
    /// Size in bytes.
    pub size: usize,
    /// Device-address offset.
    pub offset: usize,
    /// Content tag.
    pub mem_kind: MemoryKind,
    /// Allocation time.
    pub malloc_time_ns: u64,
    /// Free time, if the block was freed before the trace ended.
    pub free_time_ns: Option<u64>,
    /// `(time, kind)` of every read/write, in time order.
    pub accesses: Vec<(u64, EventKind)>,
}

impl BlockLifetime {
    /// Lifetime span in nanoseconds; `trace_end` caps never-freed blocks.
    pub fn duration_ns(&self, trace_end: u64) -> u64 {
        self.free_time_ns
            .unwrap_or(trace_end)
            .saturating_sub(self.malloc_time_ns)
    }

    /// Access-time intervals: elapsed time between adjacent accesses to this
    /// block (the paper's ATI metric, Fig. 3).
    pub fn access_intervals_ns(&self) -> Vec<u64> {
        self.accesses.windows(2).map(|w| w[1].0 - w[0].0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
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
            5,
            EventKind::Write,
            BlockId(0),
            100,
            0,
            MemoryKind::Weight,
            None,
        );
        t.record(
            10,
            EventKind::Malloc,
            BlockId(1),
            200,
            128,
            MemoryKind::Activation,
            None,
        );
        t.record(
            15,
            EventKind::Write,
            BlockId(1),
            200,
            128,
            MemoryKind::Activation,
            None,
        );
        t.record(
            40,
            EventKind::Read,
            BlockId(1),
            200,
            128,
            MemoryKind::Activation,
            None,
        );
        t.record(
            50,
            EventKind::Free,
            BlockId(1),
            200,
            128,
            MemoryKind::Activation,
            None,
        );
        t.record(
            60,
            EventKind::Read,
            BlockId(0),
            100,
            0,
            MemoryKind::Weight,
            None,
        );
        t
    }

    #[test]
    fn validates_well_formed_trace() {
        assert!(sample_trace().validate().is_ok());
    }

    #[test]
    fn rejects_time_regression() {
        let mut t = Trace::new();
        t.record(
            10,
            EventKind::Malloc,
            BlockId(0),
            1,
            0,
            MemoryKind::Other,
            None,
        );
        t.record(
            5,
            EventKind::Free,
            BlockId(0),
            1,
            0,
            MemoryKind::Other,
            None,
        );
        assert!(t.validate().unwrap_err().contains("precedes"));
    }

    #[test]
    fn rejects_double_malloc_and_use_after_free() {
        let mut t = Trace::new();
        t.record(
            0,
            EventKind::Malloc,
            BlockId(0),
            1,
            0,
            MemoryKind::Other,
            None,
        );
        t.record(
            1,
            EventKind::Malloc,
            BlockId(0),
            1,
            0,
            MemoryKind::Other,
            None,
        );
        assert!(t.validate().unwrap_err().contains("double malloc"));

        let mut t = Trace::new();
        t.record(
            0,
            EventKind::Malloc,
            BlockId(0),
            1,
            0,
            MemoryKind::Other,
            None,
        );
        t.record(
            1,
            EventKind::Free,
            BlockId(0),
            1,
            0,
            MemoryKind::Other,
            None,
        );
        t.record(
            2,
            EventKind::Read,
            BlockId(0),
            1,
            0,
            MemoryKind::Other,
            None,
        );
        assert!(t.validate().unwrap_err().contains("non-live"));
    }

    #[test]
    fn lifetimes_capture_span_and_accesses() {
        let t = sample_trace();
        let lt = t.lifetimes();
        let b1 = &lt[&BlockId(1)];
        assert_eq!(b1.malloc_time_ns, 10);
        assert_eq!(b1.free_time_ns, Some(50));
        assert_eq!(b1.duration_ns(t.end_time_ns()), 40);
        assert_eq!(b1.access_intervals_ns(), vec![25]);
        // never-freed weight extends to trace end
        let b0 = &lt[&BlockId(0)];
        assert_eq!(b0.free_time_ns, None);
        assert_eq!(b0.duration_ns(t.end_time_ns()), 60);
        assert_eq!(b0.access_intervals_ns(), vec![55]);
    }

    #[test]
    fn peak_usage_tracks_concurrent_live_bytes() {
        let t = sample_trace();
        let peak = t.peak_live_bytes();
        assert_eq!(peak.peak_total_bytes, 300);
        assert_eq!(peak.bytes(Category::Parameters), 100);
        assert_eq!(peak.bytes(Category::Intermediates), 200);
        assert!((peak.fraction(Category::Parameters) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn label_interning_dedups() {
        let mut t = Trace::new();
        let a = t.intern_label("matmul");
        let b = t.intern_label("relu");
        let c = t.intern_label("matmul");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(t.label(b), Some("relu"));
        assert_eq!(t.label(99), None);
    }

    #[test]
    fn markers_filter_by_prefix() {
        let mut t = Trace::new();
        t.mark(0, "iter:0");
        t.mark(100, "epoch:0");
        t.mark(200, "iter:1");
        let iters: Vec<_> = t.markers_with_prefix("iter:").collect();
        assert_eq!(iters.len(), 2);
        assert_eq!(iters[1].time_ns, 200);
    }

    #[test]
    fn empty_trace_properties() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.end_time_ns(), 0);
        assert!(t.validate().is_ok());
        assert_eq!(t.peak_live_bytes().peak_total_bytes, 0);
    }
}
