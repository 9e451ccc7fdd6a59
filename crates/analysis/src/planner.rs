//! The swap planner — the paper's stated future work, implemented.
//!
//! §IV: *"we plan to propose a more general approach that takes the memory
//! access patterns as input to automatically address the device memory
//! pressure issues of DNN training with small runtime overhead."*
//!
//! This planner takes a trace, applies Equation 1 (with the per-transfer
//! latency refinement) to every access gap of every block, and schedules
//! evict/prefetch pairs for the gaps where the round trip fits — i.e. zero
//! added critical-path time by construction. It then estimates the peak
//! footprint reduction by re-running the occupancy sweep with the planned
//! out-of-device windows subtracted.

use crate::ati::AtiDataset;
use pinpoint_device::TransferModel;
use pinpoint_trace::{BlockId, EventKind, Trace};

/// One planned swap: evict the block after an access, prefetch it back
/// before the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapDecision {
    /// The block to swap.
    pub block: BlockId,
    /// Block size in bytes.
    pub size: usize,
    /// Time of the access after which eviction starts.
    pub evict_at_ns: u64,
    /// Time of the next access, before which the prefetch must complete.
    pub needed_at_ns: u64,
    /// Start of the out-of-device window (eviction finished).
    pub out_from_ns: u64,
    /// End of the out-of-device window (prefetch starts).
    pub out_until_ns: u64,
}

impl SwapDecision {
    /// Length of the access gap being exploited.
    pub fn interval_ns(&self) -> u64 {
        self.needed_at_ns - self.evict_at_ns
    }

    /// Device bytes freed during the out-of-device window.
    pub fn bytes_saved(&self) -> usize {
        self.size
    }
}

/// A complete swap plan with its estimated effect.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapPlan {
    /// Planned evict/prefetch pairs, in eviction-time order.
    pub decisions: Vec<SwapDecision>,
    /// Peak live bytes without swapping.
    pub baseline_peak_bytes: u64,
    /// Peak live bytes with the plan applied.
    pub planned_peak_bytes: u64,
    /// Total PCIe traffic the plan adds (2 × size per decision).
    pub transfer_bytes: u64,
}

impl SwapPlan {
    /// Absolute peak reduction in bytes.
    pub fn savings_bytes(&self) -> u64 {
        self.baseline_peak_bytes
            .saturating_sub(self.planned_peak_bytes)
    }

    /// Peak reduction as a fraction of the baseline peak.
    pub fn savings_fraction(&self) -> f64 {
        if self.baseline_peak_bytes == 0 {
            0.0
        } else {
            self.savings_bytes() as f64 / self.baseline_peak_bytes as f64
        }
    }
}

/// Builds a zero-overhead swap plan for a trace.
///
/// `min_interval_ns` skips gaps too short to be worth considering (the
/// paper's observation that sub-25 µs ATIs admit only ~79 KB swaps makes
/// small gaps useless; 1 ms is a reasonable floor).
pub fn plan(trace: &Trace, transfer: &TransferModel, min_interval_ns: u64) -> SwapPlan {
    let mut decisions = Vec::new();
    for r in AtiDataset::from_trace(trace).records() {
        if r.interval_ns < min_interval_ns {
            continue;
        }
        let bound = transfer.max_swap_bytes_with_latency(r.interval_ns);
        if (r.size as f64) <= bound {
            let (t0, t1) = (r.end_time_ns - r.interval_ns, r.end_time_ns);
            decisions.push(SwapDecision {
                block: r.block,
                size: r.size,
                evict_at_ns: t0,
                needed_at_ns: t1,
                out_from_ns: t0 + transfer.d2h_time_ns(r.size),
                out_until_ns: t1.saturating_sub(transfer.h2d_time_ns(r.size)),
            });
        }
    }
    decisions.sort_by_key(|d| (d.evict_at_ns, d.block));
    let baseline_peak_bytes = peak_of(trace, &[]);
    let planned_peak_bytes = peak_of(trace, &decisions);
    let transfer_bytes = decisions.iter().map(|d| 2 * d.size as u64).sum();
    SwapPlan {
        decisions,
        baseline_peak_bytes,
        planned_peak_bytes,
        transfer_bytes,
    }
}

/// Occupancy peak of a trace with the decisions' out-of-device windows
/// subtracted. Ties resolve releases before acquisitions (the allocator can
/// reuse memory freed at the same instant).
fn peak_of(trace: &Trace, decisions: &[SwapDecision]) -> u64 {
    let mut deltas: Vec<(u64, i64)> = Vec::new();
    for e in trace.events() {
        match e.kind {
            EventKind::Malloc => deltas.push((e.time_ns, e.size as i64)),
            EventKind::Free => deltas.push((e.time_ns, -(e.size as i64))),
            _ => {}
        }
    }
    for d in decisions {
        if d.out_until_ns > d.out_from_ns {
            deltas.push((d.out_from_ns, -(d.size as i64)));
            deltas.push((d.out_until_ns, d.size as i64));
        }
    }
    deltas.sort_by_key(|&(t, delta)| (t, delta));
    let mut live = 0i64;
    let mut peak = 0i64;
    for (_, delta) in deltas {
        live += delta;
        peak = peak.max(live);
    }
    peak.max(0) as u64
}

/// Materializes a [`SwapPlan`] into a transformed trace, as if the runtime
/// had executed the evictions and prefetches:
///
/// * at each decision's `out_from` the device copy is freed (its d2h
///   completed);
/// * at `out_until` a fresh block is allocated at the same offset and the
///   prefetch's h2d write lands at `needed_at`;
/// * every later behavior of the logical block moves to the fresh block id
///   (a re-malloc is a new block, per the paper's methodology).
///
/// The result validates under [`Trace::validate`] and its measured peak
/// equals the plan's estimate — turning the planner's prediction into an
/// observable trace.
pub fn apply(trace: &Trace, plan: &SwapPlan) -> Trace {
    use pinpoint_trace::MemEvent;
    // decisions per block, in time order
    let mut per_block: std::collections::BTreeMap<BlockId, Vec<&SwapDecision>> =
        std::collections::BTreeMap::new();
    for d in &plan.decisions {
        per_block.entry(d.block).or_default().push(d);
    }
    let mut next_id = trace
        .events()
        .iter()
        .map(|e| e.block.0)
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    // generation ids per block: gen[0] = original id, gen[j] created by
    // decision j
    let mut gen_ids: std::collections::BTreeMap<BlockId, Vec<BlockId>> =
        std::collections::BTreeMap::new();
    for (&b, ds) in &per_block {
        let mut ids = vec![b];
        for _ in ds {
            ids.push(BlockId(next_id));
            next_id += 1;
        }
        gen_ids.insert(b, ids);
    }
    let mut out = Trace::new();
    let swap_out_label = "swap.evict";
    let swap_in_label = "swap.prefetch";
    // assemble: (time, order, event); order breaks timestamp ties so that
    // prefetch writes precede the access that needs them
    let mut staged: Vec<(u64, u8, MemEvent)> = Vec::new();
    let mut label_map: Vec<Option<String>> = Vec::new();
    for e in trace.events() {
        let mut e = e.clone();
        if let Some(ds) = per_block.get(&e.block) {
            let generation = ds.iter().filter(|d| d.needed_at_ns <= e.time_ns).count();
            e.block = gen_ids[&e.block][generation];
        }
        label_map.push(e.op_label.and_then(|i| trace.label(i).map(str::to_string)));
        staged.push((e.time_ns, 1, e));
    }
    for (&b, ds) in &per_block {
        let proto = trace
            .events()
            .iter()
            .find(|e| e.block == b)
            .expect("decision references a traced block");
        for (j, d) in ds.iter().enumerate() {
            let old_id = gen_ids[&b][j];
            let new_id = gen_ids[&b][j + 1];
            let mk = |time_ns, kind, block| MemEvent {
                time_ns,
                kind,
                block,
                size: proto.size,
                offset: proto.offset,
                mem_kind: proto.mem_kind,
                op_label: None,
            };
            // d2h read of the evicted copy at eviction start
            label_map.push(Some(swap_out_label.to_string()));
            staged.push((d.evict_at_ns, 2, mk(d.evict_at_ns, EventKind::Read, old_id)));
            label_map.push(None);
            staged.push((d.out_from_ns, 0, mk(d.out_from_ns, EventKind::Free, old_id)));
            label_map.push(None);
            staged.push((
                d.out_until_ns,
                0,
                mk(d.out_until_ns, EventKind::Malloc, new_id),
            ));
            label_map.push(Some(swap_in_label.to_string()));
            staged.push((
                d.needed_at_ns,
                0,
                mk(d.needed_at_ns, EventKind::Write, new_id),
            ));
        }
    }
    let mut order: Vec<usize> = (0..staged.len()).collect();
    order.sort_by_key(|&i| (staged[i].0, staged[i].1));
    for &i in &order {
        let mut e = staged[i].2.clone();
        e.op_label = label_map[i].as_deref().map(|l| out.intern_label(l));
        out.push(e);
    }
    // markers are intentionally dropped: event indices shift under the
    // transform, and the result is an analysis artifact, not a replay input
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_trace::MemoryKind;

    /// A big block idle for a long gap while a heavy working set churns
    /// *inside* the out-of-device window (evicting 1 GB at 6.4 GB/s takes
    /// ~156 ms, so the churn starts at 250 ms).
    fn trace_with_idle_giant() -> Trace {
        let mut t = Trace::new();
        let big = BlockId(0);
        let size = 1_000_000_000usize; // 1 GB
        t.record(0, EventKind::Malloc, big, size, 0, MemoryKind::Other, None);
        t.record(
            1_000,
            EventKind::Write,
            big,
            size,
            0,
            MemoryKind::Other,
            None,
        );
        // churning working set while the giant is idle
        for i in 0..5u64 {
            let b = BlockId(10 + i);
            let at = 250_000_000 + i * 50_000_000;
            t.record(
                at,
                EventKind::Malloc,
                b,
                800_000_000,
                2 << 30,
                MemoryKind::Activation,
                None,
            );
            t.record(
                at + 1_000_000,
                EventKind::Write,
                b,
                800_000_000,
                2 << 30,
                MemoryKind::Activation,
                None,
            );
            t.record(
                at + 10_000_000,
                EventKind::Free,
                b,
                800_000_000,
                2 << 30,
                MemoryKind::Activation,
                None,
            );
        }
        // the giant is touched again after ~900 ms
        t.record(
            900_000_000,
            EventKind::Read,
            big,
            size,
            0,
            MemoryKind::Other,
            None,
        );
        t.record(
            900_001_000,
            EventKind::Free,
            big,
            size,
            0,
            MemoryKind::Other,
            None,
        );
        t
    }

    #[test]
    fn planner_swaps_the_idle_giant() {
        let t = trace_with_idle_giant();
        let tm = TransferModel::titan_x_pascal_pinned();
        let p = plan(&t, &tm, 1_000_000);
        assert_eq!(p.decisions.len(), 1);
        let d = p.decisions[0];
        assert_eq!(d.block, BlockId(0));
        assert!(d.interval_ns() > 800_000_000);
        // churn must fall inside the out-of-device window
        assert!(d.out_from_ns < 250_000_000, "out from {}", d.out_from_ns);
        assert!(d.out_until_ns > 460_000_000, "out until {}", d.out_until_ns);
        // baseline peak: giant + one churn block; planned: giant alone
        assert_eq!(p.baseline_peak_bytes, 1_800_000_000);
        assert_eq!(p.planned_peak_bytes, 1_000_000_000);
        assert_eq!(p.savings_bytes(), 800_000_000);
        assert!((p.savings_fraction() - 4.0 / 9.0).abs() < 1e-9);
        assert_eq!(p.transfer_bytes, 2_000_000_000);
    }

    #[test]
    fn short_gaps_produce_no_decisions() {
        let mut t = Trace::new();
        let b = BlockId(0);
        t.record(
            0,
            EventKind::Malloc,
            b,
            1 << 20,
            0,
            MemoryKind::Activation,
            None,
        );
        for i in 1..50u64 {
            t.record(
                i * 20_000,
                EventKind::Read,
                b,
                1 << 20,
                0,
                MemoryKind::Activation,
                None,
            );
        }
        let p = plan(&t, &TransferModel::titan_x_pascal_pinned(), 1_000_000);
        assert!(p.decisions.is_empty());
        assert_eq!(p.savings_bytes(), 0);
    }

    #[test]
    fn plan_is_zero_overhead_by_construction() {
        let t = trace_with_idle_giant();
        let tm = TransferModel::titan_x_pascal_pinned();
        let p = plan(&t, &tm, 1_000_000);
        for d in &p.decisions {
            let round_trip = tm.d2h_time_ns(d.size) + tm.h2d_time_ns(d.size);
            assert!(
                round_trip <= d.interval_ns(),
                "decision would slow training: {round_trip} > {}",
                d.interval_ns()
            );
            assert!(d.out_from_ns <= d.out_until_ns);
        }
    }

    #[test]
    fn empty_trace_trivial_plan() {
        let p = plan(&Trace::new(), &TransferModel::default(), 0);
        assert!(p.decisions.is_empty());
        assert_eq!(p.baseline_peak_bytes, 0);
    }

    #[test]
    fn applied_plan_yields_valid_trace_with_the_planned_peak() {
        let t = trace_with_idle_giant();
        let tm = TransferModel::titan_x_pascal_pinned();
        let p = plan(&t, &tm, 1_000_000);
        let transformed = apply(&t, &p);
        transformed
            .validate()
            .expect("transformed trace well-formed");
        // the measured peak of the transformed trace equals the estimate
        assert_eq!(
            transformed.peak_live_bytes().peak_total_bytes,
            p.planned_peak_bytes
        );
        // one decision adds: evict read, free, malloc, prefetch write
        assert_eq!(transformed.len(), t.len() + 4 * p.decisions.len());
        // the swapped block's later accesses moved to a fresh block id
        let events = transformed.events();
        let giants: std::collections::BTreeSet<BlockId> = events
            .iter()
            .filter(|e| e.size == 1_000_000_000)
            .map(|e| e.block)
            .collect();
        assert_eq!(giants.len(), 2, "original + prefetched generation");
        assert!(giants.iter().all(|&b| events
            .iter()
            .any(|e| e.block == b && e.kind == EventKind::Free)));
    }

    #[test]
    fn applying_an_empty_plan_is_identity_on_events() {
        let t = trace_with_idle_giant();
        let empty = SwapPlan {
            decisions: vec![],
            baseline_peak_bytes: 0,
            planned_peak_bytes: 0,
            transfer_bytes: 0,
        };
        let out = apply(&t, &empty);
        assert_eq!(out.len(), t.len());
        for (a, b) in out.events().iter().zip(t.events()) {
            assert_eq!(a.block, b.block);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.time_ns, b.time_ns);
        }
    }
}
