//! Brute-force reference passes over `Trace::lifetimes` and a per-event
//! `BTreeMap` sweep: the oracles the analysis folds — and the `from_trace`
//! wrappers over them — are compared against, field by field. Each is
//! written the obvious way and shares no code with the folds.

// each test crate that includes this module uses a subset of it
#![allow(dead_code)]

use pinpoint::analysis::{AtiRecord, BreakdownRow, GanttRect, OutlierCriteria, OutlierReport};
use pinpoint::trace::{Category, EventKind, PeakUsage, Trace};
use std::collections::BTreeMap;

/// Every access-time interval: adjacent accesses of each block's
/// lifetime, ordered by closing time, then block (stable, so a block's
/// own intervals stay chronological).
pub fn ati_records(trace: &Trace) -> Vec<AtiRecord> {
    let mut records = Vec::new();
    for lt in trace.lifetimes().values() {
        for w in lt.accesses.windows(2) {
            records.push(AtiRecord {
                block: lt.block,
                size: lt.size,
                mem_kind: lt.mem_kind,
                interval_ns: w[1].0 - w[0].0,
                end_time_ns: w[1].0,
                closing_kind: w[1].1,
            });
        }
    }
    records.sort_by_key(|r| (r.end_time_ns, r.block));
    records
}

/// The interval values of `records`, ascending.
pub fn sorted_intervals(records: &[AtiRecord]) -> Vec<u64> {
    let mut v: Vec<u64> = records.iter().map(|r| r.interval_ns).collect();
    v.sort_unstable();
    v
}

/// The peak of total live bytes, and each category's live bytes at the
/// first instant the peak is reached.
pub fn peak(trace: &Trace) -> PeakUsage {
    let mut live: BTreeMap<Category, i64> = BTreeMap::new();
    let mut total: i64 = 0;
    let mut peak_total: i64 = 0;
    let mut at_peak: BTreeMap<Category, i64> = BTreeMap::new();
    for e in trace.events() {
        let cat = e.mem_kind.category();
        match e.kind {
            EventKind::Malloc => {
                *live.entry(cat).or_insert(0) += e.size as i64;
                total += e.size as i64;
                if total > peak_total {
                    peak_total = total;
                    at_peak = live.clone();
                }
            }
            EventKind::Free => {
                *live.entry(cat).or_insert(0) -= e.size as i64;
                total -= e.size as i64;
            }
            EventKind::Read | EventKind::Write => {}
        }
    }
    PeakUsage {
        peak_total_bytes: peak_total.max(0) as u64,
        at_peak_by_category: Category::ALL
            .iter()
            .map(|c| (*c, at_peak.get(c).copied().unwrap_or(0).max(0) as u64))
            .collect(),
    }
}

/// The breakdown row of `trace`'s peak.
pub fn breakdown(label: &str, trace: &Trace) -> BreakdownRow {
    let p = peak(trace);
    BreakdownRow {
        label: label.to_string(),
        peak_bytes: p.peak_total_bytes,
        input_bytes: p.bytes(Category::InputData),
        parameter_bytes: p.bytes(Category::Parameters),
        intermediate_bytes: p.bytes(Category::Intermediates),
    }
}

/// One rectangle per block lifetime intersecting `[t_start, t_end]`,
/// ordered by start time, then offset, then block (stable over the
/// block-ordered lifetimes).
pub fn gantt(trace: &Trace, t_start: u64, t_end: u64) -> Vec<GanttRect> {
    let end = trace.end_time_ns();
    let mut rects: Vec<GanttRect> = trace
        .lifetimes()
        .values()
        .map(|lt| GanttRect {
            block: lt.block,
            t0_ns: lt.malloc_time_ns,
            t1_ns: lt.free_time_ns.unwrap_or(end),
            offset: lt.offset,
            size: lt.size,
            mem_kind: lt.mem_kind,
        })
        .filter(|r| r.t1_ns >= t_start && r.t0_ns <= t_end)
        .collect();
    rects.sort_by_key(|r| (r.t0_ns, r.offset));
    rects
}

/// The intervals of `records` that pass `criteria`.
pub fn outliers(records: &[AtiRecord], criteria: OutlierCriteria) -> OutlierReport {
    OutlierReport {
        criteria,
        total_behaviors: records.len(),
        outliers: records
            .iter()
            .copied()
            .filter(|r| r.interval_ns > criteria.min_ati_ns && r.size > criteria.min_size_bytes)
            .collect(),
    }
}
