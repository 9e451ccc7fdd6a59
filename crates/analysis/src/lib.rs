//! # pinpoint-analysis
//!
//! Trace analysis for the `pinpoint` reproduction of *"Pinpointing the
//! Memory Behaviors of DNN Training"* (ISPASS 2021) — every quantitative
//! lens the paper applies to its traces:
//!
//! * [`AtiDataset`] — access-time-interval extraction (the central metric);
//! * [`EmpiricalCdf`] — the Fig. 3a CDF;
//! * [`violin`] — the Fig. 3b violin (Gaussian KDE + quartiles);
//! * [`gantt_rects`] / [`fragmentation_at`] — the Fig. 2 Gantt chart and
//!   its blank-space fragmentation measure;
//! * [`detect`] — the iterative-pattern check behind the paper's first
//!   observation;
//! * [`BreakdownRow`] — the Figs. 5–7 occupation breakdown;
//! * [`sift`] — the Fig. 4 outlier sifting (high ATI × large size);
//! * [`assess`] — Equation-1 swap feasibility per behavior;
//! * [`plan`] / [`apply`] — the paper's §IV future work: an automatic,
//!   zero-overhead swap planner driven by the observed access patterns,
//!   plus a transform that materializes a plan into a measurable trace;
//! * [`op_stats`] — per-operator memory-traffic attribution;
//! * [`check_contention`] / [`thin_to_feasible`] — shared-PCIe-link
//!   scheduling of a swap plan (Equation 1 is per-gap; the link is not).
//!
//! Every pass above works on an in-memory [`Trace`](pinpoint_trace::Trace).
//! The ATI, peak and Gantt passes are [`EventFold`]s ([`AtiFold`],
//! [`PeakFold`], [`GanttFold`]), and their `from_trace` entry points
//! ([`AtiDataset::from_trace`], [`gantt_rects`], and
//! `Trace::peak_live_bytes` through the shared [`PeakAcc`]) are thin
//! wrappers over them, so each pass has one implementation. The breakdown
//! and outliers derive from the peak ([`BreakdownRow::from_peak`]) and the
//! ATIs ([`sift`]). The engine is one statically typed loop: [`run`]
//! folds one fold over a single decode of an on-disk `.ptrc` store (or
//! any other [`ChunkSource`](pinpoint_store::ChunkSource)), one chunk at a
//! time, pruning chunks with the fold's predicate and merging per-chunk
//! partial states deterministically; [`run_trace`] runs the same scan over
//! an in-memory trace cut into the same chunks. [`TraceReport`] runs the
//! three folds as one, so a report pays for one scan total instead of one
//! scan per pass.
//!
//! # Examples
//!
//! ```
//! use pinpoint_analysis::{AtiDataset, EmpiricalCdf};
//! use pinpoint_trace::{Trace, EventKind, MemoryKind, BlockId};
//!
//! let mut t = Trace::new();
//! t.record(0, EventKind::Malloc, BlockId(0), 4096, 0, MemoryKind::Activation, None);
//! t.record(1_000, EventKind::Write, BlockId(0), 4096, 0, MemoryKind::Activation, None);
//! t.record(21_000, EventKind::Read, BlockId(0), 4096, 0, MemoryKind::Activation, None);
//!
//! let atis = AtiDataset::from_trace(&t);
//! let cdf = EmpiricalCdf::new(atis.intervals_ns());
//! assert_eq!(cdf.percentile(1.0), 20_000); // a 20 µs ATI
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ati;
mod breakdown;
mod cdf;
mod contention;
mod diff;
mod engine;
mod gantt;
mod iterative;
mod kde;
mod op_stats;
mod outlier;
mod planner;
mod report;
mod svg;
mod swap;

pub use ati::{AtiDataset, AtiRecord};
pub use breakdown::{occupancy_timeline, BreakdownRow, OccupancyPoint};
pub use cdf::EmpiricalCdf;
pub use contention::{check_contention, thin_to_feasible, ContentionReport, ScheduledSwap};
pub use diff::{diff_traces, Delta, TraceDiff};
pub use engine::{run, run_trace, AtiFold, BlockAcc, EventFold, FusedStats, GanttFold, PeakFold};
pub use gantt::{
    fragmentation_at, gantt_rects, worst_fragmentation, FragmentationSnapshot, GanttRect,
};
pub use iterative::{detect, period_from_mallocs, IterativeReport};
pub use kde::{kde_on_grid, violin, violin_sorted, ViolinStats};
pub use op_stats::{op_stats, OpMemoryStats};
pub use outlier::{sift, OutlierCriteria, OutlierReport};
pub use pinpoint_trace::PeakAcc;
pub use planner::{apply, plan, SwapDecision, SwapPlan};
pub use report::{
    query_json, query_json_into, report_json, report_json_into, RenderScratch, TraceReport,
};
pub use svg::{gantt_svg, SvgConfig};
pub use swap::{assess, SwapFeasibilityReport, SwapVerdict};
