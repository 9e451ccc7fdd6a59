//! # pinpoint-trace
//!
//! Device-memory event traces for the `pinpoint` reproduction of
//! *"Pinpointing the Memory Behaviors of DNN Training"* (ISPASS 2021).
//!
//! The paper's methodology instruments the memory allocators of the training
//! runtime so that every device memory block is observed through its four
//! behaviors — `malloc`, `free`, `read`, `write` — each timestamped and
//! annotated with the block's size, device offset, and content kind. This
//! crate is that instrumentation record:
//!
//! * [`MemEvent`] / [`EventKind`] / [`MemoryKind`] — one observed behavior;
//! * [`Trace`] — the append-only event log with iteration markers and an
//!   interned op-label table;
//! * [`BlockLifetime`] — a block's full life (alloc → accesses → free),
//!   including its access-time intervals (the paper's ATI metric);
//! * [`PeakUsage`] / [`PeakAcc`] — the peak live footprint by category,
//!   and the mergeable sweep that computes it;
//! * [`export`] — CSV / JSON serialization.
//!
//! # Examples
//!
//! ```
//! use pinpoint_trace::{Trace, EventKind, MemoryKind, BlockId};
//!
//! let mut trace = Trace::new();
//! trace.record(0, EventKind::Malloc, BlockId(0), 4096, 0, MemoryKind::Activation, None);
//! trace.record(1_000, EventKind::Write, BlockId(0), 4096, 0, MemoryKind::Activation, None);
//! trace.record(26_000, EventKind::Read, BlockId(0), 4096, 0, MemoryKind::Activation, None);
//! trace.record(27_000, EventKind::Free, BlockId(0), 4096, 0, MemoryKind::Activation, None);
//! trace.validate().expect("well-formed");
//!
//! let lifetimes = trace.lifetimes();
//! let block = &lifetimes[&BlockId(0)];
//! assert_eq!(block.access_intervals_ns(), vec![25_000]); // a 25 µs ATI
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
pub mod export;
pub mod json;
mod sink;
#[allow(clippy::module_inception)]
mod trace;

pub use event::{BlockId, Category, EventKind, MemEvent, MemoryKind};
pub use sink::TraceSink;
pub use trace::{BlockLifetime, Marker, PeakAcc, PeakUsage, Trace};
