//! # pinpoint-store
//!
//! A chunked columnar on-disk trace store for pinpoint memory traces.
//!
//! JSON traces are convenient but bulky and must be fully parsed before a
//! single event is usable. The `.ptrc` format fixes both: events live in
//! fixed-size chunks of per-column varint streams (delta-coded timestamps
//! and block ids, a packed kind/memory-kind meta byte, raw size/offset
//! varints, interned op labels), and a footer index records each chunk's
//! byte range, time span, block-id range, kind/category masks, and max
//! block size. That index is what makes queries cheap: a time-range or
//! category filter skips whole chunks without reading their bytes.
//!
//! Three faces:
//!
//! - **Streaming ingest** — [`StoreWriter`] implements
//!   [`pinpoint_trace::TraceSink`], so the profiler can spill events to
//!   disk chunk-by-chunk during a run instead of accumulating an in-memory
//!   [`pinpoint_trace::Trace`].
//! - **Streaming reads** — [`StoreReader`] loads only the footer up
//!   front and reads chunks positionally through `&self`, so one open
//!   store serves concurrent callers. It is a [`ChunkSource`], and
//!   [`scan`] is the one loop over any source: it prunes chunks with a
//!   [`Predicate`], gives each `pinpoint-parallel` worker a contiguous
//!   range of the survivors to fold into one accumulator, and merges the
//!   workers' accumulators in range order (bit-identical output at every
//!   thread count). [`StoreReader::query`] and the fused analysis engine
//!   both run on it, and an [`EventSource`] runs an in-memory event slice
//!   through the same scan.
//! - **Batch conversion** — [`write_store`] / [`StoreReader::read_trace`]
//!   bridge to and from the in-memory `Trace` for the existing JSON
//!   tooling and analyses.
//!
//! Format v2 adds integrity end to end: every chunk is framed by a
//! `PTCK` record header carrying its byte length and CRC-32 (computed by
//! carry-less multiplication where the CPU has it, [`crc32`]), and the
//! footer is covered by its own checksum in the trailer. Writers stream
//! into a temp file and atomically rename on a successful
//! [`finish`](pinpoint_trace::TraceSink::finish), with bounded seeded
//! retry for transient write errors ([`RetryPolicy`]). Readers take a
//! [`ReadPolicy`]: `Strict` (default) fails fast with a typed
//! [`StoreError`], while `Salvage` skips corrupt chunks with exact
//! accounting and rebuilds the index by rescanning when the footer
//! itself is damaged. The [`fault`] module is
//! a deterministic fault-injection harness (seeded bit-flips,
//! truncations, short and failing I/O) used by the corruption-matrix
//! tests to prove all of the above.
//!
//! Format v3 (current) makes the decode hardware-fast: chunks decode
//! column-at-a-time into a reused [`ColumnBatch`] instead of
//! event-at-a-time ([`columns`]), every column picks the cheapest of four
//! encodings per chunk (plain, run-length, bit-packed, delta-of-delta
//! timestamps), the index grows finer zone maps (per-chunk op-label
//! bitset, min/max size and offset) for sharper [`Predicate`] pushdown,
//! and [`DecodeScratch`] buffers recycle through the reader so
//! steady-state scans allocate nothing per chunk
//! ([`StoreReader::decode_reallocs`]). v1 and v2 files remain fully,
//! bit-identically readable.
//!
//! ```
//! use pinpoint_store::{write_store, Predicate, StoreReader};
//! use pinpoint_trace::{BlockId, EventKind, MemoryKind, Trace};
//!
//! let mut trace = Trace::new();
//! trace.record(10, EventKind::Malloc, BlockId(1), 4096, 0, MemoryKind::Weight, None);
//! trace.record(20, EventKind::Read, BlockId(1), 4096, 0, MemoryKind::Weight, None);
//!
//! let mut bytes = Vec::new();
//! write_store(&trace, &mut bytes).unwrap();
//!
//! let reader = StoreReader::from_bytes(bytes).unwrap();
//! let q = reader.query(&Predicate::any().with_kind(EventKind::Read), 1).unwrap();
//! assert_eq!(q.events.len(), 1);
//! assert_eq!(reader.read_trace().unwrap(), trace);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cancel;
pub mod columns;
pub mod crc32;
pub mod error;
pub mod fault;
pub mod format;
pub mod reader;
pub mod source;
mod varint;
pub mod writer;

pub use cancel::CancelToken;
pub use columns::{
    chunk_encoding_tags, encode_chunk_v3, meta_kind, meta_mem_kind, ColumnBatch, DecodeScratch,
    MAX_CHUNK_EVENTS, TAG_DOD, TAG_PACK, TAG_PLAIN, TAG_RLE,
};
pub use error::StoreError;
pub use format::{ChunkMeta, Footer, DEFAULT_CHUNK_EVENTS, MAGIC, VERSION, VERSION_V1, VERSION_V2};
pub use reader::{
    parse_category, parse_kind, ChunkFault, Predicate, QueryResult, QueryStats, ReadPolicy,
    SalvageSummary, ScrubStats, StoreReader,
};
pub use source::{query, scan, Batch, ChunkSource, EventSource};
pub use writer::{
    write_store, write_store_chunked, write_store_chunked_v1, write_store_chunked_v2,
    write_store_file, RetryPolicy, StoreWriter,
};
