//! `.ptrc` reader: footer-indexed chunk access, predicate pushdown,
//! deterministic parallel decode, and corruption-tolerant salvage.
//!
//! Opening a store reads only the fixed-size trailer and the footer; event
//! chunks are fetched and decoded on demand, so a query touching a small
//! time window of a huge trace reads a correspondingly small part of the
//! file. The reader counts decoded chunks ([`StoreReader::chunks_decoded`])
//! so tests — and the acceptance criteria — can assert pushdown actually
//! skips I/O rather than filtering after a full decode.
//!
//! Robustness contract: **no byte sequence panics the reader**. Every
//! decode failure is a typed [`StoreError`], and [`ReadPolicy`] decides
//! what happens next:
//!
//! - [`ReadPolicy::Strict`] (default) — the first corrupt structure aborts
//!   the operation with its typed error.
//! - [`ReadPolicy::Salvage`] — corrupt chunks are skipped with exact
//!   accounting (`chunks_skipped`, `events_lost`, first-error detail in
//!   [`QueryStats`]), and a missing or corrupt footer triggers a full
//!   rescan that rebuilds the index from the surviving chunks: v2 files
//!   are scanned for `PTCK` record headers and each candidate payload is
//!   admitted only if its CRC-32 and decode both pass; v1 files (no
//!   checksums, no record framing) are walked chunk-by-chunk from the
//!   front, recovering the longest cleanly-decoding prefix.
//!
//! Salvage keeps results deterministic: recovered chunks are processed in
//! file order, so analyses over a salvaged store are bit-identical at any
//! thread count to the same analyses over a store containing only the
//! surviving chunks.

use crate::columns::{ColumnBatch, DecodeScratch};
use crate::crc32::crc32;
use crate::error::StoreError;
use crate::format::{
    category_bit, decode_chunk_prefix, decode_footer, kind_bit, meta_from_events, trailer_len,
    ChunkMeta, Footer, CHUNK_HEADER_LEN, CHUNK_MAGIC, HEADER_LEN, MAGIC, VERSION, VERSION_V1,
};
use crate::source::{query, scan, Batch, ChunkSource};
use crate::writer::StoreWriter;
use pinpoint_trace::{Category, EventKind, Marker, MemEvent, Trace, TraceSink};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// An event filter with chunk-level pushdown.
///
/// All set fields must match (conjunction); an unset field matches
/// everything. Ranges are inclusive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Predicate {
    /// Event time within `[lo, hi]`.
    pub time_range: Option<(u64, u64)>,
    /// Block id within `[lo, hi]`.
    pub block_range: Option<(u64, u64)>,
    /// Event kind within the mask (build with [`Predicate::with_kind`]).
    pub kind_mask: Option<u8>,
    /// Paper category within the mask (build with
    /// [`Predicate::with_category`]).
    pub category_mask: Option<u8>,
    /// Block size at least this many bytes.
    pub min_size: Option<u64>,
    /// Block size at most this many bytes.
    pub max_size: Option<u64>,
    /// Event carries exactly this op label. Pruned chunk-level via the v3
    /// label bitset (see [`ChunkMeta::label_bits`]).
    pub op_label: Option<u32>,
    /// Intra-block offset within `[lo, hi]`.
    pub offset_range: Option<(u64, u64)>,
}

impl Predicate {
    /// The match-everything predicate.
    pub fn any() -> Self {
        Self::default()
    }

    /// Restricts to events with `lo <= time_ns <= hi`.
    #[must_use]
    pub fn with_time_range(mut self, lo: u64, hi: u64) -> Self {
        self.time_range = Some((lo, hi));
        self
    }

    /// Restricts to events with `lo <= block id <= hi`.
    #[must_use]
    pub fn with_block_range(mut self, lo: u64, hi: u64) -> Self {
        self.block_range = Some((lo, hi));
        self
    }

    /// Adds `kind` to the accepted event kinds (first call restricts).
    #[must_use]
    pub fn with_kind(mut self, kind: EventKind) -> Self {
        *self.kind_mask.get_or_insert(0) |= kind_bit(kind);
        self
    }

    /// Adds `category` to the accepted paper categories (first call
    /// restricts).
    #[must_use]
    pub fn with_category(mut self, category: Category) -> Self {
        *self.category_mask.get_or_insert(0) |= category_bit(category);
        self
    }

    /// Restricts to blocks of at least `bytes`.
    #[must_use]
    pub fn with_min_size(mut self, bytes: u64) -> Self {
        self.min_size = Some(bytes);
        self
    }

    /// Restricts to blocks of at most `bytes`.
    #[must_use]
    pub fn with_max_size(mut self, bytes: u64) -> Self {
        self.max_size = Some(bytes);
        self
    }

    /// Restricts to events carrying exactly op label `label`.
    #[must_use]
    pub fn with_op_label(mut self, label: u32) -> Self {
        self.op_label = Some(label);
        self
    }

    /// Restricts to events with `lo <= offset <= hi`.
    #[must_use]
    pub fn with_offset_range(mut self, lo: u64, hi: u64) -> Self {
        self.offset_range = Some((lo, hi));
        self
    }

    /// Whether any event of a chunk with this index entry *could* match —
    /// `false` proves the chunk can be skipped without decoding.
    pub fn matches_chunk(&self, meta: &ChunkMeta) -> bool {
        if let Some((lo, hi)) = self.time_range {
            if meta.max_time_ns < lo || meta.min_time_ns > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.block_range {
            if meta.max_block < lo || meta.min_block > hi {
                return false;
            }
        }
        if let Some(mask) = self.kind_mask {
            if mask & meta.kind_mask == 0 {
                return false;
            }
        }
        if let Some(mask) = self.category_mask {
            if mask & meta.category_mask == 0 {
                return false;
            }
        }
        if let Some(min) = self.min_size {
            if meta.max_size < min {
                return false;
            }
        }
        if let Some(max) = self.max_size {
            if meta.min_size > max {
                return false;
            }
        }
        if let Some(label) = self.op_label {
            // bit 63 is the catch-all for labels >= 63 (see
            // [`ChunkMeta::label_bits`]); pre-v3 entries default to all
            // bits set, so nothing is ever wrongly pruned
            if meta.label_bits & (1u64 << u64::from(label).min(63)) == 0 {
                return false;
            }
        }
        if let Some((lo, hi)) = self.offset_range {
            if meta.max_offset < lo || meta.min_offset > hi {
                return false;
            }
        }
        true
    }

    /// Whether this predicate prunes the chunk *specifically because of*
    /// the v3 op-label bitset: the label bit misses while every other
    /// constraint would have let the chunk through. Feeds the
    /// `chunks_pruned_by_label` counters.
    pub fn pruned_by_label(&self, meta: &ChunkMeta) -> bool {
        let Some(label) = self.op_label else {
            return false;
        };
        if meta.label_bits & (1u64 << u64::from(label).min(63)) != 0 {
            return false;
        }
        let mut rest = *self;
        rest.op_label = None;
        rest.matches_chunk(meta)
    }

    /// Whether one event matches.
    pub fn matches_event(&self, e: &MemEvent) -> bool {
        if let Some((lo, hi)) = self.time_range {
            if e.time_ns < lo || e.time_ns > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.block_range {
            if e.block.0 < lo || e.block.0 > hi {
                return false;
            }
        }
        if let Some(mask) = self.kind_mask {
            if mask & kind_bit(e.kind) == 0 {
                return false;
            }
        }
        if let Some(mask) = self.category_mask {
            if mask & category_bit(e.mem_kind.category()) == 0 {
                return false;
            }
        }
        if let Some(min) = self.min_size {
            if (e.size as u64) < min {
                return false;
            }
        }
        if let Some(max) = self.max_size {
            if (e.size as u64) > max {
                return false;
            }
        }
        if let Some(label) = self.op_label {
            if e.op_label != Some(label) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.offset_range {
            if (e.offset as u64) < lo || (e.offset as u64) > hi {
                return false;
            }
        }
        true
    }
}

/// Parses the event-kind name a query filter takes (the CLI's `--kind`,
/// the daemon's `"kind"` field), case-insensitively.
///
/// # Errors
///
/// A message naming the accepted kinds.
pub fn parse_kind(s: &str) -> Result<EventKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "malloc" => Ok(EventKind::Malloc),
        "free" => Ok(EventKind::Free),
        "read" => Ok(EventKind::Read),
        "write" => Ok(EventKind::Write),
        other => Err(format!(
            "unknown kind `{other}` (want malloc|free|read|write)"
        )),
    }
}

/// Parses the paper-category name a query filter takes (the CLI's
/// `--category`, the daemon's `"category"` field), case-insensitively
/// and with its short spellings.
///
/// # Errors
///
/// A message naming the accepted categories.
pub fn parse_category(s: &str) -> Result<Category, String> {
    match s.to_ascii_lowercase().as_str() {
        "input" | "input-data" => Ok(Category::InputData),
        "parameters" | "params" => Ok(Category::Parameters),
        "intermediates" | "intermediate" => Ok(Category::Intermediates),
        other => Err(format!(
            "unknown category `{other}` (want input|parameters|intermediates)"
        )),
    }
}

/// What a reader does when it meets corrupt bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Abort the operation with a typed [`StoreError`] at the first
    /// corrupt structure. The default.
    #[default]
    Strict,
    /// Skip corrupt chunks (with exact accounting in [`QueryStats`]) and
    /// rebuild the index by rescanning when the footer itself is damaged.
    /// I/O errors still abort: salvage tolerates bad bytes, not bad disks.
    Salvage,
}

/// How much work a query did, chunk-wise — and, under
/// [`ReadPolicy::Salvage`], exactly what was lost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Chunks in the store.
    pub chunks_total: usize,
    /// Chunks skipped via the footer index alone.
    pub chunks_pruned: usize,
    /// Of the pruned chunks, how many were skipped specifically because
    /// of the v3 op-label bitset (a pruning the coarser v1/v2 zone maps
    /// could not have made).
    pub chunks_pruned_by_label: usize,
    /// Chunks read and successfully decoded.
    pub chunks_decoded: usize,
    /// Chunks read but skipped as corrupt (always 0 under `Strict`).
    pub chunks_skipped: usize,
    /// Events lost with the skipped chunks, per the index counts.
    pub events_lost: u64,
    /// Detail of the first corruption encountered, in chunk order.
    pub first_error: Option<String>,
}

/// A query's matching events plus its work accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Matching events, in trace order.
    pub events: Vec<MemEvent>,
    /// Chunk accounting.
    pub stats: QueryStats,
}

/// What a footer rescan recovered (present on readers that had to
/// salvage; see [`StoreReader::salvage_summary`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageSummary {
    /// Chunks whose payload survived (CRC + decode in v2, clean decode in
    /// the v1 prefix walk).
    pub chunks_recovered: usize,
    /// Events in the recovered chunks.
    pub events_recovered: u64,
    /// True when the label table was lost with the footer and placeholder
    /// labels were synthesized for the ids events still reference.
    pub labels_synthesized: bool,
    /// True when boundary markers were lost with the footer.
    pub markers_lost: bool,
    /// The strict-open error that forced the rescan.
    pub reason: String,
}

/// One verified-bad chunk, as reported by [`StoreReader::verify_chunks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFault {
    /// Zero-based chunk ordinal.
    pub chunk: usize,
    /// Events lost with it, per the index count.
    pub events_lost: u64,
    /// The typed error, rendered.
    pub error: String,
}

/// What a [`StoreReader::scrub_into`] rewrite kept and dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Chunks in the source store.
    pub chunks_total: usize,
    /// Chunks copied into the output.
    pub chunks_kept: usize,
    /// Corrupt chunks dropped.
    pub chunks_skipped: usize,
    /// Events copied into the output.
    pub events_kept: u64,
    /// Events lost with the dropped chunks, per the index counts.
    pub events_lost: u64,
    /// Detail of the first corruption encountered, in chunk order.
    pub first_error: Option<String>,
}

/// Where a reader's bytes live. Reads are positional and go through
/// `&self`, so there is no shared cursor and one reader can serve any
/// number of threads at once.
#[derive(Debug)]
enum Source {
    /// An open file, read with `pread` on unix.
    #[cfg(unix)]
    File(File),
    /// Seek-and-read under a lock where positional reads are unavailable.
    #[cfg(not(unix))]
    File(std::sync::Mutex<File>),
    /// An in-memory store image.
    Bytes(Vec<u8>),
}

impl Source {
    /// Fills `buf` from byte `offset`.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Source::File(f) => {
                use std::os::unix::fs::FileExt;
                f.read_exact_at(buf, offset)
            }
            #[cfg(not(unix))]
            Source::File(f) => {
                use std::io::{Read, Seek, SeekFrom};
                let mut f = f.lock().unwrap_or_else(PoisonError::into_inner);
                f.seek(SeekFrom::Start(offset))
                    .and_then(|_| f.read_exact(buf))
            }
            Source::Bytes(data) => {
                let src = usize::try_from(offset)
                    .ok()
                    .and_then(|start| data.get(start..)?.get(..buf.len()));
                match src {
                    Some(src) => {
                        buf.copy_from_slice(src);
                        Ok(())
                    }
                    None => Err(io::ErrorKind::UnexpectedEof.into()),
                }
            }
        }
    }

    /// Reads part of the store's framing while opening it. The one rule
    /// for these reads: bytes that run out make a truncated `what`, and
    /// any other failure is an I/O error.
    fn read_framing(
        &self,
        buf: &mut [u8],
        offset: u64,
        what: &'static str,
    ) -> Result<(), StoreError> {
        self.read_exact_at(buf, offset).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => StoreError::Truncated(what),
            _ => StoreError::Io(e),
        })
    }
}

/// A `.ptrc` reader over a file or an in-memory store image.
///
/// The header and footer are validated once at open; after that every
/// method takes `&self` and the reader is `Sync`, so one open store
/// (wrapped in an `Arc` where it must outlive a scope) serves concurrent
/// queries and fused scans. It is a [`ChunkSource`], so the fused
/// analysis engine runs over it directly.
#[derive(Debug)]
pub struct StoreReader {
    src: Source,
    file_len: u64,
    version: u8,
    policy: ReadPolicy,
    footer: Footer,
    salvage: Option<SalvageSummary>,
    chunks_decoded: AtomicU64,
    /// Decode buffers lent to each scan and returned at the same slots,
    /// so steady-state scans allocate nothing per chunk.
    scratch_pool: Mutex<Vec<DecodeScratch>>,
}

impl StoreReader {
    /// Opens a `.ptrc` file under [`ReadPolicy::Strict`].
    ///
    /// # Errors
    ///
    /// I/O errors, or a typed [`StoreError`] if the file is not a valid
    /// store.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with_policy(path, ReadPolicy::Strict)
    }

    /// Opens a `.ptrc` file under the given policy.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::from_bytes_with_policy`].
    pub fn open_with_policy(
        path: impl AsRef<Path>,
        policy: ReadPolicy,
    ) -> Result<Self, StoreError> {
        let file = File::open(path).map_err(StoreError::Io)?;
        let file_len = file.metadata().map_err(StoreError::Io)?.len();
        #[cfg(not(unix))]
        let file = std::sync::Mutex::new(file);
        Self::with_source(Source::File(file), file_len, policy)
    }

    /// Wraps an in-memory store image under [`ReadPolicy::Strict`].
    ///
    /// # Errors
    ///
    /// As [`StoreReader::open`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, StoreError> {
        Self::from_bytes_with_policy(bytes, ReadPolicy::Strict)
    }

    /// Wraps an in-memory store image under the given policy.
    ///
    /// Under [`ReadPolicy::Salvage`], a damaged footer/trailer does not
    /// fail the open: the bytes are rescanned and the index rebuilt from
    /// surviving chunks ([`StoreReader::salvage_summary`] reports what was
    /// recovered). The header (magic + version) must still be intact —
    /// without it there is no way to know how to interpret the bytes.
    ///
    /// # Errors
    ///
    /// I/O errors; a typed [`StoreError`] on corruption (under `Strict`)
    /// or on a damaged header (under either policy).
    pub fn from_bytes_with_policy(bytes: Vec<u8>, policy: ReadPolicy) -> Result<Self, StoreError> {
        let file_len = bytes.len() as u64;
        Self::with_source(Source::Bytes(bytes), file_len, policy)
    }

    fn with_source(src: Source, file_len: u64, policy: ReadPolicy) -> Result<Self, StoreError> {
        let mut head = [0u8; HEADER_LEN];
        src.read_framing(&mut head, 0, ".ptrc header")?;
        if &head[..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = head[4];
        if !(VERSION_V1..=VERSION).contains(&version) {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let (footer, salvage) = match Self::load_footer_strict(&src, version, file_len) {
            Ok(footer) => (footer, None),
            Err(e) if policy == ReadPolicy::Salvage && e.is_corruption() => {
                let (footer, summary) = Self::rescan(&src, version, file_len, e.to_string())?;
                (footer, Some(summary))
            }
            Err(e) => return Err(e),
        };
        Ok(StoreReader {
            src,
            file_len,
            version,
            policy,
            footer,
            salvage,
            chunks_decoded: AtomicU64::new(0),
            scratch_pool: Mutex::new(Vec::new()),
        })
    }

    /// Reads and fully validates the trailer, footer, and chunk index.
    fn load_footer_strict(src: &Source, version: u8, file_len: u64) -> Result<Footer, StoreError> {
        let tlen = trailer_len(version);
        if file_len < (HEADER_LEN + tlen) as u64 {
            return Err(StoreError::Truncated(".ptrc trailer"));
        }
        let mut trailer = vec![0u8; tlen];
        src.read_framing(&mut trailer, file_len - tlen as u64, ".ptrc trailer")?;
        if &trailer[tlen - 4..] != MAGIC {
            return Err(StoreError::Truncated("store (bad trailer magic)"));
        }
        let footer_start = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        let footer_end = file_len - tlen as u64;
        if footer_start < HEADER_LEN as u64 || footer_start > footer_end {
            return Err(StoreError::Corrupt("footer offset out of range".into()));
        }
        let mut footer_bytes = vec![0u8; (footer_end - footer_start) as usize];
        src.read_framing(&mut footer_bytes, footer_start, "footer")?;
        if version >= 2 {
            let expected = u32::from_le_bytes(trailer[8..12].try_into().expect("4 bytes"));
            let got = crc32(&footer_bytes);
            if got != expected {
                return Err(StoreError::FooterChecksumMismatch { expected, got });
            }
        }
        let footer = decode_footer(&footer_bytes, version)?;
        Self::validate_index(&footer, version, footer_start)?;
        Ok(footer)
    }

    /// Bounds-checks every chunk index entry so no later read can trust a
    /// hostile offset or length (a corrupt `byte_len` would otherwise turn
    /// into an unbounded allocation).
    fn validate_index(footer: &Footer, version: u8, footer_start: u64) -> Result<(), StoreError> {
        let header_extra = if version >= 2 { CHUNK_HEADER_LEN } else { 0 } as u64;
        let mut prev_end = HEADER_LEN as u64;
        for (i, c) in footer.chunks.iter().enumerate() {
            let start = c.offset;
            let end = start.checked_add(c.byte_len);
            let in_bounds = start >= prev_end + header_extra
                && end.is_some_and(|e| e <= footer_start)
                && c.count > 0
                && c.min_time_ns <= c.max_time_ns
                && c.min_block <= c.max_block
                && c.min_offset <= c.max_offset;
            if !in_bounds {
                return Err(StoreError::Corrupt(format!(
                    "chunk {i} index entry out of bounds"
                )));
            }
            prev_end = end.expect("checked above");
        }
        Ok(())
    }

    /// Rebuilds the footer from the file's surviving chunks. v2: scan for
    /// `PTCK` record headers, admitting payloads whose CRC and decode both
    /// pass. v1: walk payloads from the front, keeping the longest cleanly
    /// decoding prefix (v1 has no per-chunk framing to resynchronize on).
    fn rescan(
        src: &Source,
        version: u8,
        file_len: u64,
        reason: String,
    ) -> Result<(Footer, SalvageSummary), StoreError> {
        let mut data = vec![0u8; file_len as usize];
        src.read_framing(&mut data, 0, "store")?;

        let mut chunks = Vec::new();
        let mut total_events = 0u64;
        let mut max_label: Option<u32> = None;
        let mut admit = |events: &[MemEvent], offset: usize, byte_len: usize, crc: u32| {
            let mut meta = meta_from_events(events);
            meta.offset = offset as u64;
            meta.byte_len = byte_len as u64;
            meta.crc32 = crc;
            total_events += events.len() as u64;
            for e in events {
                if let Some(op) = e.op_label {
                    max_label = Some(max_label.map_or(op, |m| m.max(op)));
                }
            }
            chunks.push(meta);
        };

        if version >= 2 {
            let mut pos = HEADER_LEN;
            while pos + CHUNK_HEADER_LEN <= data.len() {
                if &data[pos..pos + 4] != CHUNK_MAGIC.as_slice() {
                    pos += 1;
                    continue;
                }
                let len = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"))
                    as usize;
                let crc = u32::from_le_bytes(data[pos + 8..pos + 12].try_into().expect("4 bytes"));
                let start = pos + CHUNK_HEADER_LEN;
                let Some(end) = start.checked_add(len).filter(|&e| e <= data.len()) else {
                    pos += 1;
                    continue;
                };
                let payload = &data[start..end];
                if crc32(payload) != crc {
                    pos += 1;
                    continue;
                }
                match crate::format::decode_chunk(payload, version) {
                    Ok(events) if !events.is_empty() => {
                        admit(&events, start, len, crc);
                        pos = end;
                    }
                    _ => pos += 1,
                }
            }
        } else {
            let mut pos = HEADER_LEN;
            while pos < data.len() {
                match decode_chunk_prefix(&data[pos..], version) {
                    Ok((events, consumed)) if !events.is_empty() => {
                        admit(&events, pos, consumed, 0);
                        pos += consumed;
                    }
                    _ => break,
                }
            }
        }

        // events may reference op-label ids whose table died with the
        // footer; synthesize placeholders so they stay resolvable
        let labels_synthesized = max_label.is_some();
        let labels = match max_label {
            Some(max) => (0..=max).map(|i| format!("lost-label:{i}")).collect(),
            None => Vec::new(),
        };
        let summary = SalvageSummary {
            chunks_recovered: chunks.len(),
            events_recovered: total_events,
            labels_synthesized,
            markers_lost: true,
            reason,
        };
        let footer = Footer {
            labels,
            markers: Vec::new(),
            chunks,
            total_events,
        };
        Ok((footer, summary))
    }

    /// The read policy, fixed at open.
    pub fn policy(&self) -> ReadPolicy {
        self.policy
    }

    /// The store's format version byte.
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Present when the open had to rebuild the index by rescanning.
    pub fn salvage_summary(&self) -> Option<&SalvageSummary> {
        self.salvage.as_ref()
    }

    /// The footer: labels, markers, and the chunk index.
    pub fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Total store size in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.footer.chunks.len()
    }

    /// Total events across all chunks.
    pub fn total_events(&self) -> u64 {
        self.footer.total_events
    }

    /// Cumulative count of chunks this reader has fetched for decode,
    /// across all threads.
    pub fn chunks_decoded(&self) -> u64 {
        self.chunks_decoded.load(Ordering::Relaxed)
    }

    /// Cumulative count of buffer growths across this reader's decode
    /// scratch pool. Once a scan has warmed the pool, repeating the same
    /// scan leaves this unchanged — the zero-allocations-per-chunk
    /// property the acceptance tests assert.
    pub fn decode_reallocs(&self) -> u64 {
        self.pool().iter().map(DecodeScratch::realloc_count).sum()
    }

    fn pool(&self) -> MutexGuard<'_, Vec<DecodeScratch>> {
        // the pool only ever holds reusable buffers, valid in any state
        self.scratch_pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn meta(&self, i: usize) -> Result<ChunkMeta, StoreError> {
        self.footer
            .chunks
            .get(i)
            .copied()
            .ok_or(StoreError::ChunkOutOfRange {
                chunk: i,
                chunks: self.footer.chunks.len(),
            })
    }

    /// Reads, verifies (CRC on v2+, event count against the index), and
    /// decodes chunk `i` into `scratch`, whatever the policy.
    fn load<'s>(&self, i: usize, scratch: &'s mut DecodeScratch) -> Result<Batch<'s>, StoreError> {
        self.read(i, scratch)?;
        self.fetch(i, scratch)
    }

    /// Reads, verifies, and decodes chunk `i` into an owned
    /// [`ColumnBatch`] — for callers, such as a cache, whose decoded
    /// columns outlive any scratch. Strict about this chunk whatever the
    /// policy; counts toward [`StoreReader::chunks_decoded`].
    ///
    /// # Errors
    ///
    /// I/O errors, [`StoreError::ChunkOutOfRange`], or a typed corruption
    /// error.
    pub fn decode_chunk(&self, i: usize) -> Result<ColumnBatch, StoreError> {
        let mut scratch = DecodeScratch::new();
        self.load(i, &mut scratch)?;
        Ok(scratch.into_batch())
    }

    /// Runs a filtered query: prunes chunks via the footer index, decodes
    /// the survivors (fanned out over `threads` worker threads when
    /// `threads > 1`), and filters events. Output order — and every byte
    /// of it — is identical at every thread count; under
    /// [`ReadPolicy::Salvage`] that includes the loss accounting, because
    /// per-chunk verdicts are folded in file order. See [`query`].
    ///
    /// # Errors
    ///
    /// I/O errors; corruption errors under [`ReadPolicy::Strict`].
    pub fn query(&self, pred: &Predicate, threads: usize) -> Result<QueryResult, StoreError> {
        query(self, pred, threads)
    }

    /// Verifies every chunk (CRC on v2, full decode on both versions)
    /// without keeping events, returning one [`ChunkFault`] per bad chunk.
    /// An empty result means the store's event data is fully intact.
    ///
    /// # Errors
    ///
    /// I/O errors only — corruption is the *result*, not a failure.
    pub fn verify_chunks(&self) -> Result<Vec<ChunkFault>, StoreError> {
        let mut scratch = DecodeScratch::new();
        let mut faults = Vec::new();
        for i in 0..self.num_chunks() {
            match self.load(i, &mut scratch) {
                Ok(_) => {}
                Err(e) if e.is_corruption() => faults.push(ChunkFault {
                    chunk: i,
                    events_lost: self.footer.chunks[i].count,
                    error: e.to_string(),
                }),
                Err(e) => return Err(e),
            }
        }
        Ok(faults)
    }

    /// The footer's markers placed among the events of the chunks that
    /// `kept` flags, by the one rule [`read_trace`](Self::read_trace) and
    /// [`scrub_into`](Self::scrub_into) share: a marker's index counts the
    /// whole event stream, and it lands before the first kept event at or
    /// after that index. So a marker inside a dropped chunk lands at the
    /// boundary where the chunk was, and one past the last kept event
    /// lands at the end.
    fn kept_markers(&self, kept: &[bool]) -> Vec<Marker> {
        let mut markers = self.footer.markers.iter().peekable();
        let mut placed = Vec::with_capacity(self.footer.markers.len());
        let (mut start, mut kept_before) = (0usize, 0);
        for (meta, &kept) in self.footer.chunks.iter().zip(kept) {
            // a dropped chunk's count was never checked against a decode
            let end = start.saturating_add(meta.count as usize);
            while let Some(m) = markers.next_if(|m| m.event_index < end) {
                let into = if kept {
                    m.event_index.saturating_sub(start)
                } else {
                    0
                };
                placed.push(Marker {
                    event_index: kept_before + into,
                    ..m.clone()
                });
            }
            if kept {
                kept_before += end - start;
            }
            start = end;
        }
        placed.extend(markers.map(|m| Marker {
            event_index: kept_before,
            ..m.clone()
        }));
        placed
    }

    /// Rewrites this store's surviving content into `out`, dropping
    /// corrupt chunks (regardless of policy — scrubbing *is* the salvage).
    /// Labels are preserved; markers are re-emitted with their event
    /// indices remapped past any lost ranges (a marker inside a lost range
    /// lands at the boundary), exactly where a salvaging
    /// [`read_trace`](Self::read_trace) of this store puts them. The
    /// caller finishes `out` when done.
    ///
    /// # Errors
    ///
    /// I/O errors from either side.
    pub fn scrub_into<W: Write>(&self, out: &mut StoreWriter<W>) -> Result<ScrubStats, StoreError> {
        for l in &self.footer.labels {
            out.intern_label(l);
        }
        let mut stats = ScrubStats {
            chunks_total: self.num_chunks(),
            ..ScrubStats::default()
        };
        let mut scratch = DecodeScratch::new();
        let mut kept = vec![false; self.num_chunks()];
        for (i, meta) in self.footer.chunks.iter().enumerate() {
            match self.load(i, &mut scratch) {
                Ok(batch) => {
                    kept[i] = true;
                    stats.chunks_kept += 1;
                    stats.events_kept += batch.len() as u64;
                    (0..batch.len()).for_each(|k| out.record_event(batch.event(k)));
                }
                Err(e) if e.is_corruption() => {
                    stats.chunks_skipped += 1;
                    stats.events_lost += meta.count;
                    stats.first_error.get_or_insert_with(|| e.to_string());
                }
                Err(e) => return Err(e),
            }
        }
        // a marker only splits the stream, so it may follow its events
        for m in self.kept_markers(&kept) {
            out.record_marker_at(m);
        }
        Ok(stats)
    }

    /// Materializes the full in-memory [`Trace`] (events, markers, label
    /// table) — the bridge back to every existing `&Trace` analysis.
    ///
    /// Under [`ReadPolicy::Salvage`], corrupt chunks are skipped, and the
    /// markers are remapped past them as [`scrub_into`](Self::scrub_into)
    /// remaps them, so the trace equals the read of the scrubbed copy.
    ///
    /// # Errors
    ///
    /// I/O errors; corruption errors under [`ReadPolicy::Strict`],
    /// including a marker that points past the event stream.
    pub fn read_trace(&self) -> Result<Trace, StoreError> {
        // one worker, so its trace is the whole one and nothing merges;
        // the chunks it never saw are the ones salvage dropped
        let ((mut trace, kept), _) = scan(
            self,
            &Predicate::any(),
            "store.prune",
            1,
            || (Trace::new(), vec![false; self.num_chunks()]),
            |(trace, kept), i, batch| {
                kept[i] = true;
                (0..batch.len()).for_each(|k| trace.push(batch.event(k)));
            },
            |_, _| unreachable!("a one-thread scan merges nothing"),
        )?;
        for l in &self.footer.labels {
            trace.intern_label(l);
        }
        let past_end = self
            .footer
            .markers
            .iter()
            .find(|m| m.event_index > trace.len());
        if let (ReadPolicy::Strict, Some(m)) = (self.policy, past_end) {
            return Err(StoreError::Corrupt(format!(
                "marker `{}` points past the event stream",
                m.label
            )));
        }
        for m in self.kept_markers(&kept) {
            trace.push_marker(m);
        }
        Ok(trace)
    }
}

impl ChunkSource for StoreReader {
    fn chunks(&self) -> &[ChunkMeta] {
        &self.footer.chunks
    }

    fn policy(&self) -> ReadPolicy {
        self.policy
    }

    fn read(&self, i: usize, scratch: &mut DecodeScratch) -> Result<(), StoreError> {
        let meta = self.meta(i)?;
        let _read_span = pinpoint_obs::tracer().span_with("store.read", i as u64);
        self.chunks_decoded.fetch_add(1, Ordering::Relaxed);
        // byte_len was bounds-checked against the file at open, so the
        // buffer is capped by the file size, and bytes that run out now
        // mean the file shrank under the reader: an I/O failure, which
        // salvage does not skip
        let buf = scratch.raw_for(meta.byte_len as usize);
        self.src
            .read_exact_at(buf, meta.offset)
            .map_err(StoreError::Io)
    }

    /// Decodes what [`read`](ChunkSource::read) staged in `scratch`.
    fn fetch<'s>(&self, i: usize, scratch: &'s mut DecodeScratch) -> Result<Batch<'s>, StoreError> {
        let meta = self.meta(i)?;
        scratch.decode_verified(&meta, i, self.version, self.version >= 2)?;
        Ok(Batch::Scratch(scratch.batch()))
    }

    fn lend_scratch(&self) -> Vec<DecodeScratch> {
        std::mem::take(&mut *self.pool())
    }

    fn restore_scratch(&self, pool: Vec<DecodeScratch>) {
        // concurrent scans each borrow a pool; the largest one is kept
        let mut kept = self.pool();
        if kept.len() < pool.len() {
            *kept = pool;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_store_chunked, write_store_chunked_v1, StoreWriter};
    use pinpoint_trace::{BlockId, EventKind, MemoryKind, TraceSink};

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        let op = t.intern_label("op.k");
        for i in 0..100u64 {
            t.record(
                i * 10,
                EventKind::Malloc,
                BlockId(i),
                (i as usize + 1) * 16,
                (i as usize) * 64,
                MemoryKind::Activation,
                None,
            );
            t.record(
                i * 10 + 5,
                EventKind::Write,
                BlockId(i),
                (i as usize + 1) * 16,
                (i as usize) * 64,
                MemoryKind::Activation,
                Some(op),
            );
            if i % 10 == 0 {
                t.mark(i * 10, format!("iter:{}", i / 10));
            }
        }
        t
    }

    fn store_bytes(trace: &Trace, chunk_events: usize) -> Vec<u8> {
        let mut out = Vec::new();
        write_store_chunked(trace, &mut out, chunk_events).unwrap();
        out
    }

    #[test]
    fn round_trips_trace_exactly() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let r = StoreReader::from_bytes(bytes).unwrap();
        assert_eq!(r.version(), VERSION);
        assert_eq!(r.total_events(), t.len() as u64);
        let back = r.read_trace().unwrap();
        assert_eq!(back.events(), t.events());
        assert_eq!(back.markers(), t.markers());
        assert_eq!(back.labels(), t.labels());
    }

    #[test]
    fn v1_stores_still_read_exactly() {
        let t = sample_trace();
        let mut bytes = Vec::new();
        write_store_chunked_v1(&t, &mut bytes, 16).unwrap();
        let r = StoreReader::from_bytes(bytes).unwrap();
        assert_eq!(r.version(), VERSION_V1);
        assert_eq!(r.read_trace().unwrap(), t);
    }

    #[test]
    fn time_range_query_prunes_chunks() {
        let t = sample_trace(); // 200 events, times 0..=995
        let bytes = store_bytes(&t, 16);
        let r = StoreReader::from_bytes(bytes).unwrap();
        let pred = Predicate::any().with_time_range(0, 50);
        let q = r.query(&pred, 1).unwrap();
        assert!(q.stats.chunks_total > 4);
        assert!(
            q.stats.chunks_decoded <= 2,
            "tiny time window should decode at most a chunk or two, got {:?}",
            q.stats
        );
        let expect: Vec<_> = t
            .events()
            .iter()
            .filter(|e| e.time_ns <= 50)
            .cloned()
            .collect();
        assert_eq!(q.events, expect);
    }

    #[test]
    fn queries_are_thread_count_invariant() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 8);
        let preds = [
            Predicate::any(),
            Predicate::any().with_kind(EventKind::Write),
            Predicate::any().with_block_range(10, 20),
            Predicate::any().with_min_size(800),
            Predicate::any()
                .with_time_range(100, 700)
                .with_category(Category::Intermediates),
        ];
        for pred in preds {
            let r1 = StoreReader::from_bytes(bytes.clone()).unwrap();
            let rn = StoreReader::from_bytes(bytes.clone()).unwrap();
            let a = r1.query(&pred, 1).unwrap();
            let b = rn.query(&pred, 8).unwrap();
            assert_eq!(a, b, "{pred:?}");
            let expect: Vec<_> = t
                .events()
                .iter()
                .filter(|e| pred.matches_event(e))
                .cloned()
                .collect();
            assert_eq!(a.events, expect, "{pred:?}");
        }
    }

    #[test]
    fn category_and_kind_pushdown_skip_disjoint_chunks() {
        // chunk 1: parameters only; chunk 2: input only
        let mut t = Trace::new();
        for i in 0..8u64 {
            t.record(
                i,
                EventKind::Malloc,
                BlockId(i),
                64,
                0,
                MemoryKind::Weight,
                None,
            );
        }
        for i in 8..16u64 {
            t.record(
                i,
                EventKind::Read,
                BlockId(i - 8),
                64,
                0,
                MemoryKind::Weight,
                None,
            );
        }
        let bytes = store_bytes(&t, 8);
        let r = StoreReader::from_bytes(bytes).unwrap();
        let q = r
            .query(&Predicate::any().with_kind(EventKind::Read), 1)
            .unwrap();
        assert_eq!(q.stats.chunks_total, 2);
        assert_eq!(q.stats.chunks_pruned, 1);
        assert_eq!(q.events.len(), 8);
        let q = r
            .query(&Predicate::any().with_category(Category::InputData), 1)
            .unwrap();
        assert_eq!(q.stats.chunks_decoded, 0, "no input-data chunk at all");
        assert!(q.events.is_empty());
    }

    #[test]
    fn rejects_corrupt_stores_with_typed_errors() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        // bad magic
        let mut b = bytes.clone();
        b[0] = b'X';
        assert!(matches!(
            StoreReader::from_bytes(b),
            Err(StoreError::BadMagic)
        ));
        // bad version
        let mut b = bytes.clone();
        b[4] = 99;
        assert!(matches!(
            StoreReader::from_bytes(b),
            Err(StoreError::UnsupportedVersion(99))
        ));
        // truncated trailer
        let b = bytes[..bytes.len() - 3].to_vec();
        assert!(StoreReader::from_bytes(b).is_err());
        // not a store at all
        assert!(matches!(
            StoreReader::from_bytes(b"{\"events\":[]}".to_vec()),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn flipped_chunk_byte_is_a_checksum_error_in_strict() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let r = StoreReader::from_bytes(bytes.clone()).unwrap();
        let meta = r.footer().chunks[2];
        let mut b = bytes;
        b[meta.offset as usize + 3] ^= 0x40;
        let r = StoreReader::from_bytes(b).unwrap();
        match r.decode_chunk(2) {
            Err(StoreError::ChecksumMismatch { chunk: 2, .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn salvage_query_skips_corrupt_chunks_with_exact_accounting() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let pristine = StoreReader::from_bytes(bytes.clone()).unwrap();
        let broken = 3usize;
        let meta = pristine.footer().chunks[broken];
        let mut b = bytes;
        b[meta.offset as usize] ^= 0xFF;

        let r = StoreReader::from_bytes_with_policy(b.clone(), ReadPolicy::Salvage).unwrap();
        assert!(r.salvage_summary().is_none(), "footer is fine");
        let q = r.query(&Predicate::any(), 1).unwrap();
        assert_eq!(q.stats.chunks_skipped, 1);
        assert_eq!(q.stats.events_lost, meta.count);
        assert!(q.stats.first_error.as_deref().unwrap().contains("chunk 3"));
        let expect: Vec<_> = t
            .events()
            .iter()
            .enumerate()
            .filter(|(i, _)| !(broken * 16..(broken + 1) * 16).contains(i))
            .map(|(_, e)| e.clone())
            .collect();
        assert_eq!(q.events, expect);
        // bit-identical accounting at several threads
        let q4 = r.query(&Predicate::any(), 4).unwrap();
        assert_eq!(q, q4);
        // strict sees the same bytes as an error instead
        let strict = StoreReader::from_bytes(b).unwrap();
        assert!(strict.query(&Predicate::any(), 4).is_err());
    }

    #[test]
    fn eight_concurrent_queries_on_one_reader_are_bit_identical() {
        let t = sample_trace();
        let r = StoreReader::from_bytes(store_bytes(&t, 16)).unwrap();
        let pred = Predicate::any()
            .with_kind(EventKind::Write)
            .with_time_range(0, 700);
        let want = r.query(&pred, 1).unwrap();
        assert!(!want.events.is_empty());
        let results: Vec<QueryResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|k| {
                    let r = &r;
                    s.spawn(move || r.query(&pred, 1 + k % 3).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for got in results {
            assert_eq!(got, want, "concurrent query diverged");
        }
    }

    #[test]
    fn owned_decode_matches_the_event_stream_and_counts() {
        let t = sample_trace();
        let r = StoreReader::from_bytes(store_bytes(&t, 16)).unwrap();
        let mut all = Vec::new();
        for i in 0..r.num_chunks() {
            let batch = r.decode_chunk(i).unwrap();
            assert!(batch.heap_bytes() > 0);
            all.extend(batch.to_events());
        }
        assert_eq!(all, t.events());
        assert_eq!(r.chunks_decoded(), r.num_chunks() as u64);
        assert!(matches!(
            r.decode_chunk(usize::MAX),
            Err(StoreError::ChunkOutOfRange { .. })
        ));
    }

    #[test]
    fn opening_a_directory_is_an_io_error_under_either_policy() {
        let dir = std::env::temp_dir();
        for policy in [ReadPolicy::Strict, ReadPolicy::Salvage] {
            match StoreReader::open_with_policy(&dir, policy) {
                Err(StoreError::Io(_)) => {}
                other => panic!("{policy:?}: expected an I/O error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_store_file_that_shrinks_under_the_reader_is_an_io_error_under_either_policy() {
        // the index was checked against the file at open, so a chunk cut
        // short later means the file changed, not that a chunk is damaged:
        // salvage must abort rather than skip it
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let path = std::env::temp_dir().join(format!(
            "pinpoint_reader_shrink_{}.ptrc",
            std::process::id()
        ));
        for policy in [ReadPolicy::Strict, ReadPolicy::Salvage] {
            std::fs::write(&path, &bytes).unwrap();
            let r = StoreReader::open_with_policy(&path, policy).unwrap();
            let cut_chunk = &r.footer().chunks[r.num_chunks() / 2];
            let (cut_t0, cut_len) = (
                cut_chunk.min_time_ns,
                cut_chunk.offset + cut_chunk.byte_len / 2,
            );
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(cut_len)
                .unwrap();
            for threads in [1, 4] {
                match r.query(&Predicate::any(), threads) {
                    Err(StoreError::Io(e)) => {
                        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{policy:?}");
                    }
                    other => panic!(
                        "{policy:?}, {threads} threads: expected an I/O error, got {other:?}"
                    ),
                }
                // the chunks wholly before the cut still read
                let head = r
                    .query(&Predicate::any().with_time_range(0, cut_t0 - 1), threads)
                    .unwrap();
                assert_eq!(head.stats.chunks_skipped, 0);
                assert!(head.events.iter().all(|e| e.time_ns < cut_t0));
                assert!(!head.events.is_empty());
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn salvage_rebuilds_index_from_chunks_when_footer_dies() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let pristine = StoreReader::from_bytes(bytes.clone()).unwrap();
        let n_chunks = pristine.num_chunks();
        let footer_start = pristine
            .footer()
            .chunks
            .last()
            .map(|c| c.offset + c.byte_len)
            .unwrap() as usize;
        // kill the whole footer + trailer
        let b = bytes[..footer_start].to_vec();

        assert!(StoreReader::from_bytes(b.clone()).is_err());
        let r = StoreReader::from_bytes_with_policy(b, ReadPolicy::Salvage).unwrap();
        let s = r.salvage_summary().unwrap().clone();
        assert_eq!(s.chunks_recovered, n_chunks);
        assert_eq!(s.events_recovered, t.len() as u64);
        assert!(s.markers_lost);
        assert!(s.labels_synthesized, "events reference op labels");
        let back = r.read_trace().unwrap();
        assert_eq!(back.events(), t.events());
        assert!(back.markers().is_empty());
    }

    #[test]
    fn salvage_of_truncated_v1_store_recovers_the_intact_prefix() {
        let t = sample_trace();
        let mut bytes = Vec::new();
        write_store_chunked_v1(&t, &mut bytes, 16).unwrap();
        let pristine = StoreReader::from_bytes(bytes.clone()).unwrap();
        let chunks = pristine.footer().chunks.clone();
        // cut mid-way through chunk 4
        let cut = (chunks[4].offset + chunks[4].byte_len / 2) as usize;
        let b = bytes[..cut].to_vec();
        let r = StoreReader::from_bytes_with_policy(b, ReadPolicy::Salvage).unwrap();
        assert_eq!(r.salvage_summary().unwrap().chunks_recovered, 4);
        let back = r.read_trace().unwrap();
        assert_eq!(back.events(), &t.events()[..4 * 16]);
    }

    #[test]
    fn scrub_drops_corrupt_chunks_and_remaps_markers() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let pristine = StoreReader::from_bytes(bytes.clone()).unwrap();
        let broken = 1usize;
        let meta = pristine.footer().chunks[broken];
        let mut b = bytes;
        b[meta.offset as usize + 1] ^= 0x08;

        let r = StoreReader::from_bytes_with_policy(b, ReadPolicy::Salvage).unwrap();
        let mut w = StoreWriter::with_chunk_events(Vec::new(), 16).unwrap();
        let stats = r.scrub_into(&mut w).unwrap();
        w.finish().unwrap();
        assert_eq!(stats.chunks_kept, stats.chunks_total - 1);
        assert_eq!(stats.chunks_skipped, 1);
        assert_eq!(stats.events_kept, t.len() as u64 - meta.count);
        assert_eq!(stats.events_lost, meta.count);

        let back = StoreReader::from_bytes(w.into_inner()).unwrap();
        assert!(back.verify_chunks().unwrap().is_empty());
        let scrubbed = back.read_trace().unwrap();
        let expect: Vec<_> = t
            .events()
            .iter()
            .enumerate()
            .filter(|(i, _)| !(broken * 16..(broken + 1) * 16).contains(i))
            .map(|(_, e)| e.clone())
            .collect();
        assert_eq!(scrubbed.events(), expect);
        assert_eq!(scrubbed.markers().len(), t.markers().len());
        // markers originally inside/after the lost range moved left by one
        // chunk of events; none point past the stream
        for m in scrubbed.markers() {
            assert!(m.event_index <= scrubbed.len());
        }
    }

    #[test]
    fn verify_chunks_pinpoints_damage() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let pristine = StoreReader::from_bytes(bytes.clone()).unwrap();
        let metas = pristine.footer().chunks.clone();
        let mut b = bytes;
        for broken in [2usize, 5] {
            b[metas[broken].offset as usize + 2] ^= 0x01;
        }
        let r = StoreReader::from_bytes(b).unwrap();
        let faults = r.verify_chunks().unwrap();
        assert_eq!(
            faults.iter().map(|f| f.chunk).collect::<Vec<_>>(),
            vec![2, 5]
        );
        assert_eq!(faults[0].events_lost, metas[2].count);
        assert!(faults[0].error.contains("checksum"));
    }

    #[test]
    fn streaming_writer_and_batch_writer_agree() {
        let t = sample_trace();
        let batch = store_bytes(&t, 16);
        let mut w = StoreWriter::with_chunk_events(Vec::new(), 16).unwrap();
        for l in t.labels() {
            w.intern_label(l);
        }
        let mut next_marker = 0usize;
        for (i, e) in t.events().iter().enumerate() {
            while next_marker < t.markers().len() && t.markers()[next_marker].event_index <= i {
                let m = &t.markers()[next_marker];
                w.record_marker(m.time_ns, &m.label);
                next_marker += 1;
            }
            w.record_event(e.clone());
        }
        w.finish().unwrap();
        assert_eq!(w.into_inner(), batch, "same bytes either way");
    }
}
