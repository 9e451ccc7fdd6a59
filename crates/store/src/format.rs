//! The `.ptrc` on-disk layout: chunk encoding and the footer index.
//!
//! Format **v3** (current — written by [`crate::StoreWriter`]):
//!
//! ```text
//! file    := header record* footer trailer
//! header  := "PTRC" version:u8                      (version = 3)
//! record  := "PTCK" payload_len:u32le payload_crc:u32le payload
//! payload := count:varint tag:u8{6} column{6}
//! column  := byte_len:varint bytes
//! footer  := labels markers chunk_index total_events:varint
//! trailer := footer_start:u64le footer_crc:u32le "PTRC"
//! ```
//!
//! Each of the six tag bytes selects that column's encoding for this
//! chunk — plain (the v2-native stream), run-length, fixed-width
//! bit-packing, or (time column only) delta-of-delta — chosen at write
//! time by exact encoded-size comparison. The codecs, the batched SoA
//! decoder that replaces the old event-at-a-time loop, and the reusable
//! [`crate::DecodeScratch`] buffers all live in [`crate::columns`].
//!
//! Format **v2** (still read transparently) has no tag bytes — every
//! column uses the plain encoding — and its chunk index entries stop at
//! the payload CRC, without the v3 zone-map fields. Format **v1** further
//! drops the framing: records are bare payloads (no per-chunk magic,
//! length, or CRC), chunk index entries carry no checksum, and the
//! trailer is 12 bytes (`footer_start:u64le "PTRC"`, no footer CRC).
//!
//! The six per-chunk columns, in order (logical content is identical in
//! every version; only the per-column byte encoding varies in v3):
//!
//! 1. **time** — zigzag deltas between consecutive event timestamps
//!    (first value is the delta from 0, i.e. absolute);
//! 2. **meta** — one byte per event: event kind (2 bits), memory kind
//!    (3 bits), has-op flag (1 bit);
//! 3. **block** — zigzag deltas between consecutive block ids;
//! 4. **size** — plain values;
//! 5. **offset** — plain values;
//! 6. **op** — one value per event whose has-op flag is set.
//!
//! Chunks are self-contained (deltas restart at every chunk), so any chunk
//! decodes without touching its neighbors — the property the predicate-
//! pushdown query path, the parallel decoder, and the v2+ salvage scan all
//! rely on.
//!
//! The footer holds the interned label table, the boundary markers, and
//! one [`ChunkMeta`] per chunk recording its byte extent plus the
//! min/max timestamp, min/max block id, an event-kind bitmask, a paper-
//! category bitmask, the largest block size, (v2+) the payload CRC-32,
//! and (v3) the finer zone maps: min block size, min/max offset, and a
//! 64-bit op-label bitset — everything a predicate needs to skip the
//! chunk without decoding it, and everything the reader needs to verify
//! it without the chunk header.
//!
//! All checksums are CRC-32/IEEE (see [`crate::crc32`]). In a v2+ file
//! every byte between the 5-byte header and the trailer is covered by
//! exactly one CRC — either a chunk payload's (stored twice: chunk header
//! and index entry) or the footer's (stored in the trailer) — so any
//! single corrupted byte is detectable, and the salvage scan can rebuild
//! the index from the chunk headers alone when the footer itself is
//! damaged.

use crate::columns::ColumnBatch;
use crate::crc32::crc32;
use crate::error::StoreError;
use crate::varint::{read_u64, write_i64, write_u64};
use pinpoint_trace::{Category, EventKind, Marker, MemEvent, MemoryKind};

/// Leading file magic; also the format-sniffing prefix (`PTRC`).
pub const MAGIC: &[u8; 4] = b"PTRC";
/// Current format version, written right after [`MAGIC`].
pub const VERSION: u8 = 3;
/// The plain-encoding checksummed format version; still read transparently.
pub const VERSION_V2: u8 = 2;
/// The original checksum-less format version; still read transparently.
pub const VERSION_V1: u8 = 1;
/// Per-chunk record magic in v2 files (`PTCK`), the anchor the salvage
/// scan looks for when the footer is gone.
pub const CHUNK_MAGIC: &[u8; 4] = b"PTCK";
/// v2 chunk record header: [`CHUNK_MAGIC`] + payload_len:u32le + crc:u32le.
pub const CHUNK_HEADER_LEN: usize = 12;
/// File header length: [`MAGIC`] plus the version byte.
pub const HEADER_LEN: usize = 5;
/// v1 trailer length: an 8-byte little-endian footer offset plus [`MAGIC`].
pub const TRAILER_LEN: usize = 12;
/// v2 trailer length: footer offset, footer CRC-32, then [`MAGIC`].
pub const TRAILER_LEN_V2: usize = 16;
/// Default number of events per chunk.
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;

/// Trailer length for a given format version.
pub(crate) fn trailer_len(version: u8) -> usize {
    if version >= 2 {
        TRAILER_LEN_V2
    } else {
        TRAILER_LEN
    }
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

pub(crate) fn kind_code(k: EventKind) -> u8 {
    match k {
        EventKind::Malloc => 0,
        EventKind::Free => 1,
        EventKind::Read => 2,
        EventKind::Write => 3,
    }
}

pub(crate) fn kind_from_code(c: u8) -> Option<EventKind> {
    Some(match c {
        0 => EventKind::Malloc,
        1 => EventKind::Free,
        2 => EventKind::Read,
        3 => EventKind::Write,
        _ => return None,
    })
}

pub(crate) fn mem_kind_code(k: MemoryKind) -> u8 {
    match k {
        MemoryKind::Input => 0,
        MemoryKind::Weight => 1,
        MemoryKind::WeightGrad => 2,
        MemoryKind::OptimizerState => 3,
        MemoryKind::Activation => 4,
        MemoryKind::ActivationGrad => 5,
        MemoryKind::Workspace => 6,
        MemoryKind::Other => 7,
    }
}

pub(crate) fn mem_kind_from_code(c: u8) -> Option<MemoryKind> {
    Some(match c {
        0 => MemoryKind::Input,
        1 => MemoryKind::Weight,
        2 => MemoryKind::WeightGrad,
        3 => MemoryKind::OptimizerState,
        4 => MemoryKind::Activation,
        5 => MemoryKind::ActivationGrad,
        6 => MemoryKind::Workspace,
        7 => MemoryKind::Other,
        _ => return None,
    })
}

/// Bit of `c` in a [`ChunkMeta::category_mask`].
pub fn category_bit(c: Category) -> u8 {
    match c {
        Category::InputData => 1,
        Category::Parameters => 1 << 1,
        Category::Intermediates => 1 << 2,
    }
}

/// Bit of `k` in a [`ChunkMeta::kind_mask`].
pub fn kind_bit(k: EventKind) -> u8 {
    1 << kind_code(k)
}

/// Per-chunk index entry: byte extent plus the pruning statistics.
///
/// `offset`/`byte_len` always describe the *payload* (the columnar bytes),
/// not the v2 record header, so the read path is identical across format
/// versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// File offset of the chunk payload's first byte.
    pub offset: u64,
    /// Encoded payload length in bytes.
    pub byte_len: u64,
    /// Events in the chunk.
    pub count: u64,
    /// Smallest event timestamp.
    pub min_time_ns: u64,
    /// Largest event timestamp.
    pub max_time_ns: u64,
    /// Smallest block id.
    pub min_block: u64,
    /// Largest block id.
    pub max_block: u64,
    /// Bitmask of [`EventKind`]s present (see [`kind_bit`]).
    pub kind_mask: u8,
    /// Bitmask of paper [`Category`]s present (see [`category_bit`]).
    pub category_mask: u8,
    /// Largest block size in the chunk, in bytes.
    pub max_size: u64,
    /// CRC-32 of the payload bytes (0 in v1 stores, which predate it).
    pub crc32: u32,
    /// Smallest block size in the chunk, in bytes (0 in pre-v3 stores,
    /// which predate the finer zone maps — the sound "could be anything"
    /// default).
    pub min_size: u64,
    /// Smallest intra-block offset (0 in pre-v3 stores).
    pub min_offset: u64,
    /// Largest intra-block offset (`u64::MAX` in pre-v3 stores).
    pub max_offset: u64,
    /// Bitset of op labels present: bit `min(label, 63)` is set for every
    /// labeled event, so bit 63 is the catch-all for labels ≥ 63. Events
    /// without a label set no bit. `u64::MAX` in pre-v3 stores (every
    /// label possible).
    pub label_bits: u64,
}

/// Computes a chunk's index statistics from its events (`offset`,
/// `byte_len`, and `crc32` are left at 0 for the caller to fill in).
///
/// # Panics
///
/// Panics if `events` is empty — chunks are never empty.
pub(crate) fn meta_from_events(events: &[MemEvent]) -> ChunkMeta {
    assert!(!events.is_empty(), "chunks are never empty");
    let mut meta = ChunkMeta {
        offset: 0,
        byte_len: 0,
        count: events.len() as u64,
        min_time_ns: u64::MAX,
        max_time_ns: 0,
        min_block: u64::MAX,
        max_block: 0,
        kind_mask: 0,
        category_mask: 0,
        max_size: 0,
        crc32: 0,
        min_size: u64::MAX,
        min_offset: u64::MAX,
        max_offset: 0,
        label_bits: 0,
    };
    for e in events {
        meta.min_time_ns = meta.min_time_ns.min(e.time_ns);
        meta.max_time_ns = meta.max_time_ns.max(e.time_ns);
        meta.min_block = meta.min_block.min(e.block.0);
        meta.max_block = meta.max_block.max(e.block.0);
        meta.kind_mask |= kind_bit(e.kind);
        meta.category_mask |= category_bit(e.mem_kind.category());
        meta.max_size = meta.max_size.max(e.size as u64);
        meta.min_size = meta.min_size.min(e.size as u64);
        meta.min_offset = meta.min_offset.min(e.offset as u64);
        meta.max_offset = meta.max_offset.max(e.offset as u64);
        if let Some(op) = e.op_label {
            meta.label_bits |= 1u64 << u64::from(op).min(63);
        }
    }
    meta
}

/// Encodes one chunk of events into its columnar payload form, returning
/// the bytes and the chunk's index entry (with `offset` left at 0 for the
/// writer to fill in; `byte_len` and `crc32` describe the payload).
///
/// # Panics
///
/// Panics if `events` is empty — the writer never flushes empty chunks.
pub fn encode_chunk(events: &[MemEvent]) -> (Vec<u8>, ChunkMeta) {
    let mut meta = meta_from_events(events);
    let n = events.len();
    let mut time_col = Vec::with_capacity(n * 2);
    let mut meta_col = Vec::with_capacity(n);
    let mut block_col = Vec::with_capacity(n * 2);
    let mut size_col = Vec::with_capacity(n * 3);
    let mut offset_col = Vec::with_capacity(n * 3);
    let mut op_col = Vec::new();

    let mut prev_time = 0i64;
    let mut prev_block = 0i64;
    for e in events {
        write_i64(&mut time_col, e.time_ns as i64 - prev_time);
        prev_time = e.time_ns as i64;
        let byte = kind_code(e.kind)
            | (mem_kind_code(e.mem_kind) << 2)
            | (u8::from(e.op_label.is_some()) << 5);
        meta_col.push(byte);
        write_i64(&mut block_col, e.block.0 as i64 - prev_block);
        prev_block = e.block.0 as i64;
        write_u64(&mut size_col, e.size as u64);
        write_u64(&mut offset_col, e.offset as u64);
        if let Some(op) = e.op_label {
            write_u64(&mut op_col, u64::from(op));
        }
    }

    let mut out = Vec::with_capacity(
        time_col.len()
            + meta_col.len()
            + block_col.len()
            + size_col.len()
            + offset_col.len()
            + op_col.len()
            + 16,
    );
    write_u64(&mut out, n as u64);
    for col in [
        &time_col,
        &meta_col,
        &block_col,
        &size_col,
        &offset_col,
        &op_col,
    ] {
        write_u64(&mut out, col.len() as u64);
        out.extend_from_slice(col);
    }
    meta.byte_len = out.len() as u64;
    meta.crc32 = crc32(&out);
    (out, meta)
}

/// Builds the 12-byte v2 chunk record header for a payload.
pub(crate) fn chunk_record_header(payload_len: u32, crc: u32) -> [u8; CHUNK_HEADER_LEN] {
    let mut hdr = [0u8; CHUNK_HEADER_LEN];
    hdr[..4].copy_from_slice(CHUNK_MAGIC);
    hdr[4..8].copy_from_slice(&payload_len.to_le_bytes());
    hdr[8..12].copy_from_slice(&crc.to_le_bytes());
    hdr
}

/// Decodes one chunk's payload bytes of the given format version back
/// into events.
///
/// This is the compatibility path, allocating a fresh [`ColumnBatch`] and
/// materializing owned events; hot loops go through
/// [`crate::DecodeScratch`] instead and read the columns in place.
///
/// # Errors
///
/// A typed [`StoreError`] on truncation, bad encoding tags, column-length
/// mismatch, or trailing bytes. Never panics, whatever the input bytes.
pub fn decode_chunk(bytes: &[u8], version: u8) -> Result<Vec<MemEvent>, StoreError> {
    let mut batch = ColumnBatch::new();
    let consumed = crate::columns::decode_body(bytes, version, &mut batch)?;
    if consumed != bytes.len() {
        return Err(corrupt("trailing bytes after chunk payload"));
    }
    Ok(batch.to_events())
}

/// Decodes a chunk payload sitting at the start of `bytes`, tolerating
/// trailing data; returns the events and the payload's byte length. The
/// v1 salvage walk uses this to step chunk-by-chunk without an index.
pub(crate) fn decode_chunk_prefix(
    bytes: &[u8],
    version: u8,
) -> Result<(Vec<MemEvent>, usize), StoreError> {
    let mut batch = ColumnBatch::new();
    let consumed = crate::columns::decode_body(bytes, version, &mut batch)?;
    Ok((batch.to_events(), consumed))
}

/// Everything the footer holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Footer {
    /// Interned op-label table, in index order.
    pub labels: Vec<String>,
    /// Boundary markers, in record order.
    pub markers: Vec<Marker>,
    /// One entry per chunk, in file order.
    pub chunks: Vec<ChunkMeta>,
    /// Total events across all chunks.
    pub total_events: u64,
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(bytes: &[u8], pos: &mut usize) -> Result<String, StoreError> {
    let len = read_u64(bytes, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| corrupt("string extends past footer end"))?;
    let s = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|e| corrupt(format!("label is not UTF-8: {e}")))?
        .to_string();
    *pos = end;
    Ok(s)
}

/// Encodes the footer for the given format version (v2+ stores a CRC-32
/// per chunk index entry and v3 adds the finer zone-map fields; v1 omits
/// both).
pub fn encode_footer(footer: &Footer, version: u8) -> Vec<u8> {
    let mut out = Vec::new();
    write_u64(&mut out, footer.labels.len() as u64);
    for l in &footer.labels {
        write_str(&mut out, l);
    }
    write_u64(&mut out, footer.markers.len() as u64);
    for m in &footer.markers {
        write_u64(&mut out, m.time_ns);
        write_u64(&mut out, m.event_index as u64);
        write_str(&mut out, &m.label);
    }
    write_u64(&mut out, footer.chunks.len() as u64);
    for c in &footer.chunks {
        write_u64(&mut out, c.offset);
        write_u64(&mut out, c.byte_len);
        write_u64(&mut out, c.count);
        write_u64(&mut out, c.min_time_ns);
        write_u64(&mut out, c.max_time_ns);
        write_u64(&mut out, c.min_block);
        write_u64(&mut out, c.max_block);
        out.push(c.kind_mask);
        out.push(c.category_mask);
        write_u64(&mut out, c.max_size);
        if version >= 3 {
            write_u64(&mut out, c.min_size);
            write_u64(&mut out, c.min_offset);
            write_u64(&mut out, c.max_offset);
            out.extend_from_slice(&c.label_bits.to_le_bytes());
        }
        if version >= 2 {
            out.extend_from_slice(&c.crc32.to_le_bytes());
        }
    }
    write_u64(&mut out, footer.total_events);
    out
}

/// Decodes a footer previously written by [`encode_footer`] with the same
/// format version.
///
/// # Errors
///
/// A typed [`StoreError`] on truncation or malformed strings. Never
/// panics, whatever the input bytes.
pub fn decode_footer(bytes: &[u8], version: u8) -> Result<Footer, StoreError> {
    let mut pos = 0usize;
    let n_labels = read_u64(bytes, &mut pos)? as usize;
    let mut labels = Vec::with_capacity(n_labels.min(1 << 20));
    for _ in 0..n_labels {
        labels.push(read_str(bytes, &mut pos)?);
    }
    let n_markers = read_u64(bytes, &mut pos)? as usize;
    let mut markers = Vec::with_capacity(n_markers.min(1 << 20));
    for _ in 0..n_markers {
        let time_ns = read_u64(bytes, &mut pos)?;
        let event_index = read_u64(bytes, &mut pos)? as usize;
        let label = read_str(bytes, &mut pos)?;
        markers.push(Marker {
            time_ns,
            event_index,
            label,
        });
    }
    let n_chunks = read_u64(bytes, &mut pos)? as usize;
    let mut chunks = Vec::with_capacity(n_chunks.min(1 << 20));
    for _ in 0..n_chunks {
        let offset = read_u64(bytes, &mut pos)?;
        let byte_len = read_u64(bytes, &mut pos)?;
        let count = read_u64(bytes, &mut pos)?;
        let min_time_ns = read_u64(bytes, &mut pos)?;
        let max_time_ns = read_u64(bytes, &mut pos)?;
        let min_block = read_u64(bytes, &mut pos)?;
        let max_block = read_u64(bytes, &mut pos)?;
        let kind_mask = *bytes.get(pos).ok_or(StoreError::Truncated("chunk index"))?;
        let category_mask = *bytes
            .get(pos + 1)
            .ok_or(StoreError::Truncated("chunk index"))?;
        pos += 2;
        let max_size = read_u64(bytes, &mut pos)?;
        // pre-v3 entries carry no fine zone maps; the defaults below are
        // the sound "could be anything" hull, so pushdown stays exact
        let (min_size, min_offset, max_offset, label_bits) = if version >= 3 {
            let min_size = read_u64(bytes, &mut pos)?;
            let min_offset = read_u64(bytes, &mut pos)?;
            let max_offset = read_u64(bytes, &mut pos)?;
            let end = pos
                .checked_add(8)
                .filter(|&e| e <= bytes.len())
                .ok_or(StoreError::Truncated("chunk index"))?;
            let mut le = [0u8; 8];
            le.copy_from_slice(&bytes[pos..end]);
            pos = end;
            (min_size, min_offset, max_offset, u64::from_le_bytes(le))
        } else {
            (0, 0, u64::MAX, u64::MAX)
        };
        let crc = if version >= 2 {
            let end = pos
                .checked_add(4)
                .filter(|&e| e <= bytes.len())
                .ok_or(StoreError::Truncated("chunk index"))?;
            let mut le = [0u8; 4];
            le.copy_from_slice(&bytes[pos..end]);
            pos = end;
            u32::from_le_bytes(le)
        } else {
            0
        };
        chunks.push(ChunkMeta {
            offset,
            byte_len,
            count,
            min_time_ns,
            max_time_ns,
            min_block,
            max_block,
            kind_mask,
            category_mask,
            max_size,
            crc32: crc,
            min_size,
            min_offset,
            max_offset,
            label_bits,
        });
    }
    let total_events = read_u64(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after footer"));
    }
    Ok(Footer {
        labels,
        markers,
        chunks,
        total_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_trace::BlockId;

    fn events() -> Vec<MemEvent> {
        vec![
            MemEvent {
                time_ns: 100,
                kind: EventKind::Malloc,
                block: BlockId(7),
                size: 4096,
                offset: 0,
                mem_kind: MemoryKind::Weight,
                op_label: Some(3),
            },
            MemEvent {
                time_ns: 100,
                kind: EventKind::Write,
                block: BlockId(7),
                size: 4096,
                offset: 0,
                mem_kind: MemoryKind::Weight,
                op_label: None,
            },
            MemEvent {
                time_ns: 250,
                kind: EventKind::Read,
                block: BlockId(2),
                size: 64,
                offset: 8192,
                mem_kind: MemoryKind::Activation,
                op_label: Some(0),
            },
        ]
    }

    #[test]
    fn chunk_round_trips_and_meta_summarizes() {
        let evs = events();
        let (bytes, meta) = encode_chunk(&evs);
        assert_eq!(meta.count, 3);
        assert_eq!(meta.min_time_ns, 100);
        assert_eq!(meta.max_time_ns, 250);
        assert_eq!(meta.min_block, 2);
        assert_eq!(meta.max_block, 7);
        assert_eq!(meta.max_size, 4096);
        assert_eq!(
            meta.kind_mask,
            kind_bit(EventKind::Malloc) | kind_bit(EventKind::Write) | kind_bit(EventKind::Read)
        );
        assert_eq!(
            meta.category_mask,
            category_bit(Category::Parameters) | category_bit(Category::Intermediates)
        );
        assert_eq!(meta.crc32, crc32(&bytes));
        assert_eq!(meta.min_size, 64);
        assert_eq!(meta.min_offset, 0);
        assert_eq!(meta.max_offset, 8192);
        assert_eq!(meta.label_bits, (1 << 3) | 1);
        assert_eq!(decode_chunk(&bytes, VERSION_V2).unwrap(), evs);
    }

    #[test]
    fn chunk_decode_rejects_truncation() {
        let (bytes, _) = encode_chunk(&events());
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_chunk(&bytes[..cut], VERSION_V2).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn chunk_decode_rejects_trailing_bytes_but_prefix_tolerates_them() {
        let (mut bytes, _) = encode_chunk(&events());
        let payload_len = bytes.len();
        bytes.extend_from_slice(&[0xAB, 0xCD]);
        assert!(decode_chunk(&bytes, VERSION_V2).is_err());
        let (evs, consumed) = decode_chunk_prefix(&bytes, VERSION_V2).unwrap();
        assert_eq!(evs, events());
        assert_eq!(consumed, payload_len);
    }

    #[test]
    fn meta_from_events_matches_encode_chunk() {
        let evs = events();
        let (_, full) = encode_chunk(&evs);
        let stats = meta_from_events(&evs);
        assert_eq!(stats.count, full.count);
        assert_eq!(stats.min_time_ns, full.min_time_ns);
        assert_eq!(stats.max_time_ns, full.max_time_ns);
        assert_eq!(stats.min_block, full.min_block);
        assert_eq!(stats.max_block, full.max_block);
        assert_eq!(stats.kind_mask, full.kind_mask);
        assert_eq!(stats.category_mask, full.category_mask);
        assert_eq!(stats.max_size, full.max_size);
    }

    #[test]
    fn footer_round_trips_in_all_versions() {
        let f = Footer {
            labels: vec!["matmul".into(), "re\"lu\n".into()],
            markers: vec![Marker {
                time_ns: 9,
                event_index: 2,
                label: "iter:0".into(),
            }],
            chunks: vec![ChunkMeta {
                offset: 5,
                byte_len: 100,
                count: 3,
                min_time_ns: 100,
                max_time_ns: 250,
                min_block: 2,
                max_block: 7,
                kind_mask: 0b1011,
                category_mask: 0b110,
                max_size: 4096,
                crc32: 0xDEAD_BEEF,
                min_size: 64,
                min_offset: 8,
                max_offset: 8192,
                label_bits: 0b1001,
            }],
            total_events: 3,
        };
        let v3 = encode_footer(&f, VERSION);
        assert_eq!(decode_footer(&v3, VERSION).unwrap(), f);
        assert!(decode_footer(&v3[..v3.len() - 1], VERSION).is_err());

        // pre-v3 footers drop the fine zone maps; decoding restores the
        // sound "could be anything" defaults instead
        let mut f2 = f.clone();
        f2.chunks[0].min_size = 0;
        f2.chunks[0].min_offset = 0;
        f2.chunks[0].max_offset = u64::MAX;
        f2.chunks[0].label_bits = u64::MAX;
        let v2 = encode_footer(&f, VERSION_V2);
        assert_eq!(decode_footer(&v2, VERSION_V2).unwrap(), f2);
        assert!(v2.len() < v3.len());

        let mut f1 = f2.clone();
        f1.chunks[0].crc32 = 0; // v1 cannot carry a checksum
        let v1 = encode_footer(&f1, VERSION_V1);
        assert_eq!(decode_footer(&v1, VERSION_V1).unwrap(), f1);
        assert!(v1.len() < v2.len());
    }

    #[test]
    fn chunk_record_header_layout() {
        let hdr = chunk_record_header(0x0102_0304, 0xA1B2_C3D4);
        assert_eq!(&hdr[..4], CHUNK_MAGIC);
        assert_eq!(
            u32::from_le_bytes(hdr[4..8].try_into().unwrap()),
            0x0102_0304
        );
        assert_eq!(
            u32::from_le_bytes(hdr[8..12].try_into().unwrap()),
            0xA1B2_C3D4
        );
    }

    #[test]
    fn all_codes_round_trip() {
        for k in [
            EventKind::Malloc,
            EventKind::Free,
            EventKind::Read,
            EventKind::Write,
        ] {
            assert_eq!(kind_from_code(kind_code(k)), Some(k));
        }
        for m in [
            MemoryKind::Input,
            MemoryKind::Weight,
            MemoryKind::WeightGrad,
            MemoryKind::OptimizerState,
            MemoryKind::Activation,
            MemoryKind::ActivationGrad,
            MemoryKind::Workspace,
            MemoryKind::Other,
        ] {
            assert_eq!(mem_kind_from_code(mem_kind_code(m)), Some(m));
        }
    }
}
