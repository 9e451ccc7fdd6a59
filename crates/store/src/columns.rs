//! Batched SoA chunk decoding and the v3 per-chunk adaptive encodings.
//!
//! The original decode path rebuilt one [`MemEvent`] at a time, paying a
//! varint read, a delta add, and a branchy struct push per event per
//! column. This module replaces it with whole-column decoders that fill a
//! reused [`ColumnBatch`] — six flat buffers, one pass per column — so the
//! hot loops are tight, branch-predictable, and allocation-free once the
//! buffers are warm (see [`DecodeScratch`]).
//!
//! Format v3 additionally lets every column pick its own encoding per
//! chunk, chosen at write time by exact cost (encoded size) comparison:
//!
//! | tag | encoding | legal on |
//! |-----|----------|----------|
//! | 0   | the v2-native stream (varints; raw bytes for the meta column) | any column |
//! | 1   | run-length: `run:varint value:varint` pairs | any column |
//! | 2   | bit-packing: `width:u8` then `ceil(n*width/8)` bytes, LSB-first | any column |
//! | 3   | delta-of-delta: zigzag varints of second differences | time only |
//!
//! Ties break toward the lowest tag, so encoding choice is deterministic
//! and the byte stream reproducible. Decoders validate every tag, clamp
//! every pre-allocation to the payload size, and use checked arithmetic on
//! the delta chains — no byte sequence panics or over-allocates.

use crate::crc32::crc32;
use crate::error::StoreError;
use crate::format::{kind_code, kind_from_code, mem_kind_code, mem_kind_from_code, ChunkMeta};
use crate::varint::{read_u64, unzigzag, varint_len, write_u64, zigzag};
use pinpoint_trace::{BlockId, MemEvent};

/// v3 column encoding tag: the column's v2-native stream (plain varints,
/// or one raw byte per event for the meta column).
pub const TAG_PLAIN: u8 = 0;
/// v3 column encoding tag: run-length `run:varint value:varint` pairs.
pub const TAG_RLE: u8 = 1;
/// v3 column encoding tag: fixed-width bit-packing (`width:u8` prefix,
/// then values packed LSB-first).
pub const TAG_PACK: u8 = 2;
/// v3 column encoding tag: delta-of-delta timestamps (zigzag varints of
/// second differences). Legal only on the time column.
pub const TAG_DOD: u8 = 3;

/// Hard ceiling on events per chunk, enforced by the v3 decoder before
/// any column is expanded. RLE and bit-packed columns can legitimately
/// encode far more values than their byte length, so the claimed event
/// count — read from untrusted bytes — needs an absolute bound to keep a
/// hostile count from driving an OOM-sized decode. Writers clamp their
/// chunk granularity to this.
pub const MAX_CHUNK_EVENTS: usize = 1 << 24;

/// The meta-byte flag marking an event that carries an op label.
const HAS_OP_BIT: u8 = 1 << 5;

/// An event's packed meta byte: kind code in bits 0–1, memory-kind code
/// in bits 2–4, the has-op flag in bit 5.
pub(crate) fn meta_byte(e: &MemEvent) -> u8 {
    kind_code(e.kind) | (mem_kind_code(e.mem_kind) << 2) | (u8::from(e.op_label.is_some()) << 5)
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// One decoded chunk in structure-of-arrays form: six flat columns plus
/// the event count.
///
/// All per-event columns (`time`, `meta`, `block`, `size`, `offset`,
/// `op`) hold exactly [`ColumnBatch::len`] entries after a successful
/// decode; `op` is densified — one entry per event, meaningful only where
/// the meta byte's has-op flag is set. Consumers that want full events
/// call [`ColumnBatch::event`] (a stack-only materialization); hot folds
/// read the column slices directly and skip `MemEvent` entirely.
#[derive(Debug, Default, Clone)]
pub struct ColumnBatch {
    len: usize,
    time: Vec<u64>,
    meta: Vec<u8>,
    block: Vec<u64>,
    size: Vec<u64>,
    offset: Vec<u64>,
    op: Vec<u32>,
    /// Staging buffer for logical column values (RLE/PACK expansion, op
    /// labels before densification). Scratch only — not chunk content.
    vals: Vec<u64>,
}

impl ColumnBatch {
    /// An empty batch with no buffers allocated yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absolute event timestamps, in nanoseconds.
    pub fn time(&self) -> &[u64] {
        &self.time
    }

    /// Packed meta bytes: event kind in bits 0–1, memory kind in bits
    /// 2–4, has-op flag in bit 5.
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// Block ids.
    pub fn block(&self) -> &[u64] {
        &self.block
    }

    /// Block sizes in bytes.
    pub fn size(&self) -> &[u64] {
        &self.size
    }

    /// Intra-block byte offsets.
    pub fn offset(&self) -> &[u64] {
        &self.offset
    }

    /// Densified op labels: one entry per event, valid only where the
    /// meta byte's has-op flag is set (0 elsewhere).
    pub fn op(&self) -> &[u32] {
        &self.op
    }

    /// Materializes event `i` on the stack. The 2-bit kind and 3-bit
    /// memory-kind code spaces are total, so this cannot fail on any
    /// decoded batch.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn event(&self, i: usize) -> MemEvent {
        let m = self.meta[i];
        MemEvent {
            time_ns: self.time[i],
            kind: kind_from_code(m & 0b11).expect("2-bit kind codes are total"),
            block: BlockId(self.block[i]),
            size: self.size[i] as usize,
            offset: self.offset[i] as usize,
            mem_kind: mem_kind_from_code((m >> 2) & 0b111)
                .expect("3-bit memory-kind codes are total"),
            op_label: (m & HAS_OP_BIT != 0).then(|| self.op[i]),
        }
    }

    /// Materializes the whole batch as owned events (the compatibility
    /// path for callers that still want `Vec<MemEvent>`).
    pub(crate) fn to_events(&self) -> Vec<MemEvent> {
        (0..self.len).map(|i| self.event(i)).collect()
    }

    /// Heap bytes held by this batch's buffers (capacities, not lengths) —
    /// the charge a cached batch makes against a cache's byte budget.
    pub fn heap_bytes(&self) -> usize {
        self.time.capacity() * 8
            + self.meta.capacity()
            + self.block.capacity() * 8
            + self.size.capacity() * 8
            + self.offset.capacity() * 8
            + self.op.capacity() * 4
            + self.vals.capacity() * 8
    }

    /// Total buffer capacity in elements, across every column — the
    /// realloc-tracking probe used by [`DecodeScratch`].
    fn element_capacity(&self) -> usize {
        self.time.capacity()
            + self.meta.capacity()
            + self.block.capacity()
            + self.size.capacity()
            + self.offset.capacity()
            + self.op.capacity()
            + self.vals.capacity()
    }
}

/// Reusable decode buffers: a [`ColumnBatch`] plus the raw-payload
/// buffer, with buffer growth instrumented.
///
/// A [`crate::StoreReader`] owns a pool of these and threads them through
/// every scan, so steady-state queries and fused-analysis runs perform
/// zero heap allocations per chunk: after the first pass has grown each
/// buffer to the largest chunk's size, [`DecodeScratch::realloc_count`]
/// stays constant — the property the zero-alloc acceptance test asserts
/// via [`crate::StoreReader::decode_reallocs`].
#[derive(Debug, Default)]
pub struct DecodeScratch {
    batch: ColumnBatch,
    raw: Vec<u8>,
    reallocs: u64,
}

impl DecodeScratch {
    /// Fresh scratch with no buffers allocated yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently decoded batch.
    pub fn batch(&self) -> &ColumnBatch {
        &self.batch
    }

    /// How many times any internal buffer had to grow. Warm scans leave
    /// this unchanged.
    pub fn realloc_count(&self) -> u64 {
        self.reallocs
    }

    /// Consumes the scratch, keeping only the decoded batch — the handoff
    /// from a one-shot decode into a cache that wants an owned
    /// [`ColumnBatch`] without the raw-payload buffer attached.
    pub fn into_batch(self) -> ColumnBatch {
        self.batch
    }

    /// Sizes the raw-payload buffer to `len` bytes and returns it for the
    /// caller to fill (counting a capacity growth if one occurs).
    pub(crate) fn raw_for(&mut self, len: usize) -> &mut Vec<u8> {
        if len > self.raw.capacity() {
            self.reallocs += 1;
        }
        self.raw.resize(len, 0);
        &mut self.raw
    }

    /// Decodes the raw buffer as a chunk payload of the given format
    /// version into the internal batch, verifying the CRC (when
    /// `verify_crc`) and the event count against the index entry.
    ///
    /// # Errors
    ///
    /// [`StoreError::ChecksumMismatch`] / [`StoreError::CountMismatch`]
    /// on index disagreement, or any typed decode error. Never panics.
    pub(crate) fn decode_verified(
        &mut self,
        meta: &ChunkMeta,
        chunk: usize,
        version: u8,
        verify_crc: bool,
    ) -> Result<(), StoreError> {
        if verify_crc {
            let _crc_span = pinpoint_obs::tracer().span_with("store.crc", chunk as u64);
            let got = crc32(&self.raw);
            if got != meta.crc32 {
                return Err(StoreError::ChecksumMismatch {
                    chunk,
                    expected: meta.crc32,
                    got,
                });
            }
        }
        let _decode_span = pinpoint_obs::tracer().span_with("store.decode", chunk as u64);
        let before = self.batch.element_capacity();
        let res = decode_body(&self.raw, version, &mut self.batch);
        if self.batch.element_capacity() > before {
            self.reallocs += 1;
        }
        let consumed = res?;
        if consumed != self.raw.len() {
            return Err(corrupt("trailing bytes after chunk payload"));
        }
        if self.batch.len() as u64 != meta.count {
            return Err(StoreError::CountMismatch {
                chunk,
                indexed: meta.count,
                decoded: self.batch.len() as u64,
            });
        }
        Ok(())
    }

    /// Fills the internal batch straight from in-memory events, with the
    /// columns a decode of their encoded chunk would produce: no encode,
    /// checksum or decode in between. Counts buffer growth like a decode.
    pub(crate) fn fill(&mut self, events: &[MemEvent]) -> &ColumnBatch {
        let before = self.batch.element_capacity();
        let b = &mut self.batch;
        // one column at a time, as a decode fills them; extending from a
        // slice iterator reserves the column's full length first
        refill(&mut b.time, events.iter().map(|e| e.time_ns));
        refill(&mut b.meta, events.iter().map(meta_byte));
        refill(&mut b.block, events.iter().map(|e| e.block.0));
        refill(&mut b.size, events.iter().map(|e| e.size as u64));
        refill(&mut b.offset, events.iter().map(|e| e.offset as u64));
        refill(&mut b.op, events.iter().map(|e| e.op_label.unwrap_or(0)));
        b.len = events.len();
        if self.batch.element_capacity() > before {
            self.reallocs += 1;
        }
        &self.batch
    }
}

/// Replaces a column's contents with `vals`.
fn refill<T>(col: &mut Vec<T>, vals: impl Iterator<Item = T>) {
    col.clear();
    col.extend(vals);
}

/// Reserves room for `want` elements, clamped to the payload byte length:
/// `want` comes from untrusted bytes, and a corrupt huge count must not
/// trigger an OOM-sized allocation before validation catches it. Legit
/// RLE/packed columns can exceed the clamp; they grow organically as
/// validated values arrive.
fn reserve_clamped<T>(v: &mut Vec<T>, want: usize, payload_len: usize) {
    v.clear();
    v.reserve(want.min(payload_len));
}

/// Decodes one column's logical `u64` value stream (`expected` values)
/// from its byte extent, per its encoding tag. `TAG_DOD` bytes are plain
/// varints at this layer — the caller integrates the second differences.
fn decode_u64_values(
    bytes: &[u8],
    (start, len): (usize, usize),
    tag: u8,
    expected: usize,
    out: &mut Vec<u64>,
) -> Result<(), StoreError> {
    reserve_clamped(out, expected, bytes.len());
    let col = &bytes[start..start + len];
    let mut pos = 0usize;
    match tag {
        TAG_PLAIN | TAG_DOD => {
            for _ in 0..expected {
                out.push(read_u64(col, &mut pos)?);
            }
        }
        TAG_RLE => {
            while out.len() < expected {
                let run = read_u64(col, &mut pos)? as usize;
                let v = read_u64(col, &mut pos)?;
                if run == 0 || run > expected - out.len() {
                    return Err(corrupt("run-length column overruns its event count"));
                }
                out.resize(out.len() + run, v);
            }
        }
        TAG_PACK => {
            let Some(&width) = col.first() else {
                return Err(corrupt("bit-packed column is missing its width byte"));
            };
            let width = width as usize;
            if width > 64 {
                return Err(corrupt("bit-packed column width exceeds 64"));
            }
            let data = &col[1..];
            let needed = expected
                .checked_mul(width)
                .map(|b| b.div_ceil(8))
                .ok_or_else(|| corrupt("bit-packed column size overflows"))?;
            if data.len() != needed {
                return Err(corrupt("column length does not match its contents"));
            }
            let mask: u64 = if width == 0 {
                0
            } else {
                u64::MAX >> (64 - width)
            };
            for i in 0..expected {
                let bit = i * width;
                let byte0 = bit / 8;
                let shift = bit % 8;
                // a value spans at most 9 bytes (64 bits + 7-bit shift),
                // so a 16-byte aligned-free load covers it whole; only
                // the last few values fall back to the byte loop
                let acc: u128 = if let Some(win) = data.get(byte0..byte0 + 16) {
                    u128::from_le_bytes(win.try_into().expect("16-byte window"))
                } else {
                    let mut acc: u128 = 0;
                    for (k, &b) in data[byte0..].iter().enumerate() {
                        acc |= u128::from(b) << (8 * k);
                    }
                    acc
                };
                out.push((acc >> shift) as u64 & mask);
            }
            pos = col.len();
        }
        other => return Err(corrupt(format!("unknown column encoding tag {other}"))),
    }
    if pos != col.len() {
        return Err(corrupt("column length does not match its contents"));
    }
    Ok(())
}

/// Integrates a zigzag-delta stream in place into absolute non-negative
/// values, with checked arithmetic (`what` names the column in errors).
fn integrate_deltas(vals: &mut [u64], what: &str) -> Result<(), StoreError> {
    let mut prev: i64 = 0;
    for v in vals.iter_mut() {
        prev = prev
            .checked_add(unzigzag(*v))
            .ok_or_else(|| corrupt(format!("{what} overflows after delta decode")))?;
        if prev < 0 {
            return Err(corrupt(format!("negative {what} after delta decode")));
        }
        *v = prev as u64;
    }
    Ok(())
}

/// Decodes a chunk payload (any format version) into `batch`, returning
/// the number of payload bytes consumed. Tolerates trailing data — the
/// callers that require exact consumption check the returned length.
///
/// # Errors
///
/// A typed [`StoreError`] on truncation, bad tags, column-length
/// mismatch, or overflowing delta chains. Never panics, whatever the
/// input bytes.
pub(crate) fn decode_body(
    bytes: &[u8],
    version: u8,
    batch: &mut ColumnBatch,
) -> Result<usize, StoreError> {
    batch.len = 0;
    let mut pos = 0usize;
    let n = read_u64(bytes, &mut pos)? as usize;
    let mut tags = [TAG_PLAIN; 6];
    if version >= 3 {
        if n > MAX_CHUNK_EVENTS {
            return Err(corrupt(format!(
                "chunk claims {n} events (cap {MAX_CHUNK_EVENTS})"
            )));
        }
        for t in tags.iter_mut() {
            *t = *bytes
                .get(pos)
                .ok_or(StoreError::Truncated("chunk encoding tags"))?;
            pos += 1;
        }
        for (c, &t) in tags.iter().enumerate() {
            if t > TAG_DOD || (t == TAG_DOD && c != 0) {
                return Err(corrupt(format!("column {c} has invalid encoding tag {t}")));
            }
        }
    }
    let mut cols = [(0usize, 0usize); 6]; // (start, len) per column
    for c in cols.iter_mut() {
        let len = read_u64(bytes, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| corrupt("column extends past chunk end"))?;
        *c = (pos, len);
        pos = end;
    }

    // time (column 0): zigzag deltas, possibly second-differenced
    decode_u64_values(bytes, cols[0], tags[0], n, &mut batch.time)?;
    if tags[0] == TAG_DOD {
        let mut d: i64 = 0;
        for v in batch.time.iter_mut() {
            d = d
                .checked_add(unzigzag(*v))
                .ok_or_else(|| corrupt("timestamp delta overflows after decode"))?;
            *v = zigzag(d);
        }
    }
    integrate_deltas(&mut batch.time, "timestamp")?;

    // meta (column 1): one byte per event
    let (meta_start, meta_len) = cols[1];
    if tags[1] == TAG_PLAIN {
        if meta_len != n {
            return Err(corrupt(format!(
                "meta column holds {meta_len} of {n} events"
            )));
        }
        reserve_clamped(&mut batch.meta, n, bytes.len());
        batch
            .meta
            .extend_from_slice(&bytes[meta_start..meta_start + meta_len]);
    } else {
        decode_u64_values(bytes, cols[1], tags[1], n, &mut batch.vals)?;
        reserve_clamped(&mut batch.meta, n, bytes.len());
        for &v in &batch.vals {
            if v > u64::from(u8::MAX) {
                return Err(corrupt("meta column value exceeds one byte"));
            }
            batch.meta.push(v as u8);
        }
    }

    // block (column 2): zigzag deltas
    decode_u64_values(bytes, cols[2], tags[2], n, &mut batch.block)?;
    integrate_deltas(&mut batch.block, "block id")?;

    // size / offset (columns 3, 4): raw values
    decode_u64_values(bytes, cols[3], tags[3], n, &mut batch.size)?;
    decode_u64_values(bytes, cols[4], tags[4], n, &mut batch.offset)?;

    // op (column 5): one value per has-op event, densified to per-event
    let n_op = batch.meta.iter().filter(|&&m| m & HAS_OP_BIT != 0).count();
    decode_u64_values(bytes, cols[5], tags[5], n_op, &mut batch.vals)?;
    reserve_clamped(&mut batch.op, n, bytes.len());
    let mut k = 0usize;
    for &m in &batch.meta {
        if m & HAS_OP_BIT != 0 {
            batch.op.push(batch.vals[k] as u32);
            k += 1;
        } else {
            batch.op.push(0);
        }
    }

    batch.len = n;
    Ok(pos)
}

/// Reads the six per-column encoding tags off a v3 chunk payload without
/// decoding it — the hook the encoding-choice property tests use to
/// assert which encoding the cost rule picked.
///
/// # Errors
///
/// [`StoreError::BadVarint`] / [`StoreError::Truncated`] if the payload
/// is too short to hold its count and tag bytes.
pub fn chunk_encoding_tags(payload: &[u8]) -> Result<[u8; 6], StoreError> {
    let mut pos = 0usize;
    let _n = read_u64(payload, &mut pos)?;
    let mut tags = [0u8; 6];
    for t in tags.iter_mut() {
        *t = *payload
            .get(pos)
            .ok_or(StoreError::Truncated("chunk encoding tags"))?;
        pos += 1;
    }
    Ok(tags)
}

// ---------------------------------------------------------------------
// v3 encoding: per-column cost rule
// ---------------------------------------------------------------------

fn plain_size(values: &[u64]) -> usize {
    values.iter().map(|&v| varint_len(v)).sum()
}

fn rle_size(values: &[u64]) -> usize {
    let mut size = 0usize;
    let mut i = 0usize;
    while i < values.len() {
        let v = values[i];
        let mut run = 1usize;
        while i + run < values.len() && values[i + run] == v {
            run += 1;
        }
        size += varint_len(run as u64) + varint_len(v);
        i += run;
    }
    size
}

fn write_rle(out: &mut Vec<u8>, values: &[u64]) {
    let mut i = 0usize;
    while i < values.len() {
        let v = values[i];
        let mut run = 1usize;
        while i + run < values.len() && values[i + run] == v {
            run += 1;
        }
        write_u64(out, run as u64);
        write_u64(out, v);
        i += run;
    }
}

fn pack_width(values: &[u64]) -> usize {
    values
        .iter()
        .map(|v| 64 - v.leading_zeros() as usize)
        .max()
        .unwrap_or(0)
}

fn pack_size(values: &[u64]) -> usize {
    1 + (values.len() * pack_width(values)).div_ceil(8)
}

fn write_pack(out: &mut Vec<u8>, values: &[u64]) {
    let width = pack_width(values);
    out.push(width as u8);
    if width == 0 {
        return;
    }
    let base = out.len();
    out.resize(base + (values.len() * width).div_ceil(8), 0);
    for (i, &v) in values.iter().enumerate() {
        let bit = i * width;
        let byte0 = base + bit / 8;
        let shift = bit % 8;
        let acc = u128::from(v) << shift;
        for k in 0..(shift + width).div_ceil(8) {
            out[byte0 + k] |= ((acc >> (8 * k)) & 0xff) as u8;
        }
    }
}

/// Encodes one logical value stream with the cheapest encoding (exact
/// encoded-size comparison; ties break toward the lowest tag, keeping the
/// choice — and thus the byte stream — deterministic).
///
/// `plain_is_bytes` marks the meta column, whose native form is one raw
/// byte per value rather than varints. `dod` supplies the zigzagged
/// second-difference stream for the time column when every second
/// difference is representable (the delta-of-delta candidate is skipped
/// otherwise).
fn encode_values_best(values: &[u64], plain_is_bytes: bool, dod: Option<&[u64]>) -> (u8, Vec<u8>) {
    let mut best_tag = TAG_PLAIN;
    let mut best_size = if plain_is_bytes {
        values.len()
    } else {
        plain_size(values)
    };
    if rle_size(values) < best_size {
        best_tag = TAG_RLE;
        best_size = rle_size(values);
    }
    if pack_size(values) < best_size {
        best_tag = TAG_PACK;
        best_size = pack_size(values);
    }
    if let Some(d) = dod {
        if plain_size(d) < best_size {
            best_tag = TAG_DOD;
            best_size = plain_size(d);
        }
    }
    let mut out = Vec::with_capacity(best_size);
    match best_tag {
        TAG_PLAIN if plain_is_bytes => out.extend(values.iter().map(|&v| v as u8)),
        TAG_PLAIN => {
            for &v in values {
                write_u64(&mut out, v);
            }
        }
        TAG_RLE => write_rle(&mut out, values),
        TAG_PACK => write_pack(&mut out, values),
        _ => {
            for &v in dod.expect("DOD chosen only when the stream exists") {
                write_u64(&mut out, v);
            }
        }
    }
    (best_tag, out)
}

/// Encodes one chunk of events as a v3 payload: count, six encoding-tag
/// bytes, then the six columns (each `byte_len:varint bytes`), every
/// column carrying whichever encoding costs fewest bytes for this chunk.
/// Returns the bytes and the chunk's index entry with the v3 zone-map
/// fields populated (`offset` left at 0 for the writer to fill in).
///
/// # Panics
///
/// Panics if `events` is empty — the writer never flushes empty chunks.
pub fn encode_chunk_v3(events: &[MemEvent]) -> (Vec<u8>, ChunkMeta) {
    let mut meta = crate::format::meta_from_events(events);
    let n = events.len();
    let mut time_vals = Vec::with_capacity(n);
    let mut deltas = Vec::with_capacity(n);
    let mut meta_vals = Vec::with_capacity(n);
    let mut block_vals = Vec::with_capacity(n);
    let mut size_vals = Vec::with_capacity(n);
    let mut offset_vals = Vec::with_capacity(n);
    let mut op_vals = Vec::new();
    let mut prev_time = 0i64;
    let mut prev_block = 0i64;
    for e in events {
        let d = e.time_ns as i64 - prev_time;
        prev_time = e.time_ns as i64;
        deltas.push(d);
        time_vals.push(zigzag(d));
        meta_vals.push(u64::from(meta_byte(e)));
        block_vals.push(zigzag(e.block.0 as i64 - prev_block));
        prev_block = e.block.0 as i64;
        size_vals.push(e.size as u64);
        offset_vals.push(e.offset as u64);
        if let Some(op) = e.op_label {
            op_vals.push(u64::from(op));
        }
    }
    // second differences, eligible only when every one is representable
    let mut dod = Vec::with_capacity(n);
    let mut prev_d = 0i64;
    let mut dod_ok = true;
    for &d in &deltas {
        match d.checked_sub(prev_d) {
            Some(x) => dod.push(zigzag(x)),
            None => {
                dod_ok = false;
                break;
            }
        }
        prev_d = d;
    }
    let cols = [
        encode_values_best(&time_vals, false, dod_ok.then_some(dod.as_slice())),
        encode_values_best(&meta_vals, true, None),
        encode_values_best(&block_vals, false, None),
        encode_values_best(&size_vals, false, None),
        encode_values_best(&offset_vals, false, None),
        encode_values_best(&op_vals, false, None),
    ];
    let body: usize = cols.iter().map(|(_, b)| b.len() + 5).sum();
    let mut out = Vec::with_capacity(body + 16);
    write_u64(&mut out, n as u64);
    for (tag, _) in &cols {
        out.push(*tag);
    }
    for (_, bytes) in &cols {
        write_u64(&mut out, bytes.len() as u64);
        out.extend_from_slice(bytes);
    }
    meta.byte_len = out.len() as u64;
    meta.crc32 = crc32(&out);
    (out, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::decode_chunk;
    use pinpoint_trace::{EventKind, MemoryKind};

    fn ev(time: u64, block: u64, size: usize, op: Option<u32>) -> MemEvent {
        MemEvent {
            time_ns: time,
            kind: EventKind::Write,
            block: BlockId(block),
            size,
            offset: 0,
            mem_kind: MemoryKind::Activation,
            op_label: op,
        }
    }

    #[test]
    fn pack_round_trips_every_width() {
        for width in 0..=64usize {
            let max = if width == 0 {
                0
            } else if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..17).map(|i| max.wrapping_sub(i) & max).collect();
            let mut bytes = Vec::new();
            write_pack(&mut bytes, &values);
            assert_eq!(bytes.len(), pack_size(&values), "width {width}");
            let mut out = Vec::new();
            decode_u64_values(&bytes, (0, bytes.len()), TAG_PACK, values.len(), &mut out).unwrap();
            assert_eq!(out, values, "width {width}");
        }
    }

    #[test]
    fn rle_round_trips_and_costs_exactly() {
        let values = [5u64, 5, 5, 5, 9, 9, 1_000_000, 5];
        let mut bytes = Vec::new();
        write_rle(&mut bytes, &values);
        assert_eq!(bytes.len(), rle_size(&values));
        let mut out = Vec::new();
        decode_u64_values(&bytes, (0, bytes.len()), TAG_RLE, values.len(), &mut out).unwrap();
        assert_eq!(out, values.to_vec());
    }

    #[test]
    fn rle_decode_rejects_overrun_and_zero_runs() {
        // run of 3 claimed for 2 expected values
        let mut bytes = Vec::new();
        write_u64(&mut bytes, 3);
        write_u64(&mut bytes, 7);
        let mut out = Vec::new();
        assert!(decode_u64_values(&bytes, (0, bytes.len()), TAG_RLE, 2, &mut out).is_err());
        // zero-length run
        let mut bytes = Vec::new();
        write_u64(&mut bytes, 0);
        write_u64(&mut bytes, 7);
        assert!(decode_u64_values(&bytes, (0, bytes.len()), TAG_RLE, 2, &mut out).is_err());
    }

    #[test]
    fn constant_columns_choose_rle_and_jittered_regular_times_choose_dod() {
        // identical meta/size/block values; timestamps near-regular with
        // per-step jitter, so the large deltas never repeat (RLE useless,
        // plain varints 3 bytes each) but second differences stay tiny —
        // exactly the shape delta-of-delta exists for. Perfectly regular
        // timestamps are NOT this case: their delta stream is constant
        // and RLE beats DOD outright.
        let events: Vec<MemEvent> = (0..256u64)
            .map(|i| ev(i * 100_000 + (i * 37) % 11, 4, 64, None))
            .collect();
        let (payload, _) = encode_chunk_v3(&events);
        let tags = chunk_encoding_tags(&payload).unwrap();
        assert_eq!(tags[0], TAG_DOD, "jittered regular timestamps -> DOD");
        assert_eq!(tags[1], TAG_RLE, "constant meta bytes -> RLE");
        assert_eq!(tags[2], TAG_RLE, "constant block ids -> RLE");
        assert_eq!(tags[3], TAG_RLE, "constant sizes -> RLE");

        // and perfectly regular timestamps do pick RLE over DOD
        let regular: Vec<MemEvent> = (0..256).map(|i| ev(i * 1_000, 4, 64, None)).collect();
        let (payload, _) = encode_chunk_v3(&regular);
        let tags = chunk_encoding_tags(&payload).unwrap();
        assert_eq!(tags[0], TAG_RLE, "constant deltas -> RLE");
    }

    #[test]
    fn small_domain_columns_choose_bit_packing() {
        // sizes alternate within a tiny domain: RLE gets no runs, varints
        // cost a byte each, 2-bit packing wins
        let events: Vec<MemEvent> = (0..256)
            .map(|i| {
                let mut e = ev(i * i * 7, i % 3, (i % 4) as usize, None);
                e.offset = (i % 2) as usize;
                e
            })
            .collect();
        let (payload, _) = encode_chunk_v3(&events);
        let tags = chunk_encoding_tags(&payload).unwrap();
        assert_eq!(tags[3], TAG_PACK, "2-bit size domain -> bit-packing");
        assert_eq!(tags[4], TAG_PACK, "1-bit offset domain -> bit-packing");
    }

    #[test]
    fn v3_chunk_round_trips_through_every_encoding_mix() {
        let mixes: Vec<Vec<MemEvent>> = vec![
            // constant everything
            (0..64).map(|_| ev(5, 1, 64, Some(2))).collect(),
            // regular times, varied blocks
            (0..64)
                .map(|i| ev(i * 10, i * 3 % 7, 1 << (i % 20), None))
                .collect(),
            // wild values
            (0..64)
                .map(|i| {
                    ev(
                        i * i * 31 + 7,
                        u64::from(u32::MAX) + i,
                        usize::MAX >> (i % 30),
                        Some(i as u32),
                    )
                })
                .collect(),
            // single event
            vec![ev(0, 0, 0, None)],
        ];
        for (case, events) in mixes.iter().enumerate() {
            let (payload, meta) = encode_chunk_v3(events);
            assert_eq!(meta.count, events.len() as u64, "case {case}");
            let back = decode_chunk(&payload, 3).unwrap();
            assert_eq!(&back, events, "case {case}");
        }
    }

    #[test]
    fn v3_decoder_rejects_hostile_counts_and_tags() {
        let (payload, _) = encode_chunk_v3(&[ev(1, 1, 1, None)]);
        // an absurd event count fails before any column expands
        let mut huge = Vec::new();
        write_u64(&mut huge, (MAX_CHUNK_EVENTS + 1) as u64);
        huge.extend_from_slice(&payload[1..]);
        assert!(decode_chunk(&huge, 3).is_err());
        // unknown tag and misplaced DOD both fail typed
        let mut pos = 0usize;
        read_u64(&payload, &mut pos).unwrap();
        for (slot, bad_tag) in [(0usize, 4u8), (1, TAG_DOD), (5, 200)] {
            let mut b = payload.clone();
            b[pos + slot] = bad_tag;
            assert!(decode_chunk(&b, 3).is_err(), "slot {slot} tag {bad_tag}");
        }
    }

    #[test]
    fn scratch_counts_reallocs_only_while_cold() {
        let events: Vec<MemEvent> = (0..512).map(|i| ev(i * 7, i % 9, 64, Some(1))).collect();
        let (payload, meta) = encode_chunk_v3(&events);
        let mut scratch = DecodeScratch::new();
        scratch.raw_for(payload.len()).copy_from_slice(&payload);
        scratch.decode_verified(&meta, 0, 3, true).unwrap();
        assert_eq!(scratch.batch().len(), events.len());
        let warm = scratch.realloc_count();
        assert!(warm > 0, "cold decode must have grown buffers");
        for _ in 0..5 {
            scratch.raw_for(payload.len()).copy_from_slice(&payload);
            scratch.decode_verified(&meta, 0, 3, true).unwrap();
        }
        assert_eq!(
            scratch.realloc_count(),
            warm,
            "warm decodes allocate nothing"
        );
    }

    #[test]
    fn verified_decode_catches_a_flipped_bit() {
        let events: Vec<MemEvent> = (0..64).map(|i| ev(i * 5, i % 4, 32, None)).collect();
        let (payload, meta) = encode_chunk_v3(&events);
        let mut scratch = DecodeScratch::new();
        let raw = scratch.raw_for(payload.len());
        raw.copy_from_slice(&payload);
        raw[payload.len() / 2] ^= 0x10;
        match scratch.decode_verified(&meta, 5, 3, true) {
            Err(StoreError::ChecksumMismatch { chunk: 5, .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // without CRC verification the same flip is either a decode error
        // or silently different data — but never a panic
        let _ = scratch.decode_verified(&meta, 5, 3, false);
    }

    #[test]
    fn verified_decode_catches_count_disagreement() {
        let events: Vec<MemEvent> = (0..3).map(|i| ev(i * 5, i, 32, None)).collect();
        let (payload, mut meta) = encode_chunk_v3(&events);
        meta.count += 1; // the CRC still matches, so the count check is reached
        let mut scratch = DecodeScratch::new();
        scratch.raw_for(payload.len()).copy_from_slice(&payload);
        match scratch.decode_verified(&meta, 2, 3, true) {
            Err(StoreError::CountMismatch {
                chunk: 2,
                indexed: 4,
                decoded: 3,
            }) => {}
            other => panic!("expected count mismatch, got {other:?}"),
        }
    }
}
