//! Batched SoA chunk decoding and the v3 per-chunk adaptive encodings.
//!
//! The original decode path rebuilt one [`MemEvent`] at a time, paying a
//! varint read, a delta add, and a branchy struct push per event per
//! column. This module replaces it with whole-column decoders that fill a
//! reused [`ColumnBatch`] — six flat buffers, one pass per column — so the
//! hot loops are tight, branch-predictable, and allocation-free once the
//! buffers are warm (see [`DecodeScratch`]). Each column decodes straight
//! into a sink that finishes it in the same pass: delta chains are
//! integrated, has-op events counted and op labels densified as values
//! arrive, with no staging buffer. One- and two-byte varints are read
//! inline, and a bit-packed value at most 56 bits wide costs one 8-byte
//! load.
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
use pinpoint_trace::{BlockId, EventKind, MemEvent, MemoryKind};

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

/// The event kind a meta byte (see [`ColumnBatch::meta`]) records. The
/// 2-bit kind code space is total, so every byte has one.
#[inline]
pub fn meta_kind(meta: u8) -> EventKind {
    kind_from_code(meta & 0b11).expect("2-bit kind codes are total")
}

/// The memory kind a meta byte (see [`ColumnBatch::meta`]) records. The
/// 3-bit memory-kind code space is total, so every byte has one.
#[inline]
pub fn meta_mem_kind(meta: u8) -> MemoryKind {
    mem_kind_from_code((meta >> 2) & 0b111).expect("3-bit memory-kind codes are total")
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
            kind: meta_kind(m),
            block: BlockId(self.block[i]),
            size: self.size[i] as usize,
            offset: self.offset[i] as usize,
            mem_kind: meta_mem_kind(m),
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

/// Reads one varint: a one- or two-byte varint (most of them) without
/// calling [`read_u64`].
#[inline(always)]
fn varint(col: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    match col.get(*pos) {
        Some(&b) if b < 0x80 => {
            *pos += 1;
            Ok(u64::from(b))
        }
        Some(&b) => match col.get(*pos + 1) {
            Some(&c) if c < 0x80 => {
                *pos += 2;
                Ok(u64::from(b & 0x7f) | (u64::from(c) << 7))
            }
            _ => read_u64(col, pos),
        },
        None => read_u64(col, pos),
    }
}

/// Where one column's logical values go as they are decoded: into a raw
/// column, through a delta chain, into meta bytes or into op labels.
/// Each column decodes in one monomorphized pass, with no staging buffer.
trait Sink {
    /// Takes the next value.
    fn push(&mut self, v: u64);
}

impl Sink for Vec<u64> {
    #[inline(always)]
    fn push(&mut self, v: u64) {
        Vec::push(self, v);
    }
}

/// A zigzag-delta column integrated into absolute non-negative values as
/// it decodes, with checked arithmetic. The first overflow or negative
/// value is kept and reported once the column has decoded, so a column
/// fails with the error a decode-then-integrate pass would give.
struct Deltas<'a> {
    out: &'a mut Vec<u64>,
    prev: i64,
    /// Names the column in errors.
    what: &'static str,
    error: Option<StoreError>,
}

impl<'a> Deltas<'a> {
    fn new(out: &'a mut Vec<u64>, what: &'static str) -> Self {
        Deltas {
            out,
            prev: 0,
            what,
            error: None,
        }
    }

    #[inline(always)]
    fn push_delta(&mut self, d: i64) {
        let (next, overflowed) = self.prev.overflowing_add(d);
        if overflowed || next < 0 {
            self.fail(overflowed);
        }
        self.prev = next;
        self.out.push(next as u64);
    }

    #[cold]
    fn fail(&mut self, overflowed: bool) {
        let what = self.what;
        self.error.get_or_insert_with(|| {
            corrupt(if overflowed {
                format!("{what} overflows after delta decode")
            } else {
                format!("negative {what} after delta decode")
            })
        });
    }

    fn finish(self) -> Result<(), StoreError> {
        self.error.map_or(Ok(()), Err)
    }
}

impl Sink for Deltas<'_> {
    #[inline(always)]
    fn push(&mut self, v: u64) {
        self.push_delta(unzigzag(v));
    }
}

/// Delta-of-delta timestamps: each value is the zigzag change of the
/// delta, integrated twice. A delta that overflows is reported ahead of
/// any timestamp error, as a pass per integration would.
struct DeltaOfDelta<'a> {
    deltas: Deltas<'a>,
    delta: i64,
    overflowed: bool,
}

impl Sink for DeltaOfDelta<'_> {
    #[inline(always)]
    fn push(&mut self, v: u64) {
        let (delta, overflowed) = self.delta.overflowing_add(unzigzag(v));
        self.overflowed |= overflowed;
        self.delta = delta;
        self.deltas.push_delta(delta);
    }
}

/// The meta column: one byte per event, with the has-op events counted
/// as they arrive. A value over one byte is kept and reported once the
/// column has decoded.
struct MetaBytes<'a> {
    meta: &'a mut Vec<u8>,
    with_op: usize,
    too_wide: bool,
}

impl Sink for MetaBytes<'_> {
    #[inline(always)]
    fn push(&mut self, v: u64) {
        self.too_wide |= v > u64::from(u8::MAX);
        self.meta.push(v as u8);
        self.with_op += usize::from(v as u8 & HAS_OP_BIT != 0);
    }
}

/// The op column's values, one per has-op event, as labels.
struct OpLabels<'a>(&'a mut Vec<u32>);

impl Sink for OpLabels<'_> {
    #[inline(always)]
    fn push(&mut self, v: u64) {
        self.0.push(v as u32);
    }
}

/// Splits a bit-packed column into its width and its packed bytes,
/// checking both against the `expected` value count.
fn pack_layout(col: &[u8], expected: usize) -> Result<(usize, &[u8]), StoreError> {
    let Some((&width, data)) = col.split_first() else {
        return Err(corrupt("bit-packed column is missing its width byte"));
    };
    let width = usize::from(width);
    if width > 64 {
        return Err(corrupt("bit-packed column width exceeds 64"));
    }
    let needed = expected
        .checked_mul(width)
        .map(|b| b.div_ceil(8))
        .ok_or_else(|| corrupt("bit-packed column size overflows"))?;
    if data.len() != needed {
        return Err(corrupt("column length does not match its contents"));
    }
    Ok((width, data))
}

/// Hands `count` values packed LSB-first at `width` bits to `f`; `data`
/// holds exactly their bytes (see [`pack_layout`]). A value at most 56
/// bits wide sits in the 8 bytes from its first byte on (a shift of at
/// most 7 bits), so it costs one 8-byte load; a wider one, up to 64 bits
/// plus that shift, one 16-byte load. The last few values, whose window
/// would run past the data, are read from a zero-padded copy.
#[inline(always)]
fn unpack(data: &[u8], width: usize, count: usize, mut f: impl FnMut(u64)) {
    if width == 0 {
        (0..count).for_each(|_| f(0));
        return;
    }
    let mask = u64::MAX >> (64 - width);
    let window = if width <= 56 { 8 } else { 16 };
    // values whose window ends within the data: first byte <= len - window
    let full = match data.len().checked_sub(window) {
        Some(last) => ((last + 1) * 8).div_ceil(width).min(count),
        None => 0,
    };
    if window == 8 {
        for i in 0..full {
            let bit = i * width;
            let win = u64::from_le_bytes(data[bit / 8..][..8].try_into().expect("8 bytes"));
            f((win >> (bit % 8)) & mask);
        }
    } else {
        for i in 0..full {
            let bit = i * width;
            let win = u128::from_le_bytes(data[bit / 8..][..16].try_into().expect("16 bytes"));
            f((win >> (bit % 8)) as u64 & mask);
        }
    }
    for i in full..count {
        let bit = i * width;
        let rest = &data[bit / 8..];
        let mut win = [0u8; 16];
        win[..rest.len()].copy_from_slice(rest);
        f((u128::from_le_bytes(win) >> (bit % 8)) as u64 & mask);
    }
}

/// Decodes one column's logical value stream (`expected` values) from its
/// bytes `col`, per its encoding tag, into `sink`. `TAG_DOD` bytes are
/// plain varints at this layer; the sink integrates them.
fn decode_values(
    col: &[u8],
    tag: u8,
    expected: usize,
    sink: &mut impl Sink,
) -> Result<(), StoreError> {
    let mut pos = 0usize;
    match tag {
        TAG_PLAIN | TAG_DOD => {
            for _ in 0..expected {
                sink.push(varint(col, &mut pos)?);
            }
        }
        TAG_RLE => {
            let mut left = expected;
            while left > 0 {
                let run = varint(col, &mut pos)? as usize;
                let v = varint(col, &mut pos)?;
                if run == 0 || run > left {
                    return Err(corrupt("run-length column overruns its event count"));
                }
                (0..run).for_each(|_| sink.push(v));
                left -= run;
            }
        }
        TAG_PACK => {
            let (width, data) = pack_layout(col, expected)?;
            unpack(data, width, expected, |v| sink.push(v));
            pos = col.len();
        }
        other => return Err(corrupt(format!("unknown column encoding tag {other}"))),
    }
    if pos != col.len() {
        return Err(corrupt("column length does not match its contents"));
    }
    Ok(())
}

/// Decodes the meta column into `meta` and returns how many events carry
/// an op label. Plain meta is the raw bytes.
fn decode_meta(col: &[u8], tag: u8, n: usize, meta: &mut Vec<u8>) -> Result<usize, StoreError> {
    if tag == TAG_PLAIN {
        if col.len() != n {
            return Err(corrupt(format!(
                "meta column holds {} of {n} events",
                col.len()
            )));
        }
        meta.extend_from_slice(col);
        return Ok(col.iter().filter(|&&m| m & HAS_OP_BIT != 0).count());
    }
    let mut sink = MetaBytes {
        meta,
        with_op: 0,
        too_wide: false,
    };
    decode_values(col, tag, n, &mut sink)?;
    if sink.too_wide {
        return Err(corrupt("meta column value exceeds one byte"));
    }
    Ok(sink.with_op)
}

/// Spreads the labels of the has-op events, packed at the front of `op`,
/// to one entry per event (0 where the event has none), in place: from
/// the back, each event's label is read from at or before its own slot.
fn densify_ops(op: &mut Vec<u32>, meta: &[u8]) {
    let mut k = op.len();
    op.resize(meta.len(), 0);
    for (i, &m) in meta.iter().enumerate().rev() {
        if k == 0 {
            op[..=i].fill(0);
            return;
        }
        op[i] = if m & HAS_OP_BIT != 0 {
            k -= 1;
            op[k]
        } else {
            0
        };
    }
}

/// Decodes a chunk payload (any format version) into `batch`, returning
/// the number of payload bytes consumed. Tolerates trailing data — the
/// callers that require exact consumption check the returned length.
///
/// Each column is one pass: values are integrated, counted and densified
/// as they decode. Errors are those of a pass per step, in column order.
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
    let mut cols: [&[u8]; 6] = [&[]; 6];
    for c in cols.iter_mut() {
        let len = read_u64(bytes, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| corrupt("column extends past chunk end"))?;
        *c = &bytes[pos..end];
        pos = end;
    }
    let payload_len = bytes.len();
    let b = &mut *batch;
    for col in [&mut b.time, &mut b.block, &mut b.size, &mut b.offset] {
        reserve_clamped(col, n, payload_len);
    }
    reserve_clamped(&mut b.meta, n, payload_len);
    reserve_clamped(&mut b.op, n, payload_len);

    // time (column 0): zigzag deltas, possibly second-differenced
    if tags[0] == TAG_DOD {
        let mut dod = DeltaOfDelta {
            deltas: Deltas::new(&mut b.time, "timestamp"),
            delta: 0,
            overflowed: false,
        };
        decode_values(cols[0], TAG_DOD, n, &mut dod)?;
        if dod.overflowed {
            return Err(corrupt("timestamp delta overflows after decode"));
        }
        dod.deltas.finish()?;
    } else {
        let mut time = Deltas::new(&mut b.time, "timestamp");
        decode_values(cols[0], tags[0], n, &mut time)?;
        time.finish()?;
    }

    // meta (column 1): one byte per event
    let with_op = decode_meta(cols[1], tags[1], n, &mut b.meta)?;

    // block (column 2): zigzag deltas
    let mut block = Deltas::new(&mut b.block, "block id");
    decode_values(cols[2], tags[2], n, &mut block)?;
    block.finish()?;

    // size / offset (columns 3, 4): raw values
    decode_values(cols[3], tags[3], n, &mut b.size)?;
    decode_values(cols[4], tags[4], n, &mut b.offset)?;

    // op (column 5): one value per has-op event, densified to per-event
    decode_values(cols[5], tags[5], with_op, &mut OpLabels(&mut b.op))?;
    densify_ops(&mut b.op, &b.meta);

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

/// What each candidate encoding of one column costs in bytes, measured in
/// one pass over the values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColumnCosts {
    plain: usize,
    rle: usize,
    pack: usize,
    /// Bit width of the widest value: the width bit-packing would use.
    width: usize,
}

/// Costs `values` under the plain, RLE and bit-pack encodings at once.
/// `plain_is_bytes` marks the meta column, whose plain form is one raw
/// byte per value rather than varints.
fn column_costs(values: &[u64], plain_is_bytes: bool) -> ColumnCosts {
    let mut plain = 0usize;
    let mut rle = 0usize;
    let mut run = 0u64;
    let mut all_bits = 0u64;
    for (i, &v) in values.iter().enumerate() {
        plain += varint_len(v);
        all_bits |= v;
        run += 1;
        // a run ends where the next value differs, or at the end
        if values.get(i + 1) != Some(&v) {
            rle += varint_len(run) + varint_len(v);
            run = 0;
        }
    }
    let width = 64 - all_bits.leading_zeros() as usize;
    ColumnCosts {
        plain: if plain_is_bytes { values.len() } else { plain },
        rle,
        pack: 1 + (values.len() * width).div_ceil(8),
        width,
    }
}

/// The cheapest encoding and its size: exact encoded-size comparison, with
/// ties broken toward the lowest tag so the choice — and thus the byte
/// stream — is deterministic. `dod` is the delta-of-delta cost, offered
/// only for the time column.
fn cheapest(costs: &ColumnCosts, dod: Option<usize>) -> (u8, usize) {
    [
        (TAG_PLAIN, Some(costs.plain)),
        (TAG_RLE, Some(costs.rle)),
        (TAG_PACK, Some(costs.pack)),
        (TAG_DOD, dod),
    ]
    .into_iter()
    .filter_map(|(tag, size)| Some((tag, size?)))
    .min_by_key(|&(_, size)| size)
    .expect("plain is always a candidate")
}

fn write_rle(out: &mut Vec<u8>, values: &[u64]) {
    let mut run = 0u64;
    for (i, &v) in values.iter().enumerate() {
        run += 1;
        if values.get(i + 1) != Some(&v) {
            write_u64(out, run);
            write_u64(out, v);
            run = 0;
        }
    }
}

/// Bit-packs `values` at `width` bits each, LSB-first: the width byte,
/// then `ceil(n * width / 8)` bytes, emitted a 64-bit word at a time.
fn write_pack(out: &mut Vec<u8>, values: &[u64], width: usize) {
    out.push(width as u8);
    if width == 0 {
        return;
    }
    let mut acc = 0u64;
    let mut bits = 0usize;
    for &v in values {
        acc |= v << bits;
        bits += width;
        if bits >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            bits -= 64;
            // the value's bits that did not fit in the full word
            acc = if bits == 0 { 0 } else { v >> (width - bits) };
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..bits.div_ceil(8)]);
}

/// A chunk's six logical column streams — zigzag time deltas, meta bytes,
/// zigzag block-id deltas, sizes, offsets, op labels of the events that
/// have one — plus the time column's delta-of-delta stream and its plain
/// cost, present when every second difference is representable.
struct ChunkStreams {
    cols: [Vec<u64>; 6],
    dod: Option<(Vec<u64>, usize)>,
}

/// Builds a chunk's column streams in one pass over its events.
fn chunk_streams(events: &[MemEvent]) -> ChunkStreams {
    let n = events.len();
    let mut cols: [Vec<u64>; 6] = std::array::from_fn(|c| {
        if c == 5 {
            Vec::new()
        } else {
            Vec::with_capacity(n)
        }
    });
    let mut dod = Vec::with_capacity(n);
    let mut dod_cost = 0usize;
    let mut dod_ok = true;
    let mut prev_time = 0i64;
    let mut prev_delta = 0i64;
    let mut prev_block = 0i64;
    for e in events {
        let d = e.time_ns as i64 - prev_time;
        prev_time = e.time_ns as i64;
        cols[0].push(zigzag(d));
        if dod_ok {
            match d.checked_sub(prev_delta) {
                Some(x) => {
                    let z = zigzag(x);
                    dod_cost += varint_len(z);
                    dod.push(z);
                }
                None => dod_ok = false,
            }
        }
        prev_delta = d;
        cols[1].push(u64::from(meta_byte(e)));
        cols[2].push(zigzag(e.block.0 as i64 - prev_block));
        prev_block = e.block.0 as i64;
        cols[3].push(e.size as u64);
        cols[4].push(e.offset as u64);
        if let Some(op) = e.op_label {
            cols[5].push(u64::from(op));
        }
    }
    ChunkStreams {
        cols,
        dod: dod_ok.then_some((dod, dod_cost)),
    }
}

/// Encodes one chunk of events as a v3 payload: count, six encoding-tag
/// bytes, then the six columns (each `byte_len:varint bytes`), every
/// column carrying whichever encoding costs fewest bytes for this chunk.
/// Each column is costed under every encoding in one pass, and only the
/// chosen encoding is written. Returns the bytes and the chunk's index
/// entry with the v3 zone-map fields populated (`offset` left at 0 for
/// the writer to fill in).
///
/// # Panics
///
/// Panics if `events` is empty — the writer never flushes empty chunks.
pub fn encode_chunk_v3(events: &[MemEvent]) -> (Vec<u8>, ChunkMeta) {
    let mut meta = crate::format::meta_from_events(events);
    let streams = chunk_streams(events);
    let dod_cost = streams.dod.as_ref().map(|&(_, cost)| cost);
    let choices: [(u8, usize, usize); 6] = std::array::from_fn(|c| {
        let costs = column_costs(&streams.cols[c], c == 1);
        let (tag, size) = cheapest(&costs, dod_cost.filter(|_| c == 0));
        (tag, size, costs.width)
    });
    let n = events.len() as u64;
    let total = varint_len(n)
        + 6
        + choices
            .iter()
            .map(|&(_, size, _)| varint_len(size as u64) + size)
            .sum::<usize>();
    let mut out = Vec::with_capacity(total);
    write_u64(&mut out, n);
    out.extend(choices.iter().map(|&(tag, _, _)| tag));
    for (c, (values, &(tag, size, width))) in streams.cols.iter().zip(&choices).enumerate() {
        write_u64(&mut out, size as u64);
        match tag {
            // the meta column's plain form is one raw byte per event
            TAG_PLAIN if c == 1 => out.extend(values.iter().map(|&v| v as u8)),
            TAG_PLAIN => values.iter().for_each(|&v| write_u64(&mut out, v)),
            TAG_RLE => write_rle(&mut out, values),
            TAG_PACK => write_pack(&mut out, values, width),
            _ => {
                let (dod, _) = streams
                    .dod
                    .as_ref()
                    .expect("DOD chosen only when it exists");
                dod.iter().for_each(|&v| write_u64(&mut out, v));
            }
        }
    }
    debug_assert_eq!(out.len(), total, "every column costs what it writes");
    meta.byte_len = out.len() as u64;
    meta.crc32 = crc32(&out);
    (out, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::decode_chunk;
    use pinpoint_trace::MemoryKind;

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

    /// Values of `width` bits: the widest first, then a fixed mix.
    fn values_of_width(width: usize, len: usize) -> Vec<u64> {
        let max = if width == 0 {
            0
        } else {
            u64::MAX >> (64 - width)
        };
        (0..len as u64)
            .map(|i| match i {
                0 => max,
                _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32) & max,
            })
            .collect()
    }

    #[test]
    fn pack_round_trips_every_width_at_every_length() {
        // lengths up to 70 put the last values' 8- and 16-byte windows at
        // and past the end of the data, so every path ends exactly there
        for width in 0..=64usize {
            for len in 0..=70 {
                let values = values_of_width(width, len);
                let mut bytes = Vec::new();
                write_pack(&mut bytes, &values, width);
                assert_eq!(bytes.len(), 1 + (len * width).div_ceil(8));
                if len > 0 {
                    // the widest value comes first, so the writer's cost
                    // pass picks exactly this width and prices it exactly
                    let costs = column_costs(&values, false);
                    assert_eq!(costs.width, width, "width {width}, len {len}");
                    assert_eq!(bytes.len(), costs.pack, "width {width}, len {len}");
                }
                let mut out = Vec::new();
                decode_values(&bytes, TAG_PACK, len, &mut out).unwrap();
                assert_eq!(out, values, "width {width}, len {len}");
                // the meta column keeps values of at most one byte
                let mut meta = Vec::new();
                let with_op = decode_meta(&bytes, TAG_PACK, len, &mut meta);
                if width <= 8 {
                    let want: Vec<u8> = values.iter().map(|&v| v as u8).collect();
                    assert_eq!(meta, want, "meta: width {width}, len {len}");
                    let ops = want.iter().filter(|&&m| m & HAS_OP_BIT != 0).count();
                    assert_eq!(with_op.unwrap(), ops, "meta: width {width}, len {len}");
                } else if values.iter().any(|&v| v > 255) {
                    assert!(with_op.is_err(), "meta: width {width}, len {len}");
                }
            }
        }
    }

    /// A v3 payload of `events` whose column `c` is `tag` over `bytes`.
    fn with_column(events: &[MemEvent], c: usize, tag: u8, bytes: &[u8]) -> Vec<u8> {
        let (payload, _) = encode_chunk_v3(events);
        let mut pos = 0usize;
        let n = read_u64(&payload, &mut pos).unwrap();
        let mut tags = chunk_encoding_tags(&payload).unwrap();
        pos += 6;
        let mut cols: Vec<Vec<u8>> = (0..6)
            .map(|_| {
                let len = read_u64(&payload, &mut pos).unwrap() as usize;
                pos += len;
                payload[pos - len..pos].to_vec()
            })
            .collect();
        (tags[c], cols[c]) = (tag, bytes.to_vec());
        let mut out = Vec::new();
        write_u64(&mut out, n);
        out.extend(tags);
        for col in &cols {
            write_u64(&mut out, col.len() as u64);
            out.extend(col);
        }
        out
    }

    #[test]
    fn every_fast_path_rejects_hostile_columns_with_a_typed_error() {
        let n = 40usize;
        // every event has an op label, so the op column holds n values too
        let events: Vec<MemEvent> = (0..n as u64)
            .map(|i| ev(i * 300, i * 200, 64 << (i % 9), Some(i as u32 * 150)))
            .collect();
        assert!(decode_chunk(&with_column(&events, 0, TAG_PLAIN, &[]), 3).is_err());
        let varints = |count: usize, tail: &[u8]| {
            let mut b = Vec::new();
            (0..count).for_each(|_| write_u64(&mut b, 1));
            b.extend_from_slice(tail);
            b
        };
        let mut cases: Vec<(&str, u8, Vec<u8>)> = Vec::new();
        // a multi-byte varint cut at the column's end: after its first
        // byte, and after two (past the two-byte fast path)
        for tail in [&[0x80u8][..], &[0x81, 0x82]] {
            cases.push(("varint cut", TAG_PLAIN, varints(n - 1, tail)));
            let mut rle = Vec::new();
            write_u64(&mut rle, n as u64 - 1);
            write_u64(&mut rle, 1);
            write_u64(&mut rle, 1);
            rle.extend_from_slice(tail);
            cases.push(("run value cut", TAG_RLE, rle));
            cases.push(("dod varint cut", TAG_DOD, varints(n - 1, tail)));
        }
        let mut overrun = Vec::new();
        write_u64(&mut overrun, n as u64 + 1);
        write_u64(&mut overrun, 0);
        cases.push(("run past the count", TAG_RLE, overrun));
        for width in [1usize, 6, 8, 27, 56, 57, 64] {
            let mut short = vec![width as u8];
            short.resize((n * width).div_ceil(8), 0);
            cases.push(("pack one byte short", TAG_PACK, short));
        }
        cases.push(("width 65", TAG_PACK, vec![65; 1 + (n * 65).div_ceil(8)]));
        for c in 0..6 {
            for (what, tag, bytes) in &cases {
                if *tag == TAG_DOD && c != 0 {
                    continue;
                }
                // plain meta is raw bytes: one short is its hostile case
                let bytes = if c == 1 && *tag == TAG_PLAIN {
                    &bytes[..n - 1]
                } else {
                    &bytes[..]
                };
                let payload = with_column(&events, c, *tag, bytes);
                let err = decode_chunk(&payload, 3).expect_err(what);
                assert!(
                    matches!(err, StoreError::BadVarint(_) | StoreError::Corrupt(_)),
                    "column {c}, {what}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn delta_errors_keep_the_order_of_a_pass_per_step() {
        let events: Vec<MemEvent> = (0..8).map(|i| ev(i * 10, i, 64, None)).collect();
        let err = |c: usize, tag: u8, bytes: &[u8]| {
            decode_chunk(&with_column(&events, c, tag, bytes), 3)
                .unwrap_err()
                .to_string()
        };
        // a negative timestamp at the first value, a cut varint at the last:
        // the decode error wins, as when decoding came before integrating
        let mut time = vec![1u8]; // zigzag -1
        (0..6).for_each(|_| time.push(0));
        time.push(0x80);
        assert!(err(0, TAG_PLAIN, &time).contains("truncated varint"));
        time[7] = 0;
        assert!(err(0, TAG_PLAIN, &time).contains("negative timestamp"));
        // a delta that overflows beats a negative timestamp before it
        let mut dod = vec![1u8];
        write_u64(&mut dod, zigzag(i64::MAX));
        write_u64(&mut dod, zigzag(i64::MAX));
        (0..5).for_each(|_| dod.push(0));
        assert!(err(0, TAG_DOD, &dod).contains("timestamp delta overflows"));
        let mut block = vec![0u8; 7];
        write_u64(&mut block, zigzag(-1));
        assert!(err(2, TAG_PLAIN, &block).contains("negative block id"));
    }

    #[test]
    fn rle_round_trips_and_costs_exactly() {
        let values = [5u64, 5, 5, 5, 9, 9, 1_000_000, 5];
        let mut bytes = Vec::new();
        write_rle(&mut bytes, &values);
        assert_eq!(bytes.len(), column_costs(&values, false).rle);
        let mut out = Vec::new();
        decode_values(&bytes, TAG_RLE, values.len(), &mut out).unwrap();
        assert_eq!(out, values.to_vec());
    }

    /// Column shapes the cost rule must price exactly: constant, a small
    /// domain, jittered timestamp deltas, full-width values, one value,
    /// and none.
    fn cost_shapes() -> Vec<(&'static str, Vec<u64>)> {
        vec![
            ("constant", vec![42; 300]),
            (
                "small domain",
                (0..300).map(|i| (i * 7 % 5) as u64).collect(),
            ),
            (
                "jittered time",
                (0..300u64)
                    .map(|i| zigzag(100_000 + ((i * 37) % 11) as i64 - 5))
                    .collect(),
            ),
            (
                "wide",
                (0..300u64)
                    .map(|i| u64::MAX - i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect(),
            ),
            ("single", vec![1 << 40]),
            ("empty", Vec::new()),
        ]
    }

    #[test]
    fn single_pass_costs_equal_written_lengths() {
        for (shape, values) in cost_shapes() {
            let costs = column_costs(&values, false);
            let mut plain = Vec::new();
            values.iter().for_each(|&v| write_u64(&mut plain, v));
            let mut rle = Vec::new();
            write_rle(&mut rle, &values);
            let mut pack = Vec::new();
            write_pack(&mut pack, &values, costs.width);
            assert_eq!(plain.len(), costs.plain, "{shape}: plain");
            assert_eq!(rle.len(), costs.rle, "{shape}: rle");
            assert_eq!(pack.len(), costs.pack, "{shape}: pack");
            assert_eq!(column_costs(&values, true).plain, values.len(), "{shape}");
            // the chosen tag is the lowest-tag minimum
            let sizes = [costs.plain, costs.rle, costs.pack];
            let min = *sizes.iter().min().unwrap();
            let tag = sizes.iter().position(|&s| s == min).unwrap() as u8;
            assert_eq!(cheapest(&costs, None), (tag, min), "{shape}");
        }
    }

    #[test]
    fn chunk_columns_cost_what_they_write() {
        let shapes: Vec<Vec<MemEvent>> = vec![
            (0..300).map(|_| ev(9, 1, 64, Some(3))).collect(),
            (0..300)
                .map(|i| ev(i * 100_000 + (i * 37) % 11, i % 3, (i % 4) as usize, None))
                .collect(),
            (0..300)
                .map(|i| {
                    let wide = u64::MAX >> 2;
                    ev(
                        i * i * 31,
                        wide - i,
                        (wide - i * 977) as usize,
                        Some(i as u32),
                    )
                })
                .collect(),
        ];
        for (case, events) in shapes.iter().enumerate() {
            let (payload, _) = encode_chunk_v3(events);
            let streams = chunk_streams(events);
            if let Some((dod, cost)) = &streams.dod {
                let mut bytes = Vec::new();
                dod.iter().for_each(|&v| write_u64(&mut bytes, v));
                assert_eq!(bytes.len(), *cost, "case {case}: dod");
            }
            let mut pos = 0usize;
            read_u64(&payload, &mut pos).unwrap();
            let tags = chunk_encoding_tags(&payload).unwrap();
            pos += 6;
            for (c, values) in streams.cols.iter().enumerate() {
                let len = read_u64(&payload, &mut pos).unwrap() as usize;
                pos += len;
                let costs = column_costs(values, c == 1);
                let dod = streams.dod.as_ref().map(|d| d.1).filter(|_| c == 0);
                let sizes = [Some(costs.plain), Some(costs.rle), Some(costs.pack), dod];
                let min = sizes.iter().flatten().min().copied().unwrap();
                let tag = sizes.iter().position(|&s| s == Some(min)).unwrap() as u8;
                assert_eq!((tags[c], len), (tag, min), "case {case}, column {c}");
            }
            assert_eq!(pos, payload.len(), "case {case}");
        }
    }

    #[test]
    fn rle_decode_rejects_overrun_and_zero_runs() {
        // run of 3 claimed for 2 expected values
        let mut bytes = Vec::new();
        write_u64(&mut bytes, 3);
        write_u64(&mut bytes, 7);
        let mut out = Vec::new();
        assert!(decode_values(&bytes, TAG_RLE, 2, &mut out).is_err());
        // zero-length run
        let mut bytes = Vec::new();
        write_u64(&mut bytes, 0);
        write_u64(&mut bytes, 7);
        assert!(decode_values(&bytes, TAG_RLE, 2, &mut out).is_err());
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
