//! Streaming `.ptrc` writer: the [`TraceSink`] the profiler drives.
//!
//! Events are buffered per chunk and spill to the underlying writer every
//! `chunk_events` events, so a full training run never accumulates its
//! trace in RAM — only the footer state (label table, markers, one index
//! entry per flushed chunk) stays resident.
//!
//! Robustness properties:
//!
//! - **Crash-safe file writes** — [`StoreWriter::create`] writes to
//!   `<path>.tmp` and atomically renames onto the destination only after a
//!   successful [`TraceSink::finish`]. A crash, a deferred I/O error, or a
//!   failed footer write never leaves a half-written `.ptrc` at the final
//!   path. The temp file is removed on any finish error, and also when the
//!   writer is dropped without finishing (a profile that failed first).
//! - **Bounded retry with backoff** — transient write errors
//!   (`WouldBlock`, `TimedOut`) are retried up to
//!   [`RetryPolicy::max_attempts`] times with seeded, jittered exponential
//!   backoff. The backoff sleep is injectable, so tests drive the retry
//!   path deterministically with zero wall-clock time.
//! - **Checksummed output** — every chunk is framed with the v2+ record
//!   header (magic, payload length, CRC-32) and the footer gets its own
//!   CRC in the trailer, making later corruption detectable and the file
//!   salvageable without its footer.
//! - **Nothing written that cannot be read back** — every format stores
//!   block ids and timestamps as signed deltas, so an event with either
//!   above `i64::MAX` fails [`TraceSink::finish`] with `InvalidInput`
//!   instead of producing a store its own reader rejects.

use crate::columns::{encode_chunk_v3, MAX_CHUNK_EVENTS};
use crate::crc32::crc32;
use crate::format::{
    chunk_record_header, encode_chunk, encode_footer, trailer_len, ChunkMeta, Footer,
    CHUNK_HEADER_LEN, DEFAULT_CHUNK_EVENTS, MAGIC, VERSION, VERSION_V1, VERSION_V2,
};
use pinpoint_tensor::rng::Rng64;
use pinpoint_trace::{Marker, MemEvent, Trace, TraceSink};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How transient write errors are retried.
///
/// Retry timing is deterministic for a fixed seed: backoff before the
/// `k`-th retry is drawn from `[base << (k-1) / 2, base << (k-1)]`
/// microseconds using the writer's own [`Rng64`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per write call (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in microseconds.
    pub base_backoff_us: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, 100 µs initial backoff: rides out short stalls on
    /// networked or contended filesystems without hiding real failures.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 100,
            seed: 0x7072_6163_6531,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: every transient error is surfaced immediately.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_us: 0,
            seed: 0,
        }
    }
}

/// Kinds retried under the policy budget. `Interrupted` is excluded: it is
/// always retried for free, mirroring `Write::write_all`.
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// `write_all` with the retry policy applied per underlying `write` call.
fn write_all_retrying<W: Write>(
    out: &mut W,
    mut buf: &[u8],
    retry: &RetryPolicy,
    rng: &mut Rng64,
    sleep: &mut dyn FnMut(u64),
) -> io::Result<()> {
    let mut attempts_left = retry.max_attempts.max(1) - 1;
    let mut backoff = retry.base_backoff_us.max(1);
    while !buf.is_empty() {
        match out.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole chunk",
                ));
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_transient(e.kind()) && attempts_left > 0 => {
                attempts_left -= 1;
                let _retry_span =
                    pinpoint_obs::tracer().span_with("store.retry", attempts_left as u64);
                let jitter = backoff / 2 + rng.gen_below(backoff / 2 + 1);
                sleep(jitter);
                backoff = backoff.saturating_mul(2);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A chunked columnar writer producing a `.ptrc` stream.
///
/// Implements [`TraceSink`], so it can be handed to
/// `SimDevice::with_sink` / `profile_into_sink` and driven live during a
/// training run; I/O errors are deferred and surfaced by
/// [`TraceSink::finish`] so the instrumented hot path never branches on
/// I/O.
pub struct StoreWriter<W: Write> {
    out: W,
    version: u8,
    chunk_events: usize,
    pending: Vec<MemEvent>,
    labels: Vec<String>,
    label_index: HashMap<String, u32>,
    markers: Vec<Marker>,
    chunks: Vec<ChunkMeta>,
    bytes_written: u64,
    events_total: u64,
    deferred_err: Option<io::Error>,
    finished: bool,
    retry: RetryPolicy,
    rng: Rng64,
    sleeper: Box<dyn FnMut(u64) + Send>,
    /// The temp file a successful finish renames onto its destination.
    finalize: Option<TempFile>,
}

/// A temp file that [`TempFile::commit`] renames onto its destination.
/// Dropped uncommitted — after a failed finish, or with a writer that
/// never finished — it removes the temp file.
#[derive(Debug)]
struct TempFile {
    tmp: PathBuf,
    dest: PathBuf,
    committed: bool,
}

impl TempFile {
    fn new(tmp: PathBuf, dest: PathBuf) -> Self {
        TempFile {
            tmp,
            dest,
            committed: false,
        }
    }

    /// Renames the temp file onto the destination (removing the temp
    /// file if the rename fails).
    fn commit(mut self) -> io::Result<()> {
        fs::rename(&self.tmp, &self.dest)?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        if !self.committed {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

impl<W: Write> fmt::Debug for StoreWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreWriter")
            .field("version", &self.version)
            .field("chunk_events", &self.chunk_events)
            .field("events_total", &self.events_total)
            .field("chunks", &self.chunks.len())
            .field("bytes_written", &self.bytes_written)
            .field("deferred_err", &self.deferred_err)
            .field("finished", &self.finished)
            .field("retry", &self.retry)
            .field("finalize", &self.finalize)
            .finish_non_exhaustive()
    }
}

/// Temp-file path used by [`StoreWriter::create`]: `<path>.tmp` in the
/// same directory, so the final rename stays on one filesystem.
pub(crate) fn tmp_path(dest: &Path) -> PathBuf {
    let mut name = dest.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    dest.with_file_name(name)
}

impl StoreWriter<BufWriter<File>> {
    /// Creates a `.ptrc` file at `path` and a writer over it, with
    /// crash-safe semantics: bytes stream into `<path>.tmp`, which is
    /// atomically renamed onto `path` only when [`TraceSink::finish`]
    /// succeeds. On any finish error, or if the writer is dropped without
    /// finishing, the temp file is removed and `path` is left untouched.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and header-write errors (the temp file is
    /// cleaned up if the header write fails).
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let dest = path.as_ref().to_path_buf();
        let tmp = tmp_path(&dest);
        let out = BufWriter::new(File::create(&tmp)?);
        let temp = TempFile::new(tmp, dest);
        let mut w = Self::new(out)?;
        w.finalize = Some(temp);
        Ok(w)
    }
}

impl<W: Write> StoreWriter<W> {
    /// Wraps `out`, writing the file header immediately.
    ///
    /// # Errors
    ///
    /// Propagates the header write error.
    pub fn new(out: W) -> io::Result<Self> {
        Self::with_chunk_events(out, DEFAULT_CHUNK_EVENTS)
    }

    /// Like [`StoreWriter::new`] with an explicit chunk granularity
    /// (events per chunk; clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Propagates the header write error.
    pub fn with_chunk_events(out: W, chunk_events: usize) -> io::Result<Self> {
        Self::with_format(out, chunk_events, VERSION)
    }

    /// Like [`StoreWriter::with_chunk_events`] with an explicit format
    /// version — v1 and v2 output exist for compatibility testing and for
    /// exercising the old read paths; new stores should always be v3.
    ///
    /// # Errors
    ///
    /// `InvalidInput` on an unknown version; otherwise propagates the
    /// header write error.
    pub fn with_format(out: W, chunk_events: usize, version: u8) -> io::Result<Self> {
        if version != VERSION && version != VERSION_V2 && version != VERSION_V1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown .ptrc version {version}"),
            ));
        }
        let retry = RetryPolicy::default();
        let mut w = StoreWriter {
            out,
            version,
            chunk_events: chunk_events.clamp(1, MAX_CHUNK_EVENTS),
            pending: Vec::new(),
            labels: Vec::new(),
            label_index: HashMap::new(),
            markers: Vec::new(),
            chunks: Vec::new(),
            bytes_written: 0,
            events_total: 0,
            deferred_err: None,
            finished: false,
            rng: Rng64::seed_from_u64(retry.seed),
            retry,
            sleeper: Box::new(|us| std::thread::sleep(Duration::from_micros(us))),
            finalize: None,
        };
        // the header goes through the same retry-protected path as every
        // other write, so a transient error at byte 0 doesn't kill the
        // writer either
        let mut head = [0u8; MAGIC.len() + 1];
        head[..MAGIC.len()].copy_from_slice(MAGIC);
        head[MAGIC.len()] = version;
        w.write_retrying(&head)?;
        w.bytes_written = head.len() as u64;
        Ok(w)
    }

    /// Sets the transient-error retry policy (reseeding the jitter
    /// stream from the policy's seed).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.rng = Rng64::seed_from_u64(retry.seed);
        self.retry = retry;
    }

    /// Replaces the backoff sleep (argument: microseconds). Tests install
    /// a recording closure here so retry runs take zero wall-clock time.
    pub fn set_sleeper(&mut self, sleeper: Box<dyn FnMut(u64) + Send>) {
        self.sleeper = sleeper;
    }

    /// Arms crash-safe finalization on an already-constructed writer:
    /// after a successful finish, `tmp` is renamed onto `dest`; after a
    /// failed one, or when the writer is dropped unfinished, `tmp` is
    /// removed. For file-backed writers wrapped in shims (e.g. the fault
    /// harness); [`StoreWriter::create`] sets this up automatically.
    pub fn set_atomic_finalize(&mut self, tmp: PathBuf, dest: PathBuf) {
        self.finalize = Some(TempFile::new(tmp, dest));
    }

    /// The format version this writer emits.
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Events recorded so far (buffered + flushed).
    pub fn events_written(&self) -> u64 {
        self.events_total
    }

    /// Chunks flushed so far.
    pub fn chunks_flushed(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes emitted so far (excluding the pending chunk and footer).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    fn write_retrying(&mut self, bytes: &[u8]) -> io::Result<()> {
        write_all_retrying(
            &mut self.out,
            bytes,
            &self.retry,
            &mut self.rng,
            &mut self.sleeper,
        )
    }

    fn flush_chunk(&mut self) {
        if self.pending.is_empty() || self.deferred_err.is_some() {
            self.pending.clear();
            return;
        }
        let chunk = self.chunks.len() as u64;
        let _flush_span = pinpoint_obs::tracer().span_with("store.flush", chunk);
        let encode_span = pinpoint_obs::tracer().span_with("store.encode", chunk);
        let (bytes, mut meta) = if self.version >= 3 {
            encode_chunk_v3(&self.pending)
        } else {
            encode_chunk(&self.pending)
        };
        drop(encode_span);
        let result = if self.version >= 2 {
            if bytes.len() > u32::MAX as usize {
                Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "chunk payload exceeds u32::MAX bytes",
                ))
            } else {
                meta.offset = self.bytes_written + CHUNK_HEADER_LEN as u64;
                let hdr = chunk_record_header(bytes.len() as u32, meta.crc32);
                self.write_retrying(&hdr)
                    .and_then(|()| self.write_retrying(&bytes))
                    .map(|()| (CHUNK_HEADER_LEN + bytes.len()) as u64)
            }
        } else {
            meta.offset = self.bytes_written;
            meta.crc32 = 0; // v1 carries no checksums
            self.write_retrying(&bytes).map(|()| bytes.len() as u64)
        };
        match result {
            Ok(written) => {
                self.bytes_written += written;
                self.chunks.push(meta);
                self.pending.clear();
            }
            Err(e) => {
                self.deferred_err = Some(e);
            }
        }
    }

    fn finish_inner(&mut self) -> io::Result<()> {
        self.flush_chunk();
        if let Some(e) = self.deferred_err.take() {
            return Err(e);
        }
        let footer = Footer {
            labels: std::mem::take(&mut self.labels),
            markers: std::mem::take(&mut self.markers),
            chunks: std::mem::take(&mut self.chunks),
            total_events: self.events_total,
        };
        let footer_start = self.bytes_written;
        let bytes = encode_footer(&footer, self.version);
        self.write_retrying(&bytes)?;
        self.write_retrying(&footer_start.to_le_bytes())?;
        if self.version >= 2 {
            self.write_retrying(&crc32(&bytes).to_le_bytes())?;
        }
        self.write_retrying(MAGIC)?;
        self.bytes_written += bytes.len() as u64 + trailer_len(self.version) as u64;
        self.out.flush()?;
        Ok(())
    }

    /// Consumes the writer, returning the underlying stream (after
    /// [`TraceSink::finish`]; calling this without a prior successful
    /// finish loses buffered data).
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Records a marker at the event index it carries, not at the current
    /// one: for a rewrite that places markers after the events they split.
    pub(crate) fn record_marker_at(&mut self, marker: Marker) {
        self.markers.push(marker);
    }
}

impl<W: Write> TraceSink for StoreWriter<W> {
    fn intern_label(&mut self, label: &str) -> u32 {
        if let Some(&i) = self.label_index.get(label) {
            return i;
        }
        let i = self.labels.len() as u32;
        self.labels.push(label.to_string());
        self.label_index.insert(label.to_string(), i);
        i
    }

    fn record_event(&mut self, event: MemEvent) {
        debug_assert!(!self.finished, "record_event after finish");
        if self.deferred_err.is_none() {
            // deferred like an I/O error: the chunk holding the event is
            // then dropped unencoded and `finish` reports the cause
            if let Some(why) = unencodable(&event) {
                let msg = format!(
                    "event {}: {why}; the store cannot encode it",
                    self.events_total
                );
                self.deferred_err = Some(io::Error::new(io::ErrorKind::InvalidInput, msg));
            }
        }
        self.events_total += 1;
        self.pending.push(event);
        if self.pending.len() >= self.chunk_events {
            self.flush_chunk();
        }
    }

    fn record_marker(&mut self, time_ns: u64, label: &str) {
        self.markers.push(Marker {
            time_ns,
            event_index: self.events_total as usize,
            label: label.to_string(),
        });
    }

    fn event_count(&self) -> u64 {
        self.events_total
    }

    fn finish(&mut self) -> io::Result<()> {
        if self.finished {
            return Ok(());
        }
        let result = self.finish_inner();
        self.finished = true;
        // on an error, dropping the temp file leaves nothing half-written
        // behind: the destination is untouched and the temp file is gone
        let temp = self.finalize.take();
        result.and_then(|()| temp.map_or(Ok(()), TempFile::commit))
    }
}

/// Why an event has no encoding, if it has none: block ids and timestamps
/// are stored as signed deltas, so neither may exceed `i64::MAX`.
fn unencodable(e: &MemEvent) -> Option<String> {
    let limit = i64::MAX as u64;
    if e.block.0 > limit {
        Some(format!("block id {} exceeds i64::MAX", e.block.0))
    } else if e.time_ns > limit {
        Some(format!("timestamp {} ns exceeds i64::MAX", e.time_ns))
    } else {
        None
    }
}

fn replay_trace_into<W: Write>(trace: &Trace, w: &mut StoreWriter<W>) -> io::Result<u64> {
    for label in trace.labels() {
        w.intern_label(label);
    }
    // replay events and markers in stream order so marker event indices
    // land where Trace::mark placed them
    let mut next_marker = 0usize;
    let markers = trace.markers();
    for (i, e) in trace.events().iter().enumerate() {
        while next_marker < markers.len() && markers[next_marker].event_index <= i {
            let m = &markers[next_marker];
            w.record_marker(m.time_ns, &m.label);
            next_marker += 1;
        }
        w.record_event(e.clone());
    }
    for m in &markers[next_marker..] {
        w.record_marker(m.time_ns, &m.label);
    }
    w.finish()?;
    Ok(w.bytes_written())
}

/// Writes a whole in-memory [`Trace`] as a `.ptrc` stream, returning the
/// total bytes written.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_store<W: Write>(trace: &Trace, out: W) -> io::Result<u64> {
    write_store_chunked(trace, out, DEFAULT_CHUNK_EVENTS)
}

/// [`write_store`] with an explicit chunk granularity.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_store_chunked<W: Write>(
    trace: &Trace,
    out: W,
    chunk_events: usize,
) -> io::Result<u64> {
    let mut w = StoreWriter::with_chunk_events(out, chunk_events)?;
    replay_trace_into(trace, &mut w)
}

/// [`write_store_chunked`] in the legacy v1 format (no checksums).
/// Exists so the v1 read path and v1→v3 conversion stay testable.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_store_chunked_v1<W: Write>(
    trace: &Trace,
    out: W,
    chunk_events: usize,
) -> io::Result<u64> {
    let mut w = StoreWriter::with_format(out, chunk_events, VERSION_V1)?;
    replay_trace_into(trace, &mut w)
}

/// [`write_store_chunked`] in the legacy v2 format (checksummed, but
/// plain column encodings and no fine zone maps). Exists so the v2 read
/// path, v2→v3 conversion, and the v2-vs-v3 benches stay testable.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_store_chunked_v2<W: Write>(
    trace: &Trace,
    out: W,
    chunk_events: usize,
) -> io::Result<u64> {
    let mut w = StoreWriter::with_format(out, chunk_events, VERSION_V2)?;
    replay_trace_into(trace, &mut w)
}

/// Writes a whole in-memory [`Trace`] to a `.ptrc` file, crash-safely
/// (temp file + atomic rename; see [`StoreWriter::create`]).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_store_file(trace: &Trace, path: impl AsRef<Path>) -> io::Result<u64> {
    let mut w = StoreWriter::create(path)?;
    replay_trace_into(trace, &mut w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_trace::{BlockId, EventKind, MemoryKind};

    fn event(i: u64) -> MemEvent {
        MemEvent {
            time_ns: i * 10,
            kind: EventKind::Write,
            block: BlockId(i),
            size: 64,
            offset: 0,
            mem_kind: MemoryKind::Activation,
            op_label: None,
        }
    }

    #[test]
    fn writer_spills_chunks_as_events_stream_in() {
        let mut w = StoreWriter::with_chunk_events(Vec::new(), 4).unwrap();
        let op = w.intern_label("op");
        assert_eq!(op, w.intern_label("op"));
        for i in 0..10u64 {
            let mut e = event(i);
            e.op_label = Some(op);
            w.record_event(e);
        }
        // 10 events at 4/chunk: two full chunks flushed, 2 events pending
        assert_eq!(w.chunks_flushed(), 2);
        assert_eq!(w.events_written(), 10);
        w.finish().unwrap();
        let bytes = w.into_inner();
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(bytes[4], VERSION);
        assert_eq!(&bytes[bytes.len() - 4..], MAGIC);
    }

    #[test]
    fn deferred_io_error_surfaces_at_finish() {
        struct Failing(usize);
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // header writes (magic + version) succeed, chunk write fails;
        // "disk full" is not transient, so no retry kicks in
        let mut w = StoreWriter::with_chunk_events(Failing(2), 1).unwrap();
        w.record_event(event(0));
        assert!(w.finish().is_err());
        // finish is idempotent after reporting
        assert!(w.finish().is_ok());
    }

    #[test]
    fn transient_errors_are_retried_with_seeded_backoff() {
        /// Fails the first `fail` writes with a transient kind.
        struct Flaky {
            fail: usize,
            out: Vec<u8>,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.fail > 0 {
                    self.fail -= 1;
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "slow disk"));
                }
                self.out.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let run = |seed: u64| -> (Vec<u8>, Vec<u64>) {
            let mut w = StoreWriter::with_chunk_events(
                Flaky {
                    fail: 0,
                    out: Vec::new(),
                },
                2,
            )
            .unwrap();
            w.set_retry_policy(RetryPolicy {
                max_attempts: 4,
                base_backoff_us: 100,
                seed,
            });
            let sleeps = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let record = sleeps.clone();
            w.set_sleeper(Box::new(move |us| record.lock().unwrap().push(us)));
            w.out.fail = 2; // next two writes stall, then recover
            for i in 0..2 {
                w.record_event(event(i));
            }
            w.finish().unwrap();
            let slept = sleeps.lock().unwrap().clone();
            (w.into_inner().out, slept)
        };

        let (bytes_a, sleeps_a) = run(7);
        let (bytes_b, sleeps_b) = run(7);
        let (_, sleeps_c) = run(8);
        assert_eq!(sleeps_a.len(), 2, "two transient stalls, two backoffs");
        // jittered exponential: first in [50,100], second in [100,200]
        assert!((50..=100).contains(&sleeps_a[0]), "{sleeps_a:?}");
        assert!((100..=200).contains(&sleeps_a[1]), "{sleeps_a:?}");
        assert_eq!(sleeps_a, sleeps_b, "same seed, same backoff schedule");
        assert_ne!(sleeps_a, sleeps_c, "different seed, different jitter");
        assert_eq!(bytes_a, bytes_b);
        // and the recovered stream is a valid store
        assert_eq!(&bytes_a[..4], MAGIC);
        assert_eq!(&bytes_a[bytes_a.len() - 4..], MAGIC);
    }

    #[test]
    fn retry_budget_is_bounded() {
        /// Always times out.
        struct Stuck;
        impl Write for Stuck {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::TimedOut, "dead disk"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut rng = Rng64::seed_from_u64(1);
        let mut sleeps = 0usize;
        let err = write_all_retrying(
            &mut Stuck,
            b"payload",
            &RetryPolicy {
                max_attempts: 3,
                base_backoff_us: 10,
                seed: 1,
            },
            &mut rng,
            &mut |_| sleeps += 1,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(sleeps, 2, "3 attempts = 2 backoffs");
    }

    #[test]
    fn ids_and_times_above_i64_max_fail_finish_in_every_format() {
        let huge = 1u64 << 63;
        let bad = [
            (
                "block id",
                MemEvent {
                    block: BlockId(huge),
                    ..event(1)
                },
            ),
            (
                "timestamp",
                MemEvent {
                    time_ns: huge,
                    ..event(1)
                },
            ),
        ];
        for (field, e) in bad {
            let mut t = Trace::new();
            t.push(event(0));
            t.push(e.clone());
            let err = write_store_chunked(&t, Vec::new(), 4).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{field}: {err}");
            assert!(err.to_string().contains(field), "{field}: {err}");
            for version in [VERSION_V1, VERSION_V2, VERSION] {
                let mut w = StoreWriter::with_format(Vec::new(), 1, version).unwrap();
                w.record_event(event(0));
                w.record_event(e.clone());
                w.record_event(event(2));
                let err = w.finish().unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidInput,
                    "v{version} {field}"
                );
                assert!(err.to_string().contains("event 1"), "v{version}: {err}");
            }
        }

        // i64::MAX itself still round trips, in every format
        let max = i64::MAX as u64;
        let mut t = Trace::new();
        t.push(event(0));
        t.push(MemEvent {
            block: BlockId(max),
            time_ns: max,
            ..event(1)
        });
        t.push(MemEvent {
            time_ns: max,
            ..event(0)
        });
        for version in [VERSION_V1, VERSION_V2, VERSION] {
            let mut w = StoreWriter::with_format(Vec::new(), 2, version).unwrap();
            for e in t.events() {
                w.record_event(e.clone());
            }
            w.finish().unwrap();
            let r = crate::StoreReader::from_bytes(w.into_inner()).unwrap();
            assert_eq!(r.read_trace().unwrap().events(), t.events(), "v{version}");
        }
    }

    #[test]
    fn finish_on_empty_trace_produces_valid_store() {
        let mut w = StoreWriter::new(Vec::new()).unwrap();
        w.finish().unwrap();
        let bytes = w.into_inner();
        assert!(bytes.len() > crate::format::TRAILER_LEN_V2);
    }

    #[test]
    fn create_renames_only_on_successful_finish() {
        let dir = std::env::temp_dir().join("pinpoint_writer_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("ok.ptrc");
        let _ = fs::remove_file(&dest);
        let tmp = tmp_path(&dest);

        let mut w = StoreWriter::create(&dest).unwrap();
        w.record_event(event(1));
        assert!(tmp.exists(), "bytes stream into the temp file");
        assert!(!dest.exists(), "destination untouched until finish");
        w.finish().unwrap();
        assert!(dest.exists());
        assert!(!tmp.exists(), "temp renamed away");
        let _ = fs::remove_file(&dest);
    }

    #[test]
    fn dropping_an_unfinished_writer_removes_its_temp_file() {
        let dir = std::env::temp_dir().join("pinpoint_writer_drop_test");
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("dropped.ptrc");
        let tmp = tmp_path(&dest);
        let mut w = StoreWriter::create(&dest).unwrap();
        w.record_event(event(1));
        assert!(tmp.exists());
        drop(w);
        assert!(!tmp.exists(), "temp file removed");
        assert!(!dest.exists(), "no destination");
    }

    #[test]
    fn v1_writer_produces_version_1_header() {
        let mut bytes = Vec::new();
        write_store_chunked_v1(&Trace::new(), &mut bytes, 8).unwrap();
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(bytes[4], VERSION_V1);
    }
}
