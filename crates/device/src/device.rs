//! The instrumented simulated device.
//!
//! [`SimDevice`] is where the paper's methodology lives: every allocator
//! call and every kernel-operand access is recorded into a
//! [`pinpoint_trace::Trace`] with a timestamp from the simulated clock.

use crate::alloc::{
    AllocError, AllocStats, BestFitAllocator, Block, BumpAllocator, CachingAllocator,
    DeviceAllocator,
};
use crate::clock::SimClock;
use crate::cost::CostModel;
use crate::transfer::TransferModel;
use pinpoint_trace::{BlockId, BlockMap, EventKind, MemEvent, MemoryKind, Trace, TraceSink};
use std::fmt;

/// Which allocator policy a device uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocatorPolicy {
    /// PyTorch-style caching allocator (the paper's subject).
    #[default]
    Caching,
    /// Classic best-fit arena (ablation baseline).
    BestFit,
    /// Bump pointer with generation reset (ablation baseline).
    Bump,
}

impl AllocatorPolicy {
    /// Instantiates the allocator for `capacity` bytes.
    pub fn build(self, capacity: usize) -> Box<dyn DeviceAllocator> {
        match self {
            AllocatorPolicy::Caching => Box::new(CachingAllocator::new(capacity)),
            AllocatorPolicy::BestFit => Box::new(BestFitAllocator::new(capacity)),
            AllocatorPolicy::Bump => Box::new(BumpAllocator::new(capacity)),
        }
    }

    /// All policies, for sweeps.
    pub const ALL: [AllocatorPolicy; 3] = [
        AllocatorPolicy::Caching,
        AllocatorPolicy::BestFit,
        AllocatorPolicy::Bump,
    ];
}

/// Configuration of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Device memory capacity in bytes (Titan X Pascal: 12 GB).
    pub capacity_bytes: usize,
    /// Allocator policy.
    pub allocator: AllocatorPolicy,
    /// Kernel cost model.
    pub cost: CostModel,
    /// Host↔device transfer model.
    pub transfer: TransferModel,
}

impl DeviceConfig {
    /// Titan-X-Pascal-like defaults with the caching allocator.
    pub fn titan_x_pascal() -> Self {
        DeviceConfig {
            capacity_bytes: 12 << 30,
            allocator: AllocatorPolicy::Caching,
            cost: CostModel::titan_x_pascal(),
            transfer: TransferModel::titan_x_pascal_pinned(),
        }
    }

    /// Jitter-free variant for exactness-sensitive tests.
    pub fn deterministic() -> Self {
        DeviceConfig {
            cost: CostModel::deterministic(),
            ..Self::titan_x_pascal()
        }
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::titan_x_pascal()
    }
}

/// A simulated, instrumented GPU.
///
/// All memory management and kernel launches go through this type, which
/// advances the clock with the cost model and appends the paper's four
/// behaviors (`malloc`, `free`, `read`, `write`) to the trace.
///
/// # Examples
///
/// ```
/// use pinpoint_device::{DeviceConfig, SimDevice};
/// use pinpoint_trace::MemoryKind;
///
/// let mut dev = SimDevice::new(DeviceConfig::deterministic());
/// let x = dev.malloc(16 << 10, MemoryKind::Activation, Some("relu_out"))?;
/// dev.launch_kernel("relu", 4096, 32 << 10, &[x], &[x]);
/// dev.free(x)?;
/// assert_eq!(dev.trace().len(), 4); // malloc, read, write, free
/// # Ok::<(), pinpoint_device::alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct SimDevice {
    config: DeviceConfig,
    clock: SimClock,
    alloc: Box<dyn DeviceAllocator>,
    sink: DeviceSink,
    live: BlockMap<(usize, usize, MemoryKind)>, // size, offset, kind
    kernel_seq: u64,
}

/// Where a device's observed behaviors go: the default in-memory [`Trace`],
/// or an external streaming [`TraceSink`] (e.g. a chunked on-disk store
/// writer) that never accumulates the full event log in RAM.
enum DeviceSink {
    Memory(Trace),
    External(Box<dyn TraceSink + Send>),
}

impl DeviceSink {
    fn as_sink(&mut self) -> &mut dyn TraceSink {
        match self {
            DeviceSink::Memory(t) => t,
            DeviceSink::External(s) => &mut **s,
        }
    }
}

impl fmt::Debug for DeviceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceSink::Memory(t) => f.debug_tuple("Memory").field(t).finish(),
            DeviceSink::External(_) => f.write_str("External(..)"),
        }
    }
}

impl SimDevice {
    /// Creates a device from its configuration, tracing into memory.
    pub fn new(config: DeviceConfig) -> Self {
        Self::build(config, DeviceSink::Memory(Trace::new()))
    }

    /// Creates a device that streams its behaviors into an external sink
    /// instead of accumulating an in-memory [`Trace`].
    ///
    /// With an external sink, [`SimDevice::trace`] and
    /// [`SimDevice::into_trace`] are unavailable (they panic); drive the
    /// sink to completion with [`SimDevice::finish_sink`] instead.
    pub fn with_sink(config: DeviceConfig, sink: Box<dyn TraceSink + Send>) -> Self {
        Self::build(config, DeviceSink::External(sink))
    }

    fn build(config: DeviceConfig, sink: DeviceSink) -> Self {
        let alloc = config.allocator.build(config.capacity_bytes);
        SimDevice {
            config,
            clock: SimClock::new(),
            alloc,
            sink,
            live: BlockMap::default(),
            kernel_seq: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        time_ns: u64,
        kind: EventKind,
        block: BlockId,
        size: usize,
        offset: usize,
        mem_kind: MemoryKind,
        op_label: Option<u32>,
    ) {
        self.sink.as_sink().record_event(MemEvent {
            time_ns,
            kind,
            block,
            size,
            offset,
            mem_kind,
            op_label,
        });
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Allocator counters.
    pub fn alloc_stats(&self) -> &AllocStats {
        self.alloc.stats()
    }

    /// Live-block snapshot from the allocator.
    pub fn live_blocks(&self) -> Vec<Block> {
        self.alloc.live_blocks()
    }

    /// Allocates a device block, recording a `Malloc` event.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors (OOM, zero size).
    pub fn malloc(
        &mut self,
        size: usize,
        kind: MemoryKind,
        op: Option<&str>,
    ) -> Result<BlockId, AllocError> {
        let block = self.alloc.malloc(size)?;
        let label = op.map(|o| self.sink.as_sink().intern_label(o));
        self.live.insert(block.id, (block.size, block.offset, kind));
        self.record(
            self.clock.now_ns(),
            EventKind::Malloc,
            block.id,
            block.size,
            block.offset,
            kind,
            label,
        );
        Ok(block.id)
    }

    /// Frees a device block, recording a `Free` event.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownBlock`] if `id` is not live.
    pub fn free(&mut self, id: BlockId) -> Result<(), AllocError> {
        let block = self.alloc.free(id)?;
        let (_, _, kind) = self
            .live
            .remove(&id)
            .expect("allocator and device agree on live blocks");
        self.record(
            self.clock.now_ns(),
            EventKind::Free,
            id,
            block.size,
            block.offset,
            kind,
            None,
        );
        Ok(())
    }

    /// Launches a kernel: records `Read` events for `reads` at launch time,
    /// advances the clock by the cost model's duration, then records `Write`
    /// events for `writes` at completion time. Returns the kernel duration.
    ///
    /// Blocks appearing in both lists get both events (read-modify-write).
    ///
    /// # Panics
    ///
    /// Panics if any operand block is not live — that would be a
    /// use-after-free in the executor, which the trace must never contain.
    pub fn launch_kernel(
        &mut self,
        name: &str,
        flops: u64,
        bytes: u64,
        reads: &[BlockId],
        writes: &[BlockId],
    ) -> u64 {
        let label = self.sink.as_sink().intern_label(name);
        let t0 = self.clock.now_ns();
        for &r in reads {
            let (size, offset, kind) = *self
                .live
                .get(&r)
                .unwrap_or_else(|| panic!("kernel {name} reads non-live block {r}"));
            self.record(t0, EventKind::Read, r, size, offset, kind, Some(label));
        }
        let dur = self
            .config
            .cost
            .kernel_time_ns(flops, bytes, self.kernel_seq);
        self.kernel_seq += 1;
        let t1 = self.clock.advance_ns(dur);
        for &w in writes {
            let (size, offset, kind) = *self
                .live
                .get(&w)
                .unwrap_or_else(|| panic!("kernel {name} writes non-live block {w}"));
            self.record(t1, EventKind::Write, w, size, offset, kind, Some(label));
        }
        dur
    }

    /// Copies `bytes` from host to a device block: advances the clock by the
    /// transfer time and records a `Write` on the destination.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not live.
    pub fn h2d(&mut self, bytes: usize, dst: BlockId, op: &str) -> u64 {
        let label = self.sink.as_sink().intern_label(op);
        let dur = self.config.transfer.h2d_time_ns(bytes);
        let t1 = self.clock.advance_ns(dur);
        let (size, offset, kind) = *self
            .live
            .get(&dst)
            .unwrap_or_else(|| panic!("h2d into non-live block {dst}"));
        self.record(t1, EventKind::Write, dst, size, offset, kind, Some(label));
        dur
    }

    /// Copies `bytes` from a device block to the host: records a `Read` at
    /// the start and advances the clock by the transfer time.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not live.
    pub fn d2h(&mut self, bytes: usize, src: BlockId, op: &str) -> u64 {
        let label = self.sink.as_sink().intern_label(op);
        let t0 = self.clock.now_ns();
        let (size, offset, kind) = *self
            .live
            .get(&src)
            .unwrap_or_else(|| panic!("d2h from non-live block {src}"));
        self.record(t0, EventKind::Read, src, size, offset, kind, Some(label));
        let dur = self.config.transfer.d2h_time_ns(bytes);
        self.clock.advance_ns(dur);
        dur
    }

    /// Advances the clock without touching memory (host-side work, sync).
    pub fn idle_ns(&mut self, delta: u64) {
        self.clock.advance_ns(delta);
    }

    /// Adds a boundary marker (e.g. `"iter:3"`).
    pub fn mark(&mut self, label: impl Into<String>) {
        let t = self.clock.now_ns();
        let label = label.into();
        self.sink.as_sink().record_marker(t, &label);
    }

    /// Number of events recorded so far (any sink kind).
    pub fn events_recorded(&mut self) -> u64 {
        self.sink.as_sink().event_count()
    }

    /// Read access to the in-memory trace so far.
    ///
    /// # Panics
    ///
    /// Panics if the device was built with [`SimDevice::with_sink`] — an
    /// external sink owns the events and there is no in-memory trace.
    pub fn trace(&self) -> &Trace {
        match &self.sink {
            DeviceSink::Memory(t) => t,
            DeviceSink::External(_) => {
                panic!("device records into an external trace sink; no in-memory trace")
            }
        }
    }

    /// Consumes the device, returning its in-memory trace.
    ///
    /// # Panics
    ///
    /// Panics if the device was built with [`SimDevice::with_sink`]; use
    /// [`SimDevice::finish_sink`] for externally sunk devices.
    pub fn into_trace(self) -> Trace {
        match self.sink {
            DeviceSink::Memory(t) => t,
            DeviceSink::External(_) => {
                panic!("device records into an external trace sink; no in-memory trace")
            }
        }
    }

    /// Finishes the sink (flushing an external writer's buffered chunks and
    /// footer) and surfaces any deferred I/O error. For in-memory devices
    /// this is a no-op returning `Ok`.
    ///
    /// # Errors
    ///
    /// Returns the sink's first deferred I/O error.
    pub fn finish_sink(&mut self) -> std::io::Result<()> {
        self.sink.as_sink().finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> SimDevice {
        SimDevice::new(DeviceConfig::deterministic())
    }

    #[test]
    fn malloc_free_produce_events() {
        let mut d = dev();
        let b = d.malloc(4096, MemoryKind::Weight, Some("init")).unwrap();
        d.free(b).unwrap();
        let t = d.into_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].kind, EventKind::Malloc);
        assert_eq!(t.events()[1].kind, EventKind::Free);
        assert_eq!(t.events()[0].mem_kind, MemoryKind::Weight);
        t.validate().unwrap();
    }

    #[test]
    fn kernel_reads_precede_writes_in_time() {
        let mut d = dev();
        let x = d.malloc(1024, MemoryKind::Activation, None).unwrap();
        let y = d.malloc(1024, MemoryKind::Activation, None).unwrap();
        d.launch_kernel("relu", 256, 2048, &[x], &[y]);
        let t = d.trace();
        let read = &t.events()[2];
        let write = &t.events()[3];
        assert_eq!(read.kind, EventKind::Read);
        assert_eq!(write.kind, EventKind::Write);
        assert!(write.time_ns > read.time_ns);
        let dur = write.time_ns - read.time_ns;
        assert!((5_000..5_100).contains(&dur), "launch-bound, got {dur}");
    }

    #[test]
    fn read_modify_write_records_both() {
        let mut d = dev();
        let w = d.malloc(1024, MemoryKind::Weight, None).unwrap();
        d.launch_kernel("sgd_step", 512, 2048, &[w], &[w]);
        let kinds: Vec<_> = d.trace().events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Malloc, EventKind::Read, EventKind::Write]
        );
    }

    #[test]
    #[should_panic(expected = "non-live block")]
    fn kernel_on_freed_block_panics() {
        let mut d = dev();
        let x = d.malloc(1024, MemoryKind::Activation, None).unwrap();
        d.free(x).unwrap();
        d.launch_kernel("bad", 0, 0, &[x], &[]);
    }

    #[test]
    fn transfers_advance_clock_by_model_time() {
        let mut d = dev();
        let x = d.malloc(6_300_000, MemoryKind::Input, None).unwrap();
        let t0 = d.now_ns();
        let dur = d.h2d(6_300_000, x, "stage_batch");
        assert_eq!(d.now_ns() - t0, dur);
        // ≈ 1 ms payload + 10 µs latency
        assert!((dur as i64 - 1_010_000).abs() < 1_000);
        let dur2 = d.d2h(6_400_000, x, "fetch_loss");
        assert!((dur2 as i64 - 1_010_000).abs() < 1_000);
        d.trace().validate().unwrap();
    }

    #[test]
    fn markers_carry_current_time() {
        let mut d = dev();
        d.idle_ns(123);
        d.mark("iter:0");
        assert_eq!(d.trace().markers()[0].time_ns, 123);
        assert_eq!(d.trace().markers()[0].label, "iter:0");
    }

    #[test]
    fn policies_build_distinct_allocators() {
        for p in AllocatorPolicy::ALL {
            let a = p.build(1 << 20);
            assert_eq!(a.capacity(), 1 << 20);
        }
        let mut d = SimDevice::new(DeviceConfig {
            allocator: AllocatorPolicy::Bump,
            ..DeviceConfig::deterministic()
        });
        let b1 = d.malloc(512, MemoryKind::Other, None).unwrap();
        let _b2 = d.malloc(512, MemoryKind::Other, None).unwrap();
        d.free(b1).unwrap();
        // bump: freed space not reused while others live
        let b3 = d.malloc(512, MemoryKind::Other, None).unwrap();
        let offs: Vec<_> = d
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Malloc)
            .map(|e| e.offset)
            .collect();
        assert_eq!(offs, vec![0, 512, 1024]);
        let _ = b3;
    }
}
