//! Program executors: replay the compiled iteration through the
//! instrumented device, in concrete (real math) or symbolic (trace-only)
//! mode.

mod concrete;

use crate::graph::{OpKind, TensorId};
use crate::program::Program;
use pinpoint_device::alloc::AllocError;
use pinpoint_device::SimDevice;
use pinpoint_tensor::rng::Rng64;
use pinpoint_trace::{BlockId, MemoryKind};

/// Whether an executor computes real values or only simulates memory/time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Real `f32` math on host shadow buffers (MLP case study, tests).
    Concrete,
    /// Allocator + clock + trace only (big-model sweeps).
    Symbolic,
}

/// One mini-batch of concrete training data.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchData {
    /// Flattened input tensor values (row-major).
    pub input: Vec<f32>,
    /// One label per example, stored as `f32` (cast to class index).
    pub labels: Vec<f32>,
}

/// Per-iteration result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterStats {
    /// Loss value (concrete mode only).
    pub loss: Option<f32>,
    /// Simulated duration of the iteration in nanoseconds.
    pub duration_ns: u64,
}

/// Replays a [`Program`] iteration by iteration through a [`SimDevice`].
///
/// Creating the executor allocates and initializes all persistent storages
/// (weights, optimizer state) on the device — the warm-up mallocs visible at
/// the left edge of the paper's Fig. 2 Gantt chart.
///
/// # Examples
///
/// ```
/// use pinpoint_nn::{GraphBuilder, InitSpec, Program, backward};
/// use pinpoint_nn::exec::{ExecMode, Executor};
/// use pinpoint_device::{DeviceConfig, SimDevice};
///
/// let mut b = GraphBuilder::new();
/// let x = b.input("x", [8, 2]);
/// let y = b.labels("y", 8);
/// let w = b.param("w", [2, 2], InitSpec::Uniform { bound: 0.5 });
/// let h = b.matmul(x, w, false, false, "mm");
/// let (loss, _) = b.softmax_cross_entropy(h, y, "loss");
/// let grads = backward(&mut b, loss);
/// for (p, g) in &grads { b.sgd_step(*p, *g, 0.1, "sgd"); }
/// let program = Program::compile(b.finish(), vec![x, y], loss);
///
/// let device = SimDevice::new(DeviceConfig::deterministic());
/// let mut exec = Executor::new(program, device, ExecMode::Symbolic)?;
/// exec.run_iteration(None)?;
/// assert!(exec.device().trace().len() > 0);
/// # Ok::<(), pinpoint_device::alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct Executor {
    program: Program,
    device: SimDevice,
    mode: ExecMode,
    /// Device block per storage (None = not currently allocated).
    blocks: Vec<Option<BlockId>>,
    /// Host shadow buffers per storage (concrete mode).
    buffers: Vec<Option<Vec<f32>>>,
    storage_sizes: Vec<usize>,
    iter: u64,
    loss_history: Vec<f32>,
    seed: u64,
    /// Worker threads for concrete conv kernels (1 = sequential). Never
    /// affects the trace or the numerics — kernels are bit-identical at
    /// every thread count.
    threads: usize,
    /// Per-op workspace labels, `"{op}.ws"` (empty for ops without one),
    /// and per-input staging labels, `"stage.{input}"`: built once, so
    /// the iteration loop formats nothing.
    ws_labels: Vec<String>,
    stage_labels: Vec<String>,
    /// Per-op operand scratch, reused across ops and iterations.
    reads: Vec<BlockId>,
    writes: Vec<BlockId>,
}

impl Executor {
    /// Builds an executor with the default seed. See [`Executor::with_seed`].
    ///
    /// # Errors
    ///
    /// Propagates device OOM while allocating persistent storages.
    pub fn new(program: Program, device: SimDevice, mode: ExecMode) -> Result<Self, AllocError> {
        Self::with_seed(program, device, mode, 0x5EED)
    }

    /// Builds an executor, allocating and initializing persistent storages
    /// deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates device OOM while allocating persistent storages.
    pub fn with_seed(
        program: Program,
        mut device: SimDevice,
        mode: ExecMode,
        seed: u64,
    ) -> Result<Self, AllocError> {
        let n = program.graph().num_storages();
        let storage_sizes = program.graph().storage_sizes();
        let mut blocks = vec![None; n];
        let mut buffers: Vec<Option<Vec<f32>>> = vec![None; n];
        // allocate + initialize persistent storages
        let owners: Vec<_> = program
            .graph()
            .storage_owners()
            .iter()
            .map(|o| (o.kind, o.name.clone(), o.persistent, o.init))
            .collect();
        for (s, (kind, name, persistent, init)) in owners.iter().enumerate() {
            if !persistent {
                continue;
            }
            let id = device.malloc(storage_sizes[s], *kind, Some(name))?;
            blocks[s] = Some(id);
            device.launch_kernel(
                &format!("init.{name}"),
                0,
                storage_sizes[s] as u64,
                &[],
                &[id],
            );
            if mode == ExecMode::Concrete {
                let mut buf = vec![0.0f32; storage_sizes[s] / 4];
                let mut rng = Rng64::seed_from_u64(seed ^ (s as u64).wrapping_mul(0x9E37));
                if let Some(spec) = init {
                    concrete::fill_init(*spec, &mut buf, &mut rng);
                }
                buffers[s] = Some(buf);
            }
        }
        let graph = program.graph();
        let ws_labels = graph
            .ops()
            .iter()
            .map(|op| {
                if op.workspace_bytes > 0 {
                    format!("{}.ws", op.name)
                } else {
                    String::new()
                }
            })
            .collect();
        let stage_labels = program
            .inputs()
            .iter()
            .map(|&t| format!("stage.{}", graph.tensor(t).name))
            .collect();
        Ok(Executor {
            program,
            device,
            mode,
            blocks,
            buffers,
            storage_sizes,
            iter: 0,
            loss_history: Vec::new(),
            seed,
            threads: 1,
            ws_labels,
            stage_labels,
            reads: Vec::new(),
            writes: Vec::new(),
        })
    }

    /// Sets the worker-thread budget for concrete conv kernels. Zero is
    /// clamped to one. Results stay bit-identical at every count.
    pub fn set_threads(&mut self, n: usize) {
        self.threads = n.max(1);
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The device (and its trace so far).
    pub fn device(&self) -> &SimDevice {
        &self.device
    }

    /// Mutable device access, for drivers that interleave extra work
    /// (e.g. a per-epoch evaluation buffer) with training iterations.
    pub fn device_mut(&mut self) -> &mut SimDevice {
        &mut self.device
    }

    /// Losses of all concrete iterations so far.
    pub fn loss_history(&self) -> &[f32] {
        &self.loss_history
    }

    /// Number of iterations run.
    pub fn iterations_run(&self) -> u64 {
        self.iter
    }

    /// Consumes the executor, returning the device (with its full trace).
    pub fn into_device(self) -> SimDevice {
        self.device
    }

    /// A copy of a parameter's current values (concrete mode).
    pub fn param_values(&self, t: TensorId) -> Option<Vec<f32>> {
        let s = self.program.graph().tensor(t).storage.0;
        self.buffers[s].clone()
    }

    /// Runs one training iteration.
    ///
    /// In concrete mode `batch` must be `Some` and its lengths must match
    /// the program's input shapes; in symbolic mode it is ignored.
    ///
    /// # Errors
    ///
    /// Propagates device OOM.
    ///
    /// # Panics
    ///
    /// Panics in concrete mode when `batch` is missing or mis-sized.
    pub fn run_iteration(&mut self, batch: Option<&BatchData>) -> Result<IterStats, AllocError> {
        let _span = pinpoint_obs::tracer().span_with("exec.iteration", self.iter);
        let Executor {
            program,
            device,
            mode,
            blocks,
            buffers,
            storage_sizes,
            iter,
            loss_history,
            seed,
            threads,
            ws_labels,
            stage_labels,
            reads,
            writes,
        } = self;
        let concrete = *mode == ExecMode::Concrete;
        let graph = program.graph();
        let t_start = device.now_ns();
        device.mark(format!("iter:{iter}"));
        // stage inputs host→device
        for (idx, &t) in program.inputs().iter().enumerate() {
            let meta = graph.tensor(t);
            let s = meta.storage;
            let size = storage_sizes[s.0];
            let id = device.malloc(size, MemoryKind::Input, Some(&meta.name))?;
            blocks[s.0] = Some(id);
            device.h2d(size, id, &stage_labels[idx]);
            if concrete {
                let batch = batch.expect("concrete execution needs batch data");
                let data = match idx {
                    0 => &batch.input,
                    1 => &batch.labels,
                    _ => panic!("concrete mode supports (input, labels) staging"),
                };
                assert_eq!(
                    data.len(),
                    size / 4,
                    "batch field {idx} has {} values, expected {}",
                    data.len(),
                    size / 4
                );
                buffers[s.0] = Some(data.clone());
            }
        }
        let loss_storage = graph.tensor(program.loss()).storage;
        let liveness = program.liveness();
        let mut iter_loss = None;
        // replay the tape
        for (j, op) in graph.ops().iter().enumerate() {
            if matches!(op.kind, OpKind::View) {
                continue;
            }
            // first-definition mallocs
            for &out in &op.outputs {
                let meta = graph.tensor(out);
                let s = meta.storage.0;
                if blocks[s].is_none() {
                    debug_assert!(!meta.persistent, "persistent storages pre-allocated");
                    let id = device.malloc(storage_sizes[s], meta.kind, Some(&meta.name))?;
                    blocks[s] = Some(id);
                    if concrete && buffers[s].is_none() {
                        buffers[s] = Some(vec![0.0f32; storage_sizes[s] / 4]);
                    }
                }
            }
            // transient workspace
            let ws = if op.workspace_bytes > 0 {
                Some(device.malloc(
                    op.workspace_bytes,
                    MemoryKind::Workspace,
                    Some(&ws_labels[j]),
                )?)
            } else {
                None
            };
            // operand event lists (dedup per block)
            reads.clear();
            for &t in &op.inputs {
                let id = blocks[graph.tensor(t).storage.0]
                    .unwrap_or_else(|| panic!("op {} reads unallocated {}", op.name, t.0));
                if !reads.contains(&id) {
                    reads.push(id);
                }
            }
            writes.clear();
            for &t in &op.outputs {
                let id = blocks[graph.tensor(t).storage.0].expect("output allocated above");
                if !writes.contains(&id) {
                    writes.push(id);
                }
            }
            if let Some(ws) = ws {
                reads.push(ws);
                writes.push(ws);
            }
            device.launch_kernel(&op.name, op.flops, op.bytes, reads, writes);
            if let Some(ws) = ws {
                device.free(ws)?;
            }
            if concrete {
                let op_seed = seed
                    .wrapping_add(iter.wrapping_mul(1_000_003))
                    .wrapping_add(j as u64);
                if let Some(loss) =
                    concrete::dispatch(op, graph, buffers, op_seed, *iter + 1, *threads)
                {
                    iter_loss = Some(loss);
                }
            }
            // liveness frees
            for &s in liveness.frees_after(j) {
                if let Some(id) = blocks[s.0].take() {
                    device.free(id)?;
                }
            }
        }
        // fetch the program output (the loss scalar, or the logits of a
        // forward-only program) and release it
        if let Some(loss_block) = blocks[loss_storage.0].take() {
            let bytes = storage_sizes[loss_storage.0];
            device.d2h(bytes, loss_block, "fetch_output");
            device.free(loss_block)?;
        }
        // safety net: nothing non-persistent may survive the iteration
        for (s, blk) in blocks.iter_mut().enumerate() {
            if blk.is_some() && !liveness.persistent[s] {
                let id = blk.take().expect("checked above");
                device.free(id)?;
            }
        }
        if let Some(l) = iter_loss {
            loss_history.push(l);
        }
        *iter += 1;
        Ok(IterStats {
            loss: iter_loss,
            duration_ns: device.now_ns() - t_start,
        })
    }

    /// Runs `n` symbolic iterations (convenience for sweeps).
    ///
    /// # Errors
    ///
    /// Propagates device OOM.
    pub fn run_iterations(&mut self, n: usize) -> Result<(), AllocError> {
        for _ in 0..n {
            self.run_iteration(None)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::backward;
    use crate::builder::GraphBuilder;
    use crate::graph::InitSpec;
    use pinpoint_device::DeviceConfig;
    use pinpoint_trace::EventKind;

    fn mlp_program(batch: usize, hidden: usize) -> Program {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [batch, 2]);
        let y = b.labels("y", batch);
        let w0 = b.param("w0", [2, hidden], InitSpec::Uniform { bound: 1.0 });
        let b0 = b.param("b0", [hidden], InitSpec::Zeros);
        let w1 = b.param("w1", [hidden, 2], InitSpec::Uniform { bound: 0.3 });
        let b1 = b.param("b1", [2], InitSpec::Zeros);
        let h = b.matmul(x, w0, false, false, "fc0.matmul");
        let h = b.add_bias(h, b0, "fc0.bias");
        let h = b.relu(h, "fc0.relu");
        let l = b.matmul(h, w1, false, false, "fc1.matmul");
        let l = b.add_bias(l, b1, "fc1.bias");
        let (loss, _) = b.softmax_cross_entropy(l, y, "loss");
        let grads = backward(&mut b, loss);
        for (p, g) in &grads {
            b.sgd_step(*p, *g, 0.5, "sgd");
        }
        Program::compile(b.finish(), vec![x, y], loss)
    }

    fn two_blobs(batch: usize, iter: u64) -> BatchData {
        // class 0 near (-1, -1), class 1 near (1, 1); deterministic
        let mut input = Vec::with_capacity(batch * 2);
        let mut labels = Vec::with_capacity(batch);
        for i in 0..batch {
            let c = (i + iter as usize) % 2;
            let center = if c == 0 { -1.0 } else { 1.0 };
            let jitter = ((i as f32 * 12.9898 + iter as f32 * 78.233).sin() * 43758.5) % 0.5;
            input.push(center + jitter * 0.2);
            input.push(center - jitter * 0.2);
            labels.push(c as f32);
        }
        BatchData { input, labels }
    }

    #[test]
    fn symbolic_iterations_produce_valid_trace() {
        let p = mlp_program(128, 64);
        let dev = SimDevice::new(DeviceConfig::deterministic());
        let mut exec = Executor::new(p, dev, ExecMode::Symbolic).unwrap();
        exec.run_iterations(5).unwrap();
        let dev = exec.into_device();
        dev.trace().validate().unwrap();
        assert_eq!(dev.trace().markers().len(), 5);
        // no non-persistent memory leaks: live bytes after == persistent bytes
        let stats = dev.alloc_stats();
        assert!(stats.allocated_bytes > 0);
        // only the four persistent parameters remain live
        assert_eq!(stats.num_mallocs - stats.num_frees, 4);
    }

    #[test]
    fn steady_state_iterations_have_identical_event_shape() {
        let p = mlp_program(64, 32);
        let dev = SimDevice::new(DeviceConfig::deterministic());
        let mut exec = Executor::new(p, dev, ExecMode::Symbolic).unwrap();
        exec.run_iterations(4).unwrap();
        let dev = exec.into_device();
        let trace = dev.trace();
        // slice events per iteration marker and compare (kind, size, offset)
        let per_iter: Vec<Vec<(EventKind, usize, usize)>> = (0..trace.markers().len())
            .map(|i| {
                trace
                    .events_of_marker(i)
                    .iter()
                    .map(|e| (e.kind, e.size, e.offset))
                    .collect()
            })
            .collect();
        // iterations 1.. are identical; iteration 0 may include warm-up
        for w in per_iter[1..].windows(2) {
            assert_eq!(w[0], w[1], "steady-state iterations must repeat exactly");
        }
    }

    #[test]
    fn concrete_training_reduces_loss_on_separable_blobs() {
        let batch = 32;
        let p = mlp_program(batch, 16);
        let dev = SimDevice::new(DeviceConfig::deterministic());
        let mut exec = Executor::new(p, dev, ExecMode::Concrete).unwrap();
        for i in 0..30 {
            let b = two_blobs(batch, i);
            exec.run_iteration(Some(&b)).unwrap();
        }
        let hist = exec.loss_history();
        assert_eq!(hist.len(), 30);
        let first = hist[0];
        let last = *hist.last().unwrap();
        assert!(
            last < first * 0.5,
            "loss should drop on separable data: {first} -> {last}"
        );
        assert!(last.is_finite());
    }

    #[test]
    fn concrete_and_symbolic_traces_match() {
        let make = || {
            let p = mlp_program(16, 8);
            SimDevice::new(DeviceConfig::deterministic());
            p
        };
        let dev1 = SimDevice::new(DeviceConfig::deterministic());
        let mut e1 = Executor::new(make(), dev1, ExecMode::Symbolic).unwrap();
        e1.run_iterations(3).unwrap();
        let dev2 = SimDevice::new(DeviceConfig::deterministic());
        let mut e2 = Executor::new(make(), dev2, ExecMode::Concrete).unwrap();
        for i in 0..3 {
            e2.run_iteration(Some(&two_blobs(16, i))).unwrap();
        }
        let t1 = e1.into_device().into_trace();
        let t2 = e2.into_device().into_trace();
        assert_eq!(t1.len(), t2.len());
        for (a, b) in t1.events().iter().zip(t2.events()) {
            assert_eq!(a, b, "symbolic and concrete traces must be identical");
        }
    }

    #[test]
    fn duration_is_positive_and_stable() {
        let p = mlp_program(128, 12288);
        let dev = SimDevice::new(DeviceConfig::deterministic());
        let mut exec = Executor::new(p, dev, ExecMode::Symbolic).unwrap();
        let s1 = exec.run_iteration(None).unwrap();
        let s2 = exec.run_iteration(None).unwrap();
        assert!(s1.duration_ns > 0);
        // deterministic cost model + same tape → very similar durations
        let ratio = s1.duration_ns as f64 / s2.duration_ns as f64;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }
}
