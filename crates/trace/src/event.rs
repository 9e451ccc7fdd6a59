//! Memory-behavior events: the unit of observation in the paper.
//!
//! The paper instruments PyTorch's device-memory allocators so that every
//! block is observed through four behaviors: `malloc`, `free`, `read`,
//! `write`. [`MemEvent`] is our record of one such behavior.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identity of a device memory block.
///
/// A fresh id is minted at every successful `malloc`, even if the allocator
/// hands back a cached region at a previously used address — the paper's
/// unit of analysis is the *block* (one allocation lifetime), not the
/// address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u64);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// A hash map keyed by [`BlockId`], for the per-event lookups of the
/// instrumented device and its allocator.
///
/// Block ids are minted sequentially, so one multiply by an odd constant
/// spreads them over the table: the low bits stay a permutation of the
/// id's low bits, and the high bits mix. That is far cheaper than the
/// default SipHash, which guards against keys crafted to collide. Ids an
/// allocator mints cannot be crafted; keep the default hasher for ids
/// read from a file.
pub type BlockMap<V> = HashMap<BlockId, V, BuildHasherDefault<BlockIdHasher>>;

/// The one-multiply hasher behind [`BlockMap`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockIdHasher(u64);

impl Hasher for BlockIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The four memory behaviors the paper traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Block allocation by the runtime's device allocator.
    Malloc,
    /// Block release back to the allocator.
    Free,
    /// A kernel consumed the block as an input operand.
    Read,
    /// A kernel produced or mutated the block.
    Write,
}

impl EventKind {
    /// True for `Read`/`Write` (an *access*, in the paper's ATI sense).
    pub fn is_access(self) -> bool {
        matches!(self, EventKind::Read | EventKind::Write)
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::Malloc => "malloc",
            EventKind::Free => "free",
            EventKind::Read => "read",
            EventKind::Write => "write",
        };
        f.write_str(s)
    }
}

/// What a block stores, at the resolution the simulator tags allocations.
///
/// The paper's breakdown (Figs. 5–7) uses three coarse categories; this enum
/// keeps finer distinctions so the mapping can be studied (see
/// [`MemoryKind::category`] and `pinpoint-analysis`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// Mini-batch input data staged on the device.
    Input,
    /// Trainable weights and biases.
    Weight,
    /// Gradients of trainable weights.
    WeightGrad,
    /// Optimizer state (momentum buffers, etc.).
    OptimizerState,
    /// Forward intermediate results (activations).
    Activation,
    /// Backward intermediate results (activation gradients).
    ActivationGrad,
    /// Scratch space private to one kernel (im2col buffers, etc.).
    Workspace,
    /// Anything else (evaluation/staging buffers, metrics, ...).
    Other,
}

impl MemoryKind {
    /// Maps to the paper's three-way breakdown using the default mapping
    /// (parameter-adjacent storage counts as parameters).
    pub fn category(self) -> Category {
        match self {
            MemoryKind::Input => Category::InputData,
            MemoryKind::Weight | MemoryKind::WeightGrad | MemoryKind::OptimizerState => {
                Category::Parameters
            }
            MemoryKind::Activation
            | MemoryKind::ActivationGrad
            | MemoryKind::Workspace
            | MemoryKind::Other => Category::Intermediates,
        }
    }
}

impl fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryKind::Input => "input",
            MemoryKind::Weight => "weight",
            MemoryKind::WeightGrad => "weight_grad",
            MemoryKind::OptimizerState => "optimizer_state",
            MemoryKind::Activation => "activation",
            MemoryKind::ActivationGrad => "activation_grad",
            MemoryKind::Workspace => "workspace",
            MemoryKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// The paper's three memory-content categories (Figs. 5–7, after \[12\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Mini-batch input data.
    InputData,
    /// Model parameters (weights; by default also their gradients and
    /// optimizer state).
    Parameters,
    /// Intermediate results (activations, their gradients, workspaces).
    Intermediates,
}

impl Category {
    /// All categories, in presentation order.
    pub const ALL: [Category; 3] = [
        Category::InputData,
        Category::Parameters,
        Category::Intermediates,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::InputData => "input data",
            Category::Parameters => "parameters",
            Category::Intermediates => "intermediate results",
        };
        f.write_str(s)
    }
}

/// One observed memory behavior of one device memory block.
#[derive(Debug, Clone, PartialEq)]
pub struct MemEvent {
    /// Simulated device time, nanoseconds since trace start.
    pub time_ns: u64,
    /// Which behavior occurred.
    pub kind: EventKind,
    /// The block the behavior applies to.
    pub block: BlockId,
    /// Block size in bytes (as requested at malloc).
    pub size: usize,
    /// Device-address-space offset of the block (for the Gantt y-axis).
    pub offset: usize,
    /// What the block stores.
    pub mem_kind: MemoryKind,
    /// Index into the trace's op-label table of the kernel responsible, if
    /// any (mallocs triggered by an op also carry it).
    pub op_label: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_map_finds_what_it_holds() {
        let mut m: BlockMap<usize> = BlockMap::default();
        for i in 0..1000u64 {
            m.insert(BlockId(i * 3), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&BlockId(2997)), Some(&999));
        assert_eq!(m.get(&BlockId(1)), None);
        assert_eq!(m.remove(&BlockId(0)), Some(0));
    }

    #[test]
    fn access_classification() {
        assert!(EventKind::Read.is_access());
        assert!(EventKind::Write.is_access());
        assert!(!EventKind::Malloc.is_access());
        assert!(!EventKind::Free.is_access());
    }

    #[test]
    fn default_category_mapping() {
        assert_eq!(MemoryKind::Input.category(), Category::InputData);
        assert_eq!(MemoryKind::Weight.category(), Category::Parameters);
        assert_eq!(MemoryKind::WeightGrad.category(), Category::Parameters);
        assert_eq!(MemoryKind::OptimizerState.category(), Category::Parameters);
        assert_eq!(MemoryKind::Activation.category(), Category::Intermediates);
        assert_eq!(
            MemoryKind::ActivationGrad.category(),
            Category::Intermediates
        );
        assert_eq!(MemoryKind::Workspace.category(), Category::Intermediates);
        assert_eq!(MemoryKind::Other.category(), Category::Intermediates);
    }

    #[test]
    fn displays_are_lowercase_words() {
        assert_eq!(EventKind::Malloc.to_string(), "malloc");
        assert_eq!(MemoryKind::WeightGrad.to_string(), "weight_grad");
        assert_eq!(Category::Intermediates.to_string(), "intermediate results");
        assert_eq!(BlockId(7).to_string(), "blk7");
    }

    #[test]
    fn event_json_round_trip() {
        let e = MemEvent {
            time_ns: 123,
            kind: EventKind::Write,
            block: BlockId(5),
            size: 4096,
            offset: 512,
            mem_kind: MemoryKind::Activation,
            op_label: Some(2),
        };
        let mut t = crate::Trace::new();
        t.intern_label("a");
        t.intern_label("b");
        t.intern_label("op");
        t.push(e.clone());
        let mut buf = Vec::new();
        crate::export::write_json(&t, &mut buf).unwrap();
        let back = crate::export::read_json(&buf[..]).unwrap();
        assert_eq!(back.events(), &[e]);
    }
}
