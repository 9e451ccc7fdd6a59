//! Concrete CPU kernels backing the simulator's graph ops.
//!
//! Each submodule mirrors a family of graph ops in `pinpoint-nn`:
//!
//! * [`matmul`] — dense GEMM with transpose flags
//! * [`elementwise`] — activations, bias broadcast, SGD updates
//! * [`reduce`] — sums, argmax, accuracy
//! * [`softmax`] — fused softmax-cross-entropy
//! * [`conv`] — im2col 2-D convolution
//! * [`pool`] — max/avg/global-avg pooling
//! * [`norm`] — batch normalization
//! * [`concat`](mod@concat) — channel concatenation / split (Inception merges)
//! * [`depthwise`] — depthwise convolution (MobileNet)
//! * [`optim`] — Adam and decoupled weight decay

pub mod concat;
pub mod conv;
pub mod depthwise;
pub mod elementwise;
pub mod matmul;
pub mod norm;
pub mod optim;
pub mod pool;
pub mod reduce;
pub mod softmax;
