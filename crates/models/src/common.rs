//! The architecture registry and one-call training-program builder.

use crate::{alexnet, densenet, inception, lenet, mlp, mobilenet, resnet, vgg};
use pinpoint_nn::{backward, GraphBuilder, Optimizer, Program};

pub use crate::densenet::DenseNetDepth;
pub use crate::mlp::MlpConfig;
pub use crate::resnet::ResNetDepth;

/// Input image geometry (per example, NCHW without the batch dim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageDims {
    /// Channels.
    pub channels: usize,
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
}

impl ImageDims {
    /// CIFAR-style 3×32×32.
    pub fn cifar() -> Self {
        ImageDims {
            channels: 3,
            height: 32,
            width: 32,
        }
    }

    /// ImageNet-style 3×224×224.
    pub fn imagenet() -> Self {
        ImageDims {
            channels: 3,
            height: 224,
            width: 224,
        }
    }

    /// Values per example.
    pub fn numel(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// Every architecture the reproduction evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Architecture {
    /// The paper's Fig. 1 MLP (ignores image dims; uses its own feature
    /// count and class count).
    Mlp(MlpConfig),
    /// LeNet-5.
    LeNet5,
    /// AlexNet (geometry adapts to input size).
    AlexNet,
    /// VGG-16.
    Vgg16,
    /// ResNet at the given depth.
    ResNet(ResNetDepth),
    /// Inception-style multi-branch net.
    Inception,
    /// DenseNet-BC at the given depth (concatenation-heavy feature reuse).
    DenseNet(DenseNetDepth),
    /// MobileNetV1 (depthwise-separable convolutions).
    MobileNetV1,
}

impl Architecture {
    /// Display name, e.g. `"alexnet"` or `"resnet50"`.
    pub fn name(&self) -> String {
        match self {
            Architecture::Mlp(_) => "mlp".to_string(),
            Architecture::LeNet5 => "lenet5".to_string(),
            Architecture::AlexNet => "alexnet".to_string(),
            Architecture::Vgg16 => "vgg16".to_string(),
            Architecture::ResNet(d) => d.name().to_string(),
            Architecture::Inception => "inception".to_string(),
            Architecture::DenseNet(d) => d.name().to_string(),
            Architecture::MobileNetV1 => "mobilenet_v1".to_string(),
        }
    }

    /// Whether the dataflow is a straight chain (the paper's
    /// linear/non-linear distinction after Yang & Cheng \[6\]).
    pub fn is_linear_topology(&self) -> bool {
        matches!(
            self,
            Architecture::Mlp(_)
                | Architecture::LeNet5
                | Architecture::AlexNet
                | Architecture::Vgg16
                | Architecture::MobileNetV1
        )
    }
}

/// Builds the full training-iteration [`Program`] for an architecture:
/// forward, fused loss, autograd backward, and one optimizer step.
///
/// `image`/`classes` configure the conv nets; the MLP carries its own
/// feature and class counts in its config.
///
/// # Examples
///
/// ```
/// use pinpoint_models::{build_training_program, Architecture, ImageDims, MlpConfig};
/// use pinpoint_nn::Optimizer;
///
/// let program = build_training_program(
///     &Architecture::Mlp(MlpConfig::default()),
///     128,
///     ImageDims::cifar(),
///     100,
///     Optimizer::Sgd { lr: 0.01 },
/// );
/// assert!(program.summary().total_flops > 0);
/// ```
pub fn build_training_program(
    arch: &Architecture,
    batch: usize,
    image: ImageDims,
    classes: usize,
    opt: Optimizer,
) -> Program {
    let (graph, inputs, loss) = build_training_graph(arch, batch, image, classes, opt);
    Program::compile(graph, inputs, loss)
}

/// Data-parallel training configuration (DDP-style fused-bucket
/// all-reduce).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdpSpec {
    /// Number of replicas.
    pub world_size: usize,
    /// Gradient-fusion bucket size in bytes (PyTorch DDP default: 25 MB).
    pub bucket_bytes: usize,
    /// All-reduce interconnect bandwidth, bytes/s (e.g. PCIe ~12 GB/s
    /// effective, NVLink ~50 GB/s per direction).
    pub interconnect_bytes_per_sec: f64,
    /// The device cost model's DRAM bandwidth, used to express wire time
    /// in the cost model's units.
    pub dram_bytes_per_sec: f64,
}

impl DdpSpec {
    /// PCIe-interconnect defaults at the given world size, matched to the
    /// Titan-X-Pascal cost model.
    pub fn pcie(world_size: usize) -> Self {
        DdpSpec {
            world_size,
            bucket_bytes: 25 << 20,
            interconnect_bytes_per_sec: 12e9,
            dram_bytes_per_sec: 480e9,
        }
    }
}

/// Builds a data-parallel training program: forward, loss, backward, fused
/// per-bucket gradient all-reduce (rank-0 view; replicas are symmetric),
/// then the optimizer step.
///
/// With `world_size == 1` no all-reduce ops are emitted (the wire term is
/// zero), so the program degenerates to [`build_training_program`].
pub fn build_data_parallel_training_program(
    arch: &Architecture,
    batch: usize,
    image: ImageDims,
    classes: usize,
    opt: Optimizer,
    ddp: &DdpSpec,
) -> Program {
    let mut b = GraphBuilder::new();
    let (x, logits) = build_forward(&mut b, arch, batch, image, classes);
    let batch_of = |id| b.shape(id).dim(0);
    let y = b.labels("y", batch_of(logits));
    let (loss, _probs) = b.softmax_cross_entropy(logits, y, "loss");
    let grads = backward(&mut b, loss);
    if ddp.world_size > 1 {
        // fuse gradients into buckets in (reverse) parameter order, as DDP
        // does while the backward pass produces them
        let mut bucket: Vec<pinpoint_nn::TensorId> = Vec::new();
        let mut bucket_bytes = 0usize;
        let mut bucket_idx = 0usize;
        let flush =
            |b: &mut GraphBuilder, bucket: &mut Vec<pinpoint_nn::TensorId>, idx: &mut usize| {
                if !bucket.is_empty() {
                    b.allreduce(
                        bucket,
                        ddp.world_size,
                        ddp.interconnect_bytes_per_sec,
                        ddp.dram_bytes_per_sec,
                        &format!("ddp.allreduce{idx}", idx = *idx),
                    );
                    *idx += 1;
                    bucket.clear();
                }
            };
        for (_, &g) in grads.iter().rev() {
            bucket_bytes += b.shape(g).numel() * 4;
            bucket.push(g);
            if bucket_bytes >= ddp.bucket_bytes {
                flush(&mut b, &mut bucket, &mut bucket_idx);
                bucket_bytes = 0;
            }
        }
        flush(&mut b, &mut bucket, &mut bucket_idx);
    }
    opt.emit_step(&mut b, &grads);
    Program::compile(b.finish(), vec![x, y], loss)
}

/// Like [`build_training_program`] but returns the raw graph plus its
/// interface tensors, for callers that apply tape transformations (e.g.
/// [`pinpoint_nn::checkpoint::apply_checkpointing`]) before compiling.
pub fn build_training_graph(
    arch: &Architecture,
    batch: usize,
    image: ImageDims,
    classes: usize,
    opt: Optimizer,
) -> (
    pinpoint_nn::Graph,
    Vec<pinpoint_nn::TensorId>,
    pinpoint_nn::TensorId,
) {
    let mut b = GraphBuilder::new();
    let (x, logits) = build_forward(&mut b, arch, batch, image, classes);
    let batch_of = |id| b.shape(id).dim(0);
    let y = b.labels("y", batch_of(logits));
    let (loss, _probs) = b.softmax_cross_entropy(logits, y, "loss");
    let grads = backward(&mut b, loss);
    opt.emit_step(&mut b, &grads);
    (b.finish(), vec![x, y], loss)
}

/// Builds a **forward-only** program: the same architecture, no loss, no
/// backward, no optimizer; the logits are fetched back to the host.
///
/// This is the forward slice of the training iteration — since nothing is
/// kept for a backward pass, activations die at their last forward use, so
/// the footprint gap to [`build_training_program`] measures exactly what
/// training's saved intermediates cost. (Layers stay in training mode:
/// batch-norm uses batch statistics and dropout still allocates its mask,
/// so this is a memory model of inference, not a numerics-exact eval mode.)
pub fn build_forward_program(
    arch: &Architecture,
    batch: usize,
    image: ImageDims,
    classes: usize,
) -> Program {
    let mut b = GraphBuilder::new();
    let (x, logits) = build_forward(&mut b, arch, batch, image, classes);
    Program::compile(b.finish(), vec![x], logits)
}

fn build_forward(
    b: &mut GraphBuilder,
    arch: &Architecture,
    batch: usize,
    image: ImageDims,
    classes: usize,
) -> (pinpoint_nn::TensorId, pinpoint_nn::TensorId) {
    match arch {
        Architecture::Mlp(cfg) => {
            let x = b.input("x", [batch, cfg.in_features]);
            let logits = mlp::forward(b, x, cfg);
            (x, logits)
        }
        _ => {
            let x = b.input("x", [batch, image.channels, image.height, image.width]);
            let logits = match arch {
                Architecture::LeNet5 => lenet::forward(b, x, classes),
                Architecture::AlexNet => alexnet::forward(b, x, classes),
                Architecture::Vgg16 => vgg::forward(b, x, classes),
                Architecture::ResNet(d) => resnet::forward(b, x, *d, classes),
                Architecture::Inception => inception::forward(b, x, classes),
                Architecture::DenseNet(d) => densenet::forward(b, x, *d, classes),
                Architecture::MobileNetV1 => mobilenet::forward(b, x, classes),
                Architecture::Mlp(_) => unreachable!(),
            };
            (x, logits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_architecture_compiles_to_a_program() {
        let archs = [
            Architecture::Mlp(MlpConfig::default()),
            Architecture::LeNet5,
            Architecture::AlexNet,
            Architecture::Vgg16,
            Architecture::ResNet(ResNetDepth::R18),
            Architecture::Inception,
        ];
        for arch in archs {
            let p = build_training_program(
                &arch,
                4,
                ImageDims::cifar(),
                100,
                Optimizer::Sgd { lr: 0.1 },
            );
            assert!(
                p.summary().num_ops > 0,
                "{} produced an empty program",
                arch.name()
            );
            assert!(!p.params().is_empty(), "{} has no params", arch.name());
        }
    }

    #[test]
    fn topology_classification_matches_the_paper() {
        assert!(Architecture::AlexNet.is_linear_topology());
        assert!(Architecture::Vgg16.is_linear_topology());
        assert!(!Architecture::ResNet(ResNetDepth::R50).is_linear_topology());
        assert!(!Architecture::Inception.is_linear_topology());
    }

    #[test]
    fn momentum_optimizer_adds_state_bytes() {
        let arch = Architecture::LeNet5;
        let plain =
            build_training_program(&arch, 4, ImageDims::cifar(), 10, Optimizer::Sgd { lr: 0.1 });
        let with_momentum = build_training_program(
            &arch,
            4,
            ImageDims::cifar(),
            10,
            Optimizer::SgdMomentum { lr: 0.1, mu: 0.9 },
        );
        assert_eq!(plain.summary().optimizer_state_bytes, 0);
        assert_eq!(
            with_momentum.summary().optimizer_state_bytes,
            with_momentum.summary().weight_bytes
        );
    }

    #[test]
    fn ddp_world_one_emits_no_allreduce() {
        let p = build_data_parallel_training_program(
            &Architecture::LeNet5,
            4,
            ImageDims::cifar(),
            10,
            Optimizer::Sgd { lr: 0.1 },
            &DdpSpec::pcie(1),
        );
        assert!(!p
            .graph()
            .ops()
            .iter()
            .any(|o| matches!(o.kind, pinpoint_nn::OpKind::AllReduce { .. })));
    }

    #[test]
    fn ddp_buckets_cover_every_gradient_once() {
        let ddp = DdpSpec {
            bucket_bytes: 64 << 10, // small buckets → several all-reduces
            ..DdpSpec::pcie(4)
        };
        let p = build_data_parallel_training_program(
            &Architecture::LeNet5,
            4,
            ImageDims::cifar(),
            10,
            Optimizer::Sgd { lr: 0.1 },
            &ddp,
        );
        let allreduces: Vec<_> = p
            .graph()
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, pinpoint_nn::OpKind::AllReduce { .. }))
            .collect();
        assert!(allreduces.len() >= 2, "LeNet grads should span buckets");
        let bucketed: usize = allreduces.iter().map(|o| o.inputs.len()).sum();
        // every parameter's gradient is reduced exactly once
        assert_eq!(bucketed, p.params().len());
        // all-reduce happens before any optimizer step
        let first_step = p
            .graph()
            .ops()
            .iter()
            .position(|o| matches!(o.kind, pinpoint_nn::OpKind::SgdStep { .. }))
            .unwrap();
        let last_ar = p
            .graph()
            .ops()
            .iter()
            .rposition(|o| matches!(o.kind, pinpoint_nn::OpKind::AllReduce { .. }))
            .unwrap();
        assert!(last_ar < first_step);
    }

    #[test]
    fn bigger_batch_multiplies_activation_bytes() {
        let arch = Architecture::AlexNet;
        let p32 = build_training_program(
            &arch,
            32,
            ImageDims::cifar(),
            100,
            Optimizer::Sgd { lr: 0.1 },
        );
        let p256 = build_training_program(
            &arch,
            256,
            ImageDims::cifar(),
            100,
            Optimizer::Sgd { lr: 0.1 },
        );
        let (a32, a256) = (
            p32.summary().activation_bytes,
            p256.summary().activation_bytes,
        );
        let ratio = a256 as f64 / a32 as f64;
        assert!((7.0..9.0).contains(&ratio), "ratio {ratio}");
        // while weights are batch-independent
        assert_eq!(p32.summary().weight_bytes, p256.summary().weight_bytes);
    }
}
