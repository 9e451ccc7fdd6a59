//! GoogLeNet-style Inception network with true channel concatenation.
//!
//! The paper's introduction motivates memory pressure with the Inception
//! family (Inception-V4 "requests up to 45 GB of device memory" \[6\]); this
//! model reproduces the family's memory-relevant structure: four parallel
//! branches per block (1×1, 1×1→3×3, 1×1→double-3×3, pool→1×1) whose
//! outputs are all live simultaneously until the channel concat. Widths
//! follow GoogLeNet (Szegedy et al.); the 5×5 branch uses the standard
//! double-3×3 factorization.

use pinpoint_nn::layers::{Conv2d, Linear};
use pinpoint_nn::{GraphBuilder, TensorId};

#[allow(clippy::too_many_arguments)]
fn conv_relu(
    b: &mut GraphBuilder,
    name: &str,
    x: TensorId,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> TensorId {
    let conv = Conv2d::new(b, &format!("{name}.conv"), in_ch, out_ch, k, stride, pad);
    let h = conv.forward(b, x);
    b.relu(h, &format!("{name}.relu"))
}

/// Widths of one inception block: `(b1, b3_reduce, b3, b5_reduce, b5,
/// pool_proj)`. Output channels = `b1 + b3 + b5 + pool_proj`.
type BlockWidths = (usize, usize, usize, usize, usize, usize);

fn inception_block(
    b: &mut GraphBuilder,
    name: &str,
    x: TensorId,
    in_ch: usize,
    w: BlockWidths,
) -> (TensorId, usize) {
    let (b1, b3r, b3, b5r, b5, pp) = w;
    let branch1 = conv_relu(b, &format!("{name}.b1"), x, in_ch, b1, 1, 1, 0);
    let branch3 = {
        let r = conv_relu(b, &format!("{name}.b3.reduce"), x, in_ch, b3r, 1, 1, 0);
        conv_relu(b, &format!("{name}.b3"), r, b3r, b3, 3, 1, 1)
    };
    let branch5 = {
        let r = conv_relu(b, &format!("{name}.b5.reduce"), x, in_ch, b5r, 1, 1, 0);
        let m = conv_relu(b, &format!("{name}.b5.a"), r, b5r, b5, 3, 1, 1);
        conv_relu(b, &format!("{name}.b5.b"), m, b5, b5, 3, 1, 1)
    };
    let branch_pool = {
        let p = b.maxpool2d(x, 3, 1, 1, &format!("{name}.pool"));
        conv_relu(b, &format!("{name}.pool_proj"), p, in_ch, pp, 1, 1, 0)
    };
    let out = b.concat_channels(
        &[branch1, branch3, branch5, branch_pool],
        &format!("{name}.concat"),
    );
    (out, b1 + b3 + b5 + pp)
}

/// GoogLeNet's nine inception blocks, grouped by stage.
const STAGE3: [BlockWidths; 2] = [(64, 96, 128, 16, 32, 32), (128, 128, 192, 32, 96, 64)];
const STAGE4: [BlockWidths; 5] = [
    (192, 96, 208, 16, 48, 64),
    (160, 112, 224, 24, 64, 64),
    (128, 128, 256, 24, 64, 64),
    (112, 144, 288, 32, 64, 64),
    (256, 160, 320, 32, 128, 128),
];
const STAGE5: [BlockWidths; 2] = [(256, 160, 320, 32, 128, 128), (384, 192, 384, 48, 128, 128)];

/// Emits the GoogLeNet-style forward graph, returning logits.
pub fn forward(b: &mut GraphBuilder, x: TensorId, classes: usize) -> TensorId {
    let in_ch = b.shape(x).dim(1);
    let mut h = conv_relu(b, "stem.1", x, in_ch, 64, 7, 2, 3);
    h = b.maxpool2d(h, 3, 2, 1, "stem.pool1");
    h = conv_relu(b, "stem.2", h, 64, 64, 1, 1, 0);
    h = conv_relu(b, "stem.3", h, 64, 192, 3, 1, 1);
    h = b.maxpool2d(h, 3, 2, 1, "stem.pool2");
    let mut ch = 192usize;
    for (i, &w) in STAGE3.iter().enumerate() {
        let (out, c) = inception_block(b, &format!("inc3{}", (b'a' + i as u8) as char), h, ch, w);
        h = out;
        ch = c;
    }
    h = b.maxpool2d(h, 3, 2, 1, "pool3");
    for (i, &w) in STAGE4.iter().enumerate() {
        let (out, c) = inception_block(b, &format!("inc4{}", (b'a' + i as u8) as char), h, ch, w);
        h = out;
        ch = c;
    }
    h = b.maxpool2d(h, 3, 2, 1, "pool4");
    for (i, &w) in STAGE5.iter().enumerate() {
        let (out, c) = inception_block(b, &format!("inc5{}", (b'a' + i as u8) as char), h, ch, w);
        h = out;
        ch = c;
    }
    let h = b.global_avgpool(h, "gap");
    let fc = Linear::new(b, "fc", ch, classes, true);
    fc.forward(b, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_nn::OpKind;

    #[test]
    fn produces_logits_for_both_input_sizes() {
        for (hw, classes) in [(32usize, 100usize), (224, 1000)] {
            let mut b = GraphBuilder::new();
            let x = b.input("x", [2, 3, hw, hw]);
            let logits = forward(&mut b, x, classes);
            assert_eq!(b.shape(logits).dims(), &[2, classes]);
        }
    }

    #[test]
    fn nine_blocks_each_concat_four_branches() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [1, 3, 64, 64]);
        forward(&mut b, x, 10);
        let concats: Vec<_> = b
            .graph()
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::ConcatChannels { .. }))
            .collect();
        assert_eq!(concats.len(), 9);
        for c in concats {
            assert_eq!(c.inputs.len(), 4, "four branches per block");
        }
    }

    #[test]
    fn stage_output_channels_match_googlenet() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [1, 3, 224, 224]);
        forward(&mut b, x, 1000);
        let out_of = |name: &str| {
            b.graph()
                .tensors()
                .iter()
                .find(|t| t.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .shape
                .dim(1)
        };
        assert_eq!(out_of("inc3a.concat.out"), 256);
        assert_eq!(out_of("inc3b.concat.out"), 480);
        assert_eq!(out_of("inc4e.concat.out"), 832);
        assert_eq!(out_of("inc5b.concat.out"), 1024);
    }

    #[test]
    fn parameter_count_is_googlenet_scale() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [1, 3, 224, 224]);
        forward(&mut b, x, 1000);
        let params: usize = b
            .graph()
            .tensors()
            .iter()
            .filter(|t| t.kind == pinpoint_trace::MemoryKind::Weight)
            .map(|t| t.shape.numel())
            .sum();
        // GoogLeNet ≈ 6-7M params; double-3×3 factorization adds some
        assert!((5_000_000..12_000_000).contains(&params), "{params}");
    }
}
