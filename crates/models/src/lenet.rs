//! LeNet-5 (the classical small CNN, after LeCun et al. \[12\] — the source
//! of the paper's three-way memory taxonomy).

use pinpoint_nn::layers::{Conv2d, Linear};
use pinpoint_nn::{GraphBuilder, TensorId};

/// Emits the LeNet-5 forward graph for NCHW input, returning logits.
///
/// Works for any input ≥ 16×16 (two 5×5 convs with 2×2 pools); the
/// classifier adapts to the flattened size.
pub fn forward(b: &mut GraphBuilder, x: TensorId, classes: usize) -> TensorId {
    let in_ch = b.shape(x).dim(1);
    let c1 = Conv2d::new(b, "conv1", in_ch, 6, 5, 1, 2);
    let c2 = Conv2d::new(b, "conv2", 6, 16, 5, 1, 0);
    let h = c1.forward(b, x);
    let h = b.relu(h, "relu1");
    let h = b.maxpool2d(h, 2, 2, 0, "pool1");
    let h = c2.forward(b, h);
    let h = b.relu(h, "relu2");
    let h = b.maxpool2d(h, 2, 2, 0, "pool2");
    let h = b.flatten(h, "flatten");
    let flat = b.shape(h).dim(1);
    let fc1 = Linear::new(b, "fc1", flat, 120, true);
    let fc2 = Linear::new(b, "fc2", 120, 84, true);
    let fc3 = Linear::new(b, "fc3", 84, classes, true);
    let h = fc1.forward(b, h);
    let h = b.relu(h, "relu3");
    let h = fc2.forward(b, h);
    let h = b.relu(h, "relu4");
    fc3.forward(b, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_32x32_shapes() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 1, 32, 32]);
        let logits = forward(&mut b, x, 10);
        assert_eq!(b.shape(logits).dims(), &[4, 10]);
        // conv2 output: 16 x 6 x 6 after pools → flatten 576
        let flat = b
            .graph()
            .tensors()
            .iter()
            .find(|t| t.name == "flatten")
            .unwrap();
        assert_eq!(flat.shape.dims(), &[4, 16 * 6 * 6]);
    }

    #[test]
    fn rgb_input_accepted() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [2, 3, 28, 28]);
        let logits = forward(&mut b, x, 100);
        assert_eq!(b.shape(logits).dims(), &[2, 100]);
    }
}
