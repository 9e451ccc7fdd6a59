//! Optimizers: emit per-parameter update ops into the iteration program.

use crate::builder::GraphBuilder;
use crate::graph::{InitSpec, TensorId};
use std::collections::BTreeMap;

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Vanilla stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// SGD with classical momentum (allocates a persistent velocity buffer
    /// per parameter — optimizer state in the paper's breakdown).
    SgdMomentum {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        mu: f32,
    },
    /// Adam (two persistent moment buffers per parameter: optimizer state
    /// is *twice* the weight bytes — the regime ZeRO-Offload \[10\] targets).
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay (typ. 0.9).
        beta1: f32,
        /// Second-moment decay (typ. 0.999).
        beta2: f32,
        /// Numerical-stability epsilon.
        eps: f32,
    },
}

impl Optimizer {
    /// Adam with the standard hyperparameters (β1 = 0.9, β2 = 0.999,
    /// ε = 1e-8).
    pub fn adam(lr: f32) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

impl Optimizer {
    /// Emits one update op per `(param, grad)` pair, in parameter order.
    pub fn emit_step(&self, b: &mut GraphBuilder, grads: &BTreeMap<TensorId, TensorId>) {
        for (i, (&param, &grad)) in grads.iter().enumerate() {
            let pname = b.graph().tensor(param).name.clone();
            match *self {
                Optimizer::Sgd { lr } => {
                    b.sgd_step(param, grad, lr, &format!("sgd.{pname}"));
                }
                Optimizer::SgdMomentum { lr, mu } => {
                    let shape = b.shape(param).clone();
                    let v = b.state(&format!("{pname}.momentum"), shape, InitSpec::Zeros);
                    b.sgd_momentum_step(param, v, grad, lr, mu, &format!("sgd_m.{pname}"));
                }
                Optimizer::Adam {
                    lr,
                    beta1,
                    beta2,
                    eps,
                } => {
                    let shape = b.shape(param).clone();
                    let m = b.state(&format!("{pname}.exp_avg"), shape.clone(), InitSpec::Zeros);
                    let v = b.state(&format!("{pname}.exp_avg_sq"), shape, InitSpec::Zeros);
                    b.adam_step(
                        param,
                        m,
                        v,
                        grad,
                        lr,
                        beta1,
                        beta2,
                        eps,
                        &format!("adam.{pname}"),
                    );
                }
            }
            let _ = i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::backward;
    use crate::graph::OpKind;
    use pinpoint_trace::MemoryKind;

    fn setup() -> (GraphBuilder, BTreeMap<TensorId, TensorId>) {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 2]);
        let y = b.labels("y", 4);
        let w = b.param("w", [2, 2], InitSpec::Ones);
        let h = b.matmul(x, w, false, false, "mm");
        let (loss, _) = b.softmax_cross_entropy(h, y, "loss");
        let grads = backward(&mut b, loss);
        (b, grads)
    }

    #[test]
    fn sgd_emits_one_step_per_param() {
        let (mut b, grads) = setup();
        let n_before = b.graph().ops().len();
        Optimizer::Sgd { lr: 0.1 }.emit_step(&mut b, &grads);
        let steps = &b.graph().ops()[n_before..];
        assert_eq!(steps.len(), 1);
        assert!(matches!(steps[0].kind, OpKind::SgdStep { .. }));
    }

    #[test]
    fn adam_allocates_two_moment_buffers() {
        let (mut b, grads) = setup();
        Optimizer::adam(1e-3).emit_step(&mut b, &grads);
        let names: Vec<_> = b
            .graph()
            .tensors()
            .iter()
            .filter(|t| t.kind == MemoryKind::OptimizerState)
            .map(|t| t.name.clone())
            .collect();
        assert_eq!(names, vec!["w.exp_avg", "w.exp_avg_sq"]);
        assert!(b
            .graph()
            .ops()
            .iter()
            .any(|o| matches!(o.kind, OpKind::AdamStep { .. })));
    }

    #[test]
    fn momentum_allocates_persistent_velocity() {
        let (mut b, grads) = setup();
        Optimizer::SgdMomentum { lr: 0.1, mu: 0.9 }.emit_step(&mut b, &grads);
        let v = b
            .graph()
            .tensors()
            .iter()
            .find(|t| t.name == "w.momentum")
            .expect("velocity state declared");
        assert!(v.persistent);
        assert_eq!(v.kind, MemoryKind::OptimizerState);
    }
}
