//! Storage liveness analysis.
//!
//! The executors free a device block as soon as its storage's last consumer
//! has run — the behavior of a refcounting eager framework, and the source
//! of the staircase lifetimes visible in the paper's Fig. 2 Gantt chart.

use crate::graph::{Graph, StorageId, TensorId};

/// Per-storage liveness facts for one iteration program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    /// Op index that first defines each storage (`None` for persistent
    /// storages and for input storages, which are staged before op 0).
    pub first_def: Vec<Option<usize>>,
    /// Op index of the last use (read or write) of each storage.
    pub last_use: Vec<Option<usize>>,
    /// Whether the storage survives across iterations.
    pub persistent: Vec<bool>,
    /// The storages freed after each op, op by op: op `j`'s are
    /// `frees[free_starts[j]..free_starts[j + 1]]`, in ascending order.
    frees: Vec<StorageId>,
    free_starts: Vec<usize>,
}

impl Liveness {
    /// Computes liveness for `graph`, treating `inputs` as staged before the
    /// first op and the `loss` tensor's storage as kept until iteration end
    /// (it is fetched device→host after the last op).
    pub fn analyze(graph: &Graph, inputs: &[TensorId], loss: TensorId) -> Liveness {
        let n = graph.num_storages();
        let mut first_def = vec![None; n];
        let mut last_use = vec![None; n];
        let mut persistent = vec![false; n];
        for t in graph.tensors() {
            if t.persistent {
                persistent[t.storage.0] = true;
            }
        }
        let input_storages: Vec<StorageId> =
            inputs.iter().map(|t| graph.tensor(*t).storage).collect();
        for (j, op) in graph.ops().iter().enumerate() {
            for &t in op.inputs.iter().chain(op.outputs.iter()) {
                let s = graph.tensor(t).storage;
                last_use[s.0] = Some(j);
            }
            for &t in &op.outputs {
                let s = graph.tensor(t).storage;
                if first_def[s.0].is_none() && !persistent[s.0] && !input_storages.contains(&s) {
                    first_def[s.0] = Some(j);
                }
            }
        }
        // the loss is read by the host after the final op: extend its life
        let loss_storage = graph.tensor(loss).storage;
        let num_ops = graph.ops().len();
        if num_ops > 0 {
            last_use[loss_storage.0] = Some(num_ops - 1);
        }
        // the non-persistent storages ordered by (last use, storage); the
        // loss is freed after the host fetch instead
        let mut by_op: Vec<(usize, StorageId)> = (0..n)
            .filter(|&s| !persistent[s] && s != loss_storage.0)
            .filter_map(|s| Some((last_use[s]?, StorageId(s))))
            .collect();
        by_op.sort_unstable();
        let free_starts = (0..=num_ops)
            .map(|j| by_op.partition_point(|&(op, _)| op < j))
            .collect();
        let frees = by_op.into_iter().map(|(_, s)| s).collect();
        Liveness {
            first_def,
            last_use,
            persistent,
            frees,
            free_starts,
        }
    }

    /// Storages to free immediately after op `j`: the non-persistent
    /// storages whose last use is `j`, in ascending order. The loss
    /// storage is never listed; it is freed after the host fetch.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not an op index of the analyzed graph.
    pub fn frees_after(&self, j: usize) -> &[StorageId] {
        &self.frees[self.free_starts[j]..self.free_starts[j + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::InitSpec;

    #[test]
    fn inputs_have_no_first_def_and_params_are_persistent() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 2]);
        let y = b.labels("y", 4);
        let w = b.param("w", [2, 2], InitSpec::Ones);
        let h = b.matmul(x, w, false, false, "mm");
        let (loss, _probs) = b.softmax_cross_entropy(h, y, "loss");
        let g = b.finish();
        let lv = Liveness::analyze(&g, &[x, y], loss);
        let sx = g.tensor(x).storage;
        let sw = g.tensor(w).storage;
        let sh = g.tensor(h).storage;
        assert_eq!(lv.first_def[sx.0], None);
        assert!(lv.persistent[sw.0]);
        assert_eq!(lv.first_def[sh.0], Some(0));
        // h is last used by the loss op
        assert_eq!(lv.last_use[sh.0], Some(1));
    }

    #[test]
    fn loss_lives_to_the_final_op() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 2]);
        let y = b.labels("y", 4);
        let w = b.param("w", [2, 2], InitSpec::Ones);
        let h = b.matmul(x, w, false, false, "mm");
        let (loss, _) = b.softmax_cross_entropy(h, y, "loss");
        let h2 = b.relu(h, "post"); // an op after the loss
        let _ = h2;
        let g = b.finish();
        let lv = Liveness::analyze(&g, &[x, y], loss);
        let sl = g.tensor(loss).storage;
        assert_eq!(lv.last_use[sl.0], Some(g.ops().len() - 1));
    }

    #[test]
    fn frees_after_excludes_persistent_and_kept() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 2]);
        let y = b.labels("y", 4);
        let w = b.param("w", [2, 2], InitSpec::Ones);
        let h = b.matmul(x, w, false, false, "mm");
        let (loss, _) = b.softmax_cross_entropy(h, y, "loss");
        let g = b.finish();
        let lv = Liveness::analyze(&g, &[x, y], loss);
        let last = g.ops().len() - 1;
        let frees = lv.frees_after(last);
        let sw = g.tensor(w).storage;
        let sl = g.tensor(loss).storage;
        assert!(!frees.contains(&sw), "weights are persistent");
        assert!(!frees.contains(&sl), "loss is kept for the host fetch");
        // labels are consumed by the loss op → freed after it
        let sy = g.tensor(y).storage;
        assert!(frees.contains(&sy));
    }

    #[test]
    fn frees_after_lists_each_storage_once_at_its_last_use() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 2]);
        let y = b.labels("y", 4);
        let w = b.param("w", [2, 2], InitSpec::Ones);
        let h = b.matmul(x, w, false, false, "mm");
        let r = b.relu(h, "r");
        let (loss, _) = b.softmax_cross_entropy(r, y, "loss");
        let g = b.finish();
        let lv = Liveness::analyze(&g, &[x, y], loss);
        let sl = g.tensor(loss).storage;
        for j in 0..g.ops().len() {
            let frees = lv.frees_after(j);
            assert!(frees.windows(2).all(|w| w[0] < w[1]), "ascending");
            let want: Vec<StorageId> = (0..g.num_storages())
                .filter(|&s| !lv.persistent[s] && s != sl.0 && lv.last_use[s] == Some(j))
                .map(StorageId)
                .collect();
            assert_eq!(frees, want.as_slice(), "op {j}");
        }
    }

    #[test]
    fn views_extend_storage_life() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", [4, 4]);
        let y = b.labels("y", 4);
        let w = b.param("w", [4, 2], InitSpec::Ones);
        let h = b.relu(x, "r");
        let v = b.view(h, [4, 4], "v");
        let m = b.matmul(v, w, false, false, "mm");
        let (loss, _) = b.softmax_cross_entropy(m, y, "loss");
        let g = b.finish();
        let lv = Liveness::analyze(&g, &[x, y], loss);
        let sh = g.tensor(h).storage;
        assert_eq!(sh, g.tensor(v).storage);
        // last use of h's storage is the matmul (op 2), not the view (op 1)
        assert_eq!(lv.last_use[sh.0], Some(2));
    }
}
