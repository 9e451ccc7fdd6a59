//! Typed regenerators for every figure of the paper.
//!
//! Each `figN_*` function reruns the corresponding experiment on the
//! simulator and returns the figure's data as plain structs; the
//! `pinpoint-figures` binary and the examples print them as the paper's
//! rows/series, and `tests/paper_claims.rs` checks the paper's claims on
//! them. Parameters default to paper scale but can be shrunk for quick
//! runs.

use crate::parallel::{configured_threads, try_map_ordered};
use crate::profiler::{profile, EpochEval, ProfileConfig, ProfileError};
use pinpoint_analysis::{
    assess, detect, gantt_rects, violin_sorted, worst_fragmentation, AtiDataset, AtiRecord,
    BreakdownRow, EmpiricalCdf, FragmentationSnapshot, GanttRect, IterativeReport, OutlierCriteria,
    OutlierReport, TraceReport, ViolinStats,
};
use pinpoint_data::DatasetSpec;
use pinpoint_models::{Architecture, DenseNetDepth, MlpConfig, ResNetDepth};

/// Fig. 1: the MLP's op topology — the ordered op schedule of one forward
/// pass (★ = `matmul`, + = `add_bias`, f = `relu`).
pub fn fig1_topology() -> Vec<String> {
    let mut b = pinpoint_nn::GraphBuilder::new();
    let x = b.input("x", [128, 2]);
    pinpoint_models::mlp::forward(&mut b, x, &MlpConfig::default());
    b.graph().ops().iter().map(|o| o.name.clone()).collect()
}

/// Fig. 2 data: the Gantt chart of the first `iterations` MLP training
/// iterations plus the paper's two observations about it.
#[derive(Debug, Clone)]
pub struct Fig2Data {
    /// One rectangle per device block.
    pub rects: Vec<GanttRect>,
    /// Periodicity check (the "obvious iterative patterns" observation).
    pub iterative: IterativeReport,
    /// Worst fragmentation snapshot (the "fewer memory fragments"
    /// observation).
    pub worst_fragmentation: FragmentationSnapshot,
    /// Total simulated time.
    pub duration_ns: u64,
}

/// Regenerates Fig. 2 (default: 5 iterations, as in the paper).
///
/// # Errors
///
/// Propagates device errors.
pub fn fig2_gantt(iterations: usize) -> Result<Fig2Data, ProfileError> {
    let report = profile(&ProfileConfig::mlp_case_study(iterations))?;
    let rects = gantt_rects(&report.trace, 0, report.trace.end_time_ns());
    Ok(Fig2Data {
        iterative: detect(&report.trace),
        worst_fragmentation: worst_fragmentation(&report.trace, 64),
        duration_ns: report.duration_ns,
        rects,
    })
}

/// Fig. 3 data: the ATI distribution of MLP training.
#[derive(Debug, Clone)]
pub struct Fig3Data {
    /// Empirical CDF of all ATIs (Fig. 3a).
    pub cdf: EmpiricalCdf,
    /// Violin statistics (Fig. 3b).
    pub violin: ViolinStats,
    /// Fraction of ATIs at or below 25 µs (the paper's "90 %" statement).
    pub fraction_at_or_below_25us: f64,
    /// 90th-percentile ATI in nanoseconds.
    pub p90_ns: u64,
    /// Number of intervals measured.
    pub count: usize,
    /// Violin of intervals closed by a read (per-behavior split, Fig. 3b).
    pub violin_reads: Option<ViolinStats>,
    /// Violin of intervals closed by a write.
    pub violin_writes: Option<ViolinStats>,
}

/// Regenerates Fig. 3 from `iterations` of MLP training (default 50).
///
/// # Errors
///
/// Propagates device errors.
///
/// # Panics
///
/// Panics if the run produced no intervals (requires `iterations >= 2`).
pub fn fig3_ati(iterations: usize) -> Result<Fig3Data, ProfileError> {
    let report = profile(&ProfileConfig::mlp_case_study(iterations))?;
    let atis = AtiDataset::from_trace(&report.trace);
    let cdf = atis.cdf();
    // u64 -> f64 is monotone, so the cached ascending order survives the cast
    let samples: Vec<f64> = atis
        .sorted_intervals_ns()
        .iter()
        .map(|&v| v as f64)
        .collect();
    let violin_all = violin_sorted(&samples, 128).expect("non-empty ATI set");
    let per_kind = |kind| {
        let subset = atis.of_closing_kind(kind);
        let vals: Vec<f64> = subset
            .sorted_intervals_ns()
            .iter()
            .map(|&v| v as f64)
            .collect();
        violin_sorted(&vals, 128)
    };
    Ok(Fig3Data {
        fraction_at_or_below_25us: atis.fraction_at_or_below(25_000),
        p90_ns: cdf.percentile(0.9),
        count: cdf.len(),
        violin_reads: per_kind(pinpoint_trace::EventKind::Read),
        violin_writes: per_kind(pinpoint_trace::EventKind::Write),
        cdf,
        violin: violin_all,
    })
}

/// Fig. 4 data: every behavior's (ATI, block size) pair plus the sifted
/// outliers and their Equation-1 verdicts.
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// All behaviors, in closing-access order (the figure's x-axis).
    pub points: Vec<AtiRecord>,
    /// Behaviors above the paper's thresholds (> 0.8 s, > 600 MB).
    pub outliers: OutlierReport,
    /// The most extreme outlier with its Equation-1 bound (the red point).
    pub red_point: Option<(AtiRecord, f64)>,
    /// Count of behaviors that are profitably swappable under Equation 1.
    pub swappable_count: usize,
}

/// Regenerates Fig. 4: MLP training with a per-epoch evaluation buffer.
///
/// Paper scale is `epochs = 2`, [`EpochEval::paper_scale`]; tests can pass
/// a smaller `eval` to keep runtimes low.
///
/// # Errors
///
/// Propagates device errors.
pub fn fig4_outliers(eval: EpochEval, epochs: usize) -> Result<Fig4Data, ProfileError> {
    let mut cfg = ProfileConfig::mlp_case_study(eval.iters_per_epoch * epochs + 1);
    cfg.epoch_eval = Some(eval);
    let report = profile(&cfg)?;
    // scale the outlier criteria with the evaluation buffer so shrunken
    // test runs still find their outlier; at paper scale this is exactly
    // the paper's (0.8 s, 600 MB)
    let criteria = OutlierCriteria {
        min_ati_ns: if eval == EpochEval::paper_scale() {
            OutlierCriteria::paper_fig4().min_ati_ns
        } else {
            1_000_000
        },
        min_size_bytes: eval.buffer_bytes / 2,
    };
    let d = TraceReport::from_trace(&report.trace, criteria, configured_threads());
    let transfer = cfg.device.transfer.clone();
    let red_point = d
        .outliers
        .most_extreme()
        .map(|r| (*r, transfer.max_swap_bytes(r.interval_ns)));
    Ok(Fig4Data {
        points: d.ati.records().to_vec(),
        swappable_count: assess(&d.ati, &transfer).swappable_count,
        outliers: d.outliers,
        red_point,
    })
}

/// The "typical DNNs" of Fig. 5, at CIFAR-100 geometry.
pub fn fig5_architectures() -> Vec<Architecture> {
    vec![
        Architecture::Mlp(MlpConfig::default()),
        Architecture::LeNet5,
        Architecture::AlexNet,
        Architecture::Vgg16,
        Architecture::ResNet(ResNetDepth::R18),
        Architecture::ResNet(ResNetDepth::R50),
        Architecture::Inception,
        Architecture::DenseNet(DenseNetDepth::D121),
        Architecture::MobileNetV1,
    ]
}

/// Runs every breakdown-sweep configuration on the scoped-thread fan-out
/// and returns one row per config, in input order. Each profile is fully
/// independent (own device, own executor, fixed seed), so the rows are
/// bit-identical at any thread count.
fn breakdown_rows(configs: Vec<ProfileConfig>) -> Result<Vec<BreakdownRow>, ProfileError> {
    try_map_ordered(configs, configured_threads(), |cfg| {
        let report = profile(&cfg)?;
        Ok(BreakdownRow::from_trace(report.label, &report.trace))
    })
}

/// Regenerates Fig. 5: the occupation breakdown of typical DNNs at
/// ImageNet geometry (the paper's "typical DNN training"; the MLP uses its
/// own 2-feature input).
///
/// # Errors
///
/// Propagates device errors.
pub fn fig5_breakdown(batch: usize) -> Result<Vec<BreakdownRow>, ProfileError> {
    breakdown_rows(
        fig5_architectures()
            .into_iter()
            .map(|arch| ProfileConfig::breakdown_sweep(arch, DatasetSpec::imagenet(), batch))
            .collect(),
    )
}

/// Regenerates Fig. 6: AlexNet breakdown across batch sizes, on CIFAR-100
/// (Fig. 6a) and ImageNet (Fig. 6b) geometries.
///
/// # Errors
///
/// Propagates device errors.
pub fn fig6_alexnet(batches: &[usize]) -> Result<Vec<BreakdownRow>, ProfileError> {
    let mut configs = Vec::new();
    for dataset in [DatasetSpec::cifar100(), DatasetSpec::imagenet()] {
        for &batch in batches {
            configs.push(ProfileConfig::breakdown_sweep(
                Architecture::AlexNet,
                dataset.clone(),
                batch,
            ));
        }
    }
    breakdown_rows(configs)
}

/// Regenerates Fig. 7: ResNet-18/34/50/101/152 breakdown across batch
/// sizes, on CIFAR-100 and ImageNet geometries.
///
/// # Errors
///
/// Propagates device errors.
pub fn fig7_resnet(batches: &[usize]) -> Result<Vec<BreakdownRow>, ProfileError> {
    let mut configs = Vec::new();
    for dataset in [DatasetSpec::cifar100(), DatasetSpec::imagenet()] {
        for depth in ResNetDepth::ALL {
            for &batch in batches {
                configs.push(ProfileConfig::breakdown_sweep(
                    Architecture::ResNet(depth),
                    dataset.clone(),
                    batch,
                ));
            }
        }
    }
    breakdown_rows(configs)
}

/// Extension experiment: forward-only (inference-footprint) vs full
/// training peak, per architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainVsForwardRow {
    /// Architecture name.
    pub arch: String,
    /// Peak footprint of the forward-only program, bytes.
    pub forward_peak_bytes: u64,
    /// Peak footprint of the full training iteration, bytes.
    pub training_peak_bytes: u64,
}

impl TrainVsForwardRow {
    /// Training peak as a multiple of the forward-only peak.
    pub fn training_multiplier(&self) -> f64 {
        if self.forward_peak_bytes == 0 {
            0.0
        } else {
            self.training_peak_bytes as f64 / self.forward_peak_bytes as f64
        }
    }
}

/// Extension: quantifies what training's saved intermediates cost by
/// comparing each architecture's forward-only and full-training peaks
/// (ImageNet geometry).
///
/// # Errors
///
/// Propagates device errors.
pub fn ext_training_vs_forward(batch: usize) -> Result<Vec<TrainVsForwardRow>, ProfileError> {
    try_map_ordered(fig5_architectures(), configured_threads(), |arch| {
        let mut fwd_cfg = ProfileConfig::breakdown_sweep(arch, DatasetSpec::imagenet(), batch);
        fwd_cfg.forward_only = true;
        let fwd = profile(&fwd_cfg)?;
        let train_cfg = ProfileConfig::breakdown_sweep(arch, DatasetSpec::imagenet(), batch);
        let train = profile(&train_cfg)?;
        Ok(TrainVsForwardRow {
            arch: arch.name(),
            forward_peak_bytes: fwd.trace.peak_live_bytes().peak_total_bytes,
            training_peak_bytes: train.trace.peak_live_bytes().peak_total_bytes,
        })
    })
}

/// Extension experiment: data-parallel scaling — iteration time and peak
/// footprint of one rank as the world size grows.
#[derive(Debug, Clone, PartialEq)]
pub struct DataParallelRow {
    /// Number of replicas.
    pub world_size: usize,
    /// Peak footprint of one rank, bytes.
    pub peak_bytes: u64,
    /// Simulated iteration time, nanoseconds.
    pub iteration_ns: u64,
}

/// Extension: profiles one rank of DDP training at several world sizes
/// (PCIe interconnect defaults).
///
/// # Errors
///
/// Propagates device errors.
pub fn ext_data_parallel(
    arch: Architecture,
    batch: usize,
    worlds: &[usize],
) -> Result<Vec<DataParallelRow>, ProfileError> {
    try_map_ordered(worlds.to_vec(), configured_threads(), |world_size| {
        let mut cfg = ProfileConfig::breakdown_sweep(arch, DatasetSpec::imagenet(), batch);
        cfg.data_parallel = Some(pinpoint_models::DdpSpec::pcie(world_size));
        let report = profile(&cfg)?;
        Ok(DataParallelRow {
            world_size,
            peak_bytes: report.trace.peak_live_bytes().peak_total_bytes,
            iteration_ns: report.duration_ns / report.iterations as u64,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_the_paper_topology() {
        let ops = fig1_topology();
        assert_eq!(
            ops,
            vec![
                "fc0.matmul",
                "fc0.bias_add",
                "relu0",
                "fc1.matmul",
                "fc1.bias_add"
            ]
        );
    }

    #[test]
    fn fig2_is_periodic_with_low_fragmentation() {
        let d = fig2_gantt(5).unwrap();
        assert!(d.iterative.periodic, "{:?}", d.iterative);
        assert_eq!(d.iterative.iterations, 5);
        assert!(!d.rects.is_empty());
        // "fewer memory fragments": worst gap fraction stays small
        assert!(
            d.worst_fragmentation.gap_fraction() < 0.5,
            "{:?}",
            d.worst_fragmentation
        );
    }

    #[test]
    fn fig3_distribution_is_concentrated() {
        let d = fig3_ati(20).unwrap();
        assert!(d.count > 100);
        // most ATIs are tiny: the bulk sits at tens of microseconds, and
        // the tail (cross-phase weight accesses) stays within the iteration
        assert!(
            d.fraction_at_or_below_25us > 0.4,
            "fraction {}",
            d.fraction_at_or_below_25us
        );
        assert!(d.p90_ns < 500_000, "p90 {} ns", d.p90_ns);
        assert!(d.violin.median > 1_000.0 && d.violin.median < 100_000.0);
        // Equation-1 consequence: even the p90 ATI admits only a tiny swap
        let bound =
            pinpoint_device::TransferModel::titan_x_pascal_pinned().max_swap_bytes(d.p90_ns);
        assert!(bound < 2_000_000.0, "p90 swap bound {bound} B");
    }

    #[test]
    fn fig4_small_scale_finds_outlier() {
        // shrunken Fig. 4: 4 MB buffer touched every 20 iterations; the
        // epoch period (~3.5 ms) still makes Equation 1 pass for it
        let eval = EpochEval {
            iters_per_epoch: 20,
            buffer_bytes: 4_000_000,
        };
        let d = fig4_outliers(eval, 2).unwrap();
        assert!(!d.points.is_empty());
        assert!(!d.outliers.outliers.is_empty());
        let (red, bound) = d.red_point.unwrap();
        assert!(red.size >= 4_000_000);
        assert!(red.interval_ns > 1_000_000);
        assert!(bound > red.size as f64, "outlier should be Eq1-swappable");
    }

    #[test]
    fn fig5_parameters_are_a_small_fraction_for_most_dnns() {
        let rows = fig5_breakdown(128).unwrap();
        assert_eq!(rows.len(), fig5_architectures().len());
        let mut param_minor = 0;
        for row in &rows {
            let (_, p, i) = row.fractions();
            if p < 0.4 {
                param_minor += 1;
            }
            assert!(i > 0.0);
            assert!(p < 0.7, "no net is parameter-dominated: {row:?}");
        }
        // "for most DNNs, parameters only account for a small fraction"
        assert!(param_minor >= rows.len() - 2, "{rows:?}");
    }

    #[test]
    fn fig6_intermediates_grow_with_batch() {
        let rows = fig6_alexnet(&[32, 256]).unwrap();
        assert_eq!(rows.len(), 4);
        // same dataset: growing batch grows the intermediate share and
        // shrinks the parameter share
        for pair in rows.chunks(2) {
            let (_, p_small, i_small) = pair[0].fractions();
            let (_, p_big, i_big) = pair[1].fractions();
            assert!(i_big > i_small, "{pair:?}");
            assert!(p_big < p_small, "{pair:?}");
        }
    }

    #[test]
    fn data_parallel_adds_comm_time_not_memory() {
        let rows =
            ext_data_parallel(Architecture::ResNet(ResNetDepth::R18), 16, &[1, 4, 8]).unwrap();
        assert_eq!(rows.len(), 3);
        // in-place bucket all-reduce: same peak at every world size
        assert_eq!(rows[0].peak_bytes, rows[1].peak_bytes);
        assert_eq!(rows[1].peak_bytes, rows[2].peak_bytes);
        // iteration time grows with the 2(N-1)/N wire term
        assert!(rows[1].iteration_ns > rows[0].iteration_ns, "{rows:?}");
        assert!(rows[2].iteration_ns > rows[1].iteration_ns, "{rows:?}");
        // but sub-linearly: the ring term saturates at 2× the bucket bytes
        let ratio = rows[2].iteration_ns as f64 / rows[0].iteration_ns as f64;
        assert!(ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn training_costs_a_multiple_of_forward_memory() {
        let rows = ext_training_vs_forward(16).unwrap();
        assert_eq!(rows.len(), fig5_architectures().len());
        for r in &rows {
            assert!(
                r.training_multiplier() > 1.3,
                "training must cost well beyond forward: {r:?}"
            );
        }
        // conv nets with long chains of saved activations pay the most
        let vgg = rows.iter().find(|r| r.arch == "vgg16").unwrap();
        assert!(vgg.training_multiplier() > 2.0, "{vgg:?}");
    }

    #[test]
    fn fig7_holds_for_all_depths() {
        let rows = fig7_resnet(&[32, 128]).unwrap();
        assert_eq!(rows.len(), 2 * 5 * 2);
        for pair in rows.chunks(2) {
            let (_, p_small, i_small) = pair[0].fractions();
            let (_, p_big, i_big) = pair[1].fractions();
            assert!(i_big >= i_small, "{pair:?}");
            assert!(p_big <= p_small, "{pair:?}");
        }
    }
}
