//! Integration tests for the paper's five reproducible claims (C1–C5 in
//! DESIGN.md), at test scale, on the data `pinpoint-figures` prints.

use pinpoint::analysis::{sift, AtiDataset, EmpiricalCdf, OutlierCriteria};
use pinpoint::core::figures;
use pinpoint::core::{profile, EpochEval, ProfileConfig};
use pinpoint::device::TransferModel;

/// C1: block lifetimes repeat with a stable period across iterations, and
/// fragmentation under the caching allocator stays small.
#[test]
fn c1_iterative_patterns_and_low_fragmentation() {
    let fig2 = figures::fig2_gantt(5).expect("fig2");
    assert!(fig2.iterative.periodic);
    assert_eq!(fig2.iterative.iterations, 5);
    assert!(
        fig2.iterative.period_cv < 0.2,
        "cv {}",
        fig2.iterative.period_cv
    );
    assert!(fig2.worst_fragmentation.gap_fraction() < 0.5);
    // the period is also recoverable with no markers at all, straight from
    // the malloc signature sequence
    let report = profile(&ProfileConfig::mlp_case_study(6)).expect("profile");
    let mallocs_per_iter = pinpoint::analysis::period_from_mallocs(&report.trace, 256);
    assert!(mallocs_per_iter.is_some(), "marker-free period detection");
}

/// C2: the ATI distribution is concentrated; Equation 1 then bounds the
/// profitable swap size of typical behaviors to tens of kilobytes.
#[test]
fn c2_concentrated_atis_imply_tiny_swap_budgets() {
    let report = profile(&ProfileConfig::mlp_case_study(30)).expect("profile");
    let atis = AtiDataset::from_trace(&report.trace);
    let cdf = EmpiricalCdf::new(atis.intervals_ns());
    assert!(cdf.len() > 200);
    // concentration: the IQR is narrow relative to the full range
    let iqr = cdf.percentile(0.75) - cdf.percentile(0.25);
    let span = cdf.range().unwrap().1 - cdf.range().unwrap().0;
    assert!((iqr as f64) < 0.5 * span as f64, "iqr {iqr} vs span {span}");
    // the paper's Equation-1 consequence at the p90 ATI
    let tm = TransferModel::titan_x_pascal_pinned();
    let bound = tm.max_swap_bytes(cdf.percentile(0.9));
    assert!(
        bound < 1_500_000.0,
        "typical ATIs admit only small swaps, got {bound} B"
    );
}

/// C2, Fig. 3: the share of ATIs at or below 25 µs, pinned exactly at
/// `pinpoint-figures fig3`'s quick scale (50 iterations). It is a partial
/// result, 55.6% against the paper's 90% (EXPERIMENTS.md), so a cost
/// model or calibration change that moves it shows up here as a reviewed
/// diff.
#[test]
fn c2_fig3_share_at_or_below_25us_is_pinned() {
    let fig3 = figures::fig3_ati(50).expect("fig3");
    let at_or_below = fig3
        .cdf
        .points()
        .iter()
        .filter(|&&(v, _)| v <= 25_000)
        .count();
    assert_eq!((at_or_below, fig3.count), (1000, 1800));
    assert_eq!(
        fig3.fraction_at_or_below_25us,
        at_or_below as f64 / fig3.count as f64
    );
    assert!(fig3.fraction_at_or_below_25us > 0.4, "concentration");
}

/// C3: high-ATI × large-size outliers exist and pass Equation 1 — they are
/// the right swap targets.
#[test]
fn c3_outliers_are_the_swap_targets() {
    let eval = EpochEval {
        iters_per_epoch: 50,
        buffer_bytes: 16_000_000,
    };
    let mut cfg = ProfileConfig::mlp_case_study(101);
    cfg.epoch_eval = Some(eval);
    let report = profile(&cfg).expect("profile");
    let atis = AtiDataset::from_trace(&report.trace);
    let outliers = sift(
        &atis,
        OutlierCriteria {
            min_ati_ns: 1_000_000,
            min_size_bytes: 8_000_000,
        },
    );
    assert!(!outliers.outliers.is_empty());
    let tm = TransferModel::titan_x_pascal_pinned();
    let red = outliers.most_extreme().unwrap();
    assert!(
        tm.swappable(red.size, red.interval_ns),
        "the extreme outlier must satisfy Equation 1"
    );
    // while typical behaviors do not
    let typical = atis
        .records()
        .iter()
        .filter(|r| r.interval_ns < 100_000 && r.size > 1_000_000)
        .take(50);
    for r in typical {
        assert!(!tm.swappable(r.size, r.interval_ns), "{r:?}");
    }

    // Fig. 4 at the same epoch size profiles the same 101 iterations and
    // sifts with the same criteria, through the report
    let fig4 = figures::fig4_outliers(eval, 2).expect("fig4");
    assert_eq!(fig4.outliers, outliers);
    let (red, bound) = fig4.red_point.expect("red point");
    assert!((red.size as f64) <= bound, "the red point is Eq1-swappable");
}

/// C4: parameters are a minor fraction of the footprint for most DNNs;
/// intermediates dominate.
#[test]
fn c4_parameters_minor_intermediates_dominate() {
    let rows = figures::fig5_breakdown(64).expect("fig5");
    let minor = rows.iter().filter(|r| r.fractions().1 < 0.4).count();
    assert!(minor >= rows.len() - 2, "{rows:?}");
    let inter_dominant = rows
        .iter()
        .filter(|r| {
            let (i, p, m) = r.fractions();
            m > i && m > p
        })
        .count();
    assert!(inter_dominant >= rows.len() - 2, "{rows:?}");
}

/// C5: growing batch size grows the intermediate share and shrinks the
/// parameter share; the input share grows slightly. Holds for linear
/// (AlexNet, over Fig. 6's four batches) and non-linear (ResNet)
/// topologies.
#[test]
fn c5_batch_size_shifts_the_breakdown() {
    let batches = [32, 64, 128, 256];
    let alex = figures::fig6_alexnet(&batches).expect("fig6");
    for rows in alex.chunks(batches.len()) {
        let pair = [&rows[0], &rows[batches.len() - 1]];
        let (i_s, p_s, m_s) = pair[0].fractions();
        let (i_b, p_b, m_b) = pair[1].fractions();
        assert!(m_b > m_s, "intermediates grow: {pair:?}");
        assert!(p_b < p_s, "parameters shrink: {pair:?}");
        assert!(i_b >= i_s * 0.9, "input share holds or grows: {pair:?}");
        // and at every step of the sweep
        for w in rows.windows(2) {
            assert!(w[1].fractions().2 >= w[0].fractions().2, "{w:?}");
            assert!(w[1].fractions().1 <= w[0].fractions().1, "{w:?}");
        }
    }
    let res = figures::fig7_resnet(&[32, 256]).expect("fig7");
    for pair in res.chunks(2) {
        let (_, p_s, m_s) = pair[0].fractions();
        let (_, p_b, m_b) = pair[1].fractions();
        assert!(m_b >= m_s, "{pair:?}");
        assert!(p_b <= p_s, "{pair:?}");
    }
}

/// Equation 1's two worked examples, verbatim from the paper.
#[test]
fn equation_1_worked_examples() {
    let tm = TransferModel::titan_x_pascal_pinned();
    let s25us = tm.max_swap_bytes(25_000);
    assert!((s25us / 1e3 - 79.37).abs() < 0.1, "{s25us}");
    let s800ms = tm.max_swap_bytes(800_000_000);
    assert!((s800ms / 1e9 - 2.54).abs() < 0.01, "{s800ms}");
    // the red-marked outlier: 1200 MB at 840 211 µs is swappable
    assert!(tm.swappable(1_200_000_000, 840_211_000));
}
