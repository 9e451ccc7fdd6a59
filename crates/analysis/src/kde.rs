//! Gaussian kernel density estimation and violin-plot statistics (Fig. 3b).

/// Summary statistics + density trace of one violin (Hintze & Nelson \[8\]).
#[derive(Debug, Clone, PartialEq)]
pub struct ViolinStats {
    /// Sample count.
    pub count: usize,
    /// Minimum sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum sample.
    pub max: f64,
    /// `(x, density)` pairs of the Gaussian KDE evaluated on an even grid
    /// over `[min, max]`.
    pub density: Vec<(f64, f64)>,
}

/// Computes violin statistics for `samples` with a KDE evaluated at
/// `grid_points` positions. Bandwidth follows Silverman's rule of thumb.
///
/// Returns `None` for an empty sample set.
pub fn violin(samples: &[f64], grid_points: usize) -> Option<ViolinStats> {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    violin_sorted(&sorted, grid_points)
}

/// [`violin`] for samples already in ascending order (e.g. straight from
/// [`crate::AtiDataset::sorted_intervals_ns`]) — skips the per-call sort.
///
/// # Panics
///
/// Panics (debug builds only) if `sorted` is not ascending.
pub fn violin_sorted(sorted: &[f64], grid_points: usize) -> Option<ViolinStats> {
    if sorted.is_empty() || grid_points == 0 {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "violin_sorted requires ascending samples"
    );
    let n = sorted.len();
    let quantile = |p: f64| -> f64 {
        let idx = p * (n - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            sorted[lo] + (sorted[hi] - sorted[lo]) * (idx - lo as f64)
        }
    };
    let (min, max) = (sorted[0], sorted[n - 1]);
    let mean: f64 = sorted.iter().sum::<f64>() / n as f64;
    let var: f64 = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    let std = var.sqrt();
    // Silverman's rule; fall back to a span-based width for degenerate data
    let mut bandwidth = 1.06 * std * (n as f64).powf(-0.2);
    if bandwidth <= 0.0 {
        bandwidth = ((max - min) / grid_points as f64).max(1.0);
    }
    let density = kde_on_grid(sorted, min, max, grid_points, bandwidth);
    Some(ViolinStats {
        count: n,
        min,
        q1: quantile(0.25),
        median: quantile(0.5),
        q3: quantile(0.75),
        max,
        density,
    })
}

/// Evaluates a Gaussian KDE on an even grid.
pub fn kde_on_grid(
    samples: &[f64],
    lo: f64,
    hi: f64,
    grid_points: usize,
    bandwidth: f64,
) -> Vec<(f64, f64)> {
    assert!(bandwidth > 0.0, "bandwidth must be positive");
    let n = samples.len() as f64;
    let norm = 1.0 / (n * bandwidth * (2.0 * std::f64::consts::PI).sqrt());
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    (0..grid_points)
        .map(|i| {
            let x = if grid_points == 1 {
                (lo + hi) / 2.0
            } else {
                lo + span * i as f64 / (grid_points - 1) as f64
            };
            let d: f64 = samples
                .iter()
                .map(|&s| {
                    let z = (x - s) / bandwidth;
                    (-0.5 * z * z).exp()
                })
                .sum::<f64>()
                * norm;
            (x, d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_known_data() {
        let v = violin(&[1.0, 2.0, 3.0, 4.0, 5.0], 16).unwrap();
        assert_eq!(v.count, 5);
        assert_eq!(v.min, 1.0);
        assert_eq!(v.median, 3.0);
        assert_eq!(v.q1, 2.0);
        assert_eq!(v.q3, 4.0);
        assert_eq!(v.max, 5.0);
    }

    #[test]
    fn density_integrates_to_roughly_one() {
        // concentrated cluster like the paper's 10–25 µs band
        let samples: Vec<f64> = (0..500)
            .map(|i| 15_000.0 + (i % 100) as f64 * 100.0)
            .collect();
        let v = violin(&samples, 256).unwrap();
        // trapezoid integral over the evaluated span
        let mut integral = 0.0;
        for w in v.density.windows(2) {
            integral += (w[1].0 - w[0].0) * (w[0].1 + w[1].1) / 2.0;
        }
        assert!((0.8..1.1).contains(&integral), "integral = {integral}");
    }

    #[test]
    fn density_peaks_near_the_mode() {
        let mut samples = vec![10.0; 90];
        samples.extend(vec![100.0; 10]);
        let v = violin(&samples, 128).unwrap();
        let peak = v
            .density
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!(peak.0 < 30.0, "mode should be near 10, got {}", peak.0);
    }

    #[test]
    fn degenerate_single_value_still_works() {
        let v = violin(&[42.0, 42.0, 42.0], 8).unwrap();
        assert_eq!(v.median, 42.0);
        assert!(v.density.iter().all(|(_, d)| d.is_finite()));
    }

    #[test]
    fn empty_is_none() {
        assert!(violin(&[], 8).is_none());
        assert!(violin(&[1.0], 0).is_none());
    }
}
