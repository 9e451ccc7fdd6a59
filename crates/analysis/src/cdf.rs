//! Empirical cumulative distribution functions (Fig. 3a).

/// Where the nearest-rank `p`-quantile of `n` ascending samples sits, `p`
/// in `[0, 1]`: the 0-based index of rank `ceil(p * n)`, at least rank 1.
/// The one definition of "nearest rank", behind
/// [`EmpiricalCdf::percentile`] and the percentiles an
/// [`AtiDataset`](crate::AtiDataset) selects.
///
/// # Panics
///
/// Panics when `n` is 0 or `p` is outside `[0, 1]`.
pub(crate) fn nearest_rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of empty CDF");
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// An empirical CDF over `u64` samples (nanosecond intervals, byte sizes).
///
/// # Examples
///
/// ```
/// use pinpoint_analysis::EmpiricalCdf;
///
/// let cdf = EmpiricalCdf::new(vec![10, 20, 30, 40]);
/// assert_eq!(cdf.percentile(0.5), 20);
/// assert_eq!(cdf.fraction_at_or_below(25), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmpiricalCdf {
    sorted: Vec<u64>,
}

impl EmpiricalCdf {
    /// Builds the CDF (sorts the samples).
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        EmpiricalCdf { sorted: samples }
    }

    /// Builds the CDF from already-sorted samples, skipping the sort.
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) if `samples` is not ascending.
    pub fn from_sorted(samples: Vec<u64>) -> Self {
        debug_assert!(
            samples.windows(2).all(|w| w[0] <= w[1]),
            "from_sorted requires ascending samples"
        );
        EmpiricalCdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest and largest sample, if any.
    pub fn range(&self) -> Option<(u64, u64)> {
        Some((*self.sorted.first()?, *self.sorted.last()?))
    }

    /// The `p`-quantile (nearest-rank), `p` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on an empty CDF or `p` outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.sorted[nearest_rank_index(self.sorted.len(), p)]
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at_or_below(&self, x: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// `(value, cumulative_fraction)` points for plotting, one per sample.
    pub fn points(&self) -> Vec<(u64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }

    /// Evenly spaced summary rows `(value, fraction)` for text reports:
    /// `steps + 1` points from p=0 to p=1.
    pub fn summary_rows(&self, steps: usize) -> Vec<(u64, f64)> {
        (0..=steps)
            .map(|i| {
                let p = i as f64 / steps as f64;
                (self.percentile(p), p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let c = EmpiricalCdf::new(vec![5, 1, 3, 2, 4]);
        assert_eq!(c.percentile(0.0), 1);
        assert_eq!(c.percentile(0.2), 1);
        assert_eq!(c.percentile(0.5), 3);
        assert_eq!(c.percentile(0.9), 5);
        assert_eq!(c.percentile(1.0), 5);
    }

    #[test]
    fn fractions_count_ties() {
        let c = EmpiricalCdf::new(vec![10, 10, 10, 20]);
        assert_eq!(c.fraction_at_or_below(10), 0.75);
        assert_eq!(c.fraction_at_or_below(9), 0.0);
        assert_eq!(c.fraction_at_or_below(20), 1.0);
    }

    #[test]
    fn points_are_monotone() {
        let c = EmpiricalCdf::new(vec![3, 1, 2]);
        let pts = c.points();
        assert_eq!(pts, vec![(1, 1.0 / 3.0), (2, 2.0 / 3.0), (3, 1.0)]);
    }

    #[test]
    fn summary_rows_span_the_range() {
        let c = EmpiricalCdf::new((1..=100).collect());
        let rows = c.summary_rows(4);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[4].0, 100);
        assert_eq!(rows[2].1, 0.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_percentile_panics() {
        EmpiricalCdf::new(vec![]).percentile(0.5);
    }
}
