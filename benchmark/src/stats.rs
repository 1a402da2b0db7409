//! Order statistics over timing samples.
//!
//! Every end-to-end timing the benchmark reports is a median over
//! repetitions (`common::record_end_to_end`), so one noisy phase of a
//! shared machine cannot move it; quartiles and the sample count travel
//! with it.

use serde::{Deserialize, Serialize};

use crate::report::Better;

/// Linear-interpolated percentile (`p` in `0..=1`) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice: every caller reports a sample count of at
/// least one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts a sample ascending. Timings and ratios are finite by
/// construction; a NaN means a bug upstream.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    values
}

/// A sample reduced to what the report prints: the value the metric
/// reports, and the count, median and quartiles behind it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// What the metric reports: the median, or for an end-to-end timing
    /// over repetitions the best of them ([`Summary::best_of`]).
    pub value: f64,
    /// Number of samples behind the statistics.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes a non-empty sample; the reported value is its median.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values.to_vec());
        let median = percentile(&s, 0.5);
        Self {
            value: median,
            n: s.len(),
            q1: percentile(&s, 0.25),
            median,
            q3: percentile(&s, 0.75),
        }
    }

    /// Summarizes a non-empty sample whose noise is one-sided; the
    /// reported value is its extreme on the side `better` points to.
    pub fn best_of(values: &[f64], better: Better) -> Self {
        let s = sorted(values.to_vec());
        Self {
            value: match better {
                Better::Lower => s[0],
                Better::Higher => s[s.len() - 1],
            },
            ..Self::of(values)
        }
    }

    /// A value that is not a sample statistic (a count, a computed
    /// ratio): `n` observations all equal to `value`.
    pub fn exact(value: f64, n: usize) -> Self {
        Self {
            value,
            n,
            q1: value,
            median: value,
            q3: value,
        }
    }

    /// How unsure the reported value is, as a share of it — what
    /// `compare` holds against a metric's bound. For a median, the
    /// interquartile range. For a best-of value, which sits outside the
    /// quartiles, its distance to the nearer one: a best repetition far
    /// from the bulk is one lucky repetition, not a level the run held.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            return 0.0;
        }
        let distance = if self.value < self.q1 {
            self.q1 - self.value
        } else if self.value > self.q3 {
            self.value - self.q3
        } else {
            self.q3 - self.q1
        };
        distance / self.value.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 40.0);
        assert_eq!(percentile(&s, 0.5), 25.0);
        assert!((percentile(&s, 0.25) - 17.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_reports_count_and_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.n, 5);
        assert_eq!((s.q1, s.median, s.q3, s.value), (2.0, 3.0, 4.0, 3.0));
        let sample = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(Summary::best_of(&sample, Better::Lower).value, 1.0);
        assert_eq!(Summary::best_of(&sample, Better::Higher).value, 5.0);
        assert_eq!(Summary::best_of(&sample, Better::Higher).median, 3.0);
        assert_eq!(Summary::best_of(&sample, Better::Lower).spread(), 1.0);
        assert_eq!(Summary::best_of(&sample, Better::Higher).spread(), 0.2);
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Summary::exact(9.0, 3).spread(), 0.0);
    }
}
