//! Uniform evaluation accounting.
//!
//! §5/§6 of the paper trade search time against schedule quality
//! (Table 2): beam search with execution pays simulated compile+run
//! seconds per candidate, model-guided search pays inference milliseconds.
//! [`EvalStats`] carries both on the same struct so every consumer — beam,
//! MCTS, the experiment binaries — reads one shape of number regardless of
//! the evaluator behind the trait object. The caching layer
//! ([`crate::SharedCachedEvaluator`]) reports its hit/miss counters on the same
//! struct, so search logs can show how much re-derived work was skipped.

use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// Accounting snapshot of an [`crate::Evaluator`].
///
/// `search_time` is the total accounted cost in seconds;
/// `compile_time` (simulated candidate compilation) and `infer_time`
/// (wall-clock model inference) are its components, each zero for
/// evaluators that do not pay that cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EvalStats {
    /// Number of candidate evaluations performed (cache hits excluded:
    /// a hit is precisely an evaluation *not* performed).
    pub num_evals: usize,
    /// Total accounted search time in seconds. For execution this is the
    /// *simulated* compile+run time (standing in for the paper's real
    /// hardware); for model evaluators it is inference time — measured
    /// wall-clock by default, or the deterministic simulated charge when
    /// one is configured (see `ModelEvaluator::with_simulated_cost`).
    pub search_time: f64,
    /// Seconds spent (simulated) compiling candidates.
    pub compile_time: f64,
    /// Seconds of wall-clock model inference (featurize + forward).
    pub infer_time: f64,
    /// Candidates answered from the schedule-keyed result cache without
    /// touching the wrapped evaluator (zero unless a
    /// [`crate::SharedCachedEvaluator`] is in the stack).
    pub cache_hits: usize,
    /// Candidates that missed the cache and were forwarded to the wrapped
    /// evaluator (zero unless a [`crate::SharedCachedEvaluator`] is in the
    /// stack).
    pub cache_misses: usize,
}

impl EvalStats {
    /// The delta accumulated since an earlier snapshot (e.g. taken before
    /// a search run).
    #[must_use]
    pub fn since(&self, earlier: &EvalStats) -> EvalStats {
        *self - *earlier
    }

    /// Fraction of cache lookups answered from the cache, or `None` when
    /// no caching layer recorded any lookups.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.cache_hits + self.cache_misses;
        (lookups > 0).then(|| self.cache_hits as f64 / lookups as f64)
    }
}

impl Add for EvalStats {
    type Output = EvalStats;

    fn add(self, rhs: EvalStats) -> EvalStats {
        EvalStats {
            num_evals: self.num_evals + rhs.num_evals,
            search_time: self.search_time + rhs.search_time,
            compile_time: self.compile_time + rhs.compile_time,
            infer_time: self.infer_time + rhs.infer_time,
            cache_hits: self.cache_hits + rhs.cache_hits,
            cache_misses: self.cache_misses + rhs.cache_misses,
        }
    }
}

impl AddAssign for EvalStats {
    fn add_assign(&mut self, rhs: EvalStats) {
        *self = *self + rhs;
    }
}

impl Sub for EvalStats {
    type Output = EvalStats;

    fn sub(self, rhs: EvalStats) -> EvalStats {
        // Deltas are never negative in any quantity this struct accounts:
        // the counters saturate, and the float fields clamp at zero so
        // that rounding in accumulated wall-clock sums (snapshots taken
        // around an empty interval can differ in the last ulp) cannot
        // produce a negative search/compile/inference time.
        EvalStats {
            num_evals: self.num_evals.saturating_sub(rhs.num_evals),
            search_time: (self.search_time - rhs.search_time).max(0.0),
            compile_time: (self.compile_time - rhs.compile_time).max(0.0),
            infer_time: (self.infer_time - rhs.infer_time).max(0.0),
            cache_hits: self.cache_hits.saturating_sub(rhs.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(rhs.cache_misses),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_sum_are_componentwise() {
        let a = EvalStats {
            num_evals: 3,
            search_time: 2.0,
            compile_time: 1.5,
            infer_time: 0.0,
            cache_hits: 1,
            cache_misses: 2,
        };
        let b = EvalStats {
            num_evals: 8,
            search_time: 5.0,
            compile_time: 3.0,
            infer_time: 0.5,
            cache_hits: 4,
            cache_misses: 6,
        };
        let d = b.since(&a);
        assert_eq!(d.num_evals, 5);
        assert_eq!(d.cache_hits, 3);
        assert!((d.search_time - 3.0).abs() < 1e-12);
        let s = a + d;
        assert_eq!(s, b);
    }

    #[test]
    fn delta_floats_clamp_at_zero() {
        // A snapshot pair whose float fields differ only by accumulated
        // rounding (earlier marginally above later) must yield a zero
        // delta, not a negative time.
        let later = EvalStats {
            num_evals: 4,
            search_time: 0.1 + 0.2, // 0.30000000000000004…
            compile_time: 1.0,
            infer_time: 2.0,
            ..EvalStats::default()
        };
        let earlier = EvalStats {
            num_evals: 4,
            search_time: 0.3,
            compile_time: 1.0 + f64::EPSILON,
            infer_time: 2.0 + f64::EPSILON,
            ..EvalStats::default()
        };
        let d = later.since(&earlier);
        assert!(d.search_time >= 0.0);
        assert_eq!(d.compile_time, 0.0, "rounding must clamp, not go negative");
        assert_eq!(d.infer_time, 0.0);
        // And the reverse direction clamps too.
        let r = earlier.since(&later);
        assert_eq!(r.search_time, 0.0);
    }

    #[test]
    fn hit_rate_is_none_without_lookups() {
        assert_eq!(EvalStats::default().cache_hit_rate(), None);
        let s = EvalStats {
            cache_hits: 3,
            cache_misses: 1,
            ..EvalStats::default()
        };
        assert_eq!(s.cache_hit_rate(), Some(0.75));
    }
}
