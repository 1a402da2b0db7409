//! Hardware description of the simulated CPU, as constants.
//!
//! The values approximate one socket of the paper's evaluation machine,
//! a 12-core Intel Xeon E5-2680v3 (Haswell-EP): 32 KiB L1D / 256 KiB L2
//! per core, 30 MiB shared L3, ~2.5 GHz, AVX2 (8 f32 lanes), two FMA
//! ports. §4.3 of the paper: the model is specific to one CPU; so is this
//! simulated machine.

/// One level of the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevel {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Bandwidth *from the next slower level into this one*, bytes/second.
    pub fill_bandwidth: f64,
    /// `true` when shared by all cores (affects parallel scaling).
    pub shared: bool,
}

/// Cache hierarchy, fastest first (L1, L2, L3).
pub const CACHES: [CacheLevel; 3] = [
    CacheLevel {
        size_bytes: 32 * 1024,
        fill_bandwidth: 100e9,
        shared: false,
    },
    CacheLevel {
        size_bytes: 256 * 1024,
        fill_bandwidth: 60e9,
        shared: false,
    },
    CacheLevel {
        size_bytes: 30 * 1024 * 1024,
        fill_bandwidth: 30e9,
        shared: true,
    },
];

/// Cache line size in bytes; the cost model's traffic and the analysis's
/// line counts both derive from it.
pub(crate) const LINE_BYTES: u64 = 64;

/// Number of cores usable by the parallel runtime.
pub(crate) const CORES: u32 = 12;
/// Clock frequency in Hz.
pub(crate) const FREQ_HZ: f64 = 2.5e9;
/// SIMD lanes for `f32` (8 for AVX2).
pub(crate) const VECTOR_LANES: u32 = 8;
/// Arithmetic instructions retired per cycle (superscalar width).
pub(crate) const ISSUE_WIDTH: f64 = 2.0;
/// Cycles per (non-pipelined) division.
pub(crate) const DIV_COST: f64 = 8.0;
/// DRAM bandwidth in bytes/second (per socket).
pub(crate) const MEM_BANDWIDTH: f64 = 15e9;
/// Cycles of loop bookkeeping (increment, compare, branch) per innermost
/// iteration; amortized by unrolling and vectorization.
pub(crate) const LOOP_OVERHEAD_CYCLES: f64 = 1.5;
/// Seconds of overhead per parallel-region invocation (fork/join).
pub(crate) const PARALLEL_FORK_COST: f64 = 8e-6;
/// Per-core efficiency loss per extra core (synchronization, NUMA).
const PARALLEL_FRICTION: f64 = 0.015;
/// Effective number of cores that can saturate DRAM together.
pub(crate) const MEM_PARALLEL_CORES: f64 = 4.0;
/// Fraction of peak SIMD speedup attainable on unit-stride code.
pub(crate) const SIMD_EFFICIENCY: f64 = 0.85;

/// Effective parallel speedup when `trips` iterations are spread over the
/// cores (Amdahl-style friction, capped by the trip count).
pub(crate) fn parallel_speedup(trips: i64) -> f64 {
    let p = (CORES as f64).min(trips.max(1) as f64);
    p / (1.0 + PARALLEL_FRICTION * (p - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_machine() {
        assert_eq!(CORES, 12);
        assert_eq!(VECTOR_LANES, 8);
        assert!(CACHES[0].size_bytes < CACHES[1].size_bytes);
        assert!(CACHES[1].size_bytes < CACHES[2].size_bytes);
    }

    #[test]
    fn parallel_speedup_monotone_and_capped() {
        let s1 = parallel_speedup(1);
        let s4 = parallel_speedup(4);
        let s100 = parallel_speedup(100);
        assert!((s1 - 1.0).abs() < 1e-9);
        assert!(s4 > s1 && s100 > s4);
        assert!(s100 <= CORES as f64);
        // Capped by trip count.
        assert!(parallel_speedup(2) <= 2.0);
    }
}
