//! Hardware description of the simulated CPU.
//!
//! The defaults approximate one socket of the paper's evaluation machine,
//! a 12-core Intel Xeon E5-2680v3 (Haswell-EP): 32 KiB L1D / 256 KiB L2
//! per core, 30 MiB shared L3, ~2.5 GHz, AVX2 (8 f32 lanes), two FMA
//! ports. §4.3 of the paper: the model is specific to one CPU; so is this
//! simulated machine.

use serde::{Deserialize, Serialize};

/// One level of the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheLevel {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Bandwidth *from the next slower level into this one*, bytes/second.
    pub fill_bandwidth: f64,
    /// `true` when shared by all cores (affects parallel scaling).
    pub shared: bool,
}

/// Full description of the simulated machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of cores usable by the parallel runtime.
    pub cores: u32,
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// SIMD lanes for `f32` (8 for AVX2).
    pub vector_lanes: u32,
    /// Arithmetic instructions retired per cycle (superscalar width).
    pub issue_width: f64,
    /// Cycles per (non-pipelined) division.
    pub div_cost: f64,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Cache hierarchy, fastest first (L1, L2, L3).
    pub caches: Vec<CacheLevel>,
    /// DRAM bandwidth in bytes/second (per socket).
    pub mem_bandwidth: f64,
    /// Cycles of loop bookkeeping (increment, compare, branch) per
    /// innermost iteration; amortized by unrolling and vectorization.
    pub loop_overhead_cycles: f64,
    /// Seconds of overhead per parallel-region invocation (fork/join).
    pub parallel_fork_cost: f64,
    /// Per-core efficiency loss per extra core (synchronization, NUMA).
    pub parallel_friction: f64,
    /// Effective number of cores that can saturate DRAM together.
    pub mem_parallel_cores: f64,
    /// Fraction of peak SIMD speedup attainable on unit-stride code.
    pub simd_efficiency: f64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::xeon_e5_2680v3()
    }
}

impl MachineConfig {
    /// One socket of the paper's machine: 12-core Haswell-EP Xeon.
    pub fn xeon_e5_2680v3() -> Self {
        Self {
            cores: 12,
            freq_hz: 2.5e9,
            vector_lanes: 8,
            issue_width: 2.0,
            div_cost: 8.0,
            line_bytes: 64,
            caches: vec![
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
            ],
            mem_bandwidth: 15e9,
            loop_overhead_cycles: 1.5,
            parallel_fork_cost: 8e-6,
            parallel_friction: 0.015,
            mem_parallel_cores: 4.0,
            simd_efficiency: 0.85,
        }
    }

    /// Effective parallel speedup when `trips` iterations are spread over
    /// the cores (Amdahl-style friction, capped by the trip count).
    pub fn parallel_speedup(&self, trips: i64) -> f64 {
        let p = (self.cores as f64).min(trips.max(1) as f64);
        p / (1.0 + self.parallel_friction * (p - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_machine() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.cores, 12);
        assert_eq!(cfg.vector_lanes, 8);
        assert_eq!(cfg.caches.len(), 3);
        assert!(cfg.caches[0].size_bytes < cfg.caches[1].size_bytes);
        assert!(cfg.caches[1].size_bytes < cfg.caches[2].size_bytes);
    }

    #[test]
    fn parallel_speedup_monotone_and_capped() {
        let cfg = MachineConfig::default();
        let s1 = cfg.parallel_speedup(1);
        let s4 = cfg.parallel_speedup(4);
        let s100 = cfg.parallel_speedup(100);
        assert!((s1 - 1.0).abs() < 1e-9);
        assert!(s4 > s1 && s100 > s4);
        assert!(s100 <= cfg.cores as f64);
        // Capped by trip count.
        assert!(cfg.parallel_speedup(2) <= 2.0);
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = MachineConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: MachineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
