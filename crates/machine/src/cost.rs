//! The execution-time model.
//!
//! [`Machine::execute`] estimates the wall-clock time of a scheduled
//! program on the simulated CPU. It responds to exactly the mechanisms the
//! paper's transformations exploit:
//!
//! - **tiling** → smaller working sets hit faster cache levels,
//! - **interchange** → stride classes and footprint shapes change,
//! - **fusion** → consumer reads are served from the cache level that
//!   holds the producer/consumer reuse window,
//! - **parallelization** → core scaling with fork overhead, friction, and
//!   a shared-bandwidth ceiling,
//! - **vectorization** → SIMD speedup on unit-stride bodies,
//! - **unrolling** → amortized loop bookkeeping.

use dlcm_ir::ScheduledProgram;

use crate::analysis::{analyze_program, CompProfile};
use crate::config::{
    parallel_speedup, CACHES, DIV_COST, FREQ_HZ, ISSUE_WIDTH, LINE_BYTES, LOOP_OVERHEAD_CYCLES,
    MEM_BANDWIDTH, MEM_PARALLEL_CORES, PARALLEL_FORK_COST, SIMD_EFFICIENCY, VECTOR_LANES,
};

/// Breakdown of the estimated time of one computation (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompCost {
    /// Arithmetic time.
    pub compute: f64,
    /// Memory-hierarchy transfer time.
    pub memory: f64,
    /// Loop bookkeeping overhead.
    pub loop_overhead: f64,
    /// Parallel fork/join overhead.
    pub fork_overhead: f64,
    /// Final combined time.
    pub total: f64,
}

/// The simulated CPU: the one machine described by constants
/// ([`crate::CACHES`] and the cache line, cores, clock, SIMD width and
/// bandwidths beside it).
///
/// # Examples
///
/// ```
/// # use dlcm_ir::*;
/// use dlcm_machine::Machine;
/// # let mut b = ProgramBuilder::new("p");
/// # let i = b.iter("i", 0, 1024);
/// # let inp = b.input("in", &[1024]);
/// # let out = b.buffer("out", &[1024]);
/// # let acc = b.access(inp, &[i.into()], &[i]);
/// # b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
/// # let p = b.build().unwrap();
/// let machine = Machine;
/// let sp = apply_schedule(&p, &Schedule::empty()).unwrap();
/// let seconds = machine.execute(&sp);
/// assert!(seconds > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Machine;

impl Machine {
    /// Estimated execution time of a scheduled program, in seconds
    /// (deterministic — see [`crate::measure::Measurement`] for the noisy
    /// measurement harness).
    pub fn execute(&self, sp: &ScheduledProgram<'_>) -> f64 {
        analyze_program(sp)
            .iter()
            .map(|p| self.comp_cost(p).total)
            .sum()
    }

    /// Detailed per-computation cost breakdown.
    pub fn execute_detailed(&self, sp: &ScheduledProgram<'_>) -> Vec<CompCost> {
        analyze_program(sp)
            .iter()
            .map(|p| self.comp_cost(p))
            .collect()
    }

    /// Cost model for one computation profile.
    pub fn comp_cost(&self, prof: &CompProfile) -> CompCost {
        let points = prof.total_points.max(0) as f64;
        if points == 0.0 || prof.loops.is_empty() {
            return CompCost {
                compute: 0.0,
                memory: 0.0,
                loop_overhead: 0.0,
                fork_overhead: 0.0,
                total: 0.0,
            };
        }

        // --- SIMD effectiveness -------------------------------------------
        let innermost = prof.innermost().expect("non-empty loop nest");
        let vec_factor = innermost.vector_factor.unwrap_or(1).max(1);
        let unit_stride = prof.accesses.iter().all(|a| a.innermost_stride.abs() <= 1);
        let simd_speedup = if vec_factor > 1 {
            if unit_stride {
                (vec_factor.min(VECTOR_LANES as i64) as f64) * SIMD_EFFICIENCY
            } else {
                // Gather/scatter: barely worth it.
                1.1
            }
        } else {
            1.0
        };

        // --- Arithmetic ----------------------------------------------------
        let [adds, muls, subs, divs] = prof.op_counts;
        let cheap_ops = (adds + muls + subs) as f64;
        let cycles_per_point =
            (cheap_ops / ISSUE_WIDTH + divs as f64 * DIV_COST + prof.num_loads as f64 * 0.5)
                .max(0.5);
        let compute_cycles = points * cycles_per_point / simd_speedup;
        let mut compute = compute_cycles / FREQ_HZ;

        // --- Loop bookkeeping ----------------------------------------------
        let unroll = innermost.unroll_factor.unwrap_or(1).max(1) as f64;
        // Excessive unrolling trashes the icache / register file.
        let unroll_penalty = if unroll > 16.0 { 1.15 } else { 1.0 };
        let mut overhead_iters = 0.0f64;
        for d in 0..prof.loops.len() {
            let iters = prof.outer_iters(d + 1) as f64;
            if d + 1 == prof.loops.len() {
                overhead_iters += iters / (unroll * simd_speedup.max(1.0)) * unroll_penalty;
            } else {
                overhead_iters += iters;
            }
        }
        let mut loop_overhead = overhead_iters * LOOP_OVERHEAD_CYCLES / FREQ_HZ;

        // --- Memory hierarchy ----------------------------------------------
        let line = LINE_BYTES as f64;
        let elem_bytes = 4.0f64;
        let n_levels = CACHES.len();
        // Per transfer boundary: caches[0..n] then DRAM (index n_levels).
        let mut level_time = vec![0.0f64; n_levels + 1];
        for acc in &prof.accesses {
            // Level from which the data is already resident thanks to a
            // producer in the shared reuse window.
            let resident_level = match acc.producer_lca_depth {
                None => n_levels + 1, // inputs: resident nowhere (DRAM+1)
                Some(lca) => {
                    let window_bytes =
                        acc.footprints[lca.min(acc.footprints.len() - 1)] as f64 * elem_bytes;
                    CACHES
                        .iter()
                        .position(|c| window_bytes <= c.size_bytes as f64)
                        .unwrap_or(n_levels)
                }
            };
            for (ci, cache) in CACHES.iter().enumerate() {
                if ci >= resident_level {
                    break; // served by a faster (or equal) level already
                }
                // Outermost depth whose sub-nest footprint fits this cache.
                let fit_depth = (0..acc.footprints.len())
                    .find(|&d| acc.footprints[d] as f64 * elem_bytes <= cache.size_bytes as f64)
                    .unwrap_or(acc.footprints.len() - 1);
                let misses = prof.outer_iters(fit_depth) as f64 * acc.lines[fit_depth] as f64;
                let mut bytes = misses * line;
                if acc.is_store {
                    bytes *= 1.5; // write-allocate + eventual write-back
                }
                level_time[ci] += bytes / cache.fill_bandwidth;
            }
            // DRAM traffic = misses of the last cache level.
            if resident_level > n_levels {
                let last = n_levels - 1;
                let cache = &CACHES[last];
                let fit_depth = (0..acc.footprints.len())
                    .find(|&d| acc.footprints[d] as f64 * elem_bytes <= cache.size_bytes as f64)
                    .unwrap_or(acc.footprints.len() - 1);
                // Only iterations that overflow the last cache reach DRAM.
                let misses = prof.outer_iters(fit_depth) as f64 * acc.lines[fit_depth] as f64;
                let mut bytes = misses * line;
                if acc.is_store {
                    bytes *= 1.5;
                }
                level_time[n_levels] += bytes / MEM_BANDWIDTH;
            }
        }

        // --- Parallel scaling ------------------------------------------------
        let mut fork_overhead = 0.0;
        if let Some(pd) = prof.parallel_depth() {
            let par = parallel_speedup(prof.loops[pd].trips);
            compute /= par;
            loop_overhead /= par;
            for (ci, t) in level_time.iter_mut().enumerate() {
                if ci < n_levels && !CACHES[ci].shared {
                    *t /= par; // private caches scale with cores
                } else {
                    *t /= par.min(MEM_PARALLEL_CORES); // shared bandwidth
                }
            }
            fork_overhead = prof.outer_iters(pd) as f64 * PARALLEL_FORK_COST;
        }

        let memory: f64 = level_time.iter().sum();
        let total = compute.max(memory) + loop_overhead + fork_overhead;
        CompCost {
            compute,
            memory,
            loop_overhead,
            fork_overhead,
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::*;

    fn matmul(n: i64) -> Program {
        let mut b = ProgramBuilder::new("mm");
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let k = b.iter("k", 0, n);
        let a_buf = b.input("a", &[n, n]);
        let b_buf = b.input("b", &[n, n]);
        let out = b.buffer("out", &[n, n]);
        let iters = [i, j, k];
        let a_acc = b.access(a_buf, &[i.into(), k.into()], &iters);
        let b_acc = b.access(b_buf, &[k.into(), j.into()], &iters);
        b.reduce(
            "mm",
            &iters,
            BinOp::Add,
            out,
            &[i.into(), j.into()],
            Expr::binary(BinOp::Mul, Expr::Load(a_acc), Expr::Load(b_acc)),
        );
        b.build().unwrap()
    }

    fn elementwise(n: i64) -> Program {
        let mut b = ProgramBuilder::new("ew");
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let inp = b.input("in", &[n, n]);
        let out = b.buffer("out", &[n, n]);
        let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign(
            "c",
            &[i, j],
            out,
            &[i.into(), j.into()],
            Expr::binary(BinOp::Add, Expr::Load(acc), Expr::Const(1.0)),
        );
        b.build().unwrap()
    }

    fn time_of(p: &Program, s: &Schedule) -> f64 {
        Machine.execute(&apply_schedule(p, s).unwrap())
    }

    #[test]
    fn more_work_takes_longer() {
        let small = time_of(&matmul(64), &Schedule::empty());
        let large = time_of(&matmul(128), &Schedule::empty());
        assert!(
            large > 4.0 * small,
            "8x flops should be >4x slower: {small} vs {large}"
        );
    }

    #[test]
    fn parallelization_helps_large_loops() {
        let p = elementwise(2048);
        let base = time_of(&p, &Schedule::empty());
        let par = time_of(
            &p,
            &Schedule::new(vec![Transform::Parallelize {
                comp: CompId(0),
                level: 0,
            }]),
        );
        assert!(par < base, "parallel {par} should beat serial {base}");
    }

    #[test]
    fn parallelizing_tiny_loops_hurts() {
        // 4 iterations of trivial work under a big outer loop: the fork
        // cost dominates. Parallelize the *inner* loop of a 2-level nest.
        let p = elementwise(64);
        let base = time_of(&p, &Schedule::empty());
        let par_inner = time_of(
            &p,
            &Schedule::new(vec![Transform::Parallelize {
                comp: CompId(0),
                level: 1,
            }]),
        );
        assert!(
            par_inner > base,
            "inner-loop parallelism should be a slowdown: {par_inner} vs {base}"
        );
    }

    #[test]
    fn vectorization_helps_unit_stride() {
        let p = elementwise(1024);
        let base = time_of(&p, &Schedule::empty());
        let vec = time_of(
            &p,
            &Schedule::new(vec![Transform::Vectorize {
                comp: CompId(0),
                factor: 8,
            }]),
        );
        assert!(vec < base, "vectorized {vec} should beat scalar {base}");
    }

    #[test]
    fn strided_access_is_slower_than_unit_stride() {
        // Same work, transposed store: out[j,i] = in[j,i] iterated (i,j)
        // has strided innermost accesses.
        let n = 512;
        let mut b = ProgramBuilder::new("tr");
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let inp = b.input("in", &[n, n]);
        let out = b.buffer("out", &[n, n]);
        let acc = b.access(inp, &[j.into(), i.into()], &[i, j]);
        b.assign("c", &[i, j], out, &[j.into(), i.into()], Expr::Load(acc));
        let strided = b.build().unwrap();

        let good = time_of(&elementwise(n), &Schedule::empty());
        let bad = time_of(&strided, &Schedule::empty());
        assert!(
            bad > 2.0 * good,
            "strided {bad} should be much slower than {good}"
        );
    }

    #[test]
    fn interchange_fixes_strided_program() {
        let n = 512;
        let mut b = ProgramBuilder::new("tr");
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let inp = b.input("in", &[n, n]);
        let out = b.buffer("out", &[n, n]);
        let acc = b.access(inp, &[j.into(), i.into()], &[i, j]);
        b.assign("c", &[i, j], out, &[j.into(), i.into()], Expr::Load(acc));
        let p = b.build().unwrap();
        let bad = time_of(&p, &Schedule::empty());
        let fixed = time_of(
            &p,
            &Schedule::new(vec![Transform::Interchange {
                comp: CompId(0),
                level_a: 0,
                level_b: 1,
            }]),
        );
        assert!(
            fixed < bad,
            "interchange should fix the stride: {fixed} vs {bad}"
        );
    }

    #[test]
    fn tiling_helps_matmul() {
        let p = matmul(512);
        let base = time_of(&p, &Schedule::empty());
        let tiled = time_of(
            &p,
            &Schedule::new(vec![Transform::Tile {
                comp: CompId(0),
                level_a: 1,
                level_b: 2,
                size_a: 64,
                size_b: 64,
            }]),
        );
        assert!(tiled < base, "tiling should help matmul: {tiled} vs {base}");
    }

    #[test]
    fn unrolling_reduces_overhead_slightly() {
        let p = elementwise(1024);
        let base = time_of(&p, &Schedule::empty());
        let unrolled = time_of(
            &p,
            &Schedule::new(vec![Transform::Unroll {
                comp: CompId(0),
                factor: 8,
            }]),
        );
        assert!(unrolled < base);
        assert!(
            unrolled > base * 0.3,
            "unrolling is a small win, not a magic one"
        );
    }

    #[test]
    fn fusion_removes_intermediate_traffic() {
        // prod writes a big temporary; cons reads it. Fused, the temp stays
        // in cache.
        let n = 2048i64;
        let build = || {
            let mut b = ProgramBuilder::new("pc");
            let i = b.iter("i", 0, n);
            let j = b.iter("j", 0, n);
            let inp = b.input("in", &[n, n]);
            let tmp = b.buffer("tmp", &[n, n]);
            let out = b.buffer("out", &[n, n]);
            let l1 = b.access(inp, &[i.into(), j.into()], &[i, j]);
            b.assign("prod", &[i, j], tmp, &[i.into(), j.into()], Expr::Load(l1));
            let i2 = b.iter("i2", 0, n);
            let j2 = b.iter("j2", 0, n);
            let l2 = b.access(tmp, &[i2.into(), j2.into()], &[i2, j2]);
            b.assign(
                "cons",
                &[i2, j2],
                out,
                &[i2.into(), j2.into()],
                Expr::binary(BinOp::Mul, Expr::Load(l2), Expr::Const(3.0)),
            );
            b.build().unwrap()
        };
        let p = build();
        let unfused = time_of(&p, &Schedule::empty());
        let fused = time_of(
            &p,
            &Schedule::new(vec![Transform::Fuse {
                comp: CompId(1),
                with: CompId(0),
                depth: 2,
            }]),
        );
        assert!(fused < unfused, "fusion should help: {fused} vs {unfused}");
    }

    #[test]
    fn cost_breakdown_is_consistent() {
        let p = matmul(128);
        let sp = apply_schedule(&p, &Schedule::empty()).unwrap();
        let detail = Machine.execute_detailed(&sp);
        assert_eq!(detail.len(), 1);
        let c = detail[0];
        assert!(c.total >= c.compute.max(c.memory));
        assert!((Machine.execute(&sp) - c.total).abs() < 1e-12);
    }

    #[test]
    fn empty_extent_costs_nothing() {
        let mut b = ProgramBuilder::new("empty");
        let i = b.iter("i", 0, 0);
        let out = b.buffer("out", &[1]);
        b.assign(
            "c",
            &[i],
            out,
            &[LinExpr::constant_expr(0)],
            Expr::Const(1.0),
        );
        let p = b.build().unwrap();
        assert_eq!(time_of(&p, &Schedule::empty()), 0.0);
    }
}
