//! The 54 hand-engineered features of the Halide-2019-style baseline.
//!
//! The paper contrasts its featureless model with Halide's autoscheduler
//! (Adams et al. 2019), which "uses 54 heavily engineered features to
//! perform its predictions". This module reconstructs a faithful analogue
//! of that style over our IR: footprints per cache level, stride
//! histograms, trip counts, parallelism/vector/unroll structure, and
//! arithmetic intensity — all computed from the *scheduled* program via
//! the same static analysis the machine model uses.

use dlcm_ir::{apply_schedule, Program, Schedule, ScheduledProgram};
use dlcm_machine::{analyze_program, CompProfile, CACHES};

/// Number of engineered features (matching Halide's 54).
pub const NUM_FEATURES: usize = 54;

fn log1p(x: f64) -> f64 {
    x.max(0.0).ln_1p()
}

/// Mean over comp profiles of a projection.
fn mean(profiles: &[CompProfile], f: impl Fn(&CompProfile) -> f64) -> f64 {
    if profiles.is_empty() {
        return 0.0;
    }
    profiles.iter().map(f).sum::<f64>() / profiles.len() as f64
}

fn maxf(profiles: &[CompProfile], f: impl Fn(&CompProfile) -> f64) -> f64 {
    profiles.iter().map(f).fold(0.0, f64::max)
}

/// Depth (outermost) at which an access's sub-nest footprint first fits a
/// cache of `size` bytes.
fn fit_depth(footprints: &[u64], size: u64) -> usize {
    (0..footprints.len())
        .find(|&d| footprints[d] * 4 <= size)
        .unwrap_or(footprints.len() - 1)
}

/// Estimated lines fetched into a cache of `size` bytes per point.
fn misses_per_point(prof: &CompProfile, size: u64) -> f64 {
    let points = prof.total_points.max(1) as f64;
    prof.accesses
        .iter()
        .map(|a| {
            let d = fit_depth(&a.footprints, size);
            prof.outer_iters(d) as f64 * a.lines[d] as f64
        })
        .sum::<f64>()
        / points
}

/// Computes the 54-feature vector for a scheduled program; `schedule` is
/// the schedule `sp` applies (feature 50 counts its transforms).
///
/// # Panics
///
/// Panics if the scheduled program has no computations.
pub fn halide_features(sp: &ScheduledProgram<'_>, schedule: &Schedule) -> Vec<f64> {
    let profiles = analyze_program(sp);
    assert!(!profiles.is_empty(), "program has no computations");
    let p = &profiles;
    let total_points: f64 = p.iter().map(|c| c.total_points.max(0) as f64).sum();

    let all_accesses = |f: &dyn Fn(&dlcm_machine::AccessProfile) -> f64| -> (f64, f64) {
        let mut sum = 0.0f64;
        let mut count = 0.0f64;
        for c in p.iter() {
            for a in &c.accesses {
                sum += f(a);
                count += 1.0;
            }
        }
        (sum, count.max(1.0))
    };

    let (unit, n_acc) = all_accesses(&|a| f64::from(a.innermost_stride.abs() <= 1));
    let (zero, _) = all_accesses(&|a| f64::from(a.innermost_stride == 0));
    let (strided, _) = all_accesses(&|a| f64::from(a.innermost_stride.abs() > 1));
    let (root_fp, _) = all_accesses(&|a| a.footprints[0] as f64);
    let (lca_sum, _) = all_accesses(&|a| a.producer_lca_depth.unwrap_or(0) as f64);

    let flops: f64 = p
        .iter()
        .map(|c| {
            let [a, m, s, d] = c.op_counts;
            (a + m + s + d) as f64 * c.total_points.max(0) as f64
        })
        .sum();

    let [l1, l2, l3] = CACHES.map(|c| c.size_bytes);

    let par_trips = |c: &CompProfile| c.parallel_depth().map_or(0.0, |d| c.loops[d].trips as f64);
    let par_chunk = |c: &CompProfile| {
        c.parallel_depth().map_or(0.0, |d| {
            c.total_points.max(1) as f64 / c.loops[d].trips.max(1) as f64
        })
    };
    let vector = |c: &CompProfile| c.innermost().and_then(|l| l.vector_factor).unwrap_or(0) as f64;
    let unroll = |c: &CompProfile| c.innermost().and_then(|l| l.unroll_factor).unwrap_or(0) as f64;
    let tiles = |c: &CompProfile| {
        c.loops
            .iter()
            .filter(|l| l.step > 1)
            .map(|l| l.step as f64)
            .sum::<f64>()
    };
    let n_tiled = |c: &CompProfile| c.loops.iter().filter(|l| l.step > 1).count() as f64;
    let inner_extent = |c: &CompProfile| c.innermost().map_or(0.0, |l| l.trips as f64);
    let outer_extent = |c: &CompProfile| c.loops.first().map_or(0.0, |l| l.trips as f64);
    let store_fp = |c: &CompProfile| c.accesses[0].footprints[0] as f64;
    let red_levels = |c: &CompProfile| sp.program().comp(c.comp).reduction_levels.len() as f64;

    let v = vec![
        // --- global shape (1-8) ------------------------------------------
        log1p(total_points),             // 1
        p.len() as f64,                  // 2
        log1p(flops),                    // 3
        flops / total_points.max(1.0),   // 4 ops per point
        mean(p, |c| c.num_loads as f64), // 5
        mean(p, |c| c.depth() as f64),   // 6
        maxf(p, |c| c.depth() as f64),   // 7
        sp.num_roots() as f64,           // 8
        // --- op mix (9-12) -------------------------------------------------
        mean(p, |c| c.op_counts[0] as f64), // 9 adds
        mean(p, |c| c.op_counts[1] as f64), // 10 muls
        mean(p, |c| c.op_counts[2] as f64), // 11 subs
        mean(p, |c| c.op_counts[3] as f64), // 12 divs
        // --- strides (13-16) -----------------------------------------------
        unit / n_acc,    // 13
        zero / n_acc,    // 14
        strided / n_acc, // 15
        n_acc,           // 16
        // --- footprints & reuse (17-24) --------------------------------------
        log1p(root_fp),           // 17
        log1p(mean(p, store_fp)), // 18
        lca_sum / n_acc,          // 19 producer reuse depth
        mean(p, |c| {
            c.accesses
                .iter()
                .map(|a| fit_depth(&a.footprints, l1) as f64)
                .sum::<f64>()
                / c.accesses.len().max(1) as f64
        }), // 20 L1 fit depth
        mean(p, |c| {
            c.accesses
                .iter()
                .map(|a| fit_depth(&a.footprints, l2) as f64)
                .sum::<f64>()
                / c.accesses.len().max(1) as f64
        }), // 21 L2 fit depth
        mean(p, |c| {
            c.accesses
                .iter()
                .map(|a| fit_depth(&a.footprints, l3) as f64)
                .sum::<f64>()
                / c.accesses.len().max(1) as f64
        }), // 22 L3 fit depth
        log1p(mean(p, |c| misses_per_point(c, l1))), // 23
        log1p(mean(p, |c| misses_per_point(c, l3))), // 24
        // --- parallelism (25-29) ----------------------------------------------
        mean(p, |c| f64::from(c.parallel_depth().is_some())), // 25
        log1p(mean(p, par_trips)),                            // 26
        log1p(mean(p, par_chunk)),                            // 27
        mean(p, |c| c.parallel_depth().map_or(0.0, |d| d as f64)), // 28
        log1p(maxf(p, par_chunk)),                            // 29
        // --- vectorization (30-33) --------------------------------------------
        mean(p, |c| f64::from(vector(c) > 0.0)), // 30
        mean(p, vector),                         // 31
        mean(p, |c| {
            f64::from(vector(c) > 0.0)
                * c.accesses
                    .iter()
                    .map(|a| f64::from(a.innermost_stride.abs() <= 1))
                    .sum::<f64>()
                / c.accesses.len().max(1) as f64
        }), // 32
        log1p(mean(p, inner_extent)),            // 33
        // --- unrolling (34-35) --------------------------------------------------
        mean(p, |c| f64::from(unroll(c) > 0.0)), // 34
        mean(p, unroll),                         // 35
        // --- tiling (36-40) -------------------------------------------------------
        mean(p, |c| f64::from(n_tiled(c) > 0.0)), // 36
        mean(p, n_tiled),                         // 37
        log1p(mean(p, tiles)),                    // 38
        mean(p, |c| {
            // Innermost working set vs L1.
            let d = c.depth().saturating_sub(2);
            c.accesses
                .iter()
                .map(|a| (a.footprints[d.min(a.footprints.len() - 1)] as f64 * 4.0) / l1 as f64)
                .sum::<f64>()
                / c.accesses.len().max(1) as f64
        })
        .min(1e6), // 39
        log1p(mean(p, outer_extent)),             // 40
        // --- reductions (41-43) -----------------------------------------------------
        mean(p, |c| f64::from(red_levels(c) > 0.0)), // 41
        mean(p, red_levels),                         // 42
        log1p(mean(p, |c| {
            sp.program()
                .comp(c.comp)
                .reduction_levels
                .iter()
                .map(|&l| sp.program().extent(sp.program().comp(c.comp).iters[l]) as f64)
                .product::<f64>()
        })), // 43
        // --- per-comp extremes (44-49) -----------------------------------------------
        log1p(maxf(p, |c| c.total_points as f64)), // 44
        log1p(mean(p, |c| c.total_points as f64)), // 45
        log1p(maxf(p, store_fp)),                  // 46
        maxf(p, |c| c.num_loads as f64),           // 47
        log1p(maxf(p, inner_extent)),              // 48
        log1p(maxf(p, outer_extent)),              // 49
        // --- schedule size & intensity (50-54) ------------------------------------------
        schedule.len() as f64,                       // 50
        flops / (root_fp * 4.0).max(1.0),            // 51 arithmetic intensity
        log1p(mean(p, |c| misses_per_point(c, l2))), // 52
        mean(p, |c| {
            c.accesses
                .iter()
                .map(|a| log1p(a.innermost_stride.unsigned_abs() as f64))
                .sum::<f64>()
                / c.accesses.len().max(1) as f64
        }), // 53
        log1p(total_points / sp.num_roots().max(1) as f64), // 54
    ];
    debug_assert_eq!(v.len(), NUM_FEATURES);
    v
}

/// Convenience: features for a `(program, schedule)` pair.
///
/// # Errors
///
/// Propagates schedule-validation failures.
pub fn featurize_pair(
    program: &Program,
    schedule: &Schedule,
) -> Result<Vec<f64>, dlcm_ir::ScheduleError> {
    let sp = apply_schedule(program, schedule)?;
    Ok(halide_features(&sp, schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::{CompId, Expr, ProgramBuilder, Transform};

    fn program() -> Program {
        let mut b = ProgramBuilder::new("p");
        let i = b.iter("i", 0, 256);
        let j = b.iter("j", 0, 256);
        let inp = b.input("in", &[256, 256]);
        let out = b.buffer("out", &[256, 256]);
        let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign("c", &[i, j], out, &[i.into(), j.into()], Expr::Load(acc));
        b.build().unwrap()
    }

    #[test]
    fn feature_vector_is_54_wide_and_finite() {
        let v = featurize_pair(&program(), &Schedule::empty()).unwrap();
        assert_eq!(v.len(), NUM_FEATURES);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn schedule_changes_features() {
        let p = program();
        let base = featurize_pair(&p, &Schedule::empty()).unwrap();
        let sched = Schedule::new(vec![
            Transform::Tile {
                comp: CompId(0),
                level_a: 0,
                level_b: 1,
                size_a: 32,
                size_b: 32,
            },
            Transform::Parallelize {
                comp: CompId(0),
                level: 0,
            },
            Transform::Vectorize {
                comp: CompId(0),
                factor: 8,
            },
        ]);
        let opt = featurize_pair(&p, &sched).unwrap();
        assert_ne!(base, opt);
        // Parallel fraction (feature 25) flips from 0 to 1.
        assert_eq!(base[24], 0.0);
        assert_eq!(opt[24], 1.0);
        // Vector width (feature 31) becomes 8.
        assert_eq!(opt[30], 8.0);
    }

    #[test]
    fn features_deterministic() {
        let p = program();
        let a = featurize_pair(&p, &Schedule::empty()).unwrap();
        let b = featurize_pair(&p, &Schedule::empty()).unwrap();
        assert_eq!(a, b);
    }
}
