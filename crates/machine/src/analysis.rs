//! Static analysis of scheduled programs: trip counts, stride classes,
//! and per-loop-depth working-set footprints.
//!
//! These quantities drive the cost model in [`crate::cost`] and are also
//! reused by the Halide-style baseline featurizer (`dlcm-baseline`), which
//! hand-engineers its features from exactly this kind of information.

use dlcm_ir::{BufferId, CompId, IterId, LoopSource, ScheduledProgram};

use crate::config::LINE_BYTES;

/// A loop enclosing a computation, as seen by the analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopCtx {
    /// Node index of the loop within the scheduled forest, unique per
    /// loop (used to find common ancestors between computations).
    pub uid: usize,
    /// The (resolved) original iterator the loop derives from.
    pub iter: IterId,
    /// Trip count (tile-edge clamping ignored).
    pub trips: i64,
    /// Step in original-iterator units per iteration (tile size for
    /// tile-outer loops, 1 otherwise).
    pub step: i64,
    /// Parallel tag.
    pub parallel: bool,
    /// SIMD tag.
    pub vector_factor: Option<i64>,
    /// Unroll tag.
    pub unroll_factor: Option<i64>,
}

/// Analysis of one memory access of a computation.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessProfile {
    /// Accessed buffer.
    pub buffer: BufferId,
    /// `true` for the store access.
    pub is_store: bool,
    /// Absolute element stride in the flattened buffer per iteration of
    /// the innermost scheduled loop (0 = invariant, 1 = unit stride).
    pub innermost_stride: i64,
    /// `footprints[d]` = number of distinct elements touched by one
    /// execution of the sub-nest formed by loops `d..` (so
    /// `footprints[loops.len()]` is 1 and `footprints[0]` covers the whole
    /// computation).
    pub footprints: Vec<u64>,
    /// Same, in cache lines (accounts for spatial locality).
    pub lines: Vec<u64>,
    /// Depth (into the computation's loop path) of the deepest loop shared
    /// with the producer of this buffer; `None` for program inputs or when
    /// no other computation writes the buffer.
    pub producer_lca_depth: Option<usize>,
}

/// Full analysis of one computation under the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CompProfile {
    /// The computation.
    pub comp: CompId,
    /// Enclosing scheduled loops, outermost first.
    pub loops: Vec<LoopCtx>,
    /// Exact iteration-point count (product of original extents).
    pub total_points: i64,
    /// `[adds, muls, subs, divs]` per point (paper Table 1 order).
    pub op_counts: [usize; 4],
    /// Number of loads per point.
    pub num_loads: usize,
    /// Per-access analyses (store first).
    pub accesses: Vec<AccessProfile>,
}

impl CompProfile {
    /// Loop depth of the computation after scheduling.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Product of trip counts of loops `0..d` (iterations of the outer
    /// region that re-executes the sub-nest at depth `d`).
    pub fn outer_iters(&self, d: usize) -> i64 {
        self.loops[..d]
            .iter()
            .map(|l| l.trips)
            .product::<i64>()
            .max(1)
    }

    /// The innermost loop, if any.
    pub fn innermost(&self) -> Option<&LoopCtx> {
        self.loops.last()
    }

    /// Index of the outermost loop tagged parallel, if any.
    pub fn parallel_depth(&self) -> Option<usize> {
        self.loops.iter().position(|l| l.parallel)
    }
}

/// Analyzes every computation of a scheduled program.
///
/// # Examples
///
/// ```
/// # use dlcm_ir::*;
/// # let mut b = ProgramBuilder::new("p");
/// # let i = b.iter("i", 0, 32);
/// # let inp = b.input("in", &[32]);
/// # let out = b.buffer("out", &[32]);
/// # let acc = b.access(inp, &[i.into()], &[i]);
/// # b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
/// # let p = b.build().unwrap();
/// let sp = apply_schedule(&p, &Schedule::empty()).unwrap();
/// let profiles = dlcm_machine::analyze_program(&sp);
/// assert_eq!(profiles[0].total_points, 32);
/// assert_eq!(profiles[0].accesses[0].footprints[0], 32);
/// ```
pub fn analyze_program(sp: &ScheduledProgram<'_>) -> Vec<CompProfile> {
    let program = sp.program();
    // The loops enclosing each computation, indexed by computation.
    let paths: Vec<Vec<LoopCtx>> = program
        .comp_ids()
        .map(|c| {
            sp.loops(c)
                .map(|(uid, l)| LoopCtx {
                    uid,
                    iter: sp.resolve(l.source.iter()),
                    trips: l.extent,
                    step: match l.source {
                        LoopSource::TileOuter { tile, .. } => tile,
                        _ => 1,
                    },
                    parallel: l.parallel,
                    vector_factor: l.vector_factor,
                    unroll_factor: l.unroll_factor,
                })
                .collect()
        })
        .collect();

    // Producer map: last computation writing each buffer.
    let mut producer: Vec<Option<CompId>> = vec![None; program.buffers.len()];
    for c in program.comp_ids() {
        producer[program.comp(c).store.buffer.0] = Some(c);
    }

    let line_elems = LINE_BYTES / std::mem::size_of::<f32>() as u64;

    let mut profiles: Vec<CompProfile> = program
        .comp_ids()
        .map(|cid| {
            let comp = program.comp(cid);
            let loops = &paths[cid.0];
            let total_points = comp
                .iters
                .iter()
                .map(|&it| program.extent(sp.resolve(it)))
                .product::<i64>()
                .max(0);

            // Original level of each scheduled loop for this computation.
            let orig_levels: Vec<Option<usize>> = loops
                .iter()
                .map(|l| comp.iters.iter().position(|&it| sp.resolve(it) == l.iter))
                .collect();

            let comp_accesses = comp.accesses();
            let accesses = comp_accesses
                .iter()
                .enumerate()
                .map(|(ai, acc)| {
                    let buf = program.buffer(acc.buffer);
                    let ndims = buf.dims.len();
                    // Innermost stride, through the row strides of the
                    // flattened buffer (last dimension first).
                    let innermost_stride = match orig_levels.last() {
                        Some(Some(lvl)) => (0..ndims)
                            .rev()
                            .scan(1i64, |rowstride, r| {
                                let step = acc.matrix.get(r, *lvl) * *rowstride;
                                *rowstride *= buf.dims[r];
                                Some(step)
                            })
                            .sum::<i64>()
                            .abs(),
                        _ => 0,
                    };
                    // Footprints per sub-nest depth.
                    let mut footprints = Vec::with_capacity(loops.len() + 1);
                    let mut lines = Vec::with_capacity(loops.len() + 1);
                    for d in 0..=loops.len() {
                        let mut fp_total = 1u64;
                        let mut fp_last = 1u64;
                        for r in 0..ndims {
                            let mut span: i64 = 0;
                            for (li, l) in loops.iter().enumerate().skip(d) {
                                if let Some(lvl) = orig_levels[li] {
                                    span += acc.matrix.get(r, lvl).abs()
                                        * l.step
                                        * (l.trips - 1).max(0);
                                }
                            }
                            let fp_r = (span + 1).clamp(1, buf.dims[r].max(1)) as u64;
                            fp_total = fp_total.saturating_mul(fp_r);
                            if r == ndims - 1 {
                                fp_last = fp_r;
                            }
                        }
                        footprints.push(fp_total);
                        // Spatial locality: contiguous runs along the last
                        // dimension share cache lines.
                        let run = fp_last.min(line_elems).max(1);
                        lines.push(fp_total.div_ceil(run));
                    }
                    // Producer reuse window (reads of non-input buffers).
                    let producer_lca_depth = if ai == 0 || buf.is_input {
                        None
                    } else {
                        producer[acc.buffer.0].map(|p| {
                            if p == cid {
                                // Self-produced values: reuse window is the
                                // whole nest.
                                loops.len()
                            } else {
                                loops
                                    .iter()
                                    .zip(&paths[p.0])
                                    .take_while(|(a, b)| a.uid == b.uid)
                                    .count()
                            }
                        })
                    };
                    AccessProfile {
                        buffer: acc.buffer,
                        is_store: ai == 0,
                        innermost_stride,
                        footprints,
                        lines,
                        producer_lca_depth,
                    }
                })
                .collect();

            CompProfile {
                comp: cid,
                // Moved in below, once no other computation reads it.
                loops: Vec::new(),
                total_points,
                op_counts: comp.expr.op_counts(),
                num_loads: comp_accesses.len() - 1,
                accesses,
            }
        })
        .collect();
    for (profile, loops) in profiles.iter_mut().zip(paths) {
        profile.loops = loops;
    }
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::*;

    fn matmul_like(n: i64) -> Program {
        // out[i,j] += a[i,k] * b[k,j]
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

    #[test]
    fn trip_counts_and_points() {
        let p = matmul_like(16);
        let sp = apply_schedule(&p, &Schedule::empty()).unwrap();
        let prof = analyze_program(&sp);
        assert_eq!(prof.len(), 1);
        assert_eq!(prof[0].total_points, 16 * 16 * 16);
        assert_eq!(prof[0].loops.len(), 3);
        assert_eq!(prof[0].outer_iters(0), 1);
        assert_eq!(prof[0].outer_iters(2), 256);
    }

    #[test]
    fn strides_reflect_layout() {
        let p = matmul_like(16);
        let sp = apply_schedule(&p, &Schedule::empty()).unwrap();
        let prof = &analyze_program(&sp)[0];
        // Accesses: store out[i,j], load a[i,k], load b[k,j].
        // Innermost loop is k: out invariant (0), a unit stride (1),
        // b strided (16).
        let strides: Vec<i64> = prof.accesses.iter().map(|a| a.innermost_stride).collect();
        assert_eq!(strides, vec![0, 1, 16]);
    }

    #[test]
    fn footprints_shrink_with_depth() {
        let p = matmul_like(16);
        let sp = apply_schedule(&p, &Schedule::empty()).unwrap();
        let prof = &analyze_program(&sp)[0];
        for acc in &prof.accesses {
            for w in acc.footprints.windows(2) {
                assert!(
                    w[0] >= w[1],
                    "footprints must shrink inward: {:?}",
                    acc.footprints
                );
            }
            assert_eq!(*acc.footprints.last().unwrap(), 1);
        }
        // b[k,j] touches the whole matrix over the full nest.
        assert_eq!(prof.accesses[2].footprints[0], 256);
        // ... one column... over the k loop alone: 16 elements.
        assert_eq!(prof.accesses[2].footprints[2], 16);
    }

    #[test]
    fn tiling_shrinks_inner_footprints() {
        let p = matmul_like(32);
        let tiled = apply_schedule(
            &p,
            &Schedule::new(vec![Transform::Tile {
                comp: CompId(0),
                level_a: 1,
                level_b: 2,
                size_a: 8,
                size_b: 8,
            }]),
        )
        .unwrap();
        let prof = &analyze_program(&tiled)[0];
        assert_eq!(prof.loops.len(), 5); // i, j0, k0, j1, k1
                                         // Footprint of b[k,j] inside a (j1,k1) tile: 8x8 = 64 elements.
        let b_access = &prof.accesses[2];
        assert_eq!(b_access.footprints[3], 64);
    }

    #[test]
    fn vector_and_unroll_tags_propagate() {
        let p = matmul_like(16);
        let sp = apply_schedule(
            &p,
            &Schedule::new(vec![
                Transform::Parallelize {
                    comp: CompId(0),
                    level: 0,
                },
                Transform::Unroll {
                    comp: CompId(0),
                    factor: 4,
                },
            ]),
        )
        .unwrap();
        let prof = &analyze_program(&sp)[0];
        assert_eq!(prof.parallel_depth(), Some(0));
        assert_eq!(prof.innermost().unwrap().unroll_factor, Some(4));
    }

    #[test]
    fn producer_lca_found_for_fused_chain() {
        // prod[i] = in[i]; cons[i2] = prod[i2] * 2, then fuse.
        let mut b = ProgramBuilder::new("pc");
        let i = b.iter("i", 0, 64);
        let inp = b.input("in", &[64]);
        let tmp = b.buffer("tmp", &[64]);
        let out = b.buffer("out", &[64]);
        let l1 = b.access(inp, &[i.into()], &[i]);
        b.assign("prod", &[i], tmp, &[i.into()], Expr::Load(l1));
        let i2 = b.iter("i2", 0, 64);
        let l2 = b.access(tmp, &[i2.into()], &[i2]);
        b.assign(
            "cons",
            &[i2],
            out,
            &[i2.into()],
            Expr::binary(BinOp::Mul, Expr::Load(l2), Expr::Const(2.0)),
        );
        let p = b.build().unwrap();

        // Unfused: no common loops.
        let sp = apply_schedule(&p, &Schedule::empty()).unwrap();
        let prof = analyze_program(&sp);
        let cons_read = &prof[1].accesses[1];
        assert_eq!(cons_read.producer_lca_depth, Some(0));

        // Fused at depth 1: LCA depth 1.
        let fused = apply_schedule(
            &p,
            &Schedule::new(vec![Transform::Fuse {
                comp: CompId(1),
                with: CompId(0),
                depth: 1,
            }]),
        )
        .unwrap();
        let prof = analyze_program(&fused);
        let cons_read = &prof[1].accesses[1];
        assert_eq!(cons_read.producer_lca_depth, Some(1));
    }

    #[test]
    fn input_reads_have_no_producer() {
        let p = matmul_like(8);
        let sp = apply_schedule(&p, &Schedule::empty()).unwrap();
        let prof = &analyze_program(&sp)[0];
        assert_eq!(prof.accesses[1].producer_lca_depth, None);
        // Store has none either.
        assert_eq!(prof.accesses[0].producer_lca_depth, None);
        // Self-reduction store is not a read; op counts recorded.
        assert_eq!(prof.op_counts, [0, 1, 0, 0]);
        assert_eq!(prof.num_loads, 2);
    }
}
