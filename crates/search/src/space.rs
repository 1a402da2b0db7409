//! The transformation decision tree (Figure 3 of the paper).
//!
//! Search proceeds through staged decisions per computation — fuse?,
//! interchange?, tile? (which sizes?), unroll? (which factor?) — and every
//! complete candidate is *finalized* by the Halide-style heuristics of §4:
//! parallelize the outermost legal loop and vectorize the innermost loop
//! when the conditions are met.
//!
//! Validity (the paper's step 2) goes through one [`Legality`] context
//! per program, and every [`Candidate`] carries the [`LegalPrefix`] its
//! schedule leaves: expanding a candidate tries each child as one
//! [`Legality::extend`] of a copy of that state and hands the accepted
//! copy to the child, and finalizing extends it with the heuristic tags.
//! Nothing replays a schedule. The searches build the context once per
//! search and call the crate-internal `expand_in` / `draw_child` and
//! [`Candidate::finalize`]; the public [`expand`] wraps `expand_in` with
//! a throw-away context, and the public [`finalize`] replays its schedule
//! once, as it has no candidate to read a state from.

use dlcm_ir::{CompId, LegalPrefix, Legality, Program, Schedule, Transform};
use rand::Rng;

/// SIMD width the vectorization heuristic tags (8 `f32` lanes of AVX2).
const VECTOR_FACTOR: i64 = 8;

/// Smallest innermost extent the vectorization heuristic fires on.
const MIN_VECTOR_EXTENT: i64 = 16;

/// The value pools of the candidate space: which tile sizes and unroll
/// factors a tile or unroll decision offers. Fusion and interchange are
/// always explored, over every legal pair.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Tile sizes explored per tiled level.
    pub tile_sizes: Vec<i64>,
    /// Unroll factors explored.
    pub unroll_factors: Vec<i64>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        Self {
            tile_sizes: vec![32, 64, 128],
            unroll_factors: vec![2, 4, 8, 16],
        }
    }
}

/// Search progress through the staged decision tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Deciding fusion (once, program-wide).
    Fusion,
    /// Deciding interchange for computation `i`.
    Interchange(usize),
    /// Deciding tiling for computation `i`.
    Tile(usize),
    /// Deciding unrolling for computation `i`.
    Unroll(usize),
    /// All decisions made.
    Done,
}

/// A (possibly partial) point in the search tree.
///
/// Built by [`Candidate::root`] and [`expand`] only, which keep the
/// legality state it carries in step with its schedule: read the fields,
/// do not rewrite them.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Transform prefix chosen so far (canonical order).
    pub schedule: Schedule,
    /// Next decision to make.
    pub stage: Stage,
    /// What `schedule` leaves in the legality engine.
    state: LegalPrefix,
}

impl Candidate {
    /// The search root: no transforms, first stage.
    pub fn root(program: &Program) -> Self {
        let stage = if program.num_comps() >= 2 {
            Stage::Fusion
        } else {
            Stage::Interchange(0)
        };
        Self {
            schedule: Schedule::empty(),
            stage,
            state: Legality::new(program).root(),
        }
    }

    /// The legality state the candidate's schedule leaves: equal to a
    /// fresh `Legality::prefix` replay of it.
    pub fn state(&self) -> &LegalPrefix {
        &self.state
    }

    /// [`finalize`] of the candidate's schedule, extending the state it
    /// carries instead of replaying the schedule. `legality` must be a
    /// context of the candidate's program.
    pub fn finalize(self, legality: &Legality<'_>) -> Schedule {
        finalize_state(legality, self.schedule, self.state)
    }

    /// `true` when no further decisions remain.
    pub fn is_complete(&self) -> bool {
        self.stage == Stage::Done
    }
}

fn next_stage(program: &Program, stage: Stage) -> Stage {
    match stage {
        Stage::Fusion => Stage::Interchange(0),
        Stage::Interchange(c) => Stage::Tile(c),
        Stage::Tile(c) => Stage::Unroll(c),
        Stage::Unroll(c) => {
            if c + 1 < program.num_comps() {
                Stage::Interchange(c + 1)
            } else {
                Stage::Done
            }
        }
        Stage::Done => Stage::Done,
    }
}

/// Current nesting order of a computation's original levels under the
/// interchanges chosen so far *for that computation*, written into
/// `order`. Deliberately a function of the schedule alone: the legality
/// engine's own nesting order also moves when a fused sibling is
/// interchanged, and reading that here would change which tiles and tags
/// get enumerated.
fn current_order(program: &Program, schedule: &Schedule, comp: CompId, order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..program.comp(comp).depth());
    for t in &schedule.transforms {
        if let Transform::Interchange {
            comp: c,
            level_a,
            level_b,
        } = *t
        {
            if c == comp {
                let pa = order
                    .iter()
                    .position(|&l| l == level_a)
                    .expect("valid level");
                let pb = order
                    .iter()
                    .position(|&l| l == level_b)
                    .expect("valid level");
                order.swap(pa, pb);
            }
        }
    }
}

/// Calls `visit` with each transform the candidate's stage offers, in the
/// order its children are listed.
fn for_each_trial(
    program: &Program,
    space: &SearchSpace,
    cand: &Candidate,
    mut visit: impl FnMut(Transform),
) {
    match cand.stage {
        Stage::Fusion => {
            let n = program.num_comps();
            for b in 1..n {
                for a in 0..b {
                    let max_depth = program
                        .comp(CompId(a))
                        .depth()
                        .min(program.comp(CompId(b)).depth());
                    for depth in 1..=max_depth {
                        visit(Transform::Fuse {
                            comp: CompId(b),
                            with: CompId(a),
                            depth,
                        });
                    }
                }
            }
        }
        Stage::Interchange(c) => {
            let depth = program.comp(CompId(c)).depth();
            for a in 0..depth {
                for b in a + 1..depth {
                    visit(Transform::Interchange {
                        comp: CompId(c),
                        level_a: a,
                        level_b: b,
                    });
                }
            }
        }
        Stage::Tile(c) => {
            let comp = CompId(c);
            let mut order = Vec::new();
            current_order(program, &cand.schedule, comp, &mut order);
            // Only sizes in `[2, extent]` of their level: the engine
            // rejects any other as `BadFactor`. A level's tiled loop is an
            // original loop of its own iterator or of one fused into it
            // with the same bounds, so the level's extent is that loop's.
            let sizes = |level: usize| {
                let extent = program.extent(program.comp(comp).iters[level]);
                space
                    .tile_sizes
                    .iter()
                    .copied()
                    .filter(move |size| (2..=extent).contains(size))
            };
            for pair in order.windows(2) {
                let (la, lb) = (pair[0], pair[1]);
                for sa in sizes(la) {
                    for sb in sizes(lb) {
                        visit(Transform::Tile {
                            comp,
                            level_a: la,
                            level_b: lb,
                            size_a: sa,
                            size_b: sb,
                        });
                    }
                }
            }
        }
        Stage::Unroll(c) => {
            for &f in &space.unroll_factors {
                visit(Transform::Unroll {
                    comp: CompId(c),
                    factor: f,
                });
            }
        }
        Stage::Done => {}
    }
}

/// Calls `visit` with each legal extension of the candidate, in order,
/// and the state it leaves. A rejected `extend` leaves its state
/// untouched, so a scratch copy of the candidate's state is made only
/// when the previous one was accepted — and handed to `visit` with it.
fn for_each_legal_child(
    legality: &Legality<'_>,
    space: &SearchSpace,
    cand: &Candidate,
    mut visit: impl FnMut(Transform, LegalPrefix),
) {
    let mut scratch = None;
    for_each_trial(legality.program(), space, cand, |t| {
        let state = scratch.get_or_insert_with(|| cand.state.clone());
        if legality.extend(state, &t).is_ok() {
            visit(t, scratch.take().expect("just filled"));
        }
    });
}

/// Expands one decision stage of a candidate into its children (always
/// includes the "skip this transformation" child). Children whose
/// transform fails validation are dropped — the paper's step 2.
pub fn expand(program: &Program, space: &SearchSpace, cand: &Candidate) -> Vec<Candidate> {
    expand_in(&Legality::new(program), space, cand)
}

/// [`expand`] against a caller-held legality context.
pub(crate) fn expand_in(
    legality: &Legality<'_>,
    space: &SearchSpace,
    cand: &Candidate,
) -> Vec<Candidate> {
    let stage = next_stage(legality.program(), cand.stage);
    let mut out = vec![Candidate {
        stage,
        ..cand.clone()
    }];
    for_each_legal_child(legality, space, cand, |t, state| {
        out.push(Candidate {
            schedule: extended(&cand.schedule, t),
            stage,
            state,
        });
    });
    out
}

/// `schedule` with `t` appended, in one allocation.
fn extended(schedule: &Schedule, t: Transform) -> Schedule {
    let mut transforms = Vec::with_capacity(schedule.transforms.len() + 1);
    transforms.extend_from_slice(&schedule.transforms);
    transforms.push(t);
    Schedule::new(transforms)
}

/// One rollout step: draws one `u32` per child of `cand` — the skip child
/// first, then each legal extension in [`expand`]'s order — and returns
/// the child with the largest draw (the last of equal draws), building
/// only that one.
pub(crate) fn draw_child(
    legality: &Legality<'_>,
    space: &SearchSpace,
    cand: Candidate,
    rng: &mut impl Rng,
) -> Candidate {
    let stage = next_stage(legality.program(), cand.stage);
    let mut best_draw = rng.gen::<u32>();
    let mut best = None;
    for_each_legal_child(legality, space, &cand, |t, state| {
        let draw = rng.gen::<u32>();
        if draw >= best_draw {
            best_draw = draw;
            best = Some((t, state));
        }
    });
    match best {
        None => Candidate { stage, ..cand },
        Some((t, state)) => Candidate {
            schedule: cand.schedule.with(t),
            stage,
            state,
        },
    }
}

/// Applies the §4 heuristics to a complete candidate: parallelize the
/// outermost legal loop of each computation and vectorize the innermost
/// loop when its extent is large enough. Returns the finalized schedule.
pub fn finalize(program: &Program, schedule: &Schedule) -> Schedule {
    let legality = Legality::new(program);
    match legality.prefix(schedule) {
        Ok(state) => finalize_state(&legality, schedule.clone(), state),
        // No tag is legal on top of an illegal schedule.
        Err(_) => schedule.clone(),
    }
}

fn finalize_state(legality: &Legality<'_>, mut s: Schedule, mut state: LegalPrefix) -> Schedule {
    let program = legality.program();
    // At most two tags per computation.
    s.transforms.reserve(2 * program.num_comps());
    let mut order = Vec::new();
    for comp in program.comp_ids() {
        current_order(program, &s, comp, &mut order);
        // Parallelize the outermost loop whose parallelization is legal,
        // scanning outside-in (Halide-style heuristic).
        for &level in &order {
            let t = Transform::Parallelize { comp, level };
            if legality.extend(&mut state, &t).is_ok() {
                s.transforms.push(t);
                break;
            }
        }
        // Vectorize the innermost loop when the conditions are met.
        if let Some(&inner) = order.last() {
            let extent = program.extent(program.comp(comp).iters[inner]);
            if extent >= MIN_VECTOR_EXTENT {
                let t = Transform::Vectorize {
                    comp,
                    factor: VECTOR_FACTOR,
                };
                if legality.extend(&mut state, &t).is_ok() {
                    s.transforms.push(t);
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::{apply_schedule, BinOp, Expr, ProgramBuilder};

    fn mm(n: i64) -> Program {
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
    fn root_skips_fusion_for_single_comp() {
        let p = mm(64);
        assert_eq!(Candidate::root(&p).stage, Stage::Interchange(0));
    }

    #[test]
    fn expansion_includes_skip_and_legal_children() {
        let p = mm(64);
        let space = SearchSpace::default();
        let root = Candidate::root(&p);
        let children = expand(&p, &space, &root);
        // Skip + 3 interchange pairs.
        assert_eq!(children.len(), 4);
        assert!(children.iter().any(|c| c.schedule.is_empty()));
        // All children are legal.
        for c in &children {
            assert!(apply_schedule(&p, &c.schedule).is_ok());
        }
    }

    #[test]
    fn tile_stage_uses_current_order() {
        let p = mm(64);
        let space = SearchSpace {
            tile_sizes: vec![16],
            ..SearchSpace::default()
        };
        // After interchanging levels 0 and 2 the adjacent pairs are
        // (2,1) and (1,0).
        let interchanged = Schedule::new(vec![Transform::Interchange {
            comp: CompId(0),
            level_a: 0,
            level_b: 2,
        }]);
        let cand = expand(&p, &space, &Candidate::root(&p))
            .into_iter()
            .find(|c| c.schedule == interchanged)
            .expect("the interchange is legal");
        assert_eq!(cand.stage, Stage::Tile(0));
        let children = expand(&p, &space, &cand);
        let tiles: Vec<(usize, usize)> = children
            .iter()
            .filter_map(|c| match c.schedule.transforms.last() {
                Some(Transform::Tile {
                    level_a, level_b, ..
                }) => Some((*level_a, *level_b)),
                _ => None,
            })
            .collect();
        assert!(
            tiles.contains(&(2, 1)) || tiles.contains(&(1, 0)),
            "tiles: {tiles:?}"
        );
    }

    #[test]
    fn walking_skips_reaches_done() {
        let p = mm(32);
        let space = SearchSpace::default();
        let mut cand = Candidate::root(&p);
        let mut guard = 0;
        while !cand.is_complete() {
            cand = expand(&p, &space, &cand)
                .into_iter()
                .next()
                .expect("skip child always present");
            guard += 1;
            assert!(guard < 20);
        }
        assert!(cand.schedule.is_empty());
    }

    #[test]
    fn finalize_adds_heuristic_tags() {
        let p = mm(64);
        let s = finalize(&p, &Schedule::empty());
        assert!(s
            .transforms
            .iter()
            .any(|t| matches!(t, Transform::Parallelize { level: 0, .. })));
        // Innermost loop of matmul is the reduction loop k; associative
        // reductions are vectorizable.
        assert!(s
            .transforms
            .iter()
            .any(|t| matches!(t, Transform::Vectorize { .. })));
        assert!(apply_schedule(&p, &s).is_ok());
    }

    #[test]
    fn finalize_respects_legality() {
        // A serial scan: nothing to parallelize or vectorize.
        let mut b = ProgramBuilder::new("scan");
        let i = b.iter("i", 1, 1024);
        let out = b.buffer("out", &[1024]);
        let acc = b.access(out, &[dlcm_ir::LinExpr::from(i) - 1], &[i]);
        b.assign(
            "c",
            &[i],
            out,
            &[i.into()],
            Expr::binary(BinOp::Add, Expr::Load(acc), Expr::Const(1.0)),
        );
        let p = b.build().unwrap();
        let s = finalize(&p, &Schedule::empty());
        assert!(s.is_empty(), "no tag should apply: {}", s.describe());
    }

    /// `mm` feeding a pointwise consumer: two computations, so the walk
    /// passes through fusion as well.
    fn mm_then_scale(n: i64) -> Program {
        let mut b = ProgramBuilder::new("mm_scale");
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let k = b.iter("k", 0, n);
        let a_buf = b.input("a", &[n, n]);
        let b_buf = b.input("b", &[n, n]);
        let prod = b.buffer("prod", &[n, n]);
        let out = b.buffer("out", &[n, n]);
        let iters = [i, j, k];
        let a_acc = b.access(a_buf, &[i.into(), k.into()], &iters);
        let b_acc = b.access(b_buf, &[k.into(), j.into()], &iters);
        b.reduce(
            "mm",
            &iters,
            BinOp::Add,
            prod,
            &[i.into(), j.into()],
            Expr::binary(BinOp::Mul, Expr::Load(a_acc), Expr::Load(b_acc)),
        );
        let i2 = b.iter("i2", 0, n);
        let j2 = b.iter("j2", 0, n);
        let p_acc = b.access(prod, &[i2.into(), j2.into()], &[i2, j2]);
        b.assign(
            "scale",
            &[i2, j2],
            out,
            &[i2.into(), j2.into()],
            Expr::binary(BinOp::Mul, Expr::Load(p_acc), Expr::Const(2.0)),
        );
        b.build().unwrap()
    }

    /// A rollout step draws what picking the max-draw child of `expand`
    /// draws, in the same order, and returns that child — schedule,
    /// stage and carried state — though it builds no other.
    #[test]
    fn a_drawn_child_is_the_child_expand_would_yield() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let space = SearchSpace {
            tile_sizes: vec![4, 16, 128],
            unroll_factors: vec![2, 4],
        };
        for p in [mm(32), mm_then_scale(32)] {
            let legality = Legality::new(&p);
            for seed in 0..16 {
                let mut picked = ChaCha8Rng::seed_from_u64(seed);
                let mut drawn = picked.clone();
                let mut cand = Candidate::root(&p);
                while !cand.is_complete() {
                    let expected = expand_in(&legality, &space, &cand)
                        .into_iter()
                        .max_by_key(|_| picked.gen::<u32>())
                        .expect("the skip child");
                    cand = draw_child(&legality, &space, cand, &mut drawn);
                    assert_eq!(cand, expected, "seed {seed}");
                }
                assert_eq!(picked.gen::<u64>(), drawn.gen::<u64>(), "seed {seed}");
            }
        }
    }
}
