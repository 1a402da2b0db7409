//! The transformation decision tree (Figure 3 of the paper).
//!
//! Search proceeds through staged decisions per computation — fuse?,
//! interchange?, tile? (which sizes?), unroll? (which factor?) — and every
//! complete candidate is *finalized* by the Halide-style heuristics of §4:
//! parallelize the outermost legal loop and vectorize the innermost loop
//! when the conditions are met.
//!
//! Validity (the paper's step 2) goes through one [`Legality`] context
//! per program: [`expand`] and [`finalize`] replay the candidate's prefix
//! once and then try each child as one [`Legality::extend`] on top of
//! it. The searches build the context once per search and call the
//! crate-internal `expand_in` / `finalize_in`; the public functions wrap
//! them with a throw-away context, so even a lone call analyzes the
//! program once rather than once per child.

use dlcm_ir::{CompId, Legality, Program, Schedule, Transform};

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
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Transform prefix chosen so far (canonical order).
    pub schedule: Schedule,
    /// Next decision to make.
    pub stage: Stage,
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
        }
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
/// interchanges chosen so far *for that computation*. Deliberately a
/// function of the schedule alone: the legality engine's own nesting
/// order also moves when a fused sibling is interchanged, and reading
/// that here would change which tiles and tags get enumerated.
fn current_order(program: &Program, schedule: &Schedule, comp: CompId) -> Vec<usize> {
    let mut order: Vec<usize> = (0..program.comp(comp).depth()).collect();
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
    order
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
    let program = legality.program();
    let advance = next_stage(program, cand.stage);
    let mut trials = Vec::new();
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
                        trials.push(Transform::Fuse {
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
                    trials.push(Transform::Interchange {
                        comp: CompId(c),
                        level_a: a,
                        level_b: b,
                    });
                }
            }
        }
        Stage::Tile(c) => {
            let comp = CompId(c);
            let order = current_order(program, &cand.schedule, comp);
            for pos in 0..order.len().saturating_sub(1) {
                let (la, lb) = (order[pos], order[pos + 1]);
                for &sa in &space.tile_sizes {
                    for &sb in &space.tile_sizes {
                        trials.push(Transform::Tile {
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
                trials.push(Transform::Unroll {
                    comp: CompId(c),
                    factor: f,
                });
            }
        }
        Stage::Done => {}
    }
    // The skip child.
    let mut out = vec![Candidate {
        schedule: cand.schedule.clone(),
        stage: advance,
    }];
    if trials.is_empty() {
        return out;
    }
    // An illegal prefix has no legal extension: the skip child only.
    let Ok(base) = legality.prefix(&cand.schedule) else {
        return out;
    };
    // A rejected `extend` leaves its state untouched, so the scratch copy
    // is renewed only after a child was accepted into it.
    let mut scratch = base.clone();
    for t in trials {
        if legality.extend(&mut scratch, &t).is_ok() {
            out.push(Candidate {
                schedule: cand.schedule.clone().with(t),
                stage: advance,
            });
            scratch = base.clone();
        }
    }
    out
}

/// Applies the §4 heuristics to a complete candidate: parallelize the
/// outermost legal loop of each computation and vectorize the innermost
/// loop when its extent is large enough. Returns the finalized schedule.
pub fn finalize(program: &Program, schedule: &Schedule) -> Schedule {
    finalize_in(&Legality::new(program), schedule)
}

/// [`finalize`] against a caller-held legality context.
pub(crate) fn finalize_in(legality: &Legality<'_>, schedule: &Schedule) -> Schedule {
    let program = legality.program();
    let mut s = schedule.clone();
    // No tag is legal on top of an illegal schedule.
    let Ok(mut state) = legality.prefix(schedule) else {
        return s;
    };
    for comp in program.comp_ids() {
        let order = current_order(program, &s, comp);
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
        let cand = Candidate {
            schedule: Schedule::new(vec![Transform::Interchange {
                comp: CompId(0),
                level_a: 0,
                level_b: 2,
            }]),
            stage: Stage::Tile(0),
        };
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
}
