//! Property-based tests of the scheduling machinery: for arbitrary
//! programs within a constrained family and arbitrary transform
//! parameters, legality decisions and structural rewrites must be
//! consistent with the reference interpreter.
//!
//! Written as seeded randomized property loops (64 cases per property,
//! like the original proptest configuration) over the vendored RNG.

use dlcm_datagen::{ProgramGenConfig, ProgramGenerator};
use dlcm_ir::*;
use dlcm_search::{expand, finalize, Candidate, SearchSpace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 64;

/// A small constrained program family: 2-D pointwise map with an optional
/// stencil offset, sizes in 8..=24. Sizes >= 8 with offsets <= 2 keep
/// every access in bounds.
fn arb_program(rng: &mut ChaCha8Rng) -> Program {
    let n = rng.gen_range(8i64..24);
    let m = rng.gen_range(8i64..24);
    let di = rng.gen_range(-2i64..=2);
    let dj = rng.gen_range(-2i64..=2);
    let mut b = ProgramBuilder::new("prop");
    let (lo_i, hi_i) = (di.unsigned_abs() as i64, n - di.unsigned_abs() as i64);
    let (lo_j, hi_j) = (dj.unsigned_abs() as i64, m - dj.unsigned_abs() as i64);
    let i = b.iter("i", lo_i, hi_i);
    let j = b.iter("j", lo_j, hi_j);
    let inp = b.input("in", &[n, m]);
    let out = b.buffer("out", &[n, m]);
    let acc = b.access(
        inp,
        &[LinExpr::from(i) + di, LinExpr::from(j) + dj],
        &[i, j],
    );
    b.assign(
        "c",
        &[i, j],
        out,
        &[i.into(), j.into()],
        Expr::binary(BinOp::Add, Expr::Load(acc), Expr::Const(1.0)),
    );
    b.build().expect("family is valid by construction")
}

/// Tiling with any in-range sizes preserves pointwise semantics
/// bit-exactly.
#[test]
fn tiling_is_exact() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA0 ^ case);
        let p = arb_program(&mut rng);
        let sa = rng.gen_range(2i64..16);
        let sb = rng.gen_range(2i64..16);
        let schedule = Schedule::new(vec![Transform::Tile {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
            size_a: sa,
            size_b: sb,
        }]);
        let inputs = synthetic_inputs(&p, 0);
        match apply_schedule(&p, &schedule) {
            Err(ScheduleError::BadFactor { .. }) => {} // size > extent: fine
            Err(e) => panic!("case {case}: unexpected rejection: {e}"),
            Ok(sp) => {
                let base = interpret_baseline(&p, &inputs).unwrap();
                let opt = interpret(&sp, &inputs).unwrap();
                assert_eq!(max_relative_error(&base, &opt), 0.0, "case {case}");
            }
        }
    }
}

/// Interchange of a pointwise loop nest is always legal and exact.
#[test]
fn interchange_is_exact() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB0 ^ case);
        let p = arb_program(&mut rng);
        let schedule = Schedule::new(vec![Transform::Interchange {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
        }]);
        let sp = apply_schedule(&p, &schedule).expect("pointwise interchange is legal");
        let inputs = synthetic_inputs(&p, 1);
        let base = interpret_baseline(&p, &inputs).unwrap();
        let opt = interpret(&sp, &inputs).unwrap();
        assert_eq!(max_relative_error(&base, &opt), 0.0, "case {case}");
    }
}

/// Tags (parallel/vector/unroll) never change interpreter semantics.
#[test]
fn tags_are_semantically_transparent() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0 ^ case);
        let p = arb_program(&mut rng);
        let f = rng.gen_range(2i64..8);
        let schedule = Schedule::new(vec![
            Transform::Parallelize {
                comp: CompId(0),
                level: 0,
            },
            Transform::Vectorize {
                comp: CompId(0),
                factor: f,
            },
            Transform::Unroll {
                comp: CompId(0),
                factor: f,
            },
        ]);
        let inputs = synthetic_inputs(&p, 2);
        match apply_schedule(&p, &schedule) {
            Err(ScheduleError::BadFactor { .. }) => {}
            Err(e) => panic!("case {case}: unexpected rejection: {e}"),
            Ok(sp) => {
                let base = interpret_baseline(&p, &inputs).unwrap();
                let opt = interpret(&sp, &inputs).unwrap();
                assert_eq!(max_relative_error(&base, &opt), 0.0, "case {case}");
            }
        }
    }
}

/// Schedule application is deterministic.
#[test]
fn apply_is_deterministic() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD0 ^ case);
        let p = arb_program(&mut rng);
        let sa = rng.gen_range(2i64..8);
        let schedule = Schedule::new(vec![
            Transform::Interchange {
                comp: CompId(0),
                level_a: 0,
                level_b: 1,
            },
            Transform::Tile {
                comp: CompId(0),
                level_a: 0,
                level_b: 1,
                size_a: sa,
                size_b: sa,
            },
        ]);
        let a = apply_schedule(&p, &schedule);
        let b = apply_schedule(&p, &schedule);
        assert_eq!(a, b, "case {case}");
    }
}

/// Dependence analysis on the stencil family: the computed distance
/// matches the constructed offset.
#[test]
fn stencil_distances_match_construction() {
    for di in -2i64..=2 {
        for dj in -2i64..=2 {
            let n = 16;
            let mut b = ProgramBuilder::new("own");
            let lo = 2;
            let i = b.iter("i", lo, n - lo);
            let j = b.iter("j", lo, n - lo);
            let out = b.buffer("out", &[n, n]);
            let acc = b.access(
                out,
                &[LinExpr::from(i) + di, LinExpr::from(j) + dj],
                &[i, j],
            );
            b.assign(
                "c",
                &[i, j],
                out,
                &[i.into(), j.into()],
                Expr::binary(BinOp::Add, Expr::Load(acc), Expr::Const(1.0)),
            );
            let p = b.build().unwrap();
            let deps = dlcm_ir::deps::analyze(&p);
            if di == 0 && dj == 0 {
                assert!(deps.is_empty(), "same-cell access has no constraint");
                continue;
            }
            assert_eq!(deps.len(), 1, "offset ({di},{dj})");
            let d = deps[0].distance.as_ref().expect("uniform");
            // Distance is the offset, oriented to be lexicographically
            // non-negative.
            let expect = if di > 0 || (di == 0 && dj > 0) {
                vec![di, dj]
            } else {
                vec![-di, -dj]
            };
            let got: Vec<i64> = d
                .iter()
                .map(|c| match c {
                    dlcm_ir::deps::Dist::Exact(v) => *v,
                    dlcm_ir::deps::Dist::Star => panic!("unexpected star"),
                })
                .collect();
            assert_eq!(got, expect, "offset ({di},{dj})");
        }
    }
}

/// A two-computation family for the parity battery below, so `Fuse`,
/// aliases, branching loops and cross-computation dependences are
/// exercised: a producer `tmp[i+1][j+1] = in[i][j] + 1`, then a consumer
/// `out[..] = tmp[..+e] * 2`, optionally adding its own earlier output
/// `out[..-s]` (an in-place stencil with distance `s`). The consumer
/// either has a nest of its own — with the producer's bounds (fusable)
/// or one row short (bounds mismatch) — or shares the producer's outer
/// loop (a branching loop, common depth 1).
fn arb_pipeline(rng: &mut ChaCha8Rng) -> Program {
    let n = rng.gen_range(8i64..24);
    let m = rng.gen_range(8i64..24);
    let (ei, ej) = (rng.gen_range(-1i64..=1), rng.gen_range(-1i64..=1));
    let stencil = rng
        .gen_bool(0.5)
        .then(|| (rng.gen_range(-1i64..=1), rng.gen_range(-1i64..=1)));
    let shared_outer = rng.gen_bool(0.3);
    let short_row = rng.gen_bool(0.3);

    let mut b = ProgramBuilder::new("pipe");
    let i = b.iter("i", 0, n);
    let j = b.iter("j", 0, m);
    let inp = b.input("in", &[n, m]);
    let tmp = b.buffer("tmp", &[n + 2, m + 2]);
    let out = b.buffer("out", &[n + 2, m + 2]);
    let load = b.access(inp, &[i.into(), j.into()], &[i, j]);
    b.assign(
        "prod",
        &[i, j],
        tmp,
        &[LinExpr::from(i) + 1, LinExpr::from(j) + 1],
        Expr::binary(BinOp::Add, Expr::Load(load), Expr::Const(1.0)),
    );
    let i2 = if shared_outer {
        i
    } else {
        b.iter("i2", 0, if short_row { n - 1 } else { n })
    };
    let j2 = b.iter("j2", 0, m);
    let iters = [i2, j2];
    let taken = b.access(
        tmp,
        &[LinExpr::from(i2) + 1 + ei, LinExpr::from(j2) + 1 + ej],
        &iters,
    );
    let mut rhs = Expr::binary(BinOp::Mul, Expr::Load(taken), Expr::Const(2.0));
    if let Some((si, sj)) = stencil {
        let earlier = b.access(
            out,
            &[LinExpr::from(i2) + 1 - si, LinExpr::from(j2) + 1 - sj],
            &iters,
        );
        rhs = Expr::binary(BinOp::Add, rhs, Expr::Load(earlier));
    }
    b.assign(
        "cons",
        &iters,
        out,
        &[LinExpr::from(i2) + 1, LinExpr::from(j2) + 1],
        rhs,
    );
    b.build().expect("family is valid by construction")
}

/// Any transform, legal or not. Mostly well-formed for a program of
/// `num_comps` two-deep computations (so sequences get past the range
/// checks and into the dependence checks); one draw in ten runs a
/// computation, level or depth past what the families have.
fn arb_transform(rng: &mut ChaCha8Rng, num_comps: usize) -> Transform {
    const FACTORS: [i64; 6] = [1, 2, 3, 4, 8, 32];
    let wild = rng.gen_bool(0.1);
    let comp = CompId(rng.gen_range(0..num_comps + usize::from(wild)));
    let level = |rng: &mut ChaCha8Rng| rng.gen_range(0..2 + usize::from(wild));
    let (level_a, level_b) = (level(rng), level(rng));
    let level_b = if wild { level_b } else { 1 - level_a };
    let factor = FACTORS[rng.gen_range(0..FACTORS.len())];
    match rng.gen_range(0..6) {
        0 if wild => Transform::Fuse {
            comp,
            with: CompId(rng.gen_range(0..num_comps)),
            depth: rng.gen_range(0..4),
        },
        0 => Transform::Fuse {
            comp: CompId(num_comps - 1),
            with: CompId(0),
            depth: rng.gen_range(1..3),
        },
        1 => Transform::Interchange {
            comp,
            level_a,
            level_b,
        },
        2 => Transform::Tile {
            comp,
            level_a,
            level_b,
            size_a: factor,
            size_b: FACTORS[rng.gen_range(0..FACTORS.len())],
        },
        3 => Transform::Unroll { comp, factor },
        4 => Transform::Parallelize {
            comp,
            level: level_a,
        },
        _ => Transform::Vectorize { comp, factor },
    }
}

/// The incremental engine against its one-shot form. Over both families
/// and random transform sequences (legal and illegal; mostly phase-ordered
/// so prefixes grow long, sometimes shuffled so `NonCanonical` occurs):
///
/// - step-wise `extend` agrees with `apply_schedule(prefix + t)` on
///   accept/reject and on the error itself;
/// - an accepted state equals the one-shot `ScheduledProgram`'s prefix
///   (forest, aliases, nesting orders and phase);
/// - a rejected `extend` leaves the state equal to what it was, and the
///   walk goes on from it;
/// - a context that has already analyzed and one that has not give the
///   same verdicts as the fresh context behind every `apply_schedule`
///   call (lazy analysis changes cost, never an answer).
#[test]
fn incremental_extension_matches_one_shot_application() {
    let (mut accepted, mut rejected) = (0, 0);
    let mut rejections = std::collections::HashSet::new();
    for case in 0..8 * CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xE0 ^ (case << 8));
        let p = if case % 4 == 0 {
            arb_program(&mut rng)
        } else {
            arb_pipeline(&mut rng)
        };
        let mut sequence: Vec<Transform> = (0..rng.gen_range(1..10))
            .map(|_| arb_transform(&mut rng, p.num_comps()))
            .collect();
        if rng.gen_bool(0.8) {
            sequence.sort_by_key(Transform::phase);
        }

        let cold = Legality::new(&p);
        let warm = Legality::new(&p);
        // Reads dependences whatever the verdict: `warm` has analyzed.
        let _ = warm.prefix(&Schedule::new(vec![Transform::Parallelize {
            comp: CompId(0),
            level: 0,
        }]));
        let mut state = cold.root();
        let mut warm_state = warm.root();
        let mut prefix = Schedule::empty();
        for t in sequence {
            let before = state.clone();
            let step = cold.extend(&mut state, &t);
            assert_eq!(
                warm.extend(&mut warm_state, &t),
                step,
                "case {case}: {} after [{}]",
                t.describe(),
                prefix.describe()
            );
            assert_eq!(warm_state, state, "case {case}");
            let schedule = prefix.clone().with(t.clone());
            match apply_schedule(&p, &schedule) {
                Ok(sp) => {
                    assert_eq!(step, Ok(()), "case {case}: {}", schedule.describe());
                    assert_eq!(sp.prefix(), &state, "case {case}");
                    assert_eq!(cold.prefix(&schedule).as_ref(), Ok(&state));
                    prefix = schedule;
                    accepted += 1;
                }
                Err(one_shot) => {
                    rejections.insert(std::mem::discriminant(&one_shot));
                    assert_eq!(
                        step,
                        Err(one_shot),
                        "case {case}: {} after [{}]",
                        t.describe(),
                        prefix.describe()
                    );
                    assert_eq!(state, before, "case {case}: a rejection moved the state");
                    rejected += 1;
                }
            }
        }
    }
    // The battery means something only if both outcomes and all nine
    // kinds of rejection occur.
    assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
    assert_eq!(
        rejections.len(),
        9,
        "a ScheduleError variant never occurred"
    );
}

/// The state a search carries against a cold replay. Over the ten suite
/// programs and a seeded bank of generated programs from all nine
/// families, random walks down the candidate tree check every child
/// `expand` creates — the beams' children and MCTS's expansions; an MCTS
/// rollout step returns one of them (`draw_child`'s own test):
///
/// - its carried state equals `Legality::prefix` of its schedule, the
///   equality being structural, whatever the node tables' layouts;
/// - finalizing from that state gives `finalize`'s one-shot schedule.
#[test]
fn carried_states_equal_cold_replays() {
    let space = SearchSpace {
        tile_sizes: vec![4, 16, 32, 128],
        unroll_factors: vec![2, 8],
    };
    let mut programs: Vec<Program> = dlcm_benchsuite::suite()
        .iter()
        .map(|bench| (bench.build)(0.1))
        .collect();
    let generator = ProgramGenerator::new(ProgramGenConfig::wide());
    let mut rng = ChaCha8Rng::seed_from_u64(0xCA11);
    programs.extend((0..24).map(|i| generator.generate(&mut rng, &format!("bank{i}"))));
    let mut checked = 0;
    for p in &programs {
        let legality = Legality::new(p);
        for _ in 0..8 {
            let mut cand = Candidate::root(p);
            while !cand.is_complete() {
                let children = expand(p, &space, &cand);
                for child in &children {
                    let cold = legality
                        .prefix(&child.schedule)
                        .expect("children are legal");
                    assert_eq!(
                        child.state(),
                        &cold,
                        "{}: {}",
                        p.name,
                        child.schedule.describe()
                    );
                    assert_eq!(
                        child.clone().finalize(&legality),
                        finalize(p, &child.schedule),
                        "{}: {}",
                        p.name,
                        child.schedule.describe()
                    );
                    checked += 1;
                }
                cand = children[rng.gen_range(0..children.len())].clone();
            }
        }
    }
    assert!(checked > 5000, "{checked} candidates checked");
}
