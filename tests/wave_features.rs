//! A wave's features come from one per-program base: every row that
//! `FeatureBase::featurize` writes into a copy of the base must equal,
//! bit for bit, the row `Featurizer::featurize` (a wave of one) encodes
//! for the same pair — vectors and tree — over the ten suite programs,
//! a seeded set of generated programs, and a program with one
//! computation at every depth up to the featurizer's `max_depth`, with
//! fusing schedules among the draws. A digest of every row also pins
//! the encoding itself to the from-scratch encoder it replaced.

use dlcm::benchsuite::suite;
use dlcm::datagen::{ProgramGenConfig, ProgramGenerator, ScheduleGenConfig, ScheduleGenerator};
use dlcm::ir::fingerprint::{fnv1a, to_hex, FNV1A_INIT};
use dlcm::ir::{BinOp, Expr, LinExpr, Program, ProgramBuilder, Schedule, Transform};
use dlcm::model::{Featurizer, FeaturizerConfig, ProgramFeatures};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Digest of every row below, captured from the encoder that built each
/// row from scratch (tags collected per level, then the whole vector).
const WAVE_DIGEST: &str = "84d44724e48661c1";

const DRAWS_PER_PROGRAM: usize = 16;
const GENERATED_PROGRAMS: usize = 300;

/// One computation per depth `1..=max_depth`, each over its own loops
/// and reading the previous one's output, so fusion has shared prefixes
/// to work with. Buffers stop at rank 5 (`max_dims`): the deepest
/// computations reduce over their inner loops.
fn every_depth(max_depth: usize) -> Program {
    let max_rank = FeaturizerConfig::default().max_dims;
    let mut b = ProgramBuilder::new("every_depth");
    let mut prev = b.input("in0", &[4]);
    let mut prev_rank = 1;
    for depth in 1..=max_depth {
        let iters: Vec<_> = (0..depth)
            .map(|l| b.iter(format!("i{depth}_{l}"), 0, 4))
            .collect();
        let rank = depth.min(max_rank);
        let out = b.buffer(format!("b{depth}"), &vec![4; rank]);
        let index: Vec<LinExpr> = iters.iter().map(|&i| LinExpr::from(i)).collect();
        let read = b.access(prev, &index[..prev_rank], &iters);
        let value = Expr::binary(BinOp::Add, Expr::Load(read), Expr::Const(1.0));
        let name = format!("c{depth}");
        if rank == depth {
            b.assign(name, &iters, out, &index, value);
        } else {
            b.reduce(name, &iters, BinOp::Add, out, &index[..rank], value);
        }
        (prev, prev_rank) = (out, rank);
    }
    b.build().unwrap()
}

fn programs(max_depth: usize) -> Vec<Program> {
    let mut programs: Vec<Program> = suite().iter().map(|b| (b.build)(1.0)).collect();
    let generator = ProgramGenerator::new(ProgramGenConfig::wide());
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    programs
        .extend((0..GENERATED_PROGRAMS).map(|i| generator.generate(&mut rng, &format!("g{i}"))));
    programs.push(every_depth(max_depth));
    programs
}

fn assert_same_row(got: &ProgramFeatures, want: &ProgramFeatures, what: &str) {
    assert_eq!(got.comp_vectors.len(), want.comp_vectors.len(), "{what}");
    for (c, (g, w)) in got.comp_vectors.iter().zip(&want.comp_vectors).enumerate() {
        let (g, w): (Vec<u32>, Vec<u32>) = (
            g.iter().map(|v| v.to_bits()).collect(),
            w.iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(g, w, "{what}: computation {c}");
    }
    assert_eq!(got.tree, want.tree, "{what}: tree");
}

#[test]
fn a_wave_from_one_base_is_bit_identical_to_waves_of_one() {
    let cfg = FeaturizerConfig::default();
    let featurizer = Featurizer::new(cfg);
    let schedgen = ScheduleGenerator::new(ScheduleGenConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut digest = FNV1A_INIT;
    let (mut rows, mut fusing) = (0, 0);
    let mut depths = vec![false; cfg.max_depth + 1];
    for program in programs(cfg.max_depth) {
        for comp in &program.comps {
            depths[comp.depth()] = true;
        }
        let wave: Vec<Schedule> = std::iter::once(Schedule::empty())
            .chain((0..DRAWS_PER_PROGRAM).map(|_| schedgen.generate(&program, &mut rng)))
            .collect();
        let base = featurizer.base(&program);
        for (s, schedule) in wave.iter().enumerate() {
            let got = base.featurize(schedule);
            let want = featurizer.featurize(&program, schedule);
            assert_same_row(&got, &want, &format!("{} schedule {s}", program.name));
            fusing += usize::from(
                schedule
                    .transforms
                    .iter()
                    .any(|t| matches!(t, Transform::Fuse { .. })),
            );
            rows += 1;
            for v in &got.comp_vectors {
                for x in v {
                    digest = fnv1a(digest, &x.to_bits().to_le_bytes());
                }
            }
            digest = fnv1a(digest, format!("{:?}", got.tree).as_bytes());
        }
    }
    assert!(fusing > 0, "no fusing schedule among {rows} rows");
    assert!(
        depths[1..].iter().all(|&seen| seen),
        "not every depth up to {} was featurized: {depths:?}",
        cfg.max_depth
    );
    assert_eq!(
        to_hex(digest),
        WAVE_DIGEST,
        "over {rows} rows, {fusing} fusing"
    );
}
