//! Batch/sequential parity: for a fixed seed, `speedup_batch` over N
//! candidates returns exactly the same values as N sequential `speedup`
//! calls. This is the contract that lets search switch to batched,
//! cached, and parallel evaluation without changing any search result —
//! the cached and parallel paths are held to the same equality below.

use dlcm_eval::{
    Evaluator, ModelEvaluator, ParallelEvaluator, ScopedEvaluator, SharedCachedEvaluator,
};
use dlcm_ir::{BinOp, CompId, Expr, Program, ProgramBuilder, Schedule, Transform};
use dlcm_machine::{Machine, Measurement};
use dlcm_model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};

/// A two-computation pipeline so candidate schedules can change the
/// program-tree structure (fusion) and exercise multi-group batching in
/// the model evaluator.
fn pipeline(n: i64) -> Program {
    let mut b = ProgramBuilder::new("pipe");
    let i = b.iter("i", 0, n);
    let j = b.iter("j", 0, n);
    let inp = b.input("in", &[n, n]);
    let tmp = b.buffer("tmp", &[n, n]);
    let out = b.buffer("out", &[n, n]);
    let acc_in = b.access(inp, &[i.into(), j.into()], &[i, j]);
    b.assign(
        "scale",
        &[i, j],
        tmp,
        &[i.into(), j.into()],
        Expr::binary(BinOp::Mul, Expr::Load(acc_in), Expr::Const(2.0)),
    );
    let i2 = b.iter("i2", 0, n);
    let j2 = b.iter("j2", 0, n);
    let acc_tmp = b.access(tmp, &[i2.into(), j2.into()], &[i2, j2]);
    b.assign(
        "shift",
        &[i2, j2],
        out,
        &[i2.into(), j2.into()],
        Expr::binary(BinOp::Add, Expr::Load(acc_tmp), Expr::Const(1.0)),
    );
    b.build().unwrap()
}

/// Candidate schedules spanning several tree structures.
fn candidates() -> Vec<Schedule> {
    vec![
        Schedule::empty(),
        Schedule::new(vec![Transform::Parallelize {
            comp: CompId(0),
            level: 0,
        }]),
        Schedule::new(vec![Transform::Tile {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
            size_a: 32,
            size_b: 32,
        }]),
        Schedule::new(vec![Transform::Fuse {
            comp: CompId(1),
            with: CompId(0),
            depth: 2,
        }]),
        Schedule::new(vec![
            Transform::Parallelize {
                comp: CompId(0),
                level: 0,
            },
            Transform::Vectorize {
                comp: CompId(0),
                factor: 8,
            },
        ]),
        Schedule::new(vec![Transform::Unroll {
            comp: CompId(1),
            factor: 4,
        }]),
    ]
}

#[test]
fn execution_evaluator_batch_equals_sequential() {
    let program = pipeline(128);
    let schedules = candidates();
    let seed = 42;

    let mut sequential = ParallelEvaluator::new(Measurement::new(Machine), seed, 1);
    let one_by_one: Vec<f64> = schedules
        .iter()
        .map(|s| sequential.speedup(&program, s))
        .collect();

    let mut batched = ParallelEvaluator::new(Measurement::new(Machine), seed, 1);
    let batch = batched.speedup_batch(&program, &schedules);

    assert_eq!(
        batch, one_by_one,
        "execution batch must match sequential exactly"
    );
    assert_eq!(batched.stats().num_evals, sequential.stats().num_evals);
    assert_eq!(batched.stats().search_time, sequential.stats().search_time);
}

#[test]
fn model_evaluator_batch_equals_sequential() {
    let program = pipeline(64);
    let schedules = candidates();
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let model = CostModel::new(CostModelConfig::fast(featurizer.config().vector_width()), 7);

    let mut sequential = ModelEvaluator::new(&model, featurizer.clone());
    let one_by_one: Vec<f64> = schedules
        .iter()
        .map(|s| sequential.speedup(&program, s))
        .collect();

    let mut batched = ModelEvaluator::new(&model, featurizer.clone());
    let batch = batched.speedup_batch(&program, &schedules);

    assert_eq!(
        batch, one_by_one,
        "model batch must match sequential bit-for-bit"
    );
    assert_eq!(batched.stats().num_evals, schedules.len());
    // The fused candidate has a different tree shape than the rest, so the
    // batch really exercised multi-group inference.
    let fused = featurizer.featurize(&program, &schedules[3]);
    let base = featurizer.featurize(&program, &schedules[0]);
    assert_ne!(fused.structure_key(), base.structure_key());
}

#[test]
fn parallel_evaluator_batch_equals_sequential() {
    let program = pipeline(128);
    let schedules = candidates();
    let seed = 42;

    let mut sequential = ParallelEvaluator::new(Measurement::new(Machine), seed, 1);
    let one_by_one: Vec<f64> = schedules
        .iter()
        .map(|s| sequential.speedup(&program, s))
        .collect();

    for threads in [1, 3, 8] {
        let mut parallel = ParallelEvaluator::new(Measurement::new(Machine), seed, threads);
        let batch = parallel.speedup_batch(&program, &schedules);
        assert_eq!(
            batch, one_by_one,
            "parallel ({threads} threads) must match sequential exactly"
        );
        assert_eq!(parallel.stats().num_evals, sequential.stats().num_evals);
        assert_eq!(parallel.stats().search_time, sequential.stats().search_time);
        assert_eq!(
            parallel.stats().compile_time,
            sequential.stats().compile_time
        );
    }
}

#[test]
fn cached_evaluator_batch_equals_sequential() {
    let program = pipeline(128);
    // Duplicate some candidates so the cache actually collapses work.
    let mut schedules = candidates();
    schedules.extend(candidates().into_iter().take(3));
    let seed = 42;

    let mut sequential = ParallelEvaluator::new(Measurement::new(Machine), seed, 1);
    let one_by_one: Vec<f64> = schedules
        .iter()
        .map(|s| sequential.speedup(&program, s))
        .collect();

    let shared =
        SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::new(Machine), seed, 1));
    let mut cached = ScopedEvaluator::new(&shared);
    let batch = cached.speedup_batch(&program, &schedules);
    assert_eq!(batch, one_by_one, "cached batch must match sequential");
    assert_eq!(cached.stats().cache_hits, 3);
    assert_eq!(cached.stats().num_evals, candidates().len());

    // Cached over parallel: the composition the suite sweep uses.
    let stack =
        SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::new(Machine), seed, 4));
    let stacked = ScopedEvaluator::new(&stack).speedup_batch(&program, &schedules);
    assert_eq!(stacked, one_by_one, "cached+parallel must match sequential");
}

/// A longer, structure-diverse wave for chunk-boundary coverage: odd
/// length (13) so no (threads, grain) pair divides it evenly.
fn long_wave() -> Vec<Schedule> {
    let mut wave = candidates();
    for factor in [2, 8, 16] {
        wave.push(Schedule::new(vec![Transform::Vectorize {
            comp: CompId(1),
            factor,
        }]));
    }
    for size in [8, 16, 64] {
        wave.push(Schedule::new(vec![Transform::Tile {
            comp: CompId(1),
            level_a: 0,
            level_b: 1,
            size_a: size,
            size_b: size,
        }]));
    }
    wave.push(Schedule::new(vec![Transform::Unroll {
        comp: CompId(0),
        factor: 2,
    }]));
    assert_eq!(wave.len(), 13);
    wave
}

/// The chunked-dispatch contract: odd batch sizes, batches smaller than
/// the worker count, and single-candidate batches all score exactly like
/// the sequential evaluator, at every thread count (batches under the
/// cutover of 8 run inline, the 13-wide wave fans out).
#[test]
fn chunked_dispatch_covers_odd_batches_and_batch_smaller_than_workers() {
    let program = pipeline(128);
    let wave = long_wave();
    let seed = 42;

    let mut sequential = ParallelEvaluator::new(Measurement::new(Machine), seed, 1);
    let reference: Vec<f64> = wave
        .iter()
        .map(|s| sequential.speedup(&program, s))
        .collect();

    for threads in [2, 5, 16] {
        for take in [1usize, 3, 7, 13] {
            let mut par = ParallelEvaluator::new(Measurement::new(Machine), seed, threads);
            let got = par.speedup_batch(&program, &wave[..take]);
            assert_eq!(
                got,
                reference[..take],
                "threads={threads}, batch={take}: chunked scores diverged"
            );
        }
        // Full wave again, checking the folded accounting too.
        let mut par = ParallelEvaluator::new(Measurement::new(Machine), seed, threads);
        let got = par.speedup_batch(&program, &wave);
        assert_eq!(got, reference);
        assert_eq!(par.stats().num_evals, sequential.stats().num_evals);
        assert_eq!(par.stats().search_time, sequential.stats().search_time);
    }
}

/// The SoA forward kernel behind `ModelEvaluator` (CostModel overrides
/// `infer_batch`) must keep batch/sequential parity at odd batch sizes
/// and for structure groups of one.
#[test]
fn model_evaluator_soa_path_matches_sequential_at_odd_sizes() {
    let program = pipeline(64);
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let model = CostModel::new(CostModelConfig::fast(featurizer.config().vector_width()), 7);

    // 13 candidates spanning several tree structures; the fused one is a
    // group of exactly one row.
    let wave = long_wave();
    let mut sequential = ModelEvaluator::new(&model, featurizer.clone());
    let reference: Vec<f64> = wave
        .iter()
        .map(|s| sequential.speedup(&program, s))
        .collect();

    for take in [1usize, 3, 7, 13] {
        let mut batched = ModelEvaluator::new(&model, featurizer.clone());
        let got = batched.speedup_batch(&program, &wave[..take]);
        assert_eq!(
            got,
            reference[..take],
            "batch={take}: SoA batched scores diverged from sequential"
        );
    }
}

/// Opposite fusion choices on a 3-computation program produce
/// isomorphic tree *shapes* with different computations in each
/// position. They must land in different batch groups (the batched
/// forward pass reuses `batch[0]`'s tree for every row), and batched
/// scores must still match sequential ones exactly.
#[test]
fn isomorphic_fusions_do_not_share_a_batch_group() {
    let n = 32;
    let mut b = ProgramBuilder::new("tri");
    let inp = b.input("in", &[n, n]);
    let mut bufs = Vec::new();
    for name in ["a", "b", "c"] {
        bufs.push(b.buffer(name, &[n, n]));
    }
    for (k, &out) in bufs.iter().enumerate() {
        let i = b.iter(format!("i{k}"), 0, n);
        let j = b.iter(format!("j{k}"), 0, n);
        let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign(
            format!("c{k}"),
            &[i, j],
            out,
            &[i.into(), j.into()],
            Expr::binary(BinOp::Mul, Expr::Load(acc), Expr::Const(1.0 + k as f32)),
        );
    }
    let program = b.build().unwrap();

    let fuse_10 = Schedule::new(vec![Transform::Fuse {
        comp: CompId(1),
        with: CompId(0),
        depth: 2,
    }]);
    let fuse_21 = Schedule::new(vec![Transform::Fuse {
        comp: CompId(2),
        with: CompId(1),
        depth: 2,
    }]);

    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let fa = featurizer.featurize(&program, &fuse_10);
    let fb = featurizer.featurize(&program, &fuse_21);
    assert_ne!(
        fa.structure_key(),
        fb.structure_key(),
        "same shape, different comp placement: must not share a batch group"
    );

    let model = CostModel::new(
        CostModelConfig::fast(featurizer.config().vector_width()),
        11,
    );
    let schedules = vec![fuse_10, fuse_21, Schedule::empty()];
    let mut sequential = ModelEvaluator::new(&model, featurizer.clone());
    let one_by_one: Vec<f64> = schedules
        .iter()
        .map(|s| sequential.speedup(&program, s))
        .collect();
    let mut batched = ModelEvaluator::new(&model, featurizer);
    let batch = batched.speedup_batch(&program, &schedules);
    assert_eq!(batch, one_by_one, "fusion variants must score identically");
}
