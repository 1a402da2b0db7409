//! Chunk-boundary regression suite (the chunked-dispatch contract under
//! a realistic call pattern): a `SharedCachedEvaluator` over a
//! `ParallelEvaluator` is driven through a fixed sequence of overlapping
//! batches whose sizes deliberately straddle the pool's grain boundaries
//! and the evaluator's batch-size cutover, at two different thread
//! counts — and every per-call observable (scores, stats delta, cache
//! hit/miss delta) must be identical.
//!
//! Why this shape: the pool picks its grain from `(len, threads)`, so the
//! same wave splits into *different* contiguous chunks at different
//! thread counts, and batched cache probing groups keys by shard in
//! first-occurrence order. If chunking or the per-shard merge ever leaked
//! into scoring order, stats folding, or LRU accounting, the diffs below
//! would catch it on the exact batch sizes where chunk boundaries
//! interleave (odd sizes, size < workers, size 1). The pool's own
//! explicit-grain sweeps are unit tests in `src/pool.rs`.

use dlcm_eval::{EvalStats, ParallelEvaluator, SharedCachedEvaluator, SyncEvaluator};
use dlcm_ir::{BinOp, CompId, Expr, Program, ProgramBuilder, Schedule, Transform};
use dlcm_machine::{Machine, Measurement};

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

/// 23 distinct schedules: tiles × unrolls plus a few singles, so sliding
/// windows over the list produce genuine cache-hit/miss mixtures.
fn pool_of_schedules() -> Vec<Schedule> {
    let mut out = vec![Schedule::empty()];
    for size in [8, 16, 32, 64] {
        for factor in [2, 4, 8] {
            out.push(Schedule::new(vec![
                Transform::Tile {
                    comp: CompId(0),
                    level_a: 0,
                    level_b: 1,
                    size_a: size,
                    size_b: size,
                },
                Transform::Unroll {
                    comp: CompId(0),
                    factor,
                },
            ]));
        }
    }
    for factor in [2, 4, 8, 16] {
        out.push(Schedule::new(vec![Transform::Vectorize {
            comp: CompId(0),
            factor,
        }]));
    }
    for level in [0, 1, 2] {
        out.push(Schedule::new(vec![Transform::Parallelize {
            comp: CompId(0),
            level,
        }]));
    }
    out.push(Schedule::new(vec![Transform::Interchange {
        comp: CompId(0),
        level_a: 0,
        level_b: 1,
    }]));
    out.push(Schedule::new(vec![Transform::Unroll {
        comp: CompId(0),
        factor: 4,
    }]));
    out.push(Schedule::new(vec![Transform::Interchange {
        comp: CompId(0),
        level_a: 1,
        level_b: 2,
    }]));
    assert_eq!(out.len(), 23);
    out
}

/// Overlapping windows into the schedule pool: sizes straddle the grain
/// boundaries of both thread counts under test (for 23 items: grain 2 at
/// 2 threads vs grain 1 at 5 threads) and the cutover of 8 (below it a
/// batch runs inline), include batches smaller than the worker count, a
/// single-candidate batch, and warm repeats that must answer partly from
/// the cache.
fn batch_plan() -> Vec<(usize, usize)> {
    vec![
        (0, 23), // cold full sweep
        (3, 7),  // warm odd window
        (10, 13),
        (22, 1), // single candidate, batch < workers
        (5, 16),
        (0, 23), // fully warm repeat
        (17, 6), // batch just under the cutover
        (1, 9),
    ]
}

/// One full run of the plan at a given thread count: per-call scores and
/// stats deltas, in order.
fn run_plan(threads: usize) -> Vec<(Vec<f64>, EvalStats)> {
    let program = mm(96);
    let schedules = pool_of_schedules();
    let shared = SharedCachedEvaluator::new(ParallelEvaluator::new(
        Measurement::new(Machine),
        7,
        threads,
    ));
    batch_plan()
        .into_iter()
        .map(|(start, len)| shared.speedup_batch_shared(&program, &schedules[start..start + len]))
        .collect()
}

#[test]
fn interleaved_chunk_boundaries_are_invisible_across_thread_counts() {
    // 2 and 5 workers chunk every batch differently (5 never divides the
    // window sizes above; 2 does sometimes — maximal boundary skew).
    let at_two = run_plan(2);
    let at_five = run_plan(5);
    assert_eq!(at_two.len(), at_five.len());
    for (call, ((s2, d2), (s5, d5))) in at_two.iter().zip(&at_five).enumerate() {
        assert_eq!(
            s2, s5,
            "call {call}: scores diverged between 2 and 5 workers"
        );
        assert_eq!(
            d2.num_evals, d5.num_evals,
            "call {call}: eval-count delta diverged"
        );
        assert_eq!(
            d2.cache_hits, d5.cache_hits,
            "call {call}: cache-hit delta diverged"
        );
        assert_eq!(
            d2.cache_misses, d5.cache_misses,
            "call {call}: cache-miss delta diverged"
        );
        assert_eq!(
            d2.search_time, d5.search_time,
            "call {call}: accounted time diverged"
        );
    }
    // The plan genuinely mixed cold and warm work.
    let hits: usize = at_two.iter().map(|(_, d)| d.cache_hits).sum();
    let misses: usize = at_two.iter().map(|(_, d)| d.cache_misses).sum();
    assert_eq!(misses, 23, "23 distinct schedules, each missed once");
    assert!(hits > 23, "warm windows must answer from the cache");
}
