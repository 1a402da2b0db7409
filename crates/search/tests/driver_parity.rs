//! Concurrency contract of the suite driver: running the same suite at
//! any `search_threads` setting yields **identical** `SearchResult`s —
//! schedules, scores, and per-search `EvalStats` — because scores are
//! pure per `(seed, program, schedule)`, per-search stats come from
//! scoped deltas, and cross-job cache interaction is nil for distinct
//! programs.

use dlcm_eval::{
    EvalStats, Evaluator, ParallelEvaluator, ScopedEvaluator, SharedCachedEvaluator, SyncEvaluator,
};
use dlcm_ir::{BinOp, Expr, Program, ProgramBuilder};
use dlcm_machine::{Machine, Measurement};
use dlcm_search::{
    BeamSearch, Mcts, SearchDriver, SearchJob, SearchResult, SearchSpace, SearchSpec,
};

fn mm(name: &str, n: i64) -> Program {
    let mut b = ProgramBuilder::new(name);
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

fn stencil(name: &str, n: i64) -> Program {
    let mut b = ProgramBuilder::new(name);
    let i = b.iter("i", 0, n);
    let j = b.iter("j", 0, n);
    let inp = b.input("in", &[n, n]);
    let out = b.buffer("out", &[n, n]);
    let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
    b.assign("c", &[i, j], out, &[i.into(), j.into()], Expr::Load(acc));
    b.build().unwrap()
}

fn small_space() -> SearchSpace {
    SearchSpace {
        tile_sizes: vec![16, 32],
        unroll_factors: vec![4],
    }
}

/// Execution evaluator standing in for the model role (the same stand-in
/// the MCTS unit tests use): deterministic, needs no trained artifact.
fn exec_model(_role: usize) -> Box<dyn Evaluator> {
    Box::new(ParallelEvaluator::new(Measurement::exact(Machine), 0, 1))
}

/// The suite sweep's shape per benchmark (`modelctl reproduce`): MCTS first (warms the shared
/// cache), then BSE (reuses its measurements), then a model-driven beam.
fn suite_jobs() -> Vec<SearchJob> {
    let programs = vec![
        mm("b0", 48),
        stencil("b1", 96),
        mm("b2", 64),
        stencil("b3", 128),
        mm("b4", 80),
    ];
    programs
        .into_iter()
        .map(|program| SearchJob {
            program,
            specs: vec![
                SearchSpec::Mcts {
                    search: Mcts {
                        iterations: 12,
                        space: small_space(),
                        ..Mcts::default()
                    },
                    role: 0,
                },
                SearchSpec::BeamExec(BeamSearch::new(3, small_space())),
                SearchSpec::BeamModel {
                    search: BeamSearch::new(3, small_space()),
                    role: 0,
                },
            ],
        })
        .collect()
}

fn run_suite(search_threads: usize, eval_threads: usize) -> Vec<Vec<SearchResult>> {
    let jobs = suite_jobs();
    let shared = SharedCachedEvaluator::new(ParallelEvaluator::new(
        Measurement::new(Machine),
        0,
        eval_threads,
    ));
    SearchDriver::new(search_threads).run_suite(&jobs, &shared, &exec_model)
}

#[test]
fn suite_results_are_identical_at_any_search_thread_count() {
    let reference = run_suite(1, 1);
    assert_eq!(reference.len(), 5);
    // Waves of 8 or more candidates fan out over the evaluation pool,
    // smaller ones run inline; at eval_threads=8 chunked dispatch runs
    // with more workers than most waves have items.
    for (search_threads, eval_threads) in [(2, 1), (4, 1), (4, 2), (2, 4), (2, 8)] {
        let got = run_suite(search_threads, eval_threads);
        assert_eq!(
            got, reference,
            "search_threads={search_threads}, eval_threads={eval_threads} changed \
             a SearchResult (schedule, score, or per-search stats)"
        );
    }
}

#[test]
fn mcts_measurements_answer_bse_from_the_shared_cache() {
    // Within one job the spec order is fixed, so BSE's cache-hit pattern
    // is deterministic: every finalized schedule MCTS already executed is
    // a free hit for BSE, at any thread count.
    let results = run_suite(4, 1);
    for job in &results {
        let bse = &job[1];
        assert!(
            bse.stats.cache_hits + bse.stats.cache_misses > 0,
            "BSE runs through the shared cache"
        );
    }
    let hits: usize = results.iter().map(|job| job[1].stats.cache_hits).sum();
    assert!(
        hits > 0,
        "at least one MCTS measurement must be reused by BSE"
    );
}

#[test]
fn per_search_stats_are_standalone_not_global_diffs() {
    // Two scopes on one shared evaluator, used strictly in sequence:
    // each search's stats must equal what a dedicated evaluator would
    // have charged, even though the shared totals accumulate both.
    let program = mm("solo", 64);
    let shared =
        SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::new(Machine), 0, 1));
    let beam = BeamSearch::new(3, small_space());

    let mut first_scope = ScopedEvaluator::new(&shared);
    let first = beam.search(&program, &mut first_scope);
    let mut second_scope = ScopedEvaluator::new(&shared);
    let second = beam.search(&program, &mut second_scope);

    assert_eq!(first.schedule, second.schedule);
    assert_eq!(first.score, second.score);
    assert_eq!(
        second.stats.num_evals, 0,
        "a repeated search answers fully from the cache"
    );
    assert_eq!(second.stats.cache_misses, 0);
    assert!(second.stats.cache_hits > 0);
    // The second scope's accounting excludes the first search's work.
    assert!(first.stats.num_evals > 0);
    assert_eq!(
        shared.total_stats().num_evals,
        first.stats.num_evals,
        "all real evaluations happened in the first search"
    );
}

#[test]
fn scoped_deltas_sum_to_plain_evaluator_stats() {
    // A single search through a scope over a fresh shared evaluator must
    // report exactly what the evaluator-wide totals of a plain `&E`
    // handle report: same evals, same hit/miss counts.
    let program = stencil("parity", 96);
    let beam = BeamSearch::new(3, small_space());

    let shared =
        SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::new(Machine), 0, 1));
    let mut scoped = ScopedEvaluator::new(&shared);
    let via_shared = beam.search(&program, &mut scoped);

    let mut plain =
        &SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::new(Machine), 0, 1));
    let via_plain = beam.search(&program, &mut plain);

    assert_eq!(via_shared.schedule, via_plain.schedule);
    assert_eq!(via_shared.score, via_plain.score);
    let a: EvalStats = via_shared.stats;
    let b: EvalStats = via_plain.stats;
    assert_eq!(a.num_evals, b.num_evals);
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(a.cache_misses, b.cache_misses);
    assert_eq!(a.search_time, b.search_time);
}
