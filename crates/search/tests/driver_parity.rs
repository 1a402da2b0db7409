//! Concurrency contract of the suite driver: running the same suite at
//! any `search_threads` setting yields **identical** `SearchResult`s —
//! schedules, scores, and per-search `EvalStats` — because scores are
//! pure per `(seed, program, schedule)`, per-search stats come from
//! scoped deltas, and cross-job cache interaction is nil for distinct
//! programs.

use dlcm_eval::{
    EvalStats, Evaluator, ModelEvaluator, ParallelEvaluator, ScopedEvaluator,
    SharedCachedEvaluator, SyncEvaluator,
};
use dlcm_ir::{BinOp, Expr, Program, ProgramBuilder, Schedule};
use dlcm_machine::{Machine, Measurement};
use dlcm_model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};
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
    // report exactly what the evaluator-wide totals report: same evals,
    // same hit/miss counts, same time.
    let program = stencil("parity", 96);
    let beam = BeamSearch::new(3, small_space());

    let shared =
        SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::new(Machine), 0, 1));
    let result = beam.search(&program, &mut ScopedEvaluator::new(&shared));

    let a: EvalStats = result.stats;
    let b: EvalStats = shared.total_stats();
    assert_eq!(a.num_evals, b.num_evals);
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(a.cache_misses, b.cache_misses);
    assert_eq!(a.search_time, b.search_time);
}

/// Forwards [`Evaluator::speedup_batch_charged`] and records the sum of
/// the charges it returned; a search that called anything else would
/// panic.
struct Recorder<'a> {
    inner: &'a mut dyn Evaluator,
    charged: EvalStats,
}

impl<'a> Recorder<'a> {
    fn new(inner: &'a mut dyn Evaluator) -> Self {
        Self {
            inner,
            charged: EvalStats::default(),
        }
    }
}

impl Evaluator for Recorder<'_> {
    fn speedup_batch(&mut self, _: &Program, _: &[Schedule]) -> Vec<f64> {
        panic!("a search scores only through speedup_batch_charged")
    }

    fn speedup_batch_charged(
        &mut self,
        program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        let (scores, charge) = self.inner.speedup_batch_charged(program, schedules);
        self.charged += charge;
        (scores, charge)
    }

    fn stats(&self) -> EvalStats {
        panic!("a search sums its own charges instead of reading stats")
    }
}

fn bits(s: &EvalStats) -> [u64; 6] {
    [
        s.num_evals as u64,
        s.search_time.to_bits(),
        s.compile_time.to_bits(),
        s.infer_time.to_bits(),
        s.cache_hits as u64,
        s.cache_misses as u64,
    ]
}

#[test]
fn searches_on_reused_evaluators_report_the_sum_of_their_charges() {
    // Both evaluators have served an earlier search, so their own stats
    // are far from zero: a search's stats must still be exactly the sum
    // of the charges its calls returned.
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let model = CostModel::new(CostModelConfig::fast(featurizer.config().vector_width()), 3);
    let mut model_eval = ModelEvaluator::new(&model, featurizer).with_simulated_cost(0.004);
    let shared =
        SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::new(Machine), 0, 1));
    let program = mm("reused", 64);
    let beam = BeamSearch::new(3, small_space());
    let mcts = Mcts {
        iterations: 16,
        space: small_space(),
        seed: 5,
    };
    beam.search(&stencil("warm", 96), &mut model_eval);
    beam.search(&program, &mut ScopedEvaluator::new(&shared));
    Mcts {
        seed: 6,
        ..mcts.clone()
    }
    .search(
        &program,
        &mut model_eval,
        &mut ScopedEvaluator::new(&shared),
    );
    assert!(model_eval.stats().num_evals > 0 && shared.total_stats().num_evals > 0);

    let mut bsm = Recorder::new(&mut model_eval);
    let result = beam.search(&program, &mut bsm);
    assert_eq!(bits(&result.stats), bits(&bsm.charged), "BSM");

    let mut exec = ScopedEvaluator::new(&shared);
    let mut rollouts = Recorder::new(&mut model_eval);
    let mut correction = Recorder::new(&mut exec);
    let result = mcts.search(&program, &mut rollouts, &mut correction);
    assert!(
        correction.charged.cache_hits > 0 && correction.charged.cache_misses > 0,
        "the correction step meets a warm cache that does not hold every schedule"
    );
    assert_eq!(
        bits(&result.stats),
        bits(&(rollouts.charged + correction.charged)),
        "MCTS"
    );
}
