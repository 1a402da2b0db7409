//! Tier-1 golden of the search path: MCTS (fixed seed) → beam search
//! with execution → beam search with the model on the ten §6 programs at
//! a reduced scale, through [`SearchDriver`], must find exactly the
//! schedules, scores and evaluation counts it found when this golden was
//! captured — at one and at two search threads. MCTS draws one random
//! number per legal child, so a single flipped legality verdict moves
//! every schedule downstream of it: "search results are byte-identical"
//! is the contract every change to the legality engine, the candidate
//! space or the search loops is held to.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use dlcm::benchsuite;
use dlcm::eval::{
    Evaluator, ModelEvaluator, ParallelEvaluator, ScopedEvaluator, SharedCachedEvaluator,
};
use dlcm::ir::fingerprint::{fnv1a, to_hex, FNV1A_INIT};
use dlcm::ir::Legality;
use dlcm::machine::Measurement;
use dlcm::model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};
use dlcm::search::{
    expand, finalize, BeamSearch, Candidate, Mcts, SearchDriver, SearchJob, SearchResult,
    SearchSpace, SearchSpec,
};

/// Re-pinned by PR 20, when the activations became `dlcm_tensor::math`:
/// against `9e62c9e9edae1614` (captured before legality became
/// incremental, PR 17, on libm's `expf` / `tanhf`) every schedule is the
/// same, four scores moved by one f32 ulp and one model-guided beam
/// resolved a near-tie the other way (54 → 52 evaluations); CHANGES.md
/// has the lines.
const SUITE_GOLDEN: &str = "a9512d42ac88cece";

const SCALE: f64 = 0.1;

/// Sizes that fit the scaled-down extents on some levels and not on
/// others, so both accepted and `BadFactor` tiles are part of the golden.
fn space() -> SearchSpace {
    SearchSpace {
        tile_sizes: vec![8, 32, 128],
        unroll_factors: vec![4, 16],
    }
}

fn jobs() -> Vec<SearchJob> {
    benchsuite::suite()
        .iter()
        .map(|bench| SearchJob {
            program: (bench.build)(SCALE),
            specs: vec![
                SearchSpec::Mcts {
                    search: Mcts {
                        iterations: 24,
                        space: space(),
                        seed: 17,
                    },
                    role: 0,
                },
                SearchSpec::BeamExec(BeamSearch::new(3, space())),
                SearchSpec::BeamModel {
                    search: BeamSearch::new(3, space()),
                    role: 0,
                },
            ],
        })
        .collect()
}

/// One line per search: what it found and what finding it cost.
fn render(results: &[Vec<SearchResult>]) -> Vec<String> {
    results
        .iter()
        .flatten()
        .map(|r| {
            format!(
                "{} | {:016x} | {} | {}",
                r.schedule.describe(),
                r.score.to_bits(),
                r.stats.num_evals,
                r.stats.cache_hits
            )
        })
        .collect()
}

fn fingerprint(lines: &[String]) -> String {
    let state = lines.iter().fold(FNV1A_INIT, |state, line| {
        fnv1a(fnv1a(state, line.as_bytes()), b"\n")
    });
    to_hex(state)
}

/// The suite at `search_threads` jobs in flight: a seeded random-init
/// model plays the cost model (the golden pins the search, not the
/// model's accuracy), the default noisy harness plays the machine.
fn run(search_threads: usize) -> Vec<String> {
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let model = CostModel::new(
        CostModelConfig::fast(FeaturizerConfig::default().vector_width()),
        0,
    );
    let exec = SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::default(), 0, 1));
    let model_eval = |_role: usize| -> Box<dyn Evaluator + '_> {
        Box::new(ModelEvaluator::new(&model, featurizer.clone()).with_simulated_cost(0.004))
    };
    let results = SearchDriver::new(search_threads).run_suite(&jobs(), &exec, &model_eval);
    assert_eq!(results.len(), 10, "the whole §6 suite");
    render(&results)
}

#[test]
fn suite_searches_find_the_golden_schedules_at_any_search_thread_count() {
    for search_threads in [1, 2] {
        let lines = run(search_threads);
        assert_eq!(
            fingerprint(&lines),
            SUITE_GOLDEN,
            "search_threads={search_threads}: a schedule, score or evaluation count moved:\n{}",
            lines.join("\n")
        );
    }
}

/// Candidates carry the legality state of their schedule: over the first
/// few hundred candidates of each suite program's tree, breadth first,
/// the carried state equals a cold `Legality::prefix` replay and
/// finalizing from it equals the one-shot `finalize`.
#[test]
fn carried_states_match_cold_replays_on_the_suite() {
    for bench in benchsuite::suite() {
        let program = (bench.build)(SCALE);
        let legality = Legality::new(&program);
        let mut queue = VecDeque::from([Candidate::root(&program)]);
        let mut seen = 0;
        while let Some(cand) = queue.pop_front() {
            assert_eq!(
                Ok(cand.state()),
                legality.prefix(&cand.schedule).as_ref(),
                "{}: {}",
                bench.name,
                cand.schedule.describe()
            );
            assert_eq!(
                cand.clone().finalize(&legality),
                finalize(&program, &cand.schedule)
            );
            seen += 1;
            if seen < 300 && !cand.is_complete() {
                queue.extend(expand(&program, &space(), &cand));
            }
        }
    }
}

/// A job's MCTS and model-guided beam search share one model evaluator
/// (the factory runs once per job and role), and each still reports what
/// a dedicated evaluator would have charged it, bit for bit.
#[test]
fn a_job_builds_one_model_evaluator_and_each_search_is_charged_alone() {
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let model = CostModel::new(
        CostModelConfig::fast(FeaturizerConfig::default().vector_width()),
        0,
    );
    let fresh = || ModelEvaluator::new(&model, featurizer.clone()).with_simulated_cost(0.004);
    let built = AtomicUsize::new(0);
    let factory = |_role: usize| -> Box<dyn Evaluator + '_> {
        built.fetch_add(1, Ordering::Relaxed);
        Box::new(fresh())
    };
    let mcts = Mcts {
        iterations: 24,
        space: space(),
        seed: 17,
    };
    let beam = BeamSearch::new(3, space());
    let program = (benchsuite::suite()[1].build)(SCALE);
    let jobs = [SearchJob {
        program: program.clone(),
        specs: vec![
            SearchSpec::Mcts {
                search: mcts.clone(),
                role: 0,
            },
            SearchSpec::BeamModel {
                search: beam.clone(),
                role: 0,
            },
        ],
    }];
    let exec = SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::default(), 0, 1));
    let shared = SearchDriver::new(1).run_suite(&jobs, &exec, &factory);
    assert_eq!(built.load(Ordering::Relaxed), 1);

    let exec = SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::default(), 0, 1));
    let alone = vec![
        mcts.search(&program, &mut fresh(), &mut ScopedEvaluator::new(&exec)),
        beam.search(&program, &mut fresh()),
    ];
    for (a, b) in shared[0].iter().zip(&alone) {
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.stats.num_evals, b.stats.num_evals);
        assert_eq!(a.stats.search_time.to_bits(), b.stats.search_time.to_bits());
        assert_eq!(a.stats.cache_hits, b.stats.cache_hits);
    }
}
