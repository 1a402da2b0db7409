//! `search_suite`: the paper's use of the model — MCTS, beam search with
//! execution and beam search with the model on the ten §6 programs,
//! in-process, through `SearchDriver::run_suite`.
//!
//! One pass is one job per program (MCTS → BSE → BSM on one worker, as
//! `exp_search` builds them minus the Halide role), `threads` jobs in
//! flight, a fresh shared execution cache per pass so every pass does
//! identical work.

use std::sync::Arc;
use std::time::Instant;

use dlcm_eval::{
    EvalStats, Evaluator, ModelEvaluator, ParallelEvaluator, ScopedEvaluator,
    SharedCachedEvaluator, SyncEvaluator,
};
use dlcm_ir::Program;
use dlcm_machine::{Machine, Measurement};
use dlcm_model::{CostModel, Featurizer, ModelArtifact};
use dlcm_search::{
    expand, BeamSearch, Candidate, Mcts, SearchDriver, SearchJob, SearchResult, SearchSpace,
    SearchSpec,
};

use crate::benchmodel::{self, harness};
use crate::common::{
    record_end_to_end, record_traced_process, timed_setup, RepSample, RunConfig, MIN_REPS,
};
use crate::micro;
use crate::report::Outcome;
use crate::stats::Summary;
use crate::timed::{
    TimedEvaluator, TimedPredictor, TimedSyncEvaluator, EVAL_EXEC_BATCH, EVAL_MODEL_BATCH,
};
use crate::trace::{durations_ns, self_times_ns, total_ns_and_units, Tracer};

/// Simulated seconds of inference charged per candidate, as `exp_search`
/// charges it: search results must not depend on this machine's clock.
const SIM_INFER_COST: f64 = 0.004;
const BEAM_WIDTH: usize = 4;
/// Times the set-up (bench model training) is repeated.
const SETUP_REPS: usize = 3;

const MCTS: &str = "search.mcts";
const BSE: &str = "search.bse";
const BSM: &str = "search.bsm";
const EXPAND: &str = "search.expand";

struct Inputs {
    artifact: ModelArtifact,
    jobs: Vec<SearchJob>,
}

fn generate(cfg: &RunConfig) -> Inputs {
    let artifact = benchmodel::build(cfg.threads, &cfg.sizes, &cfg.scratch.join("bench_model"))
        .expect("bench model");
    let space = SearchSpace::default();
    let jobs = dlcm_benchsuite::suite()
        .iter()
        .map(|bench| SearchJob {
            program: (bench.build)(1.0),
            specs: vec![
                SearchSpec::Mcts {
                    search: Mcts {
                        iterations: cfg.sizes.mcts_iterations,
                        space: space.clone(),
                        // The one seeded input of this workload: the
                        // rollouts MCTS draws.
                        seed: cfg.seed,
                        ..Mcts::default()
                    },
                    role: 0,
                },
                SearchSpec::BeamExec(BeamSearch::new(BEAM_WIDTH, space.clone())),
                SearchSpec::BeamModel {
                    search: BeamSearch::new(BEAM_WIDTH, space.clone()),
                    role: 0,
                },
            ],
        })
        .collect();
    Inputs { artifact, jobs }
}

fn fresh_exec(threads: usize) -> SharedCachedEvaluator<ParallelEvaluator> {
    SharedCachedEvaluator::new(ParallelEvaluator::new(harness(), 0, threads))
}

/// One pass through the driver; returns its results and wall-clock.
fn driver_pass(
    cfg: &RunConfig,
    jobs: &[SearchJob],
    model: &CostModel,
    featurizer: &Featurizer,
) -> (Vec<Vec<SearchResult>>, f64) {
    let exec = fresh_exec(cfg.threads);
    let factory = |_role: usize| -> Box<dyn Evaluator + '_> {
        Box::new(ModelEvaluator::new(model, featurizer.clone()).with_simulated_cost(SIM_INFER_COST))
    };
    let start = Instant::now();
    let results = SearchDriver::new(cfg.threads).run_suite(jobs, &exec, &factory);
    (results, start.elapsed().as_secs_f64())
}

/// Candidates a pass's searches asked their evaluators about, cache
/// hits included.
fn candidates(results: &[Vec<SearchResult>]) -> usize {
    results
        .iter()
        .flatten()
        .map(|r| r.stats.num_evals + r.stats.cache_hits)
        .sum()
}

/// Same schedules and bit-equal scores, search by search.
fn same_results(a: &[Vec<SearchResult>], b: &[Vec<SearchResult>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| {
                    p.schedule == q.schedule && p.score.to_bits() == q.score.to_bits()
                })
        })
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let setup_reps = if cfg.traced { 1 } else { SETUP_REPS };
    let (inputs, setup) = timed_setup(setup_reps, || generate(cfg));
    let featurizer = inputs.artifact.featurizer();
    let model = inputs.artifact.model();
    let searches: usize = inputs.jobs.iter().map(|j| j.specs.len()).sum();
    outcome.counts.insert("searches_per_pass", searches as u64);

    if cfg.traced {
        run_traced(cfg, &inputs, &mut outcome);
        return outcome;
    }
    let (reference, _) = driver_pass(cfg, &inputs.jobs, model, &featurizer);
    let scored = candidates(&reference) as f64;
    let mut samples = Vec::new();
    let mut measured = 0.0;
    while samples.len() < MIN_REPS || measured < cfg.seconds {
        let (results, wall_s) = driver_pass(cfg, &inputs.jobs, model, &featurizer);
        outcome.attempted += searches as u64;
        // Identical passes must find identical schedules.
        outcome.check(same_results(&results, &reference), || {
            format!(
                "pass {} found different schedules than the first pass",
                samples.len()
            )
        });
        measured += wall_s;
        samples.push(RepSample {
            op_us: wall_s * 1e6,
            work_per_s: scored / wall_s,
        });
    }
    record_end_to_end(&mut outcome, &setup, &samples);
    outcome.counts.insert("passes", samples.len() as u64);
    outcome.counts.insert("candidates_per_pass", scored as u64);
    outcome
}

/// Walks one path down a program's candidate tree, timing every
/// `expand` (`units` = candidates produced).
fn expand_walk(tracer: &Tracer, program: &Program, space: &SearchSpace) {
    let mut cand = Candidate::root(program);
    while !cand.is_complete() {
        let mut span = tracer.span(EXPAND, 0);
        let mut children = expand(program, space, &cand);
        span.set_units(children.len());
        drop(span);
        // The middle child: past the skip child, inside the space.
        cand = children.swap_remove(children.len() / 2);
    }
}

/// `passes` passes of direct `Mcts::search` / `BeamSearch::search` calls
/// in driver order, over timing decorators, each pass on a fresh
/// execution cache like a driver pass. With the tracer disabled the same
/// calls run and nothing is recorded. Returns the last pass's results,
/// the wall-clock of all passes and the last pass's execution counters.
fn direct_passes(
    cfg: &RunConfig,
    inputs: &Inputs,
    tracer: &Arc<Tracer>,
    passes: usize,
) -> (Vec<Vec<SearchResult>>, f64, EvalStats) {
    let featurizer = inputs.artifact.featurizer();
    let predictor = TimedPredictor::new(inputs.artifact.model().clone(), Arc::clone(tracer));
    let model_eval = || {
        TimedEvaluator::new(
            ModelEvaluator::new(&predictor, featurizer.clone()).with_simulated_cost(SIM_INFER_COST),
            EVAL_MODEL_BATCH,
            Arc::clone(tracer),
        )
    };
    let start = Instant::now();
    let mut last = (Vec::new(), EvalStats::default());
    for pass in 0..passes {
        let exec =
            TimedSyncEvaluator::new(fresh_exec(cfg.threads), EVAL_EXEC_BATCH, Arc::clone(tracer));
        let mut op_id = (pass * inputs.jobs.len() * 3) as u64;
        let results = inputs
            .jobs
            .iter()
            .map(|job| {
                job.specs
                    .iter()
                    .map(|spec| {
                        op_id += 1;
                        match spec {
                            SearchSpec::Mcts { search, .. } => {
                                let _op = tracer.op(MCTS, op_id);
                                search.search(
                                    &job.program,
                                    &mut model_eval(),
                                    &mut ScopedEvaluator::new(&exec),
                                )
                            }
                            SearchSpec::BeamExec(search) => {
                                let _op = tracer.op(BSE, op_id);
                                search.search(&job.program, &mut ScopedEvaluator::new(&exec))
                            }
                            SearchSpec::BeamModel { search, .. } => {
                                let _op = tracer.op(BSM, op_id);
                                search.search(&job.program, &mut model_eval())
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        last = (results, exec.total_stats());
    }
    (last.0, start.elapsed().as_secs_f64(), last.1)
}

fn run_traced(cfg: &RunConfig, inputs: &Inputs, outcome: &mut Outcome) {
    let featurizer = inputs.artifact.featurizer();
    let (driver, _) = driver_pass(cfg, &inputs.jobs, inputs.artifact.model(), &featurizer);

    // One sequential pass is a fraction of a second: repeat it — tracer
    // off, on, off, the same number of passes each, a quarter of the run
    // length each — so the per-search medians rest on more than ten
    // samples. The machine drifts by more than the tracer costs, hence
    // the tracer-off time on both sides of the traced passes.
    let tracer = Arc::new(Tracer::new(false));
    let (_, warm_s, _) = direct_passes(cfg, inputs, &tracer, 1);
    let passes = ((cfg.seconds / 4.0 / warm_s) as usize).clamp(1, 20);
    let (quiet, quiet_s, _) = direct_passes(cfg, inputs, &tracer, passes);
    tracer.set_enabled(true);
    let (direct, traced_s, exec_stats) = direct_passes(cfg, inputs, &tracer, passes);
    tracer.set_enabled(false);
    let (_, quiet_after_s, _) = direct_passes(cfg, inputs, &tracer, passes);
    tracer.set_enabled(true);

    let searches = direct.iter().map(Vec::len).sum::<usize>() as u64;
    outcome.attempted += 3 * searches;
    // The driver's fan-out, the decorators and the tracer must none of
    // them change what a search finds.
    outcome.check(same_results(&driver, &direct), || {
        "driver results differ from the traced direct-call results".to_string()
    });
    outcome.check(same_results(&quiet, &direct), || {
        "direct-call results differ with the tracer on".to_string()
    });

    // Direct calls into ir, machine, model and search on what the
    // searches found.
    let exact = Measurement::exact(Machine::default());
    let measured = harness();
    let space = SearchSpace::default();
    let probe = SharedCachedEvaluator::new(micro::ConstantScores);
    let mut log_speedup = 0.0;
    for (job, results) in inputs.jobs.iter().zip(&direct) {
        let found: Vec<_> = results.iter().map(|r| r.schedule.clone()).collect();
        let _op = tracer.op("search.micro", 0);
        expand_walk(&tracer, &job.program, &space);
        micro::featurize(&tracer, &featurizer, &job.program, &found);
        micro::fingerprint(&tracer, &job.program, &found);
        micro::cache_probe(&tracer, &probe, &job.program, &found);
        for schedule in &found {
            micro::apply_and_measure(&tracer, &measured, &job.program, schedule);
            let speedup = exact
                .speedup(&job.program, schedule, 0)
                .expect("a found schedule is legal");
            log_speedup += speedup.ln();
        }
    }
    tracer.set_enabled(false);
    let spans = tracer.spans();

    let ms =
        |name: &str| -> Vec<f64> { durations_ns(&spans, name).iter().map(|d| d / 1e6).collect() };
    let (mcts, bse, bsm) = (ms(MCTS), ms(BSE), ms(BSM));
    // With `threads` jobs in flight a driver pass ends with its slowest
    // job; here: the slowest program's three searches, median over the
    // traced passes.
    let jobs = inputs.jobs.len();
    let slowest_per_pass: Vec<f64> = (0..passes)
        .map(|pass| {
            (pass * jobs..(pass + 1) * jobs)
                .map(|i| mcts[i] + bse[i] + bsm[i])
                .fold(0.0, f64::max)
        })
        .collect();
    outcome.set("search.mcts_ms", Summary::of(&mcts));
    outcome.set("search.bse_ms", Summary::of(&bse));
    outcome.set("search.bsm_ms", Summary::of(&bsm));
    outcome.set("search.slowest_job_ms", Summary::of(&slowest_per_pass));

    // Search self time: the search spans minus what their evaluator
    // calls cover.
    let selfs = self_times_ns(&spans);
    let (mut search_ns, mut search_self_ns) = (0.0, 0.0);
    let mut model_batch_self_ns = 0.0;
    for (span, self_ns) in spans.iter().zip(&selfs) {
        if [MCTS, BSE, BSM].contains(&span.name) {
            search_ns += span.dur_ns() as f64;
            search_self_ns += *self_ns as f64;
        }
        if span.name == EVAL_MODEL_BATCH {
            model_batch_self_ns += *self_ns as f64;
        }
    }
    outcome.set_exact("search.self_share", search_self_ns / search_ns.max(1.0));
    let (expand_ns, expanded) = total_ns_and_units(&spans, EXPAND);
    outcome.set_exact(
        "search.expand_ns_per_candidate",
        expand_ns / expanded.max(1.0),
    );
    let (_, model_rows) = total_ns_and_units(&spans, EVAL_MODEL_BATCH);
    let (exec_ns, exec_rows) = total_ns_and_units(&spans, EVAL_EXEC_BATCH);
    outcome.set_exact(
        "search.candidates_scored",
        (model_rows + exec_rows) / passes as f64,
    );
    outcome.set_exact(
        "search.found_speedup_geomean",
        (log_speedup / searches.max(1) as f64).exp(),
    );

    outcome.set_exact(
        "eval.model_batch_self_ns_per_row",
        model_batch_self_ns / model_rows.max(1.0),
    );
    outcome.set_exact(
        "eval.exec_ns_per_candidate",
        exec_ns / (passes * exec_stats.num_evals.max(1)) as f64,
    );
    outcome.set_exact("eval.exec_evals", exec_stats.num_evals as f64);
    outcome.set_exact("eval.exec_cache_hits", exec_stats.cache_hits as f64);
    micro::pool_dispatch(cfg.threads, outcome);
    micro::matmul(
        &inputs.artifact,
        &inputs.jobs[0].program,
        &direct[0][0].schedule,
        outcome,
    );
    micro::record_infer(&spans, outcome);
    outcome.set_exact(
        "model.featurize_ns_per_row",
        micro::featurize_ns_per_row(&spans),
    );
    micro::record_fingerprint_and_probe(&spans, outcome);
    micro::record_apply_and_measure(&spans, outcome);

    outcome.set_exact(
        "trace.overhead_ratio",
        traced_s / ((quiet_s + quiet_after_s) / 2.0),
    );
    record_traced_process(outcome);
    outcome
        .counts
        .insert("candidates_per_pass", candidates(&direct) as u64);
    outcome.counts.insert("traced_passes", passes as u64);
    outcome.spans = spans;
}
