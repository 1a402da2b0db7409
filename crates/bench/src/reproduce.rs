//! `modelctl reproduce`: every §6 experiment in one process, over the
//! one [`Evaluation`] and the one in-memory artifact `modelctl train`'s
//! pipeline just produced. Nothing is re-read, re-featurized or
//! re-predicted; every aggregate number lands in the [`Ledger`]
//! (`RESULTS.md` + `RESULTS.json`), its one record:
//!
//! - §6 headline metrics and the per-family breakdown (the same
//!   [`crate::AccuracyReport`] `modelctl eval` writes as `accuracy.json`);
//! - Figures 4, 5, 7, 8 ([`crate::figures`], which also writes their
//!   per-point CSVs);
//! - Figure 6 + Table 2 — one suite sweep, each benchmark one driver job
//!   running MCTS, BSE, BSM and the two Halide-style searches;
//! - §6's comparison against the Halide-style model trained on the
//!   corpus, pointwise and as a search driver;
//! - §4.4's alternative architectures, each trained on the same streamed
//!   training split (`dlcm_datagen::ShardBatches`) the artifact was.

use dlcm_baseline::{HalideModel, HalideTrainConfig};
use dlcm_datagen::{
    BuildConfig, DatasetConfig, ParallelDatasetBuilder, ProgramGenConfig, ShardBatches,
};
use dlcm_eval::{Evaluator, ModelEvaluator, ParallelEvaluator, SharedCachedEvaluator};
use dlcm_machine::parallel_baseline;
use dlcm_model::ablation::{ConcatFfnModel, FlatLstmModel};
use dlcm_model::{
    evaluate, train_stream, CostModel, LabeledFeatures, ModelArtifact, SpeedupPredictor,
    TrainConfig,
};
use dlcm_search::{BeamSearch, Mcts, SearchDriver, SearchJob, SearchSpace, SearchSpec};
use serde::Serialize;

use crate::{accuracy_report, harness, Evaluation, Ledger};

/// Simulated seconds of model inference per candidate (the paper's LSTM
/// forward pass runs in a few milliseconds). Charged instead of measured
/// wall-clock so Table 2's acceleration column is a pure function of the
/// search trace — see `ModelEvaluator::with_simulated_cost`.
const SIM_INFER_COST: f64 = 0.004;

/// Evaluator-factory roles of the suite sweep's model-driven searches.
const ROLE_COST_MODEL: usize = 0;
const ROLE_HALIDE_GAP: usize = 1;
const ROLE_HALIDE_CORPUS: usize = 2;

/// Measured speedups (over the §6 parallel baseline) of each search's
/// chosen schedule on one suite benchmark, and its Table 2 ratios.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct SuiteRow {
    /// Benchmark name.
    pub(crate) benchmark: String,
    /// Beam search with execution (the reference).
    pub(crate) bse: f64,
    /// Beam search with the trained cost model.
    pub(crate) bsm: f64,
    /// MCTS with the cost model plus top-k execution correction.
    pub(crate) mcts: f64,
    /// Beam search with the Halide-style model trained on its
    /// image/DL-only domain (Figure 6's Halide column).
    pub(crate) halide: f64,
    /// Beam search with the Halide-style model trained on the corpus.
    pub(crate) halide_corpus: f64,
    /// BSE search time ÷ BSM search time.
    pub(crate) bsm_search_accel: f64,
    /// BSM's measured-speedup loss against BSE, in percent.
    pub(crate) bsm_degradation_pct: f64,
    /// BSE search time ÷ MCTS search time.
    pub(crate) mcts_search_accel: f64,
    /// MCTS's measured-speedup loss against BSE, in percent.
    pub(crate) mcts_degradation_pct: f64,
}

/// §4.4's relative test-MAPE increases (the ledger's `ablation`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct AblationReport {
    pub(crate) recursive_mape: f64,
    pub(crate) flat_lstm_mape: f64,
    pub(crate) concat_ffn_mape: f64,
    pub(crate) flat_lstm_relative: f64,
    pub(crate) concat_ffn_relative: f64,
    pub(crate) paper_flat_relative: f64,
    pub(crate) paper_ffn_relative: f64,
}

/// Runs every experiment on `artifact` (trained for `epochs` epochs) and
/// its held-out `evaluation`, writes the per-point figure CSVs, and
/// returns the ledger built from every experiment's numbers. Every output
/// is byte-identical at any `threads`.
pub fn reproduce(
    quick: bool,
    threads: usize,
    artifact: &ModelArtifact,
    evaluation: &Evaluation,
    epochs: usize,
) -> Ledger {
    let report = accuracy_report(evaluation, epochs);
    let fig7 = crate::figures::write_figures(evaluation);

    let (dataset, split) = (evaluation.corpus.dataset(), &evaluation.corpus.split);
    eprintln!(
        "training the corpus Halide-style model (MSE) on {} points ...",
        split.train.len()
    );
    let mut halide_corpus = HalideModel::new(0);
    halide_corpus.train(dataset, &split.train, &HalideTrainConfig::default());
    let (_, halide_preds) = halide_corpus.evaluate(dataset, &split.test);

    let suite = suite_sweep(quick, threads, artifact, &halide_corpus);
    let ablation = ablation(quick, artifact, evaluation);
    Ledger::new(
        evaluation,
        &report,
        artifact.manifest(),
        &halide_preds,
        fig7,
        suite,
        ablation,
    )
}

/// FIG-6 + TAB-2: one driver job per §6 benchmark, running MCTS, BSE,
/// BSM, the domain-gap Halide-style search and the corpus-trained one.
fn suite_sweep(
    quick: bool,
    threads: usize,
    artifact: &ModelArtifact,
    halide_corpus: &HalideModel,
) -> Vec<SuiteRow> {
    let harness = harness();
    // Halide-style baseline trained on image/DL-flavoured programs only
    // (assigns, stencils and conv windows — no matmul-like reductions or
    // reduction pipelines), reproducing its §6 domain gap. Labeled by
    // the same builder protocol as the corpus it is compared against.
    eprintln!("training the domain-gap Halide-style baseline ...");
    let (gap_ds, _stats) = ParallelDatasetBuilder::new(BuildConfig {
        threads,
        ..BuildConfig::new(DatasetConfig {
            num_programs: if quick { 32 } else { 192 },
            schedules_per_program: 12,
            seed: 99,
            progen: ProgramGenConfig {
                pattern_weights: vec![3, 3, 0, 3, 0, 0],
                ..ProgramGenConfig::default()
            },
            ..DatasetConfig::default()
        })
    })
    .generate(&harness);
    let mut halide_gap = HalideModel::new(0);
    let idx: Vec<usize> = (0..gap_ds.len()).collect();
    halide_gap.train(&gap_ds, &idx, &HalideTrainConfig::default());

    // MCTS goes first (model rollouts + top-3 executed) so its Table 2
    // accounting is standalone, like the paper's; BSE afterwards reuses
    // any measurement MCTS already paid for through the shared cache — a
    // few hits that only make the reference denominator slightly cheaper
    // (the conservative direction for both ratios). The model-only
    // searches never touch the cache. Keys embed the program's content
    // fingerprint, so benchmarks never cross-contaminate however the
    // jobs interleave.
    let scale = if quick { 0.15 } else { 1.0 };
    let space = SearchSpace::default();
    let beam = |role| SearchSpec::BeamModel {
        search: BeamSearch::new(4, space.clone()),
        role,
    };
    let suite = dlcm_benchsuite::suite();
    let jobs: Vec<SearchJob> = suite
        .iter()
        .map(|bench| SearchJob {
            program: (bench.build)(scale),
            specs: vec![
                SearchSpec::Mcts {
                    search: Mcts {
                        iterations: if quick { 40 } else { 150 },
                        space: space.clone(),
                        ..Mcts::default()
                    },
                    role: ROLE_COST_MODEL,
                },
                SearchSpec::BeamExec(BeamSearch::new(4, space.clone())),
                beam(ROLE_COST_MODEL),
                beam(ROLE_HALIDE_GAP),
                beam(ROLE_HALIDE_CORPUS),
            ],
        })
        .collect();
    let featurizer = artifact.featurizer();
    let factory = |role| -> Box<dyn Evaluator + '_> {
        match role {
            ROLE_HALIDE_GAP => Box::new(halide_gap.clone()),
            ROLE_HALIDE_CORPUS => Box::new(halide_corpus.clone()),
            _ => Box::new(
                ModelEvaluator::new(artifact.model(), featurizer.clone())
                    .with_simulated_cost(SIM_INFER_COST),
            ),
        }
    };
    let shared_exec =
        SharedCachedEvaluator::new(ParallelEvaluator::new(harness.clone(), 0, threads));
    let results = SearchDriver::new(threads).run_suite(&jobs, &shared_exec, &factory);

    suite
        .iter()
        .zip(&jobs)
        .zip(&results)
        .map(|((bench, job), searches)| {
            let [mcts, bse, bsm, gap, corpus] = searches.as_slice() else {
                unreachable!("five specs per job")
            };
            let program = &job.program;
            let t_base = harness
                .measure_schedule(program, &parallel_baseline(program), 1)
                .expect("baseline legal");
            let measured = |s: &dlcm_ir::Schedule| {
                t_base
                    / harness
                        .measure_schedule(program, s, 1)
                        .expect("legal schedule")
            };
            let bse_speedup = measured(&bse.schedule);
            let degr = |s: f64| 100.0 * (1.0 - s / bse_speedup.max(1e-12)).max(0.0);
            let (bsm_speedup, mcts_speedup) = (measured(&bsm.schedule), measured(&mcts.schedule));
            SuiteRow {
                benchmark: bench.name.to_string(),
                bse: bse_speedup,
                bsm: bsm_speedup,
                mcts: mcts_speedup,
                halide: measured(&gap.schedule),
                halide_corpus: measured(&corpus.schedule),
                bsm_search_accel: bse.stats.search_time / bsm.stats.search_time.max(1e-9),
                bsm_degradation_pct: degr(bsm_speedup),
                mcts_search_accel: bse.stats.search_time / mcts.stats.search_time.max(1e-9),
                mcts_degradation_pct: degr(mcts_speedup),
            }
        })
        .collect()
}

/// EXP-ABL (§4.4): the recursive model against the flat-LSTM and
/// concat-FFN alternatives, each streamed the training split for the
/// same epochs and scored on the held-out set.
fn ablation(quick: bool, artifact: &ModelArtifact, evaluation: &Evaluation) -> AblationReport {
    let (train, test) = (&evaluation.corpus.train, &evaluation.corpus.test_set);
    let cfg = &artifact.manifest().model_config;
    let epochs = if quick { 6 } else { 30 };
    let recursive_mape = held_out_mape(CostModel::new(cfg.clone(), 0), train, test, epochs);
    let flat_lstm_mape = held_out_mape(FlatLstmModel::new(cfg.clone(), 0), train, test, epochs);
    let concat_ffn_mape =
        held_out_mape(ConcatFfnModel::new(cfg.clone(), 4, 0), train, test, epochs);
    AblationReport {
        recursive_mape,
        flat_lstm_mape,
        concat_ffn_mape,
        flat_lstm_relative: flat_lstm_mape / recursive_mape,
        concat_ffn_relative: concat_ffn_mape / recursive_mape,
        paper_flat_relative: 1.15,
        paper_ffn_relative: 1.39,
    }
}

/// Trains `model` on the `train` stream for `epochs` epochs and returns
/// its MAPE on `test_set`. The batch layout is the stream's, cut when
/// the [`Evaluation`] was opened: `train_stream` reads no `batch_size`.
fn held_out_mape<M: SpeedupPredictor>(
    mut model: M,
    train: &ShardBatches,
    test_set: &[LabeledFeatures],
    epochs: usize,
) -> f64 {
    let cfg = TrainConfig {
        epochs,
        eval_every: usize::MAX,
        ..TrainConfig::default()
    };
    train_stream(&mut model, train, &[], &cfg);
    evaluate(&model, test_set).0
}
