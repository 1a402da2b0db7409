//! EXP-R2 (§6, "Comparison with Halide"): R² of the Halide-style
//! feature-engineered model (MSE loss, its own metric) vs our model, on
//! randomly generated programs. The paper reports Halide 0.96 vs
//! Tiramisu 0.89 — comparable, but Halide needs 54 engineered features.
//!
//! Beyond the pointwise R², the binary compares the models **as search
//! drivers**: beam search over every §6 benchmark with each model, fanned
//! across the concurrent suite driver (`--search-threads N`), reporting
//! the measured speedup of each model's chosen schedule. Model-driven
//! searches are deterministic per seed and the driver gathers in input
//! order, so `halide_r2.json` is byte-identical at any `--search-threads`
//! setting.
//!
//! `cargo run --release -p dlcm-bench --bin exp_halide_r2 [--quick]
//! [--threads N] [--shards K] [--search-threads N] [--model-artifact DIR]`

use dlcm_baseline::{HalideModel, HalideTrainConfig};
use dlcm_bench::{harness, load_model_and_featurizer, load_or_generate_dataset, write_json, Flags};
use dlcm_datagen::prepare;
use dlcm_eval::{Evaluator, ModelEvaluator};
use dlcm_machine::MachineConfig;
use dlcm_model::{evaluate, metrics, CostModel, Featurizer};
use dlcm_search::{BeamSearch, SearchDriver, SearchJob, SearchSpace, SearchSpec};
use serde::Serialize;

/// Measured end-to-end speedup of each model's chosen schedule on one
/// benchmark (beam search, width 4, identical spaces).
#[derive(Serialize)]
struct SearchQualityRow {
    benchmark: String,
    ours_speedup: f64,
    halide_speedup: f64,
}

#[derive(Serialize)]
struct R2Report {
    halide_r2: f64,
    ours_r2: f64,
    halide_spearman: f64,
    ours_spearman: f64,
    paper_halide_r2: f64,
    paper_ours_r2: f64,
    /// Mean measured speedup across the suite when each model drives the
    /// same beam search (the end-to-end complement of the pointwise R²).
    search_ours_mean_speedup: f64,
    search_halide_mean_speedup: f64,
    search: Vec<SearchQualityRow>,
}

const ROLE_OURS: usize = 0;
const ROLE_HALIDE: usize = 1;

const USAGE: &str = "exp_halide_r2 [--quick] [--threads N] [--shards K] [--search-threads N] \
         [--model-artifact DIR]";

fn main() {
    let flags = Flags::parse(std::env::args().skip(1), USAGE);
    let quick = flags.has("quick");
    let search_threads = flags.positive("search-threads", 1);
    eprintln!("=== EXP-R2: Halide-style baseline vs our model (quick={quick}) ===");
    let dataset = load_or_generate_dataset(&flags);
    let split = dataset.split(0);

    // The Halide-style model trains on the same random-program training
    // split here (its *domain gap* is exercised separately in exp_search).
    let mut halide = HalideModel::new(MachineConfig::default(), 0);
    eprintln!(
        "training Halide-style model (MSE) on {} points ...",
        split.train.len()
    );
    halide.train(&dataset, &split.train, &HalideTrainConfig::default());
    let (y, halide_preds) = halide.evaluate(&dataset, &split.test);

    let (model, featurizer) = load_model_and_featurizer(flags.string("model-artifact"));
    let test_set = prepare(&featurizer, &dataset, &split.test);
    let (_, our_preds) = evaluate(&model, &test_set);

    // End-to-end: both models drive the same beam search on every §6
    // benchmark, concurrently across the suite driver; what matters is
    // how the chosen schedules *measure*.
    eprintln!("running suite searches with both models (search-threads={search_threads}) ...");
    let scale = if quick { 0.15 } else { 1.0 };
    let harness = harness();
    let space = SearchSpace::default();
    let suite = dlcm_benchsuite::suite();
    let jobs: Vec<SearchJob> = suite
        .iter()
        .map(|bench| SearchJob {
            program: (bench.build)(scale),
            specs: vec![
                SearchSpec::BeamModel {
                    search: BeamSearch::new(4, space.clone()),
                    role: ROLE_OURS,
                },
                SearchSpec::BeamModel {
                    search: BeamSearch::new(4, space.clone()),
                    role: ROLE_HALIDE,
                },
            ],
        })
        .collect();
    let factory = model_factory(&model, &featurizer, &halide);
    let results = SearchDriver::new(search_threads).run_model_suite(&jobs, &factory);

    let search: Vec<SearchQualityRow> = suite
        .iter()
        .zip(&jobs)
        .zip(&results)
        .map(|((bench, job), searches)| {
            let baseline = dlcm_machine::parallel_baseline(&job.program);
            let t_base = harness
                .measure_schedule(&job.program, &baseline, 1)
                .expect("baseline legal");
            let measured = |s: &dlcm_ir::Schedule| {
                t_base
                    / harness
                        .measure_schedule(&job.program, s, 1)
                        .expect("legal schedule")
            };
            SearchQualityRow {
                benchmark: bench.name.to_string(),
                ours_speedup: measured(&searches[0].schedule),
                halide_speedup: measured(&searches[1].schedule),
            }
        })
        .collect();
    let mean =
        |f: fn(&SearchQualityRow) -> f64| search.iter().map(f).sum::<f64>() / search.len() as f64;

    let report = R2Report {
        halide_r2: metrics::r2(&y, &halide_preds),
        ours_r2: metrics::r2(&y, &our_preds),
        halide_spearman: metrics::spearman(&y, &halide_preds),
        ours_spearman: metrics::spearman(&y, &our_preds),
        paper_halide_r2: 0.96,
        paper_ours_r2: 0.89,
        search_ours_mean_speedup: mean(|r| r.ours_speedup),
        search_halide_mean_speedup: mean(|r| r.halide_speedup),
        search,
    };
    println!(
        "Halide-style: R^2 {:.3}, Spearman {:.3}  (paper R^2: 0.96, with 54 engineered features)",
        report.halide_r2, report.halide_spearman
    );
    println!(
        "ours        : R^2 {:.3}, Spearman {:.3}  (paper R^2: 0.89, no feature engineering)",
        report.ours_r2, report.ours_spearman
    );
    println!(
        "as search drivers (mean measured speedup over {} benchmarks): ours {:.2}x, Halide-style {:.2}x",
        report.search.len(),
        report.search_ours_mean_speedup,
        report.search_halide_mean_speedup
    );
    write_json("halide_r2.json", &report);
}

/// Fresh model evaluator per search, borrowing the shared trained models.
fn model_factory<'m>(
    model: &'m CostModel,
    featurizer: &'m Featurizer,
    halide: &'m HalideModel,
) -> impl Fn(usize) -> Box<dyn Evaluator + 'm> + Sync {
    move |role| match role {
        ROLE_HALIDE => Box::new(halide.clone()),
        _ => Box::new(ModelEvaluator::new(model, featurizer.clone())),
    }
}
