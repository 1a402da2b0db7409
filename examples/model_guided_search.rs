//! The paper's full loop: train the cost model on random programs, then
//! use it inside beam search and MCTS to autoschedule an unseen benchmark
//! — comparing against search with real (simulated) execution, exactly
//! the BSE / BSM / MCTS triangle of §6.
//!
//! Run with: `cargo run --release --example model_guided_search`

use dlcm::benchsuite;
use dlcm::datagen::{prepare, BuildConfig, DatasetConfig, ParallelDatasetBuilder};
use dlcm::eval::{ModelEvaluator, ParallelEvaluator};
use dlcm::machine::{parallel_baseline, Machine, Measurement};
use dlcm::model::{train, CostModel, CostModelConfig, Featurizer, FeaturizerConfig, TrainConfig};
use dlcm::search::{BeamSearch, Mcts, SearchSpace};

fn main() {
    // --- Train a model on random programs ---------------------------------
    println!("generating training data ...");
    let harness = Measurement::new(Machine);
    let (dataset, _stats) = ParallelDatasetBuilder::new(BuildConfig::new(DatasetConfig {
        num_programs: 64,
        schedules_per_program: 24,
        seed: 3,
        ..DatasetConfig::default()
    }))
    .generate(&harness);
    let split = dataset.split(0);
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let train_set = prepare(&featurizer, &dataset, &split.train);
    let val_set = prepare(&featurizer, &dataset, &split.val);
    let mut model = CostModel::new(CostModelConfig::fast(featurizer.config().vector_width()), 0);
    println!("training ({} samples) ...", train_set.len());
    train(
        &mut model,
        &train_set,
        &val_set,
        &TrainConfig {
            epochs: 18,
            verbose: true,
            ..TrainConfig::default()
        },
    );

    // --- Use it to schedule an unseen benchmark ---------------------------
    let scale = 0.25;
    let space = SearchSpace::default();
    for bench in benchsuite::suite().into_iter().take(4) {
        let program = (bench.build)(scale);
        let baseline = parallel_baseline(&program);
        let t_base = harness
            .measure_schedule(&program, &baseline, 1)
            .expect("legal");
        let measured = |s: &dlcm::ir::Schedule| {
            t_base / harness.measure_schedule(&program, s, 1).expect("legal")
        };

        // BSE: beam search with execution (ground truth, slow).
        let mut exec_ev = ParallelEvaluator::new(harness.clone(), 0, 1);
        let bse = BeamSearch::new(4, space.clone()).search(&program, &mut exec_ev);

        // BSM: beam search with the model (fast).
        let mut model_ev = ModelEvaluator::new(&model, featurizer.clone());
        let bsm = BeamSearch::new(4, space.clone()).search(&program, &mut model_ev);

        // MCTS with the model + top-k execution correction.
        let mut model_ev2 = ModelEvaluator::new(&model, featurizer.clone());
        let mut exec_ev2 = ParallelEvaluator::new(harness.clone(), 0, 1);
        let mcts = Mcts {
            iterations: 80,
            space: space.clone(),
            ..Mcts::default()
        }
        .search(&program, &mut model_ev2, &mut exec_ev2);

        println!("\n=== {} ===", bench.name);
        println!(
            "  BSE : {:>6.2}x   search {:>9.1}s (simulated, {} evals)",
            measured(&bse.schedule),
            bse.stats.search_time,
            bse.stats.num_evals
        );
        println!(
            "  BSM : {:>6.2}x   search {:>9.3}s (model wall-clock), {:.0}x faster",
            measured(&bsm.schedule),
            bsm.stats.search_time,
            bse.stats.search_time / bsm.stats.search_time.max(1e-9)
        );
        println!(
            "  MCTS: {:>6.2}x   search {:>9.1}s (model + top-k execution)",
            measured(&mcts.schedule),
            mcts.stats.search_time
        );
    }
}
