//! Train the recursive cost model end to end on a freshly generated
//! *sharded* corpus — the §3 pipeline at example scale: parallel
//! program/schedule generation, content-fingerprint dedup, labeling
//! through a shared evaluation cache, JSONL shards + manifest on disk,
//! and minibatches streamed (with on-demand parallel featurization) into
//! the appendix A.1 training loop. Reports the paper's accuracy metrics
//! (§6): MAPE, Pearson correlation, and Spearman's rank correlation.
//!
//! Run with: `cargo run --release --example train_cost_model [programs] [epochs] [threads]`

use dlcm::datagen::{
    open_split, BuildConfig, DatasetConfig, ParallelDatasetBuilder, ProgramGenConfig,
    ShardedDataset,
};
use dlcm::machine::{Machine, Measurement};
use dlcm::model::{
    train_stream, BatchSource, CostModel, CostModelConfig, Featurizer, FeaturizerConfig,
    HeldOutMetrics, TrainConfig,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let num_programs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(96);
    let epochs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(25);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    // --- §3: sharded corpus generation ------------------------------------
    println!("generating {num_programs} random programs x 32 schedules ({threads} workers) ...");
    let builder = ParallelDatasetBuilder::new(BuildConfig {
        threads,
        num_shards: 4,
        ..BuildConfig::new(DatasetConfig {
            num_programs,
            schedules_per_program: 32,
            seed: 7,
            progen: ProgramGenConfig::wide(), // all six scenario families
            ..DatasetConfig::default()
        })
    });
    let corpus = std::env::temp_dir().join("dlcm_example_corpus");
    let harness = Measurement::new(Machine);
    let (manifest, stats) = builder
        .write_corpus(&harness, &corpus)
        .expect("write corpus");
    println!(
        "corpus: {} points in {} shards ({} duplicates dropped, {} equivalent schedules from cache)",
        manifest.total_points,
        manifest.shards.len(),
        stats.duplicates_dropped,
        stats.eval.cache_hits
    );

    // --- split + streamed featurization -----------------------------------
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let cfg = TrainConfig {
        epochs,
        verbose: true,
        ..TrainConfig::default()
    };
    let sharded = ShardedDataset::open(&corpus).expect("open corpus");
    let data = open_split(&sharded, &featurizer, cfg.batch_size).expect("stream corpus");
    println!(
        "dataset: {} points (train {} / val {} / test {})",
        data.dataset.len(),
        data.split.train.len(),
        data.split.val.len(),
        data.split.test.len()
    );

    // --- §4 + A.1: model, trained on streamed minibatches -----------------
    let model_cfg = CostModelConfig::fast(featurizer.config().vector_width());
    let mut model = CostModel::new(model_cfg, 0);
    println!(
        "model: {} parameters; streaming {} minibatches/epoch",
        model.num_params(),
        data.train.num_batches()
    );
    let report = train_stream(&mut model, &data.train, &data.val_set, &cfg);
    println!("final validation MAPE: {:.3}", report.final_val_mape);

    // --- §6: test metrics ----------------------------------------------------
    let (held_out, _preds) = HeldOutMetrics::evaluate(&model, &data.test_set);
    println!("--- test set ---");
    println!(
        "MAPE              : {:.1}%   (paper: 16%)",
        100.0 * held_out.mape
    );
    println!(
        "Pearson r         : {:.3}   (paper: 0.90)",
        held_out.pearson
    );
    println!(
        "Spearman rho      : {:.3}   (paper: 0.95)",
        held_out.spearman
    );
    println!(
        "R^2               : {:.3}   (paper: 0.89 with MSE loss)",
        held_out.r2
    );
    let _ = std::fs::remove_dir_all(&corpus);
}
