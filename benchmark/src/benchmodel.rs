//! The small fixed "bench model" the serve and search workloads score
//! with.
//!
//! It is part of the system under test, not an input: it is trained from
//! fixed seeds whatever `--seed` says, so every run of every seed serves
//! the same weights and a timing difference is never a different model.
//! Training it is charged to `setup_s`, and it reaches the workload the
//! way a deployed model would — saved as a `ModelArtifact` and loaded
//! back.

use std::io;
use std::path::Path;

use dlcm_datagen::{prepare, BuildConfig, DatasetConfig, ParallelDatasetBuilder, ProgramGenConfig};
use dlcm_machine::{Machine, Measurement};

use crate::inputs::Sizes;
use dlcm_model::{
    train, CostModel, CostModelConfig, FeaturizerConfig, HeldOutMetrics, ModelArtifact, TrainConfig,
};

/// Seed of the bench model's corpus.
const CORPUS_SEED: u64 = 0xBE_AC4;

/// The measurement harness every workload labels and executes with: the
/// paper's protocol (30 noisy runs, median) on the default machine.
pub fn harness() -> Measurement {
    Measurement::new(Machine::default())
}

/// Generates the bench corpus, trains the bench model on its training
/// split, saves it under `dir` and returns it as loaded back from disk.
pub fn build(threads: usize, sizes: &Sizes, dir: &Path) -> io::Result<ModelArtifact> {
    let builder = ParallelDatasetBuilder::new(BuildConfig {
        dataset: DatasetConfig {
            num_programs: sizes.bench_model_programs,
            schedules_per_program: 8,
            seed: CORPUS_SEED,
            progen: ProgramGenConfig::wide(),
            ..DatasetConfig::default()
        },
        threads,
        num_shards: 1,
    });
    let (dataset, _stats) = builder.generate(&harness());
    let split = dataset.split(0);
    let feat_cfg = FeaturizerConfig::default();
    let featurizer = dlcm_model::Featurizer::new(feat_cfg);
    let train_set = prepare(&featurizer, &dataset, &split.train);
    let mut model = CostModel::new(CostModelConfig::fast(feat_cfg.vector_width()), 0);
    train(
        &mut model,
        &train_set,
        &[],
        &TrainConfig {
            epochs: sizes.bench_model_epochs,
            ..TrainConfig::default()
        },
    );
    ModelArtifact::new(model, feat_cfg, 0, HeldOutMetrics::default())
        .save(dir)
        .map_err(io::Error::other)?;
    ModelArtifact::load(dir).map_err(io::Error::other)
}
