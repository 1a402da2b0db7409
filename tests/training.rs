//! Tier-1 coverage of the training path: a fixed tiny `train_stream` run
//! must end on exactly the weights it ended on when these goldens were
//! captured — for the recursive [`CostModel`] and for one §4.4 ablation
//! architecture, with dropout active, several epochs and the gradient
//! clip engaged — and on the same weights when trained again in the
//! same process; and so must the other trainer, the Halide-style baseline's
//! `HalideModel::train`. "Bit-identical weights" is the contract every
//! change to the tensor substrate (backward pass, kernels, optimizer) is
//! held to.

use std::path::Path;

use dlcm::baseline::{HalideModel, HalideTrainConfig};
use dlcm::datagen::{BuildConfig, DatasetConfig, ParallelDatasetBuilder, ShardBatches};
use dlcm::ir::fingerprint::{fnv1a, to_hex, FNV1A_INIT};
use dlcm::machine::{Machine, Measurement};
use dlcm::model::ablation::FlatLstmModel;
use dlcm::model::{
    train_stream, CostModel, CostModelConfig, Featurizer, FeaturizerConfig, SpeedupPredictor,
    TrainConfig,
};
use dlcm::tensor::nn::ParamStore;

/// Weights of the golden run. Re-pinned by PR 20, when the activations
/// became `dlcm_tensor::math` (within 2 ulp of libm's, so every weight
/// moved a little, once); before that `8c5e0fed3bcecf8e` /
/// `4c7b2e9522807144`, captured on the commit before the backward pass
/// learned to skip gradients nothing reads (PR 16).
const COST_MODEL_GOLDEN: &str = "5466441b9f227731";
const FLAT_LSTM_GOLDEN: &str = "6fd118a30ddc4a8a";
/// Weights `HalideModel::train` ends on, captured on the commit before
/// the optimizer step took its gradients straight from the tape.
const HALIDE_GOLDEN: &str = "2cadfa3e224e460c";

/// FNV-1a over every weight's bit pattern, in registration order.
fn weights_fingerprint(store: &ParamStore) -> String {
    let mut state = FNV1A_INIT;
    for (_, tensor) in store.iter() {
        for v in tensor.as_slice() {
            state = fnv1a(state, &v.to_bits().to_le_bytes());
        }
    }
    to_hex(state)
}

/// Writes the small sharded corpus the runs stream from.
fn write_corpus(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    ParallelDatasetBuilder::new(BuildConfig {
        num_shards: 2,
        ..BuildConfig::new(DatasetConfig {
            num_programs: 6,
            schedules_per_program: 8,
            ..DatasetConfig::tiny(16)
        })
    })
    .write_corpus(&Measurement::exact(Machine), dir)
    .unwrap();
}

fn model_cfg() -> CostModelConfig {
    CostModelConfig {
        input_dim: FeaturizerConfig::default().vector_width(),
        embed_widths: vec![24, 12],
        merge_hidden: 12,
        regress_widths: vec![12],
        dropout: 0.1,
    }
}

/// Three epochs at a peak learning rate high enough that the first
/// steps' MAPE gradients exceed AdamW's global-norm clip (5.0), so the
/// clip branch is part of what the goldens pin.
fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 4,
        max_lr: 5e-3,
        seed: 16,
        ..TrainConfig::default()
    }
}

/// Trains a fresh model twice over the same corpus and returns both
/// weight fingerprints. The two runs pass `ShardBatches::open` a
/// `threads` of 1 and 2, which nothing reads since a batch is
/// featurized inline; the second run is a repeat in the same process.
fn trained_fingerprints<M: SpeedupPredictor>(tag: &str, fresh: impl Fn() -> M) -> [String; 2] {
    let dir = std::env::temp_dir().join(format!("dlcm_training_{tag}"));
    write_corpus(&dir);
    let cfg = train_cfg();
    let fingerprints = [1, 2].map(|threads| {
        let featurizer = Featurizer::new(FeaturizerConfig::default());
        let source = ShardBatches::open(&dir, featurizer, cfg.batch_size, threads).unwrap();
        let mut model = fresh();
        let report = train_stream(&mut model, &source, &[], &cfg);
        assert_eq!(report.epochs.len(), cfg.epochs);
        assert!(report.epochs.iter().all(|e| e.train_mape.is_finite()));
        weights_fingerprint(model.store())
    });
    let _ = std::fs::remove_dir_all(&dir);
    fingerprints
}

#[test]
fn cost_model_trains_to_the_golden_weights_at_any_thread_count() {
    let [one, two] = trained_fingerprints("cost_model", || CostModel::new(model_cfg(), 5));
    assert_eq!(one, COST_MODEL_GOLDEN);
    assert_eq!(two, COST_MODEL_GOLDEN);
}

#[test]
fn flat_lstm_ablation_trains_to_the_golden_weights_at_any_thread_count() {
    let [one, two] = trained_fingerprints("flat_lstm", || FlatLstmModel::new(model_cfg(), 5));
    assert_eq!(one, FLAT_LSTM_GOLDEN);
    assert_eq!(two, FLAT_LSTM_GOLDEN);
}

#[test]
fn halide_baseline_trains_to_the_golden_weights() {
    let dataset = ParallelDatasetBuilder::new(BuildConfig::new(DatasetConfig::tiny(16)))
        .generate(&Measurement::exact(Machine))
        .0;
    let indices: Vec<usize> = (0..dataset.len()).collect();
    let mut model = HalideModel::new(5);
    // Six steps an epoch, 24 in all; two of them over the gradient clip.
    model.train(
        &dataset,
        &indices,
        &HalideTrainConfig {
            epochs: 4,
            batch_size: 8,
            max_lr: 5e-3,
            seed: 16,
        },
    );
    assert_eq!(weights_fingerprint(model.store()), HALIDE_GOLDEN);
}
