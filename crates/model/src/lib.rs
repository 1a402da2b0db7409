//! # dlcm-model
//!
//! The primary contribution of the reproduced paper, *"A Deep Learning
//! Based Cost Model for Automatic Code Optimization"* (MLSys 2021): a
//! deep regression model that takes an unoptimized program plus a
//! sequence of code transformations and predicts the resulting speedup.
//!
//! - [`Featurizer`] encodes `(program, schedule)` into the paper's
//!   computation vectors and program tree (§4.1–4.2, Table 1, Figure 1);
//! - [`CostModel`] is the three-layer architecture of §4.4 / Figure 2:
//!   computation-embedding MLP → recursive loop embedding (two LSTMs + a
//!   merge layer per loop level) → regression head;
//! - [`train`] / [`train_stream`] implement appendix A.1: MAPE loss,
//!   AdamW (wd 0.0075), One-Cycle LR (max 1e-3), structure-grouped
//!   batches of 32 — pulled from any [`BatchSource`], so shard-backed
//!   corpora stream minibatches instead of materializing one `Vec`;
//! - [`ablation`] holds the §4.4 alternatives (flat LSTM, concat FFN);
//! - [`metrics`] computes MAPE, Pearson, Spearman, and R² (§6);
//! - [`ModelArtifact`] persists a trained model as a versioned on-disk
//!   artifact (weights + config + featurizer schema + corpus
//!   fingerprint + held-out metrics), so autoschedulers and the serving
//!   tier reuse one training run instead of retraining per process.
//!
//! # Examples
//!
//! Train a small model on a generated dataset and evaluate it:
//!
//! ```no_run
//! use dlcm_datagen::{prepare, BuildConfig, DatasetConfig, ParallelDatasetBuilder};
//! use dlcm_machine::{Machine, Measurement};
//! use dlcm_model::{
//!     evaluate, train, CostModel, CostModelConfig, Featurizer, FeaturizerConfig, TrainConfig,
//! };
//!
//! let (dataset, _stats) = ParallelDatasetBuilder::new(BuildConfig::new(DatasetConfig::tiny(0)))
//!     .generate(&Measurement::exact(Machine));
//! let split = dataset.split(0);
//! let featurizer = Featurizer::new(FeaturizerConfig::default());
//! let train_set = prepare(&featurizer, &dataset, &split.train);
//! let test_set = prepare(&featurizer, &dataset, &split.test);
//!
//! let cfg = CostModelConfig::fast(featurizer.config().vector_width());
//! let mut model = CostModel::new(cfg, 0);
//! train(&mut model, &train_set, &test_set, &TrainConfig::default());
//! let (mape, _preds) = evaluate(&model, &test_set);
//! println!("test MAPE: {mape:.3}");
//! ```

#![warn(missing_docs)]

pub mod ablation;
mod artifact;
mod costmodel;
mod featurize;
pub mod metrics;
mod soa;
mod train;

pub use artifact::{
    ArtifactError, ArtifactManifest, HeldOutMetrics, ModelArtifact, ARTIFACT_FORMAT_VERSION,
    MANIFEST_FILE, WEIGHTS_FILE,
};
pub use costmodel::{infer_scores, train_rng, CostModel, CostModelConfig, SpeedupPredictor};
pub use featurize::{
    FeatNode, FeatureBase, Featurizer, FeaturizerConfig, ProgramFeatures, LOOP_FEATS,
};
pub use train::{
    evaluate, featurize_samples, group_into_batches, train, train_stream, BatchSource, EpochStats,
    LabeledFeatures, SampleRef, TrainConfig, TrainReport,
};

// Trained model state is shared (by reference) across evaluation worker
// threads; keep that guaranteed at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CostModel>();
    assert_send_sync::<Featurizer>();
    assert_send_sync::<ProgramFeatures>();
};
