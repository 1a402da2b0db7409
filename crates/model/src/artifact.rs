//! Versioned on-disk model artifacts.
//!
//! The paper's cost model is trained once and then queried millions of
//! times by autoschedulers; this module makes the trained model a
//! first-class, persistable artifact instead of an incidental in-process
//! object. A [`ModelArtifact`] bundles everything a consumer needs to
//! answer queries *exactly* like the training process did:
//!
//! - the trained [`CostModel`] weights;
//! - its [`CostModelConfig`] architecture;
//! - the [`FeaturizerConfig`] featurizer schema (the encoding is part of
//!   the model contract — a model queried through a different schema
//!   silently returns garbage);
//! - the content fingerprint of the training corpus (see
//!   `dlcm_datagen::ShardManifest::content_fingerprint`), tracing the
//!   weights to the exact shard set that produced them;
//! - the held-out [`HeldOutMetrics`] recorded at training time, so a
//!   loaded artifact can be re-validated against its own manifest.
//!
//! # On-disk format (version 2)
//!
//! An artifact is a directory of two files:
//!
//! ```text
//! artifact/
//! ├── manifest.json   ArtifactManifest (pretty-printed JSON, versioned)
//! └── weights.bin     every weight's f32 bits, little-endian
//! ```
//!
//! `weights.bin` has no header: it is the model's parameters in
//! `ParamStore` registration order (the order [`CostModel::new`]
//! registers them for `manifest.model_config`), each tensor's elements
//! row-major, four bytes each — 4 × [`CostModel::num_params`] bytes.
//! The manifest's `model_config` is the schema that gives those bytes
//! their shapes: a loader checks the file's length against it
//! ([`CostModelConfig::num_params`]) before it builds the model.
//!
//! Following the corpus shard-format convention, every 64-bit
//! fingerprint is stored as a 16-hex-digit *string*
//! ([`dlcm_ir::fingerprint::to_hex`]) — JSON numbers are doubles and
//! would silently lose precision above 2^53. `manifest.json` records a
//! byte-level FNV-1a fingerprint of `weights.bin`, so corruption is
//! detected at load time rather than as wrong predictions later.
//!
//! The weights are their own bits, so **save → load → save is
//! byte-identical** and a loaded model's predictions are bit-identical
//! to the in-memory model that was saved. A NaN or infinite weight is
//! refused on save and on load. Loads fail with a typed
//! [`ArtifactError`] on any format version but this one (version 1
//! stored the weights as JSON in `weights.json`; it is not read —
//! retrain with `modelctl train`), corrupt weights, a weights file whose
//! length disagrees with the manifest's schema, or a non-finite weight.
//!
//! # Examples
//!
//! ```
//! use dlcm_model::{
//!     CostModel, CostModelConfig, FeaturizerConfig, HeldOutMetrics, ModelArtifact,
//! };
//!
//! let feat_cfg = FeaturizerConfig::default();
//! let model = CostModel::new(CostModelConfig::fast(feat_cfg.vector_width()), 0);
//! let artifact = ModelArtifact::new(model, feat_cfg, 0xabcd, HeldOutMetrics::default());
//!
//! let dir = std::env::temp_dir().join("dlcm_artifact_doc");
//! artifact.save(&dir).unwrap();
//! let back = ModelArtifact::load(&dir).unwrap();
//! assert_eq!(back.manifest(), artifact.manifest());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use dlcm_ir::fingerprint::{fnv1a, parse_hex, to_hex, FNV1A_INIT};
use dlcm_tensor::nn::ParamStore;
use dlcm_tensor::ParamId;
use serde::{Deserialize, Serialize};

use crate::costmodel::{CostModel, CostModelConfig, SpeedupPredictor};
use crate::featurize::{Featurizer, FeaturizerConfig};
use crate::metrics;
use crate::train::{evaluate, LabeledFeatures, TrainConfig};

/// Version tag written into every artifact manifest; bump on any change
/// to the manifest or weights layout.
pub const ARTIFACT_FORMAT_VERSION: u32 = 2;

/// File name of the manifest inside an artifact directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// File name of the weights inside an artifact directory.
pub const WEIGHTS_FILE: &str = "weights.bin";

/// Held-out evaluation metrics recorded when the artifact was saved
/// (the §6 headline quantities). Evaluation is deterministic, so a
/// loaded artifact re-evaluated on the same split must reproduce these
/// exactly — `modelctl eval` enforces that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HeldOutMetrics {
    /// Mean absolute percentage error on the held-out test set.
    pub mape: f64,
    /// Pearson correlation between predictions and measured speedups.
    pub pearson: f64,
    /// Spearman rank correlation.
    pub spearman: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// Number of held-out points the metrics were computed on.
    pub test_points: usize,
}

impl HeldOutMetrics {
    /// §6's four held-out numbers of `preds` against the measured
    /// `targets`, over `targets.len()` points.
    pub fn from_predictions(targets: &[f64], preds: &[f64]) -> HeldOutMetrics {
        HeldOutMetrics {
            mape: metrics::mape(targets, preds),
            pearson: metrics::pearson(targets, preds),
            spearman: metrics::spearman(targets, preds),
            r2: metrics::r2(targets, preds),
            test_points: targets.len(),
        }
    }

    /// Scores `model` on a featurized held-out set: the metrics an
    /// artifact records, plus the predictions they were computed from
    /// (in `test_set` order).
    pub fn evaluate<M: SpeedupPredictor>(
        model: &M,
        test_set: &[LabeledFeatures],
    ) -> (HeldOutMetrics, Vec<f64>) {
        let (_, preds) = evaluate(model, test_set);
        let targets: Vec<f64> = test_set.iter().map(|s| s.target).collect();
        (Self::from_predictions(&targets, &preds), preds)
    }
}

/// `manifest.json`: everything needed to validate and use an artifact
/// without deserializing the weights first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactManifest {
    /// [`ARTIFACT_FORMAT_VERSION`] at save time.
    pub version: u32,
    /// Architecture of the serialized model; must match the weights.
    pub model_config: CostModelConfig,
    /// Featurizer schema the model was trained with. Queries encoded
    /// under any other schema are meaningless, so consumers must build
    /// their featurizer from this config (see
    /// [`ModelArtifact::featurizer`]).
    pub featurizer: FeaturizerConfig,
    /// Content fingerprint of the training corpus, in hex
    /// (`dlcm_datagen::ShardManifest::content_fingerprint`) — ties the
    /// weights to the exact shard set that trained them.
    pub corpus_fingerprint: String,
    /// Held-out metrics recorded at training time.
    pub metrics: HeldOutMetrics,
    /// The training hyper-parameters that produced the weights (seed
    /// included), when the producer recorded them — together with
    /// [`ArtifactManifest::corpus_fingerprint`] this makes a training
    /// run reproducible from the manifest alone.
    pub train: Option<TrainConfig>,
    /// Byte-level FNV-1a fingerprint of `weights.bin`, in hex; checked
    /// on load so corrupt or truncated weights are rejected up front.
    pub weights_fingerprint: String,
}

/// Typed failure modes of [`ModelArtifact::load`] / [`ModelArtifact::save`].
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure (missing directory, unreadable file, …).
    Io(io::Error),
    /// A file exists but does not parse as what it should be.
    Parse {
        /// Which artifact file failed to parse.
        file: &'static str,
        /// The underlying parse error.
        detail: String,
    },
    /// The manifest was written by an unknown format version.
    UnsupportedVersion {
        /// Version found in the manifest.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The weights bytes do not match the manifest's fingerprint.
    CorruptWeights {
        /// Fingerprint recorded in the manifest (hex).
        expected: String,
        /// Fingerprint of the bytes actually on disk (hex).
        found: String,
    },
    /// Manifest and weights disagree about the model schema.
    SchemaMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A weight is NaN or infinite: refused on save, and on load.
    NonFiniteWeight {
        /// Name the parameter was registered under (`embed.0.w`, …).
        param: String,
        /// Row-major index of the first non-finite element.
        index: usize,
        /// The element.
        value: f32,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact IO error: {e}"),
            ArtifactError::Parse { file, detail } => {
                write!(f, "artifact file {file} does not parse: {detail}")
            }
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported artifact format version {found} (this build reads {supported})"
            ),
            ArtifactError::CorruptWeights { expected, found } => write!(
                f,
                "weights fingerprint mismatch: manifest says {expected}, file hashes to {found} \
                 (corrupt or tampered {WEIGHTS_FILE})"
            ),
            ArtifactError::SchemaMismatch { detail } => {
                write!(f, "artifact schema mismatch: {detail}")
            }
            ArtifactError::NonFiniteWeight {
                param,
                index,
                value,
            } => write!(f, "weight {index} of parameter {param} is {value}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// A trained model plus the manifest that makes it reusable: the unit
/// the serving tier (`dlcm-serve`) and `modelctl`'s `--artifact` flags
/// load instead of retraining.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    manifest: ArtifactManifest,
    model: CostModel,
}

impl ModelArtifact {
    /// Packages a trained model with its provenance. The manifest is
    /// derived from the model itself (config, weights fingerprint), so
    /// it cannot start out inconsistent.
    pub fn new(
        model: CostModel,
        featurizer: FeaturizerConfig,
        corpus_fingerprint: u64,
        metrics: HeldOutMetrics,
    ) -> Self {
        let manifest = ArtifactManifest {
            version: ARTIFACT_FORMAT_VERSION,
            model_config: model.config().clone(),
            featurizer,
            corpus_fingerprint: to_hex(corpus_fingerprint),
            metrics,
            train: None,
            weights_fingerprint: to_hex(weights_fingerprint(model.store())),
        };
        Self { manifest, model }
    }

    /// Records the training hyper-parameters in the manifest.
    #[must_use]
    pub fn with_train_config(mut self, train: TrainConfig) -> Self {
        self.manifest.train = Some(train);
        self
    }

    /// The manifest (schema, provenance, held-out metrics).
    pub fn manifest(&self) -> &ArtifactManifest {
        &self.manifest
    }

    /// The trained model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Consumes the artifact, returning the trained model.
    pub fn into_model(self) -> CostModel {
        self.model
    }

    /// A clone of the trained model to warm-start incremental
    /// retraining from: pass it to [`crate::train_stream`] instead of a
    /// freshly seeded [`CostModel`] and training continues from this
    /// artifact's weights. Byte-determinism carries over — the same
    /// artifact, data, and [`TrainConfig`] reproduce the same retrained
    /// weights.
    pub fn warm_start(&self) -> CostModel {
        self.model.clone()
    }

    /// The featurizer every query against this model must be encoded
    /// with, built from the manifest's schema.
    pub fn featurizer(&self) -> Featurizer {
        Featurizer::new(self.manifest.featurizer)
    }

    /// The training-corpus content fingerprint, parsed back to a `u64`.
    pub fn corpus_fingerprint(&self) -> Option<u64> {
        parse_hex(&self.manifest.corpus_fingerprint)
    }

    /// The weights fingerprint, parsed back to a `u64`: the artifact's
    /// identity for cache keying and hot-swap reporting. Distinct weights
    /// have distinct fingerprints (byte-level FNV-1a of `weights.bin`),
    /// and the value survives a save/load round trip unchanged.
    pub fn weights_fingerprint(&self) -> u64 {
        // The manifest field is written by `to_hex` at construction, so
        // it always parses; 0 would only appear for a hand-edited
        // manifest that `load` has already rejected as corrupt.
        parse_hex(&self.manifest.weights_fingerprint).unwrap_or(0)
    }

    /// Path of the manifest inside an artifact directory.
    pub fn manifest_path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Path of the weights inside an artifact directory.
    pub fn weights_path(dir: &Path) -> PathBuf {
        dir.join(WEIGHTS_FILE)
    }

    /// Writes `manifest.json` + `weights.bin` into `dir` (created if
    /// missing). Saving a loaded artifact reproduces the files byte for
    /// byte.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::NonFiniteWeight`] (nothing is written) when a
    /// weight is NaN or infinite; filesystem failures as
    /// [`ArtifactError::Io`].
    pub fn save(&self, dir: &Path) -> Result<(), ArtifactError> {
        let store = self.model.store();
        check_finite(store)?;
        let mut weights = Vec::with_capacity(store.num_scalars() * size_of::<f32>());
        for (_, t) in store.iter() {
            weights.extend(t.as_slice().iter().flat_map(|x| x.to_le_bytes()));
        }
        std::fs::create_dir_all(dir)?;
        std::fs::write(Self::weights_path(dir), weights)?;
        let manifest =
            serde_json::to_string_pretty(&self.manifest).expect("manifest serialization");
        std::fs::write(Self::manifest_path(dir), manifest.as_bytes())?;
        Ok(())
    }

    /// Loads and validates an artifact directory: rejects any format
    /// version but [`ARTIFACT_FORMAT_VERSION`], weights whose bytes
    /// disagree with the manifest fingerprint, a featurizer schema that
    /// cannot feed the model, a weights file whose length is not the
    /// manifest's model's, and non-finite weights.
    ///
    /// # Errors
    ///
    /// Every failure mode maps to a distinct [`ArtifactError`] variant;
    /// see the type docs.
    pub fn load(dir: &Path) -> Result<Self, ArtifactError> {
        let manifest_raw = std::fs::read_to_string(Self::manifest_path(dir))?;
        let manifest: ArtifactManifest =
            serde_json::from_str(&manifest_raw).map_err(|e| ArtifactError::Parse {
                file: MANIFEST_FILE,
                detail: e.to_string(),
            })?;
        if manifest.version != ARTIFACT_FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: manifest.version,
                supported: ARTIFACT_FORMAT_VERSION,
            });
        }

        let weights = std::fs::read(Self::weights_path(dir))?;
        let found = to_hex(fnv1a(FNV1A_INIT, &weights));
        if found != manifest.weights_fingerprint {
            return Err(ArtifactError::CorruptWeights {
                expected: manifest.weights_fingerprint.clone(),
                found,
            });
        }
        let config = &manifest.model_config;
        if manifest.featurizer.vector_width() != config.input_dim {
            return Err(ArtifactError::SchemaMismatch {
                detail: format!(
                    "featurizer schema produces width {} but the model expects input_dim {}",
                    manifest.featurizer.vector_width(),
                    config.input_dim
                ),
            });
        }
        // Checked before a model is allocated for a schema read from disk.
        let expected = config
            .num_params()
            .and_then(|n| n.checked_mul(size_of::<f32>()));
        if expected != Some(weights.len()) {
            return Err(ArtifactError::SchemaMismatch {
                detail: format!(
                    "{WEIGHTS_FILE} holds {} bytes, but manifest model_config {config:?} needs {}",
                    weights.len(),
                    expected.map_or("more than can be addressed".to_string(), |n| {
                        format!("{n} bytes")
                    })
                ),
            });
        }
        // The initial weights are overwritten below; the seed is moot.
        let mut model = CostModel::new(config.clone(), 0);
        let mut bytes = weights.chunks_exact(size_of::<f32>());
        let store = model.store_mut();
        for i in 0..store.len() {
            for (x, b) in store
                .get_mut(ParamId(i))
                .as_mut_slice()
                .iter_mut()
                .zip(&mut bytes)
            {
                *x = f32::from_le_bytes(b.try_into().expect("four-byte chunks"));
            }
        }
        check_finite(model.store())?;
        Ok(Self { manifest, model })
    }
}

/// FNV-1a over the bytes [`ModelArtifact::save`] writes to `weights.bin`,
/// hashed as they are produced rather than from a copy.
fn weights_fingerprint(store: &ParamStore) -> u64 {
    store
        .iter()
        .flat_map(|(_, t)| t.as_slice())
        .fold(FNV1A_INIT, |h, x| fnv1a(h, &x.to_le_bytes()))
}

/// The first NaN or infinite weight, as an error naming its parameter.
fn check_finite(store: &ParamStore) -> Result<(), ArtifactError> {
    for (id, t) in store.iter() {
        if let Some((index, &value)) = t
            .as_slice()
            .iter()
            .enumerate()
            .find(|(_, x)| !x.is_finite())
        {
            return Err(ArtifactError::NonFiniteWeight {
                param: store.name(id).to_string(),
                index,
                value,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::FeaturizerConfig;
    use crate::SpeedupPredictor;
    use dlcm_ir::{Expr, ProgramBuilder, Schedule};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dlcm_artifact_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_artifact() -> ModelArtifact {
        let feat_cfg = FeaturizerConfig::default();
        let model = CostModel::new(
            CostModelConfig {
                input_dim: feat_cfg.vector_width(),
                embed_widths: vec![24, 12],
                merge_hidden: 12,
                regress_widths: vec![12],
                dropout: 0.0,
            },
            5,
        );
        ModelArtifact::new(
            model,
            feat_cfg,
            0xDEAD_BEEF_CAFE_F00D,
            HeldOutMetrics {
                mape: 0.21,
                pearson: 0.88,
                spearman: 0.91,
                r2: 0.8,
                test_points: 64,
            },
        )
    }

    fn probe_features() -> crate::ProgramFeatures {
        let mut b = ProgramBuilder::new("p");
        let i = b.iter("i", 0, 32);
        let inp = b.input("in", &[32]);
        let out = b.buffer("out", &[32]);
        let acc = b.access(inp, &[i.into()], &[i]);
        b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
        let p = b.build().unwrap();
        Featurizer::new(FeaturizerConfig::default()).featurize(&p, &Schedule::empty())
    }

    #[test]
    fn roundtrip_predictions_are_bit_identical() {
        let dir = tmpdir("roundtrip");
        let artifact = tiny_artifact();
        let feats = probe_features();
        let before = artifact.model().predict(&feats);
        artifact.save(&dir).unwrap();
        let back = ModelArtifact::load(&dir).unwrap();
        assert_eq!(
            before,
            back.model().predict(&feats),
            "loaded predictions must match the saved model bit for bit"
        );
        assert_eq!(back.manifest(), artifact.manifest());
        assert_eq!(back.corpus_fingerprint(), Some(0xDEAD_BEEF_CAFE_F00D));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resave_is_byte_identical() {
        let dir_a = tmpdir("resave_a");
        let dir_b = tmpdir("resave_b");
        let artifact = tiny_artifact();
        artifact.save(&dir_a).unwrap();
        let back = ModelArtifact::load(&dir_a).unwrap();
        back.save(&dir_b).unwrap();
        for file in [MANIFEST_FILE, WEIGHTS_FILE] {
            let a = std::fs::read(dir_a.join(file)).unwrap();
            let b = std::fs::read(dir_b.join(file)).unwrap();
            assert_eq!(a, b, "{file} must re-save byte-identically");
        }
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    /// Replaces `weights.bin` with `bytes` and, when `refingerprint`,
    /// records their fingerprint in the manifest so the file passes the
    /// corruption check and reaches the schema checks behind it.
    fn rewrite_weights(dir: &Path, artifact: &ModelArtifact, bytes: &[u8], refingerprint: bool) {
        std::fs::write(ModelArtifact::weights_path(dir), bytes).unwrap();
        if refingerprint {
            let mut manifest = artifact.manifest().clone();
            manifest.weights_fingerprint = to_hex(fnv1a(FNV1A_INIT, bytes));
            std::fs::write(
                ModelArtifact::manifest_path(dir),
                serde_json::to_string_pretty(&manifest).unwrap(),
            )
            .unwrap();
        }
    }

    #[test]
    fn weights_file_is_every_weight_little_endian_in_registration_order() {
        let dir = tmpdir("layout");
        let artifact = tiny_artifact();
        artifact.save(&dir).unwrap();
        let bytes = std::fs::read(ModelArtifact::weights_path(&dir)).unwrap();
        let store = artifact.model().store();
        let want: Vec<u8> = store
            .iter()
            .flat_map(|(_, t)| t.as_slice().iter().flat_map(|x| x.to_le_bytes()))
            .collect();
        assert_eq!(bytes.len(), 4 * artifact.model().num_params());
        assert_eq!(bytes, want);
        assert_eq!(
            artifact.weights_fingerprint(),
            fnv1a(FNV1A_INIT, &bytes),
            "the fingerprint `new` hashes is the file's"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_and_over_long_weights_are_rejected() {
        let dir = tmpdir("length");
        let artifact = tiny_artifact();
        artifact.save(&dir).unwrap();
        let bytes = std::fs::read(ModelArtifact::weights_path(&dir)).unwrap();
        let truncated = &bytes[..bytes.len() - 4];
        let mut over_long = bytes.clone();
        over_long.extend_from_slice(&1.0f32.to_le_bytes());
        let mut odd = bytes.clone();
        odd.push(0);

        // Against the manifest's fingerprint, any other length is corrupt.
        rewrite_weights(&dir, &artifact, truncated, false);
        assert!(matches!(
            ModelArtifact::load(&dir),
            Err(ArtifactError::CorruptWeights { .. })
        ));
        // Fingerprinted, it is still not the schema's length.
        for wrong in [truncated, &over_long, &odd] {
            rewrite_weights(&dir, &artifact, wrong, true);
            match ModelArtifact::load(&dir) {
                Err(ArtifactError::SchemaMismatch { detail }) => {
                    assert!(detail.contains(&format!("holds {} bytes", wrong.len())));
                }
                other => panic!("expected SchemaMismatch, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_version_1_directory_is_unsupported() {
        // Version 1 kept the weights as JSON in `weights.json`.
        let dir = tmpdir("v1");
        let artifact = tiny_artifact();
        let mut manifest = artifact.manifest().clone();
        manifest.version = 1;
        std::fs::write(
            ModelArtifact::manifest_path(&dir),
            serde_json::to_string_pretty(&manifest).unwrap(),
        )
        .unwrap();
        std::fs::write(dir.join("weights.json"), "{}").unwrap();
        match ModelArtifact::load(&dir) {
            Err(ArtifactError::UnsupportedVersion { found, supported }) => {
                assert_eq!((found, supported), (1, ARTIFACT_FORMAT_VERSION));
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_non_finite_weight_is_not_saved() {
        let dir = std::env::temp_dir().join(format!("dlcm_artifact_nan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut model = tiny_artifact().into_model();
        let id = dlcm_tensor::ParamId(2);
        model.store_mut().get_mut(id).set(0, 3, f32::NAN);
        let name = model.store().name(id).to_string();
        let artifact =
            ModelArtifact::new(model, FeaturizerConfig::default(), 0, Default::default());
        match artifact.save(&dir) {
            Err(ArtifactError::NonFiniteWeight {
                param,
                index,
                value,
            }) => {
                assert_eq!((param, index), (name, 3));
                assert!(value.is_nan());
            }
            other => panic!("expected NonFiniteWeight, got {other:?}"),
        }
        assert!(!dir.exists(), "nothing is written");
    }

    #[test]
    fn a_non_finite_weight_is_not_loaded() {
        let dir = tmpdir("inf");
        let artifact = tiny_artifact();
        artifact.save(&dir).unwrap();
        let mut bytes = std::fs::read(ModelArtifact::weights_path(&dir)).unwrap();
        // The first weight of the second parameter.
        let at = 4 * artifact.model().store().get(dlcm_tensor::ParamId(0)).len();
        bytes[at..at + 4].copy_from_slice(&f32::NEG_INFINITY.to_le_bytes());
        rewrite_weights(&dir, &artifact, &bytes, true);
        match ModelArtifact::load(&dir) {
            Err(ArtifactError::NonFiniteWeight {
                param,
                index,
                value,
            }) => {
                let name = artifact.model().store().name(dlcm_tensor::ParamId(1));
                assert_eq!((param.as_str(), index), (name, 0));
                assert_eq!(value, f32::NEG_INFINITY);
            }
            other => panic!("expected NonFiniteWeight, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_weights_are_rejected() {
        let dir = tmpdir("corrupt");
        tiny_artifact().save(&dir).unwrap();
        // Flip one byte in the middle of the weights file.
        let path = ModelArtifact::weights_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'1' { b'2' } else { b'1' };
        std::fs::write(&path, bytes).unwrap();
        match ModelArtifact::load(&dir) {
            Err(ArtifactError::CorruptWeights { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected CorruptWeights, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_skew_is_rejected() {
        let dir = tmpdir("version");
        let artifact = tiny_artifact();
        artifact.save(&dir).unwrap();
        let mut manifest = artifact.manifest().clone();
        manifest.version = ARTIFACT_FORMAT_VERSION + 1;
        std::fs::write(
            ModelArtifact::manifest_path(&dir),
            serde_json::to_string_pretty(&manifest).unwrap(),
        )
        .unwrap();
        match ModelArtifact::load(&dir) {
            Err(ArtifactError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, ARTIFACT_FORMAT_VERSION + 1);
                assert_eq!(supported, ARTIFACT_FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        // Manifest claims a different architecture than the weights hold.
        let dir = tmpdir("schema");
        let artifact = tiny_artifact();
        artifact.save(&dir).unwrap();
        let mut manifest = artifact.manifest().clone();
        manifest.model_config.merge_hidden += 1;
        std::fs::write(
            ModelArtifact::manifest_path(&dir),
            serde_json::to_string_pretty(&manifest).unwrap(),
        )
        .unwrap();
        match ModelArtifact::load(&dir) {
            Err(ArtifactError::SchemaMismatch { detail }) => {
                assert!(
                    detail.contains("model_config"),
                    "unexpected detail: {detail}"
                );
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }

        // Manifest whose featurizer schema cannot feed the model.
        let mut manifest = artifact.manifest().clone();
        manifest.featurizer.max_accesses += 1;
        std::fs::write(
            ModelArtifact::manifest_path(&dir),
            serde_json::to_string_pretty(&manifest).unwrap(),
        )
        .unwrap();
        match ModelArtifact::load(&dir) {
            Err(ArtifactError::SchemaMismatch { detail }) => {
                assert!(detail.contains("input_dim"), "unexpected detail: {detail}");
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_files_are_parse_errors_not_panics() {
        let dir = tmpdir("garbage");
        tiny_artifact().save(&dir).unwrap();
        std::fs::write(ModelArtifact::manifest_path(&dir), "{not json").unwrap();
        assert!(matches!(
            ModelArtifact::load(&dir),
            Err(ArtifactError::Parse {
                file: MANIFEST_FILE,
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_io() {
        let dir = std::env::temp_dir().join("dlcm_artifact_definitely_missing");
        assert!(matches!(
            ModelArtifact::load(&dir),
            Err(ArtifactError::Io(_))
        ));
    }
}
