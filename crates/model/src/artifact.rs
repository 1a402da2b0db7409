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
//! # On-disk format (version 1)
//!
//! An artifact is a directory of two JSON files:
//!
//! ```text
//! artifact/
//! ├── manifest.json   ArtifactManifest (pretty-printed, versioned)
//! └── weights.json    the CostModel, serialized compactly
//! ```
//!
//! Following the corpus shard-format convention, every 64-bit
//! fingerprint is stored as a 16-hex-digit *string*
//! ([`dlcm_ir::fingerprint::to_hex`]) — JSON numbers are doubles and
//! would silently lose precision above 2^53. `manifest.json` records a
//! byte-level FNV-1a fingerprint of `weights.json`, so corruption is
//! detected at load time rather than as wrong predictions later.
//!
//! Serialization is deterministic (fixed field order, shortest
//! round-trip float rendering), so **save → load → save is
//! byte-identical**, and a loaded model's predictions are bit-identical
//! to the in-memory model that was saved. Loads fail with a typed
//! [`ArtifactError`] on unknown format versions, corrupt weights, or a
//! manifest whose schema disagrees with the weights.
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
use serde::{Deserialize, Serialize};

use crate::costmodel::{CostModel, CostModelConfig, SpeedupPredictor};
use crate::featurize::{Featurizer, FeaturizerConfig};
use crate::metrics;
use crate::train::{evaluate, LabeledFeatures, TrainConfig};

/// Version tag written into every artifact manifest; bump on any change
/// to the manifest or weights layout.
pub const ARTIFACT_FORMAT_VERSION: u32 = 1;

/// File name of the manifest inside an artifact directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// File name of the serialized weights inside an artifact directory.
pub const WEIGHTS_FILE: &str = "weights.json";

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
    /// Scores `model` on a featurized held-out set: the metrics an
    /// artifact records, plus the predictions they were computed from
    /// (in `test_set` order).
    pub fn evaluate<M: SpeedupPredictor>(
        model: &M,
        test_set: &[LabeledFeatures],
    ) -> (HeldOutMetrics, Vec<f64>) {
        let (mape, preds) = evaluate(model, test_set);
        let targets: Vec<f64> = test_set.iter().map(|s| s.target).collect();
        let held_out = HeldOutMetrics {
            mape,
            pearson: metrics::pearson(&targets, &preds),
            spearman: metrics::spearman(&targets, &preds),
            r2: metrics::r2(&targets, &preds),
            test_points: test_set.len(),
        };
        (held_out, preds)
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
    /// Byte-level FNV-1a fingerprint of `weights.json`, in hex; checked
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
                 (corrupt or tampered weights.json)"
            ),
            ArtifactError::SchemaMismatch { detail } => {
                write!(f, "artifact schema mismatch: {detail}")
            }
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
        let weights = serialize_weights(&model);
        let manifest = ArtifactManifest {
            version: ARTIFACT_FORMAT_VERSION,
            model_config: model.config().clone(),
            featurizer,
            corpus_fingerprint: to_hex(corpus_fingerprint),
            metrics,
            train: None,
            weights_fingerprint: to_hex(fnv1a(FNV1A_INIT, weights.as_bytes())),
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
    /// have distinct fingerprints (byte-level FNV-1a of `weights.json`),
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

    /// Writes `manifest.json` + `weights.json` into `dir` (created if
    /// missing). Serialization is deterministic: saving a loaded
    /// artifact reproduces the files byte for byte.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures as [`ArtifactError::Io`].
    pub fn save(&self, dir: &Path) -> Result<(), ArtifactError> {
        std::fs::create_dir_all(dir)?;
        let weights = serialize_weights(&self.model);
        std::fs::write(Self::weights_path(dir), weights.as_bytes())?;
        let manifest =
            serde_json::to_string_pretty(&self.manifest).expect("manifest serialization");
        std::fs::write(Self::manifest_path(dir), manifest.as_bytes())?;
        Ok(())
    }

    /// Loads and validates an artifact directory: rejects unknown format
    /// versions, weights whose bytes disagree with the manifest
    /// fingerprint, and manifests whose schema disagrees with the
    /// deserialized model.
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

        let weights_raw = std::fs::read_to_string(Self::weights_path(dir))?;
        let found = to_hex(fnv1a(FNV1A_INIT, weights_raw.as_bytes()));
        if found != manifest.weights_fingerprint {
            return Err(ArtifactError::CorruptWeights {
                expected: manifest.weights_fingerprint.clone(),
                found,
            });
        }
        let model: CostModel =
            serde_json::from_str(&weights_raw).map_err(|e| ArtifactError::Parse {
                file: WEIGHTS_FILE,
                detail: e.to_string(),
            })?;

        if model.config() != &manifest.model_config {
            return Err(ArtifactError::SchemaMismatch {
                detail: format!(
                    "manifest model_config {:?} != weights config {:?}",
                    manifest.model_config,
                    model.config()
                ),
            });
        }
        if manifest.featurizer.vector_width() != manifest.model_config.input_dim {
            return Err(ArtifactError::SchemaMismatch {
                detail: format!(
                    "featurizer schema produces width {} but the model expects input_dim {}",
                    manifest.featurizer.vector_width(),
                    manifest.model_config.input_dim
                ),
            });
        }
        Ok(Self { manifest, model })
    }
}

/// The exact byte rendering of the weights file: compact JSON. One
/// function so [`ModelArtifact::new`] (fingerprinting) and
/// [`ModelArtifact::save`] (writing) can never drift apart.
fn serialize_weights(model: &CostModel) -> String {
    serde_json::to_string(model).expect("weights serialization")
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
