//! Where the two persisted hand-offs live and how a binary gets hold of
//! them: the one corpus resolver ([`ensure_corpus`]), the one training
//! pipeline ([`train_from_corpus`], `modelctl train`) and the one
//! re-evaluation ([`evaluate_artifact`], `modelctl eval`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use dlcm_datagen::{
    open_split, prepare, BuildConfig, BuildStats, Dataset, DatasetConfig, ParallelDatasetBuilder,
    ProgramGenConfig, ShardManifest, ShardedDataset, Split,
};
use dlcm_machine::{Machine, Measurement};
use dlcm_model::{
    train_stream, BatchSource, CostModel, CostModelConfig, Featurizer, FeaturizerConfig,
    HeldOutMetrics, LabeledFeatures, ModelArtifact, TrainConfig,
};

/// Directory where experiment artifacts are written.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("DLCM_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Directory holding the sharded training corpus (manifest + JSONL
/// shards): resolved by [`ensure_corpus`], extended by `modelctl
/// flywheel`.
pub fn corpus_dir() -> PathBuf {
    results_dir().join("corpus")
}

/// Directory where `modelctl train` writes the versioned trained-model
/// artifact by default (`dlcm_model::ModelArtifact`: `manifest.json` +
/// `weights.bin`); `modelctl reproduce` writes it there too.
pub fn model_artifact_dir() -> PathBuf {
    results_dir().join("model_artifact")
}

/// Generation-0 shard files of the canonical corpus: part of what makes
/// a corpus "the same corpus" ([`ensure_corpus`]).
const SEED_SHARDS: usize = 4;

/// The shared measurement harness (paper protocol: median of 30 runs,
/// 2% noise, simulated Xeon E5-2680v3).
pub fn harness() -> Measurement {
    Measurement::new(Machine)
}

/// The canonical corpus build configuration: all nine scenario families
/// ([`ProgramGenConfig::wide`]), scaled down from the paper's 56,250 x
/// 32 to fit the simulated environment (`quick` shrinks it further for
/// smoke tests), written as four seed shards and labeled through the
/// parallel, deduplicating builder.
pub fn corpus_config(quick: bool, threads: usize) -> BuildConfig {
    let (num_programs, schedules_per_program) = if quick { (48, 8) } else { (128, 32) };
    BuildConfig {
        threads,
        num_shards: SEED_SHARDS,
        ..BuildConfig::new(DatasetConfig {
            num_programs,
            schedules_per_program,
            seed: 7,
            progen: ProgramGenConfig::wide(),
            ..DatasetConfig::default()
        })
    }
}

/// The one corpus resolver: opens the sharded corpus at `dir` when it
/// is the corpus `cfg` describes, otherwise generates and writes it
/// (replacing whatever was there). Returns the opened corpus, plus build
/// stats when generation ran.
///
/// "The same corpus" means the same dataset configuration *and* the
/// same number of generation-0 shards: generations the flywheel appended
/// since are part of the corpus, never a reason to regenerate it.
pub fn ensure_corpus(dir: &Path, cfg: BuildConfig) -> (ShardedDataset, Option<BuildStats>) {
    if let Ok(sharded) = ShardedDataset::open(dir) {
        let shards = &sharded.manifest().shards;
        let seed_shards = shards.iter().filter(|s| s.generation == 0).count();
        if sharded.manifest().config == cfg.dataset && seed_shards == cfg.num_shards {
            eprintln!(
                "reusing corpus at {dir:?} ({} points in {} shards)",
                sharded.manifest().total_points,
                shards.len()
            );
            return (sharded, None);
        }
        eprintln!("corpus at {dir:?} has a different configuration; regenerating");
    }
    eprintln!(
        "generating {} programs x {} schedules ...",
        cfg.dataset.num_programs, cfg.dataset.schedules_per_program
    );
    let (manifest, stats) = ParallelDatasetBuilder::new(cfg)
        .write_corpus(&harness(), dir)
        .expect("write corpus shards");
    eprintln!(
        "generated corpus: {} programs, {} points, {} shards",
        manifest.total_programs,
        manifest.total_points,
        manifest.shards.len()
    );
    let sharded = ShardedDataset::open(dir).expect("reopen written corpus");
    (sharded, Some(stats))
}

/// [`ensure_corpus`] over the canonical corpus under [`corpus_dir`].
fn canonical_corpus(quick: bool, threads: usize) -> ShardedDataset {
    ensure_corpus(&corpus_dir(), corpus_config(quick, threads)).0
}

/// Loads and validates a versioned model artifact, exiting with a
/// pointer to its producer on any [`dlcm_model::ArtifactError`].
pub fn load_artifact(dir: &Path) -> ModelArtifact {
    ModelArtifact::load(dir).unwrap_or_else(|e| {
        eprintln!("cannot load model artifact at {dir:?}: {e}");
        eprintln!(
            "produce one with `cargo run --release -p dlcm-bench --bin modelctl -- train` \
             (which saves {:?} by default)",
            model_artifact_dir()
        );
        std::process::exit(2);
    })
}

/// A model scored on the held-out test split of its training corpus:
/// what [`train_from_corpus`] and [`evaluate_artifact`] both produce and
/// [`crate::accuracy_report`] consumes, so a training run and a reload of
/// its artifact report through the same code.
pub struct Evaluation {
    /// The full dataset the corpus holds (family tags included).
    pub(crate) dataset: Dataset,
    /// Its by-program split; `split.test` indexes the points behind
    /// [`Evaluation::test_set`].
    pub(crate) split: Split,
    /// Featurized held-out test set.
    pub test_set: Vec<LabeledFeatures>,
    /// Model predictions over [`Evaluation::test_set`], in order.
    pub test_preds: Vec<f64>,
    /// Held-out metrics computed from those predictions.
    pub metrics: HeldOutMetrics,
    /// Chained fingerprint of the corpus's newest generation.
    pub(crate) corpus_chain: String,
}

impl Evaluation {
    fn new(
        model: &CostModel,
        corpus: &ShardManifest,
        dataset: Dataset,
        split: Split,
        test: Vec<LabeledFeatures>,
    ) -> Self {
        let (metrics, test_preds) = HeldOutMetrics::evaluate(model, &test);
        Self {
            dataset,
            split,
            test_set: test,
            test_preds,
            metrics,
            corpus_chain: corpus
                .generations
                .last()
                .map_or_else(String::new, |g| g.chain.clone()),
        }
    }
}

/// The one training pipeline (`modelctl train`): resolve the canonical
/// sharded corpus ([`ensure_corpus`]), stream-train the cost model on
/// its training split (appendix A.1 loop) from a single read of the
/// shards, evaluate on the held-out test programs, and package the
/// result as a versioned [`ModelArtifact`] carrying the corpus content
/// fingerprint and the held-out metrics.
///
/// Deterministic end to end: the same `(quick, epochs)` yields a
/// byte-identical artifact at any `threads` setting.
pub fn train_from_corpus(
    quick: bool,
    threads: usize,
    epochs: usize,
) -> (ModelArtifact, Evaluation) {
    let sharded = canonical_corpus(quick, threads);
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let train_cfg = TrainConfig {
        epochs,
        verbose: true,
        eval_every: 5,
        ..TrainConfig::default()
    };
    let corpus = open_split(&sharded, &featurizer, train_cfg.batch_size, threads)
        .expect("open corpus for streaming");

    let mut model = CostModel::new(CostModelConfig::fast(featurizer.config().vector_width()), 0);
    eprintln!(
        "training {} params for {epochs} epochs on {} streamed samples ({} minibatches) ...",
        model.num_params(),
        corpus.train.num_points(),
        corpus.train.num_batches()
    );
    let start = Instant::now();
    train_stream(&mut model, &corpus.train, &corpus.val_set, &train_cfg);
    let seconds = start.elapsed().as_secs_f64();
    // Training throughput in the benchmark's `work_per_s` unit (rows x
    // epochs per second of `train_stream`, validation passes included),
    // so a larger run can be budgeted from a smaller one's output.
    let rows = corpus.train.num_points();
    println!(
        "trained {rows} rows × {epochs} epochs in {seconds:.1} s ({:.0} row-epochs/s)",
        (rows * epochs) as f64 / seconds
    );

    let evaluation = Evaluation::new(
        &model,
        sharded.manifest(),
        corpus.dataset,
        corpus.split,
        corpus.test_set,
    );
    let artifact = ModelArtifact::new(
        model,
        featurizer.config(),
        sharded.manifest().content_fingerprint(),
        evaluation.metrics,
    )
    .with_train_config(train_cfg);
    (artifact, evaluation)
}

/// Re-evaluates a loaded artifact on the held-out test split of the
/// canonical corpus ([`ensure_corpus`]; `quick` selects it as for every
/// other binary). Exits with an explanation when that is not the corpus
/// the artifact was trained on — its metrics would not be comparable.
pub fn evaluate_artifact(artifact: &ModelArtifact, quick: bool, threads: usize) -> Evaluation {
    let sharded = canonical_corpus(quick, threads);
    let corpus_fingerprint = sharded.manifest().content_fingerprint();
    if artifact.corpus_fingerprint() != Some(corpus_fingerprint) {
        eprintln!(
            "corpus mismatch: artifact was trained on corpus {}, but the corpus at {:?} \
             fingerprints to {} — held-out metrics are only meaningful against the training \
             corpus (regenerate it, or retrain with `modelctl train`)",
            artifact.manifest().corpus_fingerprint,
            corpus_dir(),
            dlcm_ir::fingerprint::to_hex(corpus_fingerprint),
        );
        std::process::exit(1);
    }
    let dataset = sharded.load_dataset().expect("load corpus");
    let split = dataset.split(0);
    let test_set = prepare(&artifact.featurizer(), &dataset, &split.test);
    Evaluation::new(
        artifact.model(),
        sharded.manifest(),
        dataset,
        split,
        test_set,
    )
}
