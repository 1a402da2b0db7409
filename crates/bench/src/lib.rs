//! # dlcm-bench
//!
//! Experiment binaries that regenerate every table and figure of the
//! paper's evaluation (§6). See DESIGN.md for the experiment index;
//! performance is measured by the separate `benchmark/` package (see
//! `benchmark/README.md`). Artifacts are written to `results/` at the
//! workspace root:
//!
//! - `datagen` → writes the sharded training corpus
//!   (`corpus/manifest.json` + `corpus/shard-*.jsonl`);
//! - `exp_accuracy` → streams training from the corpus, writes the
//!   versioned `model_artifact/` and `accuracy.json` (§6 headline
//!   metrics);
//! - `exp_figures` → Figures 4, 5, 7, 8 CSVs from the trained model;
//! - `exp_search` → Figure 6 + Table 2 (BSE / BSM / MCTS / Halide);
//! - `exp_ablation` → §4.4 alternative-architecture comparison;
//! - `exp_halide_r2` → §6 R² comparison against the Halide-style model.
//!
//! Every binary accepts `--quick` for a scaled-down smoke run.

#![warn(missing_docs)]

mod flywheel;

pub use flywheel::{
    replay_programs, replay_wave, run_flywheel, FlywheelCandidate, FlywheelConfig, FlywheelReport,
    FLYWHEEL_WAVE_SEED,
};

use std::path::{Path, PathBuf};

use dlcm_datagen::{
    open_split, prepare, BuildConfig, BuildStats, Dataset, DatasetConfig, ParallelDatasetBuilder,
    Pattern, ProgramGenConfig, ShardedDataset, Split,
};
use dlcm_machine::{Machine, Measurement};
use dlcm_model::{
    metrics, train_stream, BatchSource, CostModel, CostModelConfig, Featurizer, FeaturizerConfig,
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
/// shards), written by the `datagen` binary and consumed by
/// `exp_accuracy`'s streaming training path.
pub fn corpus_dir() -> PathBuf {
    results_dir().join("corpus")
}

/// Directory where `exp_accuracy` (and `modelctl train` by default)
/// writes the versioned trained-model artifact
/// (`dlcm_model::ModelArtifact`: `manifest.json` + `weights.json`).
pub fn model_artifact_dir() -> PathBuf {
    results_dir().join("model_artifact")
}

/// `true` when `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Parses a string-valued `--<flag> VALUE` / `--<flag>=VALUE` from the
/// command line.
pub fn string_flag(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let eq_prefix = format!("--{flag}=");
    for (i, a) in args.iter().enumerate() {
        if a == &format!("--{flag}") {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix(&eq_prefix) {
            return Some(v.to_string());
        }
    }
    None
}

/// `--model-artifact DIR` (or `--model-artifact=DIR`): reuse a saved
/// model artifact instead of retraining. `None` when the flag is absent.
pub fn model_artifact_flag() -> Option<PathBuf> {
    string_flag("model-artifact").map(PathBuf::from)
}

/// Parses `--<flag> N` / `--<flag>=N` from the command line, warning and
/// falling back to `default` on a missing or non-positive value (don't
/// silently run the wrong configuration).
pub fn positive_flag(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    let eq_prefix = format!("--{flag}=");
    for (i, a) in args.iter().enumerate() {
        let value = if a == &format!("--{flag}") {
            args.get(i + 1).cloned()
        } else {
            a.strip_prefix(&eq_prefix).map(str::to_string)
        };
        let Some(v) = value else { continue };
        match v.parse() {
            Ok(n) if n >= 1 => return n,
            _ => {
                eprintln!(
                    "warning: --{flag} needs a positive integer (got {v:?}); using {default}"
                );
                return default;
            }
        }
    }
    // A trailing bare `--<flag>` has no value to look at.
    if args.last().map(String::as_str) == Some(&format!("--{flag}")) {
        eprintln!("warning: --{flag} needs a positive integer; using {default}");
    }
    default
}

/// Worker-thread count for parallel evaluation: `--threads N` (or
/// `--threads=N`) on the command line, defaulting to 1.
///
/// Thread count never changes results — the parallel evaluator is
/// bit-identical to sequential scoring — so experiment CSVs are byte-equal
/// at any setting; only wall-clock changes.
pub fn threads() -> usize {
    positive_flag("threads", 1)
}

/// Shard count for corpus generation: `--shards N` (or `--shards=N`) on
/// the command line, defaulting to 4. Like `--threads`, this never
/// changes the sample set — only how it is laid out across files.
pub fn shards() -> usize {
    positive_flag("shards", 4)
}

/// Concurrent-search count for the suite driver: `--search-threads N`
/// (or `--search-threads=N`), defaulting to 1.
///
/// Orthogonal to `--threads` (workers *within* one candidate batch):
/// this fans whole searches across benchmarks. Like `--threads` it never
/// changes results — suite benchmarks are distinct programs and each
/// search keeps standalone scoped stats, so `fig6.csv`/`table2.csv` are
/// byte-identical at any setting (enforced by a test and the CI diff
/// job).
pub fn search_threads() -> usize {
    positive_flag("search-threads", 1)
}

/// The shared measurement harness (paper protocol: median of 30 runs,
/// 2% noise, simulated Xeon E5-2680v3).
pub fn harness() -> Measurement {
    Measurement::new(Machine::default())
}

/// The canonical dataset configuration for the accuracy experiments:
/// all nine scenario families ([`ProgramGenConfig::wide`]). Scaled down
/// from the paper's 56,250 x 32 to fit the simulated environment;
/// `quick` shrinks it further for smoke tests.
pub fn dataset_config(quick: bool) -> DatasetConfig {
    let (num_programs, schedules_per_program) = if quick { (48, 8) } else { (128, 32) };
    DatasetConfig {
        num_programs,
        schedules_per_program,
        seed: 7,
        progen: ProgramGenConfig::wide(),
        ..DatasetConfig::default()
    }
}

/// The canonical corpus build configuration (`dataset_config` sharded
/// and labeled through the parallel, deduplicating builder).
pub fn corpus_config(quick: bool, threads: usize, num_shards: usize) -> BuildConfig {
    BuildConfig {
        threads,
        num_shards,
        ..BuildConfig::new(dataset_config(quick))
    }
}

/// Opens the sharded corpus under [`corpus_dir`] if it exists and matches
/// the canonical configuration, otherwise generates and writes it.
/// Returns the opened corpus plus build stats when generation ran.
pub fn ensure_corpus(
    quick: bool,
    threads: usize,
    num_shards: usize,
) -> (ShardedDataset, Option<BuildStats>) {
    let dir = corpus_dir();
    let cfg = corpus_config(quick, threads, num_shards);
    if let Ok(sharded) = ShardedDataset::open(&dir) {
        // Reuse keys on the *seed generation* only: a corpus the flywheel
        // has extended with appended generations still matches its build
        // config and must be reused, never clobbered.
        let seed_shards = sharded
            .manifest()
            .shards
            .iter()
            .filter(|s| s.generation == 0)
            .count();
        if sharded.manifest().config == cfg.dataset && seed_shards == cfg.num_shards {
            eprintln!(
                "reusing corpus at {dir:?} ({} programs, {} points)",
                sharded.manifest().total_programs,
                sharded.manifest().total_points
            );
            return (sharded, None);
        }
        eprintln!("corpus at {dir:?} has a stale configuration; regenerating");
    }
    let builder = ParallelDatasetBuilder::new(cfg);
    let (manifest, stats) = builder
        .write_corpus(&harness(), &dir)
        .expect("write corpus shards");
    eprintln!(
        "generated corpus: {} programs, {} points, {} shards ({} duplicates dropped, {} equivalent schedules served from cache)",
        manifest.total_programs,
        manifest.total_points,
        manifest.shards.len(),
        stats.duplicates_dropped,
        stats.eval.cache_hits
    );
    let sharded = ShardedDataset::open(&dir).expect("reopen written corpus");
    (sharded, Some(stats))
}

/// Loads the dataset for the downstream figure/table experiments: the
/// sharded corpus when present, regenerating through the corpus pipeline
/// otherwise.
pub fn load_or_generate_dataset(quick: bool) -> Dataset {
    if let Ok(sharded) = ShardedDataset::open(&corpus_dir()) {
        if sharded.manifest().config == dataset_config(quick) {
            if let Ok(ds) = sharded.load_dataset() {
                return ds;
            }
        }
    }
    let (sharded, _) = ensure_corpus(quick, threads(), shards());
    sharded.load_dataset().expect("load generated corpus")
}

/// Loads and validates a versioned model artifact, exiting with a
/// pointer to the producer binaries on any [`dlcm_model::ArtifactError`].
pub fn load_artifact(dir: &Path) -> ModelArtifact {
    ModelArtifact::load(dir).unwrap_or_else(|e| {
        eprintln!("cannot load model artifact at {dir:?}: {e}");
        eprintln!(
            "produce one with `cargo run --release -p dlcm-bench --bin modelctl -- train` \
             (or `exp_accuracy`, which saves {:?})",
            model_artifact_dir()
        );
        std::process::exit(2);
    })
}

/// The trained model + featurizer the search/figure experiments score
/// with: the validated artifact at `--model-artifact DIR`, or at
/// [`model_artifact_dir`] (where `exp_accuracy` saves it) when the flag
/// is absent. The featurizer always comes from the artifact's schema.
pub fn load_model_and_featurizer() -> (CostModel, Featurizer) {
    let dir = model_artifact_flag().unwrap_or_else(model_artifact_dir);
    let artifact = load_artifact(&dir);
    eprintln!(
        "using model artifact at {dir:?} (corpus {}, test MAPE {:.3})",
        artifact.manifest().corpus_fingerprint,
        artifact.manifest().metrics.mape
    );
    let featurizer = artifact.featurizer();
    (artifact.into_model(), featurizer)
}

/// A model scored on the held-out test split of its training corpus:
/// what [`train_from_corpus`] and [`evaluate_artifact`] both hand to
/// [`accuracy_report`], so a training run and a reload of its artifact
/// report through the same code.
pub struct Evaluation {
    /// The full dataset the corpus holds (family tags included).
    pub dataset: Dataset,
    /// Its by-program split; `split.test` indexes the points behind
    /// [`Evaluation::test_set`].
    pub split: Split,
    /// Featurized held-out test set.
    pub test_set: Vec<LabeledFeatures>,
    /// Model predictions over [`Evaluation::test_set`], in order.
    pub test_preds: Vec<f64>,
    /// Held-out metrics computed from those predictions.
    pub metrics: HeldOutMetrics,
}

/// The one training pipeline behind `exp_accuracy` and `modelctl train`:
/// ensure the canonical sharded corpus, stream-train the cost model on
/// its training split (appendix A.1 loop) from a single read of the
/// shards, evaluate on the held-out test programs, and package the
/// result as a versioned [`ModelArtifact`] carrying the corpus content
/// fingerprint and the held-out metrics.
///
/// Deterministic end to end: the same `(quick, epochs)` pair yields
/// byte-identical artifacts at any `threads`/`num_shards` setting.
pub fn train_from_corpus(
    quick: bool,
    threads: usize,
    num_shards: usize,
    epochs: usize,
) -> (ModelArtifact, Evaluation) {
    let (sharded, _build_stats) = ensure_corpus(quick, threads, num_shards);
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
    train_stream(&mut model, &corpus.train, &corpus.val_set, &train_cfg);

    let (held_out, test_preds) = HeldOutMetrics::evaluate(&model, &corpus.test_set);
    let artifact = ModelArtifact::new(
        model,
        featurizer.config(),
        sharded.manifest().content_fingerprint(),
        held_out,
    )
    .with_train_config(train_cfg);
    let evaluation = Evaluation {
        dataset: corpus.dataset,
        split: corpus.split,
        test_set: corpus.test_set,
        test_preds,
        metrics: held_out,
    };
    (artifact, evaluation)
}

/// Re-evaluates a loaded artifact on the held-out test split of its
/// training corpus. Exits with an explanation when the corpus on disk
/// is not the corpus the artifact was trained on (its metrics would not
/// be comparable) — an existing mismatched corpus is **never
/// regenerated or overwritten**, only reported; the canonical corpus is
/// generated only when none exists at all.
pub fn evaluate_artifact(
    artifact: &ModelArtifact,
    quick: bool,
    threads: usize,
    num_shards: usize,
) -> Evaluation {
    // Open whatever corpus is on disk first: if it exists but is not
    // the artifact's training corpus, fail *without* touching it (a
    // full training corpus must never be clobbered by e.g. a --quick
    // eval run's canonical config).
    let sharded = match ShardedDataset::open(&corpus_dir()) {
        Ok(sharded) => sharded,
        Err(_) => ensure_corpus(quick, threads, num_shards).0,
    };
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
    let (held_out, test_preds) = HeldOutMetrics::evaluate(artifact.model(), &test_set);
    Evaluation {
        dataset,
        split,
        test_set,
        test_preds,
        metrics: held_out,
    }
}

/// Name of the catch-all per-family bucket: held-out points whose
/// program carries no family tag (legacy corpora built before family
/// accounting, or serving-tier captures of unknown provenance), plus
/// tags this build does not recognize.
pub const UNTAGGED_FAMILY: &str = "untagged";

/// One scenario family's slice of the held-out metrics.
///
/// Rows for all nine generator families are always emitted — zero-point
/// rows keep the report shape independent of which families the corpus
/// config enabled — followed by an [`UNTAGGED_FAMILY`] row only when
/// untagged points exist. `ss_res` (the raw squared-error sum) is
/// carried so the aggregate R² is exactly recoverable from the rows:
/// `R² = 1 − Σ_f ss_res_f / ss_tot`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FamilyMetrics {
    /// Family name ([`dlcm_datagen::Pattern::name`] or
    /// [`UNTAGGED_FAMILY`]).
    pub family: String,
    /// Held-out test points whose program belongs to this family.
    pub test_points: usize,
    /// Mean Absolute Percentage Error over the family's points (0 when
    /// empty).
    pub mape: f64,
    /// R² over the family's points (0 when empty or degenerate).
    pub r2: f64,
    /// Spearman rank correlation over the family's points (0 when
    /// empty or degenerate).
    pub spearman: f64,
    /// Σ (target − prediction)² over the family's points.
    pub ss_res: f64,
}

fn family_row(family: String, targets: &[f64], preds: &[f64]) -> FamilyMetrics {
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    let ss_res: f64 = targets
        .iter()
        .zip(preds)
        .map(|(t, p)| (t - p) * (t - p))
        .sum();
    FamilyMetrics {
        family,
        test_points: targets.len(),
        mape: if targets.is_empty() {
            0.0
        } else {
            finite(metrics::mape(targets, preds))
        },
        r2: finite(metrics::r2(targets, preds)),
        spearman: finite(metrics::spearman(targets, preds)),
        // A sum of squares is non-negative; abs() only normalizes the
        // empty sum's -0.0 identity so reports never print "-0".
        ss_res: finite(ss_res.abs()),
    }
}

/// Partitions held-out predictions by the owning program's scenario
/// family and scores each slice.
///
/// `test_indices[k]` is the dataset point behind `targets[k]` /
/// `preds[k]`; the point's program index selects the family from
/// [`Dataset::families`]. Row order is deterministic:
/// [`dlcm_datagen::Pattern::ALL`] order, then [`UNTAGGED_FAMILY`] last
/// (only when non-empty). The partition is exact — every test point
/// lands in exactly one row, so `Σ_f test_points_f` equals the
/// aggregate count and `Σ_f test_points_f · mape_f` recombines to the
/// aggregate MAPE.
pub fn per_family_metrics(
    dataset: &Dataset,
    test_indices: &[usize],
    targets: &[f64],
    preds: &[f64],
) -> Vec<FamilyMetrics> {
    assert_eq!(test_indices.len(), targets.len(), "length mismatch");
    assert_eq!(test_indices.len(), preds.len(), "length mismatch");
    let mut buckets: Vec<(&str, Vec<f64>, Vec<f64>)> = Pattern::ALL
        .iter()
        .map(|p| (p.name(), Vec::new(), Vec::new()))
        .collect();
    let mut untagged: (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for (k, &pi) in test_indices.iter().enumerate() {
        let program = dataset.points[pi].program;
        let family = dataset.families[program].as_deref();
        match family.and_then(|name| buckets.iter_mut().find(|(b, _, _)| *b == name)) {
            Some((_, t, p)) => {
                t.push(targets[k]);
                p.push(preds[k]);
            }
            None => {
                untagged.0.push(targets[k]);
                untagged.1.push(preds[k]);
            }
        }
    }
    let mut rows: Vec<FamilyMetrics> = buckets
        .into_iter()
        .map(|(family, t, p)| family_row(family.to_string(), &t, &p))
        .collect();
    if !untagged.0.is_empty() {
        rows.push(family_row(
            UNTAGGED_FAMILY.to_string(),
            &untagged.0,
            &untagged.1,
        ));
    }
    rows
}

/// The `accuracy.json` schema shared by `exp_accuracy` and `modelctl
/// eval`: §6 headline metrics plus the per-family breakdown. Both the
/// training and artifact-reuse paths build it through
/// [`accuracy_report`], so the emitted JSON is byte-identical whenever
/// the underlying evaluation is (CI diffs all three producers).
#[derive(Debug, Clone, serde::Serialize)]
pub struct AccuracyReport {
    /// Distinct programs in the corpus.
    pub num_programs: usize,
    /// Labeled points in the corpus.
    pub num_points: usize,
    /// Training epochs behind the evaluated weights.
    pub epochs: usize,
    /// Points in the training split.
    pub train_points: usize,
    /// Points in the held-out test split.
    pub test_points: usize,
    /// Held-out MAPE.
    pub test_mape: f64,
    /// Held-out Pearson r.
    pub pearson: f64,
    /// Held-out Spearman rho.
    pub spearman: f64,
    /// Held-out R².
    pub r2: f64,
    /// Paper's reported MAPE (16%).
    pub paper_mape: f64,
    /// Paper's reported Pearson r (0.90).
    pub paper_pearson: f64,
    /// Paper's reported Spearman rho (0.95).
    pub paper_spearman: f64,
    /// Held-out metrics partitioned by scenario family.
    pub per_family: Vec<FamilyMetrics>,
}

/// Builds the shared [`AccuracyReport`] for weights trained for
/// `epochs` epochs.
pub fn accuracy_report(evaluation: &Evaluation, epochs: usize) -> AccuracyReport {
    let Evaluation {
        dataset,
        split,
        test_set,
        test_preds,
        metrics: held_out,
    } = evaluation;
    let targets: Vec<f64> = test_set.iter().map(|s| s.target).collect();
    AccuracyReport {
        num_programs: dataset.programs.len(),
        num_points: dataset.len(),
        epochs,
        train_points: split.train.len(),
        test_points: held_out.test_points,
        test_mape: held_out.mape,
        pearson: held_out.pearson,
        spearman: held_out.spearman,
        r2: held_out.r2,
        paper_mape: 0.16,
        paper_pearson: 0.90,
        paper_spearman: 0.95,
        per_family: per_family_metrics(dataset, &split.test, &targets, test_preds),
    }
}

/// Writes a CSV file into the results directory.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(name);
    let mut out = String::with_capacity(rows.len() * 32 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    std::fs::write(&path, out).expect("write csv");
    eprintln!("wrote {path:?}");
}

/// Writes a JSON artifact into the results directory.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let file = std::fs::File::create(&path).expect("create json");
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), value).expect("serialize");
    eprintln!("wrote {path:?}");
}
