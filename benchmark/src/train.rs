//! `train_pipeline`: datagen → train → persist → one flywheel turn.
//!
//! One pass, in a fresh directory: `write_corpus` → open and split →
//! `train_stream` from scratch → `evaluate` on the held-out split →
//! `ModelArtifact::save` + `load` → `append_generation` of freshly
//! labeled rows → one warm-start epoch over the union. Passes are
//! identical work, so every pass must end with the same weights and the
//! same corpus chain fingerprint.

use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dlcm_datagen::{
    append_generation, prepare, AppendSample, BuildConfig, DatasetConfig, ParallelDatasetBuilder,
    ProgramGenConfig, ShardBatches, ShardedDataset,
};
use dlcm_ir::fingerprint::to_hex;
use dlcm_model::{
    evaluate, metrics, train_stream, BatchSource, CostModel, CostModelConfig, Featurizer,
    FeaturizerConfig, HeldOutMetrics, ModelArtifact, SpeedupPredictor, TrainConfig,
};

use crate::benchmodel::harness;
use crate::common::{
    record_end_to_end, record_traced_process, timed_setup, RepSample, RunConfig, MIN_REPS,
};
use crate::inputs::append_samples;
use crate::micro;
use crate::report::Outcome;
use crate::timed::{TimedBatchSource, TimedPredictor, DATAGEN_LOAD_BATCH, MODEL_FORWARD};
use crate::trace::{durations_ns, total_ns_and_units, Tracer};

/// Set-up here is milliseconds (labeling the flywheel rows), so it is
/// repeated far more often than the model-training set-ups to be as
/// steady.
const SETUP_REPS: usize = 31;
/// Seed of the generated corpus. `--seed` draws the flywheel rows and
/// the shuffle and dropout streams of both training stages, but not the
/// corpus: 64 random programs are too few for their mean cost per row to
/// be the same from seed to seed (ten seeds: pass time 2.7 s to 3.9 s,
/// five runs of one seed: 2.9 s to 3.4 s), and that difference would
/// read as run-to-run spread of the code under test.
const CORPUS_SEED: u64 = 0x7A_11;
/// Stages of one pass, each counted as one attempted operation.
const STAGES: u64 = 8;

const WRITE_CORPUS: &str = "datagen.write_corpus";
const OPEN: &str = "datagen.open";
const TRAIN: &str = "model.train_stream";
const EVALUATE: &str = "model.evaluate";
const SAVE: &str = "model.artifact_save";
const LOAD: &str = "model.artifact_load";
const APPEND: &str = "datagen.append_generation";
const WARM: &str = "model.warm_retrain";

/// How a pass holds its model: bare in the untraced run, behind the
/// forward-pass recorder in the traced one.
trait ModelSlot: SpeedupPredictor + Sized {
    fn hold(model: CostModel, tracer: &Arc<Tracer>) -> Self;
    fn release(self) -> CostModel;
    /// The batch source `train_stream` reads from.
    fn source<'a>(batches: &'a ShardBatches, tracer: &Arc<Tracer>) -> Box<dyn BatchSource + 'a>;
}

impl ModelSlot for CostModel {
    fn hold(model: CostModel, _tracer: &Arc<Tracer>) -> Self {
        model
    }

    fn release(self) -> CostModel {
        self
    }

    fn source<'a>(batches: &'a ShardBatches, _tracer: &Arc<Tracer>) -> Box<dyn BatchSource + 'a> {
        Box::new(Borrowed(batches))
    }
}

impl ModelSlot for TimedPredictor<CostModel> {
    fn hold(model: CostModel, tracer: &Arc<Tracer>) -> Self {
        TimedPredictor::new(model, Arc::clone(tracer))
    }

    fn release(self) -> CostModel {
        self.into_inner()
    }

    fn source<'a>(batches: &'a ShardBatches, tracer: &Arc<Tracer>) -> Box<dyn BatchSource + 'a> {
        Box::new(TimedBatchSource::new(batches, Arc::clone(tracer)))
    }
}

/// A borrowed batch source as an owned trait object.
struct Borrowed<'a>(&'a ShardBatches);

impl BatchSource for Borrowed<'_> {
    fn num_batches(&self) -> usize {
        self.0.num_batches()
    }

    fn load_batch(&self, index: usize) -> Vec<dlcm_model::LabeledFeatures> {
        self.0.load_batch(index)
    }
}

/// What one pass measured and produced.
#[derive(Debug, Clone, PartialEq)]
struct Pass {
    wall_s: f64,
    /// Seconds inside the from-scratch `train_stream`.
    train_s: f64,
    /// Training rows x epochs of that call.
    train_row_epochs: usize,
    warm_rows: usize,
    heldout_rows: usize,
    corpus_points: usize,
    duplicates_dropped: usize,
    generation_rows_kept: usize,
    generation_duplicates: usize,
    heldout_spearman: f64,
    /// Weights after the from-scratch stage, after the warm epoch, and
    /// the corpus chain after the append.
    fingerprints: [String; 3],
}

/// Opens the corpus under `dir` as a training stream over its training
/// programs, plus the featurized held-out split.
fn open_split(
    dir: &Path,
    featurizer: &Featurizer,
    threads: usize,
) -> io::Result<(ShardBatches, Vec<dlcm_model::LabeledFeatures>)> {
    let sharded = ShardedDataset::open(dir)?;
    let dataset = sharded.load_dataset()?;
    let split = dataset.split(0);
    let train_programs: HashSet<usize> = split
        .train
        .iter()
        .map(|&i| dataset.points[i].program)
        .collect();
    let batches = ShardBatches::open_filtered(
        dir,
        featurizer.clone(),
        TrainConfig::default().batch_size,
        threads,
        Some(&train_programs),
    )?;
    let heldout = prepare(featurizer, &dataset, &split.test);
    Ok((batches, heldout))
}

/// One pass of the pipeline under `dir`. Every stage is an operation of
/// its own for the tracer; disabled, the tracer records nothing.
fn pipeline_pass<M: ModelSlot>(
    cfg: &RunConfig,
    samples: &[AppendSample],
    dir: &Path,
    tracer: &Arc<Tracer>,
) -> io::Result<Pass> {
    let start = Instant::now();
    let harness = harness();
    let feat_cfg = FeaturizerConfig::default();
    let featurizer = Featurizer::new(feat_cfg);
    let corpus = dir.join("corpus");

    let (manifest, stats) = {
        let _op = tracer.op(WRITE_CORPUS, 0);
        ParallelDatasetBuilder::new(BuildConfig {
            dataset: DatasetConfig {
                num_programs: cfg.sizes.corpus_programs,
                schedules_per_program: cfg.sizes.corpus_schedules,
                seed: CORPUS_SEED,
                progen: ProgramGenConfig::wide(),
                ..DatasetConfig::default()
            },
            threads: cfg.threads,
            num_shards: 2,
        })
        .write_corpus(&harness, &corpus)?
    };

    let (batches, heldout) = {
        let _op = tracer.op(OPEN, 1);
        open_split(&corpus, &featurizer, cfg.threads)?
    };

    let train_cfg = TrainConfig {
        epochs: cfg.sizes.train_epochs,
        seed: cfg.seed,
        ..TrainConfig::default()
    };
    let mut model = M::hold(
        CostModel::new(CostModelConfig::fast(feat_cfg.vector_width()), 0),
        tracer,
    );
    let train_start = Instant::now();
    {
        let _op = tracer.op(TRAIN, 2);
        train_stream(&mut model, &*M::source(&batches, tracer), &[], &train_cfg);
    }
    let train_s = train_start.elapsed().as_secs_f64();

    let (mape, predictions) = {
        let _op = tracer.op(EVALUATE, 3);
        evaluate(&model, &heldout)
    };
    let targets: Vec<f64> = heldout.iter().map(|s| s.target).collect();
    let heldout_spearman = metrics::spearman(&targets, &predictions);

    let artifact_dir = dir.join("artifact");
    let artifact = ModelArtifact::new(
        model.release(),
        feat_cfg,
        manifest.content_fingerprint(),
        HeldOutMetrics {
            mape,
            spearman: heldout_spearman,
            test_points: heldout.len(),
            ..HeldOutMetrics::default()
        },
    )
    .with_train_config(train_cfg);
    {
        let _op = tracer.op(SAVE, 4);
        artifact.save(&artifact_dir).map_err(io::Error::other)?;
    }
    let loaded = {
        let _op = tracer.op(LOAD, 5);
        ModelArtifact::load(&artifact_dir).map_err(io::Error::other)?
    };

    let generation = {
        let _op = tracer.op(APPEND, 6);
        append_generation(&corpus, "benchmark", samples.to_vec(), cfg.threads)?
    };

    // The flywheel's retrain: warm start from the loaded artifact, one
    // epoch over the union of the seed corpus and the new generation.
    let (union, _) = open_split(&corpus, &featurizer, cfg.threads)?;
    let mut warm = M::hold(loaded.warm_start(), tracer);
    {
        let _op = tracer.op(WARM, 7);
        let one_epoch = TrainConfig {
            epochs: 1,
            seed: cfg.seed,
            ..TrainConfig::default()
        };
        train_stream(&mut warm, &*M::source(&union, tracer), &[], &one_epoch);
    }
    let warm_fingerprint =
        ModelArtifact::new(warm.release(), feat_cfg, 0, HeldOutMetrics::default())
            .weights_fingerprint();

    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        train_s,
        train_row_epochs: batches.num_points() * cfg.sizes.train_epochs,
        warm_rows: union.num_points(),
        heldout_rows: heldout.len(),
        corpus_points: stats.num_points,
        duplicates_dropped: stats.duplicates_dropped,
        generation_rows_kept: generation.num_points,
        generation_duplicates: generation.duplicates_dropped,
        heldout_spearman,
        fingerprints: [
            to_hex(loaded.weights_fingerprint()),
            to_hex(warm_fingerprint),
            generation.chain,
        ],
    })
}

/// Runs pass number `index` in its own directory and removes it again.
fn run_pass<M: ModelSlot>(
    cfg: &RunConfig,
    samples: &[AppendSample],
    index: usize,
    tracer: &Arc<Tracer>,
    outcome: &mut Outcome,
) -> Option<Pass> {
    let dir = cfg.scratch.join(format!("pass-{index}"));
    let result = pipeline_pass::<M>(cfg, samples, &dir, tracer);
    // Best effort: the scratch root is removed when the run ends.
    let _unused = std::fs::remove_dir_all(&dir);
    outcome.attempted += STAGES;
    match result {
        Ok(pass) => Some(pass),
        Err(e) => {
            outcome.failed += 1;
            outcome.failures.push(format!("pass {index}: {e}"));
            None
        }
    }
}

/// Every pass must produce what the first one did.
fn check_same_outputs(reference: &Pass, pass: &Pass, index: usize, outcome: &mut Outcome) {
    outcome.check(pass.fingerprints == reference.fingerprints, || {
        format!(
            "pass {index} ended with {:?}, the first pass with {:?}",
            pass.fingerprints, reference.fingerprints
        )
    });
    outcome.check(
        pass.heldout_spearman.to_bits() == reference.heldout_spearman.to_bits(),
        || format!("pass {index} scored a different held-out Spearman"),
    );
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let harness = harness();
    let setup_reps = if cfg.traced { 1 } else { SETUP_REPS };
    let (samples, setup) = timed_setup(setup_reps, || {
        std::fs::create_dir_all(&cfg.scratch).expect("scratch directory");
        append_samples(cfg.seed, cfg.sizes.append_rows, &harness)
    });
    outcome
        .counts
        .insert("append_rows_offered", samples.len() as u64);
    let tracer = Arc::new(Tracer::new(false));

    if cfg.traced {
        run_traced(cfg, &samples, &tracer, &mut outcome);
        return outcome;
    }
    let mut reps = Vec::new();
    let mut first: Option<Pass> = None;
    let mut measured = 0.0;
    while reps.len() < MIN_REPS || measured < cfg.seconds {
        let index = reps.len();
        let Some(pass) = run_pass::<CostModel>(cfg, &samples, index, &tracer, &mut outcome) else {
            break;
        };
        measured += pass.wall_s;
        reps.push(RepSample {
            op_us: pass.wall_s * 1e6,
            work_per_s: pass.train_row_epochs as f64 / pass.train_s,
        });
        match &first {
            Some(reference) => check_same_outputs(reference, &pass, index, &mut outcome),
            None => first = Some(pass),
        }
    }
    if let Some(first) = first {
        record_end_to_end(&mut outcome, &setup, &reps);
        outcome.counts.insert("passes", reps.len() as u64);
        outcome
            .counts
            .insert("train_row_epochs_per_pass", first.train_row_epochs as u64);
        record_digests(&first, &mut outcome);
    }
    outcome
}

fn record_digests(pass: &Pass, outcome: &mut Outcome) {
    let [trained, warm, chain] = pass.fingerprints.clone();
    outcome.digests.insert("trained_weights", trained);
    outcome.digests.insert("warm_weights", warm);
    outcome.digests.insert("corpus_chain", chain);
}

/// The traced run: a warm-up pass, then three passes over the same
/// inputs — tracer off, on, off; the traced pass over the mean of its
/// neighbours is the tracing overhead.
fn run_traced(
    cfg: &RunConfig,
    samples: &[AppendSample],
    tracer: &Arc<Tracer>,
    outcome: &mut Outcome,
) {
    type Traced = TimedPredictor<CostModel>;
    // A process's first pass pays its page faults and cold caches; it
    // would make the tracer-off pass the slower one.
    if run_pass::<Traced>(cfg, samples, 0, tracer, outcome).is_none() {
        return;
    }
    let Some(quiet) = run_pass::<Traced>(cfg, samples, 1, tracer, outcome) else {
        return;
    };
    tracer.set_enabled(true);
    let traced = run_pass::<Traced>(cfg, samples, 2, tracer, outcome);
    tracer.set_enabled(false);
    let Some(pass) = traced else { return };
    // The machine drifts by more than the tracer costs, so the tracer-off
    // time is taken on both sides of the traced pass.
    let Some(quiet_after) = run_pass::<Traced>(cfg, samples, 3, tracer, outcome) else {
        return;
    };
    // The decorators and the tracer must not change what is learned.
    check_same_outputs(&quiet, &pass, 2, outcome);
    record_digests(&pass, outcome);
    let spans = tracer.spans();

    let stage_ms = |name: &str| durations_ns(&spans, name).iter().sum::<f64>() / 1e6;
    let train_ns = stage_ms(TRAIN) * 1e6;
    outcome.set_exact(
        "model.train_ns_per_row",
        train_ns / pass.train_row_epochs.max(1) as f64,
    );
    let (forward_ns, _) = total_ns_and_units(&spans, MODEL_FORWARD);
    // Forward graphs are built by both training stages and by
    // `evaluate`; the share is taken over the three together.
    let forward_host_ns = (stage_ms(TRAIN) + stage_ms(WARM) + stage_ms(EVALUATE)) * 1e6;
    outcome.set_exact("model.forward_share", forward_ns / forward_host_ns.max(1.0));
    outcome.set_exact(
        "model.evaluate_ns_per_row",
        stage_ms(EVALUATE) * 1e6 / pass.heldout_rows.max(1) as f64,
    );
    outcome.set_exact(
        "model.warm_retrain_ns_per_row",
        stage_ms(WARM) * 1e6 / pass.warm_rows.max(1) as f64,
    );
    outcome.set_exact("model.artifact_save_ms", stage_ms(SAVE));
    outcome.set_exact("model.artifact_load_ms", stage_ms(LOAD));
    outcome.set_exact("model.heldout_spearman", pass.heldout_spearman);

    outcome.set_exact("datagen.write_corpus_ms", stage_ms(WRITE_CORPUS));
    outcome.set_exact(
        "datagen.points_per_s",
        pass.corpus_points as f64 / (stage_ms(WRITE_CORPUS) / 1e3).max(1e-9),
    );
    outcome.set_exact("datagen.open_ms", stage_ms(OPEN));
    let (load_ns, rows) = total_ns_and_units(&spans, DATAGEN_LOAD_BATCH);
    outcome.set_exact("datagen.load_batch_ns_per_row", load_ns / rows.max(1.0));
    outcome.set_exact("datagen.append_generation_ms", stage_ms(APPEND));
    outcome.set_exact(
        "datagen.duplicates_dropped",
        (pass.duplicates_dropped + pass.generation_duplicates) as f64,
    );
    outcome.set_exact(
        "datagen.generation_rows_kept",
        pass.generation_rows_kept as f64,
    );

    // Direct calls into ir and machine on the flywheel rows, and the
    // matmul kernel at the trained model's shapes.
    tracer.set_enabled(true);
    {
        let _op = tracer.op("train.micro", STAGES);
        let harness = harness();
        for sample in samples {
            micro::apply_and_measure(tracer, &harness, &sample.program, &sample.schedule);
        }
    }
    tracer.set_enabled(false);
    let spans = tracer.spans();
    micro::record_apply_and_measure(&spans, outcome);

    outcome.set_exact(
        "trace.overhead_ratio",
        pass.wall_s / ((quiet.wall_s + quiet_after.wall_s) / 2.0),
    );
    record_traced_process(outcome);
    outcome
        .counts
        .insert("train_row_epochs_per_pass", pass.train_row_epochs as u64);
    outcome.spans = spans;
}
