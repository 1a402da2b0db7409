//! The data flywheel: serve → capture mispredicts → append a corpus
//! generation → warm-start retrain → candidates for the promotion gate.
//!
//! One [`run_flywheel`] call closes the loop the rest of the workspace
//! leaves open-ended:
//!
//! 1. **serve** — the incumbent artifact answers a fixed-seed replay
//!    window through a real `dlcm_serve::InferenceService` with
//!    mispredict capture enabled (ground truth behind the shared worker
//!    pool, banding per `dlcm_serve::band_for`);
//! 2. **capture** — the drained WARN+ records become
//!    `dlcm_datagen::AppendSample`s, labeled by their *measured*
//!    speedups;
//! 3. **append** — `dlcm_datagen::append_generation` adds them to the
//!    corpus as a new generation, deduplicated against the whole
//!    history, chain-fingerprinted onto the parent generation;
//! 4. **retrain** — N candidate artifacts are warm-started from the
//!    incumbent's weights (`dlcm_model::ModelArtifact::warm_start`) and
//!    trained over the *union* corpus, differing only in their
//!    minibatch-shuffle seed;
//! 5. **gate** — the saved candidates are what `modelctl promote
//!    --candidates` ranks against the incumbent.
//!
//! Every stage is deterministic: the replay window is fixed-seed and
//! sequential, sampling is content-keyed, appended shards are sorted by
//! content key before dedup, and training is byte-deterministic — so
//! the same incumbent and corpus reproduce bit-identical generation
//! fingerprints and candidate weights at any `--threads` setting.

use std::io;
use std::path::PathBuf;

use dlcm_datagen::{
    append_generation, open_split, AppendSample, GenerationInfo, ProgramGenConfig,
    ProgramGenerator, ScheduleGenConfig, ScheduleGenerator, ShardedDataset,
};
use dlcm_eval::{ParallelEvaluator, SyncEvaluator};
use dlcm_ir::fingerprint::to_hex;
use dlcm_ir::{Program, Schedule};
use dlcm_model::{train_stream, HeldOutMetrics, ModelArtifact, TrainConfig};
use dlcm_serve::{InferenceService, MispredictConfig, MispredictCounters, ServeConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use crate::harness;

/// Wave-seed base reserved for flywheel replay traffic: disjoint from
/// loadgen's `(client << 32) | round` seeds and promote's `0xAB00 +
/// round` window, so flywheel cache keys never collide with either.
pub const FLYWHEEL_WAVE_SEED: u64 = 0xF1_0000;

/// The fixed pool of eight generated programs (`serve0`…`serve7`, seed
/// 17) every replay driver draws from — `loadgen`, `modelctl promote`
/// and the flywheel window — so served and in-process runs see the
/// same queries.
pub fn replay_programs() -> Vec<Program> {
    let generator = ProgramGenerator::new(ProgramGenConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    (0..8)
        .map(|i| generator.generate(&mut rng, &format!("serve{i}")))
        .collect()
}

/// One replay wave: up to `wave_len` distinct schedules of `program`,
/// drawn from `seed`. Each driver owns a disjoint seed range (see
/// [`FLYWHEEL_WAVE_SEED`]).
pub fn replay_wave(program: &Program, wave_len: usize, seed: u64) -> Vec<Schedule> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    ScheduleGenerator::new(ScheduleGenConfig::default())
        .generate_distinct(program, wave_len, &mut rng)
}

/// Everything one flywheel run needs; no environment variables are
/// consulted, so tests can point every path at a temp directory.
#[derive(Debug, Clone)]
pub struct FlywheelConfig {
    /// The incumbent model artifact (serves the replay window and
    /// warm-starts every candidate).
    pub artifact_dir: PathBuf,
    /// The generation-versioned corpus to append mispredicts to — must
    /// already exist (the corpus that trained the incumbent).
    pub corpus_dir: PathBuf,
    /// Where candidate artifacts land: `out_dir/cand0`, `cand1`, …
    pub out_dir: PathBuf,
    /// Candidate artifacts to retrain (each with a distinct
    /// minibatch-shuffle seed). At least 1.
    pub candidates: usize,
    /// Replay rounds in the serve window.
    pub window: usize,
    /// Schedules per replay wave.
    pub wave_len: usize,
    /// Warm-start retraining epochs per candidate.
    pub epochs: usize,
    /// Check one in `sample_every` served rows against ground truth
    /// (content-keyed; `1` checks every row).
    pub sample_every: u64,
    /// Bound of the serve-side mispredict log.
    pub capacity: usize,
    /// Worker threads (wall-clock only, never results).
    pub threads: usize,
}

impl FlywheelConfig {
    /// The canonical flywheel over explicit paths: 2 candidates, a
    /// `quick`-scaled window, and capture of every served row.
    pub fn new(artifact_dir: PathBuf, corpus_dir: PathBuf, out_dir: PathBuf, quick: bool) -> Self {
        Self {
            artifact_dir,
            corpus_dir,
            out_dir,
            candidates: 2,
            window: if quick { 6 } else { 24 },
            wave_len: 6,
            epochs: if quick { 4 } else { 12 },
            sample_every: 1,
            capacity: 1024,
            threads: 1,
        }
    }
}

/// One warm-started candidate in the [`FlywheelReport`].
#[derive(Debug, Clone, Serialize)]
pub struct FlywheelCandidate {
    /// Directory the candidate artifact was saved to.
    pub dir: String,
    /// The candidate's weights fingerprint (hex).
    pub weights_fingerprint: String,
    /// The minibatch-shuffle seed this candidate trained under.
    pub seed: u64,
    /// Held-out test MAPE over the union corpus.
    pub held_out_mape: f64,
}

/// What [`run_flywheel`] did, written to `results/flywheel.json` by
/// `modelctl flywheel`.
#[derive(Debug, Clone, Serialize)]
pub struct FlywheelReport {
    /// Weights fingerprint (hex) of the incumbent that served the
    /// window.
    pub incumbent_fingerprint: String,
    /// Replay rounds served.
    pub window: usize,
    /// Schedules per wave.
    pub wave_len: usize,
    /// Total rows served.
    pub queries: usize,
    /// Serve-side capture accounting at drain time.
    pub mispredicts: MispredictCounters,
    /// The generation appended to the corpus.
    pub generation: GenerationInfo,
    /// Content fingerprint (hex) of the extended union corpus.
    pub corpus_fingerprint: String,
    /// The warm-started candidates, in seed order.
    pub candidates: Vec<FlywheelCandidate>,
}

/// Runs the whole loop; see the module docs. Returns the report; the
/// candidate artifacts and the extended corpus are on disk when it
/// does.
///
/// # Errors
///
/// Propagates IO failures (missing incumbent artifact, missing corpus,
/// unwritable output directory).
pub fn run_flywheel(cfg: &FlywheelConfig) -> io::Result<FlywheelReport> {
    let artifact = ModelArtifact::load(&cfg.artifact_dir).map_err(io::Error::other)?;
    let incumbent_fp = artifact.weights_fingerprint();
    let warm = artifact.warm_start();
    let featurizer = artifact.featurizer();

    // The truth evaluator shares the corpus's labeling seed, so appended
    // labels are drawn from the same measurement distribution as the
    // seed generation's.
    let corpus_seed = ShardedDataset::open(&cfg.corpus_dir)?
        .manifest()
        .config
        .seed;
    let threads = cfg.threads.max(1);

    // Stage 1+2: serve the fixed replay window with capture on, then
    // drain. The client loop is sequential on purpose — determinism
    // comes free, and capture sampling is content-keyed anyway.
    let service = InferenceService::from_artifact(
        artifact,
        ServeConfig {
            threads,
            ..ServeConfig::default()
        },
    );
    let truth = ParallelEvaluator::new(harness(), corpus_seed, threads);
    service.enable_mispredict_capture(
        Box::new(truth),
        MispredictConfig {
            sample_every: cfg.sample_every,
            capacity: cfg.capacity,
            ..MispredictConfig::default()
        },
    );
    let programs = replay_programs();
    let mut queries = 0usize;
    for round in 0..cfg.window {
        let program = &programs[round % programs.len()];
        let wave = replay_wave(program, cfg.wave_len, FLYWHEEL_WAVE_SEED + round as u64);
        queries += wave.len();
        let (scores, _) = service.speedup_batch_shared(program, &wave);
        debug_assert_eq!(scores.len(), wave.len());
    }
    let mispredicts = service.mispredict_counters();
    let records = service.drain_mispredicts();

    // Stage 3: the drained WARN+ rows become one appended generation,
    // labeled by *measured* ground truth.
    let samples: Vec<AppendSample> = records
        .into_iter()
        .map(|r| AppendSample {
            program: r.program,
            schedule: r.schedule,
            speedup: r.measured,
            family: None,
        })
        .collect();
    let generation = append_generation(
        &cfg.corpus_dir,
        &format!("mispredicts@{}", to_hex(incumbent_fp)),
        samples,
        threads,
    )?;

    // Stage 4: warm-start retrain over the union corpus, read once for
    // every candidate.
    let sharded = ShardedDataset::open(&cfg.corpus_dir)?;
    let corpus_fingerprint = sharded.manifest().content_fingerprint();
    let corpus = open_split(
        &sharded,
        &featurizer,
        TrainConfig::default().batch_size,
        threads,
    )?;

    let mut candidates = Vec::with_capacity(cfg.candidates.max(1));
    for k in 0..cfg.candidates.max(1) {
        let train_cfg = TrainConfig {
            epochs: cfg.epochs,
            seed: k as u64,
            ..TrainConfig::default()
        };
        let mut model = warm.clone();
        train_stream(&mut model, &corpus.train, &corpus.val_set, &train_cfg);
        let (held_out, _preds) = HeldOutMetrics::evaluate(&model, &corpus.test_set);
        let candidate =
            ModelArtifact::new(model, featurizer.config(), corpus_fingerprint, held_out)
                .with_train_config(train_cfg);
        let dir = cfg.out_dir.join(format!("cand{k}"));
        candidate.save(&dir).map_err(io::Error::other)?;
        candidates.push(FlywheelCandidate {
            dir: dir.display().to_string(),
            weights_fingerprint: to_hex(candidate.weights_fingerprint()),
            seed: k as u64,
            held_out_mape: held_out.mape,
        });
    }

    Ok(FlywheelReport {
        incumbent_fingerprint: to_hex(incumbent_fp),
        window: cfg.window,
        wave_len: cfg.wave_len,
        queries,
        mispredicts,
        generation,
        corpus_fingerprint: to_hex(corpus_fingerprint),
        candidates,
    })
}
