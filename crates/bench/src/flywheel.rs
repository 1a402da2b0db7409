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
//! 4. **retrain** — two candidate artifacts are warm-started from the
//!    incumbent's weights (`dlcm_model::ModelArtifact::warm_start`) and
//!    trained over the *union* corpus, differing only in their
//!    minibatch-shuffle seed;
//! 5. **gate** — [`run_promotion`] (`modelctl promote --candidates`)
//!    ranks the saved candidates against a live incumbent over a
//!    mirrored window and swaps the winner in only if it is strictly
//!    better.
//!
//! Every stage is deterministic: the replay window is fixed-seed and
//! sequential, every first-seen row is checked, appended shards are
//! sorted by content key before dedup, and training is byte-deterministic — so
//! the same incumbent and corpus reproduce bit-identical generation
//! fingerprints and candidate weights at any `--threads` setting.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use dlcm_datagen::{
    append_generation, open_split, AppendSample, GenerationInfo, ProgramGenConfig,
    ProgramGenerator, ScheduleGenConfig, ScheduleGenerator, ShardedDataset,
};
use dlcm_eval::{Evaluator, ModelEvaluator, ParallelEvaluator, SyncEvaluator};
use dlcm_ir::fingerprint::to_hex;
use dlcm_ir::{Program, Schedule};
use dlcm_model::{train_stream, HeldOutMetrics, ModelArtifact, TrainConfig};
use dlcm_net::NetClient;
use dlcm_serve::{InferenceService, MispredictCounters, ServeConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use crate::harness;

/// Wave-seed bases reserved per replay driver, so no two of them ever
/// share a cache key: `loadgen` owns `client << 32`, the promotion gate
/// and the flywheel window own the two below.
const PROMOTE_WAVE_SEED: u64 = 0xAB00;
const FLYWHEEL_WAVE_SEED: u64 = 0xF1_0000;

/// Schedules per wave of the promotion and flywheel windows.
const WAVE_LEN: usize = 6;

/// Candidate artifacts one flywheel turn retrains, each under its own
/// minibatch-shuffle seed (`0..CANDIDATES`).
const CANDIDATES: usize = 2;

/// The replay traffic every driver sends — `loadgen`, the promotion
/// gate and the flywheel window — so served and in-process runs see the
/// same queries. Round `r` is a program of the fixed pool of eight
/// (`serve0`…`serve7`, seed 17), starting at `first_program` and cycling,
/// with up to `wave_len` distinct schedules of it drawn from seed
/// `seed_base + r`. Endless; callers `take` their window.
pub fn replay_window(
    seed_base: u64,
    first_program: usize,
    wave_len: usize,
) -> impl Iterator<Item = (Program, Vec<Schedule>)> {
    let generator = ProgramGenerator::new(ProgramGenConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let programs: Vec<Program> = (0..8)
        .map(|i| generator.generate(&mut rng, &format!("serve{i}")))
        .collect();
    let schedgen = ScheduleGenerator::new(ScheduleGenConfig::default());
    (0usize..).map(move |round| {
        let program = programs[(first_program + round) % programs.len()].clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed_base + round as u64);
        let wave = schedgen.generate_distinct(&program, wave_len, &mut rng);
        (program, wave)
    })
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
    /// Where the candidate artifacts land: `out_dir/cand0` and `cand1`.
    pub out_dir: PathBuf,
    /// Replay rounds in the serve window.
    pub window: usize,
    /// Warm-start retraining epochs per candidate.
    pub epochs: usize,
    /// Worker threads (wall-clock only, never results).
    pub threads: usize,
}

impl FlywheelConfig {
    /// The canonical flywheel over explicit paths, with a `quick`-scaled
    /// window and epoch count.
    pub fn new(artifact_dir: PathBuf, corpus_dir: PathBuf, out_dir: PathBuf, quick: bool) -> Self {
        Self {
            artifact_dir,
            corpus_dir,
            out_dir,
            window: if quick { 6 } else { 24 },
            epochs: if quick { 4 } else { 12 },
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
    // comes free, and the checked rows depend on content alone anyway.
    let service = InferenceService::from_artifact(
        artifact,
        ServeConfig {
            threads,
            ..ServeConfig::default()
        },
    );
    let truth = ParallelEvaluator::new(harness(), corpus_seed, threads);
    service.enable_mispredict_capture(Box::new(truth));
    let mut queries = 0usize;
    for (program, wave) in replay_window(FLYWHEEL_WAVE_SEED, 0, WAVE_LEN).take(cfg.window) {
        queries += wave.len();
        let (scores, _) = service.speedup_batch_shared(&program, &wave);
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

    let mut candidates = Vec::with_capacity(CANDIDATES);
    for k in 0..CANDIDATES {
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
        wave_len: WAVE_LEN,
        queries,
        mispredicts,
        generation,
        corpus_fingerprint: to_hex(corpus_fingerprint),
        candidates,
    })
}

/// One side of the promotion gate in `results/promotion.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PromotionSide {
    /// Weights fingerprint (hex) the server reported before the window.
    pub fingerprint: String,
    /// Window MAPE against simulated ground truth.
    pub mape_vs_ground_truth: f64,
    /// Informational only (wall-clock, machine-dependent): the verdict
    /// is computed purely from the deterministic score metrics.
    mean_latency_us: f64,
}

/// One ranked candidate of the promotion gate (report order = the order
/// the candidates were given in; `rank` 0 is the winner).
#[derive(Debug, Clone, Serialize)]
pub struct CandidateVerdict {
    dir: String,
    /// The candidate's weights fingerprint (hex).
    pub fingerprint: String,
    /// Position by window MAPE; ties resolve to the earlier candidate.
    pub rank: usize,
    /// Window MAPE against simulated ground truth.
    pub mape_vs_ground_truth: f64,
    mean_latency_us: f64,
    mean_abs_score_delta: f64,
    max_abs_score_delta: f64,
}

/// What [`run_promotion`] decided; `modelctl promote` prints it and
/// writes it to `results/promotion.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PromotionReport {
    addr: String,
    window_requests: usize,
    wave_len: usize,
    queries: usize,
    /// The model the server was serving during the window.
    pub incumbent: PromotionSide,
    /// Every candidate, in the order given.
    pub candidates: Vec<CandidateVerdict>,
    /// Weights fingerprint (hex) of the rank-0 candidate.
    pub winner_fingerprint: String,
    /// `"promote"` when the winner's window MAPE is strictly below the
    /// incumbent's, `"rollback"` otherwise.
    pub verdict: String,
    /// `"swapped"`, `"none"` (verdict was rollback) or `"dry-run"`.
    pub action: String,
    /// The fingerprint the server reported after the swap, when one
    /// happened.
    pub post_swap_fingerprint: Option<String>,
}

impl fmt::Display for PromotionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ranked: Vec<&CandidateVerdict> = self.candidates.iter().collect();
        ranked.sort_by_key(|c| c.rank);
        write!(
            f,
            "promotion verdict: {} (action: {}) over {} mirrored queries x {} candidates — \
             incumbent MAPE {:.4} ({:.0}us/req served), winner {} MAPE {:.4}",
            self.verdict,
            self.action,
            self.queries,
            ranked.len(),
            self.incumbent.mape_vs_ground_truth,
            self.incumbent.mean_latency_us,
            self.winner_fingerprint,
            ranked[0].mape_vs_ground_truth,
        )?;
        for c in ranked {
            write!(
                f,
                "\n  #{} {}: MAPE {:.4} ({:.0}us/req in-process), mean |Δscore| vs incumbent \
                 {:.4}, max {:.4}{}",
                c.rank,
                c.dir,
                c.mape_vs_ground_truth,
                c.mean_latency_us,
                c.mean_abs_score_delta,
                c.max_abs_score_delta,
                if c.rank == 0 { "  <- winner" } else { "" },
            )?;
        }
        Ok(())
    }
}

/// The shadow A/B promotion gate. A fixed-seed query window is mirrored
/// to the incumbent (served at `addr`, over the wire) and to every
/// artifact in `candidates` (in-process); all sides are scored against
/// the deterministic simulated-execution ground truth, candidates are
/// ranked by window MAPE (ties resolve to the earlier one), and the
/// winner is promoted — an atomic `Reload` plus a bit-identical post-swap
/// probe — only if its window error is strictly lower than the
/// incumbent's; `dry_run` records the verdict without swapping. Latency
/// is recorded but never decides: the verdict is a pure function of the
/// artifacts and the window, so two runs of the gate agree.
///
/// # Errors
///
/// An unloadable candidate, an unreachable or failing server, a refused
/// swap (the incumbent keeps serving) and a post-swap probe that does
/// not answer from the winner bit for bit.
pub fn run_promotion(
    addr: &str,
    candidates: &[PathBuf],
    window: usize,
    dry_run: bool,
) -> io::Result<PromotionReport> {
    // Each candidate's report row doubles as its accumulator: sums over
    // the window first, normalized once the ranking is known.
    let mut cands = candidates
        .iter()
        .map(|dir| {
            // The server resolves the winner's path on *its* filesystem;
            // send it absolute so the swap does not depend on the
            // server's working directory.
            let dir = dir.canonicalize().unwrap_or_else(|_| dir.clone());
            let artifact = ModelArtifact::load(&dir).map_err(io::Error::other)?;
            let row = CandidateVerdict {
                dir: dir.display().to_string(),
                fingerprint: to_hex(artifact.weights_fingerprint()),
                rank: 0,
                mape_vs_ground_truth: 0.0,
                mean_latency_us: 0.0,
                mean_abs_score_delta: 0.0,
                max_abs_score_delta: 0.0,
            };
            Ok((artifact, row))
        })
        .collect::<io::Result<Vec<(ModelArtifact, CandidateVerdict)>>>()?;
    if cands.is_empty() {
        return Err(io::Error::other("the gate needs at least one candidate"));
    }
    let score = |artifact: &ModelArtifact, program: &Program, wave: &[Schedule]| {
        ModelEvaluator::new(artifact.model(), artifact.featurizer()).speedup_batch(program, wave)
    };
    // Paper-protocol measurement harness under a fixed seed: the ground
    // truth for the window is deterministic, so the verdict is too.
    let mut truth_eval = ParallelEvaluator::new(harness(), 0, 1);
    let mut client = NetClient::connect(addr)?;
    let mut incumbent = PromotionSide {
        fingerprint: client.model_info().map_err(io::Error::other)?.fingerprint,
        mape_vs_ground_truth: 0.0,
        mean_latency_us: 0.0,
    };
    for (program, wave) in replay_window(PROMOTE_WAVE_SEED, 0, WAVE_LEN).take(window) {
        let sent = Instant::now();
        let served = client.speedups(&program, &wave).map_err(io::Error::other)?;
        incumbent.mean_latency_us += sent.elapsed().as_secs_f64() * 1e6;
        let truth = truth_eval.speedup_batch(&program, &wave);
        for (i, t) in served.iter().zip(&truth) {
            incumbent.mape_vs_ground_truth += (i - t).abs() / t;
        }
        for (artifact, row) in &mut cands {
            let sent = Instant::now();
            let scores = score(artifact, &program, &wave);
            row.mean_latency_us += sent.elapsed().as_secs_f64() * 1e6;
            for ((c, i), t) in scores.iter().zip(&served).zip(&truth) {
                row.mape_vs_ground_truth += (c - t).abs() / t;
                let delta = (c - i).abs();
                row.mean_abs_score_delta += delta;
                row.max_abs_score_delta = row.max_abs_score_delta.max(delta);
            }
        }
    }
    // The one ranking: a stable sort by summed window error, so equal
    // candidates keep the order they were given in.
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by(|&a, &b| {
        let err = |i: usize| cands[i].1.mape_vs_ground_truth;
        err(a).total_cmp(&err(b))
    });
    let queries = window * WAVE_LEN;
    incumbent.mape_vs_ground_truth /= queries as f64;
    incumbent.mean_latency_us /= window as f64;
    for (rank, &i) in order.iter().enumerate() {
        let row = &mut cands[i].1;
        row.rank = rank;
        row.mape_vs_ground_truth /= queries as f64;
        row.mean_latency_us /= window as f64;
        row.mean_abs_score_delta /= queries as f64;
    }
    let (winner_artifact, winner) = &cands[order[0]];

    let promote = winner.mape_vs_ground_truth < incumbent.mape_vs_ground_truth;
    let (action, post_swap_fingerprint) = if dry_run {
        ("dry-run", None)
    } else if promote {
        let info = client.reload(&winner.dir).map_err(|e| {
            io::Error::other(format!("swap refused ({e}); the incumbent keeps serving"))
        })?;
        // Post-swap probe: the first window request, replayed through
        // the server, must now answer from the winner bit for bit.
        let (program, wave) = replay_window(PROMOTE_WAVE_SEED, 0, WAVE_LEN)
            .next()
            .expect("the replay window is endless");
        let served = client.speedups(&program, &wave).map_err(io::Error::other)?;
        let expected = score(winner_artifact, &program, &wave);
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<u64>>();
        if bits(&served) != bits(&expected) {
            return Err(io::Error::other(format!(
                "post-swap probe MISMATCH: served {served:?} vs winner {expected:?}"
            )));
        }
        ("swapped", Some(info.fingerprint))
    } else {
        ("none", None)
    };

    Ok(PromotionReport {
        addr: addr.to_string(),
        window_requests: window,
        wave_len: WAVE_LEN,
        queries,
        incumbent,
        winner_fingerprint: winner.fingerprint.clone(),
        verdict: if promote { "promote" } else { "rollback" }.into(),
        action: action.into(),
        post_swap_fingerprint,
        candidates: cands.into_iter().map(|(_, row)| row).collect(),
    })
}
