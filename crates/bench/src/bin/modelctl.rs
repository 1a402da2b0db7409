//! Model-artifact lifecycle CLI: train → inspect → validate → serve.
//!
//! The trained cost model is a first-class, versioned on-disk artifact
//! (`dlcm_model::ModelArtifact`); this binary manages it end to end:
//!
//! - `train` — run the canonical training pipeline (sharded corpus,
//!   streamed minibatches) and save the artifact;
//! - `info` — print a saved artifact's manifest (schema, provenance,
//!   held-out metrics) without deserializing the weights into a model;
//! - `eval` — reload a saved artifact, re-evaluate it on the held-out
//!   split of its training corpus, and **fail unless the stored metrics
//!   reproduce exactly** (evaluation is deterministic, so any drift
//!   means the artifact does not describe these weights);
//! - `serve --listen ADDR` — put a `dlcm_serve::InferenceService` over
//!   the artifact on a TCP socket via `dlcm_net::NetServer` and run in
//!   the foreground until a client
//!   sends the protocol's `Shutdown` frame (which `loadgen --shutdown`
//!   does), then drain and print the final serving counters. Drive it
//!   with the `loadgen` binary or any `dlcm_net::NetClient`;
//! - `reload ADDR --artifact DIR` — hot-swap a **running** server onto
//!   the artifact at `DIR` (a path on the server's filesystem) without
//!   dropping connections. A rejected reload (corrupt artifact,
//!   mismatched featurizer schema, mid-drain) exits nonzero and the
//!   incumbent keeps serving;
//! - `promote ADDR --artifact DIR` — the shadow A/B gate: mirror a
//!   fixed-seed query window to the incumbent (over the wire) and every
//!   candidate (in-process), compare all of them against deterministic
//!   simulated ground truth, rank the candidates by window MAPE, and
//!   promote the winner — an atomic `Reload` plus a bit-identical
//!   post-swap probe — only if it scores strictly better than the
//!   incumbent. `--candidates DIR1,DIR2,…` gates several artifacts in
//!   one window (e.g. a flywheel's retrained cohort); the decision and
//!   every side's metrics land in `results/promotion.json`; `--dry-run`
//!   records the verdict without swapping;
//! - `flywheel` — close the data loop in-process: serve a fixed-seed
//!   replay window from the incumbent with mispredict capture on, drain
//!   the WARN+ divergences into a new corpus generation, warm-start
//!   retrain N candidate artifacts over the union corpus, and write
//!   `results/flywheel.json`. The candidates land in `--out DIR`
//!   (default `results/flywheel/candN`), ready for
//!   `promote --candidates`.
//!
//! ```text
//! modelctl train [--quick] [--threads N] [--shards K] [--epochs N] [--out DIR]
//! modelctl info  [--artifact DIR]
//! modelctl eval  [--quick] [--threads N] [--artifact DIR]
//! modelctl serve --listen ADDR [--artifact DIR] [--threads N] [--cache-capacity N]
//!                [--max-connections N] [--max-in-flight N]
//! modelctl reload ADDR --artifact DIR
//! modelctl promote ADDR [--artifact DIR | --candidates DIR1,DIR2,...] [--window N]
//!                  [--dry-run] [--quick]
//! modelctl flywheel [--artifact DIR] [--corpus DIR] [--out DIR] [--candidates N]
//!                   [--window N] [--epochs N] [--sample-every N] [--capacity N]
//!                   [--quick] [--threads N]
//! ```
//!
//! `DIR` defaults to `results/model_artifact` (what `train` and
//! `exp_accuracy` write); `ADDR` defaults to `127.0.0.1:7199`
//! (loadgen's default) and may also be passed as `--addr ADDR`.

use std::path::PathBuf;
use std::time::Instant;

use dlcm_bench::harness;
use dlcm_bench::{
    accuracy_report, corpus_dir, evaluate_artifact, load_artifact, model_artifact_dir,
    positive_flag, quick_mode, replay_programs, replay_wave, results_dir, run_flywheel, shards,
    string_flag, threads, train_from_corpus, write_json, FlywheelConfig,
};
use dlcm_eval::{Evaluator, ExecutionEvaluator, ModelEvaluator};
use dlcm_ir::fingerprint::to_hex;
use dlcm_model::{CostModel, Featurizer};
use dlcm_net::{NetClient, NetConfig, NetServer};
use dlcm_serve::{InferenceService, ServeConfig};
use serde::Serialize;

fn artifact_dir_arg() -> PathBuf {
    string_flag("artifact")
        .or_else(|| string_flag("out"))
        .map_or_else(model_artifact_dir, PathBuf::from)
}

/// The `ADDR` for `reload`/`promote`: `--addr HOST:PORT`, or the first
/// positional that looks like one, defaulting to loadgen's port.
fn addr_arg() -> String {
    string_flag("addr")
        .or_else(|| {
            std::env::args()
                .skip(2)
                .find(|a| !a.starts_with("--") && a.contains(':'))
        })
        .unwrap_or_else(|| "127.0.0.1:7199".into())
}

fn main() {
    let command = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_default();
    match command.as_str() {
        "train" => train(),
        "info" => info(),
        "eval" => eval(),
        "serve" => serve(),
        "reload" => reload(),
        "promote" => promote(),
        "flywheel" => flywheel(),
        other => {
            eprintln!("unknown or missing subcommand {other:?}");
            eprintln!(
                "usage: modelctl <train|info|eval|serve|reload|promote|flywheel> [options]  \
                 (see --bin modelctl docs)"
            );
            std::process::exit(2);
        }
    }
}

fn train() {
    let quick = quick_mode();
    let threads = threads();
    let epochs = positive_flag("epochs", if quick { 8 } else { 60 });
    let out = artifact_dir_arg();
    eprintln!("=== modelctl train (quick={quick}, threads={threads}, epochs={epochs}) ===");
    let (artifact, _evaluation) = train_from_corpus(quick, threads, shards(), epochs);
    artifact.save(&out).expect("save model artifact");
    let m = artifact.manifest();
    println!(
        "saved model artifact to {out:?}: corpus {}, test MAPE {:.3}, Pearson {:.3}, \
         Spearman {:.3} over {} held-out points",
        m.corpus_fingerprint,
        m.metrics.mape,
        m.metrics.pearson,
        m.metrics.spearman,
        m.metrics.test_points
    );
}

fn info() {
    let dir = artifact_dir_arg();
    let artifact = load_artifact(&dir);
    let m = artifact.manifest();
    println!(
        "{}",
        serde_json::to_string_pretty(m).expect("manifest serialization")
    );
    println!(
        "weights: {} trainable scalars ({} -> embedding {} -> speedup)",
        artifact.model().num_params(),
        m.model_config.input_dim,
        m.model_config.hidden(),
    );
}

fn eval() {
    let quick = quick_mode();
    let threads = threads();
    let dir = artifact_dir_arg();
    eprintln!("=== modelctl eval (quick={quick}, threads={threads}, artifact={dir:?}) ===");
    let artifact = load_artifact(&dir);
    let evaluation = evaluate_artifact(&artifact, quick, threads, shards());
    let held_out = evaluation.metrics;
    let stored = artifact.manifest().metrics;
    println!("{:<12} {:>12} {:>12}", "metric", "manifest", "re-eval");
    for (name, a, b) in [
        ("MAPE", stored.mape, held_out.mape),
        ("Pearson", stored.pearson, held_out.pearson),
        ("Spearman", stored.spearman, held_out.spearman),
        ("R^2", stored.r2, held_out.r2),
    ] {
        println!("{name:<12} {a:>12.6} {b:>12.6}");
    }
    if held_out != stored {
        eprintln!(
            "modelctl eval FAILED: re-evaluated metrics do not reproduce the manifest \
             (the artifact does not describe these weights, or the corpus changed)"
        );
        std::process::exit(1);
    }
    // Same report builder as exp_accuracy: the emitted accuracy.json is
    // byte-identical to a training/reuse run over the same artifact and
    // corpus (CI diffs them).
    let epochs = artifact.manifest().train.as_ref().map_or(0, |t| t.epochs);
    let rep = accuracy_report(&evaluation, epochs);
    println!(
        "{:<20} {:>6} {:>9} {:>8} {:>8}",
        "family", "points", "MAPE%", "R^2", "rho"
    );
    for row in &rep.per_family {
        println!(
            "{:<20} {:>6} {:>9.1} {:>8.3} {:>8.3}",
            row.family,
            row.test_points,
            100.0 * row.mape,
            row.r2,
            row.spearman
        );
    }
    write_json("accuracy.json", &rep);
    println!(
        "artifact validated: {} held-out points reproduce the manifest metrics exactly",
        held_out.test_points
    );
}

fn serve() {
    match string_flag("listen") {
        Some(addr) => serve_listen(&addr),
        None => {
            eprintln!(
                "usage: modelctl serve --listen ADDR [--artifact DIR] [--threads N] \
                 [--cache-capacity N] [--max-connections N] [--max-in-flight N]"
            );
            std::process::exit(2);
        }
    }
}

fn connect(addr: &str, verb: &str) -> NetClient {
    NetClient::connect(addr).unwrap_or_else(|e| {
        eprintln!("modelctl {verb}: cannot connect to {addr}: {e}");
        std::process::exit(1);
    })
}

/// `reload ADDR --artifact DIR`: hot-swap a running server onto a new
/// artifact. Any refusal — corrupt artifact, schema mismatch, mid-drain
/// — exits nonzero with the server's typed reason; the incumbent keeps
/// serving either way.
fn reload() {
    let addr = addr_arg();
    let dir = artifact_dir_arg();
    // The server resolves this path on *its* filesystem; send it
    // absolute so the swap does not depend on the server's working
    // directory (this CLI targets the same-host CI/dev shape).
    let dir = dir.canonicalize().unwrap_or(dir);
    eprintln!("=== modelctl reload (addr={addr}, artifact={dir:?}) ===");
    let mut client = connect(&addr, "reload");
    let before = client.model_info().expect("model info");
    match client.reload(dir.to_str().expect("utf-8 artifact path")) {
        Ok(info) => println!(
            "reloaded {addr}: model {} -> {} (swap #{})",
            before.fingerprint, info.fingerprint, info.model_swaps
        ),
        Err(e) => {
            eprintln!("modelctl reload REFUSED ({e}); the incumbent model keeps serving");
            std::process::exit(1);
        }
    }
}

/// One side of the promotion gate in `results/promotion.json`.
#[derive(Serialize)]
struct PromotionSide {
    fingerprint: String,
    mape_vs_ground_truth: f64,
    /// Informational only (wall-clock, machine-dependent): the verdict
    /// is computed purely from the deterministic score metrics.
    mean_latency_us: f64,
}

/// One ranked candidate of the promotion gate (report order = CLI
/// order; `rank` 0 is the winner).
#[derive(Serialize)]
struct CandidateVerdict {
    dir: String,
    fingerprint: String,
    rank: usize,
    mape_vs_ground_truth: f64,
    mean_latency_us: f64,
    mean_abs_score_delta: f64,
    max_abs_score_delta: f64,
}

/// What `promote` writes to `results/promotion.json`.
#[derive(Serialize)]
struct PromotionReport {
    addr: String,
    window_requests: usize,
    wave_len: usize,
    queries: usize,
    incumbent: PromotionSide,
    candidates: Vec<CandidateVerdict>,
    winner_fingerprint: String,
    verdict: String,
    action: String,
    post_swap_fingerprint: Option<String>,
}

/// In-flight accumulation for one candidate artifact during the window.
struct CandState {
    dir: PathBuf,
    fingerprint: String,
    model: CostModel,
    featurizer: Featurizer,
    err: f64,
    us: f64,
    delta_sum: f64,
    delta_max: f64,
    probe: Option<Vec<f64>>,
}

/// `promote ADDR [--artifact DIR | --candidates DIR1,DIR2,…]`: the
/// shadow A/B gate. A fixed-seed query window is mirrored to the
/// incumbent (served, over the wire) and every candidate (in-process);
/// all sides are scored against the deterministic simulated-execution
/// ground truth, candidates are ranked by window MAPE (ties resolve to
/// the earlier CLI position), and the winner is promoted — an atomic
/// `Reload` plus a bit-identical post-swap probe — only if its window
/// error is strictly lower than the incumbent's. Latency is recorded
/// but never decides: the verdict is a pure function of the artifacts
/// and the window, so two runs of the gate agree.
fn promote() {
    let addr = addr_arg();
    let quick = quick_mode();
    let dry_run = std::env::args().any(|a| a == "--dry-run");
    let window = positive_flag("window", if quick { 6 } else { 24 });
    let wave_len = 6;
    let cand_dirs: Vec<PathBuf> = match string_flag("candidates") {
        Some(list) => list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(PathBuf::from)
            .collect(),
        None => vec![artifact_dir_arg()],
    };
    if cand_dirs.is_empty() {
        eprintln!("modelctl promote: --candidates needs at least one artifact directory");
        std::process::exit(2);
    }
    eprintln!(
        "=== modelctl promote (addr={addr}, candidates={cand_dirs:?}, window={window}, \
         dry_run={dry_run}) ==="
    );

    let mut cands: Vec<CandState> = cand_dirs
        .into_iter()
        .map(|dir| {
            let dir = dir.canonicalize().unwrap_or(dir);
            let artifact = load_artifact(&dir);
            CandState {
                fingerprint: to_hex(artifact.weights_fingerprint()),
                featurizer: artifact.featurizer(),
                model: artifact.into_model(),
                dir,
                err: 0.0,
                us: 0.0,
                delta_sum: 0.0,
                delta_max: 0.0,
                probe: None,
            }
        })
        .collect();
    // Paper-protocol measurement harness under a fixed seed: the ground
    // truth for the window is deterministic, so the verdict is too.
    let mut truth_eval = ExecutionEvaluator::new(harness(), 0);

    let mut client = connect(&addr, "promote");
    let incumbent_fp = client.model_info().expect("model info").fingerprint;
    for cand in &cands {
        if cand.fingerprint == incumbent_fp {
            eprintln!(
                "modelctl promote: candidate {:?} is the incumbent ({incumbent_fp}); it can \
                 rank but never strictly beat itself",
                cand.dir
            );
        }
    }

    // Mirrored traffic: the shared replay pool with promote-reserved
    // wave seeds, so the window never collides with loadgen's keys and
    // replays identically across runs.
    let programs = replay_programs();

    let mut incumbent_err = 0.0f64;
    let mut incumbent_us = 0.0f64;
    let mut probe_wave: Option<(dlcm_ir::Program, Vec<dlcm_ir::Schedule>)> = None;
    for round in 0..window {
        let program = &programs[round % programs.len()];
        let wave = replay_wave(program, wave_len, 0xAB00 + round as u64);

        let sent = Instant::now();
        let incumbent = client.speedups(program, &wave).unwrap_or_else(|e| {
            eprintln!("modelctl promote: incumbent query failed: {e}");
            std::process::exit(1);
        });
        incumbent_us += sent.elapsed().as_secs_f64() * 1e6;
        let truth = truth_eval.speedup_batch(program, &wave);
        for (i, t) in incumbent.iter().zip(&truth) {
            incumbent_err += (i - t).abs() / t;
        }

        for cand in &mut cands {
            let sent = Instant::now();
            let scores = ModelEvaluator::new(&cand.model, cand.featurizer.clone())
                .speedup_batch(program, &wave);
            cand.us += sent.elapsed().as_secs_f64() * 1e6;
            for ((c, i), t) in scores.iter().zip(&incumbent).zip(&truth) {
                cand.err += (c - t).abs() / t;
                let delta = (c - i).abs();
                cand.delta_sum += delta;
                cand.delta_max = cand.delta_max.max(delta);
            }
            if cand.probe.is_none() {
                cand.probe = Some(scores);
            }
        }
        if probe_wave.is_none() {
            probe_wave = Some((program.clone(), wave));
        }
    }
    let queries = window * wave_len;
    let incumbent_mape = incumbent_err / queries as f64;

    // Rank by window MAPE; `min_by` keeps the first of equals, so ties
    // resolve to the earlier CLI position deterministically.
    let winner = cands
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.err.partial_cmp(&b.err).expect("finite window error"))
        .map(|(i, _)| i)
        .expect("at least one candidate");
    let winner_mape = cands[winner].err / queries as f64;
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by(|&a, &b| {
        cands[a]
            .err
            .partial_cmp(&cands[b].err)
            .expect("finite window error")
            .then(a.cmp(&b))
    });
    let rank_of = |i: usize| order.iter().position(|&j| j == i).expect("ranked");

    let promote = winner_mape < incumbent_mape;
    let verdict = if promote { "promote" } else { "rollback" };
    let (action, post_swap_fingerprint) = if dry_run {
        ("dry-run", None)
    } else if promote {
        let info = client
            .reload(cands[winner].dir.to_str().expect("utf-8 artifact path"))
            .unwrap_or_else(|e| {
                eprintln!("modelctl promote: swap refused ({e}); the incumbent keeps serving");
                std::process::exit(1);
            });
        // Post-swap probe: the first window request, replayed through
        // the server, must now answer from the winner bit-for-bit.
        let (program, wave) = probe_wave.as_ref().expect("window is nonempty");
        let expected = cands[winner].probe.as_ref().expect("window is nonempty");
        let served = client.speedups(program, wave).unwrap_or_else(|e| {
            eprintln!("modelctl promote: post-swap probe failed: {e}");
            std::process::exit(1);
        });
        let served_bits: Vec<u64> = served.iter().map(|s| s.to_bits()).collect();
        let expected_bits: Vec<u64> = expected.iter().map(|s| s.to_bits()).collect();
        if served_bits != expected_bits {
            eprintln!(
                "modelctl promote: post-swap probe MISMATCH: served {served:?} vs winner \
                 {expected:?}"
            );
            std::process::exit(1);
        }
        ("swapped", Some(info.fingerprint))
    } else {
        ("none", None)
    };

    let report = PromotionReport {
        addr: addr.clone(),
        window_requests: window,
        wave_len,
        queries,
        incumbent: PromotionSide {
            fingerprint: incumbent_fp,
            mape_vs_ground_truth: incumbent_mape,
            mean_latency_us: incumbent_us / window as f64,
        },
        candidates: cands
            .iter()
            .enumerate()
            .map(|(i, cand)| CandidateVerdict {
                dir: cand.dir.display().to_string(),
                fingerprint: cand.fingerprint.clone(),
                rank: rank_of(i),
                mape_vs_ground_truth: cand.err / queries as f64,
                mean_latency_us: cand.us / window as f64,
                mean_abs_score_delta: cand.delta_sum / queries as f64,
                max_abs_score_delta: cand.delta_max,
            })
            .collect(),
        winner_fingerprint: cands[winner].fingerprint.clone(),
        verdict: verdict.into(),
        action: action.into(),
        post_swap_fingerprint,
    };
    println!(
        "promotion verdict: {verdict} (action: {action}) over {queries} mirrored queries x {} \
         candidates — incumbent MAPE {:.4} ({:.0}us/req served), winner {} MAPE {:.4}",
        report.candidates.len(),
        report.incumbent.mape_vs_ground_truth,
        report.incumbent.mean_latency_us,
        report.winner_fingerprint,
        winner_mape,
    );
    for &i in &order {
        let c = &report.candidates[i];
        println!(
            "  #{} {}: MAPE {:.4} ({:.0}us/req in-process), mean |Δscore| vs incumbent {:.4}, \
             max {:.4}{}",
            c.rank,
            c.dir,
            c.mape_vs_ground_truth,
            c.mean_latency_us,
            c.mean_abs_score_delta,
            c.max_abs_score_delta,
            if i == winner { "  <- winner" } else { "" },
        );
    }
    write_json("promotion.json", &report);
}

/// `flywheel`: the whole data loop in one command — serve a fixed-seed
/// replay window from the incumbent with mispredict capture on, append
/// the drained WARN+ rows to the corpus as a new generation, warm-start
/// retrain N candidates over the union corpus, and write
/// `results/flywheel.json`. Hand the candidates to
/// `promote --candidates` to close the loop.
fn flywheel() {
    let quick = quick_mode();
    let artifact = string_flag("artifact").map_or_else(model_artifact_dir, PathBuf::from);
    let corpus = string_flag("corpus").map_or_else(corpus_dir, PathBuf::from);
    let out = string_flag("out").map_or_else(|| results_dir().join("flywheel"), PathBuf::from);
    let mut cfg = FlywheelConfig::new(artifact, corpus, out, quick);
    cfg.threads = threads();
    cfg.candidates = positive_flag("candidates", cfg.candidates);
    cfg.window = positive_flag("window", cfg.window);
    cfg.epochs = positive_flag("epochs", cfg.epochs);
    cfg.sample_every = positive_flag("sample-every", cfg.sample_every as usize) as u64;
    cfg.capacity = positive_flag("capacity", cfg.capacity);
    eprintln!(
        "=== modelctl flywheel (artifact={:?}, corpus={:?}, out={:?}, candidates={}, \
         window={}, epochs={}, sample_every={}, capacity={}, threads={}) ===",
        cfg.artifact_dir,
        cfg.corpus_dir,
        cfg.out_dir,
        cfg.candidates,
        cfg.window,
        cfg.epochs,
        cfg.sample_every,
        cfg.capacity,
        cfg.threads,
    );
    let report = run_flywheel(&cfg).unwrap_or_else(|e| {
        eprintln!("modelctl flywheel failed: {e}");
        std::process::exit(1);
    });
    println!(
        "flywheel: served {} queries from incumbent {}, checked {} ({} WARN / {} HIGH / {} \
         CRITICAL, {} logged, {} dropped); generation {} appended {} points ({} duplicates \
         dropped, chain {}); {} candidates retrained over corpus {}",
        report.queries,
        report.incumbent_fingerprint,
        report.mispredicts.checked,
        report.mispredicts.warn,
        report.mispredicts.high,
        report.mispredicts.critical,
        report.mispredicts.logged,
        report.mispredicts.dropped,
        report.generation.id,
        report.generation.num_points,
        report.generation.duplicates_dropped,
        report.generation.chain,
        report.candidates.len(),
        report.corpus_fingerprint,
    );
    for cand in &report.candidates {
        println!(
            "  {} (seed {}): weights {}, held-out MAPE {:.4}",
            cand.dir, cand.seed, cand.weights_fingerprint, cand.held_out_mape
        );
    }
    write_json("flywheel.json", &report);
}

/// `serve --listen ADDR`: the artifact on a TCP socket, in the
/// foreground, until a client's `Shutdown` frame drains it.
fn serve_listen(addr: &str) {
    let threads = threads();
    let dir = artifact_dir_arg();
    let net_cfg = NetConfig {
        max_connections: positive_flag("max-connections", NetConfig::default().max_connections),
        max_in_flight: positive_flag("max-in-flight", NetConfig::default().max_in_flight),
        ..NetConfig::default()
    };
    let serve_cfg = ServeConfig {
        threads,
        cache_capacity: positive_flag("cache-capacity", ServeConfig::default().cache_capacity),
        ..ServeConfig::default()
    };
    eprintln!(
        "=== modelctl serve --listen {addr} (artifact={dir:?}, threads={threads}, \
         cache_capacity={}, max_connections={}, max_in_flight={}) ===",
        serve_cfg.cache_capacity, net_cfg.max_connections, net_cfg.max_in_flight
    );
    let artifact = load_artifact(&dir);
    let service = InferenceService::from_artifact(artifact, serve_cfg);
    let server = NetServer::bind(service, addr, net_cfg).expect("bind listen address");
    // The parseable readiness line load generators wait for.
    println!("listening on {}", server.local_addr());
    server.wait_for_shutdown();
    let report = server.shutdown();
    println!(
        "drained: {} queries over {} connections ({} requests), {:.0}% cache hits, \
         {} evictions, rejected {} overload / {} deadline, {} deadlines missed",
        report.serve.queries,
        report.net.connections_accepted,
        report.net.requests,
        100.0 * report.serve.hit_rate,
        report.serve.cache_evictions,
        report.serve.rejected_overload,
        report.serve.rejected_deadline,
        report.serve.deadline_missed,
    );
}
