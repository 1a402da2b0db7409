//! Model-artifact lifecycle CLI: train → inspect → validate → serve.
//!
//! The trained cost model is a first-class, versioned on-disk artifact
//! (`dlcm_model::ModelArtifact`); this binary manages it end to end:
//!
//! - `train` — run the canonical training pipeline (sharded corpus,
//!   streamed minibatches), save the artifact to
//!   `results/model_artifact/` (or `--out DIR`) and check that reloading
//!   it reproduces the trained model's predictions bit for bit;
//! - `info` — print a saved artifact's manifest (schema, provenance,
//!   held-out metrics) without deserializing the weights into a model;
//! - `eval` — reload a saved artifact, re-evaluate it on the held-out
//!   split of its training corpus, and **fail unless the stored metrics
//!   reproduce exactly** (evaluation is deterministic, so any drift
//!   means the artifact does not describe these weights), printing the
//!   §6 headline metrics beside the paper's; then write them, with the
//!   per-family breakdown, to `results/accuracy.json`;
//! - `reproduce` — the paper's evaluation in one process: train and
//!   save the artifact exactly as `train` does (same epochs as `train`'s
//!   default), then, from that one in-memory artifact and held-out
//!   evaluation, run the §6 accuracy (the report `eval` writes), Figures
//!   4–8, Table 2, the Halide comparison and the §4.4 ablation, and
//!   write every number to the ledger `RESULTS.md` + `RESULTS.json`
//!   (`dlcm_bench::Ledger`), beside the per-point CSVs of Figures 4, 5,
//!   7 and 8. Every file is byte-identical at any `--threads`;
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
//!   replay window from the incumbent, check each first-seen row against
//!   ground truth, append the WARN+ divergences as a new corpus
//!   generation, warm-start retrain two candidate artifacts over the
//!   union corpus, and write `results/flywheel.json`. The candidates land in `--out DIR`
//!   (default `results/flywheel/cand0` and `cand1`), ready for
//!   `promote --candidates`.
//!
//! ```text
//! modelctl train [--quick] [--threads N] [--epochs N] [--out DIR]
//! modelctl info  [--artifact DIR]
//! modelctl eval  [--quick] [--threads N] [--artifact DIR]
//! modelctl reproduce [--quick] [--threads N]
//! modelctl serve --listen ADDR [--artifact DIR] [--threads N] [--cache-capacity N]
//!                [--max-connections N]
//! modelctl reload [ADDR | --addr ADDR] --artifact DIR
//! modelctl promote [ADDR | --addr ADDR] [--artifact DIR | --candidates DIR1,DIR2,...]
//!                  [--window N] [--dry-run] [--quick]
//! modelctl flywheel [--artifact DIR] [--corpus DIR] [--out DIR] [--window N]
//!                   [--epochs N] [--quick] [--threads N]
//! ```
//!
//! `DIR` defaults to `results/model_artifact` (what `train` writes);
//! `ADDR` defaults to `127.0.0.1:7199` (loadgen's default). The
//! subcommand comes first; these lines are also what the parser accepts
//! (`dlcm_bench::Flags`), so a flag the subcommand does not list, or a
//! stray argument, is a usage error (exit 2).

use std::path::{Path, PathBuf};

use dlcm_bench::{
    accuracy_report, corpus_dir, evaluate_artifact, load_artifact, model_artifact_dir, results_dir,
    run_flywheel, run_promotion, train_from_corpus, write_json, Evaluation, Flags, FlywheelConfig,
};
use dlcm_model::{evaluate, ModelArtifact};
use dlcm_net::{NetClient, NetConfig, NetServer};
use dlcm_serve::{InferenceService, ServeConfig};

const TRAIN: &str = "modelctl train [--quick] [--threads N] [--epochs N] [--out DIR]";
const INFO: &str = "modelctl info [--artifact DIR]";
const EVAL: &str = "modelctl eval [--quick] [--threads N] [--artifact DIR]";
const REPRODUCE: &str = "modelctl reproduce [--quick] [--threads N]";
const SERVE: &str = "modelctl serve --listen ADDR [--artifact DIR] [--threads N] \
                     [--cache-capacity N] [--max-connections N]";
const RELOAD: &str = "modelctl reload [ADDR | --addr ADDR] --artifact DIR";
const PROMOTE: &str = "modelctl promote [ADDR | --addr ADDR] \
                       [--artifact DIR | --candidates DIR1,DIR2,...] [--window N] [--dry-run] \
                       [--quick]";
const FLYWHEEL: &str = "modelctl flywheel [--artifact DIR] [--corpus DIR] [--out DIR] \
                        [--window N] [--epochs N] [--quick] [--threads N]";

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let parse = |usage| Flags::parse(args, usage);
    match command.as_str() {
        "train" => train(parse(TRAIN)),
        "info" => info(parse(INFO)),
        "eval" => eval(parse(EVAL)),
        "reproduce" => reproduce(parse(REPRODUCE)),
        "serve" => serve(parse(SERVE)),
        "reload" => reload(parse(RELOAD)),
        "promote" => promote(parse(PROMOTE)),
        "flywheel" => flywheel(parse(FLYWHEEL)),
        other => {
            eprintln!("unknown or missing subcommand {other:?}");
            eprintln!(
                "usage: modelctl <train|info|eval|reproduce|serve|reload|promote|flywheel> [options]  \
                 (see --bin modelctl docs)"
            );
            std::process::exit(2);
        }
    }
}

/// `--<flag> DIR`, defaulting to `results/model_artifact`.
fn artifact_dir(flags: &Flags, flag: &str) -> PathBuf {
    flags
        .string(flag)
        .map_or_else(model_artifact_dir, PathBuf::from)
}

/// The `ADDR` of `reload`/`promote`: `--addr HOST:PORT` or the bare
/// argument, defaulting to loadgen's port.
fn addr_of(flags: &Flags) -> String {
    flags
        .string("addr")
        .or(flags.positional(0))
        .unwrap_or("127.0.0.1:7199")
        .to_string()
}

/// Training epochs when `--epochs` is not passed (and always for
/// `reproduce`).
fn default_epochs(quick: bool) -> usize {
    if quick {
        8
    } else {
        60
    }
}

fn train(flags: Flags) {
    let quick = flags.has("quick");
    let threads = flags.positive("threads", 1);
    let epochs = flags.positive("epochs", default_epochs(quick));
    let out = artifact_dir(&flags, "out");
    eprintln!("=== modelctl train (quick={quick}, threads={threads}, epochs={epochs}) ===");
    train_and_save(quick, threads, epochs, &out);
}

/// The one training path: train on the canonical corpus, save the
/// artifact to `out` and assert that reloading it reproduces the trained
/// model's predictions bit for bit.
fn train_and_save(
    quick: bool,
    threads: usize,
    epochs: usize,
    out: &Path,
) -> (ModelArtifact, Evaluation) {
    let (artifact, evaluation) = train_from_corpus(quick, threads, epochs);
    artifact.save(out).expect("save model artifact");
    let reloaded = ModelArtifact::load(out).expect("reload saved artifact");
    assert_eq!(
        evaluation.test_preds,
        evaluate(reloaded.model(), &evaluation.test_set).1,
        "reloaded artifact must reproduce in-memory predictions bit-identically"
    );
    let m = artifact.manifest();
    eprintln!(
        "saved model artifact to {out:?} (round trip verified): corpus {}, test MAPE {:.3}, \
         Pearson {:.3}, Spearman {:.3} over {} held-out points",
        m.corpus_fingerprint,
        m.metrics.mape,
        m.metrics.pearson,
        m.metrics.spearman,
        m.metrics.test_points
    );
    (artifact, evaluation)
}

/// `reproduce`: the whole chain in one process — train and save the
/// artifact as `train` does, run every experiment on it
/// (`dlcm_bench::reproduce`) and write the ledger.
fn reproduce(flags: Flags) {
    let quick = flags.has("quick");
    let threads = flags.positive("threads", 1);
    let epochs = default_epochs(quick);
    eprintln!("=== modelctl reproduce (quick={quick}, threads={threads}, epochs={epochs}) ===");
    let (artifact, evaluation) = train_and_save(quick, threads, epochs, &model_artifact_dir());
    let ledger = dlcm_bench::reproduce(quick, threads, &artifact, &evaluation, epochs);
    ledger.write();
    println!("{}", ledger.markdown());
}

fn info(flags: Flags) {
    let artifact = load_artifact(&artifact_dir(&flags, "artifact"));
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

fn eval(flags: Flags) {
    let quick = flags.has("quick");
    let threads = flags.positive("threads", 1);
    let dir = artifact_dir(&flags, "artifact");
    eprintln!("=== modelctl eval (quick={quick}, threads={threads}, artifact={dir:?}) ===");
    let artifact = load_artifact(&dir);
    let evaluation = evaluate_artifact(&artifact, quick, threads);
    // `s`tored in the manifest vs `h`eld-out re-evaluation.
    let (s, h) = (artifact.manifest().metrics, evaluation.metrics);
    let epochs = artifact.manifest().train.as_ref().map_or(0, |t| t.epochs);
    let rep = accuracy_report(&evaluation, epochs);
    // Written before anything is printed, so a closed stdout (which
    // panics the first `println!`) cannot lose it; a re-evaluation that
    // does not reproduce the manifest writes nothing.
    if h == s {
        write_json("accuracy.json", &rep);
    }
    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "metric", "manifest", "re-eval", "paper"
    );
    for (name, a, b, paper) in [
        ("MAPE", s.mape, h.mape, Some(rep.paper_mape)),
        ("Pearson", s.pearson, h.pearson, Some(rep.paper_pearson)),
        ("Spearman", s.spearman, h.spearman, Some(rep.paper_spearman)),
        ("R^2", s.r2, h.r2, None),
    ] {
        let paper = paper.map_or("-".to_string(), |p| format!("{p:.2}"));
        println!("{name:<12} {a:>12.6} {b:>12.6} {paper:>8}");
    }
    if h != s {
        eprintln!(
            "modelctl eval FAILED: re-evaluated metrics do not reproduce the manifest \
             (the artifact does not describe these weights, or the corpus changed)"
        );
        std::process::exit(1);
    }
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
    println!(
        "artifact validated: {} held-out points reproduce the manifest metrics exactly",
        h.test_points
    );
}

/// `reload ADDR --artifact DIR`: hot-swap a running server onto a new
/// artifact. Any refusal — corrupt artifact, schema mismatch, mid-drain
/// — exits nonzero with the server's typed reason; the incumbent keeps
/// serving either way.
fn reload(flags: Flags) {
    let addr = addr_of(&flags);
    let dir = artifact_dir(&flags, "artifact");
    // The server resolves this path on *its* filesystem; send it
    // absolute so the swap does not depend on the server's working
    // directory (this CLI targets the same-host CI/dev shape).
    let dir = dir.canonicalize().unwrap_or(dir);
    eprintln!("=== modelctl reload (addr={addr}, artifact={dir:?}) ===");
    let mut client = NetClient::connect(&addr).unwrap_or_else(|e| {
        eprintln!("modelctl reload: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
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

/// `promote ADDR [--artifact DIR | --candidates DIR1,DIR2,…]`: the
/// shadow A/B gate (`dlcm_bench::run_promotion`), its verdict printed
/// and written to `results/promotion.json`.
fn promote(flags: Flags) {
    let addr = addr_of(&flags);
    let dry_run = flags.has("dry-run");
    let window = flags.positive("window", if flags.has("quick") { 6 } else { 24 });
    let candidates: Vec<PathBuf> = match flags.string("candidates") {
        Some(list) => list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(PathBuf::from)
            .collect(),
        None => vec![artifact_dir(&flags, "artifact")],
    };
    eprintln!(
        "=== modelctl promote (addr={addr}, candidates={candidates:?}, window={window}, \
         dry_run={dry_run}) ==="
    );
    let report = run_promotion(&addr, &candidates, window, dry_run).unwrap_or_else(|e| {
        eprintln!("modelctl promote failed: {e}");
        std::process::exit(1);
    });
    for cand in &report.candidates {
        if cand.fingerprint == report.incumbent.fingerprint {
            eprintln!(
                "note: candidate {} is the incumbent; it can rank but never strictly beat itself",
                cand.fingerprint
            );
        }
    }
    write_json("promotion.json", &report);
    println!("{report}");
}

/// `flywheel`: the whole data loop in one command — serve a fixed-seed
/// replay window from the incumbent, check each first-seen row against
/// ground truth, append the WARN+ rows to the corpus as a new
/// generation, warm-start retrain two candidates over the union corpus,
/// and write `results/flywheel.json`. Hand the candidates to
/// `promote --candidates` to close the loop.
fn flywheel(flags: Flags) {
    let dir =
        |flag, default: fn() -> PathBuf| flags.string(flag).map_or_else(default, PathBuf::from);
    let mut cfg = FlywheelConfig::new(
        dir("artifact", model_artifact_dir),
        dir("corpus", corpus_dir),
        dir("out", || results_dir().join("flywheel")),
        flags.has("quick"),
    );
    cfg.threads = flags.positive("threads", 1);
    cfg.window = flags.positive("window", cfg.window);
    cfg.epochs = flags.positive("epochs", cfg.epochs);
    eprintln!(
        "=== modelctl flywheel (artifact={:?}, corpus={:?}, out={:?}, window={}, epochs={}, \
         threads={}) ===",
        cfg.artifact_dir, cfg.corpus_dir, cfg.out_dir, cfg.window, cfg.epochs, cfg.threads,
    );
    let report = run_flywheel(&cfg).unwrap_or_else(|e| {
        eprintln!("modelctl flywheel failed: {e}");
        std::process::exit(1);
    });
    write_json("flywheel.json", &report);
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
}

/// `serve --listen ADDR`: the artifact on a TCP socket, in the
/// foreground, until a client's `Shutdown` frame drains it.
fn serve(flags: Flags) {
    let Some(addr) = flags.string("listen") else {
        eprintln!("usage: {SERVE}");
        std::process::exit(2);
    };
    let threads = flags.positive("threads", 1);
    let dir = artifact_dir(&flags, "artifact");
    let net_cfg = NetConfig {
        max_connections: flags.positive("max-connections", NetConfig::default().max_connections),
    };
    let serve_cfg = ServeConfig {
        threads,
        cache_capacity: flags.positive("cache-capacity", ServeConfig::default().cache_capacity),
    };
    eprintln!(
        "=== modelctl serve --listen {addr} (artifact={dir:?}, threads={threads}, \
         cache_capacity={}, max_connections={}) ===",
        serve_cfg.cache_capacity, net_cfg.max_connections
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
