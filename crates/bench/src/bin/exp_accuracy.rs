//! EXP-ACC (§6, "Model Accuracy"): train the cost model and report the
//! headline metrics — test MAPE (paper: 16%), Pearson r (0.90),
//! Spearman's rho (0.95).
//!
//! Training streams minibatches from the sharded corpus (generated here
//! through the parallel, deduplicating builder when the `datagen` binary
//! has not already written it), featurizing each batch on demand across
//! `--threads` workers. The trained model is persisted as a versioned
//! `ModelArtifact` directory (`results/model_artifact/`, which the
//! downstream figure/table experiments load) that bundles the weights
//! with the featurizer schema, the corpus content fingerprint, and the
//! held-out metrics. Pass `--model-artifact DIR` to *reuse* a saved
//! artifact instead of retraining: the run re-evaluates it on the
//! held-out split and writes an `accuracy.json` byte-identical to the
//! training run's and to `modelctl eval`'s (CI diffs all three).
//!
//! `cargo run --release -p dlcm-bench --bin exp_accuracy [--quick]
//! [--threads N] [--model-artifact DIR] [epochs]`

use dlcm_bench::{
    accuracy_report, evaluate_artifact, load_artifact, model_artifact_dir, model_artifact_flag,
    quick_mode, shards, threads, train_from_corpus, write_json, AccuracyReport,
};
use dlcm_model::{evaluate, ModelArtifact};

fn print_metrics(report: &AccuracyReport, unseen_programs: usize) {
    println!(
        "--- test set ({} points, {unseen_programs} unseen programs) ---",
        report.test_points
    );
    println!(
        "MAPE         : {:.1}%   (paper: 16%)",
        100.0 * report.test_mape
    );
    println!("Pearson r    : {:.3}   (paper: 0.90)", report.pearson);
    println!("Spearman rho : {:.3}   (paper: 0.95)", report.spearman);
    println!("R^2          : {:.3}", report.r2);
    println!("--- per family ---");
    for row in &report.per_family {
        println!(
            "{:<20} {:>5} pts  MAPE {:>6.1}%  R^2 {:>6.3}  rho {:>6.3}",
            row.family,
            row.test_points,
            100.0 * row.mape,
            row.r2,
            row.spearman
        );
    }
}

fn main() {
    let quick = quick_mode();
    let threads = threads();
    let epochs: usize = {
        // First bare positional (skipping flag values) overrides the
        // epoch count.
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut epochs = None;
        let mut skip_next = false;
        for a in &args {
            if std::mem::take(&mut skip_next) {
                continue;
            }
            if a == "--threads" || a == "--shards" || a == "--model-artifact" {
                skip_next = true;
            } else if !a.starts_with("--") {
                if let Ok(n) = a.parse() {
                    epochs = Some(n);
                    break;
                }
            }
        }
        epochs.unwrap_or(if quick { 8 } else { 60 })
    };
    eprintln!("=== EXP-ACC: model accuracy (quick={quick}, threads={threads}) ===");

    // Obtain the artifact — reuse a saved one, or train and save it —
    // then report on its held-out evaluation through one code path.
    let (artifact, evaluation) = match model_artifact_flag() {
        Some(dir) => {
            let artifact = load_artifact(&dir);
            eprintln!("reusing model artifact at {dir:?} (no training)");
            let evaluation = evaluate_artifact(&artifact, quick, threads, shards());
            (artifact, evaluation)
        }
        None => {
            let (artifact, evaluation) = train_from_corpus(quick, threads, shards(), epochs);
            let artifact_dir = model_artifact_dir();
            artifact.save(&artifact_dir).expect("save model artifact");
            eprintln!("wrote model artifact to {artifact_dir:?}");
            // The acceptance contract: a reloaded artifact reproduces
            // the trained model's predictions bit for bit.
            let reloaded = ModelArtifact::load(&artifact_dir).expect("reload saved artifact");
            assert_eq!(
                evaluation.test_preds,
                evaluate(reloaded.model(), &evaluation.test_set).1,
                "reloaded artifact must reproduce in-memory predictions bit-identically"
            );
            eprintln!("artifact roundtrip verified: reloaded predictions are bit-identical");
            (artifact, evaluation)
        }
    };
    // Evaluation is deterministic, so anything else means the artifact
    // does not describe these weights.
    assert_eq!(
        evaluation.metrics,
        artifact.manifest().metrics,
        "re-evaluated held-out metrics must reproduce the manifest bit for bit"
    );
    let epochs = artifact
        .manifest()
        .train
        .as_ref()
        .map_or(epochs, |t| t.epochs);
    let rep = accuracy_report(&evaluation, epochs);
    let unseen = evaluation
        .split
        .test
        .iter()
        .map(|&i| evaluation.dataset.points[i].program)
        .collect::<std::collections::HashSet<_>>()
        .len();
    print_metrics(&rep, unseen);
    write_json("accuracy.json", &rep);
}
