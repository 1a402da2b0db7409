//! # dlcm-bench
//!
//! The binaries that regenerate every table and figure of the paper's
//! evaluation (§6). See DESIGN.md for the experiment index; performance
//! is measured by the separate `benchmark/` package (see
//! `benchmark/README.md`). Artifacts are written to `results/` at the
//! workspace root, each by exactly one producer:
//!
//! - `datagen` → the sharded training corpus (`corpus/manifest.json` +
//!   `corpus/shard-*.jsonl`), through the one resolver every consumer
//!   also goes through ([`ensure_corpus`]);
//! - `modelctl train` → streams training from the corpus and writes the
//!   versioned `model_artifact/`; `modelctl eval` → re-evaluates it and
//!   writes `accuracy.json` (§6 headline metrics); `modelctl flywheel` /
//!   `promote` → `flywheel.json` / `promotion.json`;
//! - `modelctl reproduce` → the whole chain in one process ([`reproduce`]):
//!   train and save the artifact as `train` does, then `accuracy.json`,
//!   Figures 4–8, Table 2, the Halide comparison, the §4.4 ablation and
//!   the [`Ledger`] (`RESULTS.md` + `RESULTS.json`).
//!
//! Every binary accepts `--quick` for a scaled-down smoke run and
//! rejects flags it does not declare ([`Flags`]). The library behind
//! them: command-line flags, corpus + artifact resolution, the accuracy
//! report, the experiments and their ledger, plus the flywheel and its
//! promotion gate.

#![warn(missing_docs)]

mod accuracy;
mod corpus;
mod figures;
mod flags;
mod flywheel;
mod ledger;
mod reproduce;

pub use accuracy::{
    accuracy_report, per_family_metrics, AccuracyReport, FamilyMetrics, UNTAGGED_FAMILY,
};
pub use corpus::{
    corpus_config, corpus_dir, ensure_corpus, evaluate_artifact, harness, load_artifact,
    model_artifact_dir, results_dir, train_from_corpus, Evaluation,
};
pub use flags::Flags;
pub use flywheel::{
    replay_window, run_flywheel, run_promotion, CandidateVerdict, FlywheelCandidate,
    FlywheelConfig, FlywheelReport, PromotionReport, PromotionSide,
};
pub use ledger::Ledger;
pub use reproduce::reproduce;

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
