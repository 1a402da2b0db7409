//! End-to-end determinism of the data flywheel: the same incumbent and
//! corpus produce bit-identical mispredict shards, chain fingerprints,
//! and warm-started candidate weights — across repeat runs and across
//! `--threads 1` vs `--threads 4`.

use std::path::{Path, PathBuf};

use dlcm_bench::{run_flywheel, FlywheelConfig};
use dlcm_datagen::{
    BuildConfig, DatasetConfig, ParallelDatasetBuilder, ProgramGenConfig, ShardedDataset,
};
use dlcm_machine::{Machine, Measurement};
use dlcm_model::{CostModel, CostModelConfig, FeaturizerConfig, HeldOutMetrics, ModelArtifact};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlcm_flywheel_e2e_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Replay window of the flywheel turn.
const WINDOW: usize = 6;

/// A small deterministic seed corpus (generation 0).
fn seed_corpus(dir: &Path) {
    ParallelDatasetBuilder::new(BuildConfig {
        threads: 2,
        num_shards: 2,
        ..BuildConfig::new(DatasetConfig {
            num_programs: 10,
            schedules_per_program: 6,
            progen: ProgramGenConfig {
                size_pool: vec![16, 32, 64],
                max_points: 1 << 16,
                ..ProgramGenConfig::wide()
            },
            ..DatasetConfig::tiny(7)
        })
    })
    .write_corpus(&Measurement::new(Machine), dir)
    .unwrap();
}

/// An untrained incumbent: plenty of mispredicts against ground truth,
/// and a fixed weights fingerprint (seeded init is deterministic).
fn seed_incumbent(dir: &Path) {
    let featurizer = FeaturizerConfig::default();
    let model = CostModel::new(
        CostModelConfig {
            input_dim: featurizer.vector_width(),
            embed_widths: vec![32, 16],
            merge_hidden: 16,
            regress_widths: vec![16],
            dropout: 0.0,
        },
        42,
    );
    ModelArtifact::new(model, featurizer, 0, HeldOutMetrics::default())
        .save(dir)
        .unwrap();
}

fn config(artifact: &Path, corpus: &Path, out: &Path, threads: usize) -> FlywheelConfig {
    let mut cfg = FlywheelConfig::new(
        artifact.to_path_buf(),
        corpus.to_path_buf(),
        out.to_path_buf(),
        true,
    );
    cfg.window = WINDOW;
    cfg.epochs = 1;
    cfg.threads = threads;
    cfg
}

fn last_shard_bytes(dir: &Path) -> Vec<u8> {
    let sharded = ShardedDataset::open(dir).unwrap();
    let path = sharded
        .shard_paths()
        .last()
        .expect("appended shard")
        .clone();
    std::fs::read(path).unwrap()
}

#[test]
fn flywheel_is_bit_identical_across_runs_and_thread_counts() {
    let artifact = tmp_dir("artifact");
    seed_incumbent(&artifact);

    // Three identical corpora: sequential, 4-thread, and repeat runs
    // must all append the same generation and train the same weights.
    let corpus_seq = tmp_dir("corpus_seq");
    let corpus_par = tmp_dir("corpus_par");
    let corpus_rep = tmp_dir("corpus_rep");
    for dir in [&corpus_seq, &corpus_par, &corpus_rep] {
        seed_corpus(dir);
    }

    let out_seq = tmp_dir("out_seq");
    let out_par = tmp_dir("out_par");
    let out_rep = tmp_dir("out_rep");
    let seq = run_flywheel(&config(&artifact, &corpus_seq, &out_seq, 1)).unwrap();
    let par = run_flywheel(&config(&artifact, &corpus_par, &out_par, 4)).unwrap();
    let rep = run_flywheel(&config(&artifact, &corpus_rep, &out_rep, 1)).unwrap();

    // The window produced real mispredicts (an untrained incumbent
    // against execution ground truth), and everything was checked.
    assert_eq!(seq.queries, WINDOW * 6);
    assert_eq!(seq.mispredicts.checked, seq.queries);
    assert!(
        seq.generation.num_points > 0,
        "untrained incumbent produced no WARN+ mispredicts"
    );
    assert_eq!(seq.generation.id, 1, "mispredicts append as generation 1");

    for (label, other) in [("threads=4", &par), ("repeat", &rep)] {
        assert_eq!(
            seq.mispredicts, other.mispredicts,
            "capture counters diverged ({label})"
        );
        assert_eq!(
            seq.generation.chain, other.generation.chain,
            "generation chain diverged ({label})"
        );
        assert_eq!(seq.generation.num_points, other.generation.num_points);
        assert_eq!(
            seq.generation.duplicates_dropped,
            other.generation.duplicates_dropped
        );
        assert_eq!(
            seq.corpus_fingerprint, other.corpus_fingerprint,
            "union corpus fingerprint diverged ({label})"
        );
        assert_eq!(seq.incumbent_fingerprint, other.incumbent_fingerprint);
    }

    // Bit-identical appended shards and manifests across all three.
    let shard = last_shard_bytes(&corpus_seq);
    assert_eq!(shard, last_shard_bytes(&corpus_par));
    assert_eq!(shard, last_shard_bytes(&corpus_rep));
    let manifest = std::fs::read(corpus_seq.join("manifest.json")).unwrap();
    assert_eq!(
        manifest,
        std::fs::read(corpus_par.join("manifest.json")).unwrap()
    );
    assert_eq!(
        manifest,
        std::fs::read(corpus_rep.join("manifest.json")).unwrap()
    );

    // Byte-identical warm-started candidate weights, per candidate.
    assert_eq!(seq.candidates.len(), 2);
    for k in 0..2 {
        let name = format!("cand{k}");
        let weights_of = |out: &Path| std::fs::read(ModelArtifact::weights_path(&out.join(&name)));
        let weights = weights_of(&out_seq).unwrap();
        assert_eq!(
            weights,
            weights_of(&out_par).unwrap(),
            "{name} weights differ between 1 and 4 threads"
        );
        assert_eq!(
            weights,
            weights_of(&out_rep).unwrap(),
            "{name} weights differ between repeat runs"
        );
        assert_eq!(
            seq.candidates[k].weights_fingerprint, par.candidates[k].weights_fingerprint,
            "{name} fingerprints diverged"
        );
        assert_eq!(
            seq.candidates[k].weights_fingerprint,
            rep.candidates[k].weights_fingerprint
        );
        // Warm start is a clone-then-train: the candidate is a real
        // retrain, not the incumbent echoed back.
        assert_ne!(
            seq.candidates[k].weights_fingerprint, seq.incumbent_fingerprint,
            "{name} never moved off the incumbent's weights"
        );
        // Candidates are loadable, well-formed artifacts.
        ModelArtifact::load(&out_seq.join(&name)).expect("candidate artifact loads");
    }

    // Running the flywheel AGAIN on an already-extended corpus dedups
    // the entire window away: generation 2 appends zero points.
    let out_again = tmp_dir("out_again");
    let again = run_flywheel(&config(&artifact, &corpus_seq, &out_again, 1)).unwrap();
    assert_eq!(again.generation.id, 2);
    assert_eq!(
        again.generation.num_points, 0,
        "a replayed window must dedup against the previous generation"
    );

    for dir in [
        &artifact,
        &corpus_seq,
        &corpus_par,
        &corpus_rep,
        &out_seq,
        &out_par,
        &out_rep,
        &out_again,
    ] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
