//! The one corpus resolver: a corpus the flywheel has extended is the
//! same corpus (reused, byte for byte), a changed dataset configuration
//! or seed-shard count is not (regenerated) — from the library and from
//! the `datagen` binary alike — and the binaries reject flags they do
//! not declare instead of running the default configuration.

use std::path::{Path, PathBuf};
use std::process::Command;

use dlcm_bench::{corpus_config, ensure_corpus};
use dlcm_datagen::{
    append_generation, AppendSample, BuildConfig, DatasetConfig, ProgramGenConfig, ShardedDataset,
};
use dlcm_ir::Schedule;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlcm_corpus_resolver_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_config(seed: u64) -> BuildConfig {
    BuildConfig {
        num_shards: 2,
        ..BuildConfig::new(DatasetConfig {
            num_programs: 10,
            schedules_per_program: 6,
            progen: ProgramGenConfig {
                size_pool: vec![16, 32, 64],
                max_points: 1 << 16,
                ..ProgramGenConfig::wide()
            },
            ..DatasetConfig::tiny(seed)
        })
    }
}

/// Appends generation 1: every corpus program under the empty schedule
/// (history-wide dedup keeps the ones the corpus does not hold yet).
fn extend(dir: &Path) {
    let dataset = ShardedDataset::open(dir).unwrap().load_dataset().unwrap();
    let offered: Vec<AppendSample> = dataset
        .programs
        .iter()
        .map(|program| AppendSample {
            program: program.clone(),
            schedule: Schedule::empty(),
            speedup: 1.0,
            family: None,
        })
        .collect();
    let generation = append_generation(dir, "test-extension", offered, 1).unwrap();
    assert_eq!(generation.id, 1);
    assert!(generation.num_points > 0, "nothing fresh to append");
}

fn manifest_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("manifest.json")).unwrap()
}

#[test]
fn an_extended_corpus_is_reused_and_a_changed_config_regenerates() {
    let dir = tmp_dir("library");
    let (_, stats) = ensure_corpus(&dir, tiny_config(3));
    assert!(stats.is_some(), "nothing on disk: the resolver generates");
    extend(&dir);
    let extended = manifest_bytes(&dir);

    // Same dataset configuration, same seed-shard count: the appended
    // generation is part of the corpus, not a reason to rebuild it.
    let (corpus, stats) = ensure_corpus(&dir, tiny_config(3));
    assert!(stats.is_none(), "an extended corpus was regenerated");
    assert_eq!(manifest_bytes(&dir), extended);
    assert_eq!(corpus.manifest().generations.len(), 2);
    assert_eq!(corpus.manifest().shards.len(), 3);
    corpus.verify().expect("generation 1's shard is intact");

    // A different seed-shard count or dataset configuration is a
    // different corpus.
    let (corpus, stats) = ensure_corpus(
        &dir,
        BuildConfig {
            num_shards: 3,
            ..tiny_config(3)
        },
    );
    assert!(stats.is_some() && corpus.manifest().generations.len() == 1);
    let (corpus, stats) = ensure_corpus(&dir, tiny_config(4));
    assert!(stats.is_some());
    assert_eq!(corpus.manifest().config, tiny_config(4).dataset);
    assert_eq!(corpus.manifest().shards.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

fn run(bin: &str, args: &[&str], results: &Path) -> std::process::Output {
    Command::new(bin)
        .args(args)
        .env("DLCM_RESULTS", results)
        .output()
        .expect("spawn binary")
}

#[test]
fn the_datagen_binary_keeps_an_extended_corpus() {
    let results = tmp_dir("datagen_bin");
    let datagen = env!("CARGO_BIN_EXE_datagen");
    let args = ["--quick", "--threads", "2"];
    assert!(run(datagen, &args, &results).status.success());
    let corpus = results.join("corpus");
    assert_eq!(
        ShardedDataset::open(&corpus).unwrap().manifest().config,
        corpus_config(true, 1).dataset
    );
    extend(&corpus);
    let extended = manifest_bytes(&corpus);

    let rerun = run(datagen, &args, &results);
    assert!(rerun.status.success());
    assert!(
        String::from_utf8_lossy(&rerun.stdout).contains("corpus up to date"),
        "datagen regenerated an extended corpus"
    );
    assert_eq!(manifest_bytes(&corpus), extended);
    assert!(corpus.join("shard-0004.jsonl").exists());

    // --force still rebuilds, back to the seed generation alone.
    let forced = run(datagen, &[&args[..], &["--force"]].concat(), &results);
    assert!(forced.status.success());
    let manifest = ShardedDataset::open(&corpus).unwrap().manifest().clone();
    assert_eq!((manifest.generations.len(), manifest.shards.len()), (1, 4));
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn an_undeclared_flag_is_a_usage_error_not_a_default_run() {
    let results = tmp_dir("unknown_flag");
    let modelctl = env!("CARGO_BIN_EXE_modelctl");
    for (args, named) in [
        (&["train", "--quick", "--thread", "4"][..], "--thread"),
        (&["train", "--quick", "--epoch", "1"], "--epoch"),
        (&["train", "--quick", "3"], "\"3\""),
        (&["train", "--quick", "--epochs", "0"], "--epochs"),
        (&["serve", "--quick", "--listen", "127.0.0.1:0"], "--quick"),
    ] {
        let output = run(modelctl, args, &results);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(named) && stderr.contains("usage: modelctl"),
            "{args:?}: {stderr}"
        );
    }
    assert!(
        !results.join("corpus").exists(),
        "a rejected command line must not have started the run"
    );
    let datagen = run(env!("CARGO_BIN_EXE_datagen"), &["--qiuck"], &results);
    assert_eq!(datagen.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&results);
}
