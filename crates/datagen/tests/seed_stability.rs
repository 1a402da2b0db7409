//! Seed-stability regression gate: the default (non-`wide`)
//! [`ProgramGenConfig`] must emit byte-identical shards and manifest
//! across PRs. The golden fingerprints below were captured from the
//! corpus pipeline *before* the nine-family generator landed; any change
//! to the default RNG stream, the record layout, or the manifest bytes
//! shows up here as a fingerprint mismatch.

use dlcm_datagen::{BuildConfig, DatasetConfig, ParallelDatasetBuilder, ShardedDataset};
use dlcm_ir::fingerprint::{fnv1a, to_hex, FNV1A_INIT};
use dlcm_machine::{Machine, Measurement};

/// Pinned pre-PR corpus identity for `DatasetConfig::tiny(13)` built
/// with 2 threads and 2 shards: the FNV-1a fold of the shard
/// fingerprints ([`dlcm_datagen::ShardManifest::content_fingerprint`]).
const GOLDEN_CORPUS_FINGERPRINT: &str = "bef9889abad4b66b";
/// Pinned byte-level FNV-1a of `manifest.json` itself — covers the
/// serialized [`DatasetConfig`] (so a config-schema change that alters
/// default-corpus bytes is caught even if the shards happen to match).
const GOLDEN_MANIFEST_BYTES: &str = "9dacb6a73af626d3";
/// Pinned per-shard byte fingerprints, in manifest order.
const GOLDEN_SHARDS: [&str; 2] = ["e0a0be18cc7858c8", "9fc73ed64f195423"];

#[test]
fn default_config_corpus_is_bit_identical_to_pre_pr_output() {
    let dir = std::env::temp_dir().join("dlcm_seed_stability");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = BuildConfig {
        threads: 2,
        num_shards: 2,
        ..BuildConfig::new(DatasetConfig::tiny(13))
    };
    assert_eq!(
        cfg.dataset.progen.pattern_weights.to_vec(),
        vec![2u32, 2, 2, 0, 0, 0],
        "this gate pins the default family distribution; wide opt-ins are out of scope"
    );
    let builder = ParallelDatasetBuilder::new(cfg);
    let (manifest, _) = builder
        .write_corpus(&Measurement::new(Machine), &dir)
        .expect("write corpus");

    let shard_fps: Vec<String> = manifest
        .shards
        .iter()
        .map(|s| s.fingerprint.clone())
        .collect();
    let manifest_bytes = std::fs::read(dir.join("manifest.json")).expect("read manifest");
    let manifest_fp = to_hex(fnv1a(FNV1A_INIT, &manifest_bytes));
    let corpus_fp = to_hex(manifest.content_fingerprint());

    // Reopen + verify to make sure what we fingerprinted is coherent.
    ShardedDataset::open(&dir)
        .expect("reopen")
        .verify()
        .expect("shard fingerprints verify");
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!("corpus_fp={corpus_fp} manifest_fp={manifest_fp} shards={shard_fps:?}");
    assert_eq!(
        corpus_fp, GOLDEN_CORPUS_FINGERPRINT,
        "corpus identity drifted"
    );
    assert_eq!(manifest_fp, GOLDEN_MANIFEST_BYTES, "manifest bytes drifted");
    assert_eq!(shard_fps, GOLDEN_SHARDS, "shard bytes drifted");
}
