//! The generation-versioned corpus contract: appended generations dedup
//! against the entire history (and within the batch), the union corpus
//! streams every generation, append results are independent of sample
//! arrival order, the dedup index comes from the shards alone (a
//! leftover `dedup.json` from an older build is ignored), and generation
//! chains link parent to child.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use dlcm_datagen::{
    append_generation, AppendSample, BuildConfig, DatasetConfig, DedupIndex,
    ParallelDatasetBuilder, ProgramGenConfig, ScheduleGenConfig, ScheduleGenerator, ShardBatches,
    ShardedDataset,
};
use dlcm_ir::fingerprint::stable_fingerprint;
use dlcm_machine::{Machine, Measurement};
use dlcm_model::{BatchSource, Featurizer, FeaturizerConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn build_config(seed: u64) -> BuildConfig {
    BuildConfig {
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
            ..DatasetConfig::tiny(seed)
        })
    }
}

fn harness() -> Measurement {
    Measurement::new(Machine)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlcm_genlog_test_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_corpus(dir: &Path, seed: u64) {
    ParallelDatasetBuilder::new(build_config(seed))
        .write_corpus(&harness(), dir)
        .unwrap();
}

/// Samples guaranteed fresh against the corpus: schedules generated
/// under a disjoint seed for corpus programs, filtered against the
/// dedup index so the test knows the exact retained count.
fn fresh_samples(dir: &Path, count: usize) -> Vec<AppendSample> {
    let sharded = ShardedDataset::open(dir).unwrap();
    let dataset = sharded.load_dataset().unwrap();
    let dedup = DedupIndex::build(&sharded).unwrap();
    let schedgen = ScheduleGenerator::new(ScheduleGenConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(0xFEED);
    let mut samples = Vec::new();
    'outer: for program in &dataset.programs {
        let prog_fp = program.content_fingerprint();
        for schedule in schedgen.generate_distinct(program, 8, &mut rng) {
            if dedup.contains(prog_fp, stable_fingerprint(&schedule)) {
                continue;
            }
            if samples.iter().any(|s: &AppendSample| {
                s.program.content_fingerprint() == prog_fp
                    && stable_fingerprint(&s.schedule) == stable_fingerprint(&schedule)
            }) {
                continue;
            }
            samples.push(AppendSample {
                program: program.clone(),
                schedule,
                speedup: 1.0 + samples.len() as f64 * 0.125,
                family: None,
            });
            if samples.len() == count {
                break 'outer;
            }
        }
    }
    assert_eq!(
        samples.len(),
        count,
        "test corpus too small for {count} fresh samples"
    );
    samples
}

/// Samples that duplicate existing corpus points exactly.
fn duplicate_samples(dir: &Path, count: usize) -> Vec<AppendSample> {
    let dataset = ShardedDataset::open(dir).unwrap().load_dataset().unwrap();
    dataset
        .points
        .iter()
        .take(count)
        .map(|p| AppendSample {
            program: dataset.program_of(p).clone(),
            schedule: p.schedule.clone(),
            speedup: p.speedup,
            family: None,
        })
        .collect()
}

#[test]
fn appends_dedup_against_the_whole_history() {
    let dir = tmp_dir("dedup");
    seed_corpus(&dir, 3);
    let seed_manifest = ShardedDataset::open(&dir).unwrap().manifest().clone();
    assert_eq!(
        seed_manifest.generations.len(),
        1,
        "seed corpus is generation 0"
    );
    let seed_shards = seed_manifest.shards.len();

    // Generation 1: 6 fresh rows mixed with 4 exact corpus duplicates
    // and one in-batch duplicate — only the fresh rows survive.
    let fresh = fresh_samples(&dir, 6);
    let mut offered = fresh.clone();
    offered.extend(duplicate_samples(&dir, 4));
    offered.push(fresh[0].clone());
    let gen1 = append_generation(&dir, "capture-1", offered, 2).unwrap();
    assert_eq!(gen1.id, 1);
    assert_eq!(gen1.num_points, 6);
    assert_eq!(gen1.duplicates_dropped, 5);

    let manifest = ShardedDataset::open(&dir).unwrap().manifest().clone();
    assert_eq!(manifest.shards.len(), seed_shards + 1);
    assert_eq!(manifest.shards.last().unwrap().generation, 1);
    assert_eq!(manifest.total_points, seed_manifest.total_points + 6);
    assert_eq!(
        manifest.duplicates_dropped,
        seed_manifest.duplicates_dropped + 5
    );

    // Generation 2: the very same batch again — every row now lives in
    // the history, so nothing survives and no shard is written, but the
    // generation log still records the append.
    let mut replay = fresh.clone();
    replay.extend(duplicate_samples(&dir, 4));
    replay.push(fresh[0].clone());
    let gen2 = append_generation(&dir, "capture-2", replay, 2).unwrap();
    assert_eq!(gen2.id, 2);
    assert_eq!(gen2.num_points, 0);
    assert_eq!(gen2.duplicates_dropped, 11);
    let manifest = ShardedDataset::open(&dir).unwrap().manifest().clone();
    assert_eq!(
        manifest.shards.len(),
        seed_shards + 1,
        "empty generation wrote a shard"
    );
    assert_eq!(manifest.generations.len(), 3);
    assert_eq!(manifest.total_points, seed_manifest.total_points + 6);

    // The union corpus has no duplicate content key anywhere.
    let dataset = ShardedDataset::open(&dir).unwrap().load_dataset().unwrap();
    let mut keys = HashSet::new();
    for point in &dataset.points {
        let key = (
            dataset.programs[point.program].content_fingerprint(),
            stable_fingerprint(&point.schedule),
        );
        assert!(keys.insert(key), "duplicate key crossed generations");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn union_streaming_covers_every_generation() {
    let dir = tmp_dir("union");
    seed_corpus(&dir, 5);
    let seed_points = ShardedDataset::open(&dir).unwrap().manifest().total_points;
    let gen1 = append_generation(&dir, "capture", fresh_samples(&dir, 5), 1).unwrap();
    assert_eq!(gen1.num_points, 5);

    let sharded = ShardedDataset::open(&dir).unwrap();
    sharded
        .verify()
        .expect("appended shard fingerprints verify");
    let dataset = sharded.load_dataset().unwrap();
    assert_eq!(dataset.len(), seed_points + 5);

    // The streaming batch source sees the union, structure-pure.
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let source = ShardBatches::open(&dir, featurizer, 4, 2).unwrap();
    assert_eq!(source.num_points(), seed_points + 5);
    let mut streamed = 0;
    for i in 0..source.num_batches() {
        let batch = source.load_batch(i);
        assert!(!batch.is_empty());
        for sample in &batch {
            assert_eq!(sample.group, batch[0].group, "batch mixes programs");
        }
        streamed += batch.len();
    }
    assert_eq!(streamed, seed_points + 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn append_is_independent_of_arrival_order_and_threads() {
    let dir_a = tmp_dir("order_a");
    let dir_b = tmp_dir("order_b");
    seed_corpus(&dir_a, 7);
    seed_corpus(&dir_b, 7);

    let samples = fresh_samples(&dir_a, 8);
    let mut reversed = samples.clone();
    reversed.reverse();
    let gen_a = append_generation(&dir_a, "wave", samples, 1).unwrap();
    let gen_b = append_generation(&dir_b, "wave", reversed, 4).unwrap();

    assert_eq!(gen_a.chain, gen_b.chain, "chain depends on arrival order");
    assert_eq!(gen_a.num_points, gen_b.num_points);
    assert_eq!(gen_a.num_programs, gen_b.num_programs);

    assert_eq!(
        std::fs::read(dir_a.join("manifest.json")).unwrap(),
        std::fs::read(dir_b.join("manifest.json")).unwrap(),
        "manifest.json differs between arrival orders"
    );
    let shard_a = ShardedDataset::open(&dir_a).unwrap();
    let shard_b = ShardedDataset::open(&dir_b).unwrap();
    let last_a = shard_a.shard_paths().last().unwrap().clone();
    let last_b = shard_b.shard_paths().last().unwrap().clone();
    assert_eq!(
        std::fs::read(last_a).unwrap(),
        std::fs::read(last_b).unwrap(),
        "appended shard bytes differ between arrival orders"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Corpora written before the manifest became the only record of the
/// history carry a `dedup.json`; whatever it holds, an append reads the
/// shards instead.
#[test]
fn leftover_dedup_file_is_ignored() {
    let mut outcomes = Vec::new();
    for leftover in [None, Some(&b"[]"[..]), Some(&b"{not json"[..])] {
        let dir = tmp_dir("leftover");
        seed_corpus(&dir, 9);
        let mut offered = fresh_samples(&dir, 4);
        offered.extend(duplicate_samples(&dir, 3));
        if let Some(bytes) = leftover {
            std::fs::write(dir.join("dedup.json"), bytes).unwrap();
        }
        let generation = append_generation(&dir, "wave", offered, 1).unwrap();
        assert_eq!(generation.num_points, 4);
        assert_eq!(generation.duplicates_dropped, 3);
        let sharded = ShardedDataset::open(&dir).unwrap();
        let shard = std::fs::read(sharded.shard_paths().last().unwrap()).unwrap();
        outcomes.push((generation.chain, shard));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "an empty leftover index changed the append"
    );
    assert_eq!(
        outcomes[0], outcomes[2],
        "a garbled leftover index changed the append"
    );
}

#[test]
fn family_tags_survive_append_generation() {
    let dir = tmp_dir("family_append");
    seed_corpus(&dir, 17);
    let seed_families = ShardedDataset::open(&dir)
        .unwrap()
        .load_dataset()
        .unwrap()
        .families;
    let seed_programs = seed_families.len();
    // The wide seed corpus tags every program.
    assert!(seed_families.iter().all(|f| f.is_some()));

    // One fresh schedule for each of three *distinct* programs, so the
    // appended generation declares exactly three programs.
    let sharded = ShardedDataset::open(&dir).unwrap();
    let dataset = sharded.load_dataset().unwrap();
    let dedup = DedupIndex::build(&sharded).unwrap();
    let schedgen = ScheduleGenerator::new(ScheduleGenConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA);
    let mut samples: Vec<AppendSample> = Vec::new();
    for program in &dataset.programs {
        let prog_fp = program.content_fingerprint();
        if samples
            .iter()
            .any(|s| s.program.content_fingerprint() == prog_fp)
        {
            continue;
        }
        if let Some(schedule) = schedgen
            .generate_distinct(program, 8, &mut rng)
            .into_iter()
            .find(|s| !dedup.contains(prog_fp, stable_fingerprint(s)))
        {
            samples.push(AppendSample {
                program: program.clone(),
                schedule,
                speedup: 1.5,
                family: None,
            });
        }
        if samples.len() == 3 {
            break;
        }
    }
    assert_eq!(samples.len(), 3, "seed corpus too small");
    // Tagged and untagged samples in the same batch: tags are
    // per-program provenance, not a corpus-wide mode.
    samples[0].family = Some("attention".to_string());
    samples[1].family = Some("gather_scatter".to_string());
    samples[2].family = None;
    // Fresh global indices are assigned in sorted program-fingerprint
    // order, so that ordering predicts where each tag must land.
    let mut expected: Vec<(u64, Option<String>)> = samples
        .iter()
        .map(|s| (s.program.content_fingerprint(), s.family.clone()))
        .collect();
    expected.sort_by_key(|(fp, _)| *fp);
    let generation = append_generation(&dir, "tagged-wave", samples, 2).unwrap();
    assert_eq!(generation.num_programs, 3);

    let families = ShardedDataset::open(&dir)
        .unwrap()
        .load_dataset()
        .unwrap()
        .families;
    assert_eq!(families.len(), seed_programs + 3);
    assert_eq!(&families[..seed_programs], &seed_families[..]);
    for (k, (_, family)) in expected.iter().enumerate() {
        assert_eq!(
            &families[seed_programs + k],
            family,
            "tag mismatch for appended program {k}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generation_chains_link_parent_to_child() {
    let dir = tmp_dir("chain");
    seed_corpus(&dir, 11);
    let manifest = ShardedDataset::open(&dir).unwrap().manifest().clone();
    let gen0 = manifest.generations[0].clone();
    assert_eq!(gen0.id, 0);
    assert_eq!(gen0.label, "seed");

    let gen1 = append_generation(&dir, "wave-1", fresh_samples(&dir, 3), 1).unwrap();
    let gen2 = append_generation(&dir, "wave-2", fresh_samples(&dir, 3), 1).unwrap();
    assert_ne!(gen0.chain, gen1.chain);
    assert_ne!(gen1.chain, gen2.chain);

    // An empty append still advances the chain: the history records
    // that the append happened even when nothing survived.
    let gen3 = append_generation(&dir, "empty", Vec::new(), 1).unwrap();
    assert_eq!(gen3.num_points, 0);
    assert_ne!(gen2.chain, gen3.chain);

    let manifest = ShardedDataset::open(&dir).unwrap().manifest().clone();
    let chains: Vec<String> = manifest
        .generations
        .iter()
        .map(|g| g.chain.clone())
        .collect();
    assert_eq!(chains, vec![gen0.chain, gen1.chain, gen2.chain, gen3.chain]);
    let _ = std::fs::remove_dir_all(&dir);
}
