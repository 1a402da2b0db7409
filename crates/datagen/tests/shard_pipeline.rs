//! The corpus pipeline's contracts: byte-identical generation at any
//! thread count, lossless shard round trips, content dedup, and one
//! validation verdict from every reader of the shard format.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use dlcm_datagen::{
    append_generation, parse_fingerprint, AppendSample, BuildConfig, DatasetConfig, DedupIndex,
    ParallelDatasetBuilder, ProgramGenConfig, ShardBatches, ShardReader, ShardRecord, ShardWriter,
    ShardedDataset,
};
use dlcm_ir::fingerprint::stable_fingerprint;
use dlcm_ir::Transform;
use dlcm_machine::{Machine, Measurement};
use dlcm_model::{BatchSource, Featurizer, FeaturizerConfig};

fn test_dataset_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
        num_programs: 10,
        schedules_per_program: 8,
        progen: ProgramGenConfig {
            size_pool: vec![16, 32, 64],
            max_points: 1 << 16,
            ..ProgramGenConfig::wide()
        },
        ..DatasetConfig::tiny(seed)
    }
}

fn build_config(seed: u64, threads: usize, num_shards: usize) -> BuildConfig {
    BuildConfig {
        threads,
        num_shards,
        ..BuildConfig::new(test_dataset_config(seed))
    }
}

fn harness() -> Measurement {
    Measurement::new(Machine)
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dlcm_shard_test_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let sharded = ShardedDataset::open(dir).expect("open corpus");
    let mut files = vec![("manifest.json".to_string(), {
        std::fs::read(dir.join("manifest.json")).unwrap()
    })];
    for (info, path) in sharded.manifest().shards.iter().zip(sharded.shard_paths()) {
        files.push((info.file.clone(), std::fs::read(path).unwrap()));
    }
    files
}

/// The acceptance-criterion parity: 4 threads over 4 shards emit a
/// byte-identical manifest and shard set to sequential generation.
#[test]
fn threads_do_not_change_a_single_byte() {
    let dir_seq = tmp_dir("parity_seq");
    let dir_par = tmp_dir("parity_par");
    let (m1, s1) = ParallelDatasetBuilder::new(build_config(3, 1, 4))
        .write_corpus(&harness(), &dir_seq)
        .unwrap();
    let (m4, s4) = ParallelDatasetBuilder::new(build_config(3, 4, 4))
        .write_corpus(&harness(), &dir_par)
        .unwrap();
    assert_eq!(m1, m4, "manifests differ between 1 and 4 threads");
    assert_eq!(s1.num_points, s4.num_points);
    assert_eq!(s1.duplicates_dropped, s4.duplicates_dropped);

    let a = corpus_bytes(&dir_seq);
    let b = corpus_bytes(&dir_par);
    assert_eq!(a.len(), b.len());
    for ((name_a, bytes_a), (name_b, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(name_a, name_b);
        assert_eq!(bytes_a, bytes_b, "{name_a} differs between thread counts");
    }
    let _ = std::fs::remove_dir_all(&dir_seq);
    let _ = std::fs::remove_dir_all(&dir_par);
}

/// In-memory generation and the write→load round trip agree exactly.
#[test]
fn shard_roundtrip_matches_in_memory_build() {
    let dir = tmp_dir("roundtrip");
    let builder = ParallelDatasetBuilder::new(build_config(5, 2, 3));
    let (in_memory, _) = builder.generate(&harness());
    builder.write_corpus(&harness(), &dir).unwrap();

    let sharded = ShardedDataset::open(&dir).unwrap();
    sharded.verify().expect("shard fingerprints verify");
    let reloaded = sharded.load_dataset().unwrap();

    assert_eq!(in_memory.programs, reloaded.programs);
    assert_eq!(in_memory.families, reloaded.families);
    assert_eq!(in_memory.len(), reloaded.len());
    for (a, b) in in_memory.points.iter().zip(&reloaded.points) {
        assert_eq!(a.program, b.program);
        assert_eq!(a.schedule, b.schedule);
        // serde_json's float path may be 1 ULP off.
        assert!((a.speedup - b.speedup).abs() <= f64::EPSILON * a.speedup.abs());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption is detected: flipping one byte fails verification.
#[test]
fn verify_catches_corruption() {
    let dir = tmp_dir("corrupt");
    ParallelDatasetBuilder::new(build_config(6, 1, 2))
        .write_corpus(&harness(), &dir)
        .unwrap();
    let sharded = ShardedDataset::open(&dir).unwrap();
    sharded.verify().unwrap();

    let shard = dir.join(&sharded.manifest().shards[0].file);
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&shard, bytes).unwrap();
    assert!(sharded.verify().is_err(), "corruption went undetected");
    let _ = std::fs::remove_dir_all(&dir);
}

/// No two samples share an exact `(program content, schedule)` key, the
/// builder reports what it dropped, and regenerated duplicate programs
/// reuse each other's measurements through the shared cache.
#[test]
fn corpus_dedups_and_reuses_measurements() {
    // Single-computation assigns over a one-size pool with the quantized
    // constant pool: structurally identical programs recur across seeds,
    // differing only in their generated names.
    let cfg = BuildConfig {
        threads: 2,
        num_shards: 2,
        ..BuildConfig::new(DatasetConfig {
            num_programs: 64,
            schedules_per_program: 6,
            progen: ProgramGenConfig {
                // NB: keep rank-3 shapes satisfiable (8^3 ≤ max_points),
                // or the generator's rejection loop cannot terminate.
                size_pool: vec![8],
                max_points: 1 << 12,
                max_comps: 1,
                pattern_weights: vec![1, 0, 0, 0, 0, 0],
                ..ProgramGenConfig::default()
            },
            ..DatasetConfig::tiny(1)
        })
    };
    let (dataset, stats) = ParallelDatasetBuilder::new(cfg).generate(&harness());
    let mut keys = HashSet::new();
    for point in &dataset.points {
        let key = (
            dataset.programs[point.program].content_fingerprint(),
            stable_fingerprint(&point.schedule),
        );
        assert!(keys.insert(key), "duplicate sample survived dedup");
    }
    assert_eq!(stats.num_points, dataset.len());
    // 64 single-comp programs over a one-size pool: content collisions
    // are effectively certain. If this ever flakes the config needs
    // shrinking, not the assertion deleting.
    assert!(
        stats.duplicates_dropped > 0,
        "expected the tiny config to produce droppable duplicates"
    );
    assert!(
        stats.eval.cache_hits > 0,
        "duplicate programs' remaining schedules should be served from cache"
    );
    // Pinned across the builder's move to the shared result cache: the
    // cache tier must not change what is measured versus answered.
    assert_eq!(
        (
            stats.eval.cache_hits,
            stats.eval.cache_misses,
            stats.eval.num_evals
        ),
        (13, 371, 371)
    );

    // Splits are by *content*: a workload generated twice must never sit
    // in train and test at the same time.
    let split = dataset.split(0);
    let fp_bucket = |idx: &[usize]| -> HashSet<u64> {
        idx.iter()
            .map(|&i| dataset.programs[dataset.points[i].program].content_fingerprint())
            .collect()
    };
    let train = fp_bucket(&split.train);
    let val = fp_bucket(&split.val);
    let test = fp_bucket(&split.test);
    assert!(
        train.is_disjoint(&val) && train.is_disjoint(&test) && val.is_disjoint(&test),
        "content-identical programs leaked across splits"
    );
}

/// Streaming batches cover exactly the filtered points, structure-pure.
#[test]
fn shard_batches_filter_and_group() {
    let dir = tmp_dir("stream");
    let builder = ParallelDatasetBuilder::new(build_config(9, 2, 3));
    let (dataset, _) = builder.generate(&harness());
    builder.write_corpus(&harness(), &dir).unwrap();

    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let keep: HashSet<usize> = (0..5).collect();
    let expected: usize = dataset
        .points
        .iter()
        .filter(|p| keep.contains(&p.program))
        .count();
    let source = ShardBatches::open_filtered(&dir, featurizer.clone(), 4, 2, Some(&keep)).unwrap();
    assert_eq!(source.num_points(), expected);

    let mut seen = 0;
    for i in 0..source.num_batches() {
        let batch = source.load_batch(i);
        assert!(!batch.is_empty() && batch.len() <= 4);
        let structure = batch[0].feats.structure_key();
        for sample in &batch {
            assert!(keep.contains(&(sample.group as usize)));
            assert_eq!(sample.group, batch[0].group, "batch mixes programs");
            assert_eq!(
                sample.feats.structure_key(),
                structure,
                "batch mixes tree structures"
            );
        }
        seen += batch.len();
    }
    assert_eq!(seen, expected);

    // Unfiltered source covers everything.
    let all = ShardBatches::open(&dir, featurizer, 4, 1).unwrap();
    assert_eq!(all.num_points(), dataset.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Both writers key a point by one feature base per program; every
/// written key — the seed corpus's at one and four threads, and an
/// appended generation's — must be the key of the point's full
/// encoding, fused trees included.
#[test]
fn written_structure_keys_are_full_featurization_keys() {
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let (other, _) = ParallelDatasetBuilder::new(build_config(13, 1, 1)).generate(&harness());
    let samples: Vec<AppendSample> = (other.points.iter())
        .map(|p| AppendSample {
            program: other.program_of(p).clone(),
            schedule: p.schedule.clone(),
            speedup: p.speedup,
            family: None,
        })
        .collect();
    for threads in [1, 4] {
        let dir = tmp_dir(&format!("keys_{threads}"));
        ParallelDatasetBuilder::new(build_config(11, threads, 3))
            .write_corpus(&harness(), &dir)
            .unwrap();
        let appended = append_generation(&dir, "keys", samples.clone(), threads).unwrap();
        assert!(appended.num_points > 0);
        let mut programs = HashMap::new();
        let (mut points, mut fused) = (0, 0);
        for path in ShardedDataset::open(&dir).unwrap().shard_paths() {
            for record in ShardReader::open(&path).unwrap() {
                match record.unwrap() {
                    ShardRecord::Program { index, program, .. } => {
                        programs.insert(index, program);
                    }
                    ShardRecord::Point {
                        program,
                        structure,
                        schedule,
                        ..
                    } => {
                        let full = featurizer.featurize(&programs[&program], &schedule);
                        assert_eq!(
                            parse_fingerprint(&structure),
                            Some(full.structure_key()),
                            "threads {threads}: {schedule:?}"
                        );
                        points += 1;
                        fused += usize::from(
                            (schedule.transforms.iter())
                                .any(|t| matches!(t, Transform::Fuse { .. })),
                        );
                    }
                }
            }
        }
        assert!(points > 0);
        assert!(fused > 0, "no written point exercises fusion");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn wide_corpus_tags_every_program_family() {
    let dir = tmp_dir("family_tags");
    let (manifest, _) = ParallelDatasetBuilder::new(build_config(9, 2, 2))
        .write_corpus(&harness(), &dir)
        .expect("write corpus");
    let sharded = ShardedDataset::open(&dir).expect("open");
    let families = sharded.load_dataset().expect("load").families;
    assert_eq!(families.len(), manifest.total_programs);
    let known: Vec<String> = dlcm_datagen::Pattern::ALL
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    for (pi, family) in families.iter().enumerate() {
        let name = family
            .as_deref()
            .unwrap_or_else(|| panic!("wide-config program {pi} missing its family tag"));
        assert!(known.contains(&name.to_string()), "unknown family {name:?}");
    }
    // Tags must survive a second open (i.e. they live in the shard
    // bytes, not in builder state).
    let reopened = ShardedDataset::open(&dir).expect("reopen");
    assert_eq!(reopened.load_dataset().expect("load").families, families);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_corpus_omits_family_keys_entirely() {
    // Legacy 6-entry weight configs must not gain a `family` field —
    // the key's mere presence would change default-corpus bytes.
    let dir = tmp_dir("family_untagged");
    ParallelDatasetBuilder::new(BuildConfig {
        threads: 2,
        num_shards: 2,
        ..BuildConfig::new(DatasetConfig::tiny(9))
    })
    .write_corpus(&harness(), &dir)
    .expect("write corpus");
    let sharded = ShardedDataset::open(&dir).expect("open");
    for family in sharded.load_dataset().expect("load").families {
        assert_eq!(family, None);
    }
    for path in sharded.shard_paths() {
        let bytes = std::fs::read_to_string(path).unwrap();
        assert!(
            !bytes.contains("\"family\""),
            "family key leaked into default shards"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Program `i` is drawn from its own RNG, seeded
/// `seed ^ i * 0x9E37_79B9_7F4A_7C15`: changing that derivation (or the
/// generators behind it) would silently re-draw every corpus, so a few
/// programs of a fixed configuration are pinned by content.
#[test]
fn per_index_rng_derivation_is_pinned() {
    let (built, _) = ParallelDatasetBuilder::new(build_config(4, 2, 2)).generate(&harness());
    let fingerprint = |i: usize| built.programs[i].content_fingerprint();
    assert_eq!(
        (fingerprint(0), fingerprint(3), fingerprint(9)),
        (0x534f4ee6ab2c1d66, 0xfec7d3e93c8f2e77, 0xa5d00ca05d99f645)
    );
}

/// An in-place edit of one shard's records.
type ShardEdit<'a> = &'a dyn Fn(&mut Vec<ShardRecord>);

/// Rewrites shard 0 of the corpus at `dir` through `edit`, leaving the
/// manifest as it was.
fn tamper_first_shard(dir: &Path, edit: ShardEdit<'_>) {
    let first = &ShardedDataset::open(dir).unwrap().shard_paths()[0];
    let mut records: Vec<ShardRecord> = ShardReader::open(first)
        .unwrap()
        .collect::<std::io::Result<_>>()
        .unwrap();
    edit(&mut records);
    let mut writer = ShardWriter::create(dir, 0).unwrap();
    for record in &records {
        writer.write(record).unwrap();
    }
    writer.finish().unwrap();
}

/// Every reader of the shard format is a view of one decoder, so a
/// corpus one of them rejects is rejected by all of them.
#[test]
fn every_reader_rejects_a_tampered_corpus() {
    let is_program = |r: &ShardRecord| matches!(r, ShardRecord::Program { .. });
    let duplicate_program = |records: &mut Vec<ShardRecord>| {
        let declared = records.iter().find(|r| is_program(r)).unwrap().clone();
        records.push(declared);
    };
    // The record keeps its fingerprint string; the body no longer
    // hashes to it.
    let edit_body = |records: &mut Vec<ShardRecord>| {
        let Some(ShardRecord::Program { program, .. }) = records.iter_mut().find(|r| is_program(r))
        else {
            unreachable!("every shard declares a program")
        };
        program.iters[0].upper -= 1;
    };
    let drop_point = |records: &mut Vec<ShardRecord>| {
        let at = records.iter().rposition(|r| !is_program(r)).unwrap();
        records.remove(at);
    };
    let edits: [(&str, ShardEdit<'_>); 3] = [
        ("duplicate Program record", &duplicate_program),
        ("program body edited under the old fingerprint", &edit_body),
        ("dropped Point line", &drop_point),
    ];
    for (what, edit) in edits {
        let dir = tmp_dir("tampered");
        ParallelDatasetBuilder::new(build_config(12, 1, 2))
            .write_corpus(&harness(), &dir)
            .unwrap();
        tamper_first_shard(&dir, edit);
        let sharded = ShardedDataset::open(&dir).unwrap();
        assert!(sharded.load_dataset().is_err(), "load_dataset: {what}");
        let featurizer = Featurizer::new(FeaturizerConfig::default());
        assert!(
            ShardBatches::open(&dir, featurizer, 4, 1).is_err(),
            "ShardBatches::open: {what}"
        );
        assert!(
            DedupIndex::build(&sharded).is_err(),
            "DedupIndex::build: {what}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
