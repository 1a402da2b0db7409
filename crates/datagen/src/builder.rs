//! Sharded, parallel, deduplicating corpus generation.
//!
//! The paper's corpus (§3: 56,250 algorithms x 32 schedules, labeled on a
//! 16-node cluster over three weeks) is rebuilt here around the PR 2
//! evaluation machinery:
//!
//! 1. **generate** — program/schedule generation fans out across the eval
//!    worker pool (`dlcm_eval::pool::parallel_map`), one deterministic
//!    RNG per program index;
//! 2. **label** — every sample is scored through one shared
//!    [`SharedCachedEvaluator`] wrapping a [`ParallelEvaluator`]; the cache
//!    keys on name-insensitive content, so re-drawn duplicate programs
//!    and equivalent schedule spellings are *measured once* and every
//!    later occurrence answers from cache;
//! 3. **dedup** — corpus retention is keyed by exact content
//!    fingerprints `(Program::content_fingerprint, schedule
//!    fingerprint)` ([`DedupIndex`]); a sample whose key already occurred
//!    would contribute an identical (features, label) pair to training
//!    and is dropped, across all shards;
//! 4. **structure keys** — one `dlcm_model::FeatureBase` per program
//!    gives each kept point its feature-tree structure key (the
//!    in-memory `Corpus` the shard reader also returns);
//! 5. **shard** — programs land in `index % num_shards`, each followed by
//!    its points; the manifest (counts + content fingerprints), saved
//!    last, is the only other file and the corpus's commit point.
//!
//! The determinism contract of PR 2 composes through every stage: worker
//! results return in index order, the evaluator is a pure function of
//! `(seed, program, schedule)`, and dedup/labeling walk programs in index
//! order — so the emitted shards and manifest are **byte-identical at any
//! thread count**, and `BuildConfig::threads` changes wall-clock only
//! (`tests/shard_pipeline.rs` enforces this).

use std::io;
use std::path::Path;

use dlcm_eval::{pool, EvalStats, ParallelEvaluator, SharedCachedEvaluator, SyncEvaluator};
use dlcm_ir::{Program, Schedule};
use dlcm_machine::Measurement;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::{Corpus, DataPoint, Dataset, DatasetConfig};
use crate::genlog::DedupIndex;
use crate::progen::{Pattern, ProgramGenerator};
use crate::schedgen::ScheduleGenerator;
use crate::shard::{
    chain_fingerprint, GenerationInfo, ShardManifest, ShardWriter, SHARD_FORMAT_VERSION,
};

/// Scale, parallelism, and sharding knobs of the corpus builder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BuildConfig {
    /// What to generate (counts, seed, generator configs).
    pub dataset: DatasetConfig,
    /// Worker threads for generation, labeling fan-out, and the
    /// structure-key pass (fanned over programs, one feature base each).
    /// Never changes results — only wall-clock.
    pub threads: usize,
    /// Number of shard files a written corpus is split into.
    pub num_shards: usize,
}

impl BuildConfig {
    /// A builder configuration over `dataset` with 1 thread and 4 shards.
    pub fn new(dataset: DatasetConfig) -> Self {
        Self {
            dataset,
            threads: 1,
            num_shards: 4,
        }
    }
}

/// What a corpus build did, beyond the samples themselves.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BuildStats {
    /// Programs generated.
    pub num_programs: usize,
    /// Labeled samples kept.
    pub num_points: usize,
    /// Samples dropped by exact-content cross-shard dedup.
    pub duplicates_dropped: usize,
    /// Evaluator accounting: `num_evals` counts actually-measured
    /// candidates, `cache_hits` counts equivalent schedules answered
    /// without re-measurement.
    pub eval: EvalStats,
}

/// Sharded, parallel, deduplicating dataset builder: the one producer
/// of labeled [`Dataset`]s, in memory or on disk.
///
/// ```no_run
/// use dlcm_datagen::{BuildConfig, DatasetConfig, ParallelDatasetBuilder};
/// use dlcm_machine::{Machine, Measurement};
///
/// let builder = ParallelDatasetBuilder::new(BuildConfig {
///     threads: 4,
///     num_shards: 4,
///     ..BuildConfig::new(DatasetConfig::default())
/// });
/// let harness = Measurement::new(Machine);
/// let (manifest, stats) = builder
///     .write_corpus(&harness, std::path::Path::new("results/corpus"))
///     .unwrap();
/// assert_eq!(manifest.total_points, stats.num_points);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelDatasetBuilder {
    cfg: BuildConfig,
}

impl ParallelDatasetBuilder {
    /// Creates a builder.
    pub fn new(cfg: BuildConfig) -> Self {
        Self { cfg }
    }

    /// The builder's configuration.
    pub fn config(&self) -> &BuildConfig {
        &self.cfg
    }

    /// Generation + labeling + dedup + structure keys; the shared core of
    /// [`Self::generate`] and [`Self::write_corpus`]. Programs and kept
    /// schedules are moved out of the generation buffers, so the corpus
    /// exists in memory once.
    fn build(&self, measurement: &Measurement) -> (Corpus, BuildStats) {
        let ds = &self.cfg.dataset;
        let threads = self.cfg.threads.max(1);
        let progen = ProgramGenerator::new(ds.progen.clone());
        let schedgen = ScheduleGenerator::new(ds.schedgen.clone());
        // Family tags ride the nine-family opt-in: untagged (default
        // weight) corpora keep their exact pre-tag record bytes.
        let tag_families = ds.progen.tags_families();

        // Phase 1: generation, fanned across the worker pool. Each program
        // index seeds its own RNG, and `parallel_map` returns results in
        // index order, so the fan-out is invisible in the output.
        let generated: Vec<(Program, Pattern, Vec<Schedule>)> =
            pool::parallel_map(threads, ds.num_programs, |pi| {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    ds.seed ^ (pi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let (program, family) =
                    progen.generate_with_family(&mut rng, &format!("rand_{pi}"));
                let schedules =
                    schedgen.generate_distinct(&program, ds.schedules_per_program, &mut rng);
                (program, family, schedules)
            });
        let fingerprints: Vec<u64> = generated
            .iter()
            .map(|(p, _, _)| p.content_fingerprint())
            .collect();
        let families: Vec<Option<String>> = generated
            .iter()
            .map(|(_, family, _)| tag_families.then(|| family.name().to_string()))
            .collect();

        // Phase 2: labeling through one shared cache. The parallel
        // evaluator fans each program's batch across the pool, and the
        // cache keys on name-insensitive content — so when the random
        // generator re-draws a structurally identical program (or an
        // equivalent schedule spelling), the duplicate is *measured
        // once* and every later occurrence is answered from cache.
        // Values are a pure function of `(seed, program, schedule)`, so
        // this loop is bit-identical at any thread count.
        let evaluator = SharedCachedEvaluator::new(ParallelEvaluator::new(
            measurement.clone(),
            ds.seed,
            threads,
        ));
        let labeled: Vec<Vec<f64>> = generated
            .iter()
            .map(|(program, _, schedules)| evaluator.speedup_batch_shared(program, schedules).0)
            .collect();

        // Phase 3: cross-shard dedup on exact content. A sample is
        // dropped when both the program structure (ignoring its
        // generated name) and the literal transform sequence already
        // occurred — it would contribute an identical (features, label)
        // pair to training. Walked in program-index order, so "first
        // occurrence wins" is well defined. Labeling already happened:
        // thanks to the cache the dropped duplicates cost nothing extra
        // to have labeled.
        let offered: usize = labeled.iter().map(Vec::len).sum();
        let mut seen = DedupIndex::default();
        let mut dataset = Dataset {
            programs: Vec::with_capacity(generated.len()),
            points: Vec::new(),
            families,
        };
        for (pi, ((program, _, schedules), speedups)) in
            generated.into_iter().zip(labeled).enumerate()
        {
            dataset.programs.push(program);
            for (schedule, speedup) in schedules.into_iter().zip(speedups) {
                if seen.insert(DedupIndex::key(fingerprints[pi], &schedule)) {
                    dataset.points.push(DataPoint {
                        program: pi,
                        schedule,
                        speedup,
                    });
                }
            }
        }

        // Phase 4: feature-tree structure keys (config-independent), so
        // streamed training can group structure-identical minibatches
        // straight from shard records.
        let corpus = Corpus::new(dataset, fingerprints, threads);
        let stats = BuildStats {
            num_programs: corpus.dataset.programs.len(),
            num_points: corpus.dataset.points.len(),
            duplicates_dropped: offered - corpus.dataset.points.len(),
            eval: evaluator.total_stats(),
        };
        (corpus, stats)
    }

    /// Builds the corpus in memory.
    ///
    /// The returned [`Dataset`] is ordered by `(program index,
    /// within-program generation order)` and is identical — bit for bit,
    /// at any [`BuildConfig::threads`] — to what [`Self::write_corpus`]
    /// followed by [`crate::ShardedDataset::load_dataset`] produces.
    pub fn generate(&self, measurement: &Measurement) -> (Dataset, BuildStats) {
        let (corpus, stats) = self.build(measurement);
        (corpus.dataset, stats)
    }

    /// Builds the corpus and writes it as shards + manifest into `dir`
    /// (created if missing).
    ///
    /// Program `i` lands in shard `i % num_shards`, immediately followed
    /// by its points, so every shard is self-contained for streaming.
    /// The manifest is written after every shard and nothing after it.
    ///
    /// # Errors
    ///
    /// Propagates IO failures.
    pub fn write_corpus(
        &self,
        measurement: &Measurement,
        dir: &Path,
    ) -> io::Result<(ShardManifest, BuildStats)> {
        let (corpus, stats) = self.build(measurement);
        std::fs::create_dir_all(dir)?;
        // Clear shard files from any previous corpus in this directory:
        // a regeneration with fewer shards must not leave stale
        // shard-NNNN.jsonl files next to the new manifest.
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("shard-") && name.ends_with(".jsonl") {
                std::fs::remove_file(entry.path())?;
            }
        }
        let num_shards = self.cfg.num_shards.max(1);
        let mut writers: Vec<ShardWriter> = (0..num_shards)
            .map(|k| ShardWriter::create(dir, k))
            .collect::<io::Result<_>>()?;

        let points = &corpus.dataset.points;
        let mut next_point = 0usize;
        for pi in 0..corpus.dataset.programs.len() {
            let writer = &mut writers[pi % num_shards];
            // NB: ShardRecord owns its payload, so each record clones its
            // program/schedule transiently (one record at a time) — peak
            // memory stays one corpus plus one record.
            writer.write(&corpus.program_record(pi, 0))?;
            while next_point < points.len() && points[next_point].program == pi {
                writer.write(&corpus.point_record(next_point, 0))?;
                next_point += 1;
            }
        }
        debug_assert_eq!(next_point, points.len());

        let shards: Vec<_> = writers
            .into_iter()
            .map(ShardWriter::finish)
            .collect::<io::Result<_>>()?;
        let seed_generation = GenerationInfo {
            id: 0,
            label: "seed".to_string(),
            num_programs: stats.num_programs,
            num_points: stats.num_points,
            duplicates_dropped: stats.duplicates_dropped,
            chain: chain_fingerprint(None, shards.iter().map(|s| s.fingerprint.as_str())),
        };
        let manifest = ShardManifest {
            version: SHARD_FORMAT_VERSION,
            config: self.cfg.dataset.clone(),
            total_programs: stats.num_programs,
            total_points: stats.num_points,
            duplicates_dropped: stats.duplicates_dropped,
            shards,
            generations: vec![seed_generation],
        };
        manifest.save(dir)?;
        Ok((manifest, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progen::ProgramGenConfig;
    use crate::shard::ShardedDataset;
    use dlcm_machine::Machine;

    /// The builder's corpus — structure keys and fingerprints included —
    /// is the one the shard reader decodes, at any thread count
    /// (`tests/shard_pipeline.rs` checks the written keys against full
    /// featurization).
    #[test]
    fn built_corpus_is_the_read_corpus() {
        let dataset = DatasetConfig {
            num_programs: 16,
            schedules_per_program: 8,
            seed: 11,
            progen: ProgramGenConfig {
                size_pool: vec![16, 32, 64],
                max_points: 1 << 16,
                ..ProgramGenConfig::wide()
            },
            ..DatasetConfig::default()
        };
        let measurement = Measurement::new(Machine);
        let mut corpora = Vec::new();
        for threads in [1, 4] {
            let builder = ParallelDatasetBuilder::new(BuildConfig {
                threads,
                ..BuildConfig::new(dataset.clone())
            });
            let (built, _) = builder.build(&measurement);
            assert_eq!(built.structures.len(), built.dataset.points.len());
            let dir = std::env::temp_dir().join(format!("dlcm_builder_parity_{threads}"));
            let _ = std::fs::remove_dir_all(&dir);
            builder.write_corpus(&measurement, &dir).unwrap();
            let read = ShardedDataset::open(&dir).unwrap().read().unwrap();
            assert_eq!(
                read, built,
                "threads {threads}: reader disagrees with builder"
            );
            std::fs::remove_dir_all(&dir).ok();
            corpora.push(built);
        }
        assert_eq!(corpora[0], corpora[1], "threads changed the corpus");
    }
}
