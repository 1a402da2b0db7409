//! Appending new generations to an existing sharded corpus.
//!
//! The seed corpus written by [`crate::ParallelDatasetBuilder`] is
//! generation 0 of an append-only history. Later generations — in
//! practice, the mispredicts the data flywheel keeps — arrive
//! as already-labeled [`AppendSample`]s and are appended through
//! [`append_generation`]:
//!
//! 1. samples are sorted by content key `(program fingerprint, schedule
//!    fingerprint)`, so the appended shard is independent of arrival
//!    order (and therefore of serve-side thread count);
//! 2. they are deduplicated against the *entire* corpus history — the
//!    [`DedupIndex`] built from the shards themselves — and within the
//!    batch itself;
//! 3. survivors land in one new shard continuing the
//!    `shard-NNNN.jsonl` sequence, with fresh global program indices so
//!    every shard stays self-contained;
//! 4. the manifest gains a [`GenerationInfo`] whose chain fingerprint
//!    folds the parent generation's chain ([`chain_fingerprint`]), so
//!    the corpus history is a hash chain: same traffic in, bit-identical
//!    generation out.
//!
//! The manifest is the corpus's single commit point: the new shard is
//! written first and becomes part of the corpus only when the manifest
//! naming it is saved. Nothing else is persisted (a `dedup.json` left by
//! an older build is ignored).

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use dlcm_eval::pool;
use dlcm_ir::fingerprint::stable_fingerprint;
use dlcm_ir::{Program, Schedule};
use dlcm_model::{Featurizer, FeaturizerConfig};

use crate::shard::{
    chain_fingerprint, fingerprint_hex, GenerationInfo, ShardRecord, ShardWriter, ShardedDataset,
};

/// One labeled sample offered for corpus append: the data flywheel's
/// kept mispredicts are exactly this (the measured ground-truth
/// speedup, not the model's prediction, is what enters the corpus).
#[derive(Debug, Clone)]
pub struct AppendSample {
    /// The program the schedule was served against.
    pub program: Program,
    /// The transformation sequence.
    pub schedule: Schedule,
    /// Ground-truth speedup over the unoptimized program.
    pub speedup: f64,
    /// Scenario-family tag carried into the appended `Program` record
    /// ([`crate::Pattern::name`]); `None` when provenance is unknown —
    /// the data flywheel's mispredicts do not know which
    /// generator family produced the program.
    pub family: Option<String>,
}

/// The cross-generation dedup index: every `(program content
/// fingerprint, schedule fingerprint)` key retained anywhere in the
/// corpus history. Derived from the shards, never stored beside them,
/// so it cannot disagree with the corpus it describes.
#[derive(Debug, Clone, Default)]
pub struct DedupIndex {
    keys: BTreeSet<(u64, u64)>,
}

impl DedupIndex {
    /// Whether `(program fingerprint, schedule fingerprint)` already
    /// occurred in the corpus history.
    pub fn contains(&self, program_fp: u64, schedule_fp: u64) -> bool {
        self.keys.contains(&(program_fp, schedule_fp))
    }

    /// Builds the index of `sharded` through the one validated shard
    /// reader.
    ///
    /// # Errors
    ///
    /// Fails on any corpus [`ShardedDataset::load_dataset`] rejects.
    pub fn build(sharded: &ShardedDataset) -> io::Result<DedupIndex> {
        let corpus = sharded.read()?;
        let keys = corpus
            .dataset
            .points
            .iter()
            .map(|point| {
                (
                    corpus.fingerprints[point.program],
                    stable_fingerprint(&point.schedule),
                )
            })
            .collect();
        Ok(DedupIndex { keys })
    }
}

/// Appends one generation of already-labeled samples to the corpus at
/// `dir`, returning the new [`GenerationInfo`].
///
/// Samples are sorted by content key and deduplicated against the whole
/// corpus history (plus within the batch), so the result is independent
/// of arrival order: the same sample *set* always appends a
/// byte-identical shard and the same chained fingerprint. Survivors are
/// written to one new shard continuing the index sequence, under fresh
/// global program indices; `threads` fans the structure-key
/// featurization and changes wall-clock only.
///
/// A batch whose every sample deduplicates away (or an empty batch)
/// still appends a generation-log entry — with no shard — so the chain
/// records that the append happened.
///
/// # Errors
///
/// Propagates IO failures and rejects a corpus the shard reader
/// rejects.
pub fn append_generation(
    dir: &Path,
    label: &str,
    samples: Vec<AppendSample>,
    threads: usize,
) -> io::Result<GenerationInfo> {
    let sharded = ShardedDataset::open(dir)?;
    let mut manifest = sharded.manifest().clone();
    let mut dedup = DedupIndex::build(&sharded)?;

    // Key, sort, and dedup. Sorting by content key first makes the
    // retained set — and the shard bytes — a pure function of the sample
    // *set*, however the caller's capture threads interleaved.
    let mut keyed: Vec<((u64, u64), AppendSample)> = samples
        .into_iter()
        .map(|s| {
            (
                (
                    s.program.content_fingerprint(),
                    stable_fingerprint(&s.schedule),
                ),
                s,
            )
        })
        .collect();
    keyed.sort_by_key(|(key, _)| *key);
    let offered = keyed.len();
    let mut retained: Vec<((u64, u64), AppendSample)> = Vec::new();
    for (key, sample) in keyed {
        if dedup.keys.insert(key) {
            retained.push((key, sample));
        }
    }
    let duplicates_dropped = offered - retained.len();

    // Fresh global program indices: one per distinct program
    // fingerprint in the retained batch, assigned in sorted-key order
    // starting past the existing corpus.
    let mut program_index: BTreeMap<u64, usize> = BTreeMap::new();
    for ((prog_fp, _), _) in &retained {
        let next = manifest.total_programs + program_index.len();
        program_index.entry(*prog_fp).or_insert(next);
    }

    // Structure keys, fanned across the pool (pure per sample).
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let structures: Vec<u64> = pool::parallel_map(threads.max(1), retained.len(), |k| {
        let (_, sample) = &retained[k];
        featurizer
            .featurize(&sample.program, &sample.schedule)
            .structure_key()
    });

    let generation_id = manifest.generations.len();
    let parent_chain = manifest.generations.last().map(|g| g.chain.clone());
    let mut shard_fps: Vec<String> = Vec::new();
    if !retained.is_empty() {
        let mut writer = ShardWriter::create(dir, manifest.shards.len())?;
        let mut declared: BTreeSet<u64> = BTreeSet::new();
        for ((prog_fp, _), sample) in &retained {
            if declared.insert(*prog_fp) {
                writer.write(&ShardRecord::Program {
                    index: program_index[prog_fp],
                    fingerprint: fingerprint_hex(*prog_fp),
                    // First retained occurrence declares the program;
                    // content-identical samples carry identical tags by
                    // construction, so first-wins is deterministic.
                    family: sample.family.clone(),
                    program: sample.program.clone(),
                })?;
            }
        }
        for (((prog_fp, _), sample), structure) in retained.iter().zip(&structures) {
            writer.write(&ShardRecord::Point {
                program: program_index[prog_fp],
                structure: fingerprint_hex(*structure),
                speedup: sample.speedup,
                schedule: sample.schedule.clone(),
            })?;
        }
        let mut info = writer.finish()?;
        info.generation = generation_id;
        shard_fps.push(info.fingerprint.clone());
        manifest.shards.push(info);
    }

    let generation = GenerationInfo {
        id: generation_id,
        label: label.to_string(),
        num_programs: program_index.len(),
        num_points: retained.len(),
        duplicates_dropped,
        chain: chain_fingerprint(
            parent_chain.as_deref(),
            shard_fps.iter().map(String::as_str),
        ),
    };
    manifest.total_programs += program_index.len();
    manifest.total_points += retained.len();
    manifest.duplicates_dropped += duplicates_dropped;
    manifest.generations.push(generation.clone());
    manifest.save(dir)?;
    Ok(generation)
}
