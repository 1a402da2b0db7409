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

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

use dlcm_ir::fingerprint::stable_fingerprint;
use dlcm_ir::{Program, Schedule};

use crate::dataset::{Corpus, DataPoint, Dataset};
use crate::shard::{chain_fingerprint, GenerationInfo, ShardWriter, ShardedDataset};

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

    /// The dedup key of a point: its program's content fingerprint and
    /// its schedule's fingerprint.
    pub(crate) fn key(program_fp: u64, schedule: &Schedule) -> (u64, u64) {
        (program_fp, stable_fingerprint(schedule))
    }

    /// Records `key` ([`Self::key`]); `false` when it already occurred.
    pub(crate) fn insert(&mut self, key: (u64, u64)) -> bool {
        self.keys.insert(key)
    }

    /// Builds the index of `sharded` through the one validated shard
    /// reader.
    ///
    /// # Errors
    ///
    /// Fails on any corpus [`ShardedDataset::load_dataset`] rejects.
    pub fn build(sharded: &ShardedDataset) -> io::Result<DedupIndex> {
        let corpus = sharded.read()?;
        let mut index = DedupIndex::default();
        for point in &corpus.dataset.points {
            index.insert(Self::key(
                corpus.fingerprints[point.program],
                &point.schedule,
            ));
        }
        Ok(index)
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
/// global program indices; `threads` fans the structure-key pass over
/// the batch's programs (one feature base each) and changes wall-clock
/// only.
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
    // *set*, however the caller's capture threads interleaved. Each
    // distinct program fingerprint becomes one program of the new
    // generation, in sorted-key order, declared by its first retained
    // sample (content-identical samples carry identical tags by
    // construction, so first-wins is deterministic).
    let mut keyed: Vec<((u64, u64), AppendSample)> = samples
        .into_iter()
        .map(|s| {
            (
                DedupIndex::key(s.program.content_fingerprint(), &s.schedule),
                s,
            )
        })
        .collect();
    keyed.sort_by_key(|(key, _)| *key);
    let offered = keyed.len();
    let mut added = Dataset {
        programs: Vec::new(),
        points: Vec::new(),
        families: Vec::new(),
    };
    let mut fingerprints: Vec<u64> = Vec::new();
    for (key, sample) in keyed {
        if !dedup.insert(key) {
            continue;
        }
        if fingerprints.last() != Some(&key.0) {
            fingerprints.push(key.0);
            added.programs.push(sample.program);
            added.families.push(sample.family);
        }
        added.points.push(DataPoint {
            program: added.programs.len() - 1,
            schedule: sample.schedule,
            speedup: sample.speedup,
        });
    }
    let duplicates_dropped = offered - added.points.len();
    let fresh = Corpus::new(added, fingerprints, threads);
    let (num_programs, num_points) = (fresh.fingerprints.len(), fresh.structures.len());

    let generation_id = manifest.generations.len();
    let parent_chain = manifest.generations.last().map(|g| g.chain.clone());
    let mut shard_fps: Vec<String> = Vec::new();
    if num_points > 0 {
        // Fresh global program indices, past the existing corpus.
        let offset = manifest.total_programs;
        let mut writer = ShardWriter::create(dir, manifest.shards.len())?;
        for k in 0..num_programs {
            writer.write(&fresh.program_record(k, offset))?;
        }
        for i in 0..num_points {
            writer.write(&fresh.point_record(i, offset))?;
        }
        let mut info = writer.finish()?;
        info.generation = generation_id;
        shard_fps.push(info.fingerprint.clone());
        manifest.shards.push(info);
    }

    let generation = GenerationInfo {
        id: generation_id,
        label: label.to_string(),
        num_programs,
        num_points,
        duplicates_dropped,
        chain: chain_fingerprint(
            parent_chain.as_deref(),
            shard_fps.iter().map(String::as_str),
        ),
    };
    manifest.total_programs += num_programs;
    manifest.total_points += num_points;
    manifest.duplicates_dropped += duplicates_dropped;
    manifest.generations.push(generation.clone());
    manifest.save(dir)?;
    Ok(generation)
}
