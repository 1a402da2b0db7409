//! Streaming the corpus into training: featurize minibatches on demand.
//!
//! `dlcm_model::train_stream` pulls minibatches from a
//! [`dlcm_model::BatchSource`]; [`ShardBatches`] implements that source
//! over a shard directory. Raw records (programs, schedules, labels) are
//! read once at open time, but *features* — the expensive, wide part —
//! are computed per minibatch, inline from one per-program
//! [`dlcm_model::FeatureBase`], when the training loop asks for it.
//! Batches are structure-identical by construction: the shard format
//! stores each point's feature-tree structure key, so grouping needs no
//! up-front featurization pass. [`open_split`] is the whole
//! recipe in one call: one read of the corpus becomes the by-program
//! split, the streamed training source and the featurized
//! validation/test sets.

use std::collections::HashSet;
use std::io;
use std::path::Path;

use dlcm_ir::Program;
use dlcm_model::{
    featurize_samples, group_into_batches, BatchSource, Featurizer, LabeledFeatures, SampleRef,
};

use crate::dataset::{DataPoint, Dataset, Split};
use crate::shard::ShardedDataset;

/// Featurizes a subset of a dataset (indices into [`Dataset::points`]),
/// in order.
///
/// The in-memory convenience path; the streaming equivalent is
/// [`ShardBatches`], which featurizes lazily per minibatch.
pub fn prepare(
    featurizer: &Featurizer,
    dataset: &Dataset,
    indices: &[usize],
) -> Vec<LabeledFeatures> {
    let samples: Vec<SampleRef<'_>> = indices
        .iter()
        .map(|&i| {
            let point = &dataset.points[i];
            SampleRef {
                program: dataset.program_of(point),
                schedule: &point.schedule,
                speedup: point.speedup,
                group: point.program as u64,
            }
        })
        .collect();
    featurize_samples(featurizer, &samples)
}

/// A corpus cut for one training run ([`open_split`]).
#[derive(Debug)]
pub struct CorpusSplit {
    /// The whole corpus, every generation.
    pub dataset: Dataset,
    /// Its 60/20/20 by-program split (`Dataset::split(0)`).
    pub split: Split,
    /// The training programs' points as streamed minibatches.
    pub train: ShardBatches,
    /// Featurized validation points.
    pub val_set: Vec<LabeledFeatures>,
    /// Featurized held-out test points.
    pub test_set: Vec<LabeledFeatures>,
}

/// Reads `corpus` once and cuts it for training: the by-program split,
/// the training programs as a [`ShardBatches`] stream (so validation and
/// test points never enter the training pipeline) and the — much
/// smaller — validation and test sets featurized up front.
///
/// # Errors
///
/// Propagates shard IO, parse and validation failures.
pub fn open_split(
    corpus: &ShardedDataset,
    featurizer: &Featurizer,
    batch_size: usize,
) -> io::Result<CorpusSplit> {
    let loaded = corpus.read()?;
    let dataset = loaded.dataset;
    let split = dataset.split(0);
    let train_programs: HashSet<usize> = split
        .train
        .iter()
        .map(|&i| dataset.points[i].program)
        .collect();
    let train = ShardBatches::over(
        &dataset,
        &loaded.structures,
        featurizer.clone(),
        batch_size,
        Some(&train_programs),
    );
    let val_set = prepare(featurizer, &dataset, &split.val);
    let test_set = prepare(featurizer, &dataset, &split.test);
    Ok(CorpusSplit {
        dataset,
        split,
        train,
        val_set,
        test_set,
    })
}

/// A [`BatchSource`] over a shard directory: minibatches of
/// structure-identical samples, featurized on demand.
///
/// Memory stays proportional to the raw records plus **one** batch of
/// features; the full `Vec<LabeledFeatures>` of the corpus is never
/// materialized. Batch layout is deterministic (ordered grouping by
/// `(program index, structure key)`, chunked to `batch_size`), so a
/// training run over shards is reproducible given the usual seeds.
#[derive(Debug)]
pub struct ShardBatches {
    featurizer: Featurizer,
    programs: Vec<Option<Program>>,
    points: Vec<DataPoint>,
    batches: Vec<Vec<usize>>,
}

impl ShardBatches {
    /// Opens every shard of `dir` for streaming. `threads` is read by
    /// nothing: a batch is featurized inline, and the argument stays
    /// only because the benchmark package calls
    /// [`ShardBatches::open_filtered`] with it.
    ///
    /// # Errors
    ///
    /// Propagates manifest/shard IO, parse and validation failures.
    pub fn open(
        dir: &Path,
        featurizer: Featurizer,
        batch_size: usize,
        threads: usize,
    ) -> io::Result<ShardBatches> {
        Self::open_filtered(dir, featurizer, batch_size, threads, None)
    }

    /// Opens `dir`, keeping only points whose program index is in `keep`
    /// (pass `None` for all). This is how a by-program train split
    /// streams from a shared corpus: filter to the training programs and
    /// the validation/test points never enter the pipeline. `threads` is
    /// read by nothing, as in [`ShardBatches::open`].
    ///
    /// # Errors
    ///
    /// Propagates manifest/shard IO, parse and validation failures.
    pub fn open_filtered(
        dir: &Path,
        featurizer: Featurizer,
        batch_size: usize,
        _threads: usize,
        keep: Option<&HashSet<usize>>,
    ) -> io::Result<ShardBatches> {
        let loaded = ShardedDataset::open(dir)?.read()?;
        Ok(Self::over(
            &loaded.dataset,
            &loaded.structures,
            featurizer,
            batch_size,
            keep,
        ))
    }

    /// Streams the points of `dataset` whose program is in `keep`
    /// (`None`: all); `structures` holds each point's structure key.
    fn over(
        dataset: &Dataset,
        structures: &[u64],
        featurizer: Featurizer,
        batch_size: usize,
        keep: Option<&HashSet<usize>>,
    ) -> ShardBatches {
        let kept = |program: usize| keep.is_none_or(|k| k.contains(&program));
        let programs: Vec<Option<Program>> = dataset
            .programs
            .iter()
            .enumerate()
            .map(|(index, program)| kept(index).then(|| program.clone()))
            .collect();
        let (points, keys): (Vec<DataPoint>, Vec<(u64, u64)>) = dataset
            .points
            .iter()
            .zip(structures)
            .filter(|(point, _)| kept(point.program))
            .map(|(point, structure)| (point.clone(), (point.program as u64, *structure)))
            .unzip();

        ShardBatches {
            featurizer,
            programs,
            points,
            // The same helper the in-memory source groups with, so
            // streamed and in-memory training see identical batch
            // layouts.
            batches: group_into_batches(keys, batch_size),
        }
    }

    /// Number of points that passed the filter.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }
}

impl BatchSource for ShardBatches {
    fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Featurizes the batch inline ([`featurize_samples`]): a batch holds
    /// one program's points, so one [`dlcm_model::FeatureBase`] serves it.
    fn load_batch(&self, index: usize) -> Vec<LabeledFeatures> {
        let samples: Vec<SampleRef<'_>> = self.batches[index]
            .iter()
            .map(|&i| {
                let point = &self.points[i];
                SampleRef {
                    program: self.programs[point.program]
                        .as_ref()
                        .expect("points only reference kept programs"),
                    schedule: &point.schedule,
                    speedup: point.speedup,
                    group: point.program as u64,
                }
            })
            .collect();
        featurize_samples(&self.featurizer, &samples)
    }
}
