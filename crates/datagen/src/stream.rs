//! Streaming the corpus into training: featurize minibatches on demand.
//!
//! `dlcm_model::train_stream` pulls minibatches from a
//! [`dlcm_model::BatchSource`]; [`ShardBatches`] implements that source
//! over a shard directory. It owns the raw records (programs, schedules,
//! labels) it read at open time — the one in-memory copy of the corpus —
//! and its batches are point indices into them; *features* — the
//! expensive, wide part — are computed per minibatch by [`prepare`],
//! from one per-program [`dlcm_model::FeatureBase`], when the training
//! loop asks for it. Batches are structure-identical by construction:
//! the shard format stores each point's feature-tree structure key, so
//! grouping needs no up-front featurization pass. [`open_split`] is the
//! one place a corpus is cut: one read becomes the by-program split, the
//! streamed training source (which keeps the whole corpus, read back
//! through [`CorpusSplit::dataset`]) and the featurized validation/test
//! sets.

use std::collections::HashSet;
use std::io;
use std::path::Path;

use dlcm_model::{
    featurize_samples, group_into_batches, BatchSource, Featurizer, LabeledFeatures, SampleRef,
};

use crate::dataset::{Corpus, Dataset, Split};
use crate::shard::ShardedDataset;

/// Featurizes a subset of a dataset (indices into [`Dataset::points`]),
/// in order. This is how [`ShardBatches`] loads each minibatch, and how
/// [`open_split`] featurizes the validation and test sets up front.
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

/// A corpus cut for one training run ([`open_split`]). The corpus itself
/// lives once, in the training stream; [`CorpusSplit::dataset`] reads it.
#[derive(Debug)]
pub struct CorpusSplit {
    /// The 60/20/20 by-program split (`Dataset::split(0)`).
    pub split: Split,
    /// The training points as streamed minibatches; owns the corpus.
    pub train: ShardBatches,
    /// Featurized validation points.
    pub val_set: Vec<LabeledFeatures>,
    /// Featurized held-out test points.
    pub test_set: Vec<LabeledFeatures>,
}

impl CorpusSplit {
    /// The whole corpus, every generation and every split.
    pub fn dataset(&self) -> &Dataset {
        &self.train.dataset
    }
}

/// Reads `corpus` once and cuts it for training: the by-program split
/// (over the content fingerprints the read already checked), the
/// training points as a [`ShardBatches`] stream (which keeps the whole
/// corpus, but batches only training points) and the — much smaller —
/// validation and test sets featurized up front.
///
/// # Errors
///
/// Propagates shard IO, parse and validation failures.
pub fn open_split(
    corpus: &ShardedDataset,
    featurizer: &Featurizer,
    batch_size: usize,
) -> io::Result<CorpusSplit> {
    let corpus = corpus.read()?;
    let fingerprints = corpus.fingerprints.iter().copied();
    let split = corpus.dataset.split_by(fingerprints, 0);
    let train = ShardBatches::over(corpus, featurizer.clone(), batch_size, &split.train);
    let val_set = prepare(featurizer, &train.dataset, &split.val);
    let test_set = prepare(featurizer, &train.dataset, &split.test);
    Ok(CorpusSplit {
        split,
        train,
        val_set,
        test_set,
    })
}

/// A [`BatchSource`] over a shard directory: minibatches of
/// structure-identical samples, featurized on demand.
///
/// The stream owns the raw records it was read from — from
/// [`open_split`], every point of the corpus, not only the streamed
/// ones; from [`ShardBatches::open_filtered`], only the streamed
/// points — plus **one** batch of features at a time; the full `Vec<LabeledFeatures>` of the corpus is
/// never materialized. Batch layout is deterministic (ordered grouping
/// by `(program index, structure key)`, chunked to `batch_size`), so a
/// training run over shards is reproducible given the usual seeds.
#[derive(Debug)]
pub struct ShardBatches {
    featurizer: Featurizer,
    dataset: Dataset,
    /// Each minibatch's indices into `dataset.points`.
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
    /// the validation/test points are dropped with the read, so they
    /// enter neither the batches nor the stream's memory (every program
    /// record stays). `threads` is read by nothing, as in
    /// [`ShardBatches::open`].
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
        let mut corpus = ShardedDataset::open(dir)?.read()?;
        if let Some(keep) = keep {
            let points = std::mem::take(&mut corpus.dataset.points);
            let structures = std::mem::take(&mut corpus.structures);
            (corpus.dataset.points, corpus.structures) = points
                .into_iter()
                .zip(structures)
                .filter(|(point, _)| keep.contains(&point.program))
                .unzip();
        }
        let points: Vec<usize> = (0..corpus.dataset.len()).collect();
        Ok(Self::over(corpus, featurizer, batch_size, &points))
    }

    /// Streams `points` (ascending indices into the corpus's points),
    /// grouped by their stored structure keys.
    fn over(corpus: Corpus, featurizer: Featurizer, batch_size: usize, points: &[usize]) -> Self {
        let Corpus {
            dataset,
            structures,
            ..
        } = corpus;
        let keys = points
            .iter()
            .map(|&i| (dataset.points[i].program as u64, structures[i]));
        // The same helper the in-memory source groups with, so streamed
        // and in-memory training see identical batch layouts.
        let mut batches = group_into_batches(keys, batch_size);
        for index in batches.iter_mut().flatten() {
            *index = points[*index];
        }
        ShardBatches {
            featurizer,
            dataset,
            batches,
        }
    }

    /// Number of points that passed the filter.
    pub fn num_points(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

impl BatchSource for ShardBatches {
    fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Featurizes the batch inline ([`prepare`]): a batch holds one
    /// program's points, so one [`dlcm_model::FeatureBase`] serves it.
    fn load_batch(&self, index: usize) -> Vec<LabeledFeatures> {
        prepare(&self.featurizer, &self.dataset, &self.batches[index])
    }
}
