//! # dlcm-datagen
//!
//! The data-generation pipeline of the DLCM reproduction of *"A Deep
//! Learning Based Cost Model for Automatic Code Optimization"* (MLSys
//! 2021), §3: random Tiramisu-like programs over nine scenario families
//! ([`Pattern::ALL`]: the paper's assignments/stencils/reductions plus
//! convs, reduction pipelines, scans, attention pipelines, boundary
//! stencils and gather/scatter streams — the canonical corpus enables
//! all nine through [`ProgramGenConfig::wide`]), random legal
//! transformation sequences, and labeled `(program, schedule, speedup)`
//! triplets measured on the simulated machine of `dlcm-machine`.
//!
//! There is one generation path and one labeling protocol:
//! [`ParallelDatasetBuilder`] fans generation across a worker pool,
//! labels through a shared, deduplicating
//! `dlcm_eval::SharedCachedEvaluator`, and returns the corpus in memory
//! ([`ParallelDatasetBuilder::generate`]) or writes it as JSONL shards
//! plus a manifest ([`ShardWriter`]/[`ShardReader`]/[`ShardManifest`])
//! that are **byte-identical at any thread count**. One reader decodes
//! and validates that format; [`ShardedDataset::load_dataset`],
//! [`ShardBatches`] and the [`DedupIndex`] are views of it.
//!
//! Corpora are *generation-versioned*: the builder's output is
//! generation 0 of an append-only history, and [`append_generation`]
//! adds later generations (e.g. the mispredicts the data flywheel
//! checks against ground truth) as new shards whose [`GenerationInfo::chain`] fingerprints
//! chain onto the parent's, deduplicated against the whole history via
//! the [`DedupIndex`] built from the shards. The manifest is the only
//! record of that history and the single commit point of an append.
//!
//! Training streams minibatches straight from shards through
//! [`ShardBatches`] (a `dlcm_model::BatchSource`), featurizing each
//! batch on demand with [`prepare`] — the stream owns the corpus it read,
//! the union of every generation in manifest order — and
//! [`open_split`] turns one read of a corpus into the split, the
//! streamed training source and the featurized validation/test sets.
//! See DESIGN.md § "Dataset pipeline" and § "Data flywheel" for the
//! on-disk format specification.
//!
//! # Examples
//!
//! In-memory generation:
//!
//! ```
//! use dlcm_datagen::{BuildConfig, DatasetConfig, ParallelDatasetBuilder};
//! use dlcm_machine::{Machine, Measurement};
//!
//! let builder = ParallelDatasetBuilder::new(BuildConfig::new(DatasetConfig::tiny(42)));
//! let (dataset, _stats) = builder.generate(&Measurement::exact(Machine));
//! assert!(!dataset.is_empty());
//! let split = dataset.split(0);
//! assert!(!split.train.is_empty());
//! ```
//!
//! Sharded corpus generation + streamed training:
//!
//! ```no_run
//! use dlcm_datagen::{
//!     open_split, BuildConfig, DatasetConfig, ParallelDatasetBuilder, ShardedDataset,
//! };
//! use dlcm_machine::{Machine, Measurement};
//! use dlcm_model::{Featurizer, FeaturizerConfig};
//! use std::path::Path;
//!
//! let builder = ParallelDatasetBuilder::new(BuildConfig {
//!     threads: 4,
//!     num_shards: 4,
//!     ..BuildConfig::new(DatasetConfig::default())
//! });
//! let dir = Path::new("results/corpus");
//! let (manifest, stats) = builder
//!     .write_corpus(&Measurement::new(Machine), dir)
//!     .unwrap();
//! println!(
//!     "{} points in {} shards ({} duplicates dropped, {} cache hits)",
//!     manifest.total_points,
//!     manifest.shards.len(),
//!     stats.duplicates_dropped,
//!     stats.eval.cache_hits
//! );
//! let featurizer = Featurizer::new(FeaturizerConfig::default());
//! let corpus = open_split(&ShardedDataset::open(dir).unwrap(), &featurizer, 32).unwrap();
//! // … dlcm_model::train_stream(&mut model, &corpus.train, &corpus.val_set, &cfg)
//! ```

#![warn(missing_docs)]

mod builder;
mod dataset;
mod genlog;
mod progen;
mod schedgen;
mod shard;
mod stream;

pub use builder::{BuildConfig, BuildStats, ParallelDatasetBuilder};
pub use dataset::{DataPoint, Dataset, DatasetConfig, Split};
pub use genlog::{append_generation, AppendSample, DedupIndex};
pub use progen::{Pattern, ProgramGenConfig, ProgramGenerator};
pub use schedgen::{ScheduleGenConfig, ScheduleGenerator};
pub use shard::{
    chain_fingerprint, fingerprint_hex, parse_fingerprint, GenerationInfo, ShardInfo,
    ShardManifest, ShardReader, ShardRecord, ShardWriter, ShardedDataset, SHARD_FORMAT_VERSION,
};
pub use stream::{open_split, prepare, CorpusSplit, ShardBatches};
