//! The in-memory dataset: (program, schedule, measured speedup) triplets.
//!
//! §3 of the paper: 56,250 random algorithms x 32 random transformation
//! sequences = 1.8 M labeled programs, measured as the median of 30 runs
//! on a 16-node cluster over three weeks. [`Dataset`] is the in-memory
//! representation of such a corpus. It has one producer protocol:
//! [`crate::ParallelDatasetBuilder`] generates, labels and deduplicates
//! it — in memory ([`crate::ParallelDatasetBuilder::generate`]) or as
//! the sharded JSONL format of [`crate::ShardWriter`], which
//! [`crate::ShardedDataset::load_dataset`] loads back into this type.
//! Inside the crate the corpus is a `Corpus`: the dataset plus the
//! structure keys and fingerprints the shard format stores beside it,
//! the one shape the builder returns, the shard reader decodes and both
//! writers write from.

use dlcm_eval::pool;
use dlcm_ir::{Program, Schedule};
use dlcm_model::{Featurizer, FeaturizerConfig};
use serde::{Deserialize, Serialize};

use crate::progen::ProgramGenConfig;
use crate::schedgen::ScheduleGenConfig;
use crate::shard::{fingerprint_hex, ShardRecord};

/// One labeled triplet. `program` indexes [`Dataset::programs`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// Index into [`Dataset::programs`].
    pub program: usize,
    /// The transformation sequence.
    pub schedule: Schedule,
    /// Measured speedup over the unoptimized program.
    pub speedup: f64,
}

/// Scale and randomness knobs for dataset generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Number of random programs (the paper uses 56,250).
    pub num_programs: usize,
    /// Random schedules per program (the paper uses 32).
    pub schedules_per_program: usize,
    /// Master seed.
    pub seed: u64,
    /// Program-generator configuration.
    pub progen: ProgramGenConfig,
    /// Schedule-generator configuration.
    pub schedgen: ScheduleGenConfig,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            num_programs: 256,
            schedules_per_program: 32,
            seed: 0,
            progen: ProgramGenConfig::default(),
            schedgen: ScheduleGenConfig::default(),
        }
    }
}

impl DatasetConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            num_programs: 8,
            schedules_per_program: 6,
            seed,
            progen: ProgramGenConfig {
                size_pool: vec![16, 32, 64],
                max_points: 1 << 16,
                ..ProgramGenConfig::default()
            },
            schedgen: ScheduleGenConfig::default(),
        }
    }
}

/// Train/validation/test split, by *program* so that no program leaks
/// between splits (the paper batches points of the same algorithm
/// together and uses a 60/20/20 split).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Split {
    /// Point indices for training (60%).
    pub train: Vec<usize>,
    /// Point indices for validation (20%).
    pub val: Vec<usize>,
    /// Point indices for testing (20%).
    pub test: Vec<usize>,
}

/// A fully labeled dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Generated programs.
    pub programs: Vec<Program>,
    /// Labeled (program, schedule, speedup) triplets.
    pub points: Vec<DataPoint>,
    /// Scenario-family tag ([`crate::Pattern::name`]) of each program,
    /// parallel to [`Dataset::programs`]; `None` for programs of
    /// untagged (default-weight) configurations and for appended
    /// samples of unknown provenance.
    pub families: Vec<Option<String>>,
}

impl Dataset {
    /// Number of labeled points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points exist.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The program of a data point.
    pub fn program_of(&self, point: &DataPoint) -> &Program {
        &self.programs[point.program]
    }

    /// 60/20/20 split by program *content* (deterministic given `seed`):
    /// programs with identical [`Program::content_fingerprint`]s — random
    /// corpora re-draw small programs under different names — travel
    /// together, so no workload leaks between splits.
    pub fn split(&self, seed: u64) -> Split {
        self.split_by(self.programs.iter().map(Program::content_fingerprint), seed)
    }

    /// [`Dataset::split`] over precomputed content `fingerprints`, one
    /// per program in [`Dataset::programs`] order (a read corpus already
    /// holds them).
    pub(crate) fn split_by(&self, fingerprints: impl IntoIterator<Item = u64>, seed: u64) -> Split {
        // Group program indices by content; groups keep first-occurrence
        // order, so for duplicate-free datasets this degenerates to the
        // old per-program shuffle exactly.
        let mut group_of: std::collections::HashMap<u64, usize> = Default::default();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (pi, fp) in fingerprints.into_iter().enumerate() {
            let g = *group_of.entry(fp).or_insert(groups.len());
            if g == groups.len() {
                groups.push(Vec::new());
            }
            groups[g].push(pi);
        }

        let n_groups = groups.len();
        let mut order: Vec<usize> = (0..n_groups).collect();
        // Fisher–Yates with a splitmix-style generator.
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..n_groups).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        // Cut by cumulative *program* count so duplicate-heavy corpora
        // still land near 60/20/20.
        let n_prog = self.programs.len();
        let n_train = (n_prog * 6) / 10;
        let n_val = (n_prog * 2) / 10;
        // Each program's bucket: 0 train, 1 validation, 2 test.
        let mut bucket = vec![2u8; n_prog];
        let mut assigned = 0usize;
        for &g in &order {
            let dest = if assigned < n_train {
                0
            } else if assigned < n_train + n_val {
                1
            } else {
                break;
            };
            assigned += groups[g].len();
            for &pi in &groups[g] {
                bucket[pi] = dest;
            }
        }

        let mut split = Split {
            train: Vec::new(),
            val: Vec::new(),
            test: Vec::new(),
        };
        for (i, p) in self.points.iter().enumerate() {
            match bucket[p.program] {
                0 => split.train.push(i),
                1 => split.val.push(i),
                _ => split.test.push(i),
            }
        }
        split
    }
}

/// One corpus in memory: a [`Dataset`] (points ordered by program) plus
/// the per-record metadata the shard format stores beside it.
#[derive(Debug, PartialEq)]
pub(crate) struct Corpus {
    /// Programs, family tags and points.
    pub(crate) dataset: Dataset,
    /// Feature-tree structure key of each point, parallel to
    /// [`Dataset::points`].
    pub(crate) structures: Vec<u64>,
    /// Content fingerprint of each program, parallel to
    /// [`Dataset::programs`].
    pub(crate) fingerprints: Vec<u64>,
}

impl Corpus {
    /// Completes `dataset` with its programs' content `fingerprints` and
    /// each point's structure key: one [`dlcm_model::FeatureBase`] per
    /// program (so the featurizer's limits are checked once per
    /// program), the programs fanned over `threads` workers. A key is
    /// pure per `(program, schedule)`, so `threads` changes wall-clock
    /// only.
    pub(crate) fn new(dataset: Dataset, fingerprints: Vec<u64>, threads: usize) -> Corpus {
        let featurizer = Featurizer::new(FeaturizerConfig::default());
        let points = &dataset.points;
        let structures = pool::parallel_map(threads.max(1), dataset.programs.len(), |pi| {
            let base = featurizer.base(&dataset.programs[pi]);
            let start = points.partition_point(|p| p.program < pi);
            let end = points.partition_point(|p| p.program <= pi);
            points[start..end]
                .iter()
                .map(|p| base.structure_key(&p.schedule))
                .collect::<Vec<u64>>()
        });
        Corpus {
            structures: structures.into_iter().flatten().collect(),
            dataset,
            fingerprints,
        }
    }

    /// The shard record of program `k`, under global index `offset + k`.
    pub(crate) fn program_record(&self, k: usize, offset: usize) -> ShardRecord {
        ShardRecord::Program {
            index: offset + k,
            fingerprint: fingerprint_hex(self.fingerprints[k]),
            family: self.dataset.families[k].clone(),
            program: self.dataset.programs[k].clone(),
        }
    }

    /// The shard record of point `i`, its program index shifted by
    /// `offset`.
    pub(crate) fn point_record(&self, i: usize, offset: usize) -> ShardRecord {
        let point = &self.dataset.points[i];
        ShardRecord::Point {
            program: offset + point.program,
            structure: fingerprint_hex(self.structures[i]),
            speedup: point.speedup,
            schedule: point.schedule.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildConfig, ParallelDatasetBuilder};
    use dlcm_machine::{Machine, Measurement};

    fn tiny_dataset(seed: u64) -> Dataset {
        ParallelDatasetBuilder::new(BuildConfig::new(DatasetConfig::tiny(seed)))
            .generate(&Measurement::exact(Machine))
            .0
    }

    #[test]
    fn generation_produces_labeled_points() {
        let ds = tiny_dataset(0);
        assert_eq!(ds.programs.len(), 8);
        assert!(!ds.is_empty());
        for p in &ds.points {
            assert!(p.speedup.is_finite() && p.speedup > 0.0);
        }
    }

    #[test]
    fn speedups_are_diverse() {
        let ds = tiny_dataset(1);
        let min = ds.points.iter().map(|p| p.speedup).fold(f64::MAX, f64::min);
        let max = ds.points.iter().map(|p| p.speedup).fold(0.0, f64::max);
        assert!(
            max / min > 1.5,
            "labels should vary across schedules: {min}..{max}"
        );
    }

    #[test]
    fn split_is_by_program_and_complete() {
        let ds = tiny_dataset(2);
        let split = ds.split(0);
        let total = split.train.len() + split.val.len() + split.test.len();
        assert_eq!(total, ds.len());
        // No program appears in two splits.
        let progs = |idx: &[usize]| -> std::collections::HashSet<usize> {
            idx.iter().map(|&i| ds.points[i].program).collect()
        };
        let tr = progs(&split.train);
        let va = progs(&split.val);
        let te = progs(&split.test);
        assert!(tr.is_disjoint(&va) && tr.is_disjoint(&te) && va.is_disjoint(&te));
        assert!(!tr.is_empty() && !te.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_dataset(3);
        let b = tiny_dataset(3);
        assert_eq!(a, b);
    }
}
