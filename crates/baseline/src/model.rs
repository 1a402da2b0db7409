//! The Halide-2019-style baseline model: a feedforward network over the
//! 54 engineered features, trained with MSE (Halide's loss) and reported
//! with R² (Halide's metric), per §6 of the paper. The model implements
//! [`dlcm_eval::Evaluator`] so it drives search through the same batched
//! API as the execution and cost-model evaluators.

use std::time::Instant;

use dlcm_datagen::Dataset;
use dlcm_eval::{EvalStats, Evaluator};
use dlcm_ir::{Program, Schedule};
use dlcm_tensor::loss::mse;
use dlcm_tensor::nn::{Activation, Mlp, ParamStore};
use dlcm_tensor::optim::{AdamW, AdamWConfig, OneCycleLr};
use dlcm_tensor::{Tape, Tensor};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::features::{featurize_pair, NUM_FEATURES};

/// Training hyper-parameters for the baseline.
#[derive(Debug, Clone)]
pub struct HalideTrainConfig {
    /// Epochs over the training set.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Peak learning rate.
    pub max_lr: f32,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl Default for HalideTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 80,
            batch_size: 64,
            max_lr: 2e-3,
            seed: 0,
        }
    }
}

/// The baseline cost model: z-scored 54-feature input → MLP → speedup.
#[derive(Debug, Clone)]
pub struct HalideModel {
    store: ParamStore,
    net: Mlp,
    /// Per-feature mean (from the training set).
    feat_mean: Vec<f64>,
    /// Per-feature standard deviation.
    feat_std: Vec<f64>,
    /// Evaluation accounting.
    stats: EvalStats,
}

impl HalideModel {
    /// Creates an untrained model (identity normalization).
    pub fn new(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let net = Mlp::new(
            &mut store,
            "halide",
            &[NUM_FEATURES, 64, 32, 1],
            Activation::Relu,
            0.0,
            false,
            &mut rng,
        );
        Self {
            store,
            net,
            feat_mean: vec![0.0; NUM_FEATURES],
            feat_std: vec![1.0; NUM_FEATURES],
            stats: EvalStats::default(),
        }
    }

    /// The trained weights.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    fn normalize(&self, raw: &[f64]) -> Vec<f32> {
        raw.iter()
            .zip(self.feat_mean.iter().zip(&self.feat_std))
            .map(|(&x, (&m, &s))| ((x - m) / s) as f32)
            .collect()
    }

    /// Predicted speedup for a `(program, schedule)` pair. Returns a small
    /// positive floor for illegal schedules.
    pub fn predict(&self, program: &Program, schedule: &Schedule) -> f64 {
        let Ok(raw) = featurize_pair(program, schedule) else {
            return f64::MIN_POSITIVE;
        };
        let x = self.normalize(&raw);
        let mut tape = Tape::new();
        let xv = tape.constant(Tensor::row(x));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let y = self.net.forward(&mut tape, &self.store, xv, &mut rng);
        let pos = tape.softplus(y);
        f64::from(tape.value(pos).item()) + 1e-3
    }

    /// Trains on a dataset subset with MSE loss (Halide's objective).
    /// Feature statistics are (re)computed from the training indices.
    pub fn train(&mut self, dataset: &Dataset, indices: &[usize], cfg: &HalideTrainConfig) {
        assert!(!indices.is_empty(), "empty baseline training set");
        // Featurize.
        let samples: Vec<(Vec<f64>, f64)> = indices
            .iter()
            .filter_map(|&i| {
                let pt = &dataset.points[i];
                featurize_pair(dataset.program_of(pt), &pt.schedule)
                    .ok()
                    .map(|f| (f, pt.speedup))
            })
            .collect();
        // Normalization statistics.
        let n = samples.len() as f64;
        let mut mean = vec![0.0f64; NUM_FEATURES];
        for (f, _) in &samples {
            for (m, &x) in mean.iter_mut().zip(f) {
                *m += x / n;
            }
        }
        let mut std = vec![0.0f64; NUM_FEATURES];
        for (f, _) in &samples {
            for ((s, &m), &x) in std.iter_mut().zip(&mean).zip(f) {
                *s += (x - m) * (x - m) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-6);
        }
        self.feat_mean = mean;
        self.feat_std = std;

        let xs: Vec<Vec<f32>> = samples.iter().map(|(f, _)| self.normalize(f)).collect();
        let ys: Vec<f32> = samples.iter().map(|&(_, y)| y as f32).collect();

        let mut opt = AdamW::new(
            &self.store,
            AdamWConfig {
                lr: cfg.max_lr,
                weight_decay: 1e-4,
            },
        );
        let n_batches = xs.len().div_ceil(cfg.batch_size);
        let sched = OneCycleLr::new(cfg.max_lr, cfg.epochs * n_batches);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut step = 0;
        let mut tape = Tape::for_training();
        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                // Batched forward: stack the chunk into one matrix.
                let rows = chunk.iter().map(|&i| xs[i].as_slice());
                let x = Tensor::from_row_slices(chunk.len(), xs[chunk[0]].len(), rows);
                let target =
                    Tensor::from_vec(chunk.len(), 1, chunk.iter().map(|&i| ys[i]).collect());
                let xv = tape.constant(x);
                let raw = self.net.forward(&mut tape, &self.store, xv, &mut rng);
                let pred = tape.softplus(raw);
                let tv = tape.constant(target);
                let loss = mse(&mut tape, pred, tv);
                // `backward` releases the tape's values, so the step
                // updates the weights in place.
                let grads = tape.backward(loss);
                opt.step(&mut self.store, &grads, sched.lr_at(step));
                tape = grads.into_tape();
                step += 1;
            }
        }
    }

    /// Predictions over dataset indices, paired with the ground truth.
    pub fn evaluate(&self, dataset: &Dataset, indices: &[usize]) -> (Vec<f64>, Vec<f64>) {
        let pairs: Vec<(f64, f64)> = indices
            .iter()
            .map(|&i| {
                let pt = &dataset.points[i];
                (
                    pt.speedup,
                    self.predict(dataset.program_of(pt), &pt.schedule),
                )
            })
            .collect();
        pairs.into_iter().unzip()
    }
}

impl Evaluator for HalideModel {
    fn speedup_batch(&mut self, program: &Program, schedules: &[Schedule]) -> Vec<f64> {
        self.speedup_batch_charged(program, schedules).0
    }

    fn speedup_batch_charged(
        &mut self,
        program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        let start = Instant::now();
        let out = schedules.iter().map(|s| self.predict(program, s)).collect();
        let dt = start.elapsed().as_secs_f64();
        let charged = EvalStats {
            num_evals: schedules.len(),
            infer_time: dt,
            search_time: dt,
            ..EvalStats::default()
        };
        self.stats += charged;
        (out, charged)
    }

    fn stats(&self) -> EvalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_datagen::{BuildConfig, DatasetConfig, ParallelDatasetBuilder};
    use dlcm_machine::{Machine, Measurement};

    fn tiny_dataset(seed: u64) -> Dataset {
        ParallelDatasetBuilder::new(BuildConfig::new(DatasetConfig::tiny(seed)))
            .generate(&Measurement::exact(Machine))
            .0
    }

    #[test]
    fn training_improves_fit() {
        let ds = tiny_dataset(21);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut model = HalideModel::new(0);
        let (y, p0) = model.evaluate(&ds, &idx);
        let before = dlcm_model::metrics::r2(&y, &p0);
        model.train(
            &ds,
            &idx,
            &HalideTrainConfig {
                epochs: 60,
                ..HalideTrainConfig::default()
            },
        );
        let (_, p1) = model.evaluate(&ds, &idx);
        let after = dlcm_model::metrics::r2(&y, &p1);
        assert!(
            after > before,
            "R² should improve: {before:.3} -> {after:.3}"
        );
        assert!(
            after > 0.0,
            "trained baseline should beat the mean predictor: {after:.3}"
        );
    }

    #[test]
    fn predict_is_positive_for_any_schedule() {
        let ds = tiny_dataset(22);
        let model = HalideModel::new(1);
        let pt = &ds.points[0];
        assert!(model.predict(ds.program_of(pt), &pt.schedule) > 0.0);
    }
}
