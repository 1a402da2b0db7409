//! The alternative architectures of §4.4 ("Other Neural Network Models
//! Explored"), used to reproduce the ablation numbers:
//!
//! - [`FlatLstmModel`] — "replacing the Recursive loop embedding layer
//!   with a simple Recurrent Neural Network that is directly fed with the
//!   sequence of computation embeddings without taking in consideration
//!   the loops hierarchy" → paper reports a 1.15× relative MAPE increase
//!   on the test set.
//! - [`ConcatFfnModel`] — "totally skipping the Recursive loop embedding
//!   layer and feeding directly the concatenated computation embeddings
//!   to the regression layer" (maximum 4 computations) → 1.39× relative
//!   MAPE increase, and no support for variable program sizes.

use dlcm_tensor::nn::{Activation, LstmCell, Mlp, ParamStore};
use dlcm_tensor::{Tape, Tensor, Var};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::costmodel::{CostModelConfig, SpeedupPredictor};
use crate::featurize::ProgramFeatures;

/// Ablation 1: computation embeddings → sequence LSTM → regression.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatLstmModel {
    cfg: CostModelConfig,
    store: ParamStore,
    embed: Mlp,
    lstm: LstmCell,
    regress: Mlp,
}

impl FlatLstmModel {
    /// Creates the flat-LSTM ablation with the same widths as the
    /// corresponding [`crate::costmodel::CostModel`].
    pub fn new(cfg: CostModelConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let h = cfg.hidden();
        let mut embed_widths = vec![cfg.input_dim];
        embed_widths.extend(&cfg.embed_widths);
        let embed = Mlp::new(
            &mut store,
            "embed",
            &embed_widths,
            Activation::Elu,
            cfg.dropout,
            true,
            &mut rng,
        );
        let lstm = LstmCell::new(&mut store, "lstm", h, h, &mut rng);
        let mut regress_widths = vec![h];
        regress_widths.extend(&cfg.regress_widths);
        regress_widths.push(1);
        let regress = Mlp::new(
            &mut store,
            "regress",
            &regress_widths,
            Activation::Elu,
            cfg.dropout,
            false,
            &mut rng,
        );
        Self {
            cfg,
            store,
            embed,
            lstm,
            regress,
        }
    }
}

impl SpeedupPredictor for FlatLstmModel {
    fn forward_batch(
        &self,
        tape: &mut Tape,
        batch: &[&ProgramFeatures],
        rng: &mut ChaCha8Rng,
    ) -> Var {
        assert!(!batch.is_empty(), "empty batch");
        let b = batch.len();
        let n = batch[0].comp_vectors.len();
        let d = self.cfg.input_dim;
        let mut data = Vec::with_capacity(b * n * d);
        for f in batch {
            assert_eq!(f.comp_vectors.len(), n, "batch must be structure-identical");
            for v in &f.comp_vectors {
                data.extend_from_slice(v);
            }
        }
        let x = tape.constant(Tensor::from_vec(b * n, d, data));
        let rows = self.embed.forward(tape, &self.store, x, rng);
        // Sequence over computations in textual order, ignoring the tree.
        let seq: Vec<Var> = (0..n)
            .map(|i| {
                let idx: Vec<usize> = (0..b).map(|s| s * n + i).collect();
                tape.gather_rows(rows, &idx)
            })
            .collect();
        let state = self.lstm.run(tape, &self.store, &seq, b);
        let raw = self.regress.forward(tape, &self.store, state.h, rng);
        crate::costmodel::exp_head(tape, raw)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

/// Ablation 2: concatenated computation embeddings → regression MLP.
/// Supports at most `max_comps` computations ("we have set the maximum
/// number of computations to 4 when testing this alternative").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcatFfnModel {
    cfg: CostModelConfig,
    /// Maximum number of computations (zero-padded below).
    pub max_comps: usize,
    store: ParamStore,
    embed: Mlp,
    regress: Mlp,
}

impl ConcatFfnModel {
    /// Creates the concat-FFN ablation.
    pub fn new(cfg: CostModelConfig, max_comps: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let h = cfg.hidden();
        let mut embed_widths = vec![cfg.input_dim];
        embed_widths.extend(&cfg.embed_widths);
        let embed = Mlp::new(
            &mut store,
            "embed",
            &embed_widths,
            Activation::Elu,
            cfg.dropout,
            true,
            &mut rng,
        );
        let mut regress_widths = vec![h * max_comps];
        regress_widths.extend(&cfg.regress_widths);
        regress_widths.push(1);
        let regress = Mlp::new(
            &mut store,
            "regress",
            &regress_widths,
            Activation::Elu,
            cfg.dropout,
            false,
            &mut rng,
        );
        Self {
            cfg,
            max_comps,
            store,
            embed,
            regress,
        }
    }
}

impl SpeedupPredictor for ConcatFfnModel {
    fn forward_batch(
        &self,
        tape: &mut Tape,
        batch: &[&ProgramFeatures],
        rng: &mut ChaCha8Rng,
    ) -> Var {
        assert!(!batch.is_empty(), "empty batch");
        let b = batch.len();
        let n = batch[0].comp_vectors.len();
        assert!(
            n <= self.max_comps,
            "ConcatFfnModel supports at most {} computations, got {n}",
            self.max_comps
        );
        let d = self.cfg.input_dim;
        let h = self.cfg.hidden();
        let mut data = Vec::with_capacity(b * n * d);
        for f in batch {
            assert_eq!(f.comp_vectors.len(), n, "batch must be structure-identical");
            for v in &f.comp_vectors {
                data.extend_from_slice(v);
            }
        }
        let x = tape.constant(Tensor::from_vec(b * n, d, data));
        let rows = self.embed.forward(tape, &self.store, x, rng);
        let mut cat = {
            let idx: Vec<usize> = (0..b).map(|s| s * n).collect();
            tape.gather_rows(rows, &idx)
        };
        for i in 1..self.max_comps {
            let next = if i < n {
                let idx: Vec<usize> = (0..b).map(|s| s * n + i).collect();
                tape.gather_rows(rows, &idx)
            } else {
                tape.constant(Tensor::zeros(b, h))
            };
            cat = tape.concat_cols(cat, next);
        }
        let raw = self.regress.forward(tape, &self.store, cat, rng);
        crate::costmodel::exp_head(tape, raw)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{Featurizer, FeaturizerConfig};
    use dlcm_ir::{Expr, ProgramBuilder, Schedule};

    fn feats(n_comps: usize) -> ProgramFeatures {
        let mut b = ProgramBuilder::new("p");
        for c in 0..n_comps {
            let i = b.iter(format!("i{c}"), 0, 16);
            let out = b.buffer(format!("o{c}"), &[16]);
            b.assign(format!("c{c}"), &[i], out, &[i.into()], Expr::Const(1.0));
        }
        let p = b.build().unwrap();
        Featurizer::new(FeaturizerConfig::default()).featurize(&p, &Schedule::empty())
    }

    fn tiny_cfg() -> CostModelConfig {
        CostModelConfig {
            input_dim: FeaturizerConfig::default().vector_width(),
            embed_widths: vec![32, 16],
            merge_hidden: 16,
            regress_widths: vec![16],
            dropout: 0.0,
        }
    }

    #[test]
    fn flat_lstm_handles_variable_sizes() {
        let m = FlatLstmModel::new(tiny_cfg(), 0);
        for n in 1..=4 {
            let p = m.predict(&feats(n));
            assert!(p > 0.0);
        }
    }

    #[test]
    fn concat_ffn_pads_and_caps() {
        let m = ConcatFfnModel::new(tiny_cfg(), 4, 0);
        for n in 1..=4 {
            assert!(m.predict(&feats(n)) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "supports at most")]
    fn concat_ffn_rejects_oversized_programs() {
        let m = ConcatFfnModel::new(tiny_cfg(), 4, 0);
        let _ = m.predict(&feats(5));
    }

    #[test]
    fn ablations_train_end_to_end() {
        use crate::train::{train, LabeledFeatures, TrainConfig};
        let samples: Vec<LabeledFeatures> = (1..=3)
            .map(|n| LabeledFeatures {
                feats: feats(n),
                target: n as f64,
                group: n as u64,
            })
            .collect();
        let mut m = FlatLstmModel::new(tiny_cfg(), 1);
        let report = train(
            &mut m,
            &samples,
            &samples,
            &TrainConfig {
                epochs: 5,
                batch_size: 3,
                ..TrainConfig::default()
            },
        );
        assert!(report.final_val_mape.is_finite());
    }
}
