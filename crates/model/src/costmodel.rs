//! The cost-model architecture (§4.4, Figure 2).
//!
//! Three layers:
//!
//! 1. **Computation embedding layer** — every computation vector passes
//!    through a feedforward network (paper: 1235→600→350→200→180, ELU,
//!    dropout 0.225).
//! 2. **Recursive loop embedding layer** — computation embeddings are
//!    combined bottom-up along the program tree by the *loop embedding
//!    unit*: one LSTM over the embeddings of computations nested directly
//!    at the level, a second LSTM over the child loop embeddings, and a
//!    feedforward layer merging the two hidden states (Figure 2b).
//! 3. **Regression layer** — a shallow feedforward network maps the
//!    program embedding to the predicted speedup.
//!
//! The output passes through [`exp_head`], `exp(8·tanh(raw/8))`, so
//! predicted speedups are positive by construction (speedups are positive
//! targets; the paper trains with MAPE, which requires this). The
//! ablation models share the head; only the Halide-style baseline
//! (`dlcm-baseline`) ends in softplus.

use dlcm_tensor::nn::{Activation, LstmCell, Mlp, ParamStore};
use dlcm_tensor::{Tape, Tensor, Var};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::featurize::{FeatNode, ProgramFeatures};

/// Architecture hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModelConfig {
    /// Input (computation-vector) width.
    pub input_dim: usize,
    /// Hidden widths of the embedding MLP (final entry = embedding size).
    pub embed_widths: Vec<usize>,
    /// Hidden width of the merge layer inside the loop embedding unit.
    pub merge_hidden: usize,
    /// Hidden widths of the regression head.
    pub regress_widths: Vec<usize>,
    /// Dropout probability (paper: 0.225).
    pub dropout: f32,
}

impl CostModelConfig {
    /// The paper's exact layer sizes (appendix A.1).
    pub fn paper(input_dim: usize) -> Self {
        Self {
            input_dim,
            embed_widths: vec![600, 350, 200, 180],
            merge_hidden: 200,
            regress_widths: vec![200, 180],
            dropout: 0.225,
        }
    }

    /// A reduced configuration with the same topology, sized for CPU-only
    /// training in this reproduction (documented deviation; the paper
    /// trains on a GPU-backed PyTorch stack for ~700 epochs).
    pub fn fast(input_dim: usize) -> Self {
        Self {
            input_dim,
            embed_widths: vec![160, 100, 64],
            merge_hidden: 80,
            regress_widths: vec![80, 48],
            dropout: 0.1,
        }
    }

    /// Embedding dimension (output of layer 1, state size of layer 2).
    pub fn hidden(&self) -> usize {
        *self.embed_widths.last().expect("non-empty embed widths")
    }

    /// How many weights [`CostModel::new`] registers for this
    /// configuration, or `None` when it has no embedding layer or the
    /// count overflows. A loader checks a stored weights file against
    /// this before it allocates a model for a configuration read from
    /// disk.
    pub fn num_params(&self) -> Option<usize> {
        // An MLP over `widths`: a weight matrix and a bias row per layer.
        let mlp = |widths: &[usize]| {
            widths.windows(2).try_fold(0usize, |n, w| {
                n.checked_add(w[0].checked_mul(w[1])?.checked_add(w[1])?)
            })
        };
        let h = *self.embed_widths.last()?;
        let embed: Vec<usize> = std::iter::once(self.input_dim)
            .chain(self.embed_widths.iter().copied())
            .collect();
        let regress: Vec<usize> = std::iter::once(h)
            .chain(self.regress_widths.iter().copied())
            .chain(std::iter::once(1))
            .collect();
        // Each LSTM cell (input and state width `h`): per gate, `Wx` and
        // `Wh` (`h x h`) and a bias row.
        let lstm = h
            .checked_mul(h)?
            .checked_mul(2)?
            .checked_add(h)?
            .checked_mul(4)?;
        let merge = mlp(&[h.checked_mul(2)?, self.merge_hidden, h])?;
        [mlp(&embed)?, lstm, lstm, merge, mlp(&regress)?]
            .into_iter()
            .try_fold(0usize, usize::checked_add)
    }
}

/// Models that map [`ProgramFeatures`] to a predicted speedup. Implemented
/// by the recursive [`CostModel`] and by the §4.4 ablation architectures.
pub trait SpeedupPredictor: Send + Sync {
    /// Builds a batched forward graph for structure-identical samples,
    /// returning a `batch x 1` prediction matrix. Batching
    /// structure-identical samples is the paper's A.1 trick: "it is
    /// faster to operate on data points having the same tree structure".
    fn forward_batch(
        &self,
        tape: &mut Tape,
        batch: &[&ProgramFeatures],
        rng: &mut ChaCha8Rng,
    ) -> Var;

    /// Single-sample forward graph (a batch of one).
    fn forward(&self, tape: &mut Tape, feats: &ProgramFeatures, rng: &mut ChaCha8Rng) -> Var {
        self.forward_batch(tape, &[feats], rng)
    }

    /// The trainable parameters.
    fn store(&self) -> &ParamStore;

    /// Mutable access to the parameters (for the optimizer).
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Inference: predicted speedup (dropout disabled).
    fn predict(&self, feats: &ProgramFeatures) -> f64 {
        self.infer_batch(std::slice::from_ref(&feats))
            .pop()
            .expect("one sample in, one prediction out")
    }

    /// Inference-mode batched forward pass over structure-identical
    /// samples, returning the raw (unclamped) prediction column.
    ///
    /// The default runs [`SpeedupPredictor::forward_batch`] on a fresh
    /// inference tape with the fixed dropout seed — semantically the
    /// reference path. Implementations may override it with a faster
    /// equivalent kernel, but the override must stay **bit-identical**
    /// to this default ([`CostModel`] overrides it with the arena SoA
    /// walk; `tests/soa_parity.rs` pins the equivalence).
    fn infer_batch(&self, batch: &[&ProgramFeatures]) -> Vec<f64> {
        let mut tape = Tape::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let pred = self.forward_batch(&mut tape, batch, &mut rng);
        let values = tape.value(pred);
        (0..batch.len())
            .map(|row| f64::from(values.get(row, 0)))
            .collect()
    }
}

/// The paper's recursive cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    pub(crate) cfg: CostModelConfig,
    pub(crate) store: ParamStore,
    pub(crate) embed: Mlp,
    pub(crate) lstm_comps: LstmCell,
    pub(crate) lstm_loops: LstmCell,
    pub(crate) merge: Mlp,
    pub(crate) regress: Mlp,
}

impl CostModel {
    /// Creates a Glorot-initialized model.
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
        let lstm_comps = LstmCell::new(&mut store, "lstm_comps", h, h, &mut rng);
        let lstm_loops = LstmCell::new(&mut store, "lstm_loops", h, h, &mut rng);
        let merge = Mlp::new(
            &mut store,
            "merge",
            &[2 * h, cfg.merge_hidden, h],
            Activation::Elu,
            cfg.dropout,
            true,
            &mut rng,
        );
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
            lstm_comps,
            lstm_loops,
            merge,
            regress,
        }
    }

    /// Architecture in use.
    pub fn config(&self) -> &CostModelConfig {
        &self.cfg
    }

    /// Total number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// The loop embedding unit (Figure 2b): summarizes one loop level from
    /// the embeddings of its directly-nested computations and the
    /// embeddings of its child loops.
    fn loop_unit(
        &self,
        tape: &mut Tape,
        comp_embeds: &[Var],
        loop_embeds: &[Var],
        rows: usize,
        rng: &mut ChaCha8Rng,
    ) -> Var {
        let hc = self.lstm_comps.run(tape, &self.store, comp_embeds, rows).h;
        let hl = self.lstm_loops.run(tape, &self.store, loop_embeds, rows).h;
        let cat = tape.concat_cols(hc, hl);
        self.merge.forward(tape, &self.store, cat, rng)
    }

    /// Recursive walk of the *shared* tree: every node value is a
    /// `batch x hidden` matrix. Computation leaves gather one row per
    /// sample out of the batched embedding matrix (sample-major layout:
    /// sample `b`, computation `c` lives at row `b * comps + c`).
    fn embed_node(
        &self,
        tape: &mut Tape,
        node: &FeatNode,
        comp_rows: Var,
        rows: usize,
        comps_per_sample: usize,
        rng: &mut ChaCha8Rng,
    ) -> Var {
        match node {
            FeatNode::Comp(i) => {
                let indices: Vec<usize> = (0..rows).map(|b| b * comps_per_sample + i).collect();
                tape.gather_rows(comp_rows, &indices)
            }
            FeatNode::Loop(children) => {
                let mut comp_embeds = Vec::new();
                let mut loop_embeds = Vec::new();
                for ch in children {
                    let e = self.embed_node(tape, ch, comp_rows, rows, comps_per_sample, rng);
                    match ch {
                        FeatNode::Comp(_) => comp_embeds.push(e),
                        FeatNode::Loop(_) => loop_embeds.push(e),
                    }
                }
                self.loop_unit(tape, &comp_embeds, &loop_embeds, rows, rng)
            }
        }
    }

    /// The three layers over `x`, the `(rows * comps) x input_dim`
    /// sample-major matrix of a batch's computation vectors; `shared` is
    /// any sample of the batch (they share one tree).
    fn forward_packed(
        &self,
        tape: &mut Tape,
        x: Var,
        shared: &ProgramFeatures,
        rows: usize,
        rng: &mut ChaCha8Rng,
    ) -> Var {
        // Layer 1: embed every computation vector of every sample in one
        // batched matmul.
        let comps = shared.comp_vectors.len();
        let comp_rows = self.embed.forward(tape, &self.store, x, rng);

        // Layer 2: recursive loop embedding over the shared forest; a
        // virtual root treats top-level nests (and bare computations) as
        // children.
        let mut comp_embeds = Vec::new();
        let mut loop_embeds = Vec::new();
        for node in &shared.tree {
            let e = self.embed_node(tape, node, comp_rows, rows, comps, rng);
            match node {
                FeatNode::Comp(_) => comp_embeds.push(e),
                FeatNode::Loop(_) => loop_embeds.push(e),
            }
        }
        let program_embedding = self.loop_unit(tape, &comp_embeds, &loop_embeds, rows, rng);

        // Layer 3: regression, positive output.
        let raw = self
            .regress
            .forward(tape, &self.store, program_embedding, rng);
        exp_head(tape, raw)
    }
}

impl SpeedupPredictor for CostModel {
    fn forward_batch(
        &self,
        tape: &mut Tape,
        batch: &[&ProgramFeatures],
        rng: &mut ChaCha8Rng,
    ) -> Var {
        assert!(!batch.is_empty(), "empty batch");
        let rows = batch.len();
        let shared = batch[0];
        let comps = shared.comp_vectors.len();
        debug_assert!(
            batch
                .iter()
                .all(|f| f.structure_key() == shared.structure_key()),
            "batch must be structure-identical"
        );

        // Pack every computation vector of every sample into one matrix
        // (sample-major rows).
        let d = self.cfg.input_dim;
        let vectors = batch.iter().flat_map(|f| &f.comp_vectors);
        let packed = Tensor::from_row_slices(rows * comps, d, vectors.map(Vec::as_slice));
        // A constant: nothing reads the gradient of the features, and
        // skipping it spares the backward pass its largest product.
        let x = tape.constant(packed);
        self.forward_packed(tape, x, shared, rows, rng)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// The flattened SoA kernel (`crate::soa`): the same three layers
    /// walked over a preallocated per-thread arena instead of a tape —
    /// no per-op graph nodes, no per-op allocation — bit-identical to
    /// the default by construction (shared matmul kernel, op-for-op
    /// matched scalar expressions) and by the `soa_parity` test.
    fn infer_batch(&self, batch: &[&ProgramFeatures]) -> Vec<f64> {
        crate::soa::infer_batch_soa(self, batch)
    }
}

/// The positive output head shared by all architectures: a soft-clamped
/// exponential, `exp(8*tanh(raw/8))`. Predictions live in log-space, so
/// the decades-wide range of speedups (the paper's Figure 4 spans 0.005
/// to 100x) gets uniform gradient treatment under the MAPE loss, and the
/// output stays in `(e^-8, e^8)` for numerical stability.
pub fn exp_head(tape: &mut Tape, raw: Var) -> Var {
    let scaled = tape.scale(raw, 1.0 / 8.0);
    let squashed = tape.tanh(scaled);
    let expanded = tape.scale(squashed, 8.0);
    tape.exp(expanded)
}

/// Convenience: RNG factory for dropout noise during training.
pub fn train_rng(seed: u64, sample: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ (sample as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Inference-mode scores for one structure-identical batch: one
/// [`SpeedupPredictor::infer_batch`] pass (dropout inert; the arena SoA
/// kernel for [`CostModel`], the reference tape for everything else),
/// outputs clamped positive.
///
/// This is *the* scoring kernel every inference surface shares: its one
/// caller outside this crate is `dlcm_eval::score_wave`, the wave scorer
/// behind both the in-process `dlcm_eval::ModelEvaluator` and the
/// `dlcm-serve` miss path — so "served answers are bit-identical to
/// in-process evaluation" is a structural fact, not two hand-kept
/// copies of the same seed/clamp/tape recipe.
pub fn infer_scores(model: &dyn SpeedupPredictor, rows: &[&ProgramFeatures]) -> Vec<f64> {
    model
        .infer_batch(rows)
        .into_iter()
        .map(|v| v.max(f64::MIN_POSITIVE))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{Featurizer, FeaturizerConfig};
    use dlcm_ir::{Expr, ProgramBuilder, Schedule};

    fn tiny_feats() -> ProgramFeatures {
        let mut b = ProgramBuilder::new("p");
        let i = b.iter("i", 0, 16);
        let j = b.iter("j", 0, 16);
        let inp = b.input("in", &[16, 16]);
        let out = b.buffer("out", &[16, 16]);
        let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign("c", &[i, j], out, &[i.into(), j.into()], Expr::Load(acc));
        let p = b.build().unwrap();
        Featurizer::new(FeaturizerConfig::default()).featurize(&p, &Schedule::empty())
    }

    fn tiny_model() -> CostModel {
        let cfg = CostModelConfig {
            input_dim: FeaturizerConfig::default().vector_width(),
            embed_widths: vec![32, 16],
            merge_hidden: 16,
            regress_widths: vec![16],
            dropout: 0.0,
        };
        CostModel::new(cfg, 0)
    }

    #[test]
    fn prediction_is_positive_and_deterministic() {
        let m = tiny_model();
        let feats = tiny_feats();
        let p1 = m.predict(&feats);
        let p2 = m.predict(&feats);
        assert!(p1 > 0.0);
        assert_eq!(p1, p2);
    }

    #[test]
    fn paper_config_matches_appendix() {
        let cfg = CostModelConfig::paper(1235);
        assert_eq!(cfg.embed_widths, vec![600, 350, 200, 180]);
        assert_eq!(cfg.hidden(), 180);
        assert_eq!(cfg.merge_hidden, 200);
        assert_eq!(cfg.regress_widths, vec![200, 180]);
        assert!((cfg.dropout - 0.225).abs() < 1e-6);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let m = tiny_model();
        let feats = tiny_feats();
        let mut tape = Tape::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let out = m.forward(&mut tape, &feats, &mut rng);
        let grads = tape.backward(out);
        let ids: std::collections::HashSet<_> = grads.params().map(|(id, _)| id).collect();
        assert_eq!(
            ids.len(),
            m.store().len(),
            "all parameters should receive gradients"
        );
    }

    #[test]
    fn constant_inputs_leave_every_parameter_gradient_bit_identical() {
        // The training graph (dropout on, three rows, MAPE loss) with the
        // feature matrix and targets bound as constants, as `forward_batch`
        // and `train_stream` bind them, against the same graph with both
        // bound as differentiable leaves: skipping the gradients nothing
        // reads must not move one bit of the ones the optimizer reads.
        let m = CostModel::new(
            CostModelConfig {
                dropout: 0.2,
                ..tiny_model().cfg
            },
            4,
        );
        let feats = tiny_feats();
        let rows = 3;
        let width = m.cfg.input_dim;
        let mut data = Vec::new();
        for row in 0..rows {
            for v in &feats.comp_vectors {
                data.extend(v.iter().map(|x| x * (1.0 + row as f32)));
            }
        }
        let x = Tensor::from_vec(rows * feats.comp_vectors.len(), width, data);
        let targets = Tensor::from_vec(rows, 1, vec![0.5, 2.0, 4.0]);

        let run = |constant: bool| {
            let mut tape = Tape::for_training();
            let bind = |tape: &mut Tape, t: &Tensor| {
                if constant {
                    tape.constant(t.clone())
                } else {
                    tape.leaf(t.clone())
                }
            };
            let xv = bind(&mut tape, &x);
            let mut rng = train_rng(9, 1);
            let pred = m.forward_packed(&mut tape, xv, &feats, rows, &mut rng);
            let tv = bind(&mut tape, &targets);
            let loss = dlcm_tensor::loss::mape(&mut tape, pred, tv);
            let grads = tape.backward(loss);
            let params: Vec<(dlcm_tensor::ParamId, Vec<u32>)> = grads
                .params()
                .map(|(id, g)| (id, g.as_slice().iter().map(|v| v.to_bits()).collect()))
                .collect();
            (params, grads.get(xv).is_some(), grads.get(tv).is_some())
        };
        let (with_constants, x_grad, target_grad) = run(true);
        assert!(!x_grad && !target_grad, "a constant receives no gradient");
        let (with_leaves, x_grad, target_grad) = run(false);
        assert!(x_grad && target_grad, "a leaf receives its gradient");
        assert!(with_constants.len() >= m.store().len());
        assert_eq!(with_constants, with_leaves);
    }

    #[test]
    fn different_schedules_can_give_different_predictions() {
        // Same program, tile tag toggled: features differ, so generally do
        // predictions (random init).
        let mut b = ProgramBuilder::new("p");
        let i = b.iter("i", 0, 64);
        let j = b.iter("j", 0, 64);
        let inp = b.input("in", &[64, 64]);
        let out = b.buffer("out", &[64, 64]);
        let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign("c", &[i, j], out, &[i.into(), j.into()], Expr::Load(acc));
        let p = b.build().unwrap();
        let f = Featurizer::new(FeaturizerConfig::default());
        let m = tiny_model();
        let base = m.predict(&f.featurize(&p, &Schedule::empty()));
        let tiled = m.predict(&f.featurize(
            &p,
            &Schedule::new(vec![dlcm_ir::Transform::Tile {
                comp: dlcm_ir::CompId(0),
                level_a: 0,
                level_b: 1,
                size_a: 16,
                size_b: 16,
            }]),
        ));
        assert_ne!(base, tiled);
    }

    #[test]
    fn num_params_counts_what_new_registers() {
        let width = FeaturizerConfig::default().vector_width();
        for cfg in [
            CostModelConfig::paper(width),
            CostModelConfig::fast(width),
            tiny_model().cfg,
            CostModelConfig {
                embed_widths: vec![7],
                regress_widths: vec![],
                ..tiny_model().cfg
            },
        ] {
            let registered = CostModel::new(cfg.clone(), 0).num_params();
            assert_eq!(cfg.num_params(), Some(registered), "{cfg:?}");
        }
        let no_embedding = CostModelConfig {
            embed_widths: vec![],
            ..tiny_model().cfg
        };
        assert_eq!(no_embedding.num_params(), None);
        let overflowing = CostModelConfig {
            embed_widths: vec![usize::MAX / 2, 8],
            ..tiny_model().cfg
        };
        assert_eq!(overflowing.num_params(), None);
    }

    #[test]
    fn param_count_is_substantial() {
        let m = tiny_model();
        assert!(m.num_params() > 10_000);
    }
}
