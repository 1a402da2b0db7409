//! Arena-backed SoA inference for [`CostModel`]: the hot-path
//! counterpart of [`crate::SpeedupPredictor::forward_batch`].
//!
//! A search waits on this function: MCTS scores one rollout per
//! iteration, so nearly every row arrives in a batch of one, and a row
//! costs about two and a half simulated executions (`model.infer_ns_per_row` vs
//! `eval.exec_ns_per_candidate` in the benchmark of record; ROADMAP
//! item 3 has the trajectory). On the tape every op grows the node
//! vector, allocates a fresh `Tensor`, and re-binds parameters as graph
//! leaves — pure overhead when no gradient will ever be asked for. This
//! module walks the *same* three layers (embed MLP → recursive loop
//! embedding → regression + exp head) over a thread-local
//! [`dlcm_tensor::kernel::Arena`] of flat, recycled `f32` buffers.
//!
//! **Bit-identity** with the tape path is a hard contract (serving
//! parity, search determinism, and the cached evaluator's key reuse all
//! depend on scores being pure in `(weights, features)`): every product
//! on either path is the one `kernel::matmul_into` (one zero test per
//! `(row, k)`, register accumulators — its docs carry the bit-identity
//! argument for each), every activation on either path is
//! `dlcm_tensor::math` (plain Rust, no libm), the elementwise kernels
//! reproduce the tape ops' scalar expressions and association order, an
//! LSTM's first step drops only terms the zero state annihilates
//! (`LstmCell::run_soa`), and inference-mode dropout is an identity
//! that consumes no randomness, so eliding it is exact.
//! `tests/soa_parity.rs` pins the equivalence over random models, batch
//! shapes, and tree structures.

use dlcm_tensor::kernel::{Arena, MatId};
use dlcm_tensor::math;

use crate::costmodel::CostModel;
use crate::featurize::{FeatNode, ProgramFeatures};

use std::cell::RefCell;

thread_local! {
    /// One arena per worker thread: candidate batches from different
    /// pool workers never contend, and each worker's buffers stay warm
    /// across the thousands of small batches a search issues.
    static ARENA: RefCell<Arena> = RefCell::new(Arena::new());
}

/// Batched inference over structure-identical samples on the
/// thread-local arena; returns the raw (unclamped) prediction column.
/// Bit-identical to the tape default of
/// [`crate::SpeedupPredictor::infer_batch`].
pub(crate) fn infer_batch_soa(model: &CostModel, batch: &[&ProgramFeatures]) -> Vec<f64> {
    ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        arena.reset();
        forward(model, &mut arena, batch)
    })
}

fn forward(model: &CostModel, arena: &mut Arena, batch: &[&ProgramFeatures]) -> Vec<f64> {
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

    // Layer 1: every computation vector of every sample through the
    // embedding MLP in one matmul, sample-major rows — the same packing
    // order as the tape path.
    let d = model.cfg.input_dim;
    let x = arena.alloc(rows * comps, d);
    {
        let dst = arena.data_mut(x);
        let mut at = 0;
        for f in batch {
            for v in &f.comp_vectors {
                assert_eq!(v.len(), d, "feature width mismatch");
                dst[at..at + d].copy_from_slice(v);
                at += d;
            }
        }
    }
    let comp_rows = model.embed.infer_soa(arena, &model.store, x);

    // Layer 2: recursive loop embedding over the shared forest.
    let mut comp_embeds = Vec::new();
    let mut loop_embeds = Vec::new();
    for node in &shared.tree {
        let e = embed_node(model, arena, node, comp_rows, rows, comps);
        match node {
            FeatNode::Comp(_) => comp_embeds.push(e),
            FeatNode::Loop(_) => loop_embeds.push(e),
        }
    }
    let program_embedding = loop_unit(model, arena, &comp_embeds, &loop_embeds, rows);

    // Layer 3: regression, then the positive head fused per element —
    // `exp(8*tanh(raw/8))`, the exact op order of `exp_head` (scale by
    // 1/8, tanh, scale by 8, exp — the tape's own `math::tanh` and
    // `math::exp`; Rust never contracts the chain).
    let raw = model
        .regress
        .infer_soa(arena, &model.store, program_embedding);
    arena.apply(raw, |v| math::exp(math::tanh(v * (1.0 / 8.0)) * 8.0));

    let out = arena.data(raw);
    debug_assert_eq!(arena.shape(raw), (rows, 1));
    (0..rows).map(|r| f64::from(out[r])).collect()
}

/// Arena counterpart of `CostModel::embed_node`: every node value is a
/// `rows x hidden` matrix; computation leaves gather one row per sample
/// out of the batched embedding matrix (sample `b`, computation `c`
/// lives at row `b * comps + c`).
fn embed_node(
    model: &CostModel,
    arena: &mut Arena,
    node: &FeatNode,
    comp_rows: MatId,
    rows: usize,
    comps_per_sample: usize,
) -> MatId {
    match node {
        FeatNode::Comp(i) => {
            arena.gather_rows(comp_rows, (0..rows).map(|b| b * comps_per_sample + i))
        }
        FeatNode::Loop(children) => {
            let mut comp_embeds = Vec::new();
            let mut loop_embeds = Vec::new();
            for ch in children {
                let e = embed_node(model, arena, ch, comp_rows, rows, comps_per_sample);
                match ch {
                    FeatNode::Comp(_) => comp_embeds.push(e),
                    FeatNode::Loop(_) => loop_embeds.push(e),
                }
            }
            loop_unit(model, arena, &comp_embeds, &loop_embeds, rows)
        }
    }
}

/// Arena counterpart of `CostModel::loop_unit` (Figure 2b): LSTM over
/// the computation embeddings, LSTM over the child loop embeddings,
/// concat of the two hidden states, merge MLP.
fn loop_unit(
    model: &CostModel,
    arena: &mut Arena,
    comp_embeds: &[MatId],
    loop_embeds: &[MatId],
    rows: usize,
) -> MatId {
    let hc = model
        .lstm_comps
        .run_soa(arena, &model.store, comp_embeds, rows);
    let hl = model
        .lstm_loops
        .run_soa(arena, &model.store, loop_embeds, rows);
    let cat = arena.concat_cols(hc, hl);
    model.merge.infer_soa(arena, &model.store, cat)
}
