//! Bit-identity of the arena SoA inference kernel against the tape
//! forward pass.
//!
//! `CostModel` overrides `SpeedupPredictor::infer_batch` with the SoA
//! walk (`soa.rs`); the trait default — `forward_batch` on a fresh
//! inference tape with the fixed dropout seed — is the reference
//! semantics. Everything downstream (the cached evaluators' key reuse,
//! search determinism, served-score parity over the network) assumes
//! the two are the *same function*, so equality here is `to_bits`, not
//! a tolerance.

use dlcm_model::{CostModel, CostModelConfig, FeatNode, ProgramFeatures, SpeedupPredictor};
use dlcm_tensor::Tape;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const INPUT_DIM: usize = 9;

/// The reference semantics, spelled out: what the trait's default
/// `infer_batch` body does.
fn tape_reference(model: &CostModel, batch: &[&ProgramFeatures]) -> Vec<f64> {
    let mut tape = Tape::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let pred = model.forward_batch(&mut tape, batch, &mut rng);
    let values = tape.value(pred);
    (0..batch.len())
        .map(|row| f64::from(values.get(row, 0)))
        .collect()
}

/// A random feature vector with genuine zeros (the shared matmul kernel
/// has a zero-skip fast path — parity must cover it) and negatives (ELU
/// and tanh branch on sign).
fn rand_vec(rng: &mut ChaCha8Rng) -> Vec<f32> {
    (0..INPUT_DIM)
        .map(|_| {
            if rng.gen::<f32>() < 0.3 {
                0.0
            } else {
                rng.gen::<f32>() * 4.0 - 2.0
            }
        })
        .collect()
}

fn features(tree: Vec<FeatNode>, comps: usize, rng: &mut ChaCha8Rng) -> ProgramFeatures {
    ProgramFeatures {
        comp_vectors: (0..comps).map(|_| rand_vec(rng)).collect(),
        tree,
    }
}

fn tiny_model(seed: u64) -> CostModel {
    let cfg = CostModelConfig {
        input_dim: INPUT_DIM,
        embed_widths: vec![12, 8],
        merge_hidden: 10,
        regress_widths: vec![8],
        dropout: 0.225, // inert at inference; parity must hold regardless
    };
    CostModel::new(cfg, seed)
}

/// Tree shapes covering the recursion's edges: a bare computation at
/// the virtual root, a single-comp loop, sibling loops, and a deep nest
/// mixing comps and loops at one level.
fn structures() -> Vec<(Vec<FeatNode>, usize)> {
    use FeatNode::{Comp, Loop};
    vec![
        (vec![Comp(0)], 1),
        (vec![Loop(vec![Comp(0)])], 1),
        (vec![Loop(vec![Comp(0), Comp(1)]), Loop(vec![Comp(2)])], 3),
        (
            vec![Loop(vec![
                Comp(0),
                Loop(vec![Loop(vec![Comp(1)]), Comp(2)]),
                Loop(vec![Comp(3)]),
            ])],
            4,
        ),
        (vec![Comp(0), Loop(vec![Comp(1)])], 2),
    ]
}

#[test]
fn soa_kernel_is_bit_identical_to_the_tape_forward() {
    for model_seed in [0u64, 7, 1234] {
        let model = tiny_model(model_seed);
        for (si, (tree, comps)) in structures().into_iter().enumerate() {
            // Batch sizes include 1 (structure groups of size one — the
            // serve/search grouping edge), sizes straddling typical
            // chunk grains, and 64 — the largest structure group
            // `dlcm_model::evaluate` hands the kernel.
            for batch_size in [1usize, 2, 3, 8, 17, 64] {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    model_seed ^ (si as u64) << 8 ^ (batch_size as u64) << 16,
                );
                let feats: Vec<ProgramFeatures> = (0..batch_size)
                    .map(|_| features(tree.clone(), comps, &mut rng))
                    .collect();
                let refs: Vec<&ProgramFeatures> = feats.iter().collect();

                let want = tape_reference(&model, &refs);
                let got = model.infer_batch(&refs);
                assert_eq!(want.len(), got.len());
                for (row, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "model seed {model_seed}, structure {si}, batch \
                         {batch_size}, row {row}: tape {w} != soa {g}"
                    );
                }
            }
        }
    }
}

#[test]
fn predict_goes_through_the_same_kernel() {
    let model = tiny_model(42);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    for (tree, comps) in structures() {
        let f = features(tree, comps, &mut rng);
        let via_predict = model.predict(&f);
        let via_tape = tape_reference(&model, &[&f])[0];
        assert_eq!(via_predict.to_bits(), via_tape.to_bits());
    }
}

#[test]
fn repeated_batches_reuse_the_arena_without_drift() {
    // The thread-local arena recycles buffers across calls; stale state
    // leaking between batches would show up as run-to-run drift.
    let model = tiny_model(3);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let (tree, comps) = (
        vec![FeatNode::Loop(vec![FeatNode::Comp(0), FeatNode::Comp(1)])],
        2,
    );
    let feats: Vec<ProgramFeatures> = (0..6)
        .map(|_| features(tree.clone(), comps, &mut rng))
        .collect();
    let refs: Vec<&ProgramFeatures> = feats.iter().collect();
    let first = model.infer_batch(&refs);
    for _ in 0..10 {
        // Interleave a differently-shaped batch to churn the pool.
        let small = model.infer_batch(&refs[..1]);
        assert_eq!(small[0].to_bits(), first[0].to_bits());
        let again = model.infer_batch(&refs);
        assert_eq!(
            again.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }
}
