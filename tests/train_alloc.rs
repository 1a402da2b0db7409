//! What a steady-state training step asks the allocator for, counted
//! with a global allocator — hence a test binary of its own, with one
//! test so no other test's allocations are in the count.
//!
//! A step (`forward_batch` → MAPE → `backward` → `AdamW::step`) builds
//! and drops a few thousand tensors and a graph's worth of bookkeeping.
//! Freed to the system allocator, the large blocks go back to the kernel
//! and every step page-faults them in again. So every block of 1 KiB or
//! more a step needs is kept: tensor buffers on `dlcm-tensor`'s shelf of
//! recycled buffers, the tape's and the backward pass's storage in the
//! tape `Gradients::into_tape` hands back, the optimizer's sums in the
//! optimizer. Once every batch has been seen a few times, a step
//! allocates no block of 1 KiB or more — on the caller or on the pool's
//! helper lane.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dlcm::datagen::{BuildConfig, DatasetConfig, ParallelDatasetBuilder};
use dlcm::machine::{Machine, Measurement};
use dlcm::model::{
    group_into_batches, train_rng, CostModel, CostModelConfig, Featurizer, FeaturizerConfig,
    ProgramFeatures, SpeedupPredictor,
};
use dlcm::tensor::loss::mape;
use dlcm::tensor::optim::{AdamW, AdamWConfig};
use dlcm::tensor::{Tape, Tensor};

/// The smallest block the steady state must not ask for.
const LARGE: usize = 1024;

/// Counts every block of at least [`LARGE`] bytes handed out or moved.
struct Counting;

static LARGE_BLOCKS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Structure-pure batches of 2 to 16 rows from a small labeled corpus:
/// `(features, targets)`.
fn batches() -> Vec<(Vec<ProgramFeatures>, Vec<f32>)> {
    let config = DatasetConfig {
        schedules_per_program: 16,
        ..DatasetConfig::tiny(31)
    };
    let (dataset, _) = ParallelDatasetBuilder::new(BuildConfig::new(config))
        .generate(&Measurement::exact(Machine::default()));
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let rows: Vec<(ProgramFeatures, f32)> = dataset
        .points
        .iter()
        .map(|p| {
            let feats = featurizer.featurize(dataset.program_of(p), &p.schedule);
            (feats, p.speedup as f32)
        })
        .collect();
    let keys = rows.iter().map(|(f, _)| f.structure_key());
    group_into_batches(keys, 16)
        .into_iter()
        .filter(|batch| batch.len() >= 2)
        .take(4)
        .map(|batch| batch.iter().map(|&i| rows[i].clone()).unzip())
        .collect()
}

/// One optimizer step per batch, recorded into `tape`; returns the tape
/// for the next round and how many large blocks the round allocated.
fn round(
    batches: &[(Vec<ProgramFeatures>, Vec<f32>)],
    model: &mut CostModel,
    opt: &mut AdamW,
    mut tape: Tape,
    step: &mut usize,
) -> (Tape, usize) {
    let before = LARGE_BLOCKS.load(Ordering::Relaxed);
    for (feats, targets) in batches {
        let refs: Vec<&ProgramFeatures> = feats.iter().collect();
        let mut rng = train_rng(7, *step);
        let pred = model.forward_batch(&mut tape, &refs, &mut rng);
        let target = tape.constant(Tensor::from_vec(targets.len(), 1, targets.clone()));
        let loss = mape(&mut tape, pred, target);
        let grads = tape.backward(loss);
        opt.step(model.store_mut(), &grads, 1e-3);
        tape = grads.into_tape();
        *step += 1;
    }
    (tape, LARGE_BLOCKS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_steady_state_training_step_allocates_no_large_block() {
    let batches = batches();
    assert_eq!(batches.len(), 4, "the corpus has four batches to cycle");
    let width = FeaturizerConfig::default().vector_width();
    let mut model = CostModel::new(CostModelConfig::fast(width), 0);
    let mut opt = AdamW::new(model.store(), AdamWConfig::default());
    let mut tape = Tape::for_training();
    let mut step = 0;
    let mut warm_up = Vec::new();
    for _ in 0..4 {
        let (next, large) = round(&batches, &mut model, &mut opt, tape, &mut step);
        tape = next;
        warm_up.push(large);
    }
    println!("large blocks per warm-up round: {warm_up:?}");
    assert!(warm_up[0] > 0, "the first round builds its buffers");
    for later in 0..4 {
        let (next, large) = round(&batches, &mut model, &mut opt, tape, &mut step);
        tape = next;
        assert_eq!(
            large, 0,
            "round {later} after the warm-up ({warm_up:?} large blocks) allocated {large}"
        );
    }
}
