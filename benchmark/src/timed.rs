//! Timing decorators over the product's own trait seams.
//!
//! Each wraps one implementation of a public trait, records a span
//! around every call and forwards it unchanged, so the per-layer numbers
//! come from outside the product code. The traced run hands these to
//! `InferenceService::new`, `ModelEvaluator::new`, the searches and
//! `train_stream`; the untraced run never constructs them.

use std::sync::Arc;

use dlcm_eval::{EvalStats, Evaluator, SyncEvaluator};
use dlcm_ir::{Program, Schedule};
use dlcm_model::{BatchSource, LabeledFeatures, ProgramFeatures, SpeedupPredictor};
use dlcm_tensor::nn::ParamStore;
use dlcm_tensor::{Tape, Var};
use rand_chacha::ChaCha8Rng;

use crate::trace::Tracer;

/// Span name of one inference-mode forward pass (`units` = rows).
pub const MODEL_INFER: &str = "model.infer";
/// Span name of one training-mode forward graph build (`units` = rows).
pub const MODEL_FORWARD: &str = "model.forward";
/// Span name of one `ModelEvaluator::speedup_batch` (`units` = candidates).
pub const EVAL_MODEL_BATCH: &str = "eval.model_batch";
/// Span name of one call into the shared execution tier (`units` = candidates).
pub const EVAL_EXEC_BATCH: &str = "eval.exec_batch";
/// Span name of one minibatch materialization (`units` = rows).
pub const DATAGEN_LOAD_BATCH: &str = "datagen.load_batch";

/// A [`SpeedupPredictor`] that records a span per forward pass. Scores
/// are the wrapped model's, bit for bit: `infer_batch` forwards to the
/// wrapped override (the SoA kernel for `CostModel`), not to the trait
/// default.
pub struct TimedPredictor<M> {
    inner: M,
    tracer: Arc<Tracer>,
}

impl<M: SpeedupPredictor> TimedPredictor<M> {
    /// Wraps `inner`.
    pub fn new(inner: M, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    /// The wrapped model (after training: the trained weights).
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: SpeedupPredictor> SpeedupPredictor for TimedPredictor<M> {
    fn forward_batch(
        &self,
        tape: &mut Tape,
        batch: &[&ProgramFeatures],
        rng: &mut ChaCha8Rng,
    ) -> Var {
        let _span = self.tracer.span(MODEL_FORWARD, batch.len());
        self.inner.forward_batch(tape, batch, rng)
    }

    fn store(&self) -> &ParamStore {
        self.inner.store()
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        self.inner.store_mut()
    }

    fn infer_batch(&self, batch: &[&ProgramFeatures]) -> Vec<f64> {
        let _span = self.tracer.span(MODEL_INFER, batch.len());
        self.inner.infer_batch(batch)
    }
}

/// An exclusive [`Evaluator`] that records a span per batch call.
pub struct TimedEvaluator<E> {
    inner: E,
    name: &'static str,
    tracer: Arc<Tracer>,
}

impl<E: Evaluator> TimedEvaluator<E> {
    /// Wraps `inner`; its spans are called `name`.
    pub fn new(inner: E, name: &'static str, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            name,
            tracer,
        }
    }
}

impl<E: Evaluator> Evaluator for TimedEvaluator<E> {
    fn speedup_batch(&mut self, program: &Program, schedules: &[Schedule]) -> Vec<f64> {
        let _span = self.tracer.span(self.name, schedules.len());
        self.inner.speedup_batch(program, schedules)
    }

    fn stats(&self) -> EvalStats {
        self.inner.stats()
    }
}

/// A shared [`SyncEvaluator`] that records a span per batch call.
pub struct TimedSyncEvaluator<E> {
    inner: E,
    name: &'static str,
    tracer: Arc<Tracer>,
}

impl<E: SyncEvaluator> TimedSyncEvaluator<E> {
    /// Wraps `inner`; its spans are called `name`.
    pub fn new(inner: E, name: &'static str, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            name,
            tracer,
        }
    }
}

impl<E: SyncEvaluator> SyncEvaluator for TimedSyncEvaluator<E> {
    fn speedup_batch_shared(
        &self,
        program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        let _span = self.tracer.span(self.name, schedules.len());
        self.inner.speedup_batch_shared(program, schedules)
    }

    fn total_stats(&self) -> EvalStats {
        self.inner.total_stats()
    }
}

/// A [`BatchSource`] that records a span per materialized minibatch.
pub struct TimedBatchSource<'a, B: ?Sized> {
    inner: &'a B,
    tracer: Arc<Tracer>,
}

impl<'a, B: BatchSource + ?Sized> TimedBatchSource<'a, B> {
    /// Wraps `inner`.
    pub fn new(inner: &'a B, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl<B: BatchSource + ?Sized> BatchSource for TimedBatchSource<'_, B> {
    fn num_batches(&self) -> usize {
        self.inner.num_batches()
    }

    fn load_batch(&self, index: usize) -> Vec<LabeledFeatures> {
        let mut span = self.tracer.span(DATAGEN_LOAD_BATCH, 0);
        let batch = self.inner.load_batch(index);
        span.set_units(batch.len());
        batch
    }
}
