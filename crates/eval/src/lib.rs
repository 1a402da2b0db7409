//! # dlcm-eval
//!
//! The unified candidate-evaluation API of the DLCM reproduction of *"A
//! Deep Learning Based Cost Model for Automatic Code Optimization"*
//! (MLSys 2021).
//!
//! Every consumer that needs to score `(program, schedule)` candidates —
//! beam search, MCTS, the experiment binaries, the Halide-style baseline —
//! goes through one object-safe, **batch-first** trait:
//!
//! - [`Evaluator`] — `speedup_batch` scores a slice of candidate
//!   schedules in one call (with a defaulted single-candidate
//!   [`Evaluator::speedup`] wrapper), so evaluators can amortize per-call
//!   cost: the model evaluator groups structure-identical candidates and
//!   runs one batched forward pass per group (the paper's A.1 batching
//!   trick applied at inference time);
//! - [`EvalStats`] — uniform accounting (candidate count, total accounted
//!   search time, and its compile/inference components) replacing the old
//!   per-evaluator `num_evals()`/`search_time()` methods, so Table 2's
//!   time-vs-quality tradeoff reads the same numbers for every evaluator;
//! - [`ParallelEvaluator`] — ground truth by (simulated) compile + run,
//!   fanned out across a deterministic worker pool and bit-identical to
//!   sequential scoring (one thread *is* sequential scoring);
//! - [`ModelEvaluator`] — any [`dlcm_model::SpeedupPredictor`] behind the
//!   same interface;
//! - [`SharedCachedEvaluator`] — the one result cache: a memoizing
//!   decorator keyed by `(model fingerprint, program fingerprint,
//!   normalized schedule)`, bounded by a sharded LRU, so candidates that
//!   beam waves and MCTS rollouts re-derive never pay twice (hit/miss
//!   counters surface in [`EvalStats`]).
//!
//! The trait is object safe: search and bench hold `&mut dyn Evaluator`
//! (a `Box<dyn Evaluator>` lends one as `&mut *boxed`) and never know
//! which backend is scoring. A search calls its evaluators only through
//! [`Evaluator::speedup_batch_charged`] and reports the sum of the charges
//! its own calls returned, so one evaluator can serve several searches in
//! turn and each reports its own calls' charges alone.
//!
//! On top of the exclusive tier sits the **shared** tier for concurrent
//! search (see the [`mod@shared`] module docs): [`SyncEvaluator`] is the
//! `&self` counterpart of [`Evaluator`] whose calls return their own
//! [`EvalStats`] deltas, [`SharedCachedEvaluator`] wraps any such
//! evaluator in the sharded-lock result cache several searches can
//! borrow at once, and [`ScopedEvaluator`] — the one bridge back to
//! the exclusive tier — is the [`Evaluator`] each such search holds:
//!
//! ```text
//!   SharedCachedEvaluator<ParallelEvaluator>   // dedup first, fan out misses;
//!        ↑ ScopedEvaluator per search          // one cache, N searches
//! ```
//!
//! Determinism contract: every evaluator is a pure function of
//! `(construction seed, program, schedule)` — batching, caching,
//! parallel fan-out, and cross-search sharing are throughput seams,
//! never semantic ones.
//!
//! # Examples
//!
//! ```
//! # use dlcm_ir::*;
//! use dlcm_eval::{Evaluator, ParallelEvaluator};
//! use dlcm_machine::{Machine, Measurement};
//! # let mut b = ProgramBuilder::new("p");
//! # let i = b.iter("i", 0, 512);
//! # let inp = b.input("in", &[512]);
//! # let out = b.buffer("out", &[512]);
//! # let acc = b.access(inp, &[i.into()], &[i]);
//! # b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
//! # let program = b.build().unwrap();
//! let mut ev: Box<dyn Evaluator> =
//!     Box::new(ParallelEvaluator::new(Measurement::exact(Machine), 0, 1));
//! let candidates = vec![
//!     Schedule::empty(),
//!     Schedule::new(vec![Transform::Parallelize { comp: CompId(0), level: 0 }]),
//! ];
//! let scores = ev.speedup_batch(&program, &candidates);
//! assert_eq!(scores.len(), 2);
//! assert_eq!(ev.stats().num_evals, 2);
//! ```

#![warn(missing_docs)]

pub mod lru;
mod model;
mod parallel;
pub mod shared;
mod stats;

use dlcm_ir::{Program, Schedule};

pub use dlcm_tensor::pool;
pub use lru::LruMap;
pub use model::{score_wave, ModelEvaluator};
pub use parallel::ParallelEvaluator;
pub use shared::{
    ScopedEvaluator, SharedCacheKey, SharedCachedEvaluator, SyncEvaluator, DEFAULT_CACHE_CAPACITY,
};
pub use stats::EvalStats;

/// Scores `(program, schedule)` candidates during search and evaluation.
///
/// Implementations must be deterministic given their construction seed:
/// scoring N candidates through one [`Evaluator::speedup_batch`] call
/// returns exactly the same values as N sequential [`Evaluator::speedup`]
/// calls (the batch is a throughput seam, never a semantic one — see
/// `tests/batch_parity.rs`).
pub trait Evaluator {
    /// Estimated/measured speedups of each candidate schedule over the
    /// unoptimized program, in input order. Must return one finite value
    /// per candidate; legal schedules get positive values.
    fn speedup_batch(&mut self, program: &Program, schedules: &[Schedule]) -> Vec<f64>;

    /// Single-candidate convenience wrapper over
    /// [`Evaluator::speedup_batch`].
    fn speedup(&mut self, program: &Program, schedule: &Schedule) -> f64 {
        self.speedup_batch(program, std::slice::from_ref(schedule))
            .pop()
            .expect("one candidate in, one score out")
    }

    /// Accounting snapshot: evaluations performed and time charged so far.
    fn stats(&self) -> EvalStats;

    /// [`Evaluator::speedup_batch`], also returning the [`EvalStats`] this
    /// call charged — the only way a search calls an evaluator, so one
    /// evaluator can serve several searches in turn, each summing the
    /// charges of its own calls from zero. The charge counts in
    /// [`Evaluator::stats`] as a plain call's does. The default is the
    /// difference of [`Evaluator::stats`] around the call, which can miss
    /// the charge in the last bits of a time once earlier calls have
    /// charged; every evaluator in this workspace returns its exact charge
    /// instead.
    fn speedup_batch_charged(
        &mut self,
        program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        let before = self.stats();
        let scores = self.speedup_batch(program, schedules);
        (scores, self.stats().since(&before))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::{CompId, Expr, ProgramBuilder, Transform};
    use dlcm_machine::{Machine, Measurement};

    fn program() -> Program {
        let mut b = ProgramBuilder::new("p");
        let i = b.iter("i", 0, 1024);
        let j = b.iter("j", 0, 1024);
        let inp = b.input("in", &[1024, 1024]);
        let out = b.buffer("out", &[1024, 1024]);
        let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign("c", &[i, j], out, &[i.into(), j.into()], Expr::Load(acc));
        b.build().unwrap()
    }

    #[test]
    fn trait_is_object_safe_and_boxable() {
        let p = program();
        let mut ev: Box<dyn Evaluator> =
            Box::new(ParallelEvaluator::new(Measurement::exact(Machine), 0, 1));
        let s = ev.speedup(&p, &Schedule::empty());
        assert!((s - 1.0).abs() < 1e-9);
        let batch = ev.speedup_batch(
            &p,
            &[
                Schedule::empty(),
                Schedule::new(vec![Transform::Parallelize {
                    comp: CompId(0),
                    level: 0,
                }]),
            ],
        );
        assert_eq!(batch.len(), 2);
        assert!(batch[1] > batch[0]);
        assert_eq!(ev.stats().num_evals, 3);
    }
}
