//! # dlcm-search
//!
//! The schedule search of the DLCM reproduction of *"A Deep
//! Learning Based Cost Model for Automatic Code Optimization"* (MLSys
//! 2021), §5: the transformation decision tree of Figure 3, beam search,
//! and MCTS, each driven by any [`dlcm_eval::Evaluator`] — (simulated)
//! execution or the learned cost model — with explicit search-time
//! accounting for Table 2 via [`dlcm_eval::EvalStats`].
//!
//! Candidate scoring is batch-first: beam search scores each expansion
//! wave through one [`dlcm_eval::Evaluator::speedup_batch`] call, so
//! evaluators can amortize per-call cost (batched model inference,
//! parallel execution scoring) without the search caring.
//!
//! Above the single-search loops sits the concurrent tier: the
//! [`driver`] module fans whole searches (algorithm × benchmark) across
//! the persistent evaluation pool, every execution-backed search
//! borrowing one shared [`dlcm_eval::SharedCachedEvaluator`], with
//! results gathered in deterministic input order and per-search
//! [`dlcm_eval::EvalStats`] kept standalone.
//!
//! # Examples
//!
//! Beam search with ground-truth execution (the paper's BSE reference):
//!
//! ```no_run
//! # use dlcm_ir::*;
//! use dlcm_eval::{Evaluator, ParallelEvaluator};
//! use dlcm_machine::{Machine, Measurement};
//! use dlcm_search::BeamSearch;
//! # let mut b = ProgramBuilder::new("p");
//! # let i = b.iter("i", 0, 512);
//! # let inp = b.input("in", &[512]);
//! # let out = b.buffer("out", &[512]);
//! # let acc = b.access(inp, &[i.into()], &[i]);
//! # b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
//! # let program = b.build().unwrap();
//! let mut evaluator = ParallelEvaluator::new(Measurement::exact(Machine), 0, 1);
//! let result = BeamSearch::default().search(&program, &mut evaluator);
//! println!(
//!     "best: {} ({}x, {} evals)",
//!     result.schedule.describe(),
//!     result.score,
//!     result.stats.num_evals
//! );
//! ```

#![warn(missing_docs)]

mod beam;
pub mod driver;
mod mcts;
mod space;

pub use beam::{BeamSearch, SearchResult};
pub use driver::{SearchDriver, SearchJob, SearchSpec};
pub use mcts::Mcts;
pub use space::{expand, finalize, Candidate, SearchSpace, Stage};
