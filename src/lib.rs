//! # dlcm — A Deep Learning Based Cost Model for Automatic Code Optimization
//!
//! A from-scratch Rust reproduction of Baghdadi et al., MLSys 2021: the
//! Tiramisu deep-learning cost model, its program representation, data
//! generation pipeline, search methods, and Halide-style baseline.
//!
//! This facade re-exports every subsystem crate:
//!
//! - [`ir`] — Tiramisu-like IR: programs, affine accesses, transformations,
//!   dependence analysis, legality, and a reference interpreter;
//! - [`machine`] — the simulated CPU (analytical performance model) and
//!   the median-of-30 measurement harness;
//! - [`datagen`] — random programs (six scenario families), random
//!   schedules, and the sharded, parallel, deduplicating corpus pipeline
//!   (JSONL shards + manifest, streamed into training);
//! - [`model`] — featurization + the recursive LSTM cost model + the
//!   streaming training loop ([`model::BatchSource`] /
//!   [`model::train_stream`]);
//! - [`eval`] — the unified batch-first candidate evaluation API: the
//!   object-safe [`eval::Evaluator`] trait (`speedup_batch` + a defaulted
//!   single-candidate wrapper), [`eval::EvalStats`] accounting, and the
//!   execution/model evaluators every search strategy and experiment
//!   shares;
//! - [`search`] — beam search and MCTS, driven by any [`eval::Evaluator`];
//! - [`serve`] — the batched cost-model inference service: concurrent
//!   speedup queries behind one shared result cache, each call's misses
//!   scored in structure-pure batches by the function
//!   [`eval::ModelEvaluator`] runs ([`eval::score_wave`]), over
//!   hot-swappable versioned [`model::ModelArtifact`]s;
//! - [`net`] — the network-facing serving tier: a length-prefixed TCP
//!   frame protocol over [`serve`] with admission control (bounded
//!   accept queue, per-request deadlines), typed
//!   rejections, `/stats`, and graceful drain;
//! - [`baseline`] — the Halide-2019-style 54-feature comparator, also an
//!   [`eval::Evaluator`];
//! - [`benchsuite`] — the ten evaluation benchmarks at Table 3 sizes;
//! - [`tensor`] — the tape-based autodiff / NN substrate.
//!
//! See `examples/quickstart.rs` for an end-to-end tour and DESIGN.md for
//! the crate map, the evaluation-API diagram, and the experiment index.

#![warn(missing_docs)]

pub use dlcm_baseline as baseline;
pub use dlcm_benchsuite as benchsuite;
pub use dlcm_datagen as datagen;
pub use dlcm_eval as eval;
pub use dlcm_ir as ir;
pub use dlcm_machine as machine;
pub use dlcm_model as model;
pub use dlcm_net as net;
pub use dlcm_search as search;
pub use dlcm_serve as serve;
pub use dlcm_tensor as tensor;
