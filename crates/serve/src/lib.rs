//! # dlcm-serve
//!
//! The model-serving tier of the DLCM reproduction of *"A Deep Learning
//! Based Cost Model for Automatic Code Optimization"* (MLSys 2021).
//!
//! The paper's cost model is trained once and then queried millions of
//! times by autoschedulers. The crates below this one already make the
//! trained model a persistable artifact (`dlcm_model::ModelArtifact`);
//! this crate adds the deliberate serving path:
//!
//! - [`InferenceService`] answers concurrent `(program, schedule)`
//!   speedup queries. Queries are deduplicated through one shared,
//!   schedule-keyed result cache (`dlcm_eval::SharedCachedEvaluator`);
//!   the misses of a call are scored by `dlcm_eval::score_wave` — the
//!   function in-process `ModelEvaluator` runs: featurize inline from
//!   one base of the program, group by tree structure, one forward pass
//!   per group — the groups fanned over the persistent evaluation pool
//!   (`dlcm_eval::pool`). Calls share the
//!   cache and nothing else, so a forward pass that panics unwinds the
//!   one call that ran it;
//! - [`ServeConfig`] sets the pool width and the cache bound;
//! - [`ServeStats`] exposes throughput, latency, forward-pass, cache
//!   hit-rate and model-swap counters. Checking served scores against
//!   ground truth is not the service's job: the data flywheel
//!   (`dlcm_bench::run_flywheel`) checks its own replay window (see
//!   DESIGN.md § "Data flywheel").
//!
//! The served model is **hot-swappable** ([`InferenceService::reload`] /
//! [`ArtifactReloadable::reload_artifact`]): the active model lives in an
//! atomically swappable epoch slot ([`ModelEpoch`]), each client call
//! pins one epoch for its whole lifetime (cache keys carry the epoch's
//! fingerprint, misses score against the epoch's model), and a failed
//! reload — corrupt
//! artifact, mismatched featurizer schema ([`ReloadError`]) — leaves the
//! incumbent serving untouched. `tests/lifecycle.rs` enforces swap
//! atomicity under concurrent load.
//!
//! The service implements `dlcm_eval::SyncEvaluator`, the same `&self`
//! tier the concurrent suite driver (`dlcm_search::SearchDriver`) and
//! per-search `ScopedEvaluator` accounting are built on — so beam and
//! MCTS searches run against a *served* model unchanged, holding
//! `ScopedEvaluator::new(&service)` as their `&mut dyn Evaluator`.
//!
//! Determinism contract (the workspace-wide one, extended to serving):
//! served scores are **bit-identical** to in-process evaluation through
//! `dlcm_eval::ModelEvaluator` at any client-thread count and any cache
//! state — every row is a pure function of `(model, featurizer schema,
//! program, schedule)`, computed by the same function either way.
//! `tests/parity.rs` enforces this under concurrency.

#![warn(missing_docs)]

mod epoch;
mod service;

pub use epoch::ModelEpoch;
pub use service::{ArtifactReloadable, InferenceService, ReloadError, ServeConfig, ServeStats};

// The whole point of the service is to be shared across client threads;
// keep that guaranteed at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<InferenceService<dlcm_model::CostModel>>();
    assert_send_sync::<ServeConfig>();
    assert_send_sync::<ServeStats>();
};
