//! # dlcm-net — the network-facing serving tier
//!
//! Puts [`dlcm_serve::InferenceService`] behind a TCP socket: a
//! hand-rolled, length-prefixed frame protocol (this environment
//! vendors its dependencies, so no async runtime or HTTP stack — plain
//! `std::net` and worker threads), admission control with typed
//! rejections, per-request deadlines, `/stats` introspection, and
//! graceful drain on shutdown.
//!
//! The tier exists for the deployment shape the paper's integration
//! implies: one trained cost model serving *many* concurrent
//! autoscheduler searches. In-process, the service already shares one
//! result cache across the searches of one process; this crate extends
//! that sharing across process and machine boundaries while keeping the
//! repo-wide determinism contract — a served score is **bit-identical**
//! to in-process evaluation at any client count and any cache state.
//!
//! - [`wire`] — the frame format and message types (spec in the module
//!   docs; mirrored in `DESIGN.md` § Network serving).
//! - [`NetServer`] — bounded-worker acceptor + admission control.
//! - [`NetClient`] — blocking client, one request in flight at a time.
//!
//! The model behind a running server is **hot-swappable** without
//! dropping connections: [`Request::Reload`] names an artifact directory
//! on the server's filesystem, the server loads and validates it off the
//! hot path, and atomically swaps on success ([`Response::Reloaded`]
//! carries the new identity; [`Request::ModelInfo`] queries it any
//! time). A corrupt or schema-mismatched artifact is rejected with a
//! typed [`ErrorReply::ReloadRejected`] and the incumbent keeps serving
//! untouched — `tests/lifecycle.rs` drives the full contract over the
//! wire.
//!
//! Everything memory-bearing is bounded: the accept queue, the requests
//! in evaluation (one per worker, `max_connections`), the frame length,
//! the time a started frame may stall, and (via
//! `ServeConfig::cache_capacity`) every result-cache tier underneath.

pub mod client;
pub mod server;
pub mod wire;

pub use client::{NetClient, NetError};
pub use server::{NetConfig, NetServer};
pub use wire::{
    ErrorReply, FrameError, ModelInfoReport, NetStats, ReloadRejectKind, Request, Response,
    StatsReport,
};
