//! # dlcm-machine
//!
//! The simulated hardware of the DLCM reproduction of *"A Deep Learning
//! Based Cost Model for Automatic Code Optimization"* (MLSys 2021).
//!
//! The paper labels its 1.8 M training triplets by running generated
//! programs on a cluster of dual-socket 12-core Xeon E5-2680v3 nodes
//! (median of 30 runs). Real hardware measurement is not available here,
//! so this crate provides the substitution documented in DESIGN.md: an
//! analytical CPU performance model ([`Machine`]) plus a measurement
//! harness with seeded noise and the same median-of-30 protocol
//! ([`Measurement`]).
//!
//! The machine is one CPU, as in §4.3 of the paper: its cores, clock,
//! SIMD width, cache hierarchy and bandwidths are constants (the cache
//! array [`CACHES`] and the crate-private ones beside it), not settings,
//! so [`Machine`] is a unit struct. The cost model and the static
//! analysis read their cache-line size from one constant, `LINE_BYTES`,
//! and the Halide-style baseline its cache sizes from [`CACHES`].
//!
//! The model responds to the mechanisms the paper's code transformations
//! exploit — cache working sets (tiling), stride classes (interchange),
//! producer/consumer reuse (fusion), core scaling (parallelization), SIMD
//! lanes (vectorization), and loop bookkeeping (unrolling) — so the
//! learning problem posed to the cost model keeps the same structure as
//! the paper's.
//!
//! # Examples
//!
//! ```
//! # use dlcm_ir::*;
//! use dlcm_machine::{Machine, Measurement};
//! # let mut b = ProgramBuilder::new("p");
//! # let i = b.iter("i", 0, 512);
//! # let j = b.iter("j", 0, 512);
//! # let inp = b.input("in", &[512, 512]);
//! # let out = b.buffer("out", &[512, 512]);
//! # let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
//! # b.assign("c", &[i, j], out, &[i.into(), j.into()], Expr::Load(acc));
//! # let program = b.build().unwrap();
//! let harness = Measurement::default();
//! let schedule = Schedule::new(vec![
//!     Transform::Parallelize { comp: CompId(0), level: 0 },
//!     Transform::Vectorize { comp: CompId(0), factor: 8 },
//! ]);
//! let speedup = harness.speedup(&program, &schedule, 42).unwrap();
//! assert!(speedup > 1.0);
//! ```

#![warn(missing_docs)]

mod analysis;
mod config;
mod cost;
mod measure;

pub use analysis::{analyze_program, AccessProfile, CompProfile, LoopCtx};
pub use config::{CacheLevel, CACHES};
pub use cost::{CompCost, Machine};
pub use measure::{parallel_baseline, Measurement};

// The parallel execution evaluator in `dlcm-eval` shares one measurement
// harness across worker threads; keep that guaranteed at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Machine>();
    assert_send_sync::<Measurement>();
};
