//! # dlcm-ir
//!
//! A Tiramisu-like intermediate representation for the DLCM reproduction
//! of *"A Deep Learning Based Cost Model for Automatic Code Optimization"*
//! (Baghdadi et al., MLSys 2021).
//!
//! The paper's cost model consumes `(program, sequence of code
//! transformations)` pairs; this crate provides everything those pairs are
//! made of:
//!
//! - [`Program`] / [`ProgramBuilder`]: loop nests over dense arrays with
//!   affine accesses ([`AccessMatrix`], the paper's §4.1 format) and three
//!   assignment patterns — simple assignments, stencils, reductions (§3);
//! - [`Schedule`] / [`Transform`]: loop fusion, interchange, tiling,
//!   unrolling, plus the parallelize/vectorize tags (§4);
//! - [`deps`]: uniform dependence analysis with distance vectors;
//! - [`Legality`] / [`LegalPrefix`]: the one legality engine. A
//!   `Legality` is built once per program (it owns the dependence
//!   analysis, run lazily and at most once); a `LegalPrefix` is the
//!   validated state after some transforms (flat tables, cheap to
//!   clone), extended one transform at a time with [`Legality::extend`]
//!   — what searches carry per candidate and generators use to try many
//!   children of one prefix;
//! - [`apply_schedule`]: the one-shot wrapper over the same engine
//!   (legality checking + structural application), producing a
//!   [`ScheduledProgram`] — the validated prefix of the whole schedule
//!   over the borrowed program, which the interpreter and the machine
//!   model read directly;
//! - [`interpret`]: a reference interpreter used as a semantics oracle —
//!   legal schedules must not change program outputs.
//!
//! # Examples
//!
//! Build the paper's running example (§2), a small convolution, then tile
//! and unroll it:
//!
//! ```
//! use dlcm_ir::*;
//!
//! let mut b = ProgramBuilder::new("conv");
//! let n = b.iter("n", 0, 2);
//! let fout = b.iter("fout", 0, 4);
//! let y = b.iter("y", 0, 14);
//! let x = b.iter("x", 0, 14);
//! let fin = b.iter("fin", 0, 3);
//! let k0 = b.iter("k0", 0, 3);
//! let k1 = b.iter("k1", 0, 3);
//! let input = b.input("input", &[2, 3, 16, 16]);
//! let weights = b.input("weights", &[4, 3, 3, 3]);
//! let conv = b.buffer("conv", &[2, 4, 14, 14]);
//! let iters = [n, fout, y, x, fin, k0, k1];
//! let w = b.access(weights, &[fout.into(), fin.into(), k0.into(), k1.into()], &iters);
//! let i = b.access(
//!     input,
//!     &[n.into(), fin.into(), LinExpr::from(y) + LinExpr::from(k0), LinExpr::from(x) + LinExpr::from(k1)],
//!     &iters,
//! );
//! b.reduce(
//!     "conv", &iters, BinOp::Add, conv,
//!     &[n.into(), fout.into(), y.into(), x.into()],
//!     Expr::binary(BinOp::Mul, Expr::Load(w), Expr::Load(i)),
//! );
//! let program = b.build().unwrap();
//!
//! let schedule = Schedule::new(vec![
//!     Transform::Tile { comp: CompId(0), level_a: 2, level_b: 3, size_a: 7, size_b: 7 },
//!     Transform::Parallelize { comp: CompId(0), level: 0 },
//!     Transform::Unroll { comp: CompId(0), factor: 3 },
//! ]);
//! let scheduled = apply_schedule(&program, &schedule).unwrap();
//!
//! // The transformation preserves semantics:
//! let inputs = synthetic_inputs(&program, 7);
//! let base = interpret_baseline(&program, &inputs).unwrap();
//! let opt = interpret(&scheduled, &inputs).unwrap();
//! assert!(max_relative_error(&base, &opt) < 1e-4);
//! ```

#![warn(missing_docs)]

pub mod deps;
mod expr;
pub mod fingerprint;
mod interp;
mod program;
mod schedule;
mod transform;

pub use expr::{Access, AccessMatrix, BinOp, Expr};
pub use interp::{
    interpret, interpret_baseline, max_relative_error, synthetic_inputs, InterpError,
};
pub use program::{
    Buffer, BufferId, CompId, CompKind, Computation, Iter, IterId, LinExpr, LoopNode, Program,
    ProgramBuilder, TreeNode,
};
pub use schedule::{
    apply_schedule, Detail, LegalPrefix, Legality, LoopSource, SLoop, ScheduleError,
    ScheduledProgram,
};
pub use transform::{Schedule, Transform};

// The parallel evaluation layer (`dlcm-eval`) shares programs and
// schedules across worker threads by reference; keep that guaranteed at
// compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
    assert_send_sync::<Schedule>();
    assert_send_sync::<ScheduledProgram<'static>>();
};
