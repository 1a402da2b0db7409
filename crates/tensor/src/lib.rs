//! # dlcm-tensor
//!
//! A from-scratch tensor + reverse-mode autodiff + neural-network substrate
//! for the DLCM reproduction of *"A Deep Learning Based Cost Model for
//! Automatic Code Optimization"* (Baghdadi et al., MLSys 2021).
//!
//! The paper implements its model in PyTorch; this crate provides the
//! minimal equivalent needed by the model architecture of §4.4:
//!
//! - [`Tensor`]: dense `f32` matrices with cheap clones,
//! - [`Tape`]: define-by-run reverse-mode autodiff (dynamic graphs, which
//!   the *recursive* loop-embedding layer requires); gradients are
//!   computed only where a parameter or differentiable leaf is upstream,
//! - [`nn`]: [`nn::Linear`], [`nn::Mlp`] (ELU + dropout), [`nn::LstmCell`],
//! - [`optim`]: [`optim::AdamW`] and the [`optim::OneCycleLr`] policy,
//! - [`loss`]: MAPE (the paper's objective) and MSE (the baseline's),
//! - [`init`]: Glorot initialization (appendix A.1),
//! - [`math`]: the `exp` / `sigmoid` / `tanh` every activation above is
//!   made of — plain Rust, no libm,
//! - [`pool`]: the persistent worker pool a training step's second lane
//!   runs on (and, through `dlcm_eval::pool`, evaluation and search).
//!
//! # Examples
//!
//! Fit a tiny network end to end:
//!
//! ```
//! use dlcm_tensor::{Tape, Tensor};
//! use dlcm_tensor::nn::{Activation, Mlp, ParamStore};
//! use dlcm_tensor::optim::{AdamW, AdamWConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let mlp = Mlp::new(&mut store, "net", &[1, 8, 1], Activation::Tanh, 0.0, false, &mut rng);
//! let mut opt = AdamW::new(&store, AdamWConfig::default());
//!
//! let mut tape = Tape::new();
//! for _ in 0..50 {
//!     // Data nobody differentiates is a constant; weights are params.
//!     let x = tape.constant(Tensor::from_vec(4, 1, vec![-1.0, 0.0, 0.5, 1.0]));
//!     let y = mlp.forward(&mut tape, &store, x, &mut rng);
//!     let t = tape.constant(Tensor::from_vec(4, 1, vec![1.0, 0.0, 0.25, 1.0]));
//!     let loss = dlcm_tensor::loss::mse(&mut tape, y, t);
//!     // `backward` consumes the tape and releases its values, so the
//!     // step updates the weights in place rather than copies of them…
//!     let grads = tape.backward(loss);
//!     opt.step(&mut store, &grads, 1e-2);
//!     // …and the next step records into the same storage.
//!     tape = grads.into_tape();
//! }
//! ```

#![warn(missing_docs)]

pub mod init;
pub mod kernel;
pub mod loss;
pub mod math;
pub mod nn;
pub mod optim;
pub mod pool;
mod recycle;
mod tape;
mod tensor;

pub use tape::{Gradients, ParamId, Tape, Var};
pub use tensor::Tensor;
