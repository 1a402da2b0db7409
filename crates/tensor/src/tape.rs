//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation applied to [`Var`] handles and can
//! replay them backwards to compute gradients. The dynamic-graph design is
//! what makes the paper's *recursive* loop-embedding layer possible: each
//! program tree shape needs its own computation graph, so the graph is
//! rebuilt per structure-pure minibatch (every sample of a batch shares
//! one tree) exactly like PyTorch's define-by-run graphs.
//!
//! Every node records whether a differentiable leaf ([`Tape::leaf`],
//! [`Tape::param`]) is upstream of it. [`Tape::backward`] computes a
//! gradient only for nodes where one is: data bound with
//! [`Tape::constant`] — feature matrices, targets, zero states — and
//! everything derived from constants alone is skipped, so a training
//! step costs the arithmetic its parameter gradients need and no more.
//!
//! [`Tape::backward`] runs on two lanes. The caller walks the *chain*:
//! every data gradient, node by node from the target down. A leaf's
//! gradient is read by nothing on that walk, so each weight-gradient
//! product `Aᵀ·g` whose right operand is a leaf (every weight of an
//! `x·W` is one) is handed to a pool helper, which computes it while the
//! chain goes on; when the chain is done, the caller takes the products
//! still waiting from the other end of the line. Each gradient still sums
//! its contributions in the order the chain reached them — a product's
//! place is recorded when it is handed over — so the result does not
//! depend on which lane computed what, or on whether the helper joined
//! at all.
//!
//! [`Tape::backward`] consumes the tape: it releases every recorded
//! value (so the weights it bound are no longer shared, and an optimizer
//! updates them in place) and keeps the emptied tape, with the storage
//! of its nodes and of the backward pass, inside the [`Gradients`] it
//! returns. [`Gradients::into_tape`] hands that tape back, so a training
//! loop records every step into the storage of the one before; with the
//! tensor buffers the crate recycles, a steady-state step asks the
//! allocator for no block of 1 KiB or more.
//!
//! # Examples
//!
//! ```
//! use dlcm_tensor::{Tape, Tensor};
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::row(vec![2.0]));
//! let y = tape.mul(x, x); // y = x^2
//! let grads = tape.backward(y);
//! assert_eq!(grads.get(x).unwrap().as_slice(), &[4.0]); // dy/dx = 2x
//! let tape = grads.into_tape(); // empty, ready for the next graph
//! assert!(tape.is_empty());
//! ```

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::math;
use crate::pool;
use crate::recycle;
use crate::tensor::Tensor;

/// Threads a backward pass and an optimizer step are split across: the
/// caller and one pool helper. A fixed part of the design; with one lane
/// (a test-only argument) the caller runs both halves itself.
pub(crate) const LANES: usize = 2;

/// Handle to a node recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Identifier tying a tape leaf back to a persistent model parameter slot.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct ParamId(pub usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Matmul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    AddRowBroadcast(Var, Var),
    Scale(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Elu(Var, f32),
    Softplus(Var),
    Exp(Var),
    Abs(Var),
    ConcatCols(Var, Var),
    Mean(Var),
    Sum(Var),
    Dropout(Var, Tensor),
    GatherRows(Var, Vec<usize>),
}

impl Op {
    /// Whether `pred` holds for any operand (leaves have none).
    fn any_input(&self, pred: impl Fn(Var) -> bool) -> bool {
        match self {
            Op::Leaf => false,
            Op::Matmul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::ConcatCols(a, b) => pred(*a) || pred(*b),
            Op::Scale(a, _)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::Elu(a, _)
            | Op::Softplus(a)
            | Op::Exp(a)
            | Op::Abs(a)
            | Op::Mean(a)
            | Op::Sum(a)
            | Op::Dropout(a, _)
            | Op::GatherRows(a, _) => pred(*a),
        }
    }
}

struct Node {
    value: Tensor,
    op: Op,
    param: Option<ParamId>,
    /// A differentiable leaf is upstream: `backward` computes this
    /// node's gradient. `false` for constants and whatever is derived
    /// from constants only.
    needs_grad: bool,
}

/// Transposes taken during one [`Tape::backward`] call, keyed by the
/// buffer transposed (`Tensor::buffer_id`). An LSTM or merge weight is
/// bound once per use (every level of a nest, every step of a sequence)
/// and every bind of a parameter shares one buffer, so the backward pass
/// would otherwise transpose the same matrix over and over. The key is
/// the buffer, not the [`ParamId`]: nothing stops a caller of
/// [`Tape::param`] from binding two different tensors under one id. The
/// tape keeps every node's value alive for the whole call, and the map
/// is emptied before the call returns, so a buffer's identity cannot be
/// reused while it is a key.
type Transposed = std::collections::HashMap<usize, Tensor>;

/// One contribution to a leaf's gradient, in the order the chain
/// produced it.
enum Part {
    /// Computed on the chain.
    Ready(Tensor),
    /// The next weight-gradient product in [`Products`] order.
    Product,
}

/// What the chain of [`Tape::backward`] works on: every non-leaf
/// gradient, summed, and every leaf contribution still to be summed.
struct Chain {
    grads: Vec<Option<Tensor>>,
    /// `(leaf node, contribution)` in the order the chain produced them.
    leaf_parts: Vec<(usize, Part)>,
    transposed: Transposed,
}

/// The storage of a [`Tape::backward`] call, kept (empty) on the tape
/// between calls.
#[derive(Default)]
struct Spare {
    grads: Vec<Option<Tensor>>,
    params: Vec<(ParamId, usize)>,
    leaf_parts: Vec<(usize, Part)>,
    transposed: Transposed,
    jobs: Vec<Job>,
    done: Vec<(usize, Tensor)>,
    /// Each lane's buffer for the `Aᵀ` of the products it computes.
    lane_scratch: [Vec<f32>; 2],
}

/// One weight-gradient product `Aᵀ·g` handed over by the chain.
struct Job {
    /// Node of `A`.
    a: usize,
    g: Tensor,
    /// The buffer the product is computed in, taken by the chain: every
    /// buffer a backward pass takes or gives back is taken or given on
    /// the chain's lane, in the chain's order, so how many a step needs
    /// does not depend on which lane ran when.
    out: Vec<f32>,
}

/// The weight-gradient products `Aᵀ·g` the chain hands over, in the
/// order the chain reaches them. The helper lane claims them from the
/// front while the chain runs; the chain's lane, once the chain is done,
/// claims what is left from the back — where the largest product, the
/// first layer's, was handed over last.
struct Products {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// `Aᵀ` buffers: the chain's lane's, then the helper's.
    lane_scratch: [Mutex<Vec<f32>>; 2],
}

struct Queue {
    /// Every product handed over so far.
    jobs: Vec<Job>,
    /// `(place in jobs, Aᵀ·g)` of every product computed so far.
    done: Vec<(usize, Tensor)>,
    /// How many jobs have been claimed from the front, and how many from
    /// the back; the rest are unclaimed.
    front: usize,
    back: usize,
    /// No product will be added: the chain has returned or unwound.
    closed: bool,
    /// The helper is waiting on `wake` for the next product.
    waiting: bool,
}

impl Products {
    fn new(jobs: Vec<Job>, done: Vec<(usize, Tensor)>, lane_scratch: [Vec<f32>; 2]) -> Self {
        Self {
            lane_scratch: lane_scratch.map(Mutex::new),
            queue: Mutex::new(Queue {
                jobs,
                done,
                front: 0,
                back: 0,
                closed: false,
                waiting: false,
            }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        // `CloseOnDrop` locks too, and a drop must not panic. No code
        // panics while holding the lock, so a poisoned queue is still a
        // consistent one.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, a: &Tensor, a_node: Var, g: Tensor) {
        let out = recycle::take(a.cols() * g.cols());
        let mut queue = self.lock();
        queue.jobs.push(Job {
            a: a_node.0,
            g,
            out,
        });
        if queue.waiting {
            self.wake.notify_one();
        }
    }

    /// Computes unclaimed products of `tape`'s values, claiming each
    /// from the front or the back, until none is left and the chain is
    /// done. Only a lane claiming from the front waits for the chain;
    /// the chain's own lane claims from the back once the chain has
    /// closed the queue.
    fn compute(&self, tape: &Tape, from_back: bool) {
        let mut scratch = self.lane_scratch[usize::from(!from_back)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut queue = self.lock();
        loop {
            let end = queue.jobs.len() - queue.back;
            if queue.front < end {
                let k = if from_back {
                    queue.back += 1;
                    end - 1
                } else {
                    queue.front += 1;
                    queue.front - 1
                };
                let job = &mut queue.jobs[k];
                let (a, g, out) = (job.a, job.g.clone(), std::mem::take(&mut job.out));
                drop(queue);
                let product = tape.nodes[a].value.t_matmul_in(&g, &mut scratch, out);
                queue = self.lock();
                queue.done.push((k, product));
            } else if queue.closed {
                return;
            } else {
                queue.waiting = true;
                queue = self
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                queue.waiting = false;
            }
        }
    }
}

/// Closes the product queue when the chain leaves — by returning or by
/// unwinding — so a helper waiting for the next product is released
/// either way.
struct CloseOnDrop<'a>(&'a Products);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.wake.notify_one();
    }
}

/// Adds `contrib` to a gradient slot: the first contribution is the
/// slot, each later one is added to it.
fn accumulate_into(slot: &mut Option<Tensor>, contrib: Tensor) {
    match slot {
        Some(existing) => existing.add_scaled(&contrib, 1.0),
        slot => *slot = Some(contrib),
    }
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`], and the
/// emptied tape that produced them ([`Gradients::into_tape`]).
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
    params: Vec<(ParamId, usize)>,
    tape: Tape,
}

impl std::fmt::Debug for Gradients {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gradients")
            .field("grads", &self.grads)
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl Gradients {
    /// Gradient of the backward target with respect to `var`, if it was
    /// reached during backpropagation. `None` for a [`Tape::constant`]
    /// and for nodes computed from constants alone.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }

    /// Iterates over `(ParamId, gradient)` pairs for every parameter leaf
    /// that received a gradient, one pair per bind, in the order the binds
    /// were recorded.
    pub fn params(&self) -> impl Iterator<Item = (ParamId, &Tensor)> + '_ {
        self.params
            .iter()
            .filter_map(move |&(pid, idx)| self.grads[idx].as_ref().map(|g| (pid, g)))
    }

    /// Drops the gradients and returns the tape that produced them,
    /// empty, in the mode it was created in: recording the next graph
    /// into it reuses the storage of this one.
    pub fn into_tape(self) -> Tape {
        let Gradients {
            mut grads,
            mut params,
            mut tape,
        } = self;
        grads.clear();
        params.clear();
        tape.spare.grads = grads;
        tape.spare.params = params;
        tape
    }
}

/// A define-by-run autodiff tape.
///
/// Typical flow: bind data with [`Tape::constant`] (or [`Tape::leaf`]
/// when its gradient is wanted) and weights with [`Tape::param`], apply
/// ops, then call [`Tape::backward`] on a scalar output.
pub struct Tape {
    nodes: Vec<Node>,
    train: bool,
    spare: Spare,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape in inference mode (dropout disabled).
    pub fn new() -> Self {
        Self {
            nodes: Vec::with_capacity(256),
            train: false,
            spare: Spare::default(),
        }
    }

    /// Creates an empty tape in training mode (dropout active).
    pub fn for_training() -> Self {
        Self {
            nodes: Vec::with_capacity(256),
            train: true,
            spare: Spare::default(),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a recorded node.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        debug_assert!(
            !value.has_non_finite() || matches!(op, Op::Leaf),
            "non-finite value from {op:?}"
        );
        let needs_grad = op.any_input(|v| self.nodes[v.0].needs_grad);
        self.nodes.push(Node {
            value,
            op,
            param: None,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records a differentiable data leaf (no parameter identity): its
    /// gradient is retrievable through [`Gradients::get`]. Training code
    /// that never reads an input's gradient binds it with
    /// [`Tape::constant`] instead.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        let v = self.push(value, Op::Leaf);
        self.nodes[v.0].needs_grad = true;
        v
    }

    /// Records non-differentiable data — features, targets, initial
    /// states. [`Tape::backward`] computes no gradient for it, nor for
    /// anything derived only from constants; the gradients of every
    /// other node are bit-identical to what a [`Tape::leaf`] in its
    /// place would give.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Records a parameter leaf. Gradients for it are retrievable through
    /// [`Gradients::params`] keyed by `id`.
    pub fn param(&mut self, id: ParamId, value: Tensor) -> Var {
        let v = self.leaf(value);
        self.nodes[v.0].param = Some(id);
        v
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::Matmul(a, b))
    }

    /// Elementwise addition of same-shaped tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip_map(self.value(b), |x, y| x + y);
        self.push(value, Op::Add(a, b))
    }

    /// Elementwise subtraction.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip_map(self.value(b), |x, y| x - y);
        self.push(value, Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip_map(self.value(b), |x, y| x * y);
        self.push(value, Op::Mul(a, b))
    }

    /// Elementwise division.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip_map(self.value(b), |x, y| x / y);
        self.push(value, Op::Div(a, b))
    }

    /// Adds a `1 x n` bias row to every row of an `m x n` matrix.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let (m, n) = self.value(a).shape();
        assert_eq!(self.value(bias).shape(), (1, n), "bias must be 1 x {n}");
        let mut out = self.value(a).clone();
        let b = self.value(bias).clone();
        {
            let dst = out.as_mut_slice();
            for r in 0..m {
                for (d, &bv) in dst[r * n..(r + 1) * n].iter_mut().zip(b.as_slice()) {
                    *d += bv;
                }
            }
        }
        self.push(out, Op::AddRowBroadcast(a, bias))
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).map(|x| x * s);
        self.push(value, Op::Scale(a, s))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(math::sigmoid);
        self.push(value, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(math::tanh);
        self.push(value, Op::Tanh(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Exponential linear unit with slope `alpha` (the paper's activation).
    pub fn elu(&mut self, a: Var, alpha: f32) -> Var {
        let value = self.value(a).map(|x| {
            if x > 0.0 {
                x
            } else {
                alpha * (math::exp(x) - 1.0)
            }
        });
        self.push(value, Op::Elu(a, alpha))
    }

    /// Numerically-stable softplus `ln(1 + e^x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| {
            if x > 20.0 {
                x
            } else if x < -20.0 {
                math::exp(x)
            } else {
                math::exp(x).ln_1p()
            }
        });
        self.push(value, Op::Softplus(a))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.value(a).map(math::exp);
        self.push(value, Op::Exp(a))
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::abs);
        self.push(value, Op::Abs(a))
    }

    /// Concatenates two matrices with equal row counts along columns.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ra, ca) = self.value(a).shape();
        let (rb, cb) = self.value(b).shape();
        assert_eq!(ra, rb, "concat_cols row mismatch: {ra} vs {rb}");
        let (av, bv) = (self.value(a), self.value(b));
        let value = Tensor::with_fill(ra, ca + cb, |data| {
            for r in 0..ra {
                data.extend_from_slice(av.row_slice(r));
                data.extend_from_slice(bv.row_slice(r));
            }
        });
        self.push(value, Op::ConcatCols(a, b))
    }

    /// Mean over all elements, producing a `1 x 1` scalar.
    pub fn mean(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).mean());
        self.push(value, Op::Mean(a))
    }

    /// Sum over all elements, producing a `1 x 1` scalar.
    pub fn sum(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).sum());
        self.push(value, Op::Sum(a))
    }

    /// Gathers rows `indices` of a matrix into a `k x cols` matrix
    /// (rows may repeat; gradients scatter-add back).
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let av = self.value(a);
        let (m, n) = av.shape();
        let value = Tensor::with_fill(indices.len(), n, |data| {
            for &r in indices {
                assert!(r < m, "gather row {r} out of bounds ({m} rows)");
                data.extend_from_slice(av.row_slice(r));
            }
        });
        self.push(value, Op::GatherRows(a, indices.to_vec()))
    }

    /// Inverted dropout with keep-probability `1 - p`.
    ///
    /// In inference mode this is the identity. In training mode each element
    /// is dropped with probability `p` and survivors are scaled by
    /// `1 / (1 - p)`, so expectations match between modes.
    pub fn dropout(&mut self, a: Var, p: f32, rng: &mut impl rand::Rng) -> Var {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        if !self.train || p == 0.0 {
            return a;
        }
        let (m, n) = self.value(a).shape();
        let keep = 1.0 - p;
        let mask = Tensor::with_fill(m, n, |mask| {
            mask.extend((0..m * n).map(|_| {
                if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            }));
        });
        let value = self.value(a).zip_map(&mask, |x, k| x * k);
        self.push(value, Op::Dropout(a, mask))
    }

    /// Backpropagates from `target` (must be `1 x 1`) and returns gradients
    /// for every node with a differentiable leaf upstream.
    ///
    /// The caller runs the chain of data gradients while a pool helper
    /// computes the weight-gradient products of leaves; once the chain is
    /// done the caller helps with the products left (see the module
    /// docs). The gradients are the same bits whichever lane computes
    /// what.
    ///
    /// The tape is consumed: its values are released before this
    /// returns — the weights it bound are no longer shared — and the
    /// emptied tape waits in the result for [`Gradients::into_tape`].
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a scalar node, and re-raises a panic of
    /// either lane once both have stopped.
    pub fn backward(self, target: Var) -> Gradients {
        self.backward_on(target, LANES)
    }

    /// [`Tape::backward`] with up to `lanes` threads. The chain is index
    /// 0 of the two-way split and the helper's products index 1, and the
    /// pool claims indices in order, so a lane waiting for products waits
    /// only on a chain that is running or has finished; with one lane the
    /// caller runs the chain, then every product.
    pub(crate) fn backward_on(mut self, target: Var, lanes: usize) -> Gradients {
        assert_eq!(
            self.value(target).len(),
            1,
            "backward target must be scalar, got {:?}",
            self.value(target).shape()
        );
        let Spare {
            mut grads,
            mut params,
            leaf_parts,
            transposed,
            jobs,
            done,
            mut lane_scratch,
        } = std::mem::take(&mut self.spare);
        grads.resize(self.nodes.len(), None);
        // Either lane may compute any product: size both transpose
        // buffers for the widest `A` up front, so neither grows mid-run.
        let widest = self.nodes.iter().filter_map(|n| match n.op {
            Op::Matmul(a, b) if self.is_weight_operand(b) => Some(self.value(a).len()),
            _ => None,
        });
        let widest = widest.max().unwrap_or(0);
        for scratch in &mut lane_scratch {
            scratch.clear();
            scratch.reserve(widest);
        }
        let chain = Mutex::new(Chain {
            grads,
            leaf_parts,
            transposed,
        });
        let products = Products::new(jobs, done, lane_scratch);
        let tape = &self;
        pool::parallel_map(lanes, 2, |lane| {
            if lane == 0 {
                let mut chain = chain.lock().unwrap_or_else(PoisonError::into_inner);
                tape.chain(target, &mut chain, &products);
            }
            products.compute(tape, lane == 0);
        });
        let Chain {
            mut grads,
            mut leaf_parts,
            mut transposed,
        } = chain.into_inner().unwrap_or_else(PoisonError::into_inner);
        let Queue {
            mut jobs, mut done, ..
        } = products
            .queue
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let lane_scratch = products
            .lane_scratch
            .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner));

        // Each leaf sums its contributions in the order the chain made
        // them, whichever lane computed a product.
        done.sort_unstable_by_key(|&(k, _)| k);
        let mut computed = done.drain(..).map(|(_, product)| product);
        for (leaf, part) in leaf_parts.drain(..) {
            let contrib = match part {
                Part::Ready(t) => t,
                Part::Product => computed.next().expect("one product per deferred part"),
            };
            accumulate_into(&mut grads[leaf], contrib);
        }
        drop(computed);
        jobs.clear();
        transposed.clear();

        params.extend(
            self.nodes
                .iter()
                .enumerate()
                .filter_map(|(i, n)| n.param.map(|p| (p, i))),
        );
        self.nodes.clear();
        self.spare = Spare {
            leaf_parts,
            transposed,
            jobs,
            done,
            lane_scratch,
            ..Spare::default()
        };
        Gradients {
            grads,
            params,
            tape: self,
        }
    }

    /// Whether `b`, the right operand of a product, gets its gradient
    /// `Aᵀ·g` as a product handed to [`Products`]: a differentiable leaf
    /// (every weight of an `x·W` is one).
    fn is_weight_operand(&self, b: Var) -> bool {
        let node = &self.nodes[b.0];
        node.needs_grad && matches!(node.op, Op::Leaf)
    }

    /// The chain lane: every gradient from `target` down, node by node,
    /// handing each leaf's weight-gradient products to `products`.
    fn chain(&self, target: Var, chain: &mut Chain, products: &Products) {
        let _close = CloseOnDrop(products);
        chain.grads[target.0] = Some(Tensor::ones(1, 1));
        for idx in (0..=target.0).rev() {
            let Some(g) = chain.grads[idx].take() else {
                continue;
            };
            self.accumulate(idx, &g, chain, products);
            chain.grads[idx] = Some(g);
        }
    }

    fn accumulate(&self, idx: usize, g: &Tensor, chain: &mut Chain, products: &Products) {
        let needs_grad = |v: Var| self.nodes[v.0].needs_grad;
        let is_leaf = |v: Var| matches!(self.nodes[v.0].op, Op::Leaf);
        // A contribution owed to a node with no differentiable leaf
        // upstream is dropped: nothing reads it. One owed to a leaf waits
        // in line with the leaf's products.
        let add = |chain: &mut Chain, v: Var, contrib: Tensor| {
            if !needs_grad(v) {
                return;
            }
            if is_leaf(v) {
                chain.leaf_parts.push((v.0, Part::Ready(contrib)));
            } else {
                accumulate_into(&mut chain.grads[v.0], contrib);
            }
        };
        match &self.nodes[idx].op {
            Op::Leaf => {}
            Op::Matmul(a, b) => {
                // The two products dominate the backward pass, so each
                // is computed only for a side that keeps its gradient.
                if needs_grad(*a) {
                    // `g x Bᵀ`, with the transpose taken once per weight,
                    // not per use.
                    let b = self.value(*b);
                    let bt = chain
                        .transposed
                        .entry(b.buffer_id())
                        .or_insert_with(|| b.transpose());
                    let contrib = g.matmul(bt);
                    add(chain, *a, contrib);
                }
                if needs_grad(*b) {
                    if self.is_weight_operand(*b) {
                        // Nothing on the chain reads a leaf's gradient:
                        // hand the product over.
                        products.push(self.value(*a), *a, g.clone());
                        chain.leaf_parts.push((b.0, Part::Product));
                    } else {
                        add(chain, *b, self.value(*a).t_matmul(g));
                    }
                }
            }
            Op::Add(a, b) => {
                add(chain, *a, g.clone());
                add(chain, *b, g.clone());
            }
            Op::Sub(a, b) => {
                add(chain, *a, g.clone());
                add(chain, *b, g.map(|x| -x));
            }
            Op::Mul(a, b) => {
                add(chain, *a, g.zip_map(self.value(*b), |gv, bv| gv * bv));
                add(chain, *b, g.zip_map(self.value(*a), |gv, av| gv * av));
            }
            Op::Div(a, b) => {
                let bv = self.value(*b);
                add(chain, *a, g.zip_map(bv, |gv, b| gv / b));
                let av = self.value(*a);
                let mut db = g.zip_map(av, |gv, a| gv * a);
                db = db.zip_map(bv, |x, b| -x / (b * b));
                add(chain, *b, db);
            }
            Op::AddRowBroadcast(a, bias) => {
                add(chain, *a, g.clone());
                add(chain, *bias, g.col_sum());
            }
            Op::Scale(a, s) => add(chain, *a, g.map(|x| x * s)),
            Op::Sigmoid(a) => {
                let out = &self.nodes[idx].value;
                add(chain, *a, g.zip_map(out, |gv, s| gv * s * (1.0 - s)));
            }
            Op::Tanh(a) => {
                let out = &self.nodes[idx].value;
                add(chain, *a, g.zip_map(out, |gv, t| gv * (1.0 - t * t)));
            }
            Op::Relu(a) => {
                let x = self.value(*a);
                add(
                    chain,
                    *a,
                    g.zip_map(x, |gv, xv| if xv > 0.0 { gv } else { 0.0 }),
                );
            }
            Op::Elu(a, alpha) => {
                let out = &self.nodes[idx].value;
                let alpha = *alpha;
                add(
                    chain,
                    *a,
                    g.zip_map(out, |gv, o| if o > 0.0 { gv } else { gv * (o + alpha) }),
                );
            }
            Op::Softplus(a) => {
                let x = self.value(*a);
                add(chain, *a, g.zip_map(x, |gv, xv| gv * math::sigmoid(xv)));
            }
            Op::Exp(a) => {
                let out = &self.nodes[idx].value;
                add(chain, *a, g.zip_map(out, |gv, o| gv * o));
            }
            Op::Abs(a) => {
                let x = self.value(*a);
                add(
                    chain,
                    *a,
                    g.zip_map(x, |gv, xv| if xv >= 0.0 { gv } else { -gv }),
                );
            }
            Op::ConcatCols(a, b) => {
                let (ra, ca) = self.value(*a).shape();
                let (_, cb) = self.value(*b).shape();
                let rows = || (0..ra).map(|r| g.row_slice(r));
                let da = Tensor::from_row_slices(ra, ca, rows().map(|row| &row[..ca]));
                let db = Tensor::from_row_slices(ra, cb, rows().map(|row| &row[ca..]));
                add(chain, *a, da);
                add(chain, *b, db);
            }
            Op::Mean(a) => {
                let (m, n) = self.value(*a).shape();
                let gv = g.item() / (m * n) as f32;
                add(chain, *a, Tensor::full(m, n, gv));
            }
            Op::Sum(a) => {
                let (m, n) = self.value(*a).shape();
                add(chain, *a, Tensor::full(m, n, g.item()));
            }
            Op::Dropout(a, mask) => {
                add(chain, *a, g.zip_map(mask, |gv, k| gv * k));
            }
            Op::GatherRows(a, indices) => {
                let (m, n) = self.value(*a).shape();
                let mut da = Tensor::zeros(m, n);
                {
                    let dst = da.as_mut_slice();
                    for (gi, &r) in indices.iter().enumerate() {
                        for (d, &s) in dst[r * n..(r + 1) * n].iter_mut().zip(g.row_slice(gi)) {
                            *d += s;
                        }
                    }
                }
                add(chain, *a, da);
            }
        }
    }
}

#[cfg(test)]
mod step_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite-difference gradient of `f` at `x`.
    fn numeric_grad(f: impl Fn(&Tensor) -> f32, x: &Tensor) -> Tensor {
        let eps = 1e-3f32;
        let mut g = Tensor::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                g.set(r, c, (f(&xp) - f(&xm)) / (2.0 * eps));
            }
        }
        g
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "gradients differ: {x} vs {y} (tol {tol})\n{a:?}\n{b:?}"
            );
        }
    }

    fn check_unary(op: impl Fn(&mut Tape, Var) -> Var, x: Tensor, tol: f32) {
        let mut tape = Tape::new();
        let v = tape.leaf(x.clone());
        let y = op(&mut tape, v);
        let s = tape.sum(y);
        let grads = tape.backward(s);
        let analytic = grads.get(v).unwrap();
        let numeric = numeric_grad(
            |t| {
                let mut tape = Tape::new();
                let v = tape.leaf(t.clone());
                let y = op(&mut tape, v);
                {
                    let s = tape.sum(y);
                    tape.value(s).item()
                }
            },
            &x,
        );
        assert_close(analytic, &numeric, tol);
    }

    #[test]
    fn grad_sigmoid_tanh_relu_elu_softplus_exp_abs_neg() {
        let x = Tensor::from_rows(&[&[0.3, -0.7, 1.2], &[-2.0, 0.01, 0.9]]);
        check_unary(|t, v| t.sigmoid(v), x.clone(), 2e-2);
        check_unary(|t, v| t.tanh(v), x.clone(), 2e-2);
        check_unary(|t, v| t.relu(v), x.clone(), 2e-2);
        check_unary(|t, v| t.elu(v, 1.0), x.clone(), 2e-2);
        check_unary(|t, v| t.softplus(v), x.clone(), 2e-2);
        check_unary(|t, v| t.exp(v), x.clone(), 2e-2);
        check_unary(|t, v| t.abs(v), x, 2e-2);
    }

    #[test]
    fn grad_scale_add_scalar() {
        let x = Tensor::from_rows(&[&[1.0, -2.0]]);
        check_unary(|t, v| t.scale(v, 2.5), x, 1e-2);
    }

    #[test]
    fn grad_matmul_both_sides() {
        let a0 = Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]);
        let b0 = Tensor::from_rows(&[&[1.0, 0.5, -0.5], &[0.25, -1.0, 2.0]]);

        let mut tape = Tape::new();
        let a = tape.leaf(a0.clone());
        let b = tape.leaf(b0.clone());
        let c = tape.matmul(a, b);
        let s = tape.sum(c);
        let grads = tape.backward(s);

        let na = numeric_grad(
            |t| {
                let mut tape = Tape::new();
                let a = tape.leaf(t.clone());
                let b = tape.leaf(b0.clone());
                let c = tape.matmul(a, b);
                {
                    let s = tape.sum(c);
                    tape.value(s).item()
                }
            },
            &a0,
        );
        let nb = numeric_grad(
            |t| {
                let mut tape = Tape::new();
                let a = tape.leaf(a0.clone());
                let b = tape.leaf(t.clone());
                let c = tape.matmul(a, b);
                {
                    let s = tape.sum(c);
                    tape.value(s).item()
                }
            },
            &b0,
        );
        assert_close(grads.get(a).unwrap(), &na, 2e-2);
        assert_close(grads.get(b).unwrap(), &nb, 2e-2);
    }

    #[test]
    fn grad_binary_elementwise() {
        let a0 = Tensor::from_rows(&[&[1.0, -2.0, 0.5]]);
        let b0 = Tensor::from_rows(&[&[0.5, 1.5, -0.25]]);
        for op in ["add", "sub", "mul", "div"] {
            let run = |a_t: &Tensor, b_t: &Tensor| -> (f32, Option<(Tensor, Tensor)>) {
                let mut tape = Tape::new();
                let a = tape.leaf(a_t.clone());
                let b = tape.leaf(b_t.clone());
                let c = match op {
                    "add" => tape.add(a, b),
                    "sub" => tape.sub(a, b),
                    "mul" => tape.mul(a, b),
                    _ => tape.div(a, b),
                };
                let s = tape.sum(c);
                let v = tape.value(s).item();
                let g = tape.backward(s);
                (
                    v,
                    Some((g.get(a).unwrap().clone(), g.get(b).unwrap().clone())),
                )
            };
            let (_, Some((ga, gb))) = run(&a0, &b0) else {
                unreachable!()
            };
            let na = numeric_grad(|t| run(t, &b0).0, &a0);
            let nb = numeric_grad(|t| run(&a0, t).0, &b0);
            assert_close(&ga, &na, 2e-2);
            assert_close(&gb, &nb, 2e-2);
        }
    }

    #[test]
    fn grad_add_row_broadcast() {
        let a0 = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b0 = Tensor::row(vec![0.5, -0.5]);
        let mut tape = Tape::new();
        let a = tape.leaf(a0.clone());
        let b = tape.leaf(b0.clone());
        let c = tape.add_row_broadcast(a, b);
        let s = tape.sum(c);
        let grads = tape.backward(s);
        assert_eq!(grads.get(a).unwrap(), &Tensor::ones(3, 2));
        assert_eq!(grads.get(b).unwrap().as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn grad_concat_cols_splits() {
        let a0 = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b0 = Tensor::from_rows(&[&[3.0]]);
        let mut tape = Tape::new();
        let a = tape.leaf(a0);
        let b = tape.leaf(b0);
        let c = tape.concat_cols(a, b);
        let w = tape.leaf(Tensor::row(vec![1.0, 10.0, 100.0]));
        let prod = tape.mul(c, w);
        let s = tape.sum(prod);
        let grads = tape.backward(s);
        assert_eq!(grads.get(a).unwrap().as_slice(), &[1.0, 10.0]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[100.0]);
    }

    #[test]
    fn grad_mean_and_row_select() {
        let a0 = Tensor::from_rows(&[&[2.0, 4.0], &[6.0, 8.0]]);
        let mut tape = Tape::new();
        let a = tape.leaf(a0);
        let m = tape.mean(a);
        let grads = tape.backward(m);
        assert_eq!(grads.get(a).unwrap(), &Tensor::full(2, 2, 0.25));
    }

    #[test]
    fn dropout_identity_in_inference() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0, 3.0]]));
        let d = tape.dropout(x, 0.5, &mut rng);
        assert_eq!(tape.value(d).as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropout_preserves_expectation_in_training() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut tape = Tape::for_training();
        let x = tape.leaf(Tensor::full(1, n, 1.0));
        let d = tape.dropout(x, 0.3, &mut rng);
        let mean = tape.value(d).mean();
        assert!((mean - 1.0).abs() < 0.05, "dropout mean drifted: {mean}");
    }

    #[test]
    fn param_gradients_are_keyed() {
        let mut tape = Tape::new();
        let w = tape.param(ParamId(3), Tensor::row(vec![2.0]));
        let x = tape.leaf(Tensor::row(vec![5.0]));
        let y = tape.mul(w, x);
        let s = tape.sum(y);
        let grads = tape.backward(s);
        let collected: Vec<_> = grads.params().collect();
        assert_eq!(collected.len(), 1);
        assert_eq!(collected[0].0, ParamId(3));
        assert_eq!(collected[0].1.as_slice(), &[5.0]);
    }

    #[test]
    fn constants_and_what_derives_from_them_get_no_gradient() {
        let a0 = Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]);
        let w0 = Tensor::from_rows(&[&[1.0, 0.5, -0.5], &[0.25, -1.0, 2.0]]);
        let run = |constant: bool| {
            let mut tape = Tape::new();
            let a = if constant {
                tape.constant(a0.clone())
            } else {
                tape.leaf(a0.clone())
            };
            let e = tape.exp(a); // derived from `a` alone
            let w = tape.param(ParamId(0), w0.clone());
            let y = tape.matmul(e, w);
            let s = tape.sum(y);
            let grads = tape.backward(s);
            let dw = grads.get(w).unwrap().clone();
            (grads.get(a).is_some(), grads.get(e).is_some(), dw)
        };
        let (a_grad, e_grad, dw_constant) = run(true);
        assert!(!a_grad && !e_grad);
        let (a_grad, e_grad, dw_leaf) = run(false);
        assert!(a_grad && e_grad);
        assert_eq!(dw_constant, dw_leaf);
    }

    #[test]
    fn fan_out_accumulates_gradient() {
        // y = x*x + x  =>  dy/dx = 2x + 1
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(vec![3.0]));
        let sq = tape.mul(x, x);
        let y = tape.add(sq, x);
        let s = tape.sum(y);
        let grads = tape.backward(s);
        assert_eq!(grads.get(x).unwrap().as_slice(), &[7.0]);
    }
}
