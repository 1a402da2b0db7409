//! Neural-network building blocks: parameter store, linear layers, MLPs,
//! and LSTM cells.
//!
//! Parameters live in a [`ParamStore`] that owns the tensors across training
//! steps; a forward pass *binds* them into a per-minibatch [`Tape`] (a cheap
//! `Arc` clone) so gradients can be collected by [`ParamId`] and applied by
//! an optimizer.

use rand::Rng;

use crate::init::glorot_uniform;
use crate::kernel::{Arena, MatId};
use crate::math;
use crate::tape::{ParamId, Tape, Var};
use crate::tensor::Tensor;

/// Owns every trainable tensor of a model in registration order.
///
/// # Examples
///
/// ```
/// use dlcm_tensor::nn::ParamStore;
/// use dlcm_tensor::Tensor;
/// let mut store = ParamStore::new();
/// let id = store.register("w", Tensor::zeros(2, 2));
/// assert_eq!(store.get(id).shape(), (2, 2));
/// ```
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    names: Vec<String>,
    tensors: Vec<Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tensor under `name`, returning its stable [`ParamId`].
    pub fn register(&mut self, name: impl Into<String>, tensor: Tensor) -> ParamId {
        self.names.push(name.into());
        self.tensors.push(tensor);
        ParamId(self.tensors.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Returns the parameter tensor for `id`.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable access to the parameter tensor for `id`.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// Name the parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over all `(id, tensor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.tensors
            .iter()
            .enumerate()
            .map(|(i, t)| (ParamId(i), t))
    }

    /// Binds parameter `id` into `tape` as a parameter leaf.
    pub fn bind(&self, tape: &mut Tape, id: ParamId) -> Var {
        tape.param(id, self.get(id).clone())
    }

    /// Every parameter tensor, mutably, in [`ParamId`] order.
    pub(crate) fn tensors_mut(&mut self) -> std::slice::IterMut<'_, Tensor> {
        self.tensors.iter_mut()
    }
}

/// A fully-connected layer `y = x W + b`.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    /// Weight matrix id, shape `in_dim x out_dim`.
    pub w: ParamId,
    /// Bias row id, shape `1 x out_dim`.
    pub b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a Glorot-initialized linear layer in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.register(format!("{name}.w"), glorot_uniform(in_dim, out_dim, rng));
        let b = store.register(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to a `batch x in_dim` input.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = store.bind(tape, self.w);
        let b = store.bind(tape, self.b);
        let xw = tape.matmul(x, w);
        tape.add_row_broadcast(xw, b)
    }

    /// Arena counterpart of [`Linear::forward`]: `x·W` then the in-place
    /// bias broadcast — the same two evaluation steps, bit-identical.
    pub fn forward_soa(&self, arena: &mut Arena, store: &ParamStore, x: MatId) -> MatId {
        let xw = arena.matmul(x, store.get(self.w));
        arena.add_bias(xw, store.get(self.b));
        xw
    }
}

/// Activation functions available to [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Exponential linear unit (the paper's choice).
    Elu,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No activation.
    Identity,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Elu => tape.elu(x, 1.0),
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Identity => x,
        }
    }

    /// In-place arena counterpart of [`Activation::apply`]; each arm is
    /// the exact scalar expression its tape op evaluates.
    pub fn apply_soa(self, arena: &mut Arena, x: MatId) {
        match self {
            Activation::Elu => arena.apply(x, |v| if v > 0.0 { v } else { math::exp(v) - 1.0 }),
            Activation::Relu => arena.apply(x, |v| v.max(0.0)),
            Activation::Tanh => arena.apply(x, math::tanh),
            Activation::Identity => {}
        }
    }
}

/// A multilayer perceptron with a shared activation and dropout after each
/// hidden layer, mirroring the paper's "succession of the activation
/// function and the dropout layer ... applied to all the neural networks of
/// this model" (appendix A.1).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    dropout: f32,
    /// Apply activation+dropout after the final layer too?
    activate_last: bool,
}

impl Mlp {
    /// Registers an MLP with the given layer widths, e.g. `[1235, 600, 350,
    /// 200, 180]` creates four linear layers.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        widths: &[usize],
        activation: Activation,
        dropout: f32,
        activate_last: bool,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Self {
            layers,
            activation,
            dropout,
            activate_last,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Applies the MLP to a `batch x in_dim` input.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var, rng: &mut impl Rng) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, store, h);
            if i < last || self.activate_last {
                h = self.activation.apply(tape, h);
                if self.dropout > 0.0 {
                    h = tape.dropout(h, self.dropout, rng);
                }
            }
        }
        h
    }

    /// Inference-mode arena counterpart of [`Mlp::forward`]: the same
    /// layer/activation cadence, with dropout omitted outright — on an
    /// inference tape (`Tape::new`) dropout is an identity that consumes
    /// no randomness, so skipping it changes nothing.
    pub fn infer_soa(&self, arena: &mut Arena, store: &ParamStore, x: MatId) -> MatId {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward_soa(arena, store, h);
            if i < last || self.activate_last {
                self.activation.apply_soa(arena, h);
            }
        }
        h
    }
}

/// A standard four-gate LSTM cell (Hochreiter & Schmidhuber, 1997), the
/// recurrent unit of the paper's loop embedding layer.
///
/// Gates: `i = σ(xWi + hUi + bi)`, `f = σ(xWf + hUf + bf)`,
/// `g = tanh(xWg + hUg + bg)`, `o = σ(xWo + hUo + bo)`;
/// `c' = f⊙c + i⊙g`, `h' = o⊙tanh(c')`.
#[derive(Debug, Clone)]
pub struct LstmCell {
    wx: [ParamId; 4],
    wh: [ParamId; 4],
    b: [ParamId; 4],
    input_dim: usize,
    hidden_dim: usize,
}

/// Hidden and cell state of an [`LstmCell`] on a tape.
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    /// Hidden state, `rows x hidden_dim` (one row per batched sequence).
    pub h: Var,
    /// Cell state, `rows x hidden_dim`.
    pub c: Var,
}

impl LstmCell {
    /// Registers an LSTM cell in `store`. The forget-gate bias is
    /// initialized to 1.0, a standard trick for gradient flow.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let gates = ["i", "f", "g", "o"];
        let mut wx = Vec::with_capacity(4);
        let mut wh = Vec::with_capacity(4);
        let mut b = Vec::with_capacity(4);
        for g in gates {
            wx.push(store.register(
                format!("{name}.wx_{g}"),
                glorot_uniform(input_dim, hidden_dim, rng),
            ));
            wh.push(store.register(
                format!("{name}.wh_{g}"),
                glorot_uniform(hidden_dim, hidden_dim, rng),
            ));
            let bias = if g == "f" {
                Tensor::ones(1, hidden_dim)
            } else {
                Tensor::zeros(1, hidden_dim)
            };
            b.push(store.register(format!("{name}.b_{g}"), bias));
        }
        Self {
            wx: [wx[0], wx[1], wx[2], wx[3]],
            wh: [wh[0], wh[1], wh[2], wh[3]],
            b: [b[0], b[1], b[2], b[3]],
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Zero initial state for a batch of `rows` sequences (constants: no
    /// gradient flows into the initial state).
    pub fn zero_state(&self, tape: &mut Tape, rows: usize) -> LstmState {
        LstmState {
            h: tape.constant(Tensor::zeros(rows, self.hidden_dim)),
            c: tape.constant(Tensor::zeros(rows, self.hidden_dim)),
        }
    }

    fn gate(&self, tape: &mut Tape, store: &ParamStore, idx: usize, x: Var, h: Var) -> Var {
        let wx = store.bind(tape, self.wx[idx]);
        let wh = store.bind(tape, self.wh[idx]);
        let b = store.bind(tape, self.b[idx]);
        let xw = tape.matmul(x, wx);
        let hw = tape.matmul(h, wh);
        let s = tape.add(xw, hw);
        tape.add_row_broadcast(s, b)
    }

    /// Performs one step, consuming input `x` (`rows x input_dim`).
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, state: LstmState) -> LstmState {
        let i_pre = self.gate(tape, store, 0, x, state.h);
        let f_pre = self.gate(tape, store, 1, x, state.h);
        let g_pre = self.gate(tape, store, 2, x, state.h);
        let o_pre = self.gate(tape, store, 3, x, state.h);
        let i = tape.sigmoid(i_pre);
        let f = tape.sigmoid(f_pre);
        let g = tape.tanh(g_pre);
        let o = tape.sigmoid(o_pre);
        let fc = tape.mul(f, state.c);
        let ig = tape.mul(i, g);
        let c = tape.add(fc, ig);
        let tc = tape.tanh(c);
        let h = tape.mul(o, tc);
        LstmState { h, c }
    }

    /// Runs the cell over a sequence of `rows x input_dim` vars, returning
    /// the final state (zero state if the sequence is empty). `rows` is
    /// the batch size shared by every step.
    pub fn run(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        inputs: &[Var],
        rows: usize,
    ) -> LstmState {
        let mut state = self.zero_state(tape, rows);
        for &x in inputs {
            state = self.step(tape, store, x, state);
        }
        state
    }

    /// One gate preactivation on the arena: `(x·Wx + h·Wh) + b`, the
    /// association [`LstmCell::step`] produces (`add` of the two
    /// products, then the bias broadcast).
    fn gate_soa(
        &self,
        arena: &mut Arena,
        store: &ParamStore,
        idx: usize,
        x: MatId,
        h: MatId,
    ) -> MatId {
        let xw = arena.matmul(x, store.get(self.wx[idx]));
        let hw = arena.matmul(h, store.get(self.wh[idx]));
        arena.add_assign(xw, hw);
        arena.add_bias(xw, store.get(self.b[idx]));
        xw
    }

    /// Arena counterpart of [`LstmCell::step`]: returns the new `(h, c)`.
    fn step_soa(
        &self,
        arena: &mut Arena,
        store: &ParamStore,
        x: MatId,
        (h, c): (MatId, MatId),
    ) -> (MatId, MatId) {
        let i = self.gate_soa(arena, store, 0, x, h);
        let f = self.gate_soa(arena, store, 1, x, h);
        let g = self.gate_soa(arena, store, 2, x, h);
        let o = self.gate_soa(arena, store, 3, x, h);
        arena.apply(i, math::sigmoid);
        arena.apply(f, math::sigmoid);
        arena.apply(g, math::tanh);
        arena.apply(o, math::sigmoid);
        let c = arena.lstm_cell_state(f, c, i, g);
        (arena.lstm_hidden(o, c), c)
    }

    /// [`LstmCell::step_soa`] from the zero state, computing only what
    /// zero does not annihilate. Bit for bit what the general step
    /// yields on explicit zero `h` and `c`, term by term — unless the
    /// forget gate alone is NaN (non-finite forget weights, or an
    /// overflow in that one product), which the general step spreads
    /// into `c` through `NaN * 0.0` and this one never computes:
    ///
    /// - `h·Wh` is all `+0.0` (the kernel skips every zero of `h`), and
    ///   `x·Wx`, a sum that starts from `+0.0`, is never `-0.0`; so
    ///   `(x·Wx + h·Wh) + b` is `x·Wx + b` and the four `h·Wh` products
    ///   are dropped.
    /// - `f ⊙ c` is all `+0.0` (a sigmoid is never negative), so the
    ///   forget gate — product, bias and sigmoids — is dropped and
    ///   `c' = (f ⊙ c) + (i ⊙ g)` becomes `0.0 + (i ⊙ g)`; the `0.0 +`
    ///   stays because it turns a `-0.0` product into `+0.0`.
    fn first_step_soa(&self, arena: &mut Arena, store: &ParamStore, x: MatId) -> (MatId, MatId) {
        let mut gate = |idx: usize| {
            let xw = arena.matmul(x, store.get(self.wx[idx]));
            arena.add_bias(xw, store.get(self.b[idx]));
            xw
        };
        let (i, g, o) = (gate(0), gate(2), gate(3));
        arena.apply(i, math::sigmoid);
        arena.apply(g, math::tanh);
        arena.apply(o, math::sigmoid);
        arena.lstm_cell_state_from_zero(i, g);
        (arena.lstm_hidden(o, i), i)
    }

    /// Arena counterpart of [`LstmCell::run`] (inference): returns the
    /// final hidden state, a zeroed `rows x hidden_dim` matrix for an
    /// empty sequence — exactly what the tape's zero initial state
    /// yields. The tape stays the general step throughout (it is the
    /// training graph and the reference this is tested against); here
    /// the first step is `first_step_soa`, which in the
    /// chain-shaped nests searches score is nearly every step there is.
    pub fn run_soa(
        &self,
        arena: &mut Arena,
        store: &ParamStore,
        inputs: &[MatId],
        rows: usize,
    ) -> MatId {
        let Some((&first, rest)) = inputs.split_first() else {
            return arena.alloc(rows, self.hidden_dim);
        };
        let mut state = self.first_step_soa(arena, store, first);
        for &x in rest {
            state = self.step_soa(arena, store, x, state);
        }
        state.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 2, 3, &mut rng);
        *store.get_mut(lin.w) = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        *store.get_mut(lin.b) = Tensor::row(vec![0.1, 0.2, 0.3]);

        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_rows(&[&[1.0, 1.0]]));
        let y = lin.forward(&mut tape, &store, x);
        let got = tape.value(y).as_slice().to_vec();
        assert_eq!(got, vec![5.1, 7.2, 9.3]);
    }

    #[test]
    fn mlp_shapes_and_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[8, 16, 4],
            Activation::Elu,
            0.0,
            true,
            &mut rng,
        );
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 4);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(3, 8));
        let y = mlp.forward(&mut tape, &store, x, &mut rng);
        assert_eq!(tape.value(y).shape(), (3, 4));
    }

    #[test]
    fn lstm_state_shape_and_determinism() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 4, 6, &mut rng);
        let xs: Vec<Tensor> = (0..3)
            .map(|i| Tensor::row(vec![i as f32, 1.0, -1.0, 0.5]))
            .collect();

        let run = |store: &ParamStore| {
            let mut tape = Tape::new();
            let vars: Vec<Var> = xs.iter().map(|x| tape.leaf(x.clone())).collect();
            let st = cell.run(&mut tape, store, &vars, 1);
            tape.value(st.h).clone()
        };
        let h1 = run(&store);
        let h2 = run(&store);
        assert_eq!(h1.shape(), (1, 6));
        assert_eq!(h1, h2, "LSTM forward must be deterministic");
    }

    #[test]
    fn lstm_empty_sequence_gives_zero_state() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 4, 6, &mut rng);
        let mut tape = Tape::new();
        let st = cell.run(&mut tape, &store, &[], 1);
        assert_eq!(tape.value(st.h).sum(), 0.0);
    }

    /// Copies `t` into a fresh arena matrix.
    fn arena_mat(arena: &mut Arena, t: &Tensor) -> MatId {
        let id = arena.alloc(t.rows(), t.cols());
        arena.data_mut(id).copy_from_slice(t.as_slice());
        id
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// LSTM inputs that reach the corners of the cell: ordinary values,
    /// zeros of both signs (the kernel's skip), and magnitudes that
    /// saturate the gates — a sigmoid of exactly `0.0` or `1.0`, a tanh
    /// of exactly `±1.0` — so `i ⊙ g` comes out `-0.0` somewhere.
    fn lstm_inputs(rng: &mut ChaCha8Rng, steps: usize, rows: usize, dim: usize) -> Vec<Tensor> {
        (0..steps)
            .map(|_| {
                let data = (0..rows * dim)
                    .map(|_| match rng.gen_range(0..6) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => rng.gen_range(-400.0f32..400.0),
                        _ => rng.gen_range(-2.0f32..2.0),
                    })
                    .collect();
                Tensor::from_vec(rows, dim, data)
            })
            .collect()
    }

    #[test]
    fn lstm_run_soa_is_bit_identical_to_the_tape_run() {
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 5, 7, &mut rng);
        let mut arena = Arena::new();
        for steps in 0..=3 {
            for rows in 1..=3 {
                for _ in 0..8 {
                    let xs = lstm_inputs(&mut rng, steps, rows, 5);
                    let mut tape = Tape::new();
                    let vars: Vec<Var> = xs.iter().map(|x| tape.constant(x.clone())).collect();
                    let want = cell.run(&mut tape, &store, &vars, rows);

                    arena.reset();
                    let mats: Vec<MatId> = xs.iter().map(|x| arena_mat(&mut arena, x)).collect();
                    let got = cell.run_soa(&mut arena, &store, &mats, rows);
                    assert_eq!(
                        bits(arena.data(got)),
                        bits(tape.value(want.h).as_slice()),
                        "{steps} steps x {rows} rows"
                    );
                }
            }
        }
    }

    #[test]
    fn lstm_first_step_matches_the_general_step_from_explicit_zeros() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 5, 7, &mut rng);
        let mut arena = Arena::new();
        for rows in 1..=3 {
            for _ in 0..16 {
                let x = &lstm_inputs(&mut rng, 1, rows, 5)[0];
                arena.reset();
                let x = arena_mat(&mut arena, x);
                let zeros = (arena.alloc(rows, 7), arena.alloc(rows, 7));
                let (want_h, want_c) = cell.step_soa(&mut arena, &store, x, zeros);
                let (got_h, got_c) = cell.first_step_soa(&mut arena, &store, x);
                assert_eq!(bits(arena.data(got_h)), bits(arena.data(want_h)));
                assert_eq!(bits(arena.data(got_c)), bits(arena.data(want_c)));
            }
        }
    }

    #[test]
    fn lstm_gradients_flow_to_all_params() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 3, 5, &mut rng);
        let mut tape = Tape::new();
        let x1 = tape.leaf(Tensor::row(vec![1.0, -0.5, 0.25]));
        let x2 = tape.leaf(Tensor::row(vec![0.5, 0.5, -1.0]));
        let st = cell.run(&mut tape, &store, &[x1, x2], 1);
        let s = tape.sum(st.h);
        let grads = tape.backward(s);
        // Parameters are re-bound at every step, so the same ParamId can
        // appear several times; count distinct ids.
        let ids: std::collections::HashSet<_> = grads.params().map(|(id, _)| id).collect();
        assert_eq!(
            ids.len(),
            store.len(),
            "every LSTM parameter should get a gradient"
        );
    }
}
