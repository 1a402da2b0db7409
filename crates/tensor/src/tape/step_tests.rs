//! The two-lane training step against the sequential step it replaced,
//! bit for bit, and the two lanes under panics.
//!
//! The reference is the step as it was before it had two lanes: one walk
//! of the tape that computes each product where it meets it and sums
//! every node's contributions in its slot; a per-parameter sum of the
//! binds' gradients in node order (what the gradient accumulator of that
//! step did, with its sample count of one); and the single-pass AdamW
//! update, multiplying by the mean scale `1 / 1` it carried.

use std::panic::{self, AssertUnwindSafe};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{Op, ParamId, Tape, Var};
use crate::nn::ParamStore;
use crate::optim::{AdamW, AdamWConfig, OneCycleLr};
use crate::pool;
use crate::tensor::Tensor;

/// Every node's gradient from one sequential walk, as `backward` was
/// before it had two lanes. Covers the ops the battery's graphs use.
fn reference_backward(tape: &Tape, target: Var) -> Vec<Option<Tensor>> {
    let mut grads: Vec<Option<Tensor>> = vec![None; tape.nodes.len()];
    grads[target.0] = Some(Tensor::ones(1, 1));
    for idx in (0..=target.0).rev() {
        let Some(g) = grads[idx].take() else {
            continue;
        };
        let needs_grad = |v: Var| tape.nodes[v.0].needs_grad;
        let mut add = |v: Var, contrib: Tensor| {
            if !needs_grad(v) {
                return;
            }
            match &mut grads[v.0] {
                Some(existing) => existing.add_scaled(&contrib, 1.0),
                slot => *slot = Some(contrib),
            }
        };
        let out = &tape.nodes[idx].value;
        match &tape.nodes[idx].op {
            Op::Leaf => {}
            Op::Matmul(a, b) => {
                if needs_grad(*a) {
                    add(*a, g.matmul(&tape.value(*b).transpose()));
                }
                if needs_grad(*b) {
                    add(*b, tape.value(*a).t_matmul(&g));
                }
            }
            Op::Add(a, b) => {
                add(*a, g.clone());
                add(*b, g.clone());
            }
            Op::Mul(a, b) => {
                add(*a, g.zip_map(tape.value(*b), |gv, bv| gv * bv));
                add(*b, g.zip_map(tape.value(*a), |gv, av| gv * av));
            }
            Op::AddRowBroadcast(a, bias) => {
                add(*a, g.clone());
                add(*bias, g.col_sum());
            }
            Op::Scale(a, s) => add(*a, g.map(|x| x * s)),
            Op::Sigmoid(a) => add(*a, g.zip_map(out, |gv, s| gv * s * (1.0 - s))),
            Op::Tanh(a) => add(*a, g.zip_map(out, |gv, t| gv * (1.0 - t * t))),
            Op::Elu(a, alpha) => {
                let alpha = *alpha;
                add(
                    *a,
                    g.zip_map(out, |gv, o| if o > 0.0 { gv } else { gv * (o + alpha) }),
                );
            }
            Op::Exp(a) => add(*a, g.zip_map(out, |gv, o| gv * o)),
            Op::Mean(a) => {
                let (m, n) = tape.value(*a).shape();
                add(*a, Tensor::full(m, n, g.item() / (m * n) as f32));
            }
            Op::Sum(a) => {
                let (m, n) = tape.value(*a).shape();
                add(*a, Tensor::full(m, n, g.item()));
            }
            op => unreachable!("{op:?} is not in the battery's graphs"),
        }
        grads[idx] = Some(g);
    }
    grads
}

/// `(parameter, gradient)` of every bind that has one, in node order.
fn bind_gradients(tape: &Tape, grads: &[Option<Tensor>]) -> Vec<(ParamId, Tensor)> {
    let binds = tape.nodes.iter().zip(grads);
    binds
        .filter_map(|(node, g)| Some((node.param?, g.clone()?)))
        .collect()
}

/// The sequential optimizer: binds summed into one gradient per
/// parameter, then the single-pass AdamW update.
struct ReferenceAdamW {
    cfg: AdamWConfig,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

impl ReferenceAdamW {
    fn new(store: &ParamStore, cfg: AdamWConfig) -> Self {
        let zeros = || -> Vec<Tensor> {
            let shapes = store.iter().map(|(_, t)| t.shape());
            shapes.map(|(r, c)| Tensor::zeros(r, c)).collect()
        };
        Self {
            cfg,
            m: zeros(),
            v: zeros(),
            t: 0,
        }
    }

    /// One step; returns whether the clip engaged.
    fn step(&mut self, store: &mut ParamStore, binds: &[(ParamId, Tensor)], lr: f32) -> bool {
        let mut sums: Vec<Option<Tensor>> = vec![None; store.len()];
        for (id, g) in binds {
            match &mut sums[id.0] {
                Some(sum) => sum.add_scaled(g, 1.0),
                slot => *slot = Some(g.clone()),
            }
        }
        let count = 1;
        let scale = 1.0 / count as f32;
        self.t += 1;
        let t = self.t as i32;
        let c = self.cfg;
        let max = c.grad_clip.expect("the battery runs with the clip on");
        let norm = sums
            .iter()
            .flatten()
            .map(|g| {
                let n = g.norm() * scale;
                n * n
            })
            .sum::<f32>()
            .sqrt();
        let clip_scale = if norm > max && norm > 0.0 {
            max / norm
        } else {
            1.0
        };
        let bias1 = 1.0 - c.beta1.powi(t);
        let bias2 = 1.0 - c.beta2.powi(t);
        for (i, (m, v)) in self.m.iter_mut().zip(&mut self.v).enumerate() {
            let Some(g) = &sums[i] else {
                continue;
            };
            let p = store.get_mut(ParamId(i)).as_mut_slice();
            let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            for ((pv, (mv, vv)), &gsum) in p.iter_mut().zip(moments).zip(g.as_slice()) {
                let gv = gsum * scale * clip_scale;
                *mv = c.beta1 * *mv + (1.0 - c.beta1) * gv;
                *vv = c.beta2 * *vv + (1.0 - c.beta2) * gv * gv;
                let mhat = *mv / bias1;
                let vhat = *vv / bias2;
                *pv -= lr * (mhat / (vhat.sqrt() + c.eps) + c.weight_decay * *pv);
            }
        }
        clip_scale != 1.0
    }
}

const IN: usize = 9;
const HIDDEN: usize = 6;

/// The parameters the random graphs bind.
struct Net {
    w_in: ParamId,
    b: ParamId,
    /// Square: bound one to four times a graph, sometimes on both sides
    /// of one product and the right of another.
    w_sq: ParamId,
    /// `1 x HIDDEN`: one bind is a product's right operand and a bias.
    u: ParamId,
    /// `1 x HIDDEN`: one bind on both sides of a `mul`.
    v: ParamId,
    /// Bound on odd steps only, so it has no gradient on even ones.
    spare: ParamId,
    w_out: ParamId,
}

/// Values in `±scale` with zeros of both signs mixed in.
fn random(rng: &mut ChaCha8Rng, rows: usize, cols: usize, scale: f32) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-scale..scale),
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

impl Net {
    fn new(store: &mut ParamStore, rng: &mut ChaCha8Rng) -> Self {
        let mut reg = |name: &str, rows, cols| store.register(name, random(rng, rows, cols, 0.8));
        Self {
            w_in: reg("w_in", IN, HIDDEN),
            b: reg("b", 1, HIDDEN),
            w_sq: reg("w_sq", HIDDEN, HIDDEN),
            u: reg("u", 1, HIDDEN),
            v: reg("v", 1, HIDDEN),
            spare: reg("spare", HIDDEN, HIDDEN),
            w_out: reg("w_out", HIDDEN, 1),
        }
    }

    /// Step `step`'s graph over `store`'s weights: its shape and data are
    /// drawn from `step` alone, so two stores with the same weights get
    /// the same graph.
    fn graph(&self, store: &ParamStore, step: u64) -> (Tape, Var) {
        let mut rng = ChaCha8Rng::seed_from_u64(1_000 + step);
        let mut tape = Tape::new();
        let activate = |tape: &mut Tape, rng: &mut ChaCha8Rng, x: Var| match rng.gen_range(0..3) {
            0 => tape.sigmoid(x),
            1 => tape.tanh(x),
            _ => tape.elu(x, 1.0),
        };
        let rows = rng.gen_range(1..=4);
        let x = tape.constant(random(&mut rng, rows, IN, 2.0));
        let w_in = store.bind(&mut tape, self.w_in);
        let mut h = tape.matmul(x, w_in);
        let b = store.bind(&mut tape, self.b);
        h = tape.add_row_broadcast(h, b);
        h = activate(&mut tape, &mut rng, h);
        for _ in 0..rng.gen_range(1..=4) {
            let w = store.bind(&mut tape, self.w_sq);
            h = if rng.gen_bool(0.3) {
                // Three contributions to one bind: a product, then both
                // sides of `w·w`.
                let ww = tape.matmul(w, w);
                let hww = tape.matmul(h, ww);
                let hw = tape.matmul(h, w);
                tape.add(hww, hw)
            } else {
                tape.matmul(h, w)
            };
            if rng.gen_bool(0.5) {
                let b = store.bind(&mut tape, self.b);
                h = tape.add_row_broadcast(h, b);
            }
            h = activate(&mut tape, &mut rng, h);
        }
        // One bind of `u` takes both a product and a bias `col_sum`, in
        // either order along the chain.
        let u = store.bind(&mut tape, self.u);
        let c = tape.constant(random(&mut rng, rows, 1, 1.0));
        h = if rng.gen_bool(0.5) {
            let cu = tape.matmul(c, u);
            let hu = tape.add_row_broadcast(h, u);
            tape.add(hu, cu)
        } else {
            let hu = tape.add_row_broadcast(h, u);
            let cu = tape.matmul(c, u);
            tape.add(hu, cu)
        };
        let v = store.bind(&mut tape, self.v);
        let vv = tape.mul(v, v);
        h = tape.add_row_broadcast(h, vv);
        // A branch of constants only: no gradient flows into it.
        let k = tape.constant(random(&mut rng, rows, HIDDEN, 1.0));
        let k = tape.exp(k);
        let kc = tape.constant(random(&mut rng, HIDDEN, HIDDEN, 1.0));
        let k = tape.matmul(k, kc);
        let k = tape.tanh(k);
        h = tape.add(h, k);
        if step % 2 == 1 {
            let spare = store.bind(&mut tape, self.spare);
            h = tape.matmul(h, spare);
        }
        let w_out = store.bind(&mut tape, self.w_out);
        let y = tape.matmul(h, w_out);
        let sq = tape.mul(y, y);
        let loss = tape.mean(sq);
        // Large on every third step, so the clip engages on some steps
        // and not on others.
        let magnitude = if step % 3 == 0 { 30.0 } else { 0.3 };
        let loss = tape.scale(loss, magnitude);
        (tape, loss)
    }
}

fn bits<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> Vec<u32> {
    tensors
        .into_iter()
        .flat_map(|t| t.as_slice().iter().map(|x| x.to_bits()))
        .collect()
}

#[test]
fn two_lane_step_is_bit_identical_to_the_sequential_step() {
    for lanes in [2, 1] {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let mut store = ParamStore::new();
        let net = Net::new(&mut store, &mut rng);
        let mut reference_store = store.clone();
        let cfg = AdamWConfig::default();
        let mut opt = AdamW::new(&store, cfg);
        let mut reference = ReferenceAdamW::new(&store, cfg);
        let sched = OneCycleLr::new(1e-2, 50);
        let mut clipped = 0;
        for step in 0..50 {
            let (tape, loss) = net.graph(&store, step);
            let grads = tape.backward_on(loss, lanes);
            let (tape, loss) = net.graph(&reference_store, step);
            let binds = bind_gradients(&tape, &reference_backward(&tape, loss));
            drop(tape);
            let got: Vec<(ParamId, Vec<u32>)> =
                grads.params().map(|(id, g)| (id, bits([g]))).collect();
            let want: Vec<(ParamId, Vec<u32>)> =
                binds.iter().map(|(id, g)| (*id, bits([g]))).collect();
            assert_eq!(got, want, "bind gradients at step {step}, {lanes} lane(s)");

            let lr = sched.lr_at(step as usize);
            opt.step_on(&mut store, &grads, lr, lanes);
            clipped += usize::from(reference.step(&mut reference_store, &binds, lr));
            let (m, v) = opt.moments();
            let weights = store.iter().map(|(_, t)| t);
            let reference_weights = reference_store.iter().map(|(_, t)| t);
            assert_eq!(
                bits(weights.chain(m).chain(v)),
                bits(reference_weights.chain(&reference.m).chain(&reference.v)),
                "weights or moments diverged at step {step}, {lanes} lane(s)"
            );
        }
        assert!(
            clipped > 0 && clipped < 50,
            "{clipped} of 50 steps over the clip"
        );
    }
}

/// A graph whose chain panics after it has handed over a product, while
/// a helper that has joined is computing it or waiting for the next.
fn chain_panics() -> (Tape, Var) {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::ones(2, 3));
    let w = tape.param(ParamId(0), Tensor::ones(3, 2));
    // Recorded with a value the wrong shape for its operands: the
    // chain's `g·Wᵀ` is `1x1 · 2x3`.
    let bad = tape.push(Tensor::zeros(1, 1), Op::Matmul(x, w));
    let c = tape.constant(Tensor::ones(2, 3));
    let w2 = tape.param(ParamId(1), Tensor::ones(3, 2));
    let y = tape.matmul(c, w2);
    let sy = tape.sum(y);
    let sb = tape.sum(bad);
    let loss = tape.add(sy, sb);
    (tape, loss)
}

/// A graph with one product that panics, handed over first or last among
/// good ones: the helper, claiming from the front, and the caller,
/// claiming from the back once the chain is done, each tend to be the
/// lane that meets it.
fn product_panics(bad_first: bool) -> (Tape, Var) {
    let mut tape = Tape::new();
    let mut terms = Vec::new();
    let good = |tape: &mut Tape, terms: &mut Vec<Var>| {
        for _ in 0..8 {
            let c = tape.constant(Tensor::ones(4, 3));
            let w = tape.param(ParamId(1), Tensor::ones(3, 2));
            let y = tape.matmul(c, w);
            terms.push(tape.sum(y));
        }
    };
    if !bad_first {
        good(&mut tape, &mut terms);
    }
    // `Cᵀ·g` is `3x2 · 1x1`.
    let c = tape.constant(Tensor::ones(2, 3));
    let w = tape.param(ParamId(0), Tensor::ones(3, 2));
    let bad = tape.push(Tensor::zeros(1, 1), Op::Matmul(c, w));
    terms.push(tape.sum(bad));
    if bad_first {
        good(&mut tape, &mut terms);
    }
    let loss = terms[1..].iter().fold(terms[0], |acc, &t| tape.add(acc, t));
    (tape, loss)
}

/// Backward over a well-formed graph still works, on both lanes, and the
/// pool still answers.
fn assert_usable(lanes: usize) {
    let mut tape = Tape::new();
    let x = tape.constant(Tensor::ones(2, 3));
    let w = tape.param(ParamId(0), Tensor::ones(3, 2));
    let y = tape.matmul(x, w);
    let s = tape.sum(y);
    let grads = tape.backward_on(s, lanes);
    assert_eq!(grads.get(w).unwrap(), &Tensor::full(3, 2, 2.0));
    assert_eq!(pool::parallel_map(2, 16, |i| i * 2)[15], 30);
}

#[test]
fn a_panic_in_either_lane_reaches_the_caller_and_the_pool_stays_usable() {
    let message = |payload: Box<dyn std::any::Any + Send>| match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
    };
    for lanes in [2, 1] {
        for round in 0..20 {
            let (tape, loss) = chain_panics();
            let err = panic::catch_unwind(AssertUnwindSafe(|| tape.backward_on(loss, lanes)))
                .expect_err("the chain's panic must reach the caller");
            assert!(message(err).contains(" matmul shape mismatch: (1, 1) x (2, 3)"));
            assert_usable(lanes);

            let (tape, loss) = product_panics(round % 2 == 0);
            let err = panic::catch_unwind(AssertUnwindSafe(|| tape.backward_on(loss, lanes)))
                .expect_err("a product's panic must reach the caller");
            assert!(message(err).contains("t_matmul shape mismatch: (2, 3)ᵀ x (1, 1)"));
            assert_usable(lanes);
        }
    }
}
