//! Optimizers and learning-rate schedules.
//!
//! The paper trains with AdamW (decoupled weight decay, coefficient 0.0075)
//! under the One-Cycle learning-rate policy (max LR 1e-3); both are
//! implemented here from their original formulations.

use std::sync::Mutex;

use crate::nn::ParamStore;
use crate::pool;
use crate::tape::{Gradients, LANES};
use crate::tensor::Tensor;

/// Elements per work item of the element-wise update: small enough that
/// two lanes split a step evenly, large enough that claiming one costs
/// nothing next to updating it.
const UPDATE_CHUNK: usize = 4096;

/// Configuration for [`AdamW`].
#[derive(Debug, Clone, Copy)]
pub struct AdamWConfig {
    /// Base learning rate (may be overridden per-step by a schedule).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight-decay coefficient (paper: 0.0075).
    pub weight_decay: f32,
    /// Optional global-norm gradient clipping.
    pub grad_clip: Option<f32>,
}

impl Default for AdamWConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0075,
            grad_clip: Some(5.0),
        }
    }
}

/// AdamW optimizer (Loshchilov & Hutter, 2017): Adam moments plus weight
/// decay applied directly to the weights rather than through the gradient.
#[derive(Debug)]
pub struct AdamW {
    cfg: AdamWConfig,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
    /// Per parameter, during a step: the sum of its binds' gradients and
    /// the sum's norm (`None` without a gradient). Kept between steps,
    /// empty, so a step allocates no bookkeeping.
    sums: Vec<Option<(Tensor, f32)>>,
}

impl AdamW {
    /// Creates optimizer state shaped after `store`.
    pub fn new(store: &ParamStore, cfg: AdamWConfig) -> Self {
        let m = store
            .iter()
            .map(|(_, t)| Tensor::zeros(t.rows(), t.cols()))
            .collect();
        let v = store
            .iter()
            .map(|(_, t)| Tensor::zeros(t.rows(), t.cols()))
            .collect();
        Self {
            cfg,
            m,
            v,
            t: 0,
            sums: vec![None; store.len()],
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Configuration in use.
    pub fn config(&self) -> AdamWConfig {
        self.cfg
    }

    /// First and second moments, in `ParamId` order.
    #[cfg(test)]
    pub(crate) fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }

    /// Applies one update from the gradients of one backward pass, at
    /// learning rate `lr` (pass `self.config().lr` when no schedule is
    /// active). A parameter bound several times gets the sum of its binds'
    /// gradients; one without a gradient is left as it is, moments
    /// included. Drop the tape first: while it shares the weight
    /// buffers, the update writes to copies of them.
    ///
    /// The step runs on two lanes, the caller and a pool helper, and is
    /// the same bits whichever lane does what: each parameter's binds
    /// are summed in the order they were recorded, the squared norms of
    /// those sums in [`crate::ParamId`] order, and every weight is updated
    /// from its own element alone.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients, lr: f32) {
        self.step_on(store, grads, lr, LANES);
    }

    /// [`AdamW::step`] with up to `lanes` threads.
    pub(crate) fn step_on(
        &mut self,
        store: &mut ParamStore,
        grads: &Gradients,
        lr: f32,
        lanes: usize,
    ) {
        self.t += 1;
        let t = self.t as i32;
        let c = self.cfg;
        // One parameter per work item, claimed by whichever lane is free:
        // its binds' gradients summed in the order they were recorded,
        // and the norm of the sum when the clip needs it.
        let work = Mutex::new(self.sums.iter_mut().enumerate());
        pool::parallel_map(lanes, lanes, |_| loop {
            let Some((i, slot)) = lock(&work).next() else {
                break;
            };
            let mut binds = grads.params().filter(|(id, _)| id.0 == i);
            *slot = binds.next().map(|(_, first)| {
                let mut sum = first.clone();
                for (_, g) in binds {
                    sum.add_scaled(g, 1.0);
                }
                let norm = c.grad_clip.map_or(0.0, |_| sum.norm());
                (sum, norm)
            });
        });
        let clip_scale = match c.grad_clip {
            Some(max) => {
                let norm = self
                    .sums
                    .iter()
                    .flatten()
                    .map(|(_, n)| n * n)
                    .sum::<f32>()
                    .sqrt();
                if norm > max && norm > 0.0 {
                    max / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let bias1 = 1.0 - c.beta1.powi(t);
        let bias2 = 1.0 - c.beta2.powi(t);

        // The element-wise update, range-split: every parameter's
        // (weight, moments, summed gradient) cut into `UPDATE_CHUNK`
        // pieces that either lane may take, one at a time.
        let params = store.tensors_mut().zip(&mut self.m).zip(&mut self.v);
        let pieces = params
            .zip(&self.sums)
            .enumerate()
            .filter_map(|(i, (pmv, sum))| Some((i, pmv, &sum.as_ref()?.0)))
            .flat_map(|(i, ((p, m), v), g)| {
                assert_eq!(
                    p.len(),
                    g.len(),
                    "gradient shape mismatch for parameter {i}"
                );
                p.as_mut_slice()
                    .chunks_mut(UPDATE_CHUNK)
                    .zip(m.as_mut_slice().chunks_mut(UPDATE_CHUNK))
                    .zip(v.as_mut_slice().chunks_mut(UPDATE_CHUNK))
                    .zip(g.as_slice().chunks(UPDATE_CHUNK))
            });
        let pieces = Mutex::new(pieces);
        pool::parallel_map(lanes, lanes, |_| loop {
            let Some((((p, m), v), g)) = lock(&pieces).next() else {
                break;
            };
            let moments = m.iter_mut().zip(v.iter_mut());
            for ((pv, (mv, vv)), &gsum) in p.iter_mut().zip(moments).zip(g.iter()) {
                // The clip is its own rounding (`x * 1.0` is exact, so an
                // inactive clip changes nothing).
                let gv = gsum * clip_scale;
                // m = b1*m + (1-b1)*g ; v = b2*v + (1-b2)*g^2
                *mv = c.beta1 * *mv + (1.0 - c.beta1) * gv;
                *vv = c.beta2 * *vv + (1.0 - c.beta2) * gv * gv;
                let mhat = *mv / bias1;
                let vhat = *vv / bias2;
                // Decoupled weight decay.
                *pv -= lr * (mhat / (vhat.sqrt() + c.eps) + c.weight_decay * *pv);
            }
        });
        self.sums.fill(None);
    }
}

/// Locks a work list shared by the lanes of a step. Nothing panics while
/// holding it, so a poisoned list is still a consistent one.
fn lock<T>(work: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    work.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One-Cycle learning-rate policy (Smith & Topin, 2017): linear warm-up to
/// `max_lr` over the first `pct_start` of training, then cosine annealing
/// down to `max_lr / final_div`.
#[derive(Debug, Clone, Copy)]
pub struct OneCycleLr {
    /// Peak learning rate (paper: 1e-3).
    pub max_lr: f32,
    /// Total number of optimizer steps in the schedule.
    pub total_steps: usize,
    /// Fraction of steps spent warming up.
    pub pct_start: f32,
    /// `initial lr = max_lr / div`.
    pub div: f32,
    /// `final lr = max_lr / final_div`.
    pub final_div: f32,
}

impl OneCycleLr {
    /// Standard schedule used by the paper's training run.
    pub fn new(max_lr: f32, total_steps: usize) -> Self {
        Self {
            max_lr,
            total_steps: total_steps.max(1),
            pct_start: 0.3,
            div: 25.0,
            final_div: 1e4,
        }
    }

    /// Learning rate at optimizer step `step` (0-based).
    pub fn lr_at(&self, step: usize) -> f32 {
        let step = step.min(self.total_steps - 1) as f32;
        let total = self.total_steps as f32;
        let warm = (total * self.pct_start).max(1.0);
        let lr0 = self.max_lr / self.div;
        let lr_end = self.max_lr / self.final_div;
        if step < warm {
            // Linear warm-up.
            lr0 + (self.max_lr - lr0) * (step / warm)
        } else {
            // Cosine anneal.
            let p = (step - warm) / (total - warm).max(1.0);
            lr_end + 0.5 * (self.max_lr - lr_end) * (1.0 + (std::f32::consts::PI * p).cos())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Linear, ParamStore};
    use crate::tape::{ParamId, Tape};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn adamw_fits_linear_regression() {
        // Fit y = 3x - 2 with a 1->1 linear layer, one batch of 16 a step.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 1, 1, &mut rng);
        let mut opt = AdamW::new(
            &store,
            AdamWConfig {
                lr: 0.05,
                weight_decay: 0.0,
                ..AdamWConfig::default()
            },
        );
        let xs: Vec<f32> = (0..16).map(|i| i as f32 / 8.0 - 1.0).collect();
        let targets: Vec<f32> = xs.iter().map(|x| 3.0 * x - 2.0).collect();
        for _ in 0..400 {
            let mut tape = Tape::new();
            let xv = tape.constant(Tensor::from_vec(16, 1, xs.clone()));
            let y = lin.forward(&mut tape, &store, xv);
            let t = tape.constant(Tensor::from_vec(16, 1, targets.clone()));
            let d = tape.sub(y, t);
            let sq = tape.mul(d, d);
            let loss = tape.mean(sq);
            let grads = tape.backward(loss);
            opt.step(&mut store, &grads, 0.05);
        }
        let w = store.get(lin.w).item();
        let b = store.get(lin.b).item();
        assert!((w - 3.0).abs() < 0.05, "w = {w}");
        assert!((b + 2.0).abs() < 0.05, "b = {b}");
    }

    #[test]
    fn adamw_weight_decay_shrinks_weights() {
        let mut store = ParamStore::new();
        let id = store.register("p", Tensor::row(vec![10.0]));
        let mut opt = AdamW::new(
            &store,
            AdamWConfig {
                lr: 0.1,
                weight_decay: 0.5,
                grad_clip: None,
                ..AdamWConfig::default()
            },
        );
        // Zero gradient: only decay acts.
        let mut tape = Tape::new();
        let p = store.bind(&mut tape, id);
        let z = tape.scale(p, 0.0);
        let s = tape.sum(z);
        let g = tape.backward(s);
        let before = store.get(id).item();
        opt.step(&mut store, &g, 0.1);
        let after = store.get(id).item();
        assert!(
            after < before,
            "decay should shrink the weight: {before} -> {after}"
        );
    }

    /// `AdamW::step` as it was before the passes were fused: clip map, one
    /// `zip_map` per moment, then the update loop, over each parameter's
    /// summed gradient. Kept as the reference the single-pass body must
    /// match bit for bit.
    struct MultiPassAdamW {
        cfg: AdamWConfig,
        m: Vec<Tensor>,
        v: Vec<Tensor>,
        t: u64,
    }

    impl MultiPassAdamW {
        fn step(&mut self, store: &mut ParamStore, sums: &[Option<Tensor>], lr: f32) {
            self.t += 1;
            let t = self.t as i32;
            let c = self.cfg;
            let clip_scale = match c.grad_clip {
                Some(max) => {
                    let norm = global_norm(sums);
                    if norm > max && norm > 0.0 {
                        max / norm
                    } else {
                        1.0
                    }
                }
                None => 1.0,
            };
            let bias1 = 1.0 - c.beta1.powi(t);
            let bias2 = 1.0 - c.beta2.powi(t);
            for (i, sum) in sums.iter().enumerate() {
                let Some(mut g) = sum.clone() else {
                    continue;
                };
                if clip_scale != 1.0 {
                    g = g.map(|x| x * clip_scale);
                }
                self.m[i] = self.m[i].zip_map(&g, |mv, gv| c.beta1 * mv + (1.0 - c.beta1) * gv);
                self.v[i] =
                    self.v[i].zip_map(&g, |vv, gv| c.beta2 * vv + (1.0 - c.beta2) * gv * gv);
                let (m, v) = (&self.m[i], &self.v[i]);
                let data = store.get_mut(ParamId(i)).as_mut_slice();
                for ((pv, &mv), &vv) in data.iter_mut().zip(m.as_slice()).zip(v.as_slice()) {
                    let mhat = mv / bias1;
                    let vhat = vv / bias2;
                    *pv -= lr * (mhat / (vhat.sqrt() + c.eps) + c.weight_decay * *pv);
                }
            }
        }
    }

    /// The global gradient norm: each summed gradient's norm squared,
    /// summed in `ParamId` order.
    fn global_norm(sums: &[Option<Tensor>]) -> f32 {
        sums.iter()
            .flatten()
            .map(|g| {
                let n = g.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    #[test]
    fn single_pass_step_is_bit_identical_to_the_multi_pass_reference() {
        use rand::Rng;
        for grad_clip in [Some(5.0), None] {
            let mut rng = ChaCha8Rng::seed_from_u64(16);
            let mut store = ParamStore::new();
            Linear::new(&mut store, "a", 7, 5, &mut rng);
            Linear::new(&mut store, "b", 5, 1, &mut rng);
            let mut reference_store = store.clone();
            let cfg = AdamWConfig {
                grad_clip,
                ..AdamWConfig::default()
            };
            let mut opt = AdamW::new(&store, cfg);
            let mut reference = MultiPassAdamW {
                cfg,
                m: opt.m.clone(),
                v: opt.v.clone(),
                t: 0,
            };
            let sched = OneCycleLr::new(1e-2, 50);
            let mut clipped = 0;
            for step in 0..50 {
                // Every parameter bound one to three times (its gradient
                // is the sum of its binds'), large gradients on every
                // third step so the clip engages on some steps and not on
                // others, and the last parameter left unbound on odd
                // steps. `sum(p ⊙ r)` hands each bind exactly `r`.
                let magnitude = if step % 3 == 0 { 40.0 } else { 0.5 };
                let mut tape = Tape::new();
                let mut terms = Vec::new();
                let mut sums: Vec<Option<Tensor>> = vec![None; store.len()];
                for _ in 0..1 + step % 3 {
                    for (id, p) in store.iter() {
                        if step % 2 == 1 && id.0 + 1 == store.len() {
                            continue;
                        }
                        let data = (0..p.len())
                            .map(|_| rng.gen_range(-1.0f32..1.0) * magnitude)
                            .collect();
                        let r = Tensor::from_vec(p.rows(), p.cols(), data);
                        let bound = store.bind(&mut tape, id);
                        let rv = tape.constant(r.clone());
                        let prod = tape.mul(bound, rv);
                        terms.push(tape.sum(prod));
                        let sum = &mut sums[id.0];
                        *sum = Some(match sum.take() {
                            Some(s) => s.zip_map(&r, |a, b| a + b),
                            None => r,
                        });
                    }
                }
                let loss = terms[1..].iter().fold(terms[0], |acc, &t| tape.add(acc, t));
                let grads = tape.backward(loss);
                clipped += usize::from(global_norm(&sums) > 5.0);
                let lr = sched.lr_at(step);
                opt.step(&mut store, &grads, lr);
                reference.step(&mut reference_store, &sums, lr);
                let state = |s: &ParamStore, m: &[Tensor], v: &[Tensor]| -> Vec<u32> {
                    let weights = s.iter().map(|(_, t)| t);
                    weights
                        .chain(m)
                        .chain(v)
                        .flat_map(|t| t.as_slice().iter().map(|x| x.to_bits()))
                        .collect()
                };
                assert_eq!(
                    state(&store, &opt.m, &opt.v),
                    state(&reference_store, &reference.m, &reference.v),
                    "weights or moments diverged at step {step} (clip {grad_clip:?})"
                );
            }
            assert!(
                clipped > 0 && clipped < 50,
                "{clipped} of 50 steps over the clip"
            );
        }
    }

    #[test]
    fn one_cycle_shape() {
        let sched = OneCycleLr::new(1e-3, 1000);
        let start = sched.lr_at(0);
        let peak = sched.lr_at(300);
        let end = sched.lr_at(999);
        assert!(start < peak, "warm-up should increase LR");
        assert!(
            (peak - 1e-3).abs() < 1e-4,
            "peak should reach max_lr, got {peak}"
        );
        assert!(end < start, "final LR should be tiny, got {end}");
        // Monotone up then down.
        for i in 1..300 {
            assert!(sched.lr_at(i) + 1e-9 >= sched.lr_at(i - 1));
        }
        for i in 301..1000 {
            assert!(sched.lr_at(i) <= sched.lr_at(i - 1) + 1e-9);
        }
    }

    #[test]
    fn one_cycle_clamps_past_end() {
        let sched = OneCycleLr::new(1e-3, 100);
        assert_eq!(sched.lr_at(99), sched.lr_at(10_000));
    }
}
