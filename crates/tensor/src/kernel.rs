//! Flattened SoA inference kernels over a preallocated arena.
//!
//! The [`crate::Tape`] is the right substrate for training — every op
//! allocates a node so gradients can flow back — but inference pays for
//! that generality on every candidate: a node `Vec` grown per op,
//! per-op `Tensor` allocations, and a pointer-chase through the graph to
//! read values back. The [`Arena`] here is the structure-of-arrays
//! counterpart for forward-only passes: flat `f32` buffers recycled
//! across calls (the backing allocations survive [`Arena::reset`]), ops
//! that write in place wherever the dataflow allows, and no autodiff
//! bookkeeping at all.
//!
//! **Bit-identity contract**: every kernel reproduces the corresponding
//! tape op's floating-point evaluation exactly — same loop order, same
//! association, same scalar functions. The matmul inner loop is *shared*
//! with [`crate::Tensor::matmul`] ([`matmul_into`]), so the two paths
//! cannot drift apart; the elementwise kernels state their tape
//! counterpart next to each expression. `dlcm-model` has a property
//! test pinning arena inference to the tape forward pass bit for bit.

use crate::tensor::Tensor;

/// Shared matmul inner loop: `out += a x b` row by row, where `out` must
/// arrive zeroed. `a` is `m x k`, `b` is `k x n`, `out` is `m x n`, all
/// row-major.
///
/// This is the *single* f32 matmul evaluation order in the workspace —
/// [`crate::Tensor::matmul`], [`crate::Tensor::matmul_t`] (the backward
/// pass's `g x Bᵀ`, over a transposed `B`) and [`Arena::matmul`] all
/// call it — an i-k-j loop whose inner loop is a contiguous
/// multiply-accumulate the compiler vectorizes, with a zero-skip on `a`
/// (featurization vectors are mostly zeros).
pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for (i, orow) in out.chunks_mut(n).enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Handle to a matrix allocated in an [`Arena`] for the current pass.
/// Invalidated by [`Arena::reset`]; `Copy` so tree walks can hold many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatId(usize);

#[derive(Debug, Default)]
struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A recycling buffer pool for forward-only passes.
///
/// [`Arena::alloc`] hands out zeroed row-major matrices backed by
/// buffers retired by the previous [`Arena::reset`], so a steady-state
/// inference loop performs no heap allocation at all once its largest
/// batch shape has been seen — the "preallocated arena" the serving hot
/// path walks instead of growing a tape per candidate batch.
#[derive(Debug, Default)]
pub struct Arena {
    mats: Vec<Mat>,
    pool: Vec<Vec<f32>>,
}

impl Arena {
    /// Creates an empty arena (no buffers pooled yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Retires every live matrix of the finished pass into the buffer
    /// pool. All outstanding [`MatId`]s become invalid.
    pub fn reset(&mut self) {
        for m in self.mats.drain(..) {
            self.pool.push(m.data);
        }
    }

    /// Allocates a zeroed `rows x cols` matrix, reusing a pooled buffer
    /// when one is available.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> MatId {
        let mut data = self.pool.pop().unwrap_or_default();
        data.clear();
        data.resize(rows * cols, 0.0);
        self.mats.push(Mat { rows, cols, data });
        MatId(self.mats.len() - 1)
    }

    /// Shape of a live matrix.
    pub fn shape(&self, id: MatId) -> (usize, usize) {
        (self.mats[id.0].rows, self.mats[id.0].cols)
    }

    /// Read access to a live matrix's row-major elements.
    pub fn data(&self, id: MatId) -> &[f32] {
        &self.mats[id.0].data
    }

    /// Write access to a live matrix's row-major elements.
    pub fn data_mut(&mut self, id: MatId) -> &mut [f32] {
        &mut self.mats[id.0].data
    }

    /// Two-way split borrow: read `src`, write `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    fn pair_mut(&mut self, dst: MatId, src: MatId) -> (&mut Mat, &Mat) {
        assert_ne!(dst.0, src.0, "aliasing arena access");
        if dst.0 < src.0 {
            let (lo, hi) = self.mats.split_at_mut(src.0);
            (&mut lo[dst.0], &hi[0])
        } else {
            let (lo, hi) = self.mats.split_at_mut(dst.0);
            (&mut hi[0], &lo[src.0])
        }
    }

    /// `x · w` into a fresh matrix, with `w` taken straight from a
    /// parameter [`Tensor`] (weights never need copying into the arena).
    /// Same evaluation order as [`crate::Tape::matmul`] via
    /// [`matmul_into`].
    pub fn matmul(&mut self, x: MatId, w: &Tensor) -> MatId {
        let (m, k) = self.shape(x);
        let (wk, n) = w.shape();
        assert_eq!(k, wk, "matmul shape mismatch: {m}x{k} · {wk}x{n}");
        let out = self.alloc(m, n);
        let (dst, src) = self.pair_mut(out, x);
        matmul_into(&src.data, m, k, w.as_slice(), n, &mut dst.data);
        out
    }

    /// In-place `dst += src` (elementwise), matching
    /// [`crate::Tape::add`]'s `x + y` per element.
    pub fn add_assign(&mut self, dst: MatId, src: MatId) {
        let (d, s) = self.pair_mut(dst, src);
        assert_eq!((d.rows, d.cols), (s.rows, s.cols), "add shape mismatch");
        for (x, &y) in d.data.iter_mut().zip(s.data.iter()) {
            *x += y;
        }
    }

    /// In-place bias broadcast `dst[r, c] += bias[0, c]`, matching
    /// [`crate::Tape::add_row_broadcast`].
    pub fn add_bias(&mut self, dst: MatId, bias: &Tensor) {
        let (m, n) = self.shape(dst);
        assert_eq!(bias.shape(), (1, n), "bias must be 1 x {n}");
        let b = bias.as_slice();
        let d = self.data_mut(dst);
        for r in 0..m {
            for (x, &bv) in d[r * n..(r + 1) * n].iter_mut().zip(b) {
                *x += bv;
            }
        }
    }

    /// In-place elementwise map (activation kernels; each caller states
    /// the tape op it mirrors).
    pub fn apply(&mut self, dst: MatId, f: impl Fn(f32) -> f32) {
        for x in self.data_mut(dst) {
            *x = f(*x);
        }
    }

    /// `[a | b]` column concatenation into a fresh matrix, matching
    /// [`crate::Tape::concat_cols`]'s row-interleaved copy.
    pub fn concat_cols(&mut self, a: MatId, b: MatId) -> MatId {
        let (ra, ca) = self.shape(a);
        let (rb, cb) = self.shape(b);
        assert_eq!(ra, rb, "concat_cols row mismatch: {ra} vs {rb}");
        let out = self.alloc(ra, ca + cb);
        for r in 0..ra {
            let start = r * (ca + cb);
            let (dst, src) = self.pair_mut(out, a);
            dst.data[start..start + ca].copy_from_slice(&src.data[r * ca..(r + 1) * ca]);
            let (dst, src) = self.pair_mut(out, b);
            dst.data[start + ca..start + ca + cb].copy_from_slice(&src.data[r * cb..(r + 1) * cb]);
        }
        out
    }

    /// Row gather into a fresh matrix, matching
    /// [`crate::Tape::gather_rows`].
    pub fn gather_rows(&mut self, a: MatId, indices: &[usize]) -> MatId {
        let (m, n) = self.shape(a);
        let out = self.alloc(indices.len(), n);
        let (dst, src) = self.pair_mut(out, a);
        for (slot, &r) in indices.iter().enumerate() {
            assert!(r < m, "gather row {r} out of bounds ({m} rows)");
            dst.data[slot * n..(slot + 1) * n].copy_from_slice(&src.data[r * n..(r + 1) * n]);
        }
        out
    }

    /// `(f ⊙ c) + (i ⊙ g)` into a fresh matrix: the LSTM cell-state
    /// update. The tape spells this `add(mul(f, c), mul(i, g))`; per
    /// element both evaluate `(f*c) + (i*g)` with the same association
    /// (Rust never contracts to FMA), so fusing the three ops is exact.
    pub fn lstm_cell_state(&mut self, f: MatId, c: MatId, i: MatId, g: MatId) -> MatId {
        let (m, n) = self.shape(f);
        let out = self.alloc(m, n);
        for idx in 0..m * n {
            let v = (self.mats[f.0].data[idx] * self.mats[c.0].data[idx])
                + (self.mats[i.0].data[idx] * self.mats[g.0].data[idx]);
            self.mats[out.0].data[idx] = v;
        }
        out
    }

    /// `o ⊙ tanh(c)` into a fresh matrix: the LSTM hidden-state output.
    /// The tape spells this `mul(o, tanh(c))`; `o * tanh(c)` per element
    /// is the identical expression.
    pub fn lstm_hidden(&mut self, o: MatId, c: MatId) -> MatId {
        let (m, n) = self.shape(o);
        let out = self.alloc(m, n);
        for idx in 0..m * n {
            let v = self.mats[o.0].data[idx] * self.mats[c.0].data[idx].tanh();
            self.mats[out.0].data[idx] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_matmul_matches_tensor_matmul() {
        let a = Tensor::from_vec(3, 4, (0..12).map(|i| i as f32 * 0.5 - 2.0).collect());
        let b = Tensor::from_vec(4, 2, (0..8).map(|i| 1.0 - i as f32 * 0.25).collect());
        let want = a.matmul(&b);

        let mut arena = Arena::new();
        let x = arena.alloc(3, 4);
        arena.data_mut(x).copy_from_slice(a.as_slice());
        let got = arena.matmul(x, &b);
        assert_eq!(arena.data(got), want.as_slice());
    }

    #[test]
    fn reset_recycles_buffers() {
        let mut arena = Arena::new();
        let a = arena.alloc(8, 8);
        let ptr = arena.data(a).as_ptr();
        arena.reset();
        let b = arena.alloc(8, 8);
        assert_eq!(
            arena.data(b).as_ptr(),
            ptr,
            "same-shape realloc after reset must reuse the pooled buffer"
        );
        assert!(arena.data(b).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn concat_and_gather_match_tape_layout() {
        let mut arena = Arena::new();
        let a = arena.alloc(2, 2);
        arena.data_mut(a).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let b = arena.alloc(2, 1);
        arena.data_mut(b).copy_from_slice(&[9.0, 8.0]);
        let cat = arena.concat_cols(a, b);
        assert_eq!(arena.data(cat), &[1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
        let picked = arena.gather_rows(cat, &[1, 0, 1]);
        assert_eq!(
            arena.data(picked),
            &[3.0, 4.0, 8.0, 1.0, 2.0, 9.0, 3.0, 4.0, 8.0]
        );
    }
}
