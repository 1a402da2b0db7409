//! The shared matmul kernel and the flattened SoA inference arena.
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
//! tape op's floating-point evaluation exactly — same summation order,
//! same association, same scalar functions (both sides call
//! [`crate::math`] for every `exp`, sigmoid and `tanh`). Every matrix
//! product in the crate — [`crate::Tensor::matmul`] (the backward pass's
//! `g x Bᵀ` too, against a transposed `B`), [`crate::Tensor::t_matmul`]
//! and [`Arena::matmul`] — is *one* function, [`matmul_into`], so the tape
//! and arena paths cannot drift apart; the elementwise kernels state
//! their tape counterpart next to each expression. `dlcm-model` has a property test pinning arena inference
//! to the tape forward pass bit for bit.

use crate::math;
use crate::tensor::Tensor;

/// How many non-zeros of one row of `a` [`matmul_into`] compacts before
/// it sweeps them across the column tiles of `b`.
const NNZ_BLOCK: usize = 64;

/// Widest column tile of [`matmul_into`]: 32 accumulators are four
/// 256-bit or eight 128-bit registers, so a tile's running sums, the
/// broadcast `a` value and a loaded strip of `b` fit the sixteen vector
/// registers of an x86-64 build at either width.
const TILE: usize = 32;

/// Shared matmul kernel: `out += a x b`, where `a` is `m x k`, `b` is
/// `k x n`, `out` is `m x n`, all row-major. A product starts from a
/// zeroed `out`.
///
/// This is the *single* f32 product loop in the crate —
/// [`crate::Tensor::matmul`] (also the backward pass's `g x Bᵀ`, against
/// a transposed `B`), [`crate::Tensor::t_matmul`] (its `Aᵀ x g`) and
/// [`Arena::matmul`] all call it. Two facts shape it, and each leaves
/// every output bit where the plain i-k-j loop
/// (`for i { for k { if a[i][k] != 0 { out[i][..] += a[i][k] * b[k][..] } } }`)
/// puts it:
///
/// - **One zero test per `(row, k)`.** Featurization rows are mostly
///   zeros (a few dozen non-zeros in ~1 000), so each row of `a` is scanned
///   once, in ascending `k`, and its non-zeros are compacted into blocks
///   of 64 (`NNZ_BLOCK`) `(value, row of b)` pairs; the column tiles then
///   walk the compacted block and never look at a zero again. The pairs
///   skipped are exactly those the plain loop's `== 0.0` skips (`±0.0`;
///   a NaN is kept), and a block preserves their order.
/// - **Register accumulators.** For each column tile (32 wide, then 16,
///   8, 4, 1 for the remainder) the running sums are loaded from `out`
///   once, stay in registers across the whole block, and are stored
///   once — instead of a read-modify-write of the output row per `k`.
///   An output element still starts from what `out` held and adds its
///   products one at a time in ascending `k`; floating-point addition
///   is not reassociated, columns never mix.
///
/// There is no ISA-specific code: the nest is plain Rust over
/// fixed-width arrays, vectorised by the compiler for whatever target
/// the build names. Wider registers change how many columns one
/// instruction covers, never what a column computes — Rust emits a
/// separate IEEE multiply and add per element under any target (it
/// never contracts them into an FMA, whatever the CPU supports), which
/// CI's `target-cpu` leg pins at `x86-64-v3`. A run-time AVX2
/// instantiation of this body was built, measured end to end and not
/// kept: the baseline build was the faster one in ten of ten
/// `search_suite` pairs (CHANGES.md, PR 18).
pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let mut vals = [0.0f32; NNZ_BLOCK];
    let mut offs = [0usize; NNZ_BLOCK];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut nnz = 0;
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            vals[nnz] = av;
            offs[nnz] = kk * n;
            nnz += 1;
            if nnz == NNZ_BLOCK {
                sweep_tiles(&vals, &offs, b, orow);
                nnz = 0;
            }
        }
        if nnz > 0 {
            sweep_tiles(&vals[..nnz], &offs[..nnz], b, orow);
        }
    }
}

/// Adds one compacted block of a row of `a` — `vals[t]` times the row of
/// `b` starting at `offs[t]` — into the output row, column tile by
/// column tile.
#[inline(always)]
fn sweep_tiles(vals: &[f32], offs: &[usize], b: &[f32], orow: &mut [f32]) {
    let n = orow.len();
    let mut j = 0;
    while n - j >= TILE {
        tile::<TILE>(vals, offs, b, j, orow);
        j += TILE;
    }
    if n - j >= 16 {
        tile::<16>(vals, offs, b, j, orow);
        j += 16;
    }
    if n - j >= 8 {
        tile::<8>(vals, offs, b, j, orow);
        j += 8;
    }
    if n - j >= 4 {
        tile::<4>(vals, offs, b, j, orow);
        j += 4;
    }
    while j < n {
        tile::<1>(vals, offs, b, j, orow);
        j += 1;
    }
}

/// One `W`-column tile: `orow[j..j + W]` accumulates the block's
/// products in block order, in a local array the compiler keeps in
/// registers.
#[inline(always)]
fn tile<const W: usize>(vals: &[f32], offs: &[usize], b: &[f32], j: usize, orow: &mut [f32]) {
    let dst: &mut [f32; W] = (&mut orow[j..j + W])
        .try_into()
        .expect("a W-wide slice is a W-wide array");
    let mut acc = *dst;
    for (&av, &off) in vals.iter().zip(offs) {
        let brow: &[f32; W] = b[off + j..off + j + W]
            .try_into()
            .expect("a W-wide slice is a W-wide array");
        for (x, &bv) in acc.iter_mut().zip(brow) {
            *x += av * bv;
        }
    }
    *dst = acc;
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
    ///
    /// Buffers retire in reverse allocation order and [`Arena::alloc`]
    /// pops from the end, so the next pass's matrix *k* gets this pass's
    /// matrix *k*'s buffer: a loop that repeats one shape sequence
    /// settles on one capacity per slot. (Retired in allocation order,
    /// the biggest request — the first, the feature matrix — would get
    /// the smallest buffer — the last, the output column — and every
    /// buffer of the pool would drift up to the largest shape.)
    pub fn reset(&mut self) {
        self.pool.extend(self.mats.drain(..).rev().map(|m| m.data));
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

    /// [`Arena::alloc`] for an op that reads other matrices while it
    /// fills its result: the fresh matrix's id and elements, plus every
    /// older matrix (indexed by `MatId`) read-only — one split borrow up
    /// front instead of an index into `self.mats` per element.
    fn alloc_output(&mut self, rows: usize, cols: usize) -> (MatId, &mut [f32], &[Mat]) {
        let id = self.alloc(rows, cols);
        let (out, older) = self.mats.split_last_mut().expect("just allocated");
        (id, &mut out.data, older)
    }

    /// `x · w` into a fresh matrix, with `w` taken straight from a
    /// parameter [`Tensor`] (weights never need copying into the arena).
    /// Same evaluation order as [`crate::Tape::matmul`] via
    /// [`matmul_into`].
    pub fn matmul(&mut self, x: MatId, w: &Tensor) -> MatId {
        let (m, k) = self.shape(x);
        let (wk, n) = w.shape();
        assert_eq!(k, wk, "matmul shape mismatch: {m}x{k} · {wk}x{n}");
        let (out, dst, older) = self.alloc_output(m, n);
        matmul_into(&older[x.0].data, m, k, w.as_slice(), n, dst);
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
        let (out, dst, older) = self.alloc_output(ra, ca + cb);
        let (a, b) = (&older[a.0].data, &older[b.0].data);
        for r in 0..ra {
            let drow = &mut dst[r * (ca + cb)..(r + 1) * (ca + cb)];
            drow[..ca].copy_from_slice(&a[r * ca..(r + 1) * ca]);
            drow[ca..].copy_from_slice(&b[r * cb..(r + 1) * cb]);
        }
        out
    }

    /// Row gather into a fresh matrix, matching
    /// [`crate::Tape::gather_rows`]. The indices come as an iterator so
    /// a computed pattern (a stride, say) needs no index buffer.
    pub fn gather_rows(
        &mut self,
        a: MatId,
        indices: impl ExactSizeIterator<Item = usize>,
    ) -> MatId {
        let (m, n) = self.shape(a);
        let (out, dst, older) = self.alloc_output(indices.len(), n);
        let src = &older[a.0].data;
        for (slot, r) in indices.enumerate() {
            assert!(r < m, "gather row {r} out of bounds ({m} rows)");
            dst[slot * n..(slot + 1) * n].copy_from_slice(&src[r * n..(r + 1) * n]);
        }
        out
    }

    /// `(f ⊙ c) + (i ⊙ g)` into a fresh matrix: the LSTM cell-state
    /// update. The tape spells this `add(mul(f, c), mul(i, g))`; per
    /// element both evaluate `(f*c) + (i*g)` with the same association
    /// (Rust never contracts to FMA), so fusing the three ops is exact.
    pub fn lstm_cell_state(&mut self, f: MatId, c: MatId, i: MatId, g: MatId) -> MatId {
        let (m, n) = self.shape(f);
        for other in [c, i, g] {
            assert_eq!(self.shape(other), (m, n), "lstm_cell_state shape mismatch");
        }
        let (out, dst, older) = self.alloc_output(m, n);
        let (f, c, i, g) = (
            &older[f.0].data,
            &older[c.0].data,
            &older[i.0].data,
            &older[g.0].data,
        );
        for ((((o, &f), &c), &i), &g) in dst.iter_mut().zip(f).zip(c).zip(i).zip(g) {
            *o = (f * c) + (i * g);
        }
        out
    }

    /// [`Arena::lstm_cell_state`] for a step that starts from the zero
    /// state, in place on `i`: `0.0 + (i ⊙ g)`. With `c = +0.0` and a
    /// sigmoid's `f ≥ 0`, `f*c` is `+0.0`, and adding it is not a no-op:
    /// it turns an `i*g` of `-0.0` into `+0.0`, so the addition stays.
    pub(crate) fn lstm_cell_state_from_zero(&mut self, i: MatId, g: MatId) {
        let (d, s) = self.pair_mut(i, g);
        assert_eq!(
            (d.rows, d.cols),
            (s.rows, s.cols),
            "lstm_cell_state shape mismatch"
        );
        for (i, &g) in d.data.iter_mut().zip(s.data.iter()) {
            *i = 0.0 + (*i * g);
        }
    }

    /// `o ⊙ tanh(c)` into a fresh matrix: the LSTM hidden-state output.
    /// The tape spells this `mul(o, tanh(c))`; `o * tanh(c)` per element
    /// is the identical expression.
    pub fn lstm_hidden(&mut self, o: MatId, c: MatId) -> MatId {
        let (m, n) = self.shape(o);
        assert_eq!(self.shape(c), (m, n), "lstm_hidden shape mismatch");
        let (out, dst, older) = self.alloc_output(m, n);
        for ((h, &o), &c) in dst.iter_mut().zip(&older[o.0].data).zip(&older[c.0].data) {
            *h = o * math::tanh(c);
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

    /// The loop the kernel must reproduce bit for bit: i-k-j, one
    /// read-modify-write of the output row per non-zero `a[i][k]`.
    fn matmul_naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[kk * n + j];
                }
            }
        }
    }

    /// Runs the naive loop and the kernel from the same starting `out`
    /// and demands equal bits.
    fn assert_kernel_agrees(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out0: &[f32]) {
        let mut want = out0.to_vec();
        matmul_naive(a, m, k, b, n, &mut want);
        let mut got = out0.to_vec();
        matmul_into(a, m, k, b, n, &mut got);
        for (at, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{m}x{k} · {k}x{n}, element {at}: {g:e} vs {w:e}"
            );
        }
    }

    #[test]
    fn kernel_is_bit_identical_to_the_naive_loop_at_every_tile_remainder() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(18);
        // Mostly ordinary values; zeros of both signs (the skip) and
        // subnormals (alone, and as products that underflow) mixed in.
        let mut value = |zero_share: u32| match rng.gen_range(0..16) {
            z if z < zero_share => 0.0,
            13 => -0.0,
            14 => 1e-40 * rng.gen_range(-4.0f32..4.0),
            15 => 1e-22 * rng.gen_range(-4.0f32..4.0),
            _ => rng.gen_range(-2.0f32..2.0),
        };
        let widths = [
            1, 3, 4, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 80, 100, 160,
        ];
        let depths = [0, 1, NNZ_BLOCK - 1, NNZ_BLOCK, NNZ_BLOCK + 1, 983];
        let mut case = 0;
        for n in widths {
            for k in depths {
                for m in [0, 1, 2, 8] {
                    case += 1;
                    // Dense rows put the block boundary at `k`; sparse
                    // ones (the feature rows' shape) move it around.
                    let zero_share = [0, 4, 12][case % 3];
                    let mut a: Vec<f32> = (0..m * k).map(|_| value(zero_share)).collect();
                    if m > 1 && case % 2 == 0 {
                        a[k..2 * k].fill(0.0);
                    }
                    let b: Vec<f32> = (0..k * n).map(|_| value(1)).collect();
                    // A product starts from zeros; the kernel's contract
                    // is `+=`, so a pre-filled `out` must work too.
                    let out0: Vec<f32> = if case % 4 == 0 {
                        (0..m * n).map(|_| value(2)).collect()
                    } else {
                        vec![0.0; m * n]
                    };
                    assert_kernel_agrees(&a, m, k, &b, n, &out0);
                }
            }
        }
    }

    #[test]
    fn kernel_keeps_signed_zeros_and_nans_where_the_naive_loop_puts_them() {
        // All-negative-zero `a`: every product is skipped, `out` keeps
        // its `+0.0` (and a pre-filled `-0.0` stays `-0.0`).
        let (m, k, n) = (2, 5, 37);
        let a = vec![-0.0f32; m * k];
        let b = vec![1.5f32; k * n];
        assert_kernel_agrees(&a, m, k, &b, n, &vec![0.0; m * n]);
        assert_kernel_agrees(&a, m, k, &b, n, &vec![-0.0; m * n]);
        // Products that are `-0.0` (not skipped: `a` is non-zero) add to
        // `+0.0` as `+0.0` and to `-0.0` as `-0.0`.
        let a = vec![-1.0f32; m * k];
        let b = vec![0.0f32; k * n];
        assert_kernel_agrees(&a, m, k, &b, n, &vec![0.0; m * n]);
        assert_kernel_agrees(&a, m, k, &b, n, &vec![-0.0; m * n]);
        // A NaN in `a` is not a zero: its whole output row is NaN, the
        // other row untouched.
        let mut a = vec![0.5f32; m * k];
        a[3] = f32::NAN;
        let b = vec![2.0f32; k * n];
        let mut out = vec![0.0f32; m * n];
        matmul_into(&a, m, k, &b, n, &mut out);
        assert!(out[..n].iter().all(|v| v.is_nan()));
        assert!(out[n..].iter().all(|&v| v == 5.0));
    }

    #[test]
    fn reset_recycles_buffers() {
        // A pass shaped like a forward: the widest matrix first, a
        // single column last. On the next pass matrix `k` must get
        // matrix `k`'s buffer back — same pointer, so no reallocation —
        // and get it zeroed.
        let shapes = [(16, 983), (16, 160), (16, 100), (4, 64), (4, 64), (16, 1)];
        let mut arena = Arena::new();
        let pass = |arena: &mut Arena| -> Vec<*const f32> {
            arena.reset();
            shapes
                .iter()
                .map(|&(rows, cols)| {
                    let id = arena.alloc(rows, cols);
                    assert!(arena.data(id).iter().all(|&v| v == 0.0));
                    arena.data_mut(id).fill(1.0);
                    arena.data(id).as_ptr()
                })
                .collect()
        };
        let first = pass(&mut arena);
        for _ in 0..2 {
            assert_eq!(
                pass(&mut arena),
                first,
                "a repeated pass must reuse each matrix's own pooled buffer"
            );
        }
    }

    #[test]
    fn cell_state_from_zero_is_the_general_update_at_c_zero() {
        // A saturated step: i = σ(-∞) = +0.0 against g = tanh(-∞) = -1.0
        // multiplies to -0.0, which the general `(f*c) + (i*g)` turns
        // into +0.0 — and so must the zero-state form.
        let (i_vals, g_vals) = ([0.0, 0.5, 1.0, 0.0], [-1.0, -0.25, 1.0, 1.0]);
        let mut arena = Arena::new();
        let [f, c, i, g] = [(); 4].map(|()| arena.alloc(1, 4));
        arena.data_mut(f).copy_from_slice(&[1.0, 0.5, 0.0, 0.25]);
        arena.data_mut(i).copy_from_slice(&i_vals);
        arena.data_mut(g).copy_from_slice(&g_vals);
        let want = arena.lstm_cell_state(f, c, i, g);
        arena.lstm_cell_state_from_zero(i, g);
        let bits = |id| -> Vec<u32> { arena.data(id).iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(i), bits(want));
        assert_eq!(arena.data(i)[0].to_bits(), 0.0f32.to_bits());
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
        let picked = arena.gather_rows(cat, [1, 0, 1].into_iter());
        assert_eq!(
            arena.data(picked),
            &[3.0, 4.0, 8.0, 1.0, 2.0, 9.0, 3.0, 4.0, 8.0]
        );
    }
}
