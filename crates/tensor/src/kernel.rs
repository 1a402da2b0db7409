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

/// Widest column tile of [`matmul_into`]: a row pair's tile holds 2 × 32
/// running sums, eight 256-bit registers, so with a loaded strip of `b`
/// and the two broadcast `a` values it fits the sixteen vector registers
/// of an x86-64 build (an SSE2 build, at 128 bits, spills some of them).
const TILE: usize = 32;

/// Rows at least this wide are scanned for non-zeros a chunk at a time
/// ([`Block::fill`]). Of the model's products only the first layer's
/// featurized rows (983 inputs, a few dozen non-zero) are this wide; the
/// hidden layers (600 at most) are dense, and on dense rows the chunk
/// test only adds work.
const WIDE_ROW: usize = 768;

/// Elements per chunk of the wide-row scan: one 256-bit compare.
const CHUNK: usize = 8;

/// Shared matmul kernel: `out += a x b`, where `a` is `m x k`, `b` is
/// `k x n`, `out` is `m x n`, all row-major. A product starts from a
/// zeroed `out`.
///
/// This is the *single* f32 product loop in the crate —
/// [`crate::Tensor::matmul`] (also the backward pass's `g x Bᵀ`, against
/// a transposed `B`), [`crate::Tensor::t_matmul`] (its `Aᵀ x g`) and
/// [`Arena::matmul`] all call it. Three facts shape it, and each leaves
/// every output bit where the plain i-k-j loop
/// (`for i { for k { if a[i][k] != 0 { out[i][..] += a[i][k] * b[k][..] } } }`)
/// puts it:
///
/// - **One zero test per `(row, k)`.** Featurization rows are mostly
///   zeros (a few dozen non-zeros in ~1 000), so each row of `a` is scanned
///   once, in ascending `k`, and its non-zeros are compacted into blocks
///   of up to 64 (`NNZ_BLOCK`) `(value, row of b)` pairs; the column
///   tiles then walk the compacted block and never look at a zero again.
///   The pairs skipped are exactly those the plain loop's `== 0.0` skips
///   (`±0.0`; a NaN is kept), and a block preserves their order. A row at
///   least `WIDE_ROW` wide is scanned eight elements at a time first: a
///   chunk whose eight bit patterns are all `±0.0` is skipped in one
///   test, and any other chunk (a NaN is not zero) gets the per-element
///   test — the same set of skipped `k`s, found with fewer branches.
/// - **Register accumulators.** For each column tile (32 wide, then 16,
///   8, 4, 1 for the remainder) the running sums are loaded from `out`
///   once, stay in registers across the whole block, and are stored
///   once — instead of a read-modify-write of the output row per `k`.
///   An output element still starts from what `out` held and adds its
///   products one at a time in ascending `k`; floating-point addition
///   is not reassociated, columns never mix.
/// - **Two rows per pass over `b` when they skip the same `k`s.** Rows
///   are taken in pairs; each row of a pair compacts its next block, and
///   when the two blocks name the same rows of `b` (so both rows skipped
///   the same `k`s — the wave's rows of one computation usually do), one
///   tile holds both rows' sums and each loaded strip of `b` feeds both.
///   A pair changes which register holds a sum, not the order of the
///   additions: each output element still starts from `out` and adds its
///   own row's products in ascending `k`, and the zero test is still one
///   test per `(row, k)`, since the pair is decided from the compacted
///   blocks after the scan. When the blocks differ, each row sweeps its
///   own block alone, from those same blocks, so a failed pair costs a
///   comparison — of where the two scans stopped, then of the two
///   lists — and no second scan of `a` (rows under dropout almost never
///   pair). A lone last row takes the one-row path.
///
/// There is no ISA-specific code: the nest is plain Rust over
/// fixed-width arrays, vectorised by the compiler for whatever target
/// the build names — on x86_64 that is `x86-64-v3` (AVX2, from the
/// workspace's `.cargo/config.toml`), so a 32-wide tile row is four
/// 256-bit accumulators. Wider registers change how many columns one
/// instruction covers, never what a column computes: Rust emits a
/// separate IEEE multiply and add per element under any target (it
/// never contracts them into an FMA, whatever the CPU supports), and
/// CI's `baseline-target` leg runs the goldens on an SSE2 build to
/// prove it. Compiling the whole build for v3 is what pays; a run-time
/// AVX2 instantiation of this body alone, inside an SSE2 build, was
/// built, measured end to end and not kept — the plain baseline build
/// was the faster one in ten of ten `search_suite` pairs (ROADMAP.md
/// § Measured).
pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if n == 0 {
        return;
    }
    let mut first = Block::new();
    let mut second = Block::new();
    let mut a_pairs = a.chunks_exact(2 * k.max(1));
    let mut out_pairs = out.chunks_exact_mut(2 * n);
    for (arows, orows) in a_pairs.by_ref().zip(out_pairs.by_ref()) {
        let (a0, a1) = arows.split_at(k);
        let (o0, o1) = orows.split_at_mut(n);
        let (mut k0, mut k1) = (0, 0);
        while k0 < k || k1 < k {
            k0 = first.fill(a0, k0, n);
            k1 = second.fill(a1, k1, n);
            // Equal blocks end their scans at the same `k`, so unequal
            // stops (nearly every pair under dropout) settle it at once.
            if k0 == k1 && first.offs() == second.offs() {
                sweep([first.vals(), second.vals()], first.offs(), b, [o0, o1]);
            } else {
                sweep([first.vals()], first.offs(), b, [o0]);
                sweep([second.vals()], second.offs(), b, [o1]);
            }
        }
    }
    if m % 2 == 1 {
        let a0 = &a[(m - 1) * k..];
        let o0 = out_pairs.into_remainder();
        let mut k0 = 0;
        while k0 < k {
            k0 = first.fill(a0, k0, n);
            sweep([first.vals()], first.offs(), b, [&mut *o0]);
        }
    }
}

/// One compacted block of a row of `a`: its next non-zeros in ascending
/// `k`, each with the offset of its row of `b`.
struct Block {
    vals: [f32; NNZ_BLOCK],
    offs: [usize; NNZ_BLOCK],
    len: usize,
}

impl Block {
    fn new() -> Self {
        Self {
            vals: [0.0; NNZ_BLOCK],
            offs: [0; NNZ_BLOCK],
            len: 0,
        }
    }

    fn vals(&self) -> &[f32] {
        &self.vals[..self.len]
    }

    fn offs(&self) -> &[usize] {
        &self.offs[..self.len]
    }

    /// Refills the block from `row[from..]` (`n` is the width of `b`)
    /// and returns where the scan stopped: at the end of the row, or
    /// where the block filled up. Skips exactly the elements that
    /// compare `== 0.0`, whichever scan a row gets.
    #[inline(always)]
    fn fill(&mut self, row: &[f32], mut from: usize, n: usize) -> usize {
        // The count lives in a local, not in `self`, so the scan keeps
        // it in a register.
        let mut len = 0;
        let mut keep = |av: f32, kk: usize, len: &mut usize| {
            if av != 0.0 {
                self.vals[*len] = av;
                self.offs[*len] = kk * n;
                *len += 1;
            }
        };
        // A block with no room for a whole chunk ends at the chunk
        // boundary; the next fill resumes there.
        let mut room = true;
        if row.len() >= WIDE_ROW {
            while row.len() - from >= CHUNK {
                if NNZ_BLOCK - len < CHUNK {
                    room = false;
                    break;
                }
                let chunk: &[f32; CHUNK] = row[from..from + CHUNK]
                    .try_into()
                    .expect("a CHUNK-wide slice is a CHUNK-wide array");
                // Shifting the sign bit out leaves 0 for `±0.0` only.
                if chunk.iter().fold(0, |bits, v| bits | (v.to_bits() << 1)) != 0 {
                    for (kk, &av) in (from..).zip(chunk) {
                        keep(av, kk, &mut len);
                    }
                }
                from += CHUNK;
            }
        }
        while room && from < row.len() && len < NNZ_BLOCK {
            keep(row[from], from, &mut len);
            from += 1;
        }
        self.len = len;
        from
    }
}

/// Adds one compacted block into `R` output rows, column tile by column
/// tile: row `r` gets `vals[r][t]` times the row of `b` starting at
/// `offs[t]`. `R` is 1, or 2 for a pair whose blocks name the same rows
/// of `b`.
#[inline(always)]
fn sweep<const R: usize>(vals: [&[f32]; R], offs: &[usize], b: &[f32], mut orows: [&mut [f32]; R]) {
    if offs.is_empty() {
        return;
    }
    let n = orows[0].len();
    let mut j = 0;
    while n - j >= TILE {
        tile::<R, TILE>(&vals, offs, b, j, &mut orows);
        j += TILE;
    }
    if n - j >= 16 {
        tile::<R, 16>(&vals, offs, b, j, &mut orows);
        j += 16;
    }
    if n - j >= 8 {
        tile::<R, 8>(&vals, offs, b, j, &mut orows);
        j += 8;
    }
    if n - j >= 4 {
        tile::<R, 4>(&vals, offs, b, j, &mut orows);
        j += 4;
    }
    while j < n {
        tile::<R, 1>(&vals, offs, b, j, &mut orows);
        j += 1;
    }
}

/// One `W`-column tile of `R` rows: `orows[r][j..j + W]` accumulates
/// row `r`'s products in block order, in local arrays the compiler keeps
/// in registers. The rows share each loaded strip of `b`; each sum adds
/// exactly the products one row alone would, in the same order.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    vals: &[&[f32]; R],
    offs: &[usize],
    b: &[f32],
    j: usize,
    orows: &mut [&mut [f32]; R],
) {
    let mut acc: [[f32; W]; R] = std::array::from_fn(|r| {
        orows[r][j..j + W]
            .try_into()
            .expect("a W-wide slice is a W-wide array")
    });
    for (t, &off) in offs.iter().enumerate() {
        let brow: &[f32; W] = b[off + j..off + j + W]
            .try_into()
            .expect("a W-wide slice is a W-wide array");
        for (sums, vals) in acc.iter_mut().zip(vals) {
            let av = vals[t];
            for (x, &bv) in sums.iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
    }
    for (orow, sums) in orows.iter_mut().zip(&acc) {
        orow[j..j + W].copy_from_slice(sums);
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
        fn value(rng: &mut impl Rng, zero_share: u32) -> f32 {
            match rng.gen_range(0..16) {
                z if z < zero_share => 0.0,
                13 => -0.0,
                14 => 1e-40 * rng.gen_range(-4.0f32..4.0),
                15 => 1e-22 * rng.gen_range(-4.0f32..4.0),
                _ => rng.gen_range(-2.0f32..2.0),
            }
        }
        fn nonzero(rng: &mut impl Rng) -> f32 {
            let v = rng.gen_range(0.25f32..2.0);
            if rng.gen() {
                v
            } else {
                -v
            }
        }
        let widths = [
            1, 3, 4, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 80, 100, 160,
        ];
        // Both sides of a block boundary, of the wide-row scan's
        // threshold, and the featurized rows' width.
        let depths = [
            0,
            1,
            NNZ_BLOCK - 1,
            NNZ_BLOCK,
            NNZ_BLOCK + 1,
            WIDE_ROW - 1,
            WIDE_ROW + CHUNK + 3,
            983,
        ];
        let mut case = 0;
        for n in widths {
            for k in depths {
                for m in [0, 1, 2, 3, 8, 9] {
                    case += 1;
                    // Dense rows put the block boundary at `k`; sparse
                    // ones (the feature rows' shape) move it around.
                    let zero_share = [0, 4, 12][case % 3];
                    let mut a: Vec<f32> = (0..m * k).map(|_| value(&mut rng, zero_share)).collect();
                    // How the second row of each pair relates to the
                    // first: independent, the same zero pattern, the
                    // same pattern but for one position, or the
                    // opposite pattern everywhere.
                    let relation = (case / 3) % 4;
                    for pair in a.chunks_exact_mut(2 * k.max(1)) {
                        let (r0, r1) = pair.split_at_mut(k);
                        for (x0, x1) in r0.iter().zip(r1.iter_mut()) {
                            let same = match relation {
                                1 | 2 => true,
                                3 => false,
                                _ => continue,
                            };
                            let zero = (*x0 == 0.0) == same;
                            *x1 = if zero {
                                if rng.gen() {
                                    0.0
                                } else {
                                    -0.0
                                }
                            } else {
                                nonzero(&mut rng)
                            };
                        }
                        if relation == 2 && k > 0 {
                            let at = rng.gen_range(0..k);
                            r1[at] = if r0[at] == 0.0 {
                                nonzero(&mut rng)
                            } else {
                                0.0
                            };
                        }
                    }
                    if m > 1 && case % 5 == 0 {
                        a[k..2 * k].fill(0.0);
                    }
                    let b: Vec<f32> = (0..k * n).map(|_| value(&mut rng, 1)).collect();
                    // A product starts from zeros; the kernel's contract
                    // is `+=`, so a pre-filled `out` must work too.
                    let out0: Vec<f32> = if case % 4 == 0 {
                        (0..m * n).map(|_| value(&mut rng, 2)).collect()
                    } else {
                        vec![0.0; m * n]
                    };
                    assert_kernel_agrees(&a, m, k, &b, n, &out0);
                }
            }
        }
    }

    #[test]
    fn a_pair_keeps_one_rows_nans_and_signed_zeros_to_itself() {
        let (k, n) = (WIDE_ROW + 5, 37);
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 - 3.0).collect();
        // Two rows with one zero pattern, so they pair.
        let mut pattern = vec![0.0f32; 2 * k];
        for kk in (3..k).step_by(11) {
            pattern[kk] = 0.5 + (kk % 5) as f32;
            pattern[k + kk] = -1.25 - (kk % 3) as f32;
        }
        // A NaN in one row of a pair: that row's outputs are NaN, the
        // other row's are not.
        let mut a = pattern.clone();
        a[14] = f32::NAN;
        assert_kernel_agrees(&a, 2, k, &b, n, &vec![0.0; 2 * n]);
        let mut out = vec![0.0; 2 * n];
        matmul_into(&a, 2, k, &b, n, &mut out);
        assert!(out[..n].iter().all(|v| v.is_nan()));
        assert!(out[n..].iter().all(|v| !v.is_nan()));
        // Negative zeros in one row (its pattern is unchanged: the
        // skip) against a pre-filled `-0.0` out; then a row of `-0.0`
        // only beside a row with non-zeros, and two rows with nothing
        // to add.
        let mut a = pattern.clone();
        for x in a[..k].iter_mut().step_by(4).filter(|x| **x == 0.0) {
            *x = -0.0;
        }
        assert_kernel_agrees(&a, 2, k, &b, n, &vec![-0.0; 2 * n]);
        let mut a = pattern.clone();
        a[..k].fill(-0.0);
        assert_kernel_agrees(&a, 2, k, &b, n, &vec![-0.0; 2 * n]);
        let mut a = vec![-0.0f32; 2 * k];
        a[k..].fill(0.0);
        assert_kernel_agrees(&a, 2, k, &b, n, &vec![-0.0; 2 * n]);
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
