//! Dense 2-D tensor with cheap (reference-counted) clones.
//!
//! All values flowing through the autodiff [`crate::tape::Tape`] are
//! `f32` matrices in row-major order. Vectors are represented as `1 x n`
//! matrices, scalars as `1 x 1`. The backing storage is an [`Arc`] so that
//! binding model parameters into a per-sample tape does not copy weights.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A dense row-major `rows x cols` matrix of `f32`.
///
/// Cloning is O(1): the backing buffer is shared until mutated
/// (copy-on-write through [`Arc::make_mut`]).
///
/// # Examples
///
/// ```
/// use dlcm_tensor::Tensor;
/// let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(t.shape(), (2, 2));
/// assert_eq!(t.get(1, 0), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Arc<Vec<f32>>,
}

/// Side of the square tiles [`Tensor::transpose`] copies.
const TRANSPOSE_TILE: usize = 16;

/// How many elements [`Tensor::norm`] tests for "all zero" at once.
const NORM_BLOCK: usize = 32;

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: Arc::new(vec![0.0; rows * cols]),
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a tensor where every element is `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: Arc::new(vec![value; rows * cols]),
        }
    }

    /// Creates a tensor from a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data: Arc::new(data),
        }
    }

    /// Creates a `1 x n` row vector.
    pub fn row(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self::from_vec(1, cols, data)
    }

    /// Creates a `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Creates a tensor from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "at least one row is required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Returns `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        let cols = self.cols;
        Arc::make_mut(&mut self.data)[r * cols + c] = v;
    }

    /// Returns the single element of a `1 x 1` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.len(),
            1,
            "item() requires a 1x1 tensor, got {:?}",
            self.shape()
        );
        self.data[0]
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (copy-on-write).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut Arc::make_mut(&mut self.data)[..]
    }

    /// Read-only view of row `r`.
    pub fn row_slice(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self x other`, through the crate's one product
    /// kernel ([`crate::kernel::matmul_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];
        // The inner loop lives in `kernel::matmul_into`, shared with the
        // arena inference path so tape and SoA products cannot drift.
        crate::kernel::matmul_into(&self.data, m, k, &other.data, n, &mut out);
        Tensor::from_vec(m, n, out)
    }

    /// Matrix product `selfᵀ x other` (the backward pass's `Aᵀ x g`).
    ///
    /// Transposes `self` once and runs the shared
    /// [`crate::kernel::matmul_into`]: each output element sums its
    /// products in ascending order over the shared dimension from
    /// `+0.0`, skipping the zeros of `self` — exactly what a traversal
    /// of the untransposed `self` evaluates (the test-only reference),
    /// so the two are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows,
            other.rows,
            "t_matmul shape mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            other.shape()
        );
        self.transpose().matmul(other)
    }

    /// Returns the transposed matrix. Copied tile by tile
    /// (`TRANSPOSE_TILE` square), so both the rows read and the rows
    /// written stay in cache instead of one side striding through the
    /// whole matrix per element.
    pub fn transpose(&self) -> Tensor {
        let (rows, cols) = (self.rows, self.cols);
        let mut out = vec![0.0f32; self.len()];
        for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
            let r1 = (r0 + TRANSPOSE_TILE).min(rows);
            for c0 in (0..cols).step_by(TRANSPOSE_TILE) {
                let c1 = (c0 + TRANSPOSE_TILE).min(cols);
                for r in r0..r1 {
                    let src = &self.data[r * cols + c0..r * cols + c1];
                    for (c, &v) in (c0..c1).zip(src) {
                        out[c * rows + r] = v;
                    }
                }
            }
        }
        Tensor::from_vec(cols, rows, out)
    }

    /// Identity of the shared backing buffer: equal for a tensor and its
    /// clones (until one is written to), distinct for any two buffers
    /// alive at the same time.
    pub(crate) fn buffer_id(&self) -> *const Vec<f32> {
        Arc::as_ptr(&self.data)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&x| f(x)).collect(),
        )
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Tensor::from_vec(
            self.rows,
            self.cols,
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        let dst = self.as_mut_slice();
        for (d, &s) in dst.iter_mut().zip(other.data.iter()) {
            *d += scale * s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Column sums as a `1 x cols` row vector.
    pub fn col_sum(&self) -> Tensor {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row_slice(r)) {
                *o += v;
            }
        }
        Tensor::row(out)
    }

    /// L2 norm of all elements: the square root of their squares summed
    /// one at a time, in order, from `+0.0`.
    ///
    /// A gradient is mostly exact zeros (a batch touches a few dozen of
    /// the ~1 000 feature columns, so most rows of the first layer's
    /// gradient are empty) and the sum is a latency-bound chain of
    /// dependent additions, so blocks of `NORM_BLOCK` elements that
    /// are all `±0.0` are found with one vectorisable OR of their
    /// magnitudes' bits and skipped. A sum of squares is never negative,
    /// so the `+0.0` squares left out would not have changed it: the
    /// result is the plain loop's, bit for bit.
    pub fn norm(&self) -> f32 {
        let mut acc = 0.0f32;
        for block in self.data.chunks(NORM_BLOCK) {
            let magnitudes = block
                .iter()
                .fold(0u32, |m, x| m | (x.to_bits() & 0x7fff_ffff));
            if magnitudes != 0 {
                for &x in block {
                    acc += x * x;
                }
            }
        }
        acc.sqrt()
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Stacks `1 x n` row vectors into an `m x n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or widths differ.
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows requires at least one row");
        let cols = rows[0].cols;
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.rows, 1, "stack_rows expects 1 x n tensors");
            assert_eq!(r.cols, cols, "stack_rows width mismatch");
            data.extend_from_slice(r.as_slice());
        }
        Tensor::from_vec(rows.len(), cols, data)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{}", self.rows, self.cols)?;
        if self.len() <= 8 {
            write!(f, ", {:?}", self.as_slice())?;
        } else {
            write!(
                f,
                ", [{:.4}, {:.4}, ... ; norm={:.4}]",
                self.data[0],
                self.data[1],
                self.norm()
            )?;
        }
        write!(f, ")")
    }
}

impl Serialize for Tensor {
    fn write_json(&self, w: &mut serde::json::Writer) {
        w.begin_object();
        w.field("rows", &self.rows);
        w.field("cols", &self.cols);
        w.field("data", self.data.as_ref());
        w.end_object();
    }
}

/// What a [`Tensor`] is on disk, before its shape is checked.
#[derive(Deserialize)]
struct StoredTensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Deserialize for Tensor {
    fn from_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::Error> {
        let StoredTensor { rows, cols, data } = StoredTensor::from_json(p)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::Error::msg("tensor buffer/shape mismatch"));
        }
        Ok(Tensor::from_vec(rows, cols, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(2, 3).sum(), 0.0);
        assert_eq!(Tensor::ones(2, 3).sum(), 6.0);
        assert_eq!(Tensor::full(2, 2, 2.5).sum(), 10.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let id = Tensor::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[1.0, -1.0], &[0.5, 2.0], &[3.0, 0.0]]);
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    /// The row-by-row dot product the backward pass's `g x Bᵀ` used to
    /// be: one scalar accumulator per output element, `k` ascending from
    /// `+0.0`. Kept as the reference the transpose-then-kernel form must
    /// match bit for bit.
    fn dot_product_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows, a.cols, b.rows);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.data[i * k + kk] * b.data[j * k + kk];
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(m, n, out)
    }

    /// The in-place traversal `t_matmul` used to be: `k` outermost, one
    /// read-modify-write of an output row per non-zero `a[k][i]`. Kept
    /// as the reference the kernel-backed body must match bit for bit.
    fn t_matmul_loop_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.cols, a.rows, b.cols);
        let mut out = vec![0.0f32; m * n];
        for kk in 0..k {
            let arow = &a.data[kk * m..(kk + 1) * m];
            let brow = &b.data[kk * n..(kk + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(m, n, out)
    }

    /// Mostly dense values, with exact zeros of both signs mixed in and,
    /// on request, every other row zeroed.
    fn random_with_zeros(
        rng: &mut rand_chacha::ChaCha8Rng,
        rows: usize,
        cols: usize,
        zero_rows: bool,
    ) -> Tensor {
        use rand::Rng;
        let mut t = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let zero_row = zero_rows && r % 2 == 0;
            for c in 0..cols {
                let v = match rng.gen_range(0..8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0f32..2.0),
                };
                let v = if zero_row { 0.0 } else { v };
                t.set(r, c, v);
            }
        }
        t
    }

    /// `(m, k, n)` triples: degenerate edges, one backward-pass-sized
    /// product, and a sweep of small odd shapes.
    fn product_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![(1, 1, 1), (1, 7, 5), (4, 1, 3), (5, 9, 1), (31, 160, 100)];
        for i in 0..24 {
            shapes.push((1 + i % 6, 1 + (i * 7) % 23, 1 + (i * 5) % 17));
        }
        shapes
    }

    fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: {g} vs {w}");
        }
    }

    #[test]
    fn matmul_by_a_transpose_is_bit_identical_to_the_dot_product_loop() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(16);
        for (case, &(m, k, n)) in product_shapes().iter().enumerate() {
            let a = random_with_zeros(&mut rng, m, k, case % 3 == 0);
            let b = random_with_zeros(&mut rng, n, k, case % 4 == 0);
            assert_same_bits(
                &a.matmul(&b.transpose()),
                &dot_product_reference(&a, &b),
                &format!("{m}x{k} · ({n}x{k})ᵀ"),
            );
        }
        // All-negative-zero operands: the dot product ends on +0.0, and
        // so must the zero-skipping kernel.
        let neg = Tensor::full(2, 3, -0.0);
        let out = neg.matmul(&Tensor::full(4, 3, 1.5).transpose());
        assert!(out
            .as_slice()
            .iter()
            .all(|v| v.to_bits() == 0.0f32.to_bits()));
    }

    #[test]
    fn t_matmul_is_bit_identical_to_the_in_place_loop() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(18);
        for (case, &(m, k, n)) in product_shapes().iter().enumerate() {
            // `a` is `k x m`: zeroed rows of `a` are zeroed *columns* of
            // `aᵀ`, the batch rows a sparse feature column leaves empty.
            let a = random_with_zeros(&mut rng, k, m, case % 3 == 0);
            let b = random_with_zeros(&mut rng, k, n, case % 4 == 0);
            assert_same_bits(
                &a.t_matmul(&b),
                &t_matmul_loop_reference(&a, &b),
                &format!("({k}x{m})ᵀ · {k}x{n}"),
            );
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_moves_every_element_at_every_tile_remainder() {
        for (rows, cols) in [
            (0, 3),
            (1, 1),
            (1, 40),
            (15, 17),
            (16, 16),
            (33, 50),
            (160, 7),
        ] {
            let a = Tensor::from_vec(rows, cols, (0..rows * cols).map(|i| i as f32).collect());
            let t = a.transpose();
            assert_eq!(t.shape(), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t.get(c, r), a.get(r, c), "{rows}x{cols} at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn norm_is_bit_identical_to_the_plain_sum_of_squares() {
        use rand::{Rng, SeedableRng};
        let plain = |v: &[f32]| {
            let mut acc = 0.0f32;
            for &x in v {
                acc += x * x;
            }
            acc.sqrt()
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(20);
        let mut cases: Vec<Vec<f32>> = vec![
            vec![],
            vec![0.0; 100],
            vec![-0.0; 100],
            // Subnormals: not zeros, though their squares are.
            vec![1e-40; 70],
            (0..70)
                .map(|i| if i % 2 == 0 { -0.0 } else { 1e-42 })
                .collect(),
        ];
        for len in [1, 31, 32, 33, 64, 1000] {
            // Dense, then sparse the way a first-layer gradient is:
            // whole runs of zeros of both signs between a few values.
            cases.push((0..len).map(|_| rng.gen_range(-3.0f32..3.0)).collect());
            cases.push(
                (0..len)
                    .map(|i| match (i / 40) % 3 {
                        0 => rng.gen_range(-3.0f32..3.0),
                        1 => 0.0,
                        _ => -0.0,
                    })
                    .collect(),
            );
        }
        for v in cases {
            let want = plain(&v);
            let got = Tensor::row(v).norm();
            assert_eq!(got.to_bits(), want.to_bits(), "{got:e} vs {want:e}");
        }
    }

    #[test]
    fn col_sum_sums_columns() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col_sum().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let a = Tensor::zeros(2, 2);
        let mut b = a.clone();
        b.set(0, 0, 5.0);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(b.get(0, 0), 5.0);
    }

    #[test]
    fn stack_rows_concatenates() {
        let r1 = Tensor::row(vec![1.0, 2.0]);
        let r2 = Tensor::row(vec![3.0, 4.0]);
        let s = Tensor::stack_rows(&[r1, r2]);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn serde_roundtrip() {
        let a = Tensor::from_rows(&[&[1.5, -2.0], &[0.0, 4.25]]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn item_and_scalar() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::ones(1, 3);
        let b = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]);
        a.add_scaled(&b, 2.0);
        assert_eq!(a.as_slice(), &[3.0, 5.0, 7.0]);
    }
}
