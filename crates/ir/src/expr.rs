//! Expressions and affine memory accesses.
//!
//! Array accesses use the polyhedral access-matrix format of the paper
//! (§4.1): a `k x (n+1)` integer matrix where `k` is the number of buffer
//! dimensions and `n` the loop depth; each row is a linear combination of
//! the loop iterators plus a constant (last column).

use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use crate::program::BufferId;

/// Binary arithmetic operators available in computation bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Maximum (used for ReLU-style expressions).
    Max,
    /// Minimum.
    Min,
}

impl BinOp {
    /// Applies the operator to two values.
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Max => a.max(b),
            BinOp::Min => a.min(b),
        }
    }

    /// `true` for operators that are associative and commutative, i.e.
    /// valid reduction operators whose loops may be reordered.
    pub fn is_associative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::Max | BinOp::Min)
    }

    /// Identity element for reductions (`x op identity == x`).
    ///
    /// # Panics
    ///
    /// Panics for non-associative operators.
    pub fn identity(self) -> f32 {
        match self {
            BinOp::Add => 0.0,
            BinOp::Mul => 1.0,
            BinOp::Max => f32::NEG_INFINITY,
            BinOp::Min => f32::INFINITY,
            _ => panic!("{self:?} is not a reduction operator"),
        }
    }
}

/// The affine access matrix of the paper: `dims x (depth + 1)` integers.
///
/// Column `p < depth` holds the coefficient of the `p`-th enclosing loop
/// iterator (outermost first); the final column holds the constant.
///
/// # Examples
///
/// The access `A[i0, i0 + i1, i1 - 2]` at depth 2:
///
/// ```
/// use dlcm_ir::AccessMatrix;
/// let m = AccessMatrix::from_rows(2, &[
///     vec![1, 0, 0],
///     vec![1, 1, 0],
///     vec![0, 1, -2],
/// ]);
/// assert_eq!(m.eval(&[3, 5]), vec![3, 8, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AccessMatrix {
    dims: usize,
    depth: usize,
    /// Row-major `dims x (depth + 1)`.
    data: Vec<i64>,
}

impl AccessMatrix {
    /// Creates a zero matrix for `dims` buffer dimensions at loop `depth`.
    pub fn zero(dims: usize, depth: usize) -> Self {
        Self {
            dims,
            depth,
            data: vec![0; dims * (depth + 1)],
        }
    }

    /// Builds a matrix from explicit rows (each of length `depth + 1`).
    ///
    /// # Panics
    ///
    /// Panics if row lengths are inconsistent.
    pub fn from_rows(depth: usize, rows: &[Vec<i64>]) -> Self {
        let mut m = Self::zero(rows.len(), depth);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), depth + 1, "row {r} must have depth+1 entries");
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    /// The identity access `B[i0, i1, ..]` mapping the first `dims` loop
    /// iterators directly to buffer dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims > depth`.
    pub fn identity(dims: usize, depth: usize) -> Self {
        assert!(dims <= depth, "identity access needs dims <= depth");
        let mut m = Self::zero(dims, depth);
        for d in 0..dims {
            m.set(d, d, 1);
        }
        m
    }

    /// Number of buffer dimensions (rows).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Loop depth (columns minus the constant column).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Coefficient at row `r`, column `c` (`c == depth` is the constant).
    pub fn get(&self, r: usize, c: usize) -> i64 {
        assert!(r < self.dims && c <= self.depth, "({r},{c}) out of bounds");
        self.data[r * (self.depth + 1) + c]
    }

    /// Sets the coefficient at `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: i64) {
        assert!(r < self.dims && c <= self.depth, "({r},{c}) out of bounds");
        self.data[r * (self.depth + 1) + c] = v;
    }

    /// Constant column entry of row `r`.
    pub fn constant(&self, r: usize) -> i64 {
        self.get(r, self.depth)
    }

    /// Linear coefficients of row `r` (without the constant).
    pub fn linear_row(&self, r: usize) -> &[i64] {
        &self.data[r * (self.depth + 1)..r * (self.depth + 1) + self.depth]
    }

    /// Evaluates the access at concrete iterator values, returning one
    /// index per buffer dimension.
    ///
    /// # Panics
    ///
    /// Panics if `iters.len() != depth`.
    pub fn eval(&self, iters: &[i64]) -> Vec<i64> {
        assert_eq!(iters.len(), self.depth, "iterator vector length mismatch");
        (0..self.dims)
            .map(|r| {
                self.linear_row(r)
                    .iter()
                    .zip(iters)
                    .map(|(&c, &i)| c * i)
                    .sum::<i64>()
                    + self.constant(r)
            })
            .collect()
    }

    /// `true` when the linear parts of `self` and `other` are identical
    /// (the accesses differ only by constant offsets — a *uniform* pair,
    /// which yields constant dependence distances).
    pub fn same_linear_part(&self, other: &AccessMatrix) -> bool {
        self.dims == other.dims
            && self.depth == other.depth
            && (0..self.dims).all(|r| self.linear_row(r) == other.linear_row(r))
    }

    /// Coefficient of loop `level` summed over rows weighted by nothing —
    /// returns the per-row coefficients of a given loop level.
    pub fn level_coefs(&self, level: usize) -> Vec<i64> {
        (0..self.dims).map(|r| self.get(r, level)).collect()
    }

    /// `true` if loop `level` does not appear in the access at all
    /// (zero coefficient in every row).
    pub fn is_invariant_to(&self, level: usize) -> bool {
        self.level_coefs(level).iter().all(|&c| c == 0)
    }
}

/// A buffer access: which buffer, through which affine matrix.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Access {
    /// Accessed buffer.
    pub buffer: BufferId,
    /// Affine index expression.
    pub matrix: AccessMatrix,
}

impl Access {
    /// Convenience constructor.
    pub fn new(buffer: BufferId, matrix: AccessMatrix) -> Self {
        Self { buffer, matrix }
    }
}

/// Right-hand-side expression of a computation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A floating-point literal.
    Const(f32),
    /// A buffer load through an affine access.
    Load(Access),
    /// Negation of a subexpression.
    Neg(Box<Expr>),
    /// Binary arithmetic.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

/// Hashed by structure: a tag per variant, then the payload, with a
/// constant by its bits (`f32` is not `Hash`). Keys therefore follow
/// [`crate::Program::content_fingerprint`]'s notion of equality — `-0.0`
/// and `0.0` differ, as their `Debug` renderings do — not `==` on floats.
impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Expr::Const(c) => {
                state.write_u8(0);
                c.to_bits().hash(state);
            }
            Expr::Load(a) => {
                state.write_u8(1);
                a.hash(state);
            }
            Expr::Neg(e) => {
                state.write_u8(2);
                e.hash(state);
            }
            Expr::Binary(op, l, r) => {
                state.write_u8(3);
                op.hash(state);
                l.hash(state);
                r.hash(state);
            }
        }
    }
}

impl Expr {
    /// Builds `lhs op rhs`.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Builds a load expression.
    pub fn load(buffer: BufferId, matrix: AccessMatrix) -> Expr {
        Expr::Load(Access::new(buffer, matrix))
    }

    /// Collects every load access in evaluation order.
    pub fn loads(&self) -> Vec<&Access> {
        let mut out = Vec::new();
        self.collect_loads(&mut out);
        out
    }

    fn collect_loads<'a>(&'a self, out: &mut Vec<&'a Access>) {
        match self {
            Expr::Const(_) => {}
            Expr::Load(a) => out.push(a),
            Expr::Neg(e) => e.collect_loads(out),
            Expr::Binary(_, l, r) => {
                l.collect_loads(out);
                r.collect_loads(out);
            }
        }
    }

    /// Counts each arithmetic operator, in the paper's Table 1 order:
    /// `[additions, multiplications, subtractions, divisions]`
    /// (`Max`/`Min` count as additions for costing purposes).
    pub fn op_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        self.accumulate_ops(&mut counts);
        counts
    }

    fn accumulate_ops(&self, counts: &mut [usize; 4]) {
        match self {
            Expr::Const(_) | Expr::Load(_) => {}
            Expr::Neg(e) => {
                counts[2] += 1;
                e.accumulate_ops(counts);
            }
            Expr::Binary(op, l, r) => {
                match op {
                    BinOp::Add | BinOp::Max | BinOp::Min => counts[0] += 1,
                    BinOp::Mul => counts[1] += 1,
                    BinOp::Sub => counts[2] += 1,
                    BinOp::Div => counts[3] += 1,
                }
                l.accumulate_ops(counts);
                r.accumulate_ops(counts);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_matrix() {
        // A[i0, i0 + i1, i1 - 2] from §4.1 of the paper.
        let m = AccessMatrix::from_rows(2, &[vec![1, 0, 0], vec![1, 1, 0], vec![0, 1, -2]]);
        assert_eq!(m.dims(), 3);
        assert_eq!(m.depth(), 2);
        assert_eq!(m.eval(&[4, 7]), vec![4, 11, 5]);
        assert_eq!(m.constant(2), -2);
    }

    #[test]
    fn identity_maps_iterators() {
        let m = AccessMatrix::identity(3, 4);
        assert_eq!(m.eval(&[2, 3, 5, 7]), vec![2, 3, 5]);
    }

    #[test]
    fn uniform_pair_detected() {
        let w = AccessMatrix::identity(2, 2);
        let mut r = AccessMatrix::identity(2, 2);
        r.set(0, 2, -1); // A[i-1, j]
        assert!(w.same_linear_part(&r));
        let mut skew = AccessMatrix::identity(2, 2);
        skew.set(0, 1, 1); // A[i + j, j]
        assert!(!w.same_linear_part(&skew));
    }

    #[test]
    fn invariance_checks() {
        let mut m = AccessMatrix::zero(1, 3);
        m.set(0, 1, 1);
        assert!(m.is_invariant_to(0));
        assert!(!m.is_invariant_to(1));
        assert!(m.is_invariant_to(2));
    }

    #[test]
    fn op_counts_follow_table1_order() {
        // a*b + c - d/e  => 1 add, 1 mul, 1 sub, 1 div
        let a = Expr::Const(1.0);
        let e = Expr::binary(
            BinOp::Sub,
            Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::Mul, a.clone(), a.clone()),
                a.clone(),
            ),
            Expr::binary(BinOp::Div, a.clone(), a),
        );
        assert_eq!(e.op_counts(), [1, 1, 1, 1]);
    }

    #[test]
    fn loads_collected_in_order() {
        let b0 = BufferId(0);
        let b1 = BufferId(1);
        let e = Expr::binary(
            BinOp::Mul,
            Expr::load(b0, AccessMatrix::identity(1, 2)),
            Expr::load(b1, AccessMatrix::identity(2, 2)),
        );
        let loads = e.loads();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].buffer, b0);
        assert_eq!(loads[1].buffer, b1);
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Max.apply(2.0, 3.0), 3.0);
        assert!(BinOp::Add.is_associative());
        assert!(!BinOp::Sub.is_associative());
        assert_eq!(BinOp::Add.identity(), 0.0);
        assert_eq!(BinOp::Mul.identity(), 1.0);
    }
}
