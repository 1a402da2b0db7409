//! Programs: buffers, iterators, computations, and the loop tree.
//!
//! A program follows the Tiramisu structure (§2 of the paper): an ordered
//! tree whose internal nodes are loop levels and whose leaves are
//! computations (assignments, stencils, reductions). The
//! [`ProgramBuilder`] offers an API close to the Tiramisu DSL: declare
//! iterators and buffers, then add computations whose enclosing loop nest
//! is the list of iterators, outermost first. Consecutive computations
//! that share a prefix of iterators share those loops in the tree.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::expr::{Access, AccessMatrix, BinOp, Expr};

/// Identifies a buffer within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BufferId(pub usize);

/// Identifies a computation within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CompId(pub usize);

/// Identifies a loop iterator within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IterId(pub usize);

/// A dense rectangular array of `f32`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Buffer {
    /// Human-readable name.
    pub name: String,
    /// Size of each dimension.
    pub dims: Vec<i64>,
    /// `true` for program inputs (never written).
    pub is_input: bool,
}

impl Buffer {
    /// Total number of elements.
    pub fn len(&self) -> i64 {
        self.dims.iter().product()
    }

    /// `true` when the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens a multi-dimensional index to a linear offset
    /// (row-major), clamping is *not* performed.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != dims.len()` or any index is out of range.
    pub fn offset(&self, idx: &[i64]) -> usize {
        assert_eq!(
            idx.len(),
            self.dims.len(),
            "index rank mismatch for {}",
            self.name
        );
        let mut off: i64 = 0;
        for (d, (&i, &n)) in idx.iter().zip(&self.dims).enumerate() {
            assert!(
                (0..n).contains(&i),
                "index {i} out of bounds for dim {d} (size {n}) of buffer {}",
                self.name
            );
            off = off * n + i;
        }
        off as usize
    }
}

/// A loop iterator with constant bounds `lower..upper`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Iter {
    /// Human-readable name.
    pub name: String,
    /// Inclusive lower bound.
    pub lower: i64,
    /// Exclusive upper bound.
    pub upper: i64,
}

impl Iter {
    /// Trip count of the loop.
    pub fn extent(&self) -> i64 {
        (self.upper - self.lower).max(0)
    }
}

/// Whether a computation overwrites or accumulates into its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompKind {
    /// `store = expr`.
    Assign,
    /// `store = store op expr` (e.g. `+=`); `op` must be associative.
    Reduce(BinOp),
}

/// A single assignment statement nested under a loop nest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Computation {
    /// Human-readable name.
    pub name: String,
    /// Enclosing loop iterators, outermost first. The computation's access
    /// matrices use these positions as their columns.
    pub iters: Vec<IterId>,
    /// Destination buffer access.
    pub store: Access,
    /// Right-hand-side expression.
    pub expr: Expr,
    /// Assignment or reduction.
    pub kind: CompKind,
    /// Levels (indices into `iters`) that are contracted by a reduction,
    /// i.e. do not appear in the store access.
    pub reduction_levels: Vec<usize>,
}

impl Computation {
    /// Loop depth of the computation.
    pub fn depth(&self) -> usize {
        self.iters.len()
    }

    /// All accesses: the store followed by every load.
    pub fn accesses(&self) -> Vec<&Access> {
        let mut v = vec![&self.store];
        v.extend(self.expr.loads());
        v
    }

    /// `true` if `level` is a reduction level.
    pub fn is_reduction_level(&self, level: usize) -> bool {
        self.reduction_levels.contains(&level)
    }
}

/// A node of the loop tree: either a nested loop or a computation leaf.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// A loop level.
    Loop(LoopNode),
    /// A computation leaf.
    Comp(CompId),
}

/// An internal node of the loop tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopNode {
    /// The iterator this loop binds.
    pub iter: IterId,
    /// Ordered children (inner loops and computations).
    pub children: Vec<TreeNode>,
}

/// A full program: the paper's unit of characterization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// All buffers, indexed by [`BufferId`].
    pub buffers: Vec<Buffer>,
    /// All iterators, indexed by [`IterId`].
    pub iters: Vec<Iter>,
    /// All computations, indexed by [`CompId`].
    pub comps: Vec<Computation>,
    /// Top-level loop nests in textual order.
    pub roots: Vec<TreeNode>,
}

impl Program {
    /// Looks up a buffer.
    pub fn buffer(&self, id: BufferId) -> &Buffer {
        &self.buffers[id.0]
    }

    /// Looks up an iterator.
    pub fn iter_of(&self, id: IterId) -> &Iter {
        &self.iters[id.0]
    }

    /// Looks up a computation.
    pub fn comp(&self, id: CompId) -> &Computation {
        &self.comps[id.0]
    }

    /// Extent of iterator `id`.
    pub fn extent(&self, id: IterId) -> i64 {
        self.iter_of(id).extent()
    }

    /// Number of computations.
    pub fn num_comps(&self) -> usize {
        self.comps.len()
    }

    /// Iterates over computation ids in textual order.
    pub fn comp_ids(&self) -> impl Iterator<Item = CompId> {
        (0..self.comps.len()).map(CompId)
    }

    /// Total iteration points across all computations (work size).
    pub fn total_points(&self) -> i64 {
        self.comps
            .iter()
            .map(|c| c.iters.iter().map(|&i| self.extent(i)).product::<i64>())
            .sum()
    }

    /// Maximum loop depth over all computations.
    pub fn max_depth(&self) -> usize {
        self.comps.iter().map(Computation::depth).max().unwrap_or(0)
    }

    /// Stable structural fingerprint of the buffers, iterators,
    /// computations, and loop tree — everything but [`Program::name`]:
    /// programs that merely share a name (generated programs, scaled
    /// benchmark builders) get distinct fingerprints, and two programs
    /// with identical content share one even when named apart. Random
    /// corpora re-draw small programs under different generated names —
    /// this is the key under which result caches and corpus dedup
    /// recognize them as the same workload.
    pub fn content_fingerprint(&self) -> u64 {
        crate::fingerprint::stable_fingerprint(&(
            &self.buffers,
            &self.iters,
            &self.comps,
            &self.roots,
        ))
    }

    /// Checks structural invariants, returning a description of the first
    /// violation.
    ///
    /// Verified invariants:
    /// - every computation's `iters` equals the loop path leading to its
    ///   leaf in the tree;
    /// - access matrices have the computation's depth and the buffer's rank;
    /// - input buffers are never written;
    /// - reduction levels are valid loop levels.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.comps.len()];
        let mut path = Vec::new();
        for root in &self.roots {
            self.validate_node(root, &mut path, &mut seen)?;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("computation {missing} is not in the tree"));
        }
        for (i, comp) in self.comps.iter().enumerate() {
            let depth = comp.depth();
            for access in comp.accesses() {
                if access.matrix.depth() != depth {
                    return Err(format!(
                        "computation {i} ({}) has an access of depth {} but loop depth {depth}",
                        comp.name,
                        access.matrix.depth()
                    ));
                }
                let buf = self.buffer(access.buffer);
                if access.matrix.dims() != buf.dims.len() {
                    return Err(format!(
                        "computation {i} accesses buffer {} with rank {} but the buffer has rank {}",
                        buf.name,
                        access.matrix.dims(),
                        buf.dims.len()
                    ));
                }
            }
            if self.buffer(comp.store.buffer).is_input {
                return Err(format!(
                    "computation {i} ({}) writes input buffer {}",
                    comp.name,
                    self.buffer(comp.store.buffer).name
                ));
            }
            for &lvl in &comp.reduction_levels {
                if lvl >= depth {
                    return Err(format!(
                        "computation {i} has reduction level {lvl} beyond depth {depth}"
                    ));
                }
            }
            if matches!(comp.kind, CompKind::Reduce(op) if !op.is_associative()) {
                return Err(format!("computation {i} reduces with a non-associative op"));
            }
        }
        Ok(())
    }

    fn validate_node(
        &self,
        node: &TreeNode,
        path: &mut Vec<IterId>,
        seen: &mut [bool],
    ) -> Result<(), String> {
        match node {
            TreeNode::Loop(l) => {
                if l.iter.0 >= self.iters.len() {
                    return Err(format!("loop references unknown iterator {:?}", l.iter));
                }
                path.push(l.iter);
                for c in &l.children {
                    self.validate_node(c, path, seen)?;
                }
                path.pop();
                Ok(())
            }
            TreeNode::Comp(id) => {
                let comp = self
                    .comps
                    .get(id.0)
                    .ok_or_else(|| format!("tree references unknown computation {:?}", id))?;
                if seen[id.0] {
                    return Err(format!("computation {:?} appears twice in the tree", id));
                }
                seen[id.0] = true;
                if comp.iters != *path {
                    return Err(format!(
                        "computation {} expects loop path {:?} but sits under {:?}",
                        comp.name, comp.iters, path
                    ));
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} {{", self.name)?;
        for root in &self.roots {
            self.fmt_node(f, root, 1)?;
        }
        write!(f, "}}")
    }
}

impl Program {
    fn fmt_node(&self, f: &mut fmt::Formatter<'_>, node: &TreeNode, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match node {
            TreeNode::Loop(l) => {
                let it = self.iter_of(l.iter);
                writeln!(f, "{pad}for {} in {}..{} {{", it.name, it.lower, it.upper)?;
                for c in &l.children {
                    self.fmt_node(f, c, indent + 1)?;
                }
                writeln!(f, "{pad}}}")
            }
            TreeNode::Comp(id) => {
                let c = self.comp(*id);
                let op = match c.kind {
                    CompKind::Assign => "=",
                    CompKind::Reduce(BinOp::Add) => "+=",
                    CompKind::Reduce(BinOp::Mul) => "*=",
                    CompKind::Reduce(_) => "op=",
                };
                writeln!(
                    f,
                    "{pad}{}[{}] {op} ...;",
                    self.buffer(c.store.buffer).name,
                    c.name
                )
            }
        }
    }
}

/// A symbolic affine index expression over iterators, used to build
/// [`AccessMatrix`] rows ergonomically.
///
/// # Examples
///
/// ```
/// use dlcm_ir::{LinExpr, ProgramBuilder};
/// let mut b = ProgramBuilder::new("p");
/// let i = b.iter("i", 0, 16);
/// let j = b.iter("j", 0, 16);
/// // index expression i + 2*j - 1
/// let e = LinExpr::from(i) + LinExpr::from(j) * 2 - 1;
/// assert_eq!(e.coef(j), 2);
/// assert_eq!(e.constant(), -1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinExpr {
    coefs: HashMap<IterId, i64>,
    cst: i64,
}

impl LinExpr {
    /// The constant expression `c`.
    pub fn constant_expr(c: i64) -> Self {
        Self {
            coefs: HashMap::new(),
            cst: c,
        }
    }

    /// Coefficient of iterator `it` (0 when absent).
    pub fn coef(&self, it: IterId) -> i64 {
        self.coefs.get(&it).copied().unwrap_or(0)
    }

    /// Constant term.
    pub fn constant(&self) -> i64 {
        self.cst
    }
}

impl From<IterId> for LinExpr {
    fn from(it: IterId) -> Self {
        let mut coefs = HashMap::new();
        coefs.insert(it, 1);
        Self { coefs, cst: 0 }
    }
}

impl std::ops::Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (it, c) in rhs.coefs {
            *self.coefs.entry(it).or_insert(0) += c;
        }
        self.cst += rhs.cst;
        self
    }
}

impl std::ops::Add<i64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: i64) -> LinExpr {
        self.cst += rhs;
        self
    }
}

impl std::ops::Sub<i64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: i64) -> LinExpr {
        self.cst -= rhs;
        self
    }
}

impl std::ops::Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: i64) -> LinExpr {
        for c in self.coefs.values_mut() {
            *c *= rhs;
        }
        self.cst *= rhs;
        self
    }
}

/// Incremental builder for [`Program`]s with a Tiramisu-flavoured API.
///
/// # Examples
///
/// A 2-D blur-like computation:
///
/// ```
/// use dlcm_ir::{BinOp, Expr, LinExpr, ProgramBuilder};
/// let mut b = ProgramBuilder::new("blur");
/// let i = b.iter("i", 0, 64);
/// let j = b.iter("j", 0, 64);
/// let input = b.input("in", &[66, 66]);
/// let out = b.buffer("out", &[64, 64]);
/// let load = |di, dj| {
///     b.access(input, &[LinExpr::from(i) + di, LinExpr::from(j) + dj], &[i, j])
/// };
/// let sum = Expr::binary(BinOp::Add, Expr::Load(load(0, 0)), Expr::Load(load(1, 1)));
/// b.assign("blur", &[i, j], out, &[LinExpr::from(i), LinExpr::from(j)], sum);
/// let program = b.build().unwrap();
/// assert_eq!(program.num_comps(), 1);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    buffers: Vec<Buffer>,
    iters: Vec<Iter>,
    comps: Vec<Computation>,
}

impl ProgramBuilder {
    /// Starts a new program.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Declares a loop iterator with bounds `lower..upper`.
    pub fn iter(&mut self, name: impl Into<String>, lower: i64, upper: i64) -> IterId {
        self.iters.push(Iter {
            name: name.into(),
            lower,
            upper,
        });
        IterId(self.iters.len() - 1)
    }

    /// Declares an input buffer.
    pub fn input(&mut self, name: impl Into<String>, dims: &[i64]) -> BufferId {
        self.buffers.push(Buffer {
            name: name.into(),
            dims: dims.to_vec(),
            is_input: true,
        });
        BufferId(self.buffers.len() - 1)
    }

    /// Declares a writable (output/temporary) buffer.
    pub fn buffer(&mut self, name: impl Into<String>, dims: &[i64]) -> BufferId {
        self.buffers.push(Buffer {
            name: name.into(),
            dims: dims.to_vec(),
            is_input: false,
        });
        BufferId(self.buffers.len() - 1)
    }

    /// Builds an access from per-dimension affine index expressions, in the
    /// loop context `iters` (outermost first).
    pub fn access(&self, buffer: BufferId, idx: &[LinExpr], iters: &[IterId]) -> Access {
        let depth = iters.len();
        let mut m = AccessMatrix::zero(idx.len(), depth);
        for (r, e) in idx.iter().enumerate() {
            for (p, it) in iters.iter().enumerate() {
                m.set(r, p, e.coef(*it));
            }
            m.set(r, depth, e.constant());
        }
        Access::new(buffer, m)
    }

    /// Adds an assignment `buffer[idx] = expr` nested under `iters`.
    pub fn assign(
        &mut self,
        name: impl Into<String>,
        iters: &[IterId],
        buffer: BufferId,
        idx: &[LinExpr],
        expr: Expr,
    ) -> CompId {
        let store = self.access(buffer, idx, iters);
        self.comps.push(Computation {
            name: name.into(),
            iters: iters.to_vec(),
            store,
            expr,
            kind: CompKind::Assign,
            reduction_levels: Vec::new(),
        });
        CompId(self.comps.len() - 1)
    }

    /// Adds a reduction `buffer[idx] op= expr` nested under `iters`.
    /// Reduction levels are inferred: loop levels whose iterator does not
    /// appear in the store index.
    pub fn reduce(
        &mut self,
        name: impl Into<String>,
        iters: &[IterId],
        op: BinOp,
        buffer: BufferId,
        idx: &[LinExpr],
        expr: Expr,
    ) -> CompId {
        let store = self.access(buffer, idx, iters);
        let reduction_levels = (0..iters.len())
            .filter(|&lvl| store.matrix.is_invariant_to(lvl))
            .collect();
        self.comps.push(Computation {
            name: name.into(),
            iters: iters.to_vec(),
            store,
            expr,
            kind: CompKind::Reduce(op),
            reduction_levels,
        });
        CompId(self.comps.len() - 1)
    }

    /// Finalizes the program, constructing the loop tree by merging the
    /// shared iterator prefixes of consecutive computations (Tiramisu
    /// textual order).
    ///
    /// # Errors
    ///
    /// Returns the first structural-validation failure.
    pub fn build(self) -> Result<Program, String> {
        let mut roots: Vec<TreeNode> = Vec::new();
        for (i, comp) in self.comps.iter().enumerate() {
            Self::insert_comp(&mut roots, &comp.iters, CompId(i));
        }
        let p = Program {
            name: self.name,
            buffers: self.buffers,
            iters: self.iters,
            comps: self.comps,
            roots,
        };
        p.validate()?;
        Ok(p)
    }

    /// Inserts a computation into the forest, sharing loops with the
    /// *last* sibling at each level when the iterator matches.
    fn insert_comp(nodes: &mut Vec<TreeNode>, path: &[IterId], id: CompId) {
        match path.split_first() {
            None => nodes.push(TreeNode::Comp(id)),
            Some((&first, rest)) => {
                if let Some(TreeNode::Loop(l)) = nodes.last_mut() {
                    if l.iter == first {
                        Self::insert_comp(&mut l.children, rest, id);
                        return;
                    }
                }
                let mut l = LoopNode {
                    iter: first,
                    children: Vec::new(),
                };
                Self::insert_comp(&mut l.children, rest, id);
                nodes.push(TreeNode::Loop(l));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_program() -> Program {
        let mut b = ProgramBuilder::new("t");
        let i = b.iter("i", 0, 8);
        let j = b.iter("j", 0, 4);
        let inp = b.input("in", &[8, 4]);
        let out = b.buffer("out", &[8, 4]);
        let load = b.access(inp, &[LinExpr::from(i), LinExpr::from(j)], &[i, j]);
        b.assign(
            "c0",
            &[i, j],
            out,
            &[LinExpr::from(i), LinExpr::from(j)],
            Expr::Load(load),
        );
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_program() {
        let p = simple_program();
        assert!(p.validate().is_ok());
        assert_eq!(p.total_points(), 32);
        assert_eq!(p.max_depth(), 2);
    }

    #[test]
    fn shared_prefix_merges_loops() {
        let mut b = ProgramBuilder::new("t");
        let i = b.iter("i", 0, 8);
        let j = b.iter("j", 0, 4);
        let k = b.iter("k", 0, 2);
        let out = b.buffer("out", &[8, 4]);
        let out2 = b.buffer("out2", &[8, 2]);
        b.assign(
            "a",
            &[i, j],
            out,
            &[LinExpr::from(i), LinExpr::from(j)],
            Expr::Const(1.0),
        );
        b.assign(
            "b",
            &[i, k],
            out2,
            &[LinExpr::from(i), LinExpr::from(k)],
            Expr::Const(2.0),
        );
        let p = b.build().unwrap();
        // One root loop (i) containing two inner loops (j, k).
        assert_eq!(p.roots.len(), 1);
        let TreeNode::Loop(root) = &p.roots[0] else {
            panic!()
        };
        assert_eq!(root.children.len(), 2);
    }

    #[test]
    fn separate_nests_stay_separate() {
        let mut b = ProgramBuilder::new("t");
        let i = b.iter("i", 0, 8);
        let i2 = b.iter("i2", 0, 8);
        let o1 = b.buffer("o1", &[8]);
        let o2 = b.buffer("o2", &[8]);
        b.assign("a", &[i], o1, &[LinExpr::from(i)], Expr::Const(0.0));
        b.assign("b", &[i2], o2, &[LinExpr::from(i2)], Expr::Const(0.0));
        let p = b.build().unwrap();
        assert_eq!(p.roots.len(), 2);
    }

    #[test]
    fn reduction_levels_inferred() {
        let mut b = ProgramBuilder::new("t");
        let i = b.iter("i", 0, 8);
        let k = b.iter("k", 0, 16);
        let inp = b.input("in", &[8, 16]);
        let out = b.buffer("out", &[8]);
        let load = b.access(inp, &[LinExpr::from(i), LinExpr::from(k)], &[i, k]);
        let c = b.reduce(
            "r",
            &[i, k],
            BinOp::Add,
            out,
            &[LinExpr::from(i)],
            Expr::Load(load),
        );
        let p = b.build().unwrap();
        assert_eq!(p.comp(c).reduction_levels, vec![1]);
        assert!(p.comp(c).is_reduction_level(1));
        assert!(!p.comp(c).is_reduction_level(0));
    }

    #[test]
    fn writing_input_is_rejected() {
        let mut b = ProgramBuilder::new("t");
        let i = b.iter("i", 0, 8);
        let inp = b.input("in", &[8]);
        b.assign("bad", &[i], inp, &[LinExpr::from(i)], Expr::Const(0.0));
        assert!(b.build().is_err());
    }

    #[test]
    fn buffer_offset_row_major() {
        let buf = Buffer {
            name: "b".into(),
            dims: vec![2, 3, 4],
            is_input: false,
        };
        assert_eq!(buf.offset(&[0, 0, 0]), 0);
        assert_eq!(buf.offset(&[1, 2, 3]), 23);
        assert_eq!(buf.offset(&[0, 1, 0]), 4);
        assert_eq!(buf.len(), 24);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn buffer_offset_bounds_checked() {
        let buf = Buffer {
            name: "b".into(),
            dims: vec![2, 2],
            is_input: false,
        };
        buf.offset(&[2, 0]);
    }

    #[test]
    fn linexpr_arithmetic() {
        let i = IterId(0);
        let j = IterId(1);
        let e = LinExpr::from(i) + LinExpr::from(j) * 3 + 5;
        assert_eq!(e.coef(i), 1);
        assert_eq!(e.coef(j), 3);
        assert_eq!(e.constant(), 5);
        let e2 = e - 2;
        assert_eq!(e2.constant(), 3);
    }

    #[test]
    fn display_renders_tree() {
        let p = simple_program();
        let s = format!("{p}");
        assert!(s.contains("for i in 0..8"));
        assert!(s.contains("for j in 0..4"));
    }

    #[test]
    fn serde_roundtrip() {
        let p = simple_program();
        let json = serde_json::to_string(&p).unwrap();
        let back: Program = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
