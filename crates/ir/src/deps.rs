//! Dependence analysis.
//!
//! The paper relies on Tiramisu's polyhedral machinery to check that a
//! candidate schedule preserves program semantics. This module implements
//! the subset needed for the transformations the model covers: *uniform*
//! dependences (constant distance vectors, which is what assignments,
//! stencils, and reductions produce) are solved exactly; anything else is
//! treated conservatively as an unknown-direction dependence.

use serde::{Deserialize, Serialize};

use crate::expr::AccessMatrix;
use crate::program::{BufferId, CompId, CompKind, Computation, Program};

/// Classification of a dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DepKind {
    /// Write then read (true dependence).
    Flow,
    /// Read then write.
    Anti,
    /// Write then write.
    Output,
}

/// One component of a dependence distance vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dist {
    /// Constant distance at this loop level.
    Exact(i64),
    /// Unknown/any distance (the level does not determine the access).
    Star,
}

impl Dist {
    /// `true` when the component is exactly zero.
    pub fn is_zero(self) -> bool {
        matches!(self, Dist::Exact(0))
    }

    /// Negated component (`Star` stays `Star`).
    pub fn negate(self) -> Dist {
        match self {
            Dist::Exact(v) => Dist::Exact(-v),
            Dist::Star => Dist::Star,
        }
    }

    /// `true` when the component could be negative.
    pub fn may_be_negative(self) -> bool {
        match self {
            Dist::Exact(v) => v < 0,
            Dist::Star => true,
        }
    }
}

/// A dependence between two computations (possibly the same one).
///
/// `distance[l]` is `dst_iteration[l] - src_iteration[l]` over the common
/// loop prefix of the two computations; `None` means the accesses are not
/// uniform and nothing is known about the direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dependence {
    /// Source computation (textually first).
    pub src: CompId,
    /// Destination computation.
    pub dst: CompId,
    /// Dependence class.
    pub kind: DepKind,
    /// Buffer through which the dependence flows.
    pub buffer: BufferId,
    /// Distance vector over the common loop prefix, if uniform.
    pub distance: Option<Vec<Dist>>,
    /// Number of common loop levels between `src` and `dst`.
    pub common_depth: usize,
    /// `true` when the dependence stems from an associative reduction's
    /// accumulation and its loops may therefore be freely reordered
    /// (floating-point reassociation accepted, as the paper's compilers do).
    pub reorderable: bool,
}

impl Dependence {
    /// `true` when the dependence is carried by loop `level` or an inner
    /// level could violate it: i.e. the distance is zero at every level
    /// before `level` and possibly non-zero at `level`.
    pub fn carried_at_or_unknown(&self, level: usize) -> bool {
        match &self.distance {
            None => true,
            Some(d) => {
                if level >= d.len() {
                    // Dependence lives entirely in the common prefix above.
                    return false;
                }
                for comp in &d[..level] {
                    match comp {
                        Dist::Exact(v) if *v > 0 => return false, // carried outside
                        Dist::Exact(0) => {}
                        _ => return true, // could be carried here or unknown
                    }
                }
                !d[level].is_zero()
            }
        }
    }
}

/// Number of leading loop levels shared by two computations (identical
/// [`crate::program::IterId`]s from the outside in).
pub fn common_depth(a: &Computation, b: &Computation) -> usize {
    a.iters
        .iter()
        .zip(&b.iters)
        .take_while(|(x, y)| x == y)
        .count()
}

/// Lexicographic sign of a distance vector: `Less` when the first
/// non-zero exact component is negative, `Greater` when positive,
/// `Equal` when all components are exactly zero, `None` when a `Star`
/// appears before any sign is determined (ambiguous).
fn lex_sign(d: &[Dist]) -> Option<std::cmp::Ordering> {
    for c in d {
        match c {
            Dist::Exact(0) => {}
            Dist::Exact(v) if *v > 0 => return Some(std::cmp::Ordering::Greater),
            Dist::Exact(_) => return Some(std::cmp::Ordering::Less),
            Dist::Star => return None,
        }
    }
    Some(std::cmp::Ordering::Equal)
}

fn flip_kind(kind: DepKind) -> DepKind {
    match kind {
        DepKind::Flow => DepKind::Anti,
        DepKind::Anti => DepKind::Flow,
        DepKind::Output => DepKind::Output,
    }
}

/// Result of trying to solve a uniform access pair for its distance.
enum Solve {
    /// Constant distance vector over `common` levels.
    Uniform(Vec<Dist>),
    /// Accesses can never touch the same element.
    NoAlias,
    /// Not uniform: unknown distance.
    Unknown,
}

/// Solves `src_access(i) == dst_access(j)` for `d = j - i` over the first
/// `common` loop levels, treating deeper levels conservatively.
fn solve_distance(src: &AccessMatrix, dst: &AccessMatrix, common: usize, extents: &[i64]) -> Solve {
    if src.dims() != dst.dims() {
        return Solve::Unknown;
    }
    // Uniformity: identical linear parts on common levels and no influence
    // from deeper levels unless identical positionally.
    for r in 0..src.dims() {
        for l in 0..common {
            if src.get(r, l) != dst.get(r, l) {
                return Solve::Unknown;
            }
        }
        let deep_src: Vec<i64> = (common..src.depth()).map(|l| src.get(r, l)).collect();
        let deep_dst: Vec<i64> = (common..dst.depth()).map(|l| dst.get(r, l)).collect();
        let deep_same = deep_src.len() == deep_dst.len() && deep_src == deep_dst;
        let deep_zero = deep_src.iter().all(|&c| c == 0) && deep_dst.iter().all(|&c| c == 0);
        if !(deep_same || deep_zero) {
            return Solve::Unknown;
        }
        // A row coupling common and deep iterators (e.g. `A[i + k]` with
        // `i` common, `k` deep) makes the common-level distance vary with
        // the deep pairing: not uniform.
        let common_nonzero = (0..common).any(|l| src.get(r, l) != 0);
        if !deep_zero && common_nonzero {
            return Solve::Unknown;
        }
    }
    // Per-row equation: sum_l c_l * d_l == c_src - c_dst.
    let mut dist: Vec<Dist> = vec![Dist::Star; common];
    let mut resolved = vec![false; common];
    for r in 0..src.dims() {
        let delta = src.constant(r) - dst.constant(r);
        let coefs: Vec<i64> = (0..common).map(|l| src.get(r, l)).collect();
        let nz: Vec<usize> = (0..common).filter(|&l| coefs[l] != 0).collect();
        match nz.len() {
            0 => {
                // No iterator involvement at common levels; if deeper levels
                // are identical the row constrains only the constants.
                let deep_involved = (common..src.depth()).any(|l| src.get(r, l) != 0);
                if !deep_involved && delta != 0 {
                    return Solve::NoAlias;
                }
            }
            1 => {
                let l = nz[0];
                let c = coefs[l];
                if delta % c != 0 {
                    return Solve::NoAlias;
                }
                let d = delta / c;
                if d.unsigned_abs() as i64 >= extents[l].max(1) {
                    return Solve::NoAlias;
                }
                match dist[l] {
                    Dist::Exact(prev) if resolved[l] => {
                        if prev != d {
                            return Solve::NoAlias;
                        }
                    }
                    _ => {
                        dist[l] = Dist::Exact(d);
                        resolved[l] = true;
                    }
                }
            }
            _ => {
                // Coupled levels: leave them as Star (conservative).
            }
        }
    }
    Solve::Uniform(dist)
}

/// Why fusing an access pair would break a dependence. Carries the solved
/// distance rather than a rendered message: fusion checks sit on the
/// search's rejection path and only [`std::fmt::Display`] reads the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionViolation {
    /// The two accesses index buffers of different rank.
    RankMismatch,
    /// The pair has no constant distance over the fused levels.
    NonUniform,
    /// The donor would touch the element before the host does.
    Negative(Vec<Dist>),
    /// A `Star` component leaves the direction undetermined.
    Ambiguous,
}

impl std::fmt::Display for FusionViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FusionViolation::RankMismatch => f.write_str("rank mismatch"),
            FusionViolation::NonUniform => f.write_str("non-uniform access pair"),
            FusionViolation::Negative(d) => write!(f, "negative distance {d:?}"),
            FusionViolation::Ambiguous => f.write_str("ambiguous (star) distance"),
        }
    }
}

/// Outcome of checking one access pair for fusion legality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionCheck {
    /// The accesses never alias.
    NoAlias,
    /// Aliasing occurs only at lexicographically non-negative distances:
    /// the consumer reads values already produced. Fusion is safe.
    NonNegative,
    /// Fusion would break the dependence.
    Violates(FusionViolation),
}

/// Checks one `(host access, donor access)` pair for fusion at `depth`
/// shared loop levels: after fusion the donor's first `depth` iterators
/// alias the host's positionally, so the distance `donor - host` must be
/// lexicographically non-negative for every aliased element.
///
/// Loops below the fusion depth are handled by the distance solver's
/// uniformity rules: positionally-identical deep access patterns pair up
/// one-to-one (both statements sweep them completely within each fused
/// iteration), while mismatched or coupled patterns make the distance
/// non-constant and reject the fusion conservatively.
pub fn fusion_distance(
    host: &AccessMatrix,
    donor: &AccessMatrix,
    depth: usize,
    extents: &[i64],
) -> FusionCheck {
    if host.dims() != donor.dims() {
        return FusionCheck::Violates(FusionViolation::RankMismatch);
    }
    match solve_distance(host, donor, depth, extents) {
        Solve::NoAlias => FusionCheck::NoAlias,
        Solve::Unknown => FusionCheck::Violates(FusionViolation::NonUniform),
        Solve::Uniform(d) => match lex_sign(&d) {
            Some(std::cmp::Ordering::Greater) | Some(std::cmp::Ordering::Equal) => {
                FusionCheck::NonNegative
            }
            Some(std::cmp::Ordering::Less) => FusionCheck::Violates(FusionViolation::Negative(d)),
            None => FusionCheck::Violates(FusionViolation::Ambiguous),
        },
    }
}

/// Computes all dependences of a program.
///
/// Every ordered pair of accesses to the same buffer where at least one is
/// a write contributes a dependence (unless proven non-aliasing). For a
/// computation with [`CompKind::Reduce`], the implicit read-modify-write of
/// the store access contributes a self-dependence marked
/// [`Dependence::reorderable`].
pub fn analyze(program: &Program) -> Vec<Dependence> {
    let mut deps = Vec::new();
    let n = program.num_comps();
    for bi in 0..n {
        for bj in bi..n {
            let (a, b) = (CompId(bi), CompId(bj));
            let ca = program.comp(a);
            let cb = program.comp(b);
            let common = if bi == bj {
                ca.depth()
            } else {
                common_depth(ca, cb)
            };
            let extents: Vec<i64> = ca.iters[..common]
                .iter()
                .map(|&it| program.extent(it))
                .collect();

            let mut pairs: Vec<(&AccessMatrix, BufferId, bool, &AccessMatrix, BufferId, bool)> =
                Vec::new();
            // a-write vs b-read (flow), a-read vs b-write (anti),
            // a-write vs b-write (output).
            let a_writes = std::iter::once(&ca.store);
            let b_writes = std::iter::once(&cb.store);
            let a_reads = ca.expr.loads();
            let b_reads = cb.expr.loads();
            for w in a_writes.clone() {
                for r in &b_reads {
                    pairs.push((&w.matrix, w.buffer, true, &r.matrix, r.buffer, false));
                }
            }
            for r in &a_reads {
                for w in b_writes.clone() {
                    if bi == bj {
                        // Within one statement the read happens before the
                        // write of the same iteration; the (a-write, b-read)
                        // direction below covers the cross-iteration case.
                    }
                    pairs.push((&r.matrix, r.buffer, false, &w.matrix, w.buffer, true));
                }
            }
            for w1 in a_writes {
                for w2 in b_writes.clone() {
                    if bi == bj {
                        continue; // handled as the reduction self-dep below
                    }
                    pairs.push((&w1.matrix, w1.buffer, true, &w2.matrix, w2.buffer, true));
                }
            }

            for (ma, bufa, wa, mb, bufb, wb) in pairs {
                if bufa != bufb || !(wa || wb) {
                    continue;
                }
                if bi == bj && ma == mb && wa != wb {
                    // Same access matrix read+write within one statement:
                    // that's the reduction accumulation pattern (handled
                    // below) or a plain recompute; distance 0 deps do not
                    // constrain anything.
                    continue;
                }
                let mut kind = match (wa, wb) {
                    (true, false) => DepKind::Flow,
                    (false, true) => DepKind::Anti,
                    (true, true) => DepKind::Output,
                    _ => unreachable!(),
                };
                let mut src_id = a;
                let mut dst_id = b;
                let distance = match solve_distance(ma, mb, common, &extents) {
                    Solve::NoAlias => continue,
                    Solve::Unknown => None,
                    Solve::Uniform(mut d) => {
                        // Orient the dependence so the distance vector is
                        // lexicographically non-negative.
                        match lex_sign(&d) {
                            Some(std::cmp::Ordering::Less) => {
                                for c in &mut d {
                                    *c = c.negate();
                                }
                                kind = flip_kind(kind);
                                if bi != bj {
                                    std::mem::swap(&mut src_id, &mut dst_id);
                                }
                            }
                            Some(std::cmp::Ordering::Equal) if bi == bj => {
                                // Same-iteration self access: no constraint.
                                continue;
                            }
                            _ => {}
                        }
                        Some(d)
                    }
                };
                let dep = Dependence {
                    src: src_id,
                    dst: dst_id,
                    kind,
                    buffer: bufa,
                    distance,
                    common_depth: common,
                    reorderable: false,
                };
                if !deps.contains(&dep) {
                    deps.push(dep);
                }
            }

            // Reduction accumulation self-dependence.
            if bi == bj {
                if let CompKind::Reduce(op) = ca.kind {
                    let mut dist = vec![Dist::Exact(0); ca.depth()];
                    for &lvl in &ca.reduction_levels {
                        dist[lvl] = Dist::Star;
                    }
                    deps.push(Dependence {
                        src: a,
                        dst: a,
                        kind: DepKind::Flow,
                        buffer: ca.store.buffer,
                        distance: Some(dist),
                        common_depth: ca.depth(),
                        reorderable: op.is_associative(),
                    });
                }
            }
        }
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::program::{LinExpr, ProgramBuilder};

    /// out[i] = in[i]; no deps.
    #[test]
    fn independent_copy_has_no_deps() {
        let mut b = ProgramBuilder::new("copy");
        let i = b.iter("i", 0, 16);
        let inp = b.input("in", &[16]);
        let out = b.buffer("out", &[16]);
        let load = b.access(inp, &[LinExpr::from(i)], &[i]);
        b.assign("c", &[i], out, &[LinExpr::from(i)], Expr::Load(load));
        let p = b.build().unwrap();
        assert!(analyze(&p).is_empty());
    }

    /// out[i] = out[i-1] + 1: flow dep with distance 1.
    #[test]
    fn recurrence_has_distance_one() {
        let mut b = ProgramBuilder::new("scan");
        let i = b.iter("i", 1, 16);
        let out = b.buffer("out", &[16]);
        let load = b.access(out, &[LinExpr::from(i) - 1], &[i]);
        b.assign(
            "c",
            &[i],
            out,
            &[LinExpr::from(i)],
            Expr::binary(BinOp::Add, Expr::Load(load), Expr::Const(1.0)),
        );
        let p = b.build().unwrap();
        let deps = analyze(&p);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].kind, DepKind::Flow);
        assert_eq!(deps[0].distance, Some(vec![Dist::Exact(1)]));
        assert!(deps[0].carried_at_or_unknown(0));
    }

    /// 2-D stencil reading the previous row: distance (1, 0).
    #[test]
    fn stencil_distance_vector() {
        let mut b = ProgramBuilder::new("st");
        let i = b.iter("i", 1, 32);
        let j = b.iter("j", 0, 32);
        let out = b.buffer("out", &[32, 32]);
        let load = b.access(out, &[LinExpr::from(i) - 1, LinExpr::from(j)], &[i, j]);
        b.assign(
            "c",
            &[i, j],
            out,
            &[LinExpr::from(i), LinExpr::from(j)],
            Expr::Load(load),
        );
        let p = b.build().unwrap();
        let deps = analyze(&p);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].distance, Some(vec![Dist::Exact(1), Dist::Exact(0)]));
        assert!(deps[0].carried_at_or_unknown(0));
        assert!(!deps[0].carried_at_or_unknown(1));
    }

    /// Reduction: out[i] += in[i,k] has a reorderable self-dep with Star at k.
    #[test]
    fn reduction_self_dep_is_reorderable() {
        let mut b = ProgramBuilder::new("red");
        let i = b.iter("i", 0, 8);
        let k = b.iter("k", 0, 32);
        let inp = b.input("in", &[8, 32]);
        let out = b.buffer("out", &[8]);
        let load = b.access(inp, &[LinExpr::from(i), LinExpr::from(k)], &[i, k]);
        b.reduce(
            "r",
            &[i, k],
            BinOp::Add,
            out,
            &[LinExpr::from(i)],
            Expr::Load(load),
        );
        let p = b.build().unwrap();
        let deps = analyze(&p);
        assert_eq!(deps.len(), 1);
        let d = &deps[0];
        assert!(d.reorderable);
        assert_eq!(d.distance, Some(vec![Dist::Exact(0), Dist::Star]));
        // Parallel at i is fine, at k is not.
        assert!(!d.carried_at_or_unknown(0));
        assert!(d.carried_at_or_unknown(1));
    }

    /// Producer/consumer across two computations sharing a loop.
    #[test]
    fn producer_consumer_flow() {
        let mut b = ProgramBuilder::new("pc");
        let i = b.iter("i", 0, 16);
        let tmp = b.buffer("tmp", &[16]);
        let out = b.buffer("out", &[16]);
        b.assign("prod", &[i], tmp, &[LinExpr::from(i)], Expr::Const(1.0));
        let i2 = b.iter("i2", 0, 16);
        let load = b.access(tmp, &[LinExpr::from(i2)], &[i2]);
        b.assign("cons", &[i2], out, &[LinExpr::from(i2)], Expr::Load(load));
        let p = b.build().unwrap();
        let deps = analyze(&p);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].kind, DepKind::Flow);
        assert_eq!(deps[0].src, CompId(0));
        assert_eq!(deps[0].dst, CompId(1));
        // Different iterators: no common loops.
        assert_eq!(deps[0].common_depth, 0);
        assert_eq!(deps[0].distance, Some(vec![]));
    }

    /// Non-uniform access (coupled i+j) yields an unknown dependence.
    #[test]
    fn non_uniform_is_unknown() {
        let mut b = ProgramBuilder::new("nu");
        let i = b.iter("i", 0, 8);
        let j = b.iter("j", 0, 8);
        let out = b.buffer("out", &[16]);
        let load = b.access(out, &[LinExpr::from(i) + LinExpr::from(j)], &[i, j]);
        b.assign(
            "c",
            &[i, j],
            out,
            &[LinExpr::from(i) + LinExpr::from(j) * 2],
            Expr::Load(load),
        );
        let p = b.build().unwrap();
        let deps = analyze(&p);
        assert!(!deps.is_empty());
        assert!(deps.iter().any(|d| d.distance.is_none()));
    }

    /// Offsets larger than the extent prove independence.
    #[test]
    fn distance_beyond_extent_no_alias() {
        let mut b = ProgramBuilder::new("far");
        let i = b.iter("i", 0, 4);
        let out = b.buffer("out", &[64]);
        // Writes out[i], reads out[i + 10]: within extent 4 never aliases.
        let load = b.access(out, &[LinExpr::from(i) + 10], &[i]);
        b.assign("c", &[i], out, &[LinExpr::from(i)], Expr::Load(load));
        let p = b.build().unwrap();
        assert!(analyze(&p).is_empty());
    }

    /// Anti-dependence: read out[i+1], then write out[i] next iteration.
    #[test]
    fn anti_dependence_detected() {
        let mut b = ProgramBuilder::new("anti");
        let i = b.iter("i", 0, 15);
        let out = b.buffer("out", &[16]);
        let load = b.access(out, &[LinExpr::from(i) + 1], &[i]);
        b.assign("c", &[i], out, &[LinExpr::from(i)], Expr::Load(load));
        let p = b.build().unwrap();
        let deps = analyze(&p);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].kind, DepKind::Anti);
        assert_eq!(deps[0].distance, Some(vec![Dist::Exact(1)]));
    }
}
