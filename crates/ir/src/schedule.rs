//! Schedule application: turning `(Program, Schedule)` into a transformed
//! loop tree, with legality checking at every step.
//!
//! This is the part of Tiramisu the paper's step 2 relies on ("the
//! compiler checks the validity of each candidate"). Each transform is
//! validated against the dependence analysis of [`crate::deps`] and then
//! applied structurally to a scheduled loop tree ([`SNode`]).

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::deps::{analyze, Dependence, Dist};
use crate::expr::AccessMatrix;
use crate::program::{CompId, IterId, LoopNode, Program, TreeNode};
use crate::transform::{Schedule, Transform};

/// Where a scheduled loop comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopSource {
    /// The full range of an original iterator.
    Orig {
        /// Original iterator.
        iter: IterId,
    },
    /// The tile-loop over blocks of `tile` iterations of `iter`.
    TileOuter {
        /// Original iterator.
        iter: IterId,
        /// Tile size.
        tile: i64,
    },
    /// The intra-tile loop of `iter` (extent `tile`, clamped at the edge).
    TileInner {
        /// Original iterator.
        iter: IterId,
        /// Tile size.
        tile: i64,
    },
}

impl LoopSource {
    /// The original iterator this loop derives from.
    pub fn iter(&self) -> IterId {
        match *self {
            LoopSource::Orig { iter }
            | LoopSource::TileOuter { iter, .. }
            | LoopSource::TileInner { iter, .. } => iter,
        }
    }
}

/// A loop of the scheduled program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SLoop {
    /// Provenance of the loop.
    pub source: LoopSource,
    /// Trip count (tile-inner loops report the full tile size; the final
    /// partial tile is clamped during interpretation).
    pub extent: i64,
    /// Multicore-parallel tag.
    pub parallel: bool,
    /// SIMD width tag.
    pub vector_factor: Option<i64>,
    /// Unroll tag.
    pub unroll_factor: Option<i64>,
    /// Ordered children.
    pub children: Vec<SNode>,
}

impl SLoop {
    fn plain(source: LoopSource, extent: i64, children: Vec<SNode>) -> Self {
        Self {
            source,
            extent,
            parallel: false,
            vector_factor: None,
            unroll_factor: None,
            children,
        }
    }
}

/// A node of the scheduled loop tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SNode {
    /// A loop.
    Loop(Box<SLoop>),
    /// A computation leaf.
    Comp(CompId),
}

/// Errors raised while validating or applying a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// Transforms are not in canonical phase order.
    NonCanonical,
    /// Unknown computation id.
    UnknownComp(CompId),
    /// A loop level is out of range for the computation.
    LevelOutOfRange {
        /// Target computation.
        comp: CompId,
        /// Offending level.
        level: usize,
    },
    /// The loops between two levels are not a branch-free chain.
    NotBranchFree {
        /// Target computation.
        comp: CompId,
        /// Explanation.
        detail: String,
    },
    /// Tiled levels are not adjacent in the current nesting order.
    NotAdjacent {
        /// Target computation.
        comp: CompId,
    },
    /// Factor/size constraints violated (tile size vs extent, etc.).
    BadFactor {
        /// Explanation.
        detail: String,
    },
    /// A transform would violate a dependence.
    IllegalDependence {
        /// The transform being applied.
        transform: String,
        /// Explanation.
        detail: String,
    },
    /// Fusion preconditions failed (extents, structure, ordering).
    FusionMismatch {
        /// Explanation.
        detail: String,
    },
    /// The same structural transform was applied twice to a loop.
    AlreadyTransformed {
        /// Explanation.
        detail: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NonCanonical => {
                write!(
                    f,
                    "schedule is not in canonical fuse/interchange/tile/tag order"
                )
            }
            ScheduleError::UnknownComp(c) => write!(f, "unknown computation c{}", c.0),
            ScheduleError::LevelOutOfRange { comp, level } => {
                write!(f, "level L{level} out of range for computation c{}", comp.0)
            }
            ScheduleError::NotBranchFree { comp, detail } => {
                write!(
                    f,
                    "loops of c{} are not a branch-free chain: {detail}",
                    comp.0
                )
            }
            ScheduleError::NotAdjacent { comp } => {
                write!(f, "tiled levels of c{} are not adjacent", comp.0)
            }
            ScheduleError::BadFactor { detail } => write!(f, "invalid factor: {detail}"),
            ScheduleError::IllegalDependence { transform, detail } => {
                write!(f, "{transform} violates a dependence: {detail}")
            }
            ScheduleError::FusionMismatch { detail } => write!(f, "illegal fusion: {detail}"),
            ScheduleError::AlreadyTransformed { detail } => {
                write!(f, "transform applied twice: {detail}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A program with a fully applied, validated schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledProgram {
    /// The source program.
    pub program: Program,
    /// The schedule that was applied.
    pub schedule: Schedule,
    /// Transformed loop forest.
    pub roots: Vec<SNode>,
    /// Iterator aliases introduced by fusion (fused iter → host iter).
    pub aliases: HashMap<IterId, IterId>,
}

impl ScheduledProgram {
    /// Resolves an iterator through fusion aliases.
    pub fn resolve(&self, mut it: IterId) -> IterId {
        let mut guard = 0;
        while let Some(&next) = self.aliases.get(&it) {
            it = next;
            guard += 1;
            assert!(guard <= self.aliases.len(), "alias cycle");
        }
        it
    }

    /// The chain of loops enclosing `comp`, outermost first.
    pub fn loop_path(&self, comp: CompId) -> Vec<&SLoop> {
        let path = comp_path(&self.roots, comp).expect("computation present in tree");
        let mut out = Vec::with_capacity(path.len().saturating_sub(1));
        let mut node = &self.roots[path[0]];
        for &idx in &path[1..] {
            let SNode::Loop(l) = node else { unreachable!() };
            out.push(l.as_ref());
            node = &l.children[idx];
        }
        out
    }
}

fn collect_comps(node: &SNode, out: &mut Vec<CompId>) {
    match node {
        SNode::Comp(c) => out.push(*c),
        SNode::Loop(l) => {
            for c in &l.children {
                collect_comps(c, out);
            }
        }
    }
}

/// Finds the child-index path from the forest roots to a computation leaf.
fn comp_path(roots: &[SNode], comp: CompId) -> Option<Vec<usize>> {
    fn rec(node: &SNode, comp: CompId, path: &mut Vec<usize>) -> bool {
        match node {
            SNode::Comp(c) => *c == comp,
            SNode::Loop(l) => {
                for (i, ch) in l.children.iter().enumerate() {
                    path.push(i);
                    if rec(ch, comp, path) {
                        return true;
                    }
                    path.pop();
                }
                false
            }
        }
    }
    for (i, root) in roots.iter().enumerate() {
        let mut path = vec![i];
        if rec(root, comp, &mut path) {
            return Some(path);
        }
    }
    None
}

fn loop_at_mut<'a>(roots: &'a mut [SNode], prefix: &[usize]) -> &'a mut SLoop {
    let mut node = &mut roots[prefix[0]];
    for &idx in &prefix[1..] {
        let SNode::Loop(l) = node else {
            panic!("path through non-loop")
        };
        node = &mut l.children[idx];
    }
    match node {
        SNode::Loop(l) => l,
        SNode::Comp(_) => panic!("expected loop at prefix"),
    }
}

fn loop_at<'a>(roots: &'a [SNode], prefix: &[usize]) -> &'a SLoop {
    let mut node = &roots[prefix[0]];
    for &idx in &prefix[1..] {
        let SNode::Loop(l) = node else {
            panic!("path through non-loop")
        };
        node = &l.children[idx];
    }
    match node {
        SNode::Loop(l) => l,
        SNode::Comp(_) => panic!("expected loop at prefix"),
    }
}

fn convert_tree(program: &Program, node: &TreeNode) -> SNode {
    match node {
        TreeNode::Comp(c) => SNode::Comp(*c),
        TreeNode::Loop(LoopNode { iter, children }) => SNode::Loop(Box::new(SLoop::plain(
            LoopSource::Orig { iter: *iter },
            program.extent(*iter),
            children.iter().map(|c| convert_tree(program, c)).collect(),
        ))),
    }
}

/// Internal mutable state while applying a schedule.
struct Applier<'p> {
    program: &'p Program,
    roots: Vec<SNode>,
    aliases: HashMap<IterId, IterId>,
    deps: Vec<Dependence>,
    /// Per-computation current nesting order: `nest_order[c][position] =
    /// original level`.
    nest_order: Vec<Vec<usize>>,
}

impl<'p> Applier<'p> {
    fn new(program: &'p Program) -> Self {
        Self {
            program,
            roots: program
                .roots
                .iter()
                .map(|r| convert_tree(program, r))
                .collect(),
            aliases: HashMap::new(),
            deps: analyze(program),
            nest_order: program
                .comps
                .iter()
                .map(|c| (0..c.depth()).collect())
                .collect(),
        }
    }

    fn resolve(&self, mut it: IterId) -> IterId {
        while let Some(&next) = self.aliases.get(&it) {
            it = next;
        }
        it
    }

    fn check_comp(&self, comp: CompId) -> Result<(), ScheduleError> {
        if comp.0 >= self.program.num_comps() {
            return Err(ScheduleError::UnknownComp(comp));
        }
        Ok(())
    }

    /// Position (prefix length - 1 into the comp path) of the loop deriving
    /// from original level `level` of `comp`, preferring the outermost
    /// match (tile-outer before tile-inner).
    fn find_level_loop(
        &self,
        comp: CompId,
        level: usize,
        outer: bool,
    ) -> Result<(Vec<usize>, usize), ScheduleError> {
        let c = self.program.comp(comp);
        if level >= c.depth() {
            return Err(ScheduleError::LevelOutOfRange { comp, level });
        }
        let target = self.resolve(c.iters[level]);
        let path = comp_path(&self.roots, comp).ok_or(ScheduleError::UnknownComp(comp))?;
        let mut matches = Vec::new();
        for plen in 1..path.len() {
            let l = loop_at(&self.roots, &path[..plen]);
            if self.resolve(l.source.iter()) == target {
                matches.push(plen);
            }
        }
        let plen = if outer {
            matches.first().copied()
        } else {
            matches.last().copied()
        }
        .ok_or(ScheduleError::LevelOutOfRange { comp, level })?;
        Ok((path, plen))
    }

    /// Comps under the loop at `prefix`.
    fn affected_comps(&self, prefix: &[usize]) -> Vec<CompId> {
        let mut out = Vec::new();
        let l = loop_at(&self.roots, prefix);
        for ch in &l.children {
            collect_comps(ch, &mut out);
        }
        out
    }

    /// Checks that a dependence distance vector, read in `order` (positions
    /// → original levels), stays lexicographically non-negative.
    fn dist_lex_ok(d: &[Dist], order: &[usize]) -> bool {
        for &level in order {
            if level >= d.len() {
                continue;
            }
            match d[level] {
                Dist::Exact(v) if v > 0 => return true,
                Dist::Exact(0) => {}
                _ => return false,
            }
        }
        true // all-zero: loop independent, textual order preserved
    }

    fn deps_between(&self, comps: &[CompId]) -> impl Iterator<Item = &Dependence> {
        let set: Vec<CompId> = comps.to_vec();
        self.deps
            .iter()
            .filter(move |d| set.contains(&d.src) && set.contains(&d.dst))
    }

    fn apply(&mut self, t: &Transform) -> Result<(), ScheduleError> {
        match *t {
            Transform::Interchange {
                comp,
                level_a,
                level_b,
            } => self.interchange(comp, level_a, level_b),
            Transform::Tile {
                comp,
                level_a,
                level_b,
                size_a,
                size_b,
            } => self.tile(comp, level_a, level_b, size_a, size_b),
            Transform::Unroll { comp, factor } => self.unroll(comp, factor),
            Transform::Parallelize { comp, level } => self.parallelize(comp, level),
            Transform::Vectorize { comp, factor } => self.vectorize(comp, factor),
            Transform::Fuse { comp, with, depth } => self.fuse(comp, with, depth),
        }
    }

    fn interchange(
        &mut self,
        comp: CompId,
        level_a: usize,
        level_b: usize,
    ) -> Result<(), ScheduleError> {
        self.check_comp(comp)?;
        if level_a == level_b {
            return Err(ScheduleError::BadFactor {
                detail: "interchange of a level with itself".into(),
            });
        }
        let (path_a, pa) = self.find_level_loop(comp, level_a, true)?;
        let (_, pb) = self.find_level_loop(comp, level_b, true)?;
        let (pa, pb) = (pa.min(pb), pa.max(pb));
        // Branch-free chain from outer to inner.
        for plen in pa..pb {
            let l = loop_at(&self.roots, &path_a[..plen]);
            if l.children.len() != 1 {
                return Err(ScheduleError::NotBranchFree {
                    comp,
                    detail: format!(
                        "loop at depth {} has {} children",
                        plen - 1,
                        l.children.len()
                    ),
                });
            }
        }
        // Dependence legality: distances read in the *new* order must stay
        // lexicographically non-negative.
        let affected = self.affected_comps(&path_a[..pa]);
        let new_orders: Vec<(CompId, Vec<usize>)> = affected
            .iter()
            .map(|&c| {
                let mut order = self.nest_order[c.0].clone();
                let ia = order.iter().position(|&l| l == level_a);
                let ib = order.iter().position(|&l| l == level_b);
                if let (Some(ia), Some(ib)) = (ia, ib) {
                    order.swap(ia, ib);
                }
                (c, order)
            })
            .collect();
        for dep in self.deps_between(&affected) {
            if dep.reorderable {
                continue;
            }
            if let Some(d) = &dep.distance {
                let order = &new_orders
                    .iter()
                    .find(|(c, _)| *c == dep.dst)
                    .expect("dst affected")
                    .1;
                if !Self::dist_lex_ok(d, order) {
                    return Err(ScheduleError::IllegalDependence {
                        transform: format!("interchange(c{}, L{level_a}, L{level_b})", comp.0),
                        detail: format!("dependence {:?} would be reversed", dep.distance),
                    });
                }
            } else {
                return Err(ScheduleError::IllegalDependence {
                    transform: format!("interchange(c{}, L{level_a}, L{level_b})", comp.0),
                    detail: "non-uniform dependence".into(),
                });
            }
        }
        // Structurally swap the two loop headers.
        let header_a = {
            let l = loop_at(&self.roots, &path_a[..pa]);
            (
                l.source,
                l.extent,
                l.parallel,
                l.vector_factor,
                l.unroll_factor,
            )
        };
        let header_b = {
            let l = loop_at(&self.roots, &path_a[..pb]);
            (
                l.source,
                l.extent,
                l.parallel,
                l.vector_factor,
                l.unroll_factor,
            )
        };
        {
            let l = loop_at_mut(&mut self.roots, &path_a[..pa]);
            (
                l.source,
                l.extent,
                l.parallel,
                l.vector_factor,
                l.unroll_factor,
            ) = header_b;
        }
        {
            let l = loop_at_mut(&mut self.roots, &path_a[..pb]);
            (
                l.source,
                l.extent,
                l.parallel,
                l.vector_factor,
                l.unroll_factor,
            ) = header_a;
        }
        // Update nesting orders.
        for (c, order) in new_orders {
            self.nest_order[c.0] = order;
        }
        Ok(())
    }

    fn tile(
        &mut self,
        comp: CompId,
        level_a: usize,
        level_b: usize,
        size_a: i64,
        size_b: i64,
    ) -> Result<(), ScheduleError> {
        self.check_comp(comp)?;
        let (path, pa) = self.find_level_loop(comp, level_a, true)?;
        let (_, pb) = self.find_level_loop(comp, level_b, true)?;
        if pb != pa + 1 {
            return Err(ScheduleError::NotAdjacent { comp });
        }
        {
            let outer = loop_at(&self.roots, &path[..pa]);
            if outer.children.len() != 1 {
                return Err(ScheduleError::NotBranchFree {
                    comp,
                    detail: "tiled outer loop has siblings inside".into(),
                });
            }
            let inner = loop_at(&self.roots, &path[..pb]);
            if !matches!(outer.source, LoopSource::Orig { .. })
                || !matches!(inner.source, LoopSource::Orig { .. })
            {
                return Err(ScheduleError::AlreadyTransformed {
                    detail: "loop is already tiled".into(),
                });
            }
            for (lvl, size, l) in [(level_a, size_a, outer), (level_b, size_b, inner)] {
                if size < 2 || size > l.extent {
                    return Err(ScheduleError::BadFactor {
                        detail: format!(
                            "tile size {size} invalid for level L{lvl} with extent {}",
                            l.extent
                        ),
                    });
                }
            }
        }
        // Legality: the band must be fully permutable unless carried by an
        // outer loop.
        let affected = self.affected_comps(&path[..pa]);
        for dep in self.deps_between(&affected) {
            if dep.reorderable {
                continue;
            }
            let Some(d) = &dep.distance else {
                return Err(ScheduleError::IllegalDependence {
                    transform: format!("tile(c{}, L{level_a}, L{level_b})", comp.0),
                    detail: "non-uniform dependence".into(),
                });
            };
            // Carried by an outer loop (before position pa in nest order)?
            let order = &self.nest_order[dep.dst.0];
            let outer_levels: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&l| l != level_a && l != level_b)
                .take_while(|&l| {
                    // Levels nested outside the band: positions before pa.
                    let pos = order.iter().position(|&x| x == l).unwrap();
                    pos < order
                        .iter()
                        .position(|&x| x == level_a)
                        .unwrap_or(usize::MAX)
                })
                .collect();
            let carried_outside = outer_levels
                .iter()
                .any(|&l| l < d.len() && matches!(d[l], Dist::Exact(v) if v > 0));
            if carried_outside {
                continue;
            }
            for lvl in [level_a, level_b] {
                if lvl < d.len() && d[lvl].may_be_negative() {
                    return Err(ScheduleError::IllegalDependence {
                        transform: format!("tile(c{}, L{level_a}, L{level_b})", comp.0),
                        detail: format!("band not permutable at L{lvl}: {:?}", d[lvl]),
                    });
                }
            }
        }
        // Structural rewrite: a { b { body } } →
        // a0 { b0 { a1 { b1 { body } } } }.
        let outer = loop_at_mut(&mut self.roots, &path[..pa]);
        let SNode::Loop(inner) = outer.children.pop().expect("checked single child") else {
            panic!("tile inner must be a loop");
        };
        let (ia, na) = (outer.source.iter(), outer.extent);
        let (ib, nb) = (inner.source.iter(), inner.extent);
        let body = inner.children;
        let b1 = SLoop::plain(
            LoopSource::TileInner {
                iter: ib,
                tile: size_b,
            },
            size_b,
            body,
        );
        let a1 = SLoop::plain(
            LoopSource::TileInner {
                iter: ia,
                tile: size_a,
            },
            size_a,
            vec![SNode::Loop(Box::new(b1))],
        );
        let b0 = SLoop::plain(
            LoopSource::TileOuter {
                iter: ib,
                tile: size_b,
            },
            nb.div_euclid(size_b) + i64::from(nb % size_b != 0),
            vec![SNode::Loop(Box::new(a1))],
        );
        outer.source = LoopSource::TileOuter {
            iter: ia,
            tile: size_a,
        };
        outer.extent = na.div_euclid(size_a) + i64::from(na % size_a != 0);
        outer.children = vec![SNode::Loop(Box::new(b0))];
        Ok(())
    }

    fn innermost_loop_prefix(&self, comp: CompId) -> Result<Vec<usize>, ScheduleError> {
        let path = comp_path(&self.roots, comp).ok_or(ScheduleError::UnknownComp(comp))?;
        if path.len() < 2 {
            return Err(ScheduleError::LevelOutOfRange { comp, level: 0 });
        }
        Ok(path[..path.len() - 1].to_vec())
    }

    fn unroll(&mut self, comp: CompId, factor: i64) -> Result<(), ScheduleError> {
        self.check_comp(comp)?;
        let prefix = self.innermost_loop_prefix(comp)?;
        let l = loop_at_mut(&mut self.roots, &prefix);
        if factor < 2 || factor > l.extent {
            return Err(ScheduleError::BadFactor {
                detail: format!("unroll factor {factor} for extent {}", l.extent),
            });
        }
        if l.unroll_factor.is_some() {
            return Err(ScheduleError::AlreadyTransformed {
                detail: "loop already unrolled".into(),
            });
        }
        l.unroll_factor = Some(factor);
        Ok(())
    }

    fn parallelize(&mut self, comp: CompId, level: usize) -> Result<(), ScheduleError> {
        self.check_comp(comp)?;
        let (path, plen) = self.find_level_loop(comp, level, true)?;
        let affected = self.affected_comps(&path[..plen]);
        for dep in self.deps_between(&affected) {
            let Some(d) = &dep.distance else {
                return Err(ScheduleError::IllegalDependence {
                    transform: format!("parallelize(c{}, L{level})", comp.0),
                    detail: "non-uniform dependence".into(),
                });
            };
            // Carried by a loop outside the parallel one?
            let order = &self.nest_order[dep.dst.0];
            let par_pos = order.iter().position(|&l| l == level).unwrap_or(usize::MAX);
            let carried_outside = order.iter().enumerate().any(|(pos, &l)| {
                pos < par_pos && l < d.len() && matches!(d[l], Dist::Exact(v) if v > 0)
            });
            if carried_outside {
                continue;
            }
            if level < d.len() && !d[level].is_zero() {
                return Err(ScheduleError::IllegalDependence {
                    transform: format!("parallelize(c{}, L{level})", comp.0),
                    detail: format!("dependence carried at L{level}: {:?}", d[level]),
                });
            }
        }
        let l = loop_at_mut(&mut self.roots, &path[..plen]);
        l.parallel = true;
        Ok(())
    }

    fn vectorize(&mut self, comp: CompId, factor: i64) -> Result<(), ScheduleError> {
        self.check_comp(comp)?;
        let prefix = self.innermost_loop_prefix(comp)?;
        let (level, extent, already) = {
            let l = loop_at(&self.roots, &prefix);
            let target = self.resolve(l.source.iter());
            let lvl = self
                .program
                .comp(comp)
                .iters
                .iter()
                .position(|&it| self.resolve(it) == target)
                .ok_or(ScheduleError::LevelOutOfRange {
                    comp,
                    level: usize::MAX,
                })?;
            (lvl, l.extent, l.vector_factor.is_some())
        };
        if already {
            return Err(ScheduleError::AlreadyTransformed {
                detail: "loop already vectorized".into(),
            });
        }
        if factor < 2 || factor > extent {
            return Err(ScheduleError::BadFactor {
                detail: format!("vector factor {factor} for extent {extent}"),
            });
        }
        let affected = self.affected_comps(&prefix);
        for dep in self.deps_between(&affected) {
            // Associative reductions may be vectorized (lane-wise partial
            // accumulators), as production compilers do under fast-math.
            if dep.reorderable {
                continue;
            }
            let Some(d) = &dep.distance else {
                return Err(ScheduleError::IllegalDependence {
                    transform: format!("vectorize(c{}, {factor})", comp.0),
                    detail: "non-uniform dependence".into(),
                });
            };
            let order = &self.nest_order[dep.dst.0];
            let vec_pos = order.iter().position(|&l| l == level).unwrap_or(usize::MAX);
            let carried_outside = order.iter().enumerate().any(|(pos, &l)| {
                pos < vec_pos && l < d.len() && matches!(d[l], Dist::Exact(v) if v > 0)
            });
            if carried_outside {
                continue;
            }
            if level < d.len() && !d[level].is_zero() {
                return Err(ScheduleError::IllegalDependence {
                    transform: format!("vectorize(c{}, {factor})", comp.0),
                    detail: format!("dependence carried at innermost L{level}"),
                });
            }
        }
        let l = loop_at_mut(&mut self.roots, &prefix);
        l.vector_factor = Some(factor);
        Ok(())
    }

    fn fuse(&mut self, comp: CompId, with: CompId, depth: usize) -> Result<(), ScheduleError> {
        self.check_comp(comp)?;
        self.check_comp(with)?;
        if depth == 0 {
            return Err(ScheduleError::FusionMismatch {
                detail: "fusion depth must be at least 1".into(),
            });
        }
        let path_b = comp_path(&self.roots, comp).ok_or(ScheduleError::UnknownComp(comp))?;
        let path_a = comp_path(&self.roots, with).ok_or(ScheduleError::UnknownComp(with))?;
        if path_a[0] == path_b[0] {
            return Err(ScheduleError::FusionMismatch {
                detail: "computations already share a root nest".into(),
            });
        }
        if path_a[0] > path_b[0] {
            return Err(ScheduleError::FusionMismatch {
                detail: "fusion host must be textually earlier".into(),
            });
        }
        if depth + 1 > path_a.len() || depth + 1 > path_b.len() {
            return Err(ScheduleError::FusionMismatch {
                detail: format!("fusion depth {depth} exceeds a nest depth"),
            });
        }
        // The donor's outer loops must form a branch-free chain so the
        // whole remainder moves as one unit.
        for plen in 1..=depth {
            let l = loop_at(&self.roots, &path_b[..plen]);
            if plen < depth && l.children.len() != 1 {
                return Err(ScheduleError::NotBranchFree {
                    comp,
                    detail: "donor nest branches above the fusion depth".into(),
                });
            }
            if !matches!(l.source, LoopSource::Orig { .. }) {
                return Err(ScheduleError::AlreadyTransformed {
                    detail: "cannot fuse through tiled loops".into(),
                });
            }
        }
        // Matching bounds: after fusion the donor's iterators alias the
        // host's *values*, so both lower and upper bounds must coincide
        // (equal extents alone would shift the donor's accesses).
        let ca = self.program.comp(with);
        let cb = self.program.comp(comp);
        let mut shared_extents = Vec::with_capacity(depth);
        for l in 0..depth {
            let ia = self.program.iter_of(self.resolve(ca.iters[l]));
            let ib = self.program.iter_of(self.resolve(cb.iters[l]));
            if ia.lower != ib.lower || ia.upper != ib.upper {
                return Err(ScheduleError::FusionMismatch {
                    detail: format!(
                        "bounds mismatch at L{l}: {}..{} vs {}..{}",
                        ia.lower, ia.upper, ib.lower, ib.upper
                    ),
                });
            }
            shared_extents.push(ia.extent());
        }
        // Dependence legality across the two nests: every access pair with
        // a write, solved over the first `depth` (aliased) levels, must
        // yield a lexicographically non-negative distance.
        let host_comps = {
            let mut v = Vec::new();
            collect_comps(&self.roots[path_a[0]], &mut v);
            v
        };
        let donor_comps = {
            let mut v = Vec::new();
            collect_comps(&self.roots[path_b[0]], &mut v);
            v
        };
        for &x in &host_comps {
            for &y in &donor_comps {
                let cx = self.program.comp(x);
                let cy = self.program.comp(y);
                let x_acc: Vec<(&AccessMatrix, crate::program::BufferId, bool)> =
                    std::iter::once((&cx.store.matrix, cx.store.buffer, true))
                        .chain(
                            cx.expr
                                .loads()
                                .into_iter()
                                .map(|a| (&a.matrix, a.buffer, false)),
                        )
                        .collect();
                let y_acc: Vec<(&AccessMatrix, crate::program::BufferId, bool)> =
                    std::iter::once((&cy.store.matrix, cy.store.buffer, true))
                        .chain(
                            cy.expr
                                .loads()
                                .into_iter()
                                .map(|a| (&a.matrix, a.buffer, false)),
                        )
                        .collect();
                for (mx, bx, wx) in &x_acc {
                    for (my, by, wy) in &y_acc {
                        if bx != by || !(*wx || *wy) {
                            continue;
                        }
                        match crate::deps::fusion_distance(mx, my, depth, &shared_extents) {
                            crate::deps::FusionCheck::NoAlias => {}
                            crate::deps::FusionCheck::NonNegative => {}
                            crate::deps::FusionCheck::Violates(reason) => {
                                return Err(ScheduleError::IllegalDependence {
                                    transform: format!(
                                        "fuse(c{}, into c{}, depth {depth})",
                                        comp.0, with.0
                                    ),
                                    detail: reason,
                                });
                            }
                        }
                    }
                }
            }
        }
        // Record aliases for every donor computation's outer iterators.
        for &y in &donor_comps {
            let cy = self.program.comp(y);
            for l in 0..depth.min(cy.depth()) {
                let from = self.resolve(cy.iters[l]);
                let to = self.resolve(ca.iters[l]);
                if from != to {
                    self.aliases.insert(from, to);
                }
            }
        }
        // Structural move: detach the donor remainder and append it under
        // the host loop at `depth`.
        let donor_root_idx = path_b[0];
        let mut remainder = {
            // Navigate depth loops down and take the children of the loop
            // at prefix length `depth`.
            let l = loop_at_mut(&mut self.roots, &path_b[..depth]);
            std::mem::take(&mut l.children)
        };
        self.roots.remove(donor_root_idx);
        // Host path indices shift if the donor root was before it — it is
        // not (host is earlier), so path_a stays valid.
        let host_loop = loop_at_mut(&mut self.roots, &path_a[..depth]);
        host_loop.children.append(&mut remainder);
        Ok(())
    }
}

/// Validates and applies `schedule` to `program`.
///
/// # Errors
///
/// Returns a [`ScheduleError`] describing the first structural or
/// dependence-legality violation.
///
/// # Examples
///
/// ```
/// use dlcm_ir::{apply_schedule, CompId, Schedule, Transform};
/// # use dlcm_ir::{Expr, LinExpr, ProgramBuilder};
/// # let mut b = ProgramBuilder::new("p");
/// # let i = b.iter("i", 0, 64);
/// # let j = b.iter("j", 0, 64);
/// # let inp = b.input("in", &[64, 64]);
/// # let out = b.buffer("out", &[64, 64]);
/// # let acc = b.access(inp, &[LinExpr::from(i), LinExpr::from(j)], &[i, j]);
/// # b.assign("c", &[i, j], out, &[LinExpr::from(i), LinExpr::from(j)], Expr::Load(acc));
/// # let program = b.build().unwrap();
/// let schedule = Schedule::new(vec![Transform::Tile {
///     comp: CompId(0), level_a: 0, level_b: 1, size_a: 16, size_b: 16,
/// }]);
/// let scheduled = apply_schedule(&program, &schedule)?;
/// assert_eq!(scheduled.loop_path(CompId(0)).len(), 4); // 2 loops → 4 after tiling
/// # Ok::<(), dlcm_ir::ScheduleError>(())
/// ```
pub fn apply_schedule(
    program: &Program,
    schedule: &Schedule,
) -> Result<ScheduledProgram, ScheduleError> {
    if !schedule.is_canonical() {
        return Err(ScheduleError::NonCanonical);
    }
    let mut applier = Applier::new(program);
    for t in &schedule.transforms {
        applier.apply(t)?;
    }
    Ok(ScheduledProgram {
        program: program.clone(),
        schedule: schedule.clone(),
        roots: applier.roots,
        aliases: applier.aliases,
    })
}

/// `true` when the schedule passes validation for the program.
pub fn is_legal(program: &Program, schedule: &Schedule) -> bool {
    apply_schedule(program, schedule).is_ok()
}
