//! Schedule application: turning `(Program, Schedule)` into a transformed
//! loop tree, with legality checking at every step.
//!
//! This is the part of Tiramisu the paper's step 2 relies on ("the
//! compiler checks the validity of each candidate"). Each transform is
//! validated against the dependence analysis of [`crate::deps`] and then
//! applied structurally to a scheduled loop tree ([`SNode`]).
//!
//! There is one engine, split by what its state depends on:
//!
//! - [`Legality`] is **per program**: the borrowed [`Program`] and its
//!   dependence analysis. The analysis runs lazily, at most once per
//!   context, on the first transform that reads a dependence
//!   (interchange, tile, parallelize, vectorize) — fusion solves its own
//!   access pairs and unroll only sets a tag, so the empty schedule,
//!   fusion-only structure passes and unroll-only extensions never pay
//!   for it. Laziness changes cost, never a verdict.
//! - [`LegalPrefix`] is **per validated schedule prefix**: the loop
//!   forest, fusion aliases and nesting orders after the transforms
//!   applied so far, plus the last transform's phase so canonical order
//!   is checked per extension. It is a plain value: clone it to try
//!   several one-transform extensions of the same prefix.
//!
//! [`Legality::extend`] validates and applies one transform on top of a
//! prefix; [`Legality::prefix`] and [`Legality::apply`] replay a whole
//! schedule through it, and [`apply_schedule`] is the one-shot wrapper
//! (fresh context, `apply`). A search that tries a dozen children of one
//! candidate therefore analyzes once, replays the candidate once, and
//! pays one `extend` per child — not a from-scratch re-application each.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::deps::{analyze, Dependence, Dist, FusionCheck, FusionViolation};
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

/// The values behind a [`ScheduleError`] explanation.
///
/// Rejections are the hot path of a search (about half of all legality
/// checks), and only [`fmt::Display`] ever reads the explanation — so an
/// error carries the offending values and renders them on demand instead
/// of formatting a `String` per rejection.
#[derive(Debug, Clone, PartialEq)]
pub enum Detail {
    /// A fixed explanation with no values to carry.
    Fixed(&'static str),
    /// A loop between two interchanged levels has several children.
    LoopChildren {
        /// Depth of the branching loop in the computation's nest.
        depth: usize,
        /// Its number of children.
        children: usize,
    },
    /// A tile size below 2 or above the tiled loop's extent.
    TileSize {
        /// The offending size.
        size: i64,
        /// Original level it was meant for.
        level: usize,
        /// Extent of that level's loop.
        extent: i64,
    },
    /// An unroll factor below 2 or above the innermost extent.
    UnrollFactor {
        /// The offending factor.
        factor: i64,
        /// Extent of the innermost loop.
        extent: i64,
    },
    /// A vector factor below 2 or above the innermost extent.
    VectorFactor {
        /// The offending factor.
        factor: i64,
        /// Extent of the innermost loop.
        extent: i64,
    },
    /// An interchange would read this distance vector lexicographically
    /// negative.
    Reversed(Vec<Dist>),
    /// The tiled band is not permutable at `level`.
    BandNotPermutable {
        /// Original level of the band.
        level: usize,
        /// The possibly-negative distance component there.
        dist: Dist,
    },
    /// A dependence is carried by the loop being parallelized.
    Carried {
        /// Original level of that loop.
        level: usize,
        /// The non-zero distance component there.
        dist: Dist,
    },
    /// A dependence is carried by the innermost loop being vectorized.
    CarriedInnermost {
        /// Original level of that loop.
        level: usize,
    },
    /// An access pair of the two fused nests breaks a dependence.
    Fusion(FusionViolation),
    /// The fusion depth exceeds the depth of one of the two nests.
    FusionDepth {
        /// The requested depth.
        depth: usize,
    },
    /// Host and donor loops at a fused level have different bounds.
    BoundsMismatch {
        /// The fused level.
        level: usize,
        /// Host loop `(lower, upper)`.
        host: (i64, i64),
        /// Donor loop `(lower, upper)`.
        donor: (i64, i64),
    },
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::Fixed(text) => f.write_str(text),
            Detail::LoopChildren { depth, children } => {
                write!(f, "loop at depth {depth} has {children} children")
            }
            Detail::TileSize {
                size,
                level,
                extent,
            } => write!(
                f,
                "tile size {size} invalid for level L{level} with extent {extent}"
            ),
            Detail::UnrollFactor { factor, extent } => {
                write!(f, "unroll factor {factor} for extent {extent}")
            }
            Detail::VectorFactor { factor, extent } => {
                write!(f, "vector factor {factor} for extent {extent}")
            }
            Detail::Reversed(distance) => {
                write!(f, "dependence {:?} would be reversed", Some(distance))
            }
            Detail::BandNotPermutable { level, dist } => {
                write!(f, "band not permutable at L{level}: {dist:?}")
            }
            Detail::Carried { level, dist } => {
                write!(f, "dependence carried at L{level}: {dist:?}")
            }
            Detail::CarriedInnermost { level } => {
                write!(f, "dependence carried at innermost L{level}")
            }
            Detail::Fusion(violation) => write!(f, "{violation}"),
            Detail::FusionDepth { depth } => {
                write!(f, "fusion depth {depth} exceeds a nest depth")
            }
            Detail::BoundsMismatch { level, host, donor } => write!(
                f,
                "bounds mismatch at L{level}: {}..{} vs {}..{}",
                host.0, host.1, donor.0, donor.1
            ),
        }
    }
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
        detail: Detail,
    },
    /// Tiled levels are not adjacent in the current nesting order.
    NotAdjacent {
        /// Target computation.
        comp: CompId,
    },
    /// Factor/size constraints violated (tile size vs extent, etc.).
    BadFactor {
        /// Explanation.
        detail: Detail,
    },
    /// A transform would violate a dependence.
    IllegalDependence {
        /// The transform being applied.
        transform: Transform,
        /// Explanation.
        detail: Detail,
    },
    /// Fusion preconditions failed (extents, structure, ordering).
    FusionMismatch {
        /// Explanation.
        detail: Detail,
    },
    /// The same structural transform was applied twice to a loop.
    AlreadyTransformed {
        /// Explanation.
        detail: Detail,
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
                // Tile sizes play no part in band permutability: a tile is
                // named by its band alone.
                match *transform {
                    Transform::Tile {
                        comp,
                        level_a,
                        level_b,
                        ..
                    } => write!(f, "tile(c{}, L{level_a}, L{level_b})", comp.0)?,
                    ref other => f.write_str(&other.describe())?,
                }
                write!(f, " violates a dependence: {detail}")
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

/// The per-program half of the legality engine: everything a verdict
/// needs that depends on the program alone.
///
/// Build one per program and validate any number of schedules against
/// it; see the module docs for what lives here and what lives in a
/// [`LegalPrefix`].
///
/// # Examples
///
/// Try several one-transform extensions of the same validated prefix:
///
/// ```
/// use dlcm_ir::{CompId, Legality, Schedule, Transform};
/// # use dlcm_ir::{Expr, LinExpr, ProgramBuilder};
/// # let mut b = ProgramBuilder::new("p");
/// # let i = b.iter("i", 0, 64);
/// # let j = b.iter("j", 0, 64);
/// # let inp = b.input("in", &[64, 64]);
/// # let out = b.buffer("out", &[64, 64]);
/// # let acc = b.access(inp, &[LinExpr::from(i), LinExpr::from(j)], &[i, j]);
/// # b.assign("c", &[i, j], out, &[LinExpr::from(i), LinExpr::from(j)], Expr::Load(acc));
/// # let program = b.build().unwrap();
/// let legality = Legality::new(&program);
/// let base = legality.prefix(&Schedule::new(vec![Transform::Interchange {
///     comp: CompId(0), level_a: 0, level_b: 1,
/// }]))?;
/// let legal_factors: Vec<i64> = [4, 16, 256]
///     .into_iter()
///     .filter(|&factor| {
///         let unroll = Transform::Unroll { comp: CompId(0), factor };
///         legality.extend(&mut base.clone(), &unroll).is_ok()
///     })
///     .collect();
/// assert_eq!(legal_factors, [4, 16]); // 256 exceeds the extent
/// # Ok::<(), dlcm_ir::ScheduleError>(())
/// ```
#[derive(Debug)]
pub struct Legality<'p> {
    program: &'p Program,
    /// `deps::analyze(program)`, run by the first transform that reads a
    /// dependence.
    deps: OnceLock<Vec<Dependence>>,
}

/// The per-prefix half of the legality engine: the scheduled loop forest
/// after a validated sequence of transforms, and what the next
/// extension's checks need to know about that sequence.
///
/// Only [`Legality`] builds and advances one, so holding a `LegalPrefix`
/// means every transform behind it passed validation. Use it with the
/// context that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalPrefix {
    roots: Vec<SNode>,
    aliases: HashMap<IterId, IterId>,
    /// Per-computation current nesting order: `nest_order[c][position] =
    /// original level`.
    nest_order: Vec<Vec<usize>>,
    /// [`Transform::phase`] of the last transform applied (0 when none).
    phase: u8,
}

impl LegalPrefix {
    /// The transformed loop forest so far.
    pub fn roots(&self) -> &[SNode] {
        &self.roots
    }

    /// Iterator aliases introduced by fusion so far (fused iter → host
    /// iter).
    pub fn aliases(&self) -> &HashMap<IterId, IterId> {
        &self.aliases
    }
}

impl<'p> Legality<'p> {
    /// Creates the context for `program`. Cheap: nothing is analyzed
    /// until a transform needs it.
    pub fn new(program: &'p Program) -> Self {
        Self {
            program,
            deps: OnceLock::new(),
        }
    }

    /// The program this context validates against.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    fn deps(&self) -> &[Dependence] {
        self.deps.get_or_init(|| analyze(self.program))
    }

    /// The empty prefix: the unscheduled program.
    pub fn root(&self) -> LegalPrefix {
        let program = self.program;
        LegalPrefix {
            roots: program
                .roots
                .iter()
                .map(|r| convert_tree(program, r))
                .collect(),
            aliases: HashMap::new(),
            nest_order: program
                .comps
                .iter()
                .map(|c| (0..c.depth()).collect())
                .collect(),
            phase: 0,
        }
    }

    /// Validates `schedule` transform by transform and returns the state
    /// it leaves behind.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NonCanonical`] when the schedule as a whole is
    /// out of phase order, otherwise the first transform's violation.
    pub fn prefix(&self, schedule: &Schedule) -> Result<LegalPrefix, ScheduleError> {
        if !schedule.is_canonical() {
            return Err(ScheduleError::NonCanonical);
        }
        let mut state = self.root();
        for t in &schedule.transforms {
            self.extend(&mut state, t)?;
        }
        Ok(state)
    }

    /// Validates `t` on top of `state` and, when legal, applies it.
    ///
    /// # Errors
    ///
    /// Returns the violation and leaves `state` exactly as it was — a
    /// rejected extension costs nothing to retry from.
    pub fn extend(&self, state: &mut LegalPrefix, t: &Transform) -> Result<(), ScheduleError> {
        if t.phase() < state.phase {
            return Err(ScheduleError::NonCanonical);
        }
        match *t {
            Transform::Interchange {
                comp,
                level_a,
                level_b,
            } => state.interchange(self, t, comp, level_a, level_b),
            Transform::Tile {
                comp,
                level_a,
                level_b,
                size_a,
                size_b,
            } => state.tile(self, t, comp, level_a, level_b, size_a, size_b),
            Transform::Unroll { comp, factor } => state.unroll(self, comp, factor),
            Transform::Parallelize { comp, level } => state.parallelize(self, t, comp, level),
            Transform::Vectorize { comp, factor } => state.vectorize(self, t, comp, factor),
            Transform::Fuse { comp, with, depth } => state.fuse(self, t, comp, with, depth),
        }?;
        state.phase = t.phase();
        Ok(())
    }

    /// Validates and applies a whole schedule.
    ///
    /// # Errors
    ///
    /// As [`Legality::prefix`].
    pub fn apply(&self, schedule: &Schedule) -> Result<ScheduledProgram, ScheduleError> {
        let state = self.prefix(schedule)?;
        Ok(ScheduledProgram {
            program: self.program.clone(),
            schedule: schedule.clone(),
            roots: state.roots,
            aliases: state.aliases,
        })
    }
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

/// The dependences whose two ends are both in `comps`.
fn deps_between<'a>(
    deps: &'a [Dependence],
    comps: &'a [CompId],
) -> impl Iterator<Item = &'a Dependence> {
    deps.iter()
        .filter(move |d| comps.contains(&d.src) && comps.contains(&d.dst))
}

/// One method per transform. Each runs every check before its first
/// mutation, which is what lets [`Legality::extend`] promise that a
/// rejection leaves the state untouched.
impl LegalPrefix {
    fn resolve(&self, mut it: IterId) -> IterId {
        while let Some(&next) = self.aliases.get(&it) {
            it = next;
        }
        it
    }

    /// Position (prefix length - 1 into the comp path) of the loop deriving
    /// from original level `level` of `comp`, preferring the outermost
    /// match (tile-outer before tile-inner).
    fn find_level_loop(
        &self,
        program: &Program,
        comp: CompId,
        level: usize,
        outer: bool,
    ) -> Result<(Vec<usize>, usize), ScheduleError> {
        let c = program.comp(comp);
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

    fn interchange(
        &mut self,
        ctx: &Legality<'_>,
        t: &Transform,
        comp: CompId,
        level_a: usize,
        level_b: usize,
    ) -> Result<(), ScheduleError> {
        check_comp(ctx.program, comp)?;
        if level_a == level_b {
            return Err(ScheduleError::BadFactor {
                detail: Detail::Fixed("interchange of a level with itself"),
            });
        }
        let (path_a, pa) = self.find_level_loop(ctx.program, comp, level_a, true)?;
        let (_, pb) = self.find_level_loop(ctx.program, comp, level_b, true)?;
        let (pa, pb) = (pa.min(pb), pa.max(pb));
        // Branch-free chain from outer to inner.
        for plen in pa..pb {
            let l = loop_at(&self.roots, &path_a[..plen]);
            if l.children.len() != 1 {
                return Err(ScheduleError::NotBranchFree {
                    comp,
                    detail: Detail::LoopChildren {
                        depth: plen - 1,
                        children: l.children.len(),
                    },
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
        for dep in deps_between(ctx.deps(), &affected) {
            if dep.reorderable {
                continue;
            }
            let Some(d) = &dep.distance else {
                return Err(illegal(t, Detail::Fixed("non-uniform dependence")));
            };
            let order = &new_orders
                .iter()
                .find(|(c, _)| *c == dep.dst)
                .expect("dst affected")
                .1;
            if !dist_lex_ok(d, order) {
                return Err(illegal(t, Detail::Reversed(d.clone())));
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

    // `t` is the transform whose fields the other arguments are; it rides
    // along so a dependence violation can name it without rebuilding it.
    #[allow(clippy::too_many_arguments)]
    fn tile(
        &mut self,
        ctx: &Legality<'_>,
        t: &Transform,
        comp: CompId,
        level_a: usize,
        level_b: usize,
        size_a: i64,
        size_b: i64,
    ) -> Result<(), ScheduleError> {
        check_comp(ctx.program, comp)?;
        let (path, pa) = self.find_level_loop(ctx.program, comp, level_a, true)?;
        let (_, pb) = self.find_level_loop(ctx.program, comp, level_b, true)?;
        if pb != pa + 1 {
            return Err(ScheduleError::NotAdjacent { comp });
        }
        {
            let outer = loop_at(&self.roots, &path[..pa]);
            if outer.children.len() != 1 {
                return Err(ScheduleError::NotBranchFree {
                    comp,
                    detail: Detail::Fixed("tiled outer loop has siblings inside"),
                });
            }
            let inner = loop_at(&self.roots, &path[..pb]);
            if !matches!(outer.source, LoopSource::Orig { .. })
                || !matches!(inner.source, LoopSource::Orig { .. })
            {
                return Err(ScheduleError::AlreadyTransformed {
                    detail: Detail::Fixed("loop is already tiled"),
                });
            }
            for (level, size, l) in [(level_a, size_a, outer), (level_b, size_b, inner)] {
                if size < 2 || size > l.extent {
                    return Err(ScheduleError::BadFactor {
                        detail: Detail::TileSize {
                            size,
                            level,
                            extent: l.extent,
                        },
                    });
                }
            }
        }
        // Legality: the band must be fully permutable unless carried by an
        // outer loop.
        let affected = self.affected_comps(&path[..pa]);
        for dep in deps_between(ctx.deps(), &affected) {
            if dep.reorderable {
                continue;
            }
            let Some(d) = &dep.distance else {
                return Err(illegal(t, Detail::Fixed("non-uniform dependence")));
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
            for level in [level_a, level_b] {
                if level < d.len() && d[level].may_be_negative() {
                    return Err(illegal(
                        t,
                        Detail::BandNotPermutable {
                            level,
                            dist: d[level],
                        },
                    ));
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
        let mut path = comp_path(&self.roots, comp).ok_or(ScheduleError::UnknownComp(comp))?;
        if path.len() < 2 {
            return Err(ScheduleError::LevelOutOfRange { comp, level: 0 });
        }
        path.pop();
        Ok(path)
    }

    fn unroll(
        &mut self,
        ctx: &Legality<'_>,
        comp: CompId,
        factor: i64,
    ) -> Result<(), ScheduleError> {
        check_comp(ctx.program, comp)?;
        let prefix = self.innermost_loop_prefix(comp)?;
        let l = loop_at_mut(&mut self.roots, &prefix);
        if factor < 2 || factor > l.extent {
            return Err(ScheduleError::BadFactor {
                detail: Detail::UnrollFactor {
                    factor,
                    extent: l.extent,
                },
            });
        }
        if l.unroll_factor.is_some() {
            return Err(ScheduleError::AlreadyTransformed {
                detail: Detail::Fixed("loop already unrolled"),
            });
        }
        l.unroll_factor = Some(factor);
        Ok(())
    }

    fn parallelize(
        &mut self,
        ctx: &Legality<'_>,
        t: &Transform,
        comp: CompId,
        level: usize,
    ) -> Result<(), ScheduleError> {
        check_comp(ctx.program, comp)?;
        let (path, plen) = self.find_level_loop(ctx.program, comp, level, true)?;
        let affected = self.affected_comps(&path[..plen]);
        for dep in deps_between(ctx.deps(), &affected) {
            let Some(d) = &dep.distance else {
                return Err(illegal(t, Detail::Fixed("non-uniform dependence")));
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
                return Err(illegal(
                    t,
                    Detail::Carried {
                        level,
                        dist: d[level],
                    },
                ));
            }
        }
        let l = loop_at_mut(&mut self.roots, &path[..plen]);
        l.parallel = true;
        Ok(())
    }

    fn vectorize(
        &mut self,
        ctx: &Legality<'_>,
        t: &Transform,
        comp: CompId,
        factor: i64,
    ) -> Result<(), ScheduleError> {
        check_comp(ctx.program, comp)?;
        let prefix = self.innermost_loop_prefix(comp)?;
        let (level, extent, already) = {
            let l = loop_at(&self.roots, &prefix);
            let target = self.resolve(l.source.iter());
            let lvl = ctx
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
                detail: Detail::Fixed("loop already vectorized"),
            });
        }
        if factor < 2 || factor > extent {
            return Err(ScheduleError::BadFactor {
                detail: Detail::VectorFactor { factor, extent },
            });
        }
        let affected = self.affected_comps(&prefix);
        for dep in deps_between(ctx.deps(), &affected) {
            // Associative reductions may be vectorized (lane-wise partial
            // accumulators), as production compilers do under fast-math.
            if dep.reorderable {
                continue;
            }
            let Some(d) = &dep.distance else {
                return Err(illegal(t, Detail::Fixed("non-uniform dependence")));
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
                return Err(illegal(t, Detail::CarriedInnermost { level }));
            }
        }
        let l = loop_at_mut(&mut self.roots, &prefix);
        l.vector_factor = Some(factor);
        Ok(())
    }

    fn fuse(
        &mut self,
        ctx: &Legality<'_>,
        t: &Transform,
        comp: CompId,
        with: CompId,
        depth: usize,
    ) -> Result<(), ScheduleError> {
        let program = ctx.program;
        check_comp(program, comp)?;
        check_comp(program, with)?;
        let mismatch = |detail| ScheduleError::FusionMismatch { detail };
        if depth == 0 {
            return Err(mismatch(Detail::Fixed("fusion depth must be at least 1")));
        }
        let path_b = comp_path(&self.roots, comp).ok_or(ScheduleError::UnknownComp(comp))?;
        let path_a = comp_path(&self.roots, with).ok_or(ScheduleError::UnknownComp(with))?;
        if path_a[0] == path_b[0] {
            return Err(mismatch(Detail::Fixed(
                "computations already share a root nest",
            )));
        }
        if path_a[0] > path_b[0] {
            return Err(mismatch(Detail::Fixed(
                "fusion host must be textually earlier",
            )));
        }
        if depth + 1 > path_a.len() || depth + 1 > path_b.len() {
            return Err(mismatch(Detail::FusionDepth { depth }));
        }
        // The donor's outer loops must form a branch-free chain so the
        // whole remainder moves as one unit.
        for plen in 1..=depth {
            let l = loop_at(&self.roots, &path_b[..plen]);
            if plen < depth && l.children.len() != 1 {
                return Err(ScheduleError::NotBranchFree {
                    comp,
                    detail: Detail::Fixed("donor nest branches above the fusion depth"),
                });
            }
            if !matches!(l.source, LoopSource::Orig { .. }) {
                return Err(ScheduleError::AlreadyTransformed {
                    detail: Detail::Fixed("cannot fuse through tiled loops"),
                });
            }
        }
        // Matching bounds: after fusion the donor's iterators alias the
        // host's *values*, so both lower and upper bounds must coincide
        // (equal extents alone would shift the donor's accesses).
        let ca = program.comp(with);
        let cb = program.comp(comp);
        let mut shared_extents = Vec::with_capacity(depth);
        for level in 0..depth {
            let ia = program.iter_of(self.resolve(ca.iters[level]));
            let ib = program.iter_of(self.resolve(cb.iters[level]));
            if ia.lower != ib.lower || ia.upper != ib.upper {
                return Err(mismatch(Detail::BoundsMismatch {
                    level,
                    host: (ia.lower, ia.upper),
                    donor: (ib.lower, ib.upper),
                }));
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
                let cx = program.comp(x);
                let cy = program.comp(y);
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
                            FusionCheck::NoAlias | FusionCheck::NonNegative => {}
                            FusionCheck::Violates(violation) => {
                                return Err(illegal(t, Detail::Fusion(violation)));
                            }
                        }
                    }
                }
            }
        }
        // Record aliases for every donor computation's outer iterators.
        for &y in &donor_comps {
            let cy = program.comp(y);
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

/// `t` would violate a dependence.
fn illegal(t: &Transform, detail: Detail) -> ScheduleError {
    ScheduleError::IllegalDependence {
        transform: t.clone(),
        detail,
    }
}

fn check_comp(program: &Program, comp: CompId) -> Result<(), ScheduleError> {
    if comp.0 >= program.num_comps() {
        return Err(ScheduleError::UnknownComp(comp));
    }
    Ok(())
}

/// Validates and applies `schedule` to `program`: the one-shot form of
/// [`Legality::apply`], for callers with one schedule to check. Callers
/// validating many schedules of one program build a [`Legality`] once.
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
    Legality::new(program).apply(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::program::{LinExpr, ProgramBuilder};

    /// `out[i][j] = out[i-1][j+1] + 1` over a 14x14 interior (distance
    /// `(1, -1)` on `c0`), two computations sharing an outer loop (a
    /// branching loop above `c1`/`c2`), and a 1-D scan (`c3`, distance
    /// `(1)` on its innermost loop).
    fn program() -> Program {
        let mut b = ProgramBuilder::new("errors");
        let i = b.iter("i", 1, 15);
        let j = b.iter("j", 1, 15);
        let out = b.buffer("out", &[16, 16]);
        let load = b.access(out, &[LinExpr::from(i) - 1, LinExpr::from(j) + 1], &[i, j]);
        b.assign(
            "c0",
            &[i, j],
            out,
            &[i.into(), j.into()],
            Expr::binary(BinOp::Add, Expr::Load(load), Expr::Const(1.0)),
        );
        let a = b.iter("a", 0, 8);
        let k = b.iter("k", 0, 8);
        let l = b.iter("l", 0, 8);
        let acc = b.buffer("acc", &[8, 8]);
        let acc2 = b.buffer("acc2", &[8, 8]);
        b.assign("c1", &[a, k], acc, &[a.into(), k.into()], Expr::Const(1.0));
        b.assign("c2", &[a, l], acc2, &[a.into(), l.into()], Expr::Const(2.0));
        let x = b.iter("x", 1, 16);
        let scan = b.buffer("scan", &[16]);
        let prev = b.access(scan, &[LinExpr::from(x) - 1], &[x]);
        b.assign("c3", &[x], scan, &[x.into()], Expr::Load(prev));
        b.build().unwrap()
    }

    fn rejection(transforms: Vec<Transform>) -> String {
        apply_schedule(&program(), &Schedule::new(transforms))
            .expect_err("schedule must be rejected")
            .to_string()
    }

    /// One rendered message per variant, each from a real rejection:
    /// errors carry values and render on demand, and this is what keeps
    /// the text from drifting.
    #[test]
    fn rendered_errors_are_pinned() {
        let c0 = CompId(0);
        let tile = |size_a, size_b| Transform::Tile {
            comp: c0,
            level_a: 0,
            level_b: 1,
            size_a,
            size_b,
        };
        let unroll = Transform::Unroll {
            comp: c0,
            factor: 2,
        };
        let interchange = |comp, level_a, level_b| Transform::Interchange {
            comp,
            level_a,
            level_b,
        };
        assert_eq!(
            rejection(vec![unroll.clone(), tile(2, 2)]),
            "schedule is not in canonical fuse/interchange/tile/tag order"
        );
        assert_eq!(
            rejection(vec![Transform::Unroll {
                comp: CompId(9),
                factor: 2
            }]),
            "unknown computation c9"
        );
        assert_eq!(
            rejection(vec![Transform::Parallelize { comp: c0, level: 5 }]),
            "level L5 out of range for computation c0"
        );
        assert_eq!(
            rejection(vec![Transform::Fuse {
                comp: CompId(2),
                with: c0,
                depth: 2
            }]),
            "loops of c2 are not a branch-free chain: donor nest branches above the fusion depth"
        );
        assert_eq!(
            rejection(vec![Transform::Tile {
                comp: c0,
                level_a: 1,
                level_b: 0,
                size_a: 2,
                size_b: 2
            }]),
            "tiled levels of c0 are not adjacent"
        );
        assert_eq!(
            rejection(vec![tile(2, 32)]),
            "invalid factor: tile size 32 invalid for level L1 with extent 14"
        );
        assert_eq!(
            rejection(vec![interchange(c0, 0, 1)]),
            "interchange(c0, L0, L1) violates a dependence: \
             dependence Some([Exact(1), Exact(-1)]) would be reversed"
        );
        assert_eq!(
            rejection(vec![tile(2, 2)]),
            "tile(c0, L0, L1) violates a dependence: band not permutable at L1: Exact(-1)"
        );
        assert_eq!(
            rejection(vec![Transform::Parallelize { comp: c0, level: 0 }]),
            "parallelize(c0, L0) violates a dependence: dependence carried at L0: Exact(1)"
        );
        assert_eq!(
            rejection(vec![Transform::Fuse {
                comp: CompId(1),
                with: c0,
                depth: 1
            }]),
            "illegal fusion: bounds mismatch at L0: 1..15 vs 0..8"
        );
        assert_eq!(
            rejection(vec![unroll.clone(), unroll]),
            "transform applied twice: loop already unrolled"
        );
        // The values behind the other dynamic explanations.
        assert_eq!(
            rejection(vec![Transform::Unroll {
                comp: c0,
                factor: 64
            }]),
            "invalid factor: unroll factor 64 for extent 14"
        );
        assert_eq!(
            rejection(vec![Transform::Vectorize {
                comp: CompId(1),
                factor: 1
            }]),
            "invalid factor: vector factor 1 for extent 8"
        );
        assert_eq!(
            rejection(vec![Transform::Vectorize {
                comp: CompId(3),
                factor: 4
            }]),
            "vectorize(c3, 4) violates a dependence: dependence carried at innermost L0"
        );
        assert_eq!(
            rejection(vec![Transform::Fuse {
                comp: CompId(1),
                with: c0,
                depth: 3
            }]),
            "illegal fusion: fusion depth 3 exceeds a nest depth"
        );
    }

    /// The analysis is deferred to the first transform that reads a
    /// dependence and is then kept: the empty schedule, fusion and unroll
    /// never run it.
    #[test]
    fn analysis_is_lazy_and_runs_at_most_once() {
        let p = program();
        let ctx = Legality::new(&p);
        let mut state = ctx.root();
        assert!(ctx.apply(&Schedule::empty()).is_ok());
        // Rejected on bounds, after walking both nests — no dependence read.
        let fuse = Transform::Fuse {
            comp: CompId(1),
            with: CompId(0),
            depth: 1,
        };
        assert!(ctx.extend(&mut state, &fuse).is_err());
        let unroll = Transform::Unroll {
            comp: CompId(0),
            factor: 2,
        };
        ctx.extend(&mut state, &unroll).unwrap();
        assert!(ctx.deps.get().is_none(), "nothing has read a dependence");

        let par = Transform::Parallelize {
            comp: CompId(1),
            level: 0,
        };
        ctx.extend(&mut state, &par).unwrap();
        let analyzed = ctx.deps.get().expect("parallelize reads dependences");
        assert_eq!(analyzed, &analyze(&p));
        let first = analyzed.as_ptr();
        ctx.extend(
            &mut state,
            &Transform::Vectorize {
                comp: CompId(1),
                factor: 4,
            },
        )
        .unwrap();
        assert_eq!(
            ctx.deps.get().unwrap().as_ptr(),
            first,
            "the first analysis is the one every later transform reads"
        );
    }
}
