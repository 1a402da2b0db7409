//! Schedule application: validating `(Program, Schedule)` and producing
//! the transformed loop forest, with legality checking at every step.
//!
//! This is the part of Tiramisu the paper's step 2 relies on ("the
//! compiler checks the validity of each candidate"). Each transform is
//! validated against the dependence analysis of [`crate::deps`] and then
//! applied structurally to the flat loop forest of a [`LegalPrefix`].
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
//!   is checked per extension. It is a flat value — node tables linked by
//!   index, whose clone costs the same few allocations on any nest — so
//!   a search carries one per candidate and clones it to try each
//!   one-transform extension.
//!
//! [`Legality::extend`] validates and applies one transform on top of a
//! prefix; [`Legality::prefix`] and [`Legality::apply`] replay a whole
//! schedule through it, and [`apply_schedule`] is the one-shot wrapper
//! (fresh context, `apply`). A search that tries a dozen children of one
//! candidate therefore analyzes once, replays nothing, and pays one
//! clone and one `extend` per child — not a from-scratch re-application
//! each. A [`ScheduledProgram`] is a whole schedule's prefix beside the
//! program it was validated against: nothing is copied or rebuilt to
//! execute, analyze or interpret it.

use std::fmt;
use std::sync::OnceLock;

use crate::deps::{analyze, Dependence, Dist, FusionCheck, FusionViolation};
use crate::program::{CompId, IterId, LoopNode, Program, TreeNode};
use crate::transform::{Schedule, Transform};

/// Where a scheduled loop comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// A loop of the scheduled program: its header, without its children.
#[derive(Debug, Clone, Copy, PartialEq)]
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
}

impl SLoop {
    fn plain(source: LoopSource, extent: i64) -> Self {
        Self {
            source,
            extent,
            parallel: false,
            vector_factor: None,
            unroll_factor: None,
        }
    }
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

/// A program with a fully applied, validated schedule: the
/// [`LegalPrefix`] of the whole schedule beside the program it was
/// validated against.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledProgram<'p> {
    program: &'p Program,
    state: LegalPrefix,
}

impl<'p> ScheduledProgram<'p> {
    /// The source program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The validated state of the whole schedule.
    pub fn prefix(&self) -> &LegalPrefix {
        &self.state
    }

    /// Resolves an iterator through fusion aliases.
    pub fn resolve(&self, it: IterId) -> IterId {
        self.state.resolve(it)
    }

    /// Number of root nests of the transformed forest.
    pub fn num_roots(&self) -> usize {
        self.state.siblings(self.state.first_root).count()
    }

    /// The loops enclosing `comp`, outermost first, each with its node
    /// index: an identity that two computations' chains share exactly
    /// where they share a loop.
    pub fn loops(&self, comp: CompId) -> impl ExactSizeIterator<Item = (usize, SLoop)> + '_ {
        let (state, leaf) = (&self.state, comp.0 as u32);
        (0..state.loop_depth(leaf)).rev().map(move |up| {
            let n = state.ancestors(leaf).nth(up).expect("within the depth");
            (n as usize, *state.header(n))
        })
    }
}

/// Marks an absent link in a [`LegalPrefix`]'s node table.
const NONE: u32 = u32::MAX;

/// `first_child` of a computation node `Legality::root` has not yet met
/// in the program tree (computations have no children otherwise).
const UNPLACED: u32 = u32::MAX - 1;

/// One node of a [`LegalPrefix`]'s forest. Computation `c` is node `c`;
/// loops follow. Links are node indices, [`NONE`] when absent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// `None` for a computation leaf.
    pub(crate) header: Option<SLoop>,
    parent: u32,
    pub(crate) first_child: u32,
    next_sibling: u32,
}

impl Node {
    fn new(header: Option<SLoop>, parent: u32) -> Self {
        Self {
            header,
            parent,
            first_child: NONE,
            next_sibling: NONE,
        }
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
///
/// The state is flat: a table of nodes linked by index (computation `c`
/// is node `c`, loops follow), the fusion aliases as a sorted list and
/// the nesting orders as one row per computation. A clone therefore
/// costs the same few allocations whatever the size of the nest, and
/// searches carry one per candidate instead of replaying its schedule.
/// Equality is structural: two prefixes are equal when their forests,
/// aliases, nesting orders and phases are, however their tables are laid
/// out.
#[derive(Debug, Clone)]
pub struct LegalPrefix {
    pub(crate) nodes: Vec<Node>,
    /// The first root of the forest; roots chain through `next_sibling`.
    pub(crate) first_root: u32,
    /// Fusion aliases (fused iter → host iter), sorted by fused iter.
    aliases: Vec<(IterId, IterId)>,
    /// Current nesting orders, `stride` entries per computation:
    /// `nest_order[c * stride + position] = original level`.
    nest_order: Vec<usize>,
    stride: usize,
    /// [`Transform::phase`] of the last transform applied (0 when none).
    phase: u8,
}

impl LegalPrefix {
    /// Rebuilds the forest bottom-up: `leaf` maps each computation and
    /// `node` each loop — its header — together with its mapped children,
    /// in order.
    pub fn map_forest<T>(
        &self,
        leaf: &mut impl FnMut(CompId) -> T,
        node: &mut impl FnMut(SLoop, Vec<T>) -> T,
    ) -> Vec<T> {
        self.map_siblings(self.first_root, leaf, node)
    }

    fn map_siblings<T>(
        &self,
        first: u32,
        leaf: &mut impl FnMut(CompId) -> T,
        node: &mut impl FnMut(SLoop, Vec<T>) -> T,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(self.siblings(first).count());
        for n in self.siblings(first) {
            let Node {
                header,
                first_child,
                ..
            } = self.nodes[n as usize];
            out.push(match header {
                None => leaf(CompId(n as usize)),
                Some(h) => {
                    let children = self.map_siblings(first_child, leaf, node);
                    node(h, children)
                }
            });
        }
        out
    }
}

impl PartialEq for LegalPrefix {
    fn eq(&self, other: &Self) -> bool {
        /// Whether the sibling chains from `x` in `a` and from `y` in `b`
        /// hold the same subtrees in the same order.
        fn same(a: &LegalPrefix, mut x: u32, b: &LegalPrefix, mut y: u32) -> bool {
            while x != NONE && y != NONE {
                let (nx, ny) = (&a.nodes[x as usize], &b.nodes[y as usize]);
                let equal = match (nx.header, ny.header) {
                    (None, None) => x == y,
                    (Some(hx), Some(hy)) => hx == hy && same(a, nx.first_child, b, ny.first_child),
                    _ => false,
                };
                if !equal {
                    return false;
                }
                (x, y) = (nx.next_sibling, ny.next_sibling);
            }
            x == y
        }
        self.phase == other.phase
            && self.stride == other.stride
            && self.aliases == other.aliases
            && self.nest_order == other.nest_order
            && same(self, self.first_root, other, other.first_root)
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
        /// Appends `children` under `parent` and returns the first one.
        fn build(
            program: &Program,
            nodes: &mut Vec<Node>,
            parent: u32,
            children: &[TreeNode],
        ) -> u32 {
            let mut first = NONE;
            let mut prev = NONE;
            for child in children {
                let id = match child {
                    TreeNode::Comp(c) => {
                        // A leaf naming a computation the program lacks, or
                        // one already placed, would corrupt the links.
                        let node = nodes
                            .get_mut(c.0)
                            .filter(|n| n.header.is_none() && n.first_child == UNPLACED)
                            .unwrap_or_else(|| {
                                panic!(
                                    "the program tree names computation c{} twice or out of range",
                                    c.0
                                )
                            });
                        node.first_child = NONE;
                        node.parent = parent;
                        c.0 as u32
                    }
                    TreeNode::Loop(LoopNode { iter, children }) => {
                        let id = nodes.len() as u32;
                        let header =
                            SLoop::plain(LoopSource::Orig { iter: *iter }, program.extent(*iter));
                        nodes.push(Node::new(Some(header), parent));
                        nodes[id as usize].first_child = build(program, nodes, id, children);
                        id
                    }
                };
                if prev == NONE {
                    first = id;
                } else {
                    nodes[prev as usize].next_sibling = id;
                }
                prev = id;
            }
            first
        }
        let program = self.program;
        // Computations first, then the loops: as many as the program has
        // iterators, as a rule.
        let mut nodes = Vec::with_capacity(program.num_comps() + program.iters.len());
        let mut unplaced = Node::new(None, NONE);
        unplaced.first_child = UNPLACED;
        nodes.resize(program.num_comps(), unplaced);
        let first_root = build(program, &mut nodes, NONE, &program.roots);
        let stride = program.comps.iter().map(|c| c.depth()).max().unwrap_or(0);
        let mut nest_order = vec![0; program.num_comps() * stride];
        for (c, comp) in program.comps.iter().enumerate() {
            for level in 0..comp.depth() {
                nest_order[c * stride + level] = level;
            }
        }
        LegalPrefix {
            nodes,
            first_root,
            aliases: Vec::new(),
            nest_order,
            stride,
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
    pub fn apply(&self, schedule: &Schedule) -> Result<ScheduledProgram<'p>, ScheduleError> {
        Ok(ScheduledProgram {
            program: self.program,
            state: self.prefix(schedule)?,
        })
    }
}

/// Checks that a dependence distance vector, read in `order` (positions
/// → original levels), stays lexicographically non-negative.
fn dist_lex_ok(d: &[Dist], order: impl IntoIterator<Item = usize>) -> bool {
    for level in order {
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

/// One method per transform. Each runs every check before its first
/// mutation, which is what lets [`Legality::extend`] promise that a
/// rejection leaves the state untouched. The checks walk the node table
/// through parent and sibling links; none of them allocates.
impl LegalPrefix {
    fn header(&self, n: u32) -> &SLoop {
        self.nodes[n as usize].header.as_ref().expect("a loop node")
    }

    fn header_mut(&mut self, n: u32) -> &mut SLoop {
        self.nodes[n as usize].header.as_mut().expect("a loop node")
    }

    fn parent(&self, n: u32) -> Option<u32> {
        let parent = self.nodes[n as usize].parent;
        (parent != NONE).then_some(parent)
    }

    /// `first` and the siblings after it.
    pub(crate) fn siblings(&self, first: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors((first != NONE).then_some(first), |&n| {
            let next = self.nodes[n as usize].next_sibling;
            (next != NONE).then_some(next)
        })
    }

    fn children(&self, n: u32) -> impl Iterator<Item = u32> + '_ {
        self.siblings(self.nodes[n as usize].first_child)
    }

    /// The loops enclosing node `n`, innermost first.
    fn ancestors(&self, n: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.parent(n), |&a| self.parent(a))
    }

    /// Number of loops enclosing node `n`.
    fn loop_depth(&self, n: u32) -> usize {
        self.ancestors(n).count()
    }

    /// The forest root node `n` hangs under (`n` itself for a root).
    fn root_of(&self, n: u32) -> u32 {
        self.ancestors(n).last().unwrap_or(n)
    }

    /// Whether loop `l` encloses computation `c`.
    fn encloses(&self, l: u32, c: CompId) -> bool {
        self.ancestors(c.0 as u32).any(|a| a == l)
    }

    /// The computations under node `top`, in tree order: a pre-order walk
    /// that climbs back through parent links instead of keeping a stack.
    fn comps_under(&self, top: u32) -> impl Iterator<Item = CompId> + '_ {
        let mut next = Some(top);
        std::iter::from_fn(move || {
            while let Some(n) = next {
                let node = &self.nodes[n as usize];
                next = if node.first_child != NONE {
                    Some(node.first_child)
                } else {
                    let mut m = n;
                    loop {
                        if m == top {
                            break None;
                        }
                        let sibling = self.nodes[m as usize].next_sibling;
                        if sibling != NONE {
                            break Some(sibling);
                        }
                        m = self.nodes[m as usize].parent;
                    }
                };
                if node.header.is_none() {
                    return Some(CompId(n as usize));
                }
            }
            None
        })
    }

    /// The dependences whose two ends are both under loop `l`.
    fn deps_under<'a>(
        &'a self,
        deps: &'a [Dependence],
        l: u32,
    ) -> impl Iterator<Item = &'a Dependence> + 'a {
        deps.iter()
            .filter(move |d| self.encloses(l, d.src) && self.encloses(l, d.dst))
    }

    /// Current nesting order of `comp` (position → original level).
    fn order(&self, program: &Program, comp: CompId) -> &[usize] {
        let start = comp.0 * self.stride;
        &self.nest_order[start..start + program.comp(comp).depth()]
    }

    pub(crate) fn resolve(&self, mut it: IterId) -> IterId {
        while let Ok(i) = self.aliases.binary_search_by_key(&it, |&(from, _)| from) {
            it = self.aliases[i].1;
        }
        it
    }

    /// The outermost loop deriving from original level `level` of `comp`
    /// (tile-outer before tile-inner).
    fn find_level_loop(
        &self,
        program: &Program,
        comp: CompId,
        level: usize,
    ) -> Result<u32, ScheduleError> {
        let c = program.comp(comp);
        if level >= c.depth() {
            return Err(ScheduleError::LevelOutOfRange { comp, level });
        }
        let target = self.resolve(c.iters[level]);
        self.ancestors(comp.0 as u32)
            .filter(|&l| self.resolve(self.header(l).source.iter()) == target)
            .last()
            .ok_or(ScheduleError::LevelOutOfRange { comp, level })
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
        let a = self.find_level_loop(ctx.program, comp, level_a)?;
        let b = self.find_level_loop(ctx.program, comp, level_b)?;
        let (outer, inner) = if self.loop_depth(a) <= self.loop_depth(b) {
            (a, b)
        } else {
            (b, a)
        };
        // Branch-free chain from outer to inner: the outermost branching
        // loop strictly above `inner` is the one reported.
        if outer != inner {
            let mut branching = None;
            for l in self.ancestors(inner) {
                let children = self.children(l).count();
                if children != 1 {
                    branching = Some((l, children));
                }
                if l == outer {
                    break;
                }
            }
            if let Some((l, children)) = branching {
                return Err(ScheduleError::NotBranchFree {
                    comp,
                    detail: Detail::LoopChildren {
                        depth: self.loop_depth(l),
                        children,
                    },
                });
            }
        }
        // Dependence legality: distances read in the *new* order must stay
        // lexicographically non-negative. A nesting order is a permutation
        // of its computation's levels, so it holds both levels exactly
        // when both are below its length, and then the interchange swaps
        // them.
        let swapped = |order: &[usize], l: usize| {
            if level_a.max(level_b) >= order.len() {
                l
            } else if l == level_a {
                level_b
            } else if l == level_b {
                level_a
            } else {
                l
            }
        };
        for dep in self.deps_under(ctx.deps(), outer) {
            if dep.reorderable {
                continue;
            }
            let Some(d) = &dep.distance else {
                return Err(illegal(t, Detail::Fixed("non-uniform dependence")));
            };
            let order = self.order(ctx.program, dep.dst);
            if !dist_lex_ok(d, order.iter().map(|&l| swapped(order, l))) {
                return Err(illegal(t, Detail::Reversed(d.clone())));
            }
        }
        // Structurally swap the two loop headers.
        let (header_a, header_b) = (*self.header(outer), *self.header(inner));
        *self.header_mut(outer) = header_b;
        *self.header_mut(inner) = header_a;
        // Update nesting orders.
        let stride = self.stride;
        for c in ctx.program.comp_ids() {
            if !self.encloses(outer, c) {
                continue;
            }
            let depth = ctx.program.comp(c).depth();
            let row = &mut self.nest_order[c.0 * stride..c.0 * stride + depth];
            if let (Some(ia), Some(ib)) = (
                row.iter().position(|&l| l == level_a),
                row.iter().position(|&l| l == level_b),
            ) {
                row.swap(ia, ib);
            }
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
        let a = self.find_level_loop(ctx.program, comp, level_a)?;
        let b = self.find_level_loop(ctx.program, comp, level_b)?;
        // Both enclose `comp`, so `b` sits right under `a` exactly when
        // `a` is its parent.
        if self.parent(b) != Some(a) {
            return Err(ScheduleError::NotAdjacent { comp });
        }
        if self.children(a).count() != 1 {
            return Err(ScheduleError::NotBranchFree {
                comp,
                detail: Detail::Fixed("tiled outer loop has siblings inside"),
            });
        }
        let (outer, inner) = (*self.header(a), *self.header(b));
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
        // Legality: the band must be fully permutable unless carried by an
        // outer loop.
        for dep in self.deps_under(ctx.deps(), a) {
            if dep.reorderable {
                continue;
            }
            let Some(d) = &dep.distance else {
                return Err(illegal(t, Detail::Fixed("non-uniform dependence")));
            };
            // Carried by a level nested outside the band: the levels other
            // than the band's, up to the first at or past `level_a`'s
            // position.
            let order = self.order(ctx.program, dep.dst);
            let pos_a = order
                .iter()
                .position(|&x| x == level_a)
                .unwrap_or(usize::MAX);
            let carried_outside = order
                .iter()
                .enumerate()
                .filter(|&(_, &l)| l != level_a && l != level_b)
                .take_while(|&(pos, _)| pos < pos_a)
                .any(|(_, &l)| l < d.len() && matches!(d[l], Dist::Exact(v) if v > 0));
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
        // a0 { b0 { a1 { b1 { body } } } }. `a` becomes a0 and keeps its
        // tags, `b` becomes a plain b0, and a1 / b1 are new nodes.
        let (ia, na) = (outer.source.iter(), outer.extent);
        let (ib, nb) = (inner.source.iter(), inner.extent);
        let a1 = self.nodes.len() as u32;
        let b1 = a1 + 1;
        let mut a1_node = Node::new(
            Some(SLoop::plain(
                LoopSource::TileInner {
                    iter: ia,
                    tile: size_a,
                },
                size_a,
            )),
            b,
        );
        a1_node.first_child = b1;
        let mut b1_node = Node::new(
            Some(SLoop::plain(
                LoopSource::TileInner {
                    iter: ib,
                    tile: size_b,
                },
                size_b,
            )),
            a1,
        );
        b1_node.first_child = self.nodes[b as usize].first_child;
        self.nodes.push(a1_node);
        self.nodes.push(b1_node);
        let mut body = self.nodes[b1 as usize].first_child;
        while body != NONE {
            self.nodes[body as usize].parent = b1;
            body = self.nodes[body as usize].next_sibling;
        }
        self.nodes[b as usize].first_child = a1;
        *self.header_mut(b) = SLoop::plain(
            LoopSource::TileOuter {
                iter: ib,
                tile: size_b,
            },
            nb.div_euclid(size_b) + i64::from(nb % size_b != 0),
        );
        let h = self.header_mut(a);
        h.source = LoopSource::TileOuter {
            iter: ia,
            tile: size_a,
        };
        h.extent = na.div_euclid(size_a) + i64::from(na % size_a != 0);
        Ok(())
    }

    fn innermost_loop(&self, comp: CompId) -> Result<u32, ScheduleError> {
        self.parent(comp.0 as u32)
            .ok_or(ScheduleError::LevelOutOfRange { comp, level: 0 })
    }

    fn unroll(
        &mut self,
        ctx: &Legality<'_>,
        comp: CompId,
        factor: i64,
    ) -> Result<(), ScheduleError> {
        check_comp(ctx.program, comp)?;
        let l = self.header_mut(self.innermost_loop(comp)?);
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
        let l = self.find_level_loop(ctx.program, comp, level)?;
        for dep in self.deps_under(ctx.deps(), l) {
            let Some(d) = &dep.distance else {
                return Err(illegal(t, Detail::Fixed("non-uniform dependence")));
            };
            // Carried by a loop outside the parallel one?
            let order = self.order(ctx.program, dep.dst);
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
        self.header_mut(l).parallel = true;
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
        let l = self.innermost_loop(comp)?;
        let (level, extent, already) = {
            let h = self.header(l);
            let target = self.resolve(h.source.iter());
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
            (lvl, h.extent, h.vector_factor.is_some())
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
        for dep in self.deps_under(ctx.deps(), l) {
            // Associative reductions may be vectorized (lane-wise partial
            // accumulators), as production compilers do under fast-math.
            if dep.reorderable {
                continue;
            }
            let Some(d) = &dep.distance else {
                return Err(illegal(t, Detail::Fixed("non-uniform dependence")));
            };
            let order = self.order(ctx.program, dep.dst);
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
        self.header_mut(l).vector_factor = Some(factor);
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
        let (donor, host) = (comp.0 as u32, with.0 as u32);
        let (donor_root, host_root) = (self.root_of(donor), self.root_of(host));
        if host_root == donor_root {
            return Err(mismatch(Detail::Fixed(
                "computations already share a root nest",
            )));
        }
        if self.siblings(donor_root).any(|r| r == host_root) {
            return Err(mismatch(Detail::Fixed(
                "fusion host must be textually earlier",
            )));
        }
        if depth > self.loop_depth(host) || depth > self.loop_depth(donor) {
            return Err(mismatch(Detail::FusionDepth { depth }));
        }
        // The donor's outer loops must form a branch-free chain so the
        // whole remainder moves as one unit. Walking down from its root,
        // each loop above the fusion depth has one child: the next loop.
        let mut donor_loop = donor_root;
        for level in 1..=depth {
            if level < depth && self.children(donor_loop).count() != 1 {
                return Err(ScheduleError::NotBranchFree {
                    comp,
                    detail: Detail::Fixed("donor nest branches above the fusion depth"),
                });
            }
            if !matches!(self.header(donor_loop).source, LoopSource::Orig { .. }) {
                return Err(ScheduleError::AlreadyTransformed {
                    detail: Detail::Fixed("cannot fuse through tiled loops"),
                });
            }
            if level < depth {
                donor_loop = self.nodes[donor_loop as usize].first_child;
            }
        }
        // Matching bounds: after fusion the donor's iterators alias the
        // host's *values*, so both lower and upper bounds must coincide
        // (equal extents alone would shift the donor's accesses).
        let ca = program.comp(with);
        let cb = program.comp(comp);
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
        }
        let shared_extents: Vec<i64> = (0..depth)
            .map(|level| program.iter_of(self.resolve(ca.iters[level])).extent())
            .collect();
        // Dependence legality across the two nests: every access pair with
        // a write, solved over the first `depth` (aliased) levels, must
        // yield a lexicographically non-negative distance.
        let accesses = |c: CompId| {
            let c = program.comp(c);
            std::iter::once((&c.store.matrix, c.store.buffer, true)).chain(
                c.expr
                    .loads()
                    .into_iter()
                    .map(|a| (&a.matrix, a.buffer, false)),
            )
        };
        for x in self.comps_under(host_root) {
            for y in self.comps_under(donor_root) {
                for (mx, bx, wx) in accesses(x) {
                    for (my, by, wy) in accesses(y) {
                        if bx != by || !(wx || wy) {
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
        let donors: Vec<CompId> = self.comps_under(donor_root).collect();
        for y in donors {
            let cy = program.comp(y);
            for l in 0..depth.min(cy.depth()) {
                let from = self.resolve(cy.iters[l]);
                let to = self.resolve(ca.iters[l]);
                if from != to {
                    match self.aliases.binary_search_by_key(&from, |&(f, _)| f) {
                        Ok(i) => self.aliases[i].1 = to,
                        Err(i) => self.aliases.insert(i, (from, to)),
                    }
                }
            }
        }
        // Structural move: detach the donor remainder, unlink the donor's
        // root and append the remainder under the host loop at `depth`.
        // The donor's emptied outer loops stay in the table, unreachable.
        let host_loop = self
            .ancestors(host)
            .nth(self.loop_depth(host) - depth)
            .expect("depth checked against the host nest");
        let remainder = std::mem::replace(&mut self.nodes[donor_loop as usize].first_child, NONE);
        let after_donor = self.nodes[donor_root as usize].next_sibling;
        if self.first_root == donor_root {
            self.first_root = after_donor;
        } else {
            let before = self
                .siblings(self.first_root)
                .find(|&r| self.nodes[r as usize].next_sibling == donor_root)
                .expect("the donor root is a root");
            self.nodes[before as usize].next_sibling = after_donor;
        }
        match self.children(host_loop).last() {
            Some(last) => self.nodes[last as usize].next_sibling = remainder,
            None => self.nodes[host_loop as usize].first_child = remainder,
        }
        let mut moved = remainder;
        while moved != NONE {
            self.nodes[moved as usize].parent = host_loop;
            moved = self.nodes[moved as usize].next_sibling;
        }
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
/// assert_eq!(scheduled.loops(CompId(0)).len(), 4); // 2 loops → 4 after tiling
/// # Ok::<(), dlcm_ir::ScheduleError>(())
/// ```
pub fn apply_schedule<'p>(
    program: &'p Program,
    schedule: &Schedule,
) -> Result<ScheduledProgram<'p>, ScheduleError> {
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

    /// A tree leaf naming a computation the program lacks is refused
    /// outright instead of being linked into the node table.
    #[test]
    #[should_panic(expected = "names computation c0 twice or out of range")]
    fn a_leaf_without_its_computation_is_refused() {
        let mut hollow = program();
        hollow.comps.clear();
        Legality::new(&hollow).root();
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
