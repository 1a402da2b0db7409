//! Program characterization (§4.1–4.2 of the paper).
//!
//! A program is characterized as an ordered tree of *computation vectors*
//! (Figure 1). Each computation vector concatenates, per Table 1:
//!
//! 1. **Loop-nest vector** — per loop level (outermost first, up to
//!    `n = 7`, zero-padded): bounds, reduction tag, fusion tag,
//!    interchange tag, tiling tag + factor, unroll tag + factor; we also
//!    include parallel and vectorize tags because this reproduction lets
//!    the search place them explicitly (documented deviation).
//! 2. **Assignment vector** — the store buffer's dimension sizes, then up
//!    to `m = 21` memory accesses, each an access matrix plus the buffer
//!    id, then the four arithmetic-operation counts.
//!
//! Non-boolean features are `log1p`-transformed ("this log-transformation
//! is necessary since these features have a large dynamic range", §4.4).
//! Tags are taken from the *unoptimized* program plus the transformation
//! list — the paper deliberately featurizes source code rather than
//! transformed code (§4.5). Fusion is the exception: it changes the
//! structure representation itself, so the tree mirrors the post-fusion
//! nesting (§4.1, "transformations that involve changing the structure of
//! the program ... are directly applied to the program structure
//! representation").
//!
//! Because tags come from the transformation list, most of an encoding
//! does not depend on the schedule at all. [`Featurizer::base`] encodes
//! a program once — its vectors with every tag zero, and its unfused
//! tree — and [`FeatureBase::featurize`] encodes each schedule of a wave
//! by writing its tags into a copy; [`Featurizer::featurize`] is the
//! wave of one.

use dlcm_ir::{CompId, LegalPrefix, Legality, LoopSource, Program, Schedule, Transform};
use serde::{Deserialize, Serialize};

/// Size limits of the fixed-width encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeaturizerConfig {
    /// Maximum loop-nest depth (paper: `n = 7`).
    pub max_depth: usize,
    /// Maximum number of memory accesses (paper: `m = 21`).
    pub max_accesses: usize,
    /// Maximum buffer rank (access-matrix rows).
    pub max_dims: usize,
}

impl Default for FeaturizerConfig {
    fn default() -> Self {
        Self {
            max_depth: 7,
            max_accesses: 21,
            max_dims: 5,
        }
    }
}

/// Features per loop level. Layout (13 entries):
/// `[present, lower, extent, reduction, fused, interchanged, tiled,
///   tile_factor, unrolled, unroll_factor, parallel, vectorized,
///   vector_factor]`.
pub const LOOP_FEATS: usize = 13;

impl FeaturizerConfig {
    /// Width of one encoded access: the flattened matrix plus
    /// `[present, buffer_id]`.
    pub fn access_width(&self) -> usize {
        self.max_dims * (self.max_depth + 1) + 2
    }

    /// Total computation-vector width.
    pub fn vector_width(&self) -> usize {
        // loop-nest vector + LHS dims (max_dims + rank) + accesses + op counts
        self.max_depth * LOOP_FEATS
            + (self.max_dims + 1)
            + self.max_accesses * self.access_width()
            + 4
    }
}

/// A node of the feature tree (Figure 1b): internal nodes are loop
/// levels, leaves index into [`ProgramFeatures::comp_vectors`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeatNode {
    /// A loop level with ordered children.
    Loop(Vec<FeatNode>),
    /// A computation leaf (index into the vectors).
    Comp(usize),
}

/// The model's input: one vector per computation plus the tree structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramFeatures {
    /// Computation vectors, indexed by [`CompId`] order.
    pub comp_vectors: Vec<Vec<f32>>,
    /// Ordered forest mirroring the (post-fusion) program structure.
    pub tree: Vec<FeatNode>,
}

impl ProgramFeatures {
    /// A stable hash of the tree shape, used to batch structure-identical
    /// samples together (paper appendix A.1). The computation *indices*
    /// are part of the key: batched inference reuses `batch[0]`'s tree
    /// for every row, so two trees are only batch-compatible when the
    /// same computations sit in the same positions (isomorphic shapes
    /// with different comp placements — e.g. opposite fusion choices —
    /// must not collide).
    pub fn structure_key(&self) -> u64 {
        fn visit(node: &FeatNode, h: &mut u64) {
            match node {
                FeatNode::Comp(i) => {
                    *h = h.wrapping_mul(31).wrapping_add(4).wrapping_add(*i as u64)
                }
                FeatNode::Loop(ch) => {
                    *h = h.wrapping_mul(31).wrapping_add(2);
                    for c in ch {
                        visit(c, h);
                    }
                    *h = h.wrapping_mul(31).wrapping_add(3);
                }
            }
        }
        let mut h = 17u64;
        for n in &self.tree {
            visit(n, &mut h);
        }
        h
    }
}

/// Encodes `(program, schedule)` pairs into [`ProgramFeatures`].
#[derive(Debug, Clone, Default)]
pub struct Featurizer {
    cfg: FeaturizerConfig,
}

// Offsets, within one loop level's `LOOP_FEATS` entries, of the nine
// features a schedule sets; the other four (present, lower, extent,
// reduction) depend on the program alone.
const FUSED: usize = 4;
const INTERCHANGED: usize = 5;
const TILED: usize = 6;
const TILE_FACTOR: usize = 7;
const UNROLLED: usize = 8;
const UNROLL_FACTOR: usize = 9;
const PARALLEL: usize = 10;
const VECTORIZED: usize = 11;
const VECTOR_FACTOR: usize = 12;

/// The `log1p` transform of a non-boolean feature (negatives clamp to 0).
fn log(x: i64) -> f32 {
    (x.max(0) as f32).ln_1p()
}

/// A program's features before any schedule: each computation's vector
/// with every schedule tag zero, and the unfused tree. Built once by
/// [`Featurizer::base`], it encodes any number of that program's
/// schedules ([`FeatureBase::featurize`]) — a wave of candidates, a
/// training minibatch.
///
/// Of a loop level's [`LOOP_FEATS`] entries only nine depend on the
/// schedule (fused, interchanged, tiled, tile factor, unrolled, unroll
/// factor, parallel, vectorized, vector factor); the access block, the
/// store buffer's shape and the operation counts depend on the program
/// alone. An untagged entry is `+0.0` (`f32::from(false)`, or the
/// `log1p` of a zero factor), so a copy of the base with a schedule's
/// tags written in holds exactly the bits of that pair's encoding.
#[derive(Debug)]
pub struct FeatureBase<'p> {
    legality: Legality<'p>,
    /// Untagged computation vectors, indexed by [`CompId`] order.
    comp_vectors: Vec<Vec<f32>>,
    /// The unfused program's tree.
    tree: Vec<FeatNode>,
}

impl Featurizer {
    /// Creates a featurizer.
    pub fn new(cfg: FeaturizerConfig) -> Self {
        Self { cfg }
    }

    /// The size limits in use.
    pub fn config(&self) -> FeaturizerConfig {
        self.cfg
    }

    /// Encodes a `(program, schedule)` pair: the one-schedule case of
    /// [`Featurizer::base`] and [`FeatureBase::featurize`], writing the
    /// tags into the base itself instead of a copy. To encode several
    /// schedules of one program, build the base once.
    ///
    /// # Panics
    ///
    /// As [`Featurizer::base`] and [`FeatureBase::featurize`].
    pub fn featurize(&self, program: &Program, schedule: &Schedule) -> ProgramFeatures {
        let FeatureBase {
            legality,
            mut comp_vectors,
            tree,
        } = self.base(program);
        let fused = stamp(&legality, &mut comp_vectors, schedule);
        ProgramFeatures {
            comp_vectors,
            tree: fused.unwrap_or(tree),
        }
    }

    /// Encodes `program`'s features before any schedule.
    ///
    /// # Panics
    ///
    /// Panics if a computation exceeds the configured depth / access /
    /// rank limits.
    pub fn base<'p>(&self, program: &'p Program) -> FeatureBase<'p> {
        let legality = Legality::new(program);
        let comp_vectors = program
            .comp_ids()
            .map(|c| self.comp_vector(program, c))
            .collect();
        let tree = feature_tree(&legality.root());
        FeatureBase {
            legality,
            comp_vectors,
            tree,
        }
    }

    // `l` is a loop level compared against comp.depth(), not a bare
    // slice index.
    #[allow(clippy::needless_range_loop)]
    fn comp_vector(&self, program: &Program, c: CompId) -> Vec<f32> {
        let cfg = self.cfg;
        let comp = program.comp(c);
        assert!(
            comp.depth() <= cfg.max_depth,
            "computation {} exceeds max depth {}",
            comp.name,
            cfg.max_depth
        );
        let mut v = Vec::with_capacity(cfg.vector_width());

        // --- Loop-nest vector (a schedule writes the tags) --------------
        for l in 0..cfg.max_depth {
            if l < comp.depth() {
                let it = program.iter_of(comp.iters[l]);
                v.extend_from_slice(&[
                    1.0,
                    log(it.lower),
                    log(it.extent()),
                    f32::from(comp.is_reduction_level(l)),
                ]);
                v.extend(std::iter::repeat_n(0.0, LOOP_FEATS - FUSED));
            } else {
                v.extend(std::iter::repeat_n(0.0, LOOP_FEATS));
            }
        }

        // --- Assignment vector: LHS buffer shape ------------------------
        let store_buf = program.buffer(comp.store.buffer);
        assert!(
            store_buf.dims.len() <= cfg.max_dims,
            "buffer {} exceeds max rank {}",
            store_buf.name,
            cfg.max_dims
        );
        v.push(store_buf.dims.len() as f32);
        for d in 0..cfg.max_dims {
            v.push(if d < store_buf.dims.len() {
                log(store_buf.dims[d])
            } else {
                0.0
            });
        }

        // --- Assignment vector: memory accesses --------------------------
        let accesses = comp.accesses();
        assert!(
            accesses.len() <= cfg.max_accesses,
            "computation {} has {} accesses (max {})",
            comp.name,
            accesses.len(),
            cfg.max_accesses
        );
        for ai in 0..cfg.max_accesses {
            if let Some(acc) = accesses.get(ai) {
                v.push(1.0);
                // Input-vs-intermediate flag (raw buffer ids are
                // meaningless across programs).
                v.push(f32::from(program.buffer(acc.buffer).is_input));
                let m = &acc.matrix;
                for r in 0..cfg.max_dims {
                    for col in 0..=cfg.max_depth {
                        if r < m.dims() && col <= m.depth() {
                            // Coefficients are small integers; keep raw.
                            v.push(if col < m.depth() {
                                m.get(r, col) as f32
                            } else {
                                m.constant(r) as f32
                            });
                        } else {
                            v.push(0.0);
                        }
                    }
                }
            } else {
                v.extend(std::iter::repeat_n(0.0, cfg.access_width()));
            }
        }

        // --- Operation counts --------------------------------------------
        for count in comp.expr.op_counts() {
            v.push((count as f32).ln_1p());
        }

        debug_assert_eq!(v.len(), cfg.vector_width());
        v
    }
}

/// Mirrors a scheduled loop forest as a feature tree.
fn feature_tree(prefix: &LegalPrefix) -> Vec<FeatNode> {
    prefix.map_forest(&mut |c| FeatNode::Comp(c.0), &mut |l, children| {
        debug_assert!(matches!(l.source, LoopSource::Orig { .. }));
        FeatNode::Loop(children)
    })
}

/// Writes `schedule`'s tags into `vectors`, the untagged vectors of
/// `legality`'s program, and returns the post-fusion tree when the
/// schedule fuses (`None`: the unfused tree stands). A later transform's
/// factor at a level overwrites an earlier one's.
///
/// # Panics
///
/// Panics if a transform names a loop level its computation lacks, or
/// if a `Fuse` transform is illegal.
fn stamp(
    legality: &Legality<'_>,
    vectors: &mut [Vec<f32>],
    schedule: &Schedule,
) -> Option<Vec<FeatNode>> {
    let program = legality.program();
    let mut set = |comp: CompId, level: usize, tags: &[(usize, f32)]| {
        let depth = program.comp(comp).depth();
        assert!(level < depth, "c{} has no loop level {level}", comp.0);
        let at = level * LOOP_FEATS;
        for &(tag, value) in tags {
            vectors[comp.0][at + tag] = value;
        }
    };
    let innermost = |comp: CompId| program.comp(comp).depth().checked_sub(1);
    let mut fuses = false;
    for t in &schedule.transforms {
        match *t {
            Transform::Fuse { comp, with, depth } => {
                fuses = true;
                for c in [comp, with] {
                    for l in 0..depth.min(program.comp(c).depth()) {
                        set(c, l, &[(FUSED, 1.0)]);
                    }
                }
            }
            Transform::Interchange {
                comp,
                level_a,
                level_b,
            } => {
                set(comp, level_a, &[(INTERCHANGED, 1.0)]);
                set(comp, level_b, &[(INTERCHANGED, 1.0)]);
            }
            Transform::Tile {
                comp,
                level_a,
                level_b,
                size_a,
                size_b,
            } => {
                set(comp, level_a, &[(TILED, 1.0), (TILE_FACTOR, log(size_a))]);
                set(comp, level_b, &[(TILED, 1.0), (TILE_FACTOR, log(size_b))]);
            }
            Transform::Unroll { comp, factor } => {
                if let Some(l) = innermost(comp) {
                    set(comp, l, &[(UNROLLED, 1.0), (UNROLL_FACTOR, log(factor))]);
                }
            }
            Transform::Parallelize { comp, level } => set(comp, level, &[(PARALLEL, 1.0)]),
            Transform::Vectorize { comp, factor } => {
                if let Some(l) = innermost(comp) {
                    set(comp, l, &[(VECTORIZED, 1.0), (VECTOR_FACTOR, log(factor))]);
                }
            }
        }
    }
    // Structure: apply only the fusion transforms, then mirror the
    // resulting nesting. Fusion reads no dependence analysis, so this
    // pass never runs one.
    fuses.then(|| {
        let mut structural = legality.root();
        for t in &schedule.transforms {
            if matches!(t, Transform::Fuse { .. }) {
                legality
                    .extend(&mut structural, t)
                    .expect("fusion subset of a legal schedule");
            }
        }
        feature_tree(&structural)
    })
}

impl<'p> FeatureBase<'p> {
    /// The program this base encodes.
    pub fn program(&self) -> &'p Program {
        self.legality.program()
    }

    /// Encodes one of the program's schedules: a copy of the untagged
    /// vectors with the schedule's tags written in, and a copy of the
    /// unfused tree unless the schedule fuses (then the tree is built
    /// from [`Legality`], as the schedule's fusion shapes it).
    ///
    /// # Panics
    ///
    /// Panics if a transform names a loop level its computation lacks,
    /// or if a `Fuse` transform in `schedule` is illegal (callers only
    /// featurize schedules that passed validation).
    pub fn featurize(&self, schedule: &Schedule) -> ProgramFeatures {
        let mut comp_vectors = self.comp_vectors.clone();
        let fused = stamp(&self.legality, &mut comp_vectors, schedule);
        ProgramFeatures {
            comp_vectors,
            tree: fused.unwrap_or_else(|| self.tree.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::{BinOp, Expr, LinExpr, ProgramBuilder};

    fn two_comp_program() -> Program {
        let n = 64;
        let mut b = ProgramBuilder::new("p");
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let inp = b.input("in", &[n, n]);
        let tmp = b.buffer("tmp", &[n, n]);
        let out = b.buffer("out", &[n, n]);
        let l1 = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign("prod", &[i, j], tmp, &[i.into(), j.into()], Expr::Load(l1));
        let i2 = b.iter("i2", 0, n);
        let j2 = b.iter("j2", 0, n);
        let l2 = b.access(tmp, &[i2.into(), j2.into()], &[i2, j2]);
        b.assign(
            "cons",
            &[i2, j2],
            out,
            &[i2.into(), j2.into()],
            Expr::binary(BinOp::Add, Expr::Load(l2), Expr::Const(1.0)),
        );
        b.build().unwrap()
    }

    #[test]
    fn vector_width_matches_layout() {
        let cfg = FeaturizerConfig::default();
        // 7*13 + 6 + 21*(5*8+2) + 4 = 91 + 6 + 882 + 4 = 983.
        assert_eq!(cfg.vector_width(), 983);
        let f = Featurizer::new(cfg);
        let p = two_comp_program();
        let feats = f.featurize(&p, &Schedule::empty());
        assert_eq!(feats.comp_vectors.len(), 2);
        for v in &feats.comp_vectors {
            assert_eq!(v.len(), 983);
        }
    }

    #[test]
    fn tags_appear_at_right_levels() {
        let f = Featurizer::new(FeaturizerConfig::default());
        let p = two_comp_program();
        let sched = Schedule::new(vec![
            dlcm_ir::Transform::Tile {
                comp: CompId(0),
                level_a: 0,
                level_b: 1,
                size_a: 16,
                size_b: 8,
            },
            dlcm_ir::Transform::Unroll {
                comp: CompId(0),
                factor: 4,
            },
        ]);
        let base = f.featurize(&p, &Schedule::empty());
        let tagged = f.featurize(&p, &sched);
        // Level 0 tile tag (offset: present..=vector_factor layout).
        let l0 = &tagged.comp_vectors[0][0..LOOP_FEATS];
        assert_eq!(l0[6], 1.0, "tile tag at level 0");
        assert!((l0[7] - (16f32).ln_1p()).abs() < 1e-6, "tile factor log");
        let l1 = &tagged.comp_vectors[0][LOOP_FEATS..2 * LOOP_FEATS];
        assert_eq!(l1[6], 1.0);
        assert_eq!(l1[8], 1.0, "unroll tag on innermost");
        // Untagged baseline has zeros there.
        assert_eq!(base.comp_vectors[0][6], 0.0);
        // The second computation is untouched.
        assert_eq!(tagged.comp_vectors[1], base.comp_vectors[1]);
    }

    #[test]
    fn tree_mirrors_fusion() {
        let f = Featurizer::new(FeaturizerConfig::default());
        let p = two_comp_program();
        let unfused = f.featurize(&p, &Schedule::empty());
        assert_eq!(unfused.tree.len(), 2, "two separate nests");

        let fused = f.featurize(
            &p,
            &Schedule::new(vec![dlcm_ir::Transform::Fuse {
                comp: CompId(1),
                with: CompId(0),
                depth: 2,
            }]),
        );
        assert_eq!(fused.tree.len(), 1, "one nest after fusion");
        assert_ne!(unfused.structure_key(), fused.structure_key());
        // Fusion tags set on both computations.
        assert_eq!(fused.comp_vectors[0][4], 1.0);
        assert_eq!(fused.comp_vectors[1][4], 1.0);
    }

    #[test]
    fn structure_key_stable_and_shape_sensitive() {
        let f = Featurizer::new(FeaturizerConfig::default());
        let p = two_comp_program();
        let a = f.featurize(&p, &Schedule::empty());
        let b = f.featurize(&p, &Schedule::empty());
        assert_eq!(a.structure_key(), b.structure_key());
    }

    #[test]
    fn reduction_tag_encoded() {
        let mut b = ProgramBuilder::new("red");
        let i = b.iter("i", 0, 8);
        let k = b.iter("k", 0, 16);
        let inp = b.input("in", &[8, 16]);
        let out = b.buffer("out", &[8]);
        let acc = b.access(inp, &[i.into(), k.into()], &[i, k]);
        b.reduce(
            "r",
            &[i, k],
            BinOp::Add,
            out,
            &[LinExpr::from(i)],
            Expr::Load(acc),
        );
        let p = b.build().unwrap();
        let f = Featurizer::new(FeaturizerConfig::default());
        let feats = f.featurize(&p, &Schedule::empty());
        let v = &feats.comp_vectors[0];
        assert_eq!(v[3], 0.0, "level 0 is not a reduction");
        assert_eq!(v[LOOP_FEATS + 3], 1.0, "level 1 is a reduction");
    }

    #[test]
    fn log_transform_applied_to_extents() {
        let p = two_comp_program();
        let f = Featurizer::new(FeaturizerConfig::default());
        let feats = f.featurize(&p, &Schedule::empty());
        let extent_feat = feats.comp_vectors[0][2];
        assert!((extent_feat - (64f32).ln_1p()).abs() < 1e-6);
    }
}
