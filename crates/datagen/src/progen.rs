//! Random program generation (§3 of the paper).
//!
//! "The random code generator generates sequences of computations where
//! each computation is a variant (or a combination) of [three] patterns":
//! simple assignments, stencils, and reductions. Beyond the paper's
//! three, this generator knows six more scenario families — sliding-
//! window convolutions, multi-output reduction pipelines, scans,
//! attention-shaped batched-matmul pipelines, stencils with explicit
//! boundary computations, and strided gather/scatter streams — enabled
//! by [`ProgramGenConfig::wide`] for corpus generation (weights of 0 in
//! [`ProgramGenConfig::default`] keep the paper's distribution
//! reproducible seed-for-seed). Generated programs are correct by
//! construction — a computation consumes constants, input arrays, or
//! values computed by previous computations, and stencil/window bounds
//! are shrunk or padded so every access stays in bounds.

use dlcm_ir::{BinOp, BufferId, Expr, IterId, LinExpr, Program, ProgramBuilder};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the random program generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramGenConfig {
    /// Minimum computations per program.
    pub min_comps: usize,
    /// Maximum computations per program (paper's FFN ablation caps at 4).
    pub max_comps: usize,
    /// Loop-extent pool to draw sizes from ("the size of the input data is
    /// chosen randomly").
    pub size_pool: Vec<i64>,
    /// Maximum iteration points per computation (keeps the simulated
    /// workloads in a realistic range).
    pub max_points: i64,
    /// Maximum natural loop depth. The featurizer checks a computation's
    /// natural depth against its `n = 7` budget and encodes tiling as
    /// per-level tags, not as extra levels, so this cap of 4 is a
    /// generator choice rather than a featurization limit.
    pub max_depth: usize,
    /// Relative weights of the scenario families, indexed like
    /// [`Pattern::ALL`]: `[assign, stencil, reduction, conv, reduction
    /// pipeline, scan, attention, boundary stencil, gather/scatter]`.
    /// Families beyond the vector's length implicitly weight 0, so the
    /// default six-entry `[2, 2, 2, 0, 0, 0]` keeps the paper's
    /// three-family distribution byte-identical per seed, and existing
    /// six-entry configs deserialize unchanged. [`ProgramGenConfig::wide`]
    /// enables all nine — a vector longer than six entries is also the
    /// opt-in that stamps per-program family tags into shard records
    /// ([`ProgramGenConfig::tags_families`]). Setting the contraction
    /// weights to 0 yields an image-processing / deep-learning-flavoured
    /// distribution — used to reproduce the Halide baseline's
    /// training-domain gap (§6).
    pub pattern_weights: Vec<u32>,
}

impl Default for ProgramGenConfig {
    fn default() -> Self {
        Self {
            min_comps: 1,
            max_comps: 4,
            size_pool: vec![16, 32, 64, 128, 256, 512, 1024],
            max_points: 1 << 24,
            max_depth: 4,
            pattern_weights: vec![2, 2, 2, 0, 0, 0],
        }
    }
}

/// Number of families the pre-nine-family weight array covered; a
/// weights vector longer than this is the family-tagging opt-in.
const LEGACY_FAMILIES: usize = 6;

impl ProgramGenConfig {
    /// All nine scenario families, equally weighted — the corpus
    /// configuration, covering more of the paper's program space than
    /// the default three-family distribution.
    pub fn wide() -> Self {
        Self {
            pattern_weights: vec![2; Pattern::ALL.len()],
            ..Self::default()
        }
    }

    /// Whether corpora built from this configuration carry per-program
    /// family tags in their `Program` shard records. Tagging rides the
    /// nine-family opt-in (a weights vector longer than the legacy six
    /// entries): default-weight corpora stay byte-identical to pre-tag
    /// output, which is the seed-stability guarantee.
    pub fn tags_families(&self) -> bool {
        self.pattern_weights.len() > LEGACY_FAMILIES
    }
}

/// The scenario families: the paper's three §3 assignment patterns plus
/// six families widening the corpus (conv-like windows, multi-output
/// reduction pipelines, scans, attention pipelines, boundary stencils,
/// strided gather/scatter streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pattern {
    /// Right-hand side is a pointwise function of inputs / prior buffers.
    Assign,
    /// Neighborhood gather over one source buffer.
    Stencil,
    /// Contraction over one or more reduction loops.
    Reduction,
    /// Sliding-window contraction: `out[x…] = Σ_k in[x+k…] · w[k…]` —
    /// the conv/correlation shape of DL workloads (window loops are
    /// reduction levels, the image input is padded so accesses stay in
    /// bounds).
    Conv,
    /// A reduction whose lower-rank result is immediately consumed by a
    /// broadcasting pointwise computation (softmax/normalization shape):
    /// two computations, two outputs.
    ReductionPipeline,
    /// Recurrence along the innermost loop: `out[i, j] = out[i, j-1] ⊕
    /// in[i, j]` — a prefix sum whose carried dependence makes the scan
    /// loop illegal to parallelize, exercising the legality-constrained
    /// corner of the schedule space.
    Scan,
    /// Attention-shaped batched-matmul pipeline, three computations:
    /// scores `s[b,i,j] = Σ_d q[b,i,d]·k[b,j,d]`, a softmax-style row
    /// reduction `r[b,i] = Σ_j s[b,i,j]`, and the re-weighted output
    /// matmul `o[b,i,e] = Σ_j s[b,i,j]/max(r[b,i],1) · v[b,j,e]`.
    Attention,
    /// A stencil whose halo is handled by explicit boundary
    /// computations: three comps writing disjoint strips of *one*
    /// output buffer (low edge, interior neighborhood gather, high
    /// edge), exercising fusion decisions across boundary/interior.
    BoundaryStencil,
    /// Strided gather/scatter streams with a dense fallback comp: a
    /// dense pass writes the full output, then a gather comp reads a
    /// non-unit-stride slice of the source. True data-dependent
    /// indirection (`in[idx[i]]`) is outside this affine IR; the
    /// constant-stride stream is the affine stand-in whose access
    /// pattern dominates the cost behavior of indirection.
    GatherScatter,
}

impl Pattern {
    /// Every scenario family, in weight-vector order (the paper's three
    /// first, then the widening families in the order they landed).
    pub const ALL: [Pattern; 9] = [
        Pattern::Assign,
        Pattern::Stencil,
        Pattern::Reduction,
        Pattern::Conv,
        Pattern::ReductionPipeline,
        Pattern::Scan,
        Pattern::Attention,
        Pattern::BoundaryStencil,
        Pattern::GatherScatter,
    ];

    /// The family's stable snake_case name — the tag shard records and
    /// per-family accuracy reports carry.
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Assign => "assign",
            Pattern::Stencil => "stencil",
            Pattern::Reduction => "reduction",
            Pattern::Conv => "conv",
            Pattern::ReductionPipeline => "reduction_pipeline",
            Pattern::Scan => "scan",
            Pattern::Attention => "attention",
            Pattern::BoundaryStencil => "boundary_stencil",
            Pattern::GatherScatter => "gather_scatter",
        }
    }
}

/// A buffer available for consumption by later computations.
#[derive(Debug, Clone)]
struct Produced {
    buffer: BufferId,
    dims: Vec<i64>,
}

/// Additive/multiplicative constants drawn by the assign pattern.
const CONST_POOL: [f32; 5] = [0.5, 0.75, 1.0, 1.5, 2.0];
/// Stencil tap weights.
const WEIGHT_POOL: [f32; 5] = [0.05, 0.1, 0.125, 0.25, 0.5];

/// Draws one pool element by consuming a single `f32` sample — the same
/// RNG-stream footprint as the continuous `gen_range(a..b)` draw this
/// replaced (one 32-bit word; an integer `choose` would eat a full
/// `u64`), so programs generated from existing seeds keep their exact
/// structure while constants land on a small discrete grid.
fn pick_f32(pool: &[f32], rng: &mut impl Rng) -> f32 {
    let f: f32 = rng.gen_range(0.0..1.0);
    pool[((f * pool.len() as f32) as usize).min(pool.len() - 1)]
}

/// Random program generator.
#[derive(Debug, Clone)]
pub struct ProgramGenerator {
    cfg: ProgramGenConfig,
}

impl ProgramGenerator {
    /// Creates a generator.
    pub fn new(cfg: ProgramGenConfig) -> Self {
        Self { cfg }
    }

    /// Generates one random program.
    pub fn generate(&self, rng: &mut impl Rng, name: &str) -> Program {
        self.generate_with_family(rng, name).0
    }

    /// Generates one random program along with its scenario family.
    ///
    /// The family is the pattern *actually emitted* for the program's
    /// first computation slot — generation degrades gracefully (a
    /// pipeline without room for all its computations falls back to a
    /// simpler family), and the tag must describe what landed, not what
    /// was rolled. Consumes exactly the same RNG stream as
    /// [`ProgramGenerator::generate`], so existing seeds reproduce.
    pub fn generate_with_family(&self, rng: &mut impl Rng, name: &str) -> (Program, Pattern) {
        loop {
            if let Some(p) = self.try_generate(rng, name) {
                return p;
            }
        }
    }

    fn random_dims(&self, rng: &mut impl Rng, rank: usize) -> Vec<i64> {
        loop {
            let dims: Vec<i64> = (0..rank)
                .map(|_| *self.cfg.size_pool.choose(rng).expect("non-empty pool"))
                .collect();
            if dims.iter().product::<i64>() <= self.cfg.max_points {
                return dims;
            }
        }
    }

    fn try_generate(&self, rng: &mut impl Rng, name: &str) -> Option<(Program, Pattern)> {
        let mut b = ProgramBuilder::new(name);
        let n_comps = rng.gen_range(self.cfg.min_comps..=self.cfg.max_comps);
        let mut produced: Vec<Produced> = Vec::new();

        // Families past the weight vector's length implicitly weight 0,
        // so six-entry (pre-nine-family) configs roll over exactly the
        // same cumulative walk as before.
        let weights = &self.cfg.pattern_weights;
        let weight_of = |k: usize| weights.get(k).copied().unwrap_or(0);
        let total_w = (0..Pattern::ALL.len()).map(weight_of).sum::<u32>().max(1);
        let mut family: Option<Pattern> = None;
        let mut ci = 0;
        while ci < n_comps {
            let roll = rng.gen_range(0..total_w);
            let mut cumulative = 0;
            let mut pattern = Pattern::Assign;
            for (k, p) in Pattern::ALL.iter().enumerate() {
                cumulative += weight_of(k);
                if roll < cumulative {
                    pattern = *p;
                    break;
                }
            }
            // Multi-computation families degrade when the remaining
            // slots cannot hold them (these checks draw no RNG, so the
            // stream stays seed-stable): a pipeline to its first half, a
            // plain reduction; attention likewise; a boundary stencil to
            // its interior stencil; a gather/scatter pair to its dense
            // half, an assignment.
            if pattern == Pattern::ReductionPipeline && ci + 2 > n_comps {
                pattern = Pattern::Reduction;
            }
            if pattern == Pattern::Attention && ci + 3 > n_comps {
                pattern = Pattern::Reduction;
            }
            if pattern == Pattern::BoundaryStencil && ci + 3 > n_comps {
                pattern = Pattern::Stencil;
            }
            if pattern == Pattern::GatherScatter && ci + 2 > n_comps {
                pattern = Pattern::Assign;
            }
            // Every generator reports what it *actually* emitted — the
            // in-method size/depth guards may degrade further — so the
            // slot advance and the family tag stay truthful.
            let (actual, emitted) = match pattern {
                Pattern::Assign => self.gen_assign(&mut b, rng, ci, &mut produced),
                Pattern::Stencil => self.gen_stencil(&mut b, rng, ci, &mut produced),
                Pattern::Reduction => self.gen_reduction(&mut b, rng, ci, &mut produced),
                Pattern::Conv => self.gen_conv(&mut b, rng, ci, &mut produced),
                Pattern::ReductionPipeline => self.gen_pipeline(&mut b, rng, ci, &mut produced),
                Pattern::Scan => self.gen_scan(&mut b, rng, ci, &mut produced),
                Pattern::Attention => self.gen_attention(&mut b, rng, ci, &mut produced),
                Pattern::BoundaryStencil => {
                    self.gen_boundary_stencil(&mut b, rng, ci, &mut produced)
                }
                Pattern::GatherScatter => self.gen_gather_scatter(&mut b, rng, ci, &mut produced),
            };
            family.get_or_insert(actual);
            ci += emitted;
        }
        let program = b.build().ok()?;
        Some((program, family.expect("min_comps >= 1 emitted a slot")))
    }

    /// Chooses: reuse a previously produced buffer (operator chaining) or
    /// declare a fresh input of the given shape.
    fn source_buffer(
        &self,
        b: &mut ProgramBuilder,
        rng: &mut impl Rng,
        produced: &[Produced],
        dims: &[i64],
        tag: &str,
    ) -> BufferId {
        let reusable: Vec<&Produced> = produced.iter().filter(|p| p.dims == dims).collect();
        if !reusable.is_empty() && rng.gen_bool(0.5) {
            reusable[rng.gen_range(0..reusable.len())].buffer
        } else {
            b.input(format!("in_{tag}"), dims)
        }
    }

    fn random_binop(&self, rng: &mut impl Rng) -> BinOp {
        match rng.gen_range(0..10) {
            0..=3 => BinOp::Add,
            4..=6 => BinOp::Mul,
            7 | 8 => BinOp::Sub,
            _ => BinOp::Div,
        }
    }

    /// Pattern 1: `out[i..] = f(src1[i..], src2[i..], const)`.
    fn gen_assign(
        &self,
        b: &mut ProgramBuilder,
        rng: &mut impl Rng,
        ci: usize,
        produced: &mut Vec<Produced>,
    ) -> (Pattern, usize) {
        let rank = rng.gen_range(1..=self.cfg.max_depth.min(3));
        let dims = self.random_dims(rng, rank);
        let iters: Vec<IterId> = dims
            .iter()
            .enumerate()
            .map(|(d, &n)| b.iter(format!("i{ci}_{d}"), 0, n))
            .collect();
        let idx: Vec<LinExpr> = iters.iter().map(|&it| LinExpr::from(it)).collect();

        let n_terms = rng.gen_range(1..=3);
        // Constants come from a small discrete pool (one RNG draw, like the
        // old continuous draw) so structurally identical programs recur
        // across seeds — the recurrence corpus dedup and the labeling
        // cache exploit.
        let mut expr = Expr::Const(pick_f32(&CONST_POOL, rng));
        for t in 0..n_terms {
            let src = self.source_buffer(b, rng, produced, &dims, &format!("{ci}_{t}"));
            let load = Expr::Load(b.access(src, &idx, &iters));
            expr = Expr::binary(self.random_binop(rng), expr, load);
        }
        let out = b.buffer(format!("buf{ci}"), &dims);
        b.assign(format!("c{ci}"), &iters, out, &idx, expr);
        produced.push(Produced { buffer: out, dims });
        (Pattern::Assign, 1)
    }

    /// Pattern 2: `out[i..] = Σ w_k · src[i + off_k ..]` over a small
    /// neighborhood; loop bounds are shrunk to keep accesses in range.
    fn gen_stencil(
        &self,
        b: &mut ProgramBuilder,
        rng: &mut impl Rng,
        ci: usize,
        produced: &mut Vec<Produced>,
    ) -> (Pattern, usize) {
        let rank = rng.gen_range(1..=self.cfg.max_depth.min(3));
        let dims = self.random_dims(rng, rank);
        // Radius per dimension (0..=2), shrunk bounds.
        let radius: Vec<i64> = dims.iter().map(|_| rng.gen_range(0..=2)).collect();
        if dims.iter().zip(&radius).any(|(&n, &r)| n <= 2 * r + 1) {
            // Degenerate; fall back to an assignment.
            return self.gen_assign(b, rng, ci, produced);
        }
        let iters: Vec<IterId> = dims
            .iter()
            .zip(&radius)
            .enumerate()
            .map(|(d, (&n, &r))| b.iter(format!("s{ci}_{d}"), r, n - r))
            .collect();
        let src = self.source_buffer(b, rng, produced, &dims, &format!("{ci}_src"));

        // Neighborhood points: the center plus a few random offsets.
        let n_points = rng.gen_range(2..=5);
        let mut expr: Option<Expr> = None;
        for _ in 0..n_points {
            let idx: Vec<LinExpr> = iters
                .iter()
                .zip(&radius)
                .map(|(&it, &r)| LinExpr::from(it) + rng.gen_range(-r..=r))
                .collect();
            let load = Expr::Load(b.access(src, &idx, &iters));
            let term = Expr::binary(BinOp::Mul, Expr::Const(pick_f32(&WEIGHT_POOL, rng)), load);
            expr = Some(match expr {
                None => term,
                Some(e) => Expr::binary(BinOp::Add, e, term),
            });
        }
        let idx: Vec<LinExpr> = iters.iter().map(|&it| LinExpr::from(it)).collect();
        let out = b.buffer(format!("buf{ci}"), &dims);
        b.assign(
            format!("c{ci}"),
            &iters,
            out,
            &idx,
            expr.expect("at least one point"),
        );
        produced.push(Produced { buffer: out, dims });
        (Pattern::Stencil, 1)
    }

    /// Pattern 3: `out[outer..] += srcA[...] (· srcB[...])` contracted over
    /// 1–2 reduction loops.
    fn gen_reduction(
        &self,
        b: &mut ProgramBuilder,
        rng: &mut impl Rng,
        ci: usize,
        produced: &mut Vec<Produced>,
    ) -> (Pattern, usize) {
        let out_rank = rng.gen_range(1..=2.min(self.cfg.max_depth - 1));
        let red_rank = rng.gen_range(1..=(self.cfg.max_depth - out_rank).min(2));
        let out_dims = self.random_dims(rng, out_rank);
        let red_dims: Vec<i64> = (0..red_rank)
            .map(|_| *self.cfg.size_pool.choose(rng).expect("non-empty pool"))
            .collect();
        if out_dims.iter().chain(&red_dims).product::<i64>() > self.cfg.max_points {
            return self.gen_assign(b, rng, ci, produced);
        }
        let out_iters: Vec<IterId> = out_dims
            .iter()
            .enumerate()
            .map(|(d, &n)| b.iter(format!("r{ci}_o{d}"), 0, n))
            .collect();
        let red_iters: Vec<IterId> = red_dims
            .iter()
            .enumerate()
            .map(|(d, &n)| b.iter(format!("r{ci}_k{d}"), 0, n))
            .collect();
        let iters: Vec<IterId> = out_iters.iter().chain(&red_iters).copied().collect();

        // Source A indexed by (outer, reduction) dims; optional source B
        // indexed by (reduction, outer) — a matmul-like contraction.
        let a_dims: Vec<i64> = out_dims.iter().chain(&red_dims).copied().collect();
        let src_a = self.source_buffer(b, rng, produced, &a_dims, &format!("{ci}_a"));
        let a_idx: Vec<LinExpr> = iters.iter().map(|&it| LinExpr::from(it)).collect();
        let mut expr = Expr::Load(b.access(src_a, &a_idx, &iters));

        if rng.gen_bool(0.5) {
            let b_dims: Vec<i64> = red_dims.iter().chain(&out_dims).copied().collect();
            let src_b = b.input(format!("in_{ci}_b"), &b_dims);
            let b_idx: Vec<LinExpr> = red_iters
                .iter()
                .chain(&out_iters)
                .map(|&it| LinExpr::from(it))
                .collect();
            let load_b = Expr::Load(b.access(src_b, &b_idx, &iters));
            expr = Expr::binary(BinOp::Mul, expr, load_b);
        }

        let out = b.buffer(format!("buf{ci}"), &out_dims);
        let out_idx: Vec<LinExpr> = out_iters.iter().map(|&it| LinExpr::from(it)).collect();
        b.reduce(format!("c{ci}"), &iters, BinOp::Add, out, &out_idx, expr);
        produced.push(Produced {
            buffer: out,
            dims: out_dims,
        });
        (Pattern::Reduction, 1)
    }

    /// Pattern 4: `out[x…] = Σ_k in[x+k…] · w[k…]` — a sliding-window
    /// contraction over a padded image, the conv/correlation shape of
    /// deep-learning workloads. Window loops are reduction levels.
    fn gen_conv(
        &self,
        b: &mut ProgramBuilder,
        rng: &mut impl Rng,
        ci: usize,
        produced: &mut Vec<Produced>,
    ) -> (Pattern, usize) {
        if self.cfg.max_depth < 2 {
            // A window needs one spatial and one reduction level.
            return self.gen_assign(b, rng, ci, produced);
        }
        let spatial_rank = rng.gen_range(1..=(self.cfg.max_depth / 2).clamp(1, 2));
        let window: Vec<i64> = (0..spatial_rank)
            .map(|_| *[3i64, 5].choose(rng).expect("non-empty"))
            .collect();
        let spatial = self.random_dims(rng, spatial_rank);
        if spatial.iter().product::<i64>() * window.iter().product::<i64>() > self.cfg.max_points {
            return self.gen_assign(b, rng, ci, produced);
        }
        let out_iters: Vec<IterId> = spatial
            .iter()
            .enumerate()
            .map(|(d, &n)| b.iter(format!("v{ci}_{d}"), 0, n))
            .collect();
        let win_iters: Vec<IterId> = window
            .iter()
            .enumerate()
            .map(|(d, &k)| b.iter(format!("v{ci}_k{d}"), 0, k))
            .collect();
        let iters: Vec<IterId> = out_iters.iter().chain(&win_iters).copied().collect();

        // Padded image: index x+k sweeps 0 ..= (n-1) + (k-1).
        let in_dims: Vec<i64> = spatial
            .iter()
            .zip(&window)
            .map(|(&n, &k)| n + k - 1)
            .collect();
        let src = self.source_buffer(b, rng, produced, &in_dims, &format!("{ci}_img"));
        let img_idx: Vec<LinExpr> = out_iters
            .iter()
            .zip(&win_iters)
            .map(|(&x, &k)| LinExpr::from(x) + LinExpr::from(k))
            .collect();
        let img = Expr::Load(b.access(src, &img_idx, &iters));
        let weights = b.input(format!("in_{ci}_w"), &window);
        let w_idx: Vec<LinExpr> = win_iters.iter().map(|&k| LinExpr::from(k)).collect();
        let w = Expr::Load(b.access(weights, &w_idx, &iters));

        let out = b.buffer(format!("buf{ci}"), &spatial);
        let out_idx: Vec<LinExpr> = out_iters.iter().map(|&x| LinExpr::from(x)).collect();
        b.reduce(
            format!("c{ci}"),
            &iters,
            BinOp::Add,
            out,
            &out_idx,
            Expr::binary(BinOp::Mul, img, w),
        );
        produced.push(Produced {
            buffer: out,
            dims: spatial,
        });
        (Pattern::Conv, 1)
    }

    /// Pattern 5: a multi-output reduction pipeline — `red[i] = Σ_k
    /// src[i,k]` immediately consumed by a broadcasting pointwise
    /// computation `out[i,k] = src[i,k] · red[i]` (the softmax /
    /// normalization shape). Emits two computations and two outputs;
    /// the size guard degrades it to a single assignment.
    fn gen_pipeline(
        &self,
        b: &mut ProgramBuilder,
        rng: &mut impl Rng,
        ci: usize,
        produced: &mut Vec<Produced>,
    ) -> (Pattern, usize) {
        if self.cfg.max_depth < 2 {
            // Both pipeline stages are 2-deep (i, k) nests.
            return self.gen_assign(b, rng, ci, produced);
        }
        let n = *self.cfg.size_pool.choose(rng).expect("non-empty pool");
        let m = *self.cfg.size_pool.choose(rng).expect("non-empty pool");
        if n * m > self.cfg.max_points {
            return self.gen_assign(b, rng, ci, produced);
        }
        let dims = vec![n, m];
        let i1 = b.iter(format!("q{ci}_i"), 0, n);
        let k1 = b.iter(format!("q{ci}_k"), 0, m);
        let src = self.source_buffer(b, rng, produced, &dims, &format!("{ci}_src"));
        let red = b.buffer(format!("buf{ci}"), &[n]);
        let src_acc = b.access(src, &[i1.into(), k1.into()], &[i1, k1]);
        b.reduce(
            format!("c{ci}"),
            &[i1, k1],
            BinOp::Add,
            red,
            &[LinExpr::from(i1)],
            Expr::Load(src_acc),
        );

        // Consumer with its own loop nest; `red` broadcasts along k.
        let i2 = b.iter(format!("q{ci}_i2"), 0, n);
        let k2 = b.iter(format!("q{ci}_k2"), 0, m);
        let src2 = Expr::Load(b.access(src, &[i2.into(), k2.into()], &[i2, k2]));
        let red2 = Expr::Load(b.access(red, &[LinExpr::from(i2)], &[i2, k2]));
        let out = b.buffer(format!("buf{ci}b"), &dims);
        b.assign(
            format!("c{ci}b"),
            &[i2, k2],
            out,
            &[i2.into(), k2.into()],
            Expr::binary(BinOp::Mul, src2, red2),
        );
        produced.push(Produced {
            buffer: red,
            dims: vec![n],
        });
        produced.push(Produced { buffer: out, dims });
        (Pattern::ReductionPipeline, 2)
    }

    /// Pattern 6: `out[i, j] = out[i, j-1] + src[i, j]` — a row-wise
    /// prefix sum. The loop-carried dependence keeps the scan loop
    /// sequential, so this family populates the legality-constrained
    /// corner of the schedule space.
    fn gen_scan(
        &self,
        b: &mut ProgramBuilder,
        rng: &mut impl Rng,
        ci: usize,
        produced: &mut Vec<Produced>,
    ) -> (Pattern, usize) {
        if self.cfg.max_depth < 2 {
            return self.gen_assign(b, rng, ci, produced);
        }
        let dims = self.random_dims(rng, 2);
        let (n, m) = (dims[0], dims[1]);
        if m < 2 {
            return self.gen_assign(b, rng, ci, produced);
        }
        let i = b.iter(format!("w{ci}_i"), 0, n);
        let j = b.iter(format!("w{ci}_j"), 1, m);
        let src = self.source_buffer(b, rng, produced, &dims, &format!("{ci}_src"));
        let out = b.buffer(format!("buf{ci}"), &dims);
        let load = Expr::Load(b.access(src, &[i.into(), j.into()], &[i, j]));
        let carry = Expr::Load(b.access(out, &[LinExpr::from(i), LinExpr::from(j) - 1], &[i, j]));
        b.assign(
            format!("c{ci}"),
            &[i, j],
            out,
            &[i.into(), j.into()],
            Expr::binary(BinOp::Add, carry, load),
        );
        produced.push(Produced { buffer: out, dims });
        (Pattern::Scan, 1)
    }

    /// Pattern 7: the attention / batched-matmul pipeline, three
    /// computations over one `[batch, seq, head]` shape:
    ///
    /// 1. scores `s[b,i,j] = Σ_d q[b,i,d] · k[b,j,d]` (batched matmul);
    /// 2. row reduction `r[b,i] = Σ_j s[b,i,j]` (the softmax-style
    ///    normalizer — this IR has no `exp`, so the shape is reduce-
    ///    then-normalize);
    /// 3. output matmul `o[b,i,e] = Σ_j s[b,i,j] / max(r[b,i], 1) ·
    ///    v[b,j,e]` (`max` keeps the normalizer away from zero, so
    ///    synthetic executions stay finite).
    ///
    /// Degrades to a plain reduction when the depth budget cannot hold
    /// the 4-deep scores nest (the caller already degraded it when
    /// fewer than three computation slots remain).
    fn gen_attention(
        &self,
        b: &mut ProgramBuilder,
        rng: &mut impl Rng,
        ci: usize,
        produced: &mut Vec<Produced>,
    ) -> (Pattern, usize) {
        if self.cfg.max_depth < 2 {
            return self.gen_assign(b, rng, ci, produced);
        }
        if self.cfg.max_depth < 4 {
            return self.gen_reduction(b, rng, ci, produced);
        }
        // One (batch, seq, head) draw, re-rolled until the heaviest comp
        // (scores: batch x seq x seq x head points) fits the budget —
        // the same re-roll convention as `random_dims`.
        let (bsz, n, d) = loop {
            let bsz = *self.cfg.size_pool.choose(rng).expect("non-empty pool");
            let n = *self.cfg.size_pool.choose(rng).expect("non-empty pool");
            let d = *self.cfg.size_pool.choose(rng).expect("non-empty pool");
            if bsz * n * n * d <= self.cfg.max_points {
                break (bsz, n, d);
            }
        };

        let q_dims = vec![bsz, n, d];
        let q = self.source_buffer(b, rng, produced, &q_dims, &format!("{ci}_q"));
        let k = b.input(format!("in_{ci}_k"), &q_dims);
        let v = b.input(format!("in_{ci}_v"), &q_dims);

        // Comp 1: scores s[b,i,j] += q[b,i,d] * k[b,j,d].
        let sb = b.iter(format!("at{ci}_b"), 0, bsz);
        let si = b.iter(format!("at{ci}_i"), 0, n);
        let sj = b.iter(format!("at{ci}_j"), 0, n);
        let sd = b.iter(format!("at{ci}_d"), 0, d);
        let s_iters = [sb, si, sj, sd];
        let scores = b.buffer(format!("buf{ci}s"), &[bsz, n, n]);
        let q_load = Expr::Load(b.access(q, &[sb.into(), si.into(), sd.into()], &s_iters));
        let k_load = Expr::Load(b.access(k, &[sb.into(), sj.into(), sd.into()], &s_iters));
        b.reduce(
            format!("c{ci}"),
            &s_iters,
            BinOp::Add,
            scores,
            &[sb.into(), si.into(), sj.into()],
            Expr::binary(BinOp::Mul, q_load, k_load),
        );

        // Comp 2: the normalizer r[b,i] += s[b,i,j].
        let rb = b.iter(format!("at{ci}_rb"), 0, bsz);
        let ri = b.iter(format!("at{ci}_ri"), 0, n);
        let rj = b.iter(format!("at{ci}_rj"), 0, n);
        let r_iters = [rb, ri, rj];
        let rowsum = b.buffer(format!("buf{ci}r"), &[bsz, n]);
        let s_load = Expr::Load(b.access(scores, &[rb.into(), ri.into(), rj.into()], &r_iters));
        b.reduce(
            format!("c{ci}b"),
            &r_iters,
            BinOp::Add,
            rowsum,
            &[rb.into(), ri.into()],
            s_load,
        );

        // Comp 3: o[b,i,e] += s[b,i,j] / max(r[b,i], 1) * v[b,j,e].
        let ob = b.iter(format!("at{ci}_ob"), 0, bsz);
        let oi = b.iter(format!("at{ci}_oi"), 0, n);
        let oe = b.iter(format!("at{ci}_oe"), 0, d);
        let oj = b.iter(format!("at{ci}_oj"), 0, n);
        let o_iters = [ob, oi, oe, oj];
        let out = b.buffer(format!("buf{ci}o"), &q_dims);
        let s2 = Expr::Load(b.access(scores, &[ob.into(), oi.into(), oj.into()], &o_iters));
        let r2 = Expr::Load(b.access(rowsum, &[ob.into(), oi.into()], &o_iters));
        let v2 = Expr::Load(b.access(v, &[ob.into(), oj.into(), oe.into()], &o_iters));
        let norm = Expr::binary(BinOp::Max, r2, Expr::Const(1.0));
        let weighted = Expr::binary(BinOp::Div, s2, norm);
        b.reduce(
            format!("c{ci}c"),
            &o_iters,
            BinOp::Add,
            out,
            &[ob.into(), oi.into(), oe.into()],
            Expr::binary(BinOp::Mul, weighted, v2),
        );

        produced.push(Produced {
            buffer: scores,
            dims: vec![bsz, n, n],
        });
        produced.push(Produced {
            buffer: rowsum,
            dims: vec![bsz, n],
        });
        produced.push(Produced {
            buffer: out,
            dims: q_dims,
        });
        (Pattern::Attention, 3)
    }

    /// Pattern 8: a stencil whose halo is explicit — three computations
    /// writing disjoint strips of *one* output buffer:
    ///
    /// - low boundary `out[i,j] = w_l · src[i,j]` for `i ∈ [0, r)`;
    /// - interior `out[i,j] = Σ_{k ∈ {-r,0,r}} w_k · src[i+k, j]` for
    ///   `i ∈ [r, n-r)`;
    /// - high boundary `out[i,j] = w_h · src[i,j]` for `i ∈ [n-r, n)`.
    ///
    /// Every row of `out` is covered exactly once, so later computations
    /// can consume it like any produced buffer. The separate nests
    /// exercise fusion decisions across boundary/interior (legality is
    /// still decided by `apply_schedule` — the generator only shapes the
    /// space). Degrades to a plain stencil on degenerate sizes (the
    /// caller already degraded it when fewer than three slots remain).
    fn gen_boundary_stencil(
        &self,
        b: &mut ProgramBuilder,
        rng: &mut impl Rng,
        ci: usize,
        produced: &mut Vec<Produced>,
    ) -> (Pattern, usize) {
        if self.cfg.max_depth < 2 {
            return self.gen_stencil(b, rng, ci, produced);
        }
        let dims = self.random_dims(rng, 2);
        let (n, m) = (dims[0], dims[1]);
        let r = rng.gen_range(1..=2i64);
        if n <= 2 * r + 1 {
            return self.gen_stencil(b, rng, ci, produced);
        }
        let src = self.source_buffer(b, rng, produced, &dims, &format!("{ci}_src"));
        let out = b.buffer(format!("buf{ci}"), &dims);

        // Low boundary strip.
        let li = b.iter(format!("bs{ci}_li"), 0, r);
        let lj = b.iter(format!("bs{ci}_lj"), 0, m);
        let l_load = Expr::Load(b.access(src, &[li.into(), lj.into()], &[li, lj]));
        let l_w = Expr::Const(pick_f32(&WEIGHT_POOL, rng));
        b.assign(
            format!("c{ci}"),
            &[li, lj],
            out,
            &[li.into(), lj.into()],
            Expr::binary(BinOp::Mul, l_w, l_load),
        );

        // Interior neighborhood gather over the halo-safe rows.
        let mi = b.iter(format!("bs{ci}_mi"), r, n - r);
        let mj = b.iter(format!("bs{ci}_mj"), 0, m);
        let mut expr: Option<Expr> = None;
        for off in [-r, 0, r] {
            let idx = [LinExpr::from(mi) + off, LinExpr::from(mj)];
            let load = Expr::Load(b.access(src, &idx, &[mi, mj]));
            let term = Expr::binary(BinOp::Mul, Expr::Const(pick_f32(&WEIGHT_POOL, rng)), load);
            expr = Some(match expr {
                None => term,
                Some(e) => Expr::binary(BinOp::Add, e, term),
            });
        }
        b.assign(
            format!("c{ci}b"),
            &[mi, mj],
            out,
            &[mi.into(), mj.into()],
            expr.expect("three taps"),
        );

        // High boundary strip.
        let hi = b.iter(format!("bs{ci}_hi"), n - r, n);
        let hj = b.iter(format!("bs{ci}_hj"), 0, m);
        let h_load = Expr::Load(b.access(src, &[hi.into(), hj.into()], &[hi, hj]));
        let h_w = Expr::Const(pick_f32(&WEIGHT_POOL, rng));
        b.assign(
            format!("c{ci}c"),
            &[hi, hj],
            out,
            &[hi.into(), hj.into()],
            Expr::binary(BinOp::Mul, h_w, h_load),
        );

        produced.push(Produced { buffer: out, dims });
        (Pattern::BoundaryStencil, 3)
    }

    /// Pattern 9: strided gather/scatter streams with a dense fallback:
    ///
    /// - dense fallback `out[j] = c · src[j]` writes the full output;
    /// - gather/scatter `g[s·i] = w · src[s·i] + out[i]` reads a
    ///   non-unit-stride slice of the source (gather), writes a strided
    ///   subset of its own output (scatter), and consumes the dense
    ///   pass densely.
    ///
    /// True data-dependent indirection (`in[idx[i]]`) is not expressible
    /// in this affine IR; the constant-stride stream is the affine
    /// stand-in whose memory behavior (sparse touches over a dense
    /// extent) is what the cost model must price. Degrades to an
    /// assignment when the extent cannot hold two strides (the caller
    /// already degraded it when fewer than two slots remain).
    fn gen_gather_scatter(
        &self,
        b: &mut ProgramBuilder,
        rng: &mut impl Rng,
        ci: usize,
        produced: &mut Vec<Produced>,
    ) -> (Pattern, usize) {
        let dims = self.random_dims(rng, 1);
        let n = dims[0];
        let stride = *[2i64, 4].choose(rng).expect("non-empty");
        if n < 2 * stride {
            return self.gen_assign(b, rng, ci, produced);
        }
        let src = self.source_buffer(b, rng, produced, &dims, &format!("{ci}_src"));

        // Dense fallback pass.
        let dj = b.iter(format!("gs{ci}_j"), 0, n);
        let dense_load = Expr::Load(b.access(src, &[dj.into()], &[dj]));
        let out = b.buffer(format!("buf{ci}"), &dims);
        b.assign(
            format!("c{ci}"),
            &[dj],
            out,
            &[dj.into()],
            Expr::binary(
                BinOp::Mul,
                Expr::Const(pick_f32(&CONST_POOL, rng)),
                dense_load,
            ),
        );

        // Strided stream: floor(n / stride) touches over the dense
        // extent; max index stride·(n/stride − 1) ≤ n − stride < n.
        let gi = b.iter(format!("gs{ci}_i"), 0, n / stride);
        let strided = [LinExpr::from(gi) * stride];
        let gathered = Expr::Load(b.access(src, &strided, &[gi]));
        let dense_ref = Expr::Load(b.access(out, &[gi.into()], &[gi]));
        let g = b.buffer(format!("buf{ci}g"), &dims);
        let term = Expr::binary(
            BinOp::Mul,
            Expr::Const(pick_f32(&WEIGHT_POOL, rng)),
            gathered,
        );
        b.assign(
            format!("c{ci}b"),
            &[gi],
            g,
            &strided,
            Expr::binary(BinOp::Add, term, dense_ref),
        );

        produced.push(Produced { buffer: out, dims });
        (Pattern::GatherScatter, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::{interpret_baseline, synthetic_inputs};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_cfg() -> ProgramGenConfig {
        ProgramGenConfig {
            size_pool: vec![4, 8, 16],
            max_points: 1 << 12,
            ..ProgramGenConfig::default()
        }
    }

    #[test]
    fn generated_programs_are_valid() {
        let gen = ProgramGenerator::new(small_cfg());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for i in 0..50 {
            let p = gen.generate(&mut rng, &format!("p{i}"));
            assert!(p.validate().is_ok(), "program {i} invalid: {p}");
            assert!(p.num_comps() >= 1);
            assert!(p.max_depth() <= 4);
        }
    }

    #[test]
    fn generated_programs_are_executable() {
        // Correct-by-construction: the interpreter must not hit
        // out-of-bounds accesses.
        let gen = ProgramGenerator::new(small_cfg());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for i in 0..25 {
            let p = gen.generate(&mut rng, &format!("p{i}"));
            let inputs = synthetic_inputs(&p, i);
            let out = interpret_baseline(&p, &inputs).expect("interpretable");
            assert!(!out.is_empty());
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let gen = ProgramGenerator::new(small_cfg());
        let mut r1 = ChaCha8Rng::seed_from_u64(7);
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(gen.generate(&mut r1, "a"), gen.generate(&mut r2, "a"));
    }

    #[test]
    fn all_three_patterns_appear() {
        let gen = ProgramGenerator::new(small_cfg());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut saw_reduce = false;
        let mut saw_stencil = false;
        let mut saw_assign = false;
        for i in 0..60 {
            let p = gen.generate(&mut rng, &format!("p{i}"));
            for c in p.comp_ids() {
                let comp = p.comp(c);
                if !comp.reduction_levels.is_empty() {
                    saw_reduce = true;
                } else if comp
                    .expr
                    .loads()
                    .iter()
                    .any(|a| (0..a.matrix.dims()).any(|r| a.matrix.constant(r) != 0))
                {
                    saw_stencil = true;
                } else {
                    saw_assign = true;
                }
            }
        }
        assert!(saw_reduce && saw_stencil && saw_assign);
    }

    fn wide_cfg() -> ProgramGenConfig {
        ProgramGenConfig {
            size_pool: vec![4, 8, 16],
            max_points: 1 << 12,
            ..ProgramGenConfig::wide()
        }
    }

    #[test]
    fn default_weights_reproduce_the_three_family_distribution() {
        // The widened weight array must not perturb generation for
        // existing seeds: the paper's three families keep their exact
        // positions in the cumulative walk.
        let gen = ProgramGenerator::new(small_cfg());
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for i in 0..40 {
            let p = gen.generate(&mut rng, &format!("p{i}"));
            for c in p.comp_ids() {
                // No scan (self-referential load) under default weights.
                let comp = p.comp(c);
                assert!(
                    comp.expr
                        .loads()
                        .iter()
                        .all(|a| a.buffer != comp.store.buffer),
                    "scan family must be off by default"
                );
            }
        }
    }

    #[test]
    fn wide_families_appear_and_are_valid() {
        let gen = ProgramGenerator::new(wide_cfg());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut saw_conv = false;
        let mut saw_pipeline = false;
        let mut saw_scan = false;
        for i in 0..120 {
            let p = gen.generate(&mut rng, &format!("p{i}"));
            assert!(p.validate().is_ok(), "program {i} invalid: {p}");
            for c in p.comp_ids() {
                let comp = p.comp(c);
                // Conv: a reduction whose loads couple two iterators in
                // one buffer dimension (x + k indexing).
                if !comp.reduction_levels.is_empty()
                    && comp.expr.loads().iter().any(|a| {
                        (0..a.matrix.dims()).any(|r| {
                            a.matrix.linear_row(r).iter().filter(|&&c| c != 0).count() >= 2
                        })
                    })
                {
                    saw_conv = true;
                }
                // Scan: a computation loading its own output buffer.
                if comp
                    .expr
                    .loads()
                    .iter()
                    .any(|a| a.buffer == comp.store.buffer)
                {
                    saw_scan = true;
                }
            }
            // Pipeline: some computation consumes a buffer written by a
            // *reduction* computation of the same program.
            let reduced: Vec<_> = p
                .comp_ids()
                .filter(|&c| !p.comp(c).reduction_levels.is_empty())
                .map(|c| p.comp(c).store.buffer)
                .collect();
            for c in p.comp_ids() {
                let comp = p.comp(c);
                if comp.reduction_levels.is_empty()
                    && comp
                        .expr
                        .loads()
                        .iter()
                        .any(|a| reduced.contains(&a.buffer))
                {
                    saw_pipeline = true;
                }
            }
        }
        assert!(saw_conv, "conv family never generated");
        assert!(saw_pipeline, "reduction-pipeline family never generated");
        assert!(saw_scan, "scan family never generated");
    }

    #[test]
    fn wide_programs_are_executable() {
        let gen = ProgramGenerator::new(wide_cfg());
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for i in 0..30 {
            let p = gen.generate(&mut rng, &format!("p{i}"));
            let inputs = synthetic_inputs(&p, i);
            let out = interpret_baseline(&p, &inputs).expect("interpretable");
            assert!(!out.is_empty());
            for buf in out.values() {
                assert!(
                    buf.iter().all(|v| v.is_finite()),
                    "non-finite output in program {i}: {p}"
                );
            }
        }
    }

    #[test]
    fn new_families_appear_and_are_tagged() {
        let gen = ProgramGenerator::new(wide_cfg());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut seen: Vec<Pattern> = Vec::new();
        for i in 0..200 {
            let (p, family) = gen.generate_with_family(&mut rng, &format!("p{i}"));
            assert!(p.validate().is_ok(), "program {i} invalid: {p}");
            if !seen.contains(&family) {
                seen.push(family);
            }
        }
        for want in [
            Pattern::Attention,
            Pattern::BoundaryStencil,
            Pattern::GatherScatter,
        ] {
            assert!(seen.contains(&want), "{} never generated", want.name());
        }
    }

    #[test]
    fn each_family_forced_alone_is_executable() {
        // Weight vector with a single live entry pins the dispatch to
        // one family (modulo documented shape degrades); every family
        // must still produce valid, finite, interpretable programs.
        for (k, pattern) in Pattern::ALL.into_iter().enumerate() {
            let mut weights = vec![0u32; Pattern::ALL.len()];
            weights[k] = 1;
            let gen = ProgramGenerator::new(ProgramGenConfig {
                pattern_weights: weights,
                ..wide_cfg()
            });
            let mut rng = ChaCha8Rng::seed_from_u64(21 + k as u64);
            for i in 0..10 {
                let (p, family) = gen.generate_with_family(&mut rng, &format!("p{k}_{i}"));
                assert!(
                    p.validate().is_ok(),
                    "{} program {i} invalid: {p}",
                    pattern.name()
                );
                let inputs = synthetic_inputs(&p, i);
                let out = interpret_baseline(&p, &inputs).expect("interpretable");
                assert!(
                    out.values().flat_map(|b| b.iter()).all(|v| v.is_finite()),
                    "{} program {i} produced non-finite output: {p}",
                    pattern.name()
                );
                // The reported family is the *actual* shape emitted —
                // on degrade it names the fallback, never the request.
                assert!(
                    Pattern::ALL.contains(&family),
                    "unknown family for {}",
                    pattern.name()
                );
            }
        }
    }

    #[test]
    fn generate_with_family_is_deterministic_and_matches_generate() {
        let gen = ProgramGenerator::new(wide_cfg());
        let mut r1 = ChaCha8Rng::seed_from_u64(31);
        let mut r2 = ChaCha8Rng::seed_from_u64(31);
        for i in 0..40 {
            let (p1, f1) = gen.generate_with_family(&mut r1, &format!("p{i}"));
            let p2 = gen.generate(&mut r2, &format!("p{i}"));
            assert_eq!(p1, p2, "family-reporting path diverged from generate()");
            assert!(!f1.name().is_empty());
        }
    }

    #[test]
    fn family_names_are_unique_and_stable() {
        let names: Vec<&str> = Pattern::ALL.iter().map(|p| p.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), Pattern::ALL.len(), "duplicate family name");
        // Corpus shards persist these strings; renames corrupt
        // per-family accounting on old corpora.
        assert_eq!(
            names,
            vec![
                "assign",
                "stencil",
                "reduction",
                "conv",
                "reduction_pipeline",
                "scan",
                "attention",
                "boundary_stencil",
                "gather_scatter",
            ]
        );
    }

    #[test]
    fn tags_families_tracks_weight_vector_length() {
        assert!(!ProgramGenConfig::default().tags_families());
        assert!(ProgramGenConfig::wide().tags_families());
    }

    #[test]
    fn sizes_come_from_pool() {
        let gen = ProgramGenerator::new(small_cfg());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let p = gen.generate(&mut rng, "p");
        for it in &p.iters {
            // Stencil bounds may be shrunk by at most 2 on each side.
            let n = it.upper - it.lower;
            assert!((1..=16 + 4).contains(&n));
        }
    }
}
