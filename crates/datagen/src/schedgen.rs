//! Random schedule generation.
//!
//! §3: "Code transformations are also generated randomly but specific
//! rules are used to guarantee that code transformations are valid (for
//! example, tiling is not applied if the loop extent is smaller than the
//! tile size)." Candidates are built transform-by-transform in the
//! canonical phase order: each proposed transform is one
//! [`dlcm_ir::Legality::extend`] on top of the prefix validated so far
//! (one context per program, shared by every schedule drawn for it), and
//! pieces that turn out illegal are dropped — random schedules therefore
//! include *bad-but-legal* choices (strided interchanges, tiny tiles,
//! inner-loop parallelism), exactly the slowdowns visible in the paper's
//! Figure 4.

use dlcm_ir::{CompId, Legality, Program, Schedule, Transform};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Probabilities and pools for random schedule generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleGenConfig {
    /// Probability of attempting fusion when the program allows it.
    pub p_fuse: f64,
    /// Probability of one interchange per computation.
    pub p_interchange: f64,
    /// Probability of tiling per computation.
    pub p_tile: f64,
    /// Probability of unrolling per computation.
    pub p_unroll: f64,
    /// Probability of parallelizing per computation.
    pub p_parallel: f64,
    /// Probability of vectorizing per computation.
    pub p_vectorize: f64,
    /// Tile-size pool.
    pub tile_sizes: Vec<i64>,
    /// Unroll-factor pool.
    pub unroll_factors: Vec<i64>,
    /// Vector-width pool.
    pub vector_factors: Vec<i64>,
    /// Fraction of parallelize choices forced to the outermost loop (the
    /// remainder picks a random level, generating slow candidates).
    pub p_parallel_outermost: f64,
}

impl Default for ScheduleGenConfig {
    fn default() -> Self {
        Self {
            p_fuse: 0.35,
            p_interchange: 0.45,
            p_tile: 0.5,
            p_unroll: 0.4,
            p_parallel: 0.55,
            p_vectorize: 0.45,
            tile_sizes: vec![8, 16, 32, 64, 128],
            unroll_factors: vec![2, 4, 8, 16],
            vector_factors: vec![4, 8],
            p_parallel_outermost: 0.75,
        }
    }
}

/// Random schedule generator for a fixed program.
#[derive(Debug, Clone)]
pub struct ScheduleGenerator {
    cfg: ScheduleGenConfig,
}

impl ScheduleGenerator {
    /// Creates a generator.
    pub fn new(cfg: ScheduleGenConfig) -> Self {
        Self { cfg }
    }

    /// Generates one random legal schedule.
    pub fn generate(&self, program: &Program, rng: &mut impl Rng) -> Schedule {
        self.generate_in(&Legality::new(program), rng)
    }

    /// [`ScheduleGenerator::generate`] against a caller-held legality
    /// context.
    // `c` is a computation id (used to build CompId and index per-comp
    // state), not a bare slice index.
    #[allow(clippy::needless_range_loop)]
    fn generate_in(&self, legality: &Legality<'_>, rng: &mut impl Rng) -> Schedule {
        let program = legality.program();
        let mut schedule = Schedule::empty();
        let mut state = legality.root();
        // Appends `t` when it is legal on top of the schedule so far;
        // returns whether it was kept.
        let mut try_push = |t: Transform| {
            let kept = legality.extend(&mut state, &t).is_ok();
            if kept {
                schedule.transforms.push(t);
            }
            kept
        };
        let n = program.num_comps();

        // --- Phase 0: fusion ------------------------------------------------
        if n >= 2 && rng.gen_bool(self.cfg.p_fuse) {
            let b = CompId(rng.gen_range(1..n));
            let a = CompId(rng.gen_range(0..b.0));
            let max_depth = program.comp(a).depth().min(program.comp(b).depth());
            if max_depth >= 1 {
                let depth = rng.gen_range(1..=max_depth);
                // Prefer the deepest legal fusion, falling back outward.
                for d in (1..=depth).rev() {
                    if try_push(Transform::Fuse {
                        comp: b,
                        with: a,
                        depth: d,
                    }) {
                        break;
                    }
                }
            }
        }

        // Track the current loop order of every computation so tiling can
        // target currently-adjacent pairs.
        let mut orders: Vec<Vec<usize>> = (0..n)
            .map(|c| (0..program.comp(CompId(c)).depth()).collect())
            .collect();

        // --- Phase 1: interchange --------------------------------------------
        for c in 0..n {
            let depth = program.comp(CompId(c)).depth();
            if depth >= 2 && rng.gen_bool(self.cfg.p_interchange) {
                let a = rng.gen_range(0..depth);
                let mut b = rng.gen_range(0..depth);
                if a == b {
                    b = (b + 1) % depth;
                }
                if try_push(Transform::Interchange {
                    comp: CompId(c),
                    level_a: a,
                    level_b: b,
                }) {
                    let pa = orders[c]
                        .iter()
                        .position(|&l| l == a)
                        .expect("level present");
                    let pb = orders[c]
                        .iter()
                        .position(|&l| l == b)
                        .expect("level present");
                    orders[c].swap(pa, pb);
                }
            }
        }

        // --- Phase 2: tiling --------------------------------------------------
        for c in 0..n {
            let depth = program.comp(CompId(c)).depth();
            if depth >= 2 && rng.gen_bool(self.cfg.p_tile) {
                // Pick a currently-adjacent pair.
                let pos = rng.gen_range(0..depth - 1);
                let (la, lb) = (orders[c][pos], orders[c][pos + 1]);
                let ea = program.extent(program.comp(CompId(c)).iters[la]);
                let eb = program.extent(program.comp(CompId(c)).iters[lb]);
                let pick = |rng: &mut dyn rand::RngCore, extent: i64, pool: &[i64]| {
                    let fits: Vec<i64> = pool.iter().copied().filter(|&s| s <= extent).collect();
                    fits.choose(rng).copied()
                };
                if let (Some(sa), Some(sb)) = (
                    pick(rng, ea, &self.cfg.tile_sizes),
                    pick(rng, eb, &self.cfg.tile_sizes),
                ) {
                    try_push(Transform::Tile {
                        comp: CompId(c),
                        level_a: la,
                        level_b: lb,
                        size_a: sa,
                        size_b: sb,
                    });
                }
            }
        }

        // --- Phase 3: tags -----------------------------------------------------
        for c in 0..n {
            let comp = CompId(c);
            let depth = program.comp(comp).depth();
            if depth == 0 {
                continue;
            }
            if rng.gen_bool(self.cfg.p_parallel) {
                let level = if rng.gen_bool(self.cfg.p_parallel_outermost) {
                    orders[c][0]
                } else {
                    orders[c][rng.gen_range(0..depth)]
                };
                try_push(Transform::Parallelize { comp, level });
            }
            if rng.gen_bool(self.cfg.p_vectorize) {
                if let Some(&f) = self.cfg.vector_factors.choose(rng) {
                    try_push(Transform::Vectorize { comp, factor: f });
                }
            }
            if rng.gen_bool(self.cfg.p_unroll) {
                if let Some(&f) = self.cfg.unroll_factors.choose(rng) {
                    try_push(Transform::Unroll { comp, factor: f });
                }
            }
        }

        schedule
    }

    /// Generates `count` distinct random schedules (the paper draws 32 per
    /// program). Duplicates are retried a bounded number of times, so the
    /// result may be shorter for tiny search spaces.
    pub fn generate_distinct(
        &self,
        program: &Program,
        count: usize,
        rng: &mut impl Rng,
    ) -> Vec<Schedule> {
        let legality = Legality::new(program);
        let mut out: Vec<Schedule> = Vec::with_capacity(count);
        let mut tries = 0;
        while out.len() < count && tries < count * 20 {
            tries += 1;
            let s = self.generate_in(&legality, rng);
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progen::{ProgramGenConfig, ProgramGenerator};
    use dlcm_ir::apply_schedule;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn test_program(seed: u64) -> Program {
        let gen = ProgramGenerator::new(ProgramGenConfig {
            size_pool: vec![16, 32, 64],
            max_points: 1 << 16,
            ..ProgramGenConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        gen.generate(&mut rng, "p")
    }

    #[test]
    fn generated_schedules_are_legal() {
        let sg = ScheduleGenerator::new(ScheduleGenConfig::default());
        for seed in 0..10 {
            let p = test_program(seed);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
            for _ in 0..20 {
                let s = sg.generate(&p, &mut rng);
                assert!(
                    apply_schedule(&p, &s).is_ok(),
                    "illegal schedule {} for program {p}",
                    s.describe()
                );
                assert!(s.is_canonical());
            }
        }
    }

    #[test]
    fn schedules_are_diverse() {
        let sg = ScheduleGenerator::new(ScheduleGenConfig::default());
        let p = test_program(1);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let schedules = sg.generate_distinct(&p, 32, &mut rng);
        assert!(
            schedules.len() >= 8,
            "expected a diverse candidate set, got {}",
            schedules.len()
        );
    }

    #[test]
    fn transform_variety_appears() {
        let sg = ScheduleGenerator::new(ScheduleGenConfig::default());
        let mut seen_tile = false;
        let mut seen_inter = false;
        let mut seen_par = false;
        let mut seen_unroll = false;
        let mut seen_vec = false;
        for seed in 0..20 {
            let p = test_program(seed);
            let mut rng = ChaCha8Rng::seed_from_u64(seed * 7 + 1);
            for _ in 0..10 {
                let s = sg.generate(&p, &mut rng);
                for t in &s.transforms {
                    match t {
                        Transform::Tile { .. } => seen_tile = true,
                        Transform::Interchange { .. } => seen_inter = true,
                        Transform::Parallelize { .. } => seen_par = true,
                        Transform::Unroll { .. } => seen_unroll = true,
                        Transform::Vectorize { .. } => seen_vec = true,
                        Transform::Fuse { .. } => {}
                    }
                }
            }
        }
        assert!(seen_tile && seen_inter && seen_par && seen_unroll && seen_vec);
    }

    #[test]
    fn deterministic_per_seed() {
        let sg = ScheduleGenerator::new(ScheduleGenConfig::default());
        let p = test_program(5);
        let mut r1 = ChaCha8Rng::seed_from_u64(9);
        let mut r2 = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(sg.generate(&p, &mut r1), sg.generate(&p, &mut r2));
    }
}
