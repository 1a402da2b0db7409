//! The measurement harness: noisy timing with the paper's protocol.
//!
//! §3 of the paper: "we followed the gold-standard in performance
//! engineering and executed each resulting program 30 times, and retained
//! the median value of the execution times". [`Measurement`] reproduces
//! that protocol over the deterministic [`Machine`] by adding seeded
//! log-normal measurement noise and taking the median of `repeats` runs.

use dlcm_ir::{
    apply_schedule, Legality, Program, Schedule, ScheduleError, ScheduledProgram, Transform,
};

use crate::cost::Machine;

/// Noisy measurement harness over a [`Machine`].
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The simulated hardware.
    pub machine: Machine,
    /// Log-normal noise sigma per run (0 disables noise).
    pub noise_sigma: f64,
    /// Number of repeated runs; the median is retained (paper: 30).
    pub repeats: u32,
}

impl Default for Measurement {
    fn default() -> Self {
        Self {
            machine: Machine,
            noise_sigma: 0.02,
            repeats: 30,
        }
    }
}

impl Measurement {
    /// Creates a harness with the paper's protocol (30 runs, 2% noise).
    pub fn new(machine: Machine) -> Self {
        Self {
            machine,
            ..Self::default()
        }
    }

    /// Creates a noise-free harness (single deterministic run).
    pub fn exact(machine: Machine) -> Self {
        Self {
            machine,
            noise_sigma: 0.0,
            repeats: 1,
        }
    }

    /// Measures a scheduled program: median of `repeats` noisy runs.
    ///
    /// The noise multipliers are drawn from `seed` alone — nothing of the
    /// program or the schedule enters them — so the result is the
    /// machine's time times the median multiplier of `seed`'s draws. Two
    /// candidates measured under one seed carry the same multiplier, and
    /// a speedup of two measurements under fixed seeds is the true ratio
    /// times a constant of those seeds.
    pub fn measure(&self, sp: &ScheduledProgram<'_>, seed: u64) -> f64 {
        let t = self.machine.execute(sp);
        if self.noise_sigma == 0.0 || self.repeats <= 1 {
            return t;
        }
        let mut samples: Vec<f64> = (0..self.repeats)
            .map(|r| t * lognormal(seed ^ (r as u64).wrapping_mul(0x9E37), self.noise_sigma))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        samples[samples.len() / 2]
    }

    /// Applies `schedule` and measures it.
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleError`] when the schedule is illegal.
    pub fn measure_schedule(
        &self,
        program: &Program,
        schedule: &Schedule,
        seed: u64,
    ) -> Result<f64, ScheduleError> {
        let sp = apply_schedule(program, schedule)?;
        Ok(self.measure(&sp, seed))
    }

    /// Ground-truth speedup of `schedule` over the *unoptimized* program —
    /// the label of the paper's dataset triplets (§3).
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleError`] when the schedule is illegal.
    pub fn speedup(
        &self,
        program: &Program,
        schedule: &Schedule,
        seed: u64,
    ) -> Result<f64, ScheduleError> {
        let base = self.measure_schedule(program, &Schedule::empty(), seed ^ 0xBA5E)?;
        let opt = self.measure_schedule(program, schedule, seed)?;
        Ok(base / opt.max(f64::MIN_POSITIVE))
    }
}

/// The paper's §6 baseline schedule: every computation's outermost loop is
/// parallelized when legal, and nothing else is applied.
pub fn parallel_baseline(program: &Program) -> Schedule {
    let legality = Legality::new(program);
    let mut state = legality.root();
    let mut transforms = Vec::new();
    for comp in program.comp_ids() {
        let candidate = Transform::Parallelize { comp, level: 0 };
        if legality.extend(&mut state, &candidate).is_ok() {
            transforms.push(candidate);
        }
    }
    Schedule::new(transforms)
}

/// Deterministic log-normal multiplier from a seed (Box–Muller over a
/// splitmix-style generator).
fn lognormal(seed: u64, sigma: f64) -> f64 {
    let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    let u1: f64 = next().max(1e-12);
    let u2: f64 = next();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::{BinOp, CompId, Expr, ProgramBuilder};

    fn stencil_chain() -> Program {
        // A 2-computation pipeline with a parallelizable outer loop.
        let n = 256;
        let mut b = ProgramBuilder::new("sc");
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let inp = b.input("in", &[n, n]);
        let out = b.buffer("out", &[n, n]);
        let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign(
            "c",
            &[i, j],
            out,
            &[i.into(), j.into()],
            Expr::binary(BinOp::Mul, Expr::Load(acc), Expr::Const(2.0)),
        );
        b.build().unwrap()
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let p = stencil_chain();
        let m = Measurement::default();
        let sp = apply_schedule(&p, &Schedule::empty()).unwrap();
        assert_eq!(m.measure(&sp, 42), m.measure(&sp, 42));
    }

    #[test]
    fn median_filters_noise_close_to_truth() {
        let p = stencil_chain();
        let m = Measurement::default();
        let exact = Measurement::exact(m.machine);
        let sp = apply_schedule(&p, &Schedule::empty()).unwrap();
        let t_true = exact.measure(&sp, 0);
        let t_noisy = m.measure(&sp, 12345);
        assert!(
            (t_noisy - t_true).abs() / t_true < 0.05,
            "median of 30 runs should be within 5%: {t_noisy} vs {t_true}"
        );
    }

    #[test]
    fn speedup_of_empty_schedule_is_one() {
        let p = stencil_chain();
        let m = Measurement::exact(Machine);
        let s = m.speedup(&p, &Schedule::empty(), 7).unwrap();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_baseline_contains_outermost_parallel() {
        let p = stencil_chain();
        let sched = parallel_baseline(&p);
        assert_eq!(sched.len(), 1);
        assert!(matches!(
            sched.transforms[0],
            Transform::Parallelize {
                comp: CompId(0),
                level: 0
            }
        ));
    }

    #[test]
    fn parallel_baseline_skips_illegal_parallelism() {
        // out[i] = out[i-1] + 1 cannot be parallelized.
        let mut b = ProgramBuilder::new("scan");
        let i = b.iter("i", 1, 64);
        let out = b.buffer("out", &[64]);
        let acc = b.access(out, &[dlcm_ir::LinExpr::from(i) - 1], &[i]);
        b.assign(
            "c",
            &[i],
            out,
            &[i.into()],
            Expr::binary(BinOp::Add, Expr::Load(acc), Expr::Const(1.0)),
        );
        let p = b.build().unwrap();
        assert!(parallel_baseline(&p).is_empty());
    }

    #[test]
    fn lognormal_centered_near_one() {
        let mean: f64 = (0..2000).map(|i| lognormal(i, 0.05)).sum::<f64>() / 2000.0;
        assert!((mean - 1.0).abs() < 0.02, "lognormal mean drifted: {mean}");
    }
}
