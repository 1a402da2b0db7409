//! Evaluation by a learned cost model: the fast path of Table 2.
//!
//! Works with any [`SpeedupPredictor`] (the recursive model or the §4.4
//! ablation architectures). [`score_wave`], the one wave scorer of the
//! workspace, groups structure-identical candidates and runs one
//! `dlcm_model::infer_scores` pass (the model's
//! [`SpeedupPredictor::infer_batch`], outputs clamped positive) per group —
//! the appendix A.1 observation that "it is faster to operate on data
//! points having the same tree structure", applied at inference time.
//! [`ModelEvaluator`] calls it inline and `dlcm-serve` calls it for the
//! cache misses of a client call, so the two agree by being one function.
//! Grouped inference is bit-identical to one forward pass per candidate
//! (each batch row is computed independently), so batching changes
//! throughput, never scores.

use std::time::Instant;

use dlcm_ir::{Program, Schedule};
use dlcm_model::{Featurizer, ProgramFeatures, SpeedupPredictor};

use crate::pool::parallel_map;
use crate::{EvalStats, Evaluator};

/// Scores one wave of candidate schedules: featurize, group rows by
/// feature-tree structure in first-seen order (fusion changes the tree
/// shape, so a wave can span several groups), one batched forward pass
/// per group, scatter to input order. Returns the scores and the number
/// of forward passes run.
///
/// Featurization and the groups fan over [`parallel_map`]`(threads, …)`
/// (`threads <= 1` runs inline). Rows are pure per `(model, featurizer,
/// program, schedule)`, so `threads` changes wall-clock, never a score.
pub fn score_wave(
    model: &dyn SpeedupPredictor,
    featurizer: &Featurizer,
    threads: usize,
    program: &Program,
    schedules: &[Schedule],
) -> (Vec<f64>, usize) {
    let feats: Vec<ProgramFeatures> = parallel_map(threads, schedules.len(), |i| {
        featurizer.featurize(program, &schedules[i])
    });
    let groups = dlcm_model::group_by_structure(feats.iter().map(|f| f.structure_key()));
    let scored: Vec<Vec<f64>> = parallel_map(threads, groups.len(), |g| {
        let rows: Vec<&ProgramFeatures> = groups[g].1.iter().map(|&i| &feats[i]).collect();
        dlcm_model::infer_scores(model, &rows)
    });
    let mut out = vec![0.0; schedules.len()];
    for ((_, idxs), scores) in groups.iter().zip(scored) {
        for (&i, score) in idxs.iter().zip(scores) {
            out[i] = score;
        }
    }
    (out, groups.len())
}

/// Evaluation by a trained cost model behind [`SpeedupPredictor`].
pub struct ModelEvaluator<'m> {
    model: &'m dyn SpeedupPredictor,
    featurizer: Featurizer,
    stats: EvalStats,
    sim_infer_cost: Option<f64>,
}

impl<'m> ModelEvaluator<'m> {
    /// Creates a model evaluator over any speedup predictor.
    pub fn new(model: &'m dyn SpeedupPredictor, featurizer: Featurizer) -> Self {
        Self {
            model,
            featurizer,
            stats: EvalStats::default(),
            sim_infer_cost: None,
        }
    }

    /// Charges a *simulated* `seconds_per_candidate` inference cost into
    /// `search_time` instead of measured wall-clock.
    ///
    /// The execution evaluator's `search_time` is simulated machine time;
    /// by default the model evaluator mixes wall-clock into the same
    /// field, which makes Table 2's acceleration ratios depend on the
    /// machine running the experiment (and on how many threads it used).
    /// With a simulated charge the ratio is a pure function of the search
    /// trace — `modelctl reproduce` relies on this to emit byte-identical
    /// CSVs at any `--threads` setting. `infer_time` always keeps the measured
    /// wall-clock component.
    #[must_use]
    pub fn with_simulated_cost(mut self, seconds_per_candidate: f64) -> Self {
        self.sim_infer_cost = Some(seconds_per_candidate);
        self
    }

    /// The featurizer used to encode candidates.
    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }
}

impl Evaluator for ModelEvaluator<'_> {
    fn speedup_batch(&mut self, program: &Program, schedules: &[Schedule]) -> Vec<f64> {
        let start = Instant::now();
        let (out, _) = score_wave(self.model, &self.featurizer, 1, program, schedules);

        self.stats.num_evals += schedules.len();
        let dt = start.elapsed().as_secs_f64();
        self.stats.infer_time += dt;
        self.stats.search_time += match self.sim_infer_cost {
            Some(per_candidate) => per_candidate * schedules.len() as f64,
            None => dt,
        };
        out
    }

    fn stats(&self) -> EvalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::{CompId, Expr, ProgramBuilder, Transform};
    use dlcm_model::{CostModel, CostModelConfig, FeaturizerConfig};

    fn program() -> Program {
        let mut b = ProgramBuilder::new("p");
        let i = b.iter("i", 0, 64);
        let j = b.iter("j", 0, 64);
        let inp = b.input("in", &[64, 64]);
        let out = b.buffer("out", &[64, 64]);
        let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
        b.assign("c", &[i, j], out, &[i.into(), j.into()], Expr::Load(acc));
        b.build().unwrap()
    }

    fn tiny_model() -> CostModel {
        CostModel::new(
            CostModelConfig {
                input_dim: FeaturizerConfig::default().vector_width(),
                embed_widths: vec![32, 16],
                merge_hidden: 16,
                regress_widths: vec![16],
                dropout: 0.0,
            },
            0,
        )
    }

    #[test]
    fn batch_matches_predict_exactly() {
        let p = program();
        let model = tiny_model();
        let featurizer = Featurizer::new(FeaturizerConfig::default());
        let schedules = vec![
            Schedule::empty(),
            Schedule::new(vec![Transform::Parallelize {
                comp: CompId(0),
                level: 0,
            }]),
            Schedule::new(vec![Transform::Tile {
                comp: CompId(0),
                level_a: 0,
                level_b: 1,
                size_a: 16,
                size_b: 16,
            }]),
        ];
        let mut ev = ModelEvaluator::new(&model, featurizer.clone());
        let batch = ev.speedup_batch(&p, &schedules);
        for (s, &b) in schedules.iter().zip(&batch) {
            let single = model
                .predict(&featurizer.featurize(&p, s))
                .max(f64::MIN_POSITIVE);
            assert_eq!(
                b, single,
                "batched score must equal SpeedupPredictor::predict"
            );
        }
        assert_eq!(ev.stats().num_evals, 3);
        assert!(ev.stats().infer_time > 0.0);
        assert_eq!(ev.stats().compile_time, 0.0);
    }
}
