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
//!
//! A [`ModelEvaluator`] remembers the scores of the program it is
//! scoring, keyed by [`Schedule::cache_key`], and answers a repeated
//! schedule from them — the searches of one job (MCTS, then beam search
//! with the model) share one evaluator, and the beam search meets many
//! schedules MCTS already scored. Scores are pure per `(model,
//! featurizer, program, schedule)`, so remembering changes time, never a
//! score; and every candidate asked about is charged as if scored.

use std::collections::HashMap;
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
/// The wave is featurized inline from one [`dlcm_model::FeatureBase`]
/// of `program` — once the base exists a row costs less than handing it
/// to a pool worker would — and the groups fan over
/// [`parallel_map`]`(threads, …)` (`threads <= 1` runs inline). Rows are
/// pure per `(model, featurizer, program, schedule)`, so `threads`
/// changes wall-clock, never a score.
pub fn score_wave(
    model: &dyn SpeedupPredictor,
    featurizer: &Featurizer,
    threads: usize,
    program: &Program,
    schedules: &[Schedule],
) -> (Vec<f64>, usize) {
    let base = featurizer.base(program);
    let feats: Vec<ProgramFeatures> = schedules.iter().map(|s| base.featurize(s)).collect();
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
    /// [`Program::cache_key`] of the program `scores` belong to.
    program: Option<u64>,
    /// Scores of that program's schedules, by [`Schedule::cache_key`].
    scores: HashMap<u64, f64>,
}

impl<'m> ModelEvaluator<'m> {
    /// Creates a model evaluator over any speedup predictor.
    pub fn new(model: &'m dyn SpeedupPredictor, featurizer: Featurizer) -> Self {
        Self {
            model,
            featurizer,
            stats: EvalStats::default(),
            sim_infer_cost: None,
            program: None,
            scores: HashMap::new(),
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
        self.speedup_batch_charged(program, schedules).0
    }

    fn speedup_batch_charged(
        &mut self,
        program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        let start = Instant::now();
        let program_key = program.cache_key();
        if self.program != Some(program_key) {
            self.scores.clear();
            self.program = Some(program_key);
        }
        let keys: Vec<u64> = schedules.iter().map(Schedule::cache_key).collect();
        let (fresh_keys, fresh): (Vec<u64>, Vec<Schedule>) = keys
            .iter()
            .zip(schedules)
            .filter(|(key, _)| !self.scores.contains_key(key))
            .map(|(&key, schedule)| (key, schedule.clone()))
            .unzip();
        if !fresh.is_empty() {
            let (scored, _) = score_wave(self.model, &self.featurizer, 1, program, &fresh);
            self.scores.extend(fresh_keys.into_iter().zip(scored));
        }
        let out = keys.iter().map(|key| self.scores[key]).collect();

        let dt = start.elapsed().as_secs_f64();
        let charged = EvalStats {
            num_evals: schedules.len(),
            infer_time: dt,
            search_time: match self.sim_infer_cost {
                Some(per_candidate) => per_candidate * schedules.len() as f64,
                None => dt,
            },
            ..EvalStats::default()
        };
        self.stats += charged;
        (out, charged)
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

    /// A schedule the evaluator already scored for this program is
    /// answered from memory with the same bits and charged like a fresh
    /// one; scoring another program forgets the first one's scores.
    #[test]
    fn repeated_schedules_are_remembered_per_program_and_charged() {
        let p = program();
        let model = tiny_model();
        let featurizer = Featurizer::new(FeaturizerConfig::default());
        let schedules = vec![
            Schedule::empty(),
            Schedule::new(vec![Transform::Parallelize {
                comp: CompId(0),
                level: 0,
            }]),
        ];
        let mut ev = ModelEvaluator::new(&model, featurizer).with_simulated_cost(0.25);
        let first = ev.speedup_batch(&p, &schedules);
        let again = ev.speedup_batch(&p, &schedules[1..]);
        assert_eq!(again[0].to_bits(), first[1].to_bits());
        assert_eq!(ev.scores.len(), 2, "nothing was scored twice");
        assert_eq!(ev.stats().num_evals, 3);
        assert_eq!(ev.stats().search_time, 0.75);

        let mut other = ProgramBuilder::new("q");
        let i = other.iter("i", 0, 32);
        let inp = other.input("in", &[32]);
        let out = other.buffer("out", &[32]);
        let acc = other.access(inp, &[i.into()], &[i]);
        other.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
        ev.speedup(&other.build().unwrap(), &Schedule::empty());
        assert_eq!(ev.scores.len(), 1, "the first program's scores are gone");
    }
}
