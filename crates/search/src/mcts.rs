//! Monte-Carlo Tree Search over the transformation tree (§5).
//!
//! "MCTS takes advantage of the search tree and takes into account the
//! stochasticity of the model. ... MCTS keeps track of a set of the best
//! evaluated code transformations to execute them. ... Once the tree is
//! explored, the set of the best code transformations is executed" — a
//! two-step approach: the model prunes the space, and a small number of
//! real executions corrects the model's error.
//!
//! Both evaluators are called only through
//! [`Evaluator::speedup_batch_charged`]; the run's stats are the sum of
//! the model calls' charges plus the execution call's charge.

use std::collections::HashMap;

use dlcm_eval::{EvalStats, Evaluator};
use dlcm_ir::{Legality, Program, Schedule};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::beam::SearchResult;
use crate::space::{draw_child, expand_in, Candidate, SearchSpace};

/// Weight of the UCB visit bonus against a child's mean score (scores
/// are normalized by the best seen so far).
const UCB_WEIGHT: f64 = 0.7;

/// Size of the best-schedule set executed at the end (the paper's
/// "parameter of the approach").
const EXEC_TOP_K: usize = 3;

/// MCTS configuration.
#[derive(Debug, Clone)]
pub struct Mcts {
    /// Number of selection/expansion/rollout iterations.
    pub iterations: usize,
    /// The candidate space.
    pub space: SearchSpace,
    /// RNG seed for rollouts.
    pub seed: u64,
}

impl Default for Mcts {
    fn default() -> Self {
        Self {
            iterations: 120,
            space: SearchSpace::default(),
            seed: 0,
        }
    }
}

struct Node {
    candidate: Candidate,
    /// Children indices once expanded.
    children: Vec<usize>,
    expanded: bool,
    visits: f64,
    total: f64,
}

impl Mcts {
    /// Runs MCTS: `model_eval` scores rollouts; `exec_eval` (the
    /// correction step) executes the retained top-k set in one batched
    /// call and the best measured schedule wins. The returned
    /// [`SearchResult::stats`] is the model calls' summed charges plus the
    /// execution call's charge.
    pub fn search(
        &self,
        program: &Program,
        model_eval: &mut dyn Evaluator,
        exec_eval: &mut dyn Evaluator,
    ) -> SearchResult {
        let mut model_stats = EvalStats::default();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let legality = Legality::new(program);

        let mut nodes = vec![Node {
            candidate: Candidate::root(program),
            children: Vec::new(),
            expanded: false,
            visits: 0.0,
            total: 0.0,
        }];
        // Rollouts revisit finalized schedules across iterations; the
        // model is deterministic, so score each unique schedule once.
        let mut rollout_scores: HashMap<u64, f64> = HashMap::new();
        // Best finalized schedules by model score.
        let mut best_set: Vec<(f64, Schedule)> = Vec::new();
        let record = |score: f64, schedule: Schedule, set: &mut Vec<(f64, Schedule)>| {
            if set.iter().any(|(_, s)| *s == schedule) {
                return;
            }
            set.push((score, schedule));
            set.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
            set.truncate(EXEC_TOP_K);
        };
        let mut global_max = f64::MIN_POSITIVE;

        for _ in 0..self.iterations {
            // --- Selection -------------------------------------------------
            let mut path = vec![0usize];
            loop {
                let idx = *path.last().expect("non-empty path");
                if !nodes[idx].expanded || nodes[idx].children.is_empty() {
                    break;
                }
                let parent_visits = nodes[idx].visits.max(1.0);
                let next = *nodes[idx]
                    .children
                    .iter()
                    .max_by(|&&a, &&b| {
                        let ucb = |n: &Node| {
                            let mean = if n.visits > 0.0 {
                                n.total / n.visits
                            } else {
                                0.0
                            };
                            mean / global_max
                                + UCB_WEIGHT * (parent_visits.ln() / n.visits.max(1e-9)).sqrt()
                        };
                        ucb(&nodes[a])
                            .partial_cmp(&ucb(&nodes[b]))
                            .expect("finite UCB")
                    })
                    .expect("non-empty children");
                path.push(next);
            }

            // --- Expansion --------------------------------------------------
            let leaf = *path.last().expect("non-empty path");
            if !nodes[leaf].expanded && !nodes[leaf].candidate.is_complete() {
                let children = expand_in(&legality, &self.space, &nodes[leaf].candidate);
                for child in children {
                    nodes.push(Node {
                        candidate: child,
                        children: Vec::new(),
                        expanded: false,
                        visits: 0.0,
                        total: 0.0,
                    });
                    let id = nodes.len() - 1;
                    nodes[leaf].children.push(id);
                }
                nodes[leaf].expanded = true;
                if let Some(&pick) = nodes[leaf].children.choose(&mut rng) {
                    path.push(pick);
                }
            }

            // --- Rollout ----------------------------------------------------
            let start = *path.last().expect("non-empty path");
            let mut cand = nodes[start].candidate.clone();
            let mut guard = 0;
            while !cand.is_complete() {
                cand = draw_child(&legality, &self.space, cand, &mut rng);
                guard += 1;
                assert!(guard < 64, "rollout did not terminate");
            }
            let finalized = cand.finalize(&legality);
            let key = finalized.cache_key();
            let score = match rollout_scores.get(&key) {
                Some(&known) => known,
                None => {
                    let (scores, charged) =
                        model_eval.speedup_batch_charged(program, std::slice::from_ref(&finalized));
                    model_stats += charged;
                    rollout_scores.insert(key, scores[0]);
                    scores[0]
                }
            };
            global_max = global_max.max(score);
            record(score, finalized, &mut best_set);

            // --- Backpropagation --------------------------------------------
            for idx in path {
                nodes[idx].visits += 1.0;
                nodes[idx].total += score;
            }
        }

        // --- Correction step: execute the retained set in one batch ---------
        let retained: Vec<Schedule> = best_set.iter().map(|(_, s)| s.clone()).collect();
        let (measured, exec_stats) = exec_eval.speedup_batch_charged(program, &retained);
        let (best_schedule, best_measured) = retained
            .into_iter()
            .zip(measured)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite measurements"))
            .unwrap_or((Schedule::empty(), 1.0));

        SearchResult {
            schedule: best_schedule,
            score: best_measured,
            stats: model_stats + exec_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_eval::ParallelEvaluator;
    use dlcm_ir::{BinOp, Expr, ProgramBuilder};
    use dlcm_machine::{Machine, Measurement};

    fn mm(n: i64) -> Program {
        let mut b = ProgramBuilder::new("mm");
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let k = b.iter("k", 0, n);
        let a_buf = b.input("a", &[n, n]);
        let b_buf = b.input("b", &[n, n]);
        let out = b.buffer("out", &[n, n]);
        let iters = [i, j, k];
        let a_acc = b.access(a_buf, &[i.into(), k.into()], &iters);
        let b_acc = b.access(b_buf, &[k.into(), j.into()], &iters);
        b.reduce(
            "mm",
            &iters,
            BinOp::Add,
            out,
            &[i.into(), j.into()],
            Expr::binary(BinOp::Mul, Expr::Load(a_acc), Expr::Load(b_acc)),
        );
        b.build().unwrap()
    }

    /// MCTS with the execution evaluator standing in for the model: sanity
    /// check of the search mechanics without a trained network.
    #[test]
    fn mcts_finds_a_legal_improving_schedule() {
        let p = mm(128);
        let mut model_ev = ParallelEvaluator::new(Measurement::exact(Machine), 0, 1);
        let mut exec_ev = ParallelEvaluator::new(Measurement::exact(Machine), 0, 1);
        let mcts = Mcts {
            iterations: 40,
            space: SearchSpace {
                tile_sizes: vec![16, 32],
                unroll_factors: vec![4],
            },
            ..Mcts::default()
        };
        let result = mcts.search(&p, &mut model_ev, &mut exec_ev);
        assert!(dlcm_ir::apply_schedule(&p, &result.schedule).is_ok());
        assert!(
            result.score >= 1.0,
            "should at least match baseline: {}",
            result.score
        );
        // Rollout dedup: at most one model eval per iteration plus the
        // executed top-k correction set, and at least one per distinct
        // retained schedule.
        assert!(result.stats.num_evals > 0);
        assert!(result.stats.num_evals <= 40 + EXEC_TOP_K);
        assert!(result.stats.search_time > 0.0);
    }

    #[test]
    fn mcts_is_deterministic_per_seed() {
        let p = mm(64);
        let run = || {
            let mut m = ParallelEvaluator::new(Measurement::exact(Machine), 0, 1);
            let mut e = ParallelEvaluator::new(Measurement::exact(Machine), 0, 1);
            Mcts {
                iterations: 15,
                seed: 9,
                ..Mcts::default()
            }
            .search(&p, &mut m, &mut e)
            .schedule
        };
        assert_eq!(run(), run());
    }
}
