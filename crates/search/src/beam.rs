//! Beam search over the transformation decision tree (§5, Figure 3).
//!
//! "At each node of the tree, an evaluation is conducted using the cost
//! model to assess whether the chosen transformations provide a good
//! speedup." The beam keeps the `width` best candidates per stage, scored
//! on their *finalized* schedules (decision prefix + the §4 heuristic
//! parallelization/vectorization tags). All new candidates of a stage are
//! scored through one [`Evaluator::speedup_batch`] call, **deduplicated
//! within and across waves**: finalization maps many decision prefixes
//! onto the same schedule (skipped stages, equivalent tag tails), and
//! evaluators are deterministic, so a schedule scored once never needs to
//! be scored again. Dedup only skips re-evaluations of identical
//! schedules, which by the determinism contract return identical values —
//! search results are bit-identical with or without it. Every call goes
//! through [`Evaluator::speedup_batch_charged`], and the run's stats are
//! the sum of the charges those calls returned.

use std::collections::HashMap;

use dlcm_eval::{EvalStats, Evaluator};
use dlcm_ir::{Legality, Program, Schedule};

use crate::space::{expand_in, Candidate, SearchSpace};

/// Outcome of one search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best finalized schedule found.
    pub schedule: Schedule,
    /// The evaluator's score for it (speedup over unoptimized).
    pub score: f64,
    /// Evaluation accounting of this run: the sum, from zero, of the
    /// charges its own evaluator calls returned (candidate count and
    /// accounted search time — see [`dlcm_eval::EvalStats`]).
    pub stats: EvalStats,
}

/// Beam search.
#[derive(Debug, Clone)]
pub struct BeamSearch {
    /// Beam width (candidates kept per stage).
    pub width: usize,
    /// The candidate space.
    pub space: SearchSpace,
}

impl Default for BeamSearch {
    fn default() -> Self {
        Self {
            width: 4,
            space: SearchSpace::default(),
        }
    }
}

impl BeamSearch {
    /// Creates a beam search with the given width.
    pub fn new(width: usize, space: SearchSpace) -> Self {
        Self { width, space }
    }

    /// Runs the search, scoring candidates through `evaluator`.
    pub fn search(&self, program: &Program, evaluator: &mut dyn Evaluator) -> SearchResult {
        let mut stats = EvalStats::default();
        let legality = Legality::new(program);

        // Finalized schedules already scored in an earlier wave, keyed by
        // their normalized cache key.
        let mut seen: HashMap<u64, f64> = HashMap::new();

        let mut frontier: Vec<(Candidate, f64, Schedule)> = Vec::new();
        {
            let root = Candidate::root(program);
            let finalized = root.clone().finalize(&legality);
            let (scores, charged) =
                evaluator.speedup_batch_charged(program, std::slice::from_ref(&finalized));
            stats += charged;
            let score = scores[0];
            seen.insert(finalized.cache_key(), score);
            frontier.push((root, score, finalized));
        }

        // Expand until every beam entry is complete. Each wave's fresh
        // candidates are deduplicated and scored in a single batched
        // evaluator call.
        while frontier.iter().any(|(c, _, _)| !c.is_complete()) {
            let mut next: Vec<(Candidate, Option<f64>, Schedule)> = Vec::new();
            // One entry per *unique* unseen schedule in this wave, with
            // the `next` slots waiting on it.
            let mut wave: Vec<(u64, Schedule, Vec<usize>)> = Vec::new();
            for (cand, score, finalized) in frontier {
                if cand.is_complete() {
                    next.push((cand, Some(score), finalized));
                    continue;
                }
                for child in expand_in(&legality, &self.space, &cand) {
                    // The skip child has the same transforms: reuse the
                    // parent's score rather than re-evaluating.
                    if child.schedule == cand.schedule {
                        next.push((child, Some(score), finalized.clone()));
                        continue;
                    }
                    let child_final = child.clone().finalize(&legality);
                    let key = child_final.cache_key();
                    if let Some(&known) = seen.get(&key) {
                        next.push((child, Some(known), child_final));
                        continue;
                    }
                    let slot = next.len();
                    match wave.iter_mut().find(|(k, _, _)| *k == key) {
                        Some((_, _, slots)) => slots.push(slot),
                        None => wave.push((key, child_final.clone(), vec![slot])),
                    }
                    next.push((child, None, child_final));
                }
            }

            let batch: Vec<Schedule> = wave.iter().map(|(_, s, _)| s.clone()).collect();
            let (scores, charged) = evaluator.speedup_batch_charged(program, &batch);
            stats += charged;
            for ((key, _, slots), score) in wave.into_iter().zip(scores) {
                seen.insert(key, score);
                for slot in slots {
                    next[slot].1 = Some(score);
                }
            }

            let mut scored: Vec<(Candidate, f64, Schedule)> = next
                .into_iter()
                .map(|(c, s, f)| (c, s.expect("every candidate scored"), f))
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
            scored.truncate(self.width.max(1));
            frontier = scored;
        }

        let (_, score, schedule) = frontier
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
            .expect("non-empty frontier");
        SearchResult {
            schedule,
            score,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::finalize;
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

    #[test]
    fn beam_with_execution_beats_heuristic_baseline() {
        let p = mm(256);
        let mut ev = ParallelEvaluator::new(Measurement::exact(Machine), 0, 1);
        let beam = BeamSearch::new(
            3,
            SearchSpace {
                tile_sizes: vec![32, 64],
                unroll_factors: vec![4],
            },
        );
        let result = beam.search(&p, &mut ev);
        // Empty-schedule finalized (parallel+vector only) is the first
        // candidate; the search must do at least as well.
        let mut ev2 = ParallelEvaluator::new(Measurement::exact(Machine), 0, 1);
        let baseline = finalize(&p, &Schedule::empty());
        let base_score = ev2.speedup(&p, &baseline);
        assert!(
            result.score >= base_score,
            "beam ({}) must not lose to its own root ({base_score}): {}",
            result.score,
            result.schedule.describe()
        );
        assert!(result.stats.num_evals > 5);
        assert!(result.stats.search_time > 0.0);
    }

    #[test]
    fn wider_beam_never_worse() {
        let p = mm(128);
        let space = SearchSpace {
            tile_sizes: vec![16, 32],
            unroll_factors: vec![2, 4],
        };
        let run = |w: usize| {
            let mut ev = ParallelEvaluator::new(Measurement::exact(Machine), 0, 1);
            BeamSearch::new(w, space.clone()).search(&p, &mut ev).score
        };
        let narrow = run(1);
        let wide = run(8);
        assert!(
            wide >= narrow * 0.999,
            "wider beam regressed: {narrow} -> {wide}"
        );
    }

    #[test]
    fn dedup_skips_reevaluations_without_changing_the_result() {
        let p = mm(128);
        let space = SearchSpace {
            tile_sizes: vec![16, 32],
            unroll_factors: vec![2, 4],
        };
        let mut ev = ParallelEvaluator::new(Measurement::exact(Machine), 0, 1);
        let result = BeamSearch::new(4, space.clone()).search(&p, &mut ev);
        // Finalization funnels many decision prefixes onto shared
        // schedules; the evaluator must have seen each unique one once.
        let shared = dlcm_eval::SharedCachedEvaluator::new(ParallelEvaluator::new(
            Measurement::exact(Machine),
            0,
            1,
        ));
        let cached_result =
            BeamSearch::new(4, space).search(&p, &mut dlcm_eval::ScopedEvaluator::new(&shared));
        assert_eq!(cached_result.schedule, result.schedule);
        assert_eq!(cached_result.score, result.score);
        assert_eq!(
            shared.hits(),
            0,
            "search-level dedup must leave nothing for the cache layer to catch within one run"
        );
    }

    #[test]
    fn result_schedule_is_legal() {
        let p = mm(64);
        let mut ev = ParallelEvaluator::new(Measurement::exact(Machine), 0, 1);
        let result = BeamSearch::default().search(&p, &mut ev);
        assert!(dlcm_ir::apply_schedule(&p, &result.schedule).is_ok());
    }

    #[test]
    fn boxed_evaluator_drives_search() {
        // `Box<dyn Evaluator>` must work end to end (object safety).
        let p = mm(64);
        let mut ev: Box<dyn Evaluator> =
            Box::new(ParallelEvaluator::new(Measurement::exact(Machine), 0, 1));
        let result = BeamSearch::default().search(&p, &mut *ev);
        assert!(result.stats.num_evals > 0);
    }
}
