//! Property tests for the caching layer: over randomized schedule
//! sequences — interleaving programs, duplicating candidates, mixing
//! single and batched calls — `SharedCachedEvaluator` (driven through the
//! `&E: Evaluator` adapter) must return exactly the values an uncached
//! evaluator would have produced, including across programs that share a
//! name (the content-keyed baseline behavior of `ParallelEvaluator`).
//!
//! Written as seeded loops in the style of the rest of the suite (no
//! proptest in this environment).

use dlcm_datagen::{ProgramGenConfig, ProgramGenerator, ScheduleGenConfig, ScheduleGenerator};
use dlcm_eval::{Evaluator, ParallelEvaluator, ScopedEvaluator, SharedCachedEvaluator};
use dlcm_ir::{Program, Schedule};
use dlcm_machine::{Machine, Measurement};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn corpus(trial: u64) -> Vec<(Program, Vec<Schedule>)> {
    let progen = ProgramGenerator::new(ProgramGenConfig::default());
    let schedgen = ScheduleGenerator::new(ScheduleGenConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0DE ^ trial);
    // Two programs deliberately share a name: the cache must key on
    // content, exactly like the execution evaluator's baseline tracking.
    ["p", "p", "q"]
        .iter()
        .map(|name| {
            let program = progen.generate(&mut rng, name);
            let mut schedules = schedgen.generate_distinct(&program, 5, &mut rng);
            schedules.push(Schedule::empty());
            (program, schedules)
        })
        .collect()
}

#[test]
fn cached_matches_inner_over_randomized_sequences() {
    let mut total_hits = 0;
    for trial in 0..6u64 {
        let corpus = corpus(trial);
        let seed = 1000 + trial;
        let mut rng = ChaCha8Rng::seed_from_u64(trial);

        let mut reference = ParallelEvaluator::new(Measurement::new(Machine), seed, 1);
        let shared =
            SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::new(Machine), seed, 1));
        let mut cached = ScopedEvaluator::new(&shared);

        for _ in 0..25 {
            let (program, schedules) = &corpus[rng.gen_range(0..corpus.len())];
            if rng.gen_bool(0.5) {
                // Random batch, duplicates allowed.
                let batch: Vec<Schedule> = (0..rng.gen_range(1..=4))
                    .map(|_| schedules[rng.gen_range(0..schedules.len())].clone())
                    .collect();
                let expected: Vec<f64> = batch
                    .iter()
                    .map(|s| reference.speedup(program, s))
                    .collect();
                let got = cached.speedup_batch(program, &batch);
                assert_eq!(got, expected, "trial {trial}: batched divergence");
            } else {
                let schedule = &schedules[rng.gen_range(0..schedules.len())];
                let expected = reference.speedup(program, schedule);
                let got = cached.speedup(program, schedule);
                assert_eq!(got, expected, "trial {trial}: single-call divergence");
            }
        }
        assert_eq!(
            cached.stats().cache_hits + cached.stats().cache_misses,
            reference.stats().num_evals,
            "every candidate is either a hit or a miss"
        );
        assert_eq!(cached.stats().num_evals, shared.misses());
        total_hits += shared.hits();
    }
    assert!(
        total_hits > 0,
        "randomized sequences should revisit schedules"
    );
}

#[test]
fn cache_never_leaks_across_same_named_programs() {
    // Stress the specific failure mode content keying prevents: two
    // different programs named "p" whose empty-schedule speedups are both
    // exactly 1.0 only if each is measured against its own baseline.
    for trial in 0..4u64 {
        let corpus = corpus(trial);
        let shared =
            SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::exact(Machine), 0, 1));
        let mut cached = ScopedEvaluator::new(&shared);
        for (program, _) in &corpus {
            let s = cached.speedup(program, &Schedule::empty());
            assert!(
                (s - 1.0).abs() < 1e-9,
                "trial {trial}: empty schedule must be 1.0, got {s}"
            );
        }
        // Revisiting in reverse order must serve hits, still correct.
        for (program, _) in corpus.iter().rev() {
            let s = cached.speedup(program, &Schedule::empty());
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert_eq!(shared.hits(), corpus.len());
        assert_eq!(shared.misses(), corpus.len());
    }
}
