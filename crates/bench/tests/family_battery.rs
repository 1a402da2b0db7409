//! Generator property battery over the widened nine-family space: for a
//! bank of fixed seeds, every generated program must (a) validate and
//! interpret as its own legal baseline, (b) yield a search space whose
//! every enumerated candidate passes `apply_schedule` — the space is
//! safe by construction, illegal children are pruned at expansion, never
//! served — (c) featurize without panicking, and (d) produce structure
//! keys that are bit-identical whether featurization fans over 1 or 4
//! threads.

use dlcm_datagen::{Pattern, ProgramGenConfig, ProgramGenerator};
use dlcm_eval::pool;
use dlcm_ir::{apply_schedule, interpret_baseline, synthetic_inputs, Program, Schedule};
use dlcm_model::{Featurizer, FeaturizerConfig};
use dlcm_search::{expand, finalize, Candidate, SearchSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Fixed seed bank: enough draws to exercise every family (the battery
/// asserts all nine appear) while keeping candidate enumeration cheap.
const SEEDS: [u64; 6] = [0, 1, 2, 5, 11, 42];
const PROGRAMS_PER_SEED: usize = 8;
/// Per-program cap on enumerated complete candidates; depth-first
/// enumeration makes the cap a prefix of a deterministic order.
const CANDIDATE_CAP: usize = 200;

fn wide_cfg() -> ProgramGenConfig {
    ProgramGenConfig {
        size_pool: vec![8, 16, 32],
        max_points: 1 << 14,
        ..ProgramGenConfig::wide()
    }
}

fn generate_bank() -> Vec<(Program, Pattern)> {
    let gen = ProgramGenerator::new(wide_cfg());
    let mut bank = Vec::new();
    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for i in 0..PROGRAMS_PER_SEED {
            bank.push(gen.generate_with_family(&mut rng, &format!("s{seed}_p{i}")));
        }
    }
    bank
}

/// Depth-first enumeration of complete candidates, capped.
fn enumerate_schedules(program: &Program, space: &SearchSpace, cap: usize) -> Vec<Schedule> {
    let mut frontier = vec![Candidate::root(program)];
    let mut complete = Vec::new();
    while let Some(cand) = frontier.pop() {
        if cand.is_complete() {
            complete.push(cand.schedule);
            if complete.len() >= cap {
                break;
            }
            continue;
        }
        frontier.extend(expand(program, space, &cand));
    }
    complete
}

#[test]
fn every_program_is_a_legal_interpretable_baseline() {
    let mut seen: Vec<Pattern> = Vec::new();
    for (k, (program, family)) in generate_bank().into_iter().enumerate() {
        program
            .validate()
            .unwrap_or_else(|e| panic!("program {k} invalid: {e:?}\n{program}"));
        // The empty schedule is the baseline every speedup is relative
        // to; it must always apply.
        apply_schedule(&program, &Schedule::empty())
            .unwrap_or_else(|e| panic!("baseline rejected for program {k}: {e:?}"));
        let out = interpret_baseline(&program, &synthetic_inputs(&program, k as u64))
            .unwrap_or_else(|e| panic!("program {k} uninterpretable: {e:?}"));
        assert!(
            out.values().flat_map(|b| b.iter()).all(|v| v.is_finite()),
            "program {k} ({}) produced non-finite output",
            family.name()
        );
        if !seen.contains(&family) {
            seen.push(family);
        }
    }
    assert_eq!(
        seen.len(),
        Pattern::ALL.len(),
        "seed bank must exercise all nine families, saw {:?}",
        seen.iter().map(|p| p.name()).collect::<Vec<_>>()
    );
}

#[test]
fn every_enumerated_candidate_passes_apply_schedule() {
    let space = SearchSpace::default();
    for (k, (program, family)) in generate_bank().into_iter().enumerate() {
        let schedules = enumerate_schedules(&program, &space, CANDIDATE_CAP);
        assert!(
            !schedules.is_empty(),
            "program {k} enumerated no candidates"
        );
        for (s, schedule) in schedules.iter().enumerate() {
            apply_schedule(&program, schedule).unwrap_or_else(|e| {
                panic!(
                    "candidate {s} illegal for program {k} ({}): {e:?}\nschedule: {schedule:?}",
                    family.name()
                )
            });
            // Finalization (parallelize + vectorize heuristics) must
            // preserve legality too — it is what search actually serves.
            let finalized = finalize(&program, schedule);
            apply_schedule(&program, &finalized).unwrap_or_else(|e| {
                panic!(
                    "finalized candidate {s} illegal for program {k} ({}): {e:?}",
                    family.name()
                )
            });
        }
    }
}

#[test]
fn featurization_never_panics_and_keys_are_thread_stable() {
    let space = SearchSpace::default();
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    // One candidate batch across the whole bank, then featurize it
    // under both fan-outs.
    let mut work: Vec<(Program, Schedule)> = Vec::new();
    for (program, _) in generate_bank() {
        for schedule in enumerate_schedules(&program, &space, 12) {
            work.push((program.clone(), schedule));
        }
    }
    let keys_of = |threads: usize| -> Vec<u64> {
        pool::parallel_map(threads, work.len(), |k| {
            let (program, schedule) = &work[k];
            featurizer.featurize(program, schedule).structure_key()
        })
    };
    let seq = keys_of(1);
    let par = keys_of(4);
    assert_eq!(seq, par, "structure keys depend on thread count");
}
