//! Seeded inputs: everything a workload feeds the product is generated
//! here from `--seed` before timing starts, so the same seed gives the
//! same operation list and the product receives only generated inputs.

use std::collections::HashSet;

use dlcm_datagen::{
    AppendSample, ProgramGenConfig, ProgramGenerator, ScheduleGenConfig, ScheduleGenerator,
};
use dlcm_ir::fingerprint::{fnv1a, FNV1A_INIT};
use dlcm_ir::{Program, Schedule};
use dlcm_machine::Measurement;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Schedules per `Speedups` request: the candidate wave a beam search
/// sends per expansion step.
pub const WAVE_LEN: usize = 8;

/// Operation counts of one run. `full` is the benchmark of record;
/// `smoke` is 1/100 of it, for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `serve_cold`: requests per connection per repetition.
    pub cold_requests: usize,
    /// `serve_hot`: requests per connection per repetition.
    pub hot_requests: usize,
    /// `serve_hot`: distinct requests the draws come from.
    pub hot_working_set: usize,
    /// Served waves per repetition compared against in-process scoring.
    pub checked_waves: usize,
    /// `search_suite`: MCTS iterations per search.
    pub mcts_iterations: usize,
    /// `train_pipeline`: programs in the generated corpus.
    pub corpus_programs: usize,
    /// `train_pipeline`: schedules per corpus program.
    pub corpus_schedules: usize,
    /// `train_pipeline`: freshly labeled rows offered to the flywheel turn.
    pub append_rows: usize,
    /// `train_pipeline`: epochs of the from-scratch training stage.
    pub train_epochs: usize,
    /// Programs in the bench model's corpus (8 schedules each).
    pub bench_model_programs: usize,
    /// Epochs the bench model trains for.
    pub bench_model_epochs: usize,
}

impl Sizes {
    /// The benchmark of record.
    pub const fn full() -> Self {
        Self {
            cold_requests: 500,
            hot_requests: 1000,
            hot_working_set: 256,
            checked_waves: 256,
            mcts_iterations: 150,
            corpus_programs: 64,
            corpus_schedules: 16,
            append_rows: 128,
            train_epochs: 4,
            bench_model_programs: 48,
            bench_model_epochs: 3,
        }
    }

    /// 1/100 of the operation counts (floors keep every stage non-empty).
    pub const fn smoke() -> Self {
        Self {
            cold_requests: 10,
            hot_requests: 50,
            hot_working_set: 8,
            checked_waves: 4,
            mcts_iterations: 4,
            corpus_programs: 10,
            corpus_schedules: 4,
            append_rows: 4,
            train_epochs: 1,
            bench_model_programs: 10,
            bench_model_epochs: 1,
        }
    }
}

/// One `Speedups` request: a program and the wave of schedules to score.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// The program the schedules apply to.
    pub program: Program,
    /// [`WAVE_LEN`] schedules with pairwise distinct cache keys.
    pub schedules: Vec<Schedule>,
}

/// The generator both the bench model's corpus and the serve traffic
/// draw programs from: all nine scenario families.
pub fn program_generator() -> ProgramGenerator {
    ProgramGenerator::new(ProgramGenConfig::wide())
}

/// `count` requests no two of which share a `(program, schedule)` cache
/// key: programs are distinct by `content_fingerprint`, and the
/// schedules of one wave are distinct by `Schedule::cache_key` (the
/// normalized form the result cache keys on — `generate_distinct` alone
/// only guarantees distinct transform lists). Programs whose schedule
/// space is too small for a full wave are skipped.
pub fn distinct_requests(seed: u64, count: usize) -> Vec<ServeRequest> {
    let generator = program_generator();
    let schedgen = ScheduleGenerator::new(ScheduleGenConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut seen_programs: HashSet<u64> = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut drawn = 0usize;
    while out.len() < count {
        let program = generator.generate(&mut rng, &format!("req{drawn}"));
        drawn += 1;
        if !seen_programs.insert(program.content_fingerprint()) {
            continue;
        }
        let mut keys: HashSet<u64> = HashSet::with_capacity(WAVE_LEN);
        let mut schedules = Vec::with_capacity(WAVE_LEN);
        for schedule in schedgen.generate_distinct(&program, 2 * WAVE_LEN, &mut rng) {
            if schedules.len() < WAVE_LEN && keys.insert(schedule.cache_key()) {
                schedules.push(schedule);
            }
        }
        if schedules.len() == WAVE_LEN {
            out.push(ServeRequest { program, schedules });
        }
    }
    out
}

/// `count` indices into a working set of `working_set` requests, drawn
/// uniformly — the hot traffic of one connection.
pub fn hot_draws(seed: u64, working_set: usize, count: usize) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(0..working_set)).collect()
}

/// Every `(program fingerprint, schedule cache key)` pair of a request
/// list, in order.
pub fn request_keys(requests: &[ServeRequest]) -> Vec<(u64, u64)> {
    requests
        .iter()
        .flat_map(|r| {
            let fp = r.program.content_fingerprint();
            r.schedules.iter().map(move |s| (fp, s.cache_key()))
        })
        .collect()
}

/// Order-sensitive digest of a request list: equal seeds must give equal
/// digests, different seeds different ones. Recorded in every result
/// file so two runs can be shown to have sent the same traffic.
pub fn request_digest(requests: &[ServeRequest]) -> u64 {
    request_keys(requests)
        .into_iter()
        .fold(FNV1A_INIT, |state, (fp, key)| {
            fnv1a(fnv1a(state, &fp.to_le_bytes()), &key.to_le_bytes())
        })
}

/// `count` labeled rows for the flywheel turn of `train_pipeline`:
/// fresh programs (a generator stream disjoint from the corpus seed's),
/// one schedule each, labeled by the measurement harness exactly as the
/// serving tier's mispredict capture would.
pub fn append_samples(seed: u64, count: usize, harness: &Measurement) -> Vec<AppendSample> {
    let generator = program_generator();
    let schedgen = ScheduleGenerator::new(ScheduleGenConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA99E_11D5);
    (0..count)
        .map(|i| {
            let program = generator.generate(&mut rng, &format!("fly{i}"));
            let schedule = schedgen.generate(&program, &mut rng);
            let speedup = harness
                .speedup(&program, &schedule, seed ^ i as u64)
                .expect("generated schedules are legal");
            AppendSample {
                program,
                schedule,
                speedup,
                family: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_and_different_seed_different_digest() {
        let n = Sizes::smoke().cold_requests;
        let a = distinct_requests(11, n);
        let b = distinct_requests(11, n);
        let c = distinct_requests(12, n);
        assert_eq!(a, b);
        assert_eq!(request_digest(&a), request_digest(&b));
        assert_ne!(request_digest(&a), request_digest(&c));
        assert_eq!(hot_draws(3, 8, 50), hot_draws(3, 8, 50));
        assert_ne!(hot_draws(3, 8, 50), hot_draws(4, 8, 50));
    }

    #[test]
    fn cold_list_has_zero_duplicate_keys() {
        let requests = distinct_requests(5, 4 * Sizes::smoke().cold_requests);
        let keys = request_keys(&requests);
        assert_eq!(keys.len(), requests.len() * WAVE_LEN);
        let unique: HashSet<(u64, u64)> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len(), "every cache key occurs once");
        let programs: HashSet<u64> = keys.iter().map(|k| k.0).collect();
        assert_eq!(programs.len(), requests.len(), "programs are distinct");
    }

    #[test]
    fn hot_draws_stay_inside_the_working_set() {
        let sizes = Sizes::smoke();
        let draws = hot_draws(9, sizes.hot_working_set, sizes.hot_requests);
        assert_eq!(draws.len(), sizes.hot_requests);
        assert!(draws.iter().all(|&d| d < sizes.hot_working_set));
    }
}
