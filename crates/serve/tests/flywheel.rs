//! The capture half of the data flywheel, tested at the service
//! boundary: banding is a pure function of `(predicted, measured)` and
//! stable across thread counts, the checked row set is every first-seen
//! row (identical at any `--threads`), the mispredict log never exceeds
//! its 1024-record bound and accounts every drop, and a row whose cache
//! entry was evicted and re-served is never double-counted.

use dlcm_eval::{EvalStats, ModelEvaluator, SyncEvaluator};
use dlcm_ir::fingerprint::stable_fingerprint;
use dlcm_ir::{CompId, Expr, Program, ProgramBuilder, Schedule, Transform};
use dlcm_model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};
use dlcm_serve::{band_for, ErrorBand, InferenceService, MispredictRecord, ServeConfig};

fn program(name: &str, n: i64) -> Program {
    let mut b = ProgramBuilder::new(name);
    let i = b.iter("i", 0, n);
    let j = b.iter("j", 0, n);
    let inp = b.input("in", &[n, n]);
    let out = b.buffer("out", &[n, n]);
    let acc = b.access(inp, &[i.into(), j.into()], &[i, j]);
    b.assign("c", &[i, j], out, &[i.into(), j.into()], Expr::Load(acc));
    b.build().unwrap()
}

fn model(seed: u64) -> CostModel {
    CostModel::new(
        CostModelConfig {
            input_dim: FeaturizerConfig::default().vector_width(),
            embed_widths: vec![32, 16],
            merge_hidden: 16,
            regress_widths: vec![16],
            dropout: 0.0,
        },
        seed,
    )
}

fn featurizer() -> Featurizer {
    Featurizer::new(FeaturizerConfig::default())
}

/// A wave of 8 distinct schedules, all legal for any `n >= 16` program.
fn wave() -> Vec<Schedule> {
    let tile = |size| {
        Schedule::new(vec![Transform::Tile {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
            size_a: size,
            size_b: size,
        }])
    };
    let unroll = |factor| {
        Schedule::new(vec![Transform::Unroll {
            comp: CompId(0),
            factor,
        }])
    };
    vec![
        Schedule::empty(),
        tile(2),
        tile(4),
        tile(8),
        tile(16),
        unroll(2),
        unroll(4),
        unroll(8),
    ]
}

/// A truth evaluator answering a constant for every row — far from any
/// model prediction, so every checked row bands CRITICAL, and exactly
/// reproducible so records compare bit-for-bit.
struct ConstTruth(f64);

impl SyncEvaluator for ConstTruth {
    fn speedup_batch_shared(
        &self,
        _program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        (vec![self.0; schedules.len()], EvalStats::default())
    }

    fn total_stats(&self) -> EvalStats {
        EvalStats::default()
    }
}

/// Distinct programs pushed through the bounded cache.
const ROUNDS: usize = 40;

/// Sort key making drained record sets comparable across runs whose
/// capture-thread interleavings may differ.
fn content_key(r: &MispredictRecord) -> (u64, u64) {
    (
        r.program.content_fingerprint(),
        stable_fingerprint(&r.schedule),
    )
}

#[test]
fn banding_is_pure_and_stable_across_threads() {
    // A deterministic grid of (predicted, measured) pairs, including
    // negatives, zeros, and non-finite values.
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..512 {
        // xorshift64*: fixed-seed pseudo-randomness without rand deps.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let a = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        let b = ((x >> 7) & 0xFFFF) as f64 / 1024.0;
        pairs.push((a * 4.0 - 2.0, b - 16.0));
    }
    pairs.extend([
        (f64::NAN, 1.0),
        (1.0, f64::NAN),
        (f64::INFINITY, 1.0),
        (1.0, 0.0),
        (0.0, 0.0),
        (-1.0, -1.0),
    ]);

    let expected: Vec<ErrorBand> = pairs.iter().map(|&(p, m)| band_for(p, m)).collect();
    // Repeated calls agree (no hidden state)...
    let again: Vec<ErrorBand> = pairs.iter().map(|&(p, m)| band_for(p, m)).collect();
    assert_eq!(expected, again);
    // ...and so do calls from other threads.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| -> Vec<ErrorBand> {
                    pairs.iter().map(|&(p, m)| band_for(p, m)).collect()
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(
                handle.join().expect("banding thread"),
                expected,
                "band assignment changed across threads"
            );
        }
    });
}

/// The checked row set and the retained record set are pure functions
/// of the served content: the same waves produce identical counters and
/// (up to capture order) identical records at 1 and 4 worker threads.
#[test]
fn capture_is_identical_across_thread_counts() {
    let run = |threads: usize| {
        let service = InferenceService::with_model_fingerprint(
            model(1),
            7,
            featurizer(),
            ServeConfig {
                threads,
                ..ServeConfig::default()
            },
        );
        assert!(service.enable_mispredict_capture(Box::new(ConstTruth(1.0e6))));
        let programs: Vec<Program> = (0..6)
            .map(|k| program(&format!("p{k}"), 16 + 8 * k))
            .collect();
        for p in &programs {
            // Served twice: the repeat must not re-check anything.
            service.speedup_batch_shared(p, &wave());
            service.speedup_batch_shared(p, &wave());
        }
        let counters = service.mispredict_counters();
        let mut records = service.drain_mispredicts();
        records.sort_by_key(content_key);
        (counters, records)
    };

    let (c1, r1) = run(1);
    let (c4, r4) = run(4);
    assert_eq!(c1, c4, "capture counters depend on thread count");
    assert_eq!(r1, r4, "retained record sets depend on thread count");

    // Each of the 48 distinct rows was checked exactly once: the repeat
    // of every wave checked nothing.
    assert_eq!(c1.checked, 48);
    // Truth is 1e6, predictions are small: every check is CRITICAL and
    // every checked row is retained.
    assert_eq!(c1.critical, c1.checked);
    assert_eq!(c1.logged, c1.checked);
    assert_eq!(r1.len(), c1.checked);
    for r in &r1 {
        assert_eq!(r.band, ErrorBand::Critical);
        assert_eq!(r.measured, 1.0e6);
        assert_eq!(r.model_fingerprint, 7);
    }
}

/// Sustained distinct traffic past the log's 1024-record bound: the log
/// never exceeds it, the survivors are the newest records, and
/// `logged`/`dropped` account for every push exactly.
#[test]
fn bounded_log_keeps_newest_and_accounts_drops() {
    const CAPACITY: usize = 1024;
    let service = InferenceService::new(
        model(2),
        featurizer(),
        ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
    );
    assert!(service.enable_mispredict_capture(Box::new(ConstTruth(1.0e6))));
    // Capture is installed exactly once; a second truth is refused.
    assert!(!service.enable_mispredict_capture(Box::new(ConstTruth(0.0))));

    let wave = wave();
    // Two waves past the bound: 16 records must be dropped.
    let rounds = CAPACITY / wave.len() + 2;
    let mut served_keys: Vec<(u64, u64)> = Vec::new();
    for round in 0..rounds {
        // A fresh program per round: every row is a first occurrence.
        let p = program("fresh", 16 + 2 * round as i64);
        service.speedup_batch_shared(&p, &wave);
        let fp = p.content_fingerprint();
        served_keys.extend(wave.iter().map(|s| (fp, stable_fingerprint(s))));
    }
    let total = rounds * wave.len();
    let counters = service.mispredict_counters();
    assert_eq!(counters.checked, total);
    assert_eq!(counters.critical, total);
    assert_eq!(counters.logged, total);
    assert_eq!(counters.dropped, total - CAPACITY);

    let drained = service.drain_mispredicts();
    assert_eq!(drained.len(), CAPACITY, "log exceeded its bound");
    let drained_keys: Vec<(u64, u64)> = drained.iter().map(content_key).collect();
    assert_eq!(
        drained_keys,
        served_keys[total - CAPACITY..],
        "survivors are not the newest records (oldest-first dropping violated)"
    );

    // A drain empties the log but never rewrites history: the monotonic
    // counters still describe everything that ever happened.
    let after = service.mispredict_counters();
    assert_eq!(after, counters);
    assert!(service.drain_mispredicts().is_empty());
}

/// The regression the seen-set exists for: serving enough distinct keys
/// through a tiny result cache evicts earlier entries, so replaying
/// them pays a fresh forward pass — but must NOT re-check or re-log
/// them as new mispredicts.
#[test]
fn evicted_cache_replay_never_double_counts() {
    let service = InferenceService::new(
        model(3),
        featurizer(),
        ServeConfig {
            threads: 1,
            cache_capacity: 1,
        },
    );
    assert!(service.enable_mispredict_capture(Box::new(ConstTruth(1.0e6))));

    let wave = wave();
    let programs: Vec<Program> = (0..ROUNDS)
        .map(|k| program("evict", 16 + 2 * k as i64))
        .collect();
    for p in &programs {
        service.speedup_batch_shared(p, &wave);
    }
    let first_pass = service.mispredict_counters();
    assert_eq!(first_pass.checked, programs.len() * wave.len());
    let stats = service.stats();
    assert!(
        stats.cache_evictions > 0,
        "cache_capacity=1 should have evicted entries under {} distinct keys",
        programs.len() * wave.len()
    );

    // Replay everything. The tiny cache has evicted (at least) the
    // early programs' entries, so this re-scores rows for real...
    let misses_before_replay = stats.cache_misses;
    for p in &programs {
        service.speedup_batch_shared(p, &wave);
    }
    assert!(
        service.stats().cache_misses > misses_before_replay,
        "replay hit the cache everywhere; eviction pressure was not exercised"
    );
    // ...and yet not one of them counts again.
    assert_eq!(
        service.mispredict_counters(),
        first_pass,
        "an evicted-and-replayed row was double-counted"
    );

    // Each retained record's key occurs exactly once.
    let mut keys: Vec<(u64, u64)> = service
        .drain_mispredicts()
        .iter()
        .map(content_key)
        .collect();
    let len = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), len, "duplicate mispredict records retained");
}

/// Without `enable_mispredict_capture`, the hook is inert: zero
/// counters, empty drains, no ground-truth evaluation.
#[test]
fn capture_disabled_is_inert() {
    let service = InferenceService::new(model(4), featurizer(), ServeConfig::default());
    service.speedup_batch_shared(&program("inert", 16), &wave());
    assert_eq!(
        service.mispredict_counters(),
        dlcm_serve::MispredictCounters::default()
    );
    assert!(service.drain_mispredicts().is_empty());
    let stats = service.stats();
    assert_eq!(stats.mispredict_checked, 0);
    assert_eq!(stats.mispredict_logged, 0);
}

/// The served prediction the capture hook grades is the same value the
/// client got: spot-check by recomputing bands from a reference
/// evaluator's scores.
#[test]
fn retained_predictions_match_served_scores() {
    let m = model(5);
    let service = InferenceService::new(
        m.clone(),
        featurizer(),
        ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
    );
    assert!(service.enable_mispredict_capture(Box::new(ConstTruth(1.0e6))));
    let p = program("parity", 32);
    let wave = wave();
    let (served, _) = service.speedup_batch_shared(&p, &wave);
    let reference =
        dlcm_eval::Evaluator::speedup_batch(&mut ModelEvaluator::new(&m, featurizer()), &p, &wave);
    assert_eq!(served, reference, "service diverged from the bare model");

    let records = service.drain_mispredicts();
    assert_eq!(records.len(), wave.len());
    for r in &records {
        let i = wave
            .iter()
            .position(|s| stable_fingerprint(s) == stable_fingerprint(&r.schedule))
            .expect("retained schedule came from the wave");
        assert_eq!(
            r.predicted.to_bits(),
            served[i].to_bits(),
            "capture graded a different value than the client received"
        );
        assert_eq!(r.band, band_for(served[i], r.measured));
    }
}

/// A truth evaluator can be any `SyncEvaluator` — here a second service
/// over the same model — and when it answers exactly what the model
/// predicts, every check passes and nothing is retained.
#[test]
fn agreeing_truth_retains_nothing() {
    let m = model(6);
    let service = InferenceService::new(m.clone(), featurizer(), ServeConfig::default());
    assert!(
        service.enable_mispredict_capture(Box::new(InferenceService::new(
            m,
            featurizer(),
            ServeConfig::default(),
        )))
    );
    let p = program("agree", 24);
    service.speedup_batch_shared(&p, &wave());
    let counters = service.mispredict_counters();
    assert_eq!(counters.checked, wave().len());
    assert_eq!(counters.warn + counters.high + counters.critical, 0);
    assert_eq!(counters.logged, 0);
    assert!(service.drain_mispredicts().is_empty());
}
