//! The check stage of the data flywheel ([`MispredictCapture`]): banding
//! is a pure function of `(predicted, measured)` and stable across
//! threads, every first-seen `(program, literal schedule)` row is
//! checked exactly once whatever the service's cache and thread count,
//! the newest 1024 WARN+ rows are kept with every drop counted, and the
//! value graded is the served score, bit for bit.

use std::collections::HashMap;

use dlcm_bench::{band_for, ErrorBand, MispredictCapture};
use dlcm_datagen::AppendSample;
use dlcm_eval::{EvalStats, ModelEvaluator, SyncEvaluator};
use dlcm_ir::fingerprint::stable_fingerprint;
use dlcm_ir::{CompId, Expr, Program, ProgramBuilder, Schedule, Transform};
use dlcm_model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};
use dlcm_serve::{InferenceService, ServeConfig};

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

fn service(seed: u64, cfg: ServeConfig) -> InferenceService<CostModel> {
    InferenceService::new(model(seed), featurizer(), cfg)
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
/// model prediction, so every checked row bands CRITICAL.
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

/// A truth evaluator answering a fixed value per literal schedule.
struct TableTruth(HashMap<u64, f64>);

impl SyncEvaluator for TableTruth {
    fn speedup_batch_shared(
        &self,
        _program: &Program,
        schedules: &[Schedule],
    ) -> (Vec<f64>, EvalStats) {
        let values = schedules
            .iter()
            .map(|s| self.0[&stable_fingerprint(s)])
            .collect();
        (values, EvalStats::default())
    }

    fn total_stats(&self) -> EvalStats {
        EvalStats::default()
    }
}

/// Distinct programs pushed through the bounded cache.
const ROUNDS: usize = 40;

/// The identity of a kept row: what the corpus dedups it by.
fn content_key(s: &AppendSample) -> (u64, u64) {
    (
        s.program.content_fingerprint(),
        stable_fingerprint(&s.schedule),
    )
}

#[test]
fn banding_thresholds() {
    assert_eq!(band_for(1.0, 1.0), ErrorBand::Pass);
    assert_eq!(band_for(1.09, 1.0), ErrorBand::Pass);
    assert_eq!(band_for(1.10, 1.0), ErrorBand::Warn);
    assert_eq!(band_for(0.80, 1.0), ErrorBand::Warn);
    assert_eq!(band_for(1.25, 1.0), ErrorBand::High);
    assert_eq!(band_for(0.60, 1.0), ErrorBand::High);
    assert_eq!(band_for(1.50, 1.0), ErrorBand::Critical);
    assert_eq!(band_for(10.0, 1.0), ErrorBand::Critical);
    // Any non-finite value is the worst possible mispredict.
    assert_eq!(band_for(f64::NAN, 1.0), ErrorBand::Critical);
    assert_eq!(band_for(1.0, f64::NAN), ErrorBand::Critical);
    assert_eq!(band_for(f64::INFINITY, 1.0), ErrorBand::Critical);
    assert_eq!(band_for(f64::NEG_INFINITY, 1.0), ErrorBand::Critical);
    // Banding is symmetric in error magnitude, scaled by |measured|.
    assert_eq!(band_for(2.15, 2.0), ErrorBand::Pass);
    assert_eq!(band_for(2.6, 2.0), ErrorBand::High);
    assert!(ErrorBand::Pass < ErrorBand::Warn);
    assert!(ErrorBand::Warn < ErrorBand::High);
    assert!(ErrorBand::High < ErrorBand::Critical);
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

/// The checked rows and the kept rows are pure functions of the served
/// content: the same waves served at 1 and 4 worker threads give
/// identical counters and identical kept rows, in the same order.
#[test]
fn capture_is_identical_across_thread_counts() {
    let run = |threads: usize| {
        let service = service(
            1,
            ServeConfig {
                threads,
                ..ServeConfig::default()
            },
        );
        let mut capture = MispredictCapture::new(ConstTruth(1.0e6));
        let programs: Vec<Program> = (0..6)
            .map(|k| program(&format!("p{k}"), 16 + 8 * k))
            .collect();
        for p in &programs {
            // Served twice: the repeat must not re-check anything.
            for _ in 0..2 {
                let (served, _) = service.speedup_batch_shared(p, &wave());
                capture.check(p, &wave(), &served);
            }
        }
        let counters = capture.counters();
        let kept: Vec<(u64, u64, u64)> = capture
            .into_samples()
            .iter()
            .map(|s| {
                let (program, schedule) = content_key(s);
                (program, schedule, s.speedup.to_bits())
            })
            .collect();
        (counters, kept)
    };

    let (c1, k1) = run(1);
    let (c4, k4) = run(4);
    assert_eq!(c1, c4, "capture counters depend on thread count");
    assert_eq!(k1, k4, "kept rows depend on thread count");

    // Each of the 48 distinct rows was checked exactly once: the repeat
    // of every wave checked nothing.
    assert_eq!(c1.checked, 48);
    // Truth is 1e6, predictions are small: every check is CRITICAL and
    // every checked row is kept, labeled by the measured value.
    assert_eq!(c1.critical, c1.checked);
    assert_eq!(c1.logged, c1.checked);
    assert_eq!(k1.len(), c1.checked);
    assert!(k1.iter().all(|&(_, _, bits)| bits == 1.0e6f64.to_bits()));
}

/// Distinct rows past the 1024-row bound: the survivors are the newest
/// rows, oldest dropped first, and `logged`/`dropped` account for every
/// kept row exactly.
#[test]
fn bounded_log_keeps_newest_and_accounts_drops() {
    const CAPACITY: usize = 1024;
    let mut capture = MispredictCapture::new(ConstTruth(1.0e6));
    let wave = wave();
    let served = vec![1.0; wave.len()];
    // Two waves past the bound: 16 rows must be dropped.
    let rounds = CAPACITY / wave.len() + 2;
    let mut offered: Vec<(u64, u64)> = Vec::new();
    for round in 0..rounds {
        // A fresh program per round: every row is a first occurrence.
        let p = program("fresh", 16 + 2 * round as i64);
        capture.check(&p, &wave, &served);
        let fp = p.content_fingerprint();
        offered.extend(wave.iter().map(|s| (fp, stable_fingerprint(s))));
    }
    let total = rounds * wave.len();
    let counters = capture.counters();
    assert_eq!(counters.checked, total);
    assert_eq!(counters.critical, total);
    assert_eq!(counters.logged, total);
    assert_eq!(counters.dropped, total - CAPACITY);

    let kept: Vec<(u64, u64)> = capture.into_samples().iter().map(content_key).collect();
    assert_eq!(kept.len(), CAPACITY, "capture exceeded its bound");
    assert_eq!(
        kept,
        offered[total - CAPACITY..],
        "survivors are not the newest rows (oldest-first dropping violated)"
    );
}

/// Serving enough distinct keys through a one-entry result cache evicts
/// earlier entries, so replaying them pays a fresh forward pass — but
/// must NOT check or keep them again.
#[test]
fn evicted_cache_replay_never_double_counts() {
    let service = service(
        3,
        ServeConfig {
            threads: 1,
            cache_capacity: 1,
        },
    );
    let mut capture = MispredictCapture::new(ConstTruth(1.0e6));
    let wave = wave();
    let programs: Vec<Program> = (0..ROUNDS)
        .map(|k| program("evict", 16 + 2 * k as i64))
        .collect();
    let serve_window = |capture: &mut MispredictCapture<ConstTruth>| {
        for p in &programs {
            let (served, _) = service.speedup_batch_shared(p, &wave);
            capture.check(p, &wave, &served);
        }
        service.stats()
    };
    let stats = serve_window(&mut capture);
    let first_pass = capture.counters();
    assert_eq!(first_pass.checked, programs.len() * wave.len());
    assert!(
        stats.cache_evictions > 0,
        "cache_capacity=1 should have evicted entries under {} distinct keys",
        programs.len() * wave.len()
    );

    // Replay everything. The tiny cache has evicted (at least) the
    // early programs' entries, so this re-scores rows for real...
    let replayed = serve_window(&mut capture);
    assert!(
        replayed.cache_misses > stats.cache_misses,
        "replay hit the cache everywhere; eviction pressure was not exercised"
    );
    // ...and yet not one of them counts again.
    assert_eq!(
        capture.counters(),
        first_pass,
        "an evicted-and-replayed row was double-counted"
    );

    // Each kept row's key occurs exactly once.
    let mut keys: Vec<(u64, u64)> = capture.into_samples().iter().map(content_key).collect();
    let len = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), len, "duplicate rows kept");
}

/// The value graded is the value the client got, bit for bit: each
/// row's truth sits on a band edge that the served score and the float
/// just below it fall on opposite sides of.
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
    let p = program("parity", 32);
    let wave = wave();
    let (served, _) = service.speedup_batch_shared(&p, &wave);
    let reference =
        dlcm_eval::Evaluator::speedup_batch(&mut ModelEvaluator::new(&m, featurizer()), &p, &wave);
    assert_eq!(served, reference, "service diverged from the bare model");

    // Every row's truth sits on a band edge that the served score and
    // the float just below it fall on opposite sides of.
    let edge = |score: f64| {
        let below = f64::from_bits(score.to_bits() - 1);
        [1.1, 0.9, 1.25, 0.75, 1.5, 0.5]
            .into_iter()
            .flat_map(|d| {
                let m = (score / d).to_bits();
                (m - 16..m + 16).map(f64::from_bits)
            })
            .find(|&m| band_for(score, m) != band_for(below, m))
            .expect("a truth on a band edge of the served score")
    };
    let truth: Vec<f64> = served.iter().map(|&s| edge(s)).collect();
    let mut capture = MispredictCapture::new(TableTruth(
        wave.iter()
            .map(stable_fingerprint)
            .zip(truth.iter().copied())
            .collect(),
    ));
    capture.check(&p, &wave, &served);

    let bands: Vec<ErrorBand> = served
        .iter()
        .zip(&truth)
        .map(|(&s, &t)| band_for(s, t))
        .collect();
    let count = |band| bands.iter().filter(|&&b| b == band).count();
    let counters = capture.counters();
    assert_eq!(counters.checked, wave.len());
    assert_eq!(
        (counters.warn, counters.high, counters.critical),
        (
            count(ErrorBand::Warn),
            count(ErrorBand::High),
            count(ErrorBand::Critical)
        ),
        "a grade moved off the served bits"
    );
    let kept: Vec<u64> = capture
        .into_samples()
        .iter()
        .map(|s| s.speedup.to_bits())
        .collect();
    let expected: Vec<u64> = bands
        .iter()
        .zip(&truth)
        .filter(|(&b, _)| b > ErrorBand::Pass)
        .map(|(_, t)| t.to_bits())
        .collect();
    assert!(!expected.is_empty(), "some edge keeps its row");
    assert_eq!(kept, expected, "kept rows carry their measured labels");
}

/// A truth that answers exactly what the model predicts — here a second
/// service over the same model — passes every check and keeps nothing.
#[test]
fn agreeing_truth_retains_nothing() {
    let incumbent = service(6, ServeConfig::default());
    let mut capture = MispredictCapture::new(service(6, ServeConfig::default()));
    let p = program("agree", 24);
    let (served, _) = incumbent.speedup_batch_shared(&p, &wave());
    capture.check(&p, &wave(), &served);
    let counters = capture.counters();
    assert_eq!(counters.checked, wave().len());
    assert_eq!(counters.warn + counters.high + counters.critical, 0);
    assert_eq!(counters.logged, 0);
    assert!(capture.into_samples().is_empty());
}

/// Rows are keyed by the literal schedule: two spellings of one schedule
/// that share a `Schedule::cache_key` (tags in swapped order) — one
/// result-cache entry in the service — are still checked as two rows.
#[test]
fn spellings_sharing_a_cache_key_are_checked_apart() {
    let unroll = Transform::Unroll {
        comp: CompId(0),
        factor: 4,
    };
    let parallel = Transform::Parallelize {
        comp: CompId(0),
        level: 0,
    };
    let spellings = vec![
        Schedule::new(vec![unroll.clone(), parallel.clone()]),
        Schedule::new(vec![parallel, unroll]),
    ];
    assert_eq!(spellings[0].cache_key(), spellings[1].cache_key());
    assert_ne!(
        stable_fingerprint(&spellings[0]),
        stable_fingerprint(&spellings[1])
    );

    let service = service(7, ServeConfig::default());
    let mut capture = MispredictCapture::new(ConstTruth(1.0e6));
    let p = program("spellings", 32);
    let (served, _) = service.speedup_batch_shared(&p, &spellings);
    assert_eq!(service.stats().cache_hits, 1, "one cache entry serves both");
    capture.check(&p, &spellings, &served);
    let counters = capture.counters();
    assert_eq!(counters.checked, 2);
    assert_eq!(counters.logged, 2);
    let kept: Vec<(u64, u64)> = capture.into_samples().iter().map(content_key).collect();
    assert_ne!(kept[0], kept[1]);
}
