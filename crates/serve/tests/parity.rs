//! The serving determinism contract: served answers are bit-identical to
//! in-process evaluation at any client-thread count.

use dlcm_eval::pool::parallel_map;
use dlcm_eval::{Evaluator, ModelEvaluator, ScopedEvaluator, SyncEvaluator};
use dlcm_ir::{CompId, Expr, Program, ProgramBuilder, Schedule, Transform};
use dlcm_model::{
    CostModel, CostModelConfig, Featurizer, FeaturizerConfig, HeldOutMetrics, ModelArtifact,
};
use dlcm_search::BeamSearch;
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

fn model() -> CostModel {
    CostModel::new(
        CostModelConfig {
            input_dim: FeaturizerConfig::default().vector_width(),
            embed_widths: vec![32, 16],
            merge_hidden: 16,
            regress_widths: vec![16],
            dropout: 0.0,
        },
        42,
    )
}

/// A structure-diverse wave: untransformed, tiled (deeper tree), and
/// unrolled candidates, plus an in-batch duplicate.
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
    vec![
        Schedule::empty(),
        tile(16),
        tile(32),
        Schedule::new(vec![Transform::Unroll {
            comp: CompId(0),
            factor: 4,
        }]),
        tile(16),
    ]
}

#[test]
fn served_scores_match_in_process_evaluation() {
    let m = model();
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let service = InferenceService::new(m.clone(), featurizer.clone(), ServeConfig::default());
    let mut direct = ModelEvaluator::new(&m, featurizer);
    let p = program("p", 96);

    let (served, delta) = service.speedup_batch_shared(&p, &wave());
    let expected = direct.speedup_batch(&p, &wave());
    assert_eq!(served, expected, "served scores must be bit-identical");
    assert_eq!(delta.num_evals, wave().len());

    // Warm repeat: pure cache hits, same scores.
    let (again, _) = service.speedup_batch_shared(&p, &wave());
    assert_eq!(again, expected);
    let stats = service.stats();
    assert_eq!(stats.queries, 2 * wave().len());
    assert_eq!(stats.forward_rows, stats.cache_misses);
    assert_eq!(stats.cache_misses, 4, "5-row wave has one in-batch dup");
    assert!(stats.hit_rate > 0.0);
}

#[test]
fn concurrent_clients_get_bit_identical_answers() {
    // N client threads hammer the one service with overlapping waves of
    // several programs; every answer must equal the single-threaded
    // in-process reference, at every client count.
    let m = model();
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let programs: Vec<Program> = (0..4).map(|i| program("p", 64 + 16 * i)).collect();

    let reference: Vec<Vec<f64>> = programs
        .iter()
        .map(|p| ModelEvaluator::new(&m, featurizer.clone()).speedup_batch(p, &wave()))
        .collect();

    for clients in [1, 2, 8] {
        let service = InferenceService::new(
            m.clone(),
            featurizer.clone(),
            ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
        );
        // Each logical client sweeps every program twice (second sweep
        // may be served from whatever the others warmed).
        let answers = parallel_map(clients, 8, |c| {
            let p = &programs[c % programs.len()];
            let first = service.speedup_batch_shared(p, &wave()).0;
            let second = service.speedup_batch_shared(p, &wave()).0;
            assert_eq!(first, second, "warm answers must not drift");
            (c % programs.len(), first)
        });
        for (pi, scores) in answers {
            assert_eq!(
                scores, reference[pi],
                "client-count {clients}: served scores must match in-process"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.queries, 8 * 2 * wave().len());
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.queries);
        assert_eq!(stats.forward_rows, stats.cache_misses);
        assert_eq!(stats.client_calls, 16);
    }
}

#[test]
fn odd_wave_sizes_and_singletons_serve_identically() {
    // The service's micro-batcher now forwards through the SoA arena
    // kernel (`CostModel::infer_batch`); waves of 1, 3, and 7 — each a
    // prefix of the 5-schedule wave plus extensions, containing
    // structure groups of exactly one row — must still match in-process
    // evaluation bit for bit.
    let m = model();
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let p = program("p", 96);

    let mut extended = wave();
    extended.push(Schedule::new(vec![Transform::Unroll {
        comp: CompId(0),
        factor: 2,
    }]));
    extended.push(Schedule::new(vec![Transform::Vectorize {
        comp: CompId(0),
        factor: 8,
    }]));
    assert_eq!(extended.len(), 7);

    let mut direct = ModelEvaluator::new(&m, featurizer.clone());
    let reference = direct.speedup_batch(&p, &extended);

    for take in [1usize, 3, 7] {
        let service = InferenceService::new(m.clone(), featurizer.clone(), ServeConfig::default());
        let (served, delta) = service.speedup_batch_shared(&p, &extended[..take]);
        assert_eq!(
            served,
            reference[..take],
            "wave of {take}: served scores diverged from in-process"
        );
        assert_eq!(delta.num_evals, take);
    }
}

#[test]
fn beam_search_against_the_service_matches_in_process_search() {
    // The PR 4 driver contract: anything that searches through a
    // `&mut dyn Evaluator` can search against the served model
    // unchanged, with identical outcomes.
    let m = model();
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let p = program("bench", 128);
    let search = BeamSearch::default();

    let mut direct = ModelEvaluator::new(&m, featurizer.clone());
    let expected = search.search(&p, &mut direct);

    let service = InferenceService::new(m.clone(), featurizer, ServeConfig::default());
    let served = search.search(&p, &mut ScopedEvaluator::new(&service));

    assert_eq!(served.schedule, expected.schedule);
    assert_eq!(served.score, expected.score);
    assert!(service.stats().queries > 0);
}

#[test]
fn artifact_backed_service_reproduces_the_trained_model() {
    let m = model();
    let feat_cfg = FeaturizerConfig::default();
    let featurizer = Featurizer::new(feat_cfg);
    let p = program("p", 96);
    let expected = ModelEvaluator::new(&m, featurizer).speedup_batch(&p, &wave());

    let dir = std::env::temp_dir().join(format!("dlcm_serve_artifact_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ModelArtifact::new(m, feat_cfg, 7, HeldOutMetrics::default())
        .save(&dir)
        .unwrap();
    let service =
        InferenceService::from_artifact(ModelArtifact::load(&dir).unwrap(), ServeConfig::default());
    assert_eq!(service.speedup_batch_shared(&p, &wave()).0, expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panicked_forward_fails_its_own_call_and_nothing_after_it() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let p = program("p", 64);

    // (a) A model whose input_dim disagrees with the featurizer schema:
    // the forward pass asserts on the width mismatch, so the first query
    // must fail fast (never hang). Nothing of that failure may outlive
    // the call: after a reload to a good model the same query answers
    // with exactly the in-process score.
    let bad = CostModel::new(
        CostModelConfig {
            input_dim: FeaturizerConfig::default().vector_width() + 1,
            embed_widths: vec![16],
            merge_hidden: 8,
            regress_widths: vec![8],
            dropout: 0.0,
        },
        0,
    );
    let service = InferenceService::new(bad, featurizer.clone(), ServeConfig::default());
    let first = catch_unwind(AssertUnwindSafe(|| {
        service.speedup_batch_shared(&p, &wave())
    }));
    assert!(first.is_err(), "schema-mismatched forward must panic");
    let good = model();
    service.reload(good.clone(), 1);
    assert_eq!(
        service.speedup_batch_shared(&p, &wave()).0,
        ModelEvaluator::new(&good, featurizer.clone()).speedup_batch(&p, &wave()),
        "a reload to a good model must serve again after a panicked pass"
    );

    // (b) A hollow program (decodes, fails `Program::validate`) panics
    // inside the forward pass of its own call only; the next valid query
    // on the same service answers.
    let service = InferenceService::new(good.clone(), featurizer.clone(), ServeConfig::default());
    let mut hollow = p.clone();
    hollow.comps.clear();
    assert!(hollow
        .validate()
        .unwrap_err()
        .to_string()
        .contains("unknown computation CompId(0)"));
    let bad_call = catch_unwind(AssertUnwindSafe(|| {
        service.speedup_shared(&hollow, &Schedule::empty())
    }));
    assert!(bad_call.is_err(), "a hollow program cannot be scored");
    assert_eq!(
        service.speedup_shared(&p, &Schedule::empty()).0,
        ModelEvaluator::new(&good, featurizer).speedup(&p, &Schedule::empty()),
        "one bad request must not take the scoring path down for the next"
    );
}
