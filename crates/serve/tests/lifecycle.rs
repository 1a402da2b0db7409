//! The model-lifecycle contract of the serving tier: hot swaps are
//! atomic under concurrent load (every answer comes from exactly one
//! model generation, never a mix), failed reloads leave the incumbent
//! serving, and no cache entry ever crosses a swap boundary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use dlcm_eval::{Evaluator, ModelEvaluator, SyncEvaluator};
use dlcm_ir::{CompId, Expr, Program, ProgramBuilder, Schedule, Transform};
use dlcm_model::{
    CostModel, CostModelConfig, Featurizer, FeaturizerConfig, HeldOutMetrics, ModelArtifact,
};
use dlcm_serve::{ArtifactReloadable, InferenceService, ReloadError, ServeConfig};

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

/// A structure-diverse wave (untransformed, tiled, unrolled, plus an
/// in-batch duplicate) — 5 rows, 4 unique keys.
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

fn reference(m: &CostModel, programs: &[Program]) -> Vec<Vec<f64>> {
    programs
        .iter()
        .map(|p| {
            ModelEvaluator::new(m, Featurizer::new(FeaturizerConfig::default()))
                .speedup_batch(p, &wave())
        })
        .collect()
}

/// Waves each client thread sends.
const ROUNDS: usize = 40;

#[test]
fn hot_swap_under_concurrent_load_is_atomic() {
    // 8 client threads hammer the service with waves while a reload
    // lands mid-stream. Every returned wave must be bit-identical to
    // model A's answers or to model B's answers as a whole — a single
    // wave mixing the two generations is the atomicity violation this
    // test exists to catch. The test completing at all is the
    // no-deadlock check.
    let a = model(42);
    let b = model(1337);
    let programs: Vec<Program> = (0..3).map(|i| program("p", 64 + 16 * i)).collect();
    let ref_a = reference(&a, &programs);
    let ref_b = reference(&b, &programs);
    for (ra, rb) in ref_a.iter().zip(&ref_b) {
        assert_ne!(ra, rb, "differently seeded models must differ");
    }

    let service = InferenceService::with_model_fingerprint(
        a,
        1,
        Featurizer::new(FeaturizerConfig::default()),
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    );
    let saw_a = AtomicUsize::new(0);
    let saw_b = AtomicUsize::new(0);
    const CLIENTS: usize = 8;
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let service = &service;
            let programs = &programs;
            let (ref_a, ref_b) = (&ref_a, &ref_b);
            let (saw_a, saw_b) = (&saw_a, &saw_b);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let pi = (t + round) % programs.len();
                    let (scores, _) = service.speedup_batch_shared(&programs[pi], &wave());
                    if scores == ref_a[pi] {
                        saw_a.fetch_add(1, Ordering::Relaxed);
                    } else if scores == ref_b[pi] {
                        saw_b.fetch_add(1, Ordering::Relaxed);
                    } else {
                        panic!(
                            "client {t} round {round}: wave matches neither model A nor \
                             model B bit-for-bit — a mixed-generation answer"
                        );
                    }
                }
            });
        }
        // Land the swap while the clients are mid-flight.
        std::thread::sleep(Duration::from_millis(3));
        service.reload(model(1337), 2);
    });

    assert_eq!(
        saw_a.load(Ordering::Relaxed) + saw_b.load(Ordering::Relaxed),
        CLIENTS * ROUNDS,
        "every wave was attributed to exactly one generation"
    );

    // After the swap, new queries must answer from model B.
    for (pi, p) in programs.iter().enumerate() {
        assert_eq!(service.speedup_batch_shared(p, &wave()).0, ref_b[pi]);
    }
    assert_eq!(service.active_model_fingerprint(), 2);

    // Stats coherence on the quiesced service.
    let stats = service.stats();
    assert_eq!(stats.model_swaps, 1);
    assert_eq!(stats.queries, (CLIENTS * ROUNDS + programs.len()) * 5);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.queries);
    assert_eq!(stats.forward_rows, stats.cache_misses);
}

#[test]
fn failed_reload_leaves_the_incumbent_serving() {
    let dir = std::env::temp_dir().join(format!("dlcm_lifecycle_schema_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ModelArtifact::new(
        model(42),
        FeaturizerConfig::default(),
        7,
        HeldOutMetrics::default(),
    )
    .save(&dir)
    .unwrap();
    let service =
        InferenceService::from_artifact(ModelArtifact::load(&dir).unwrap(), ServeConfig::default());
    std::fs::remove_dir_all(&dir).ok();
    let incumbent_fp = service.active_model_fingerprint();
    assert_ne!(
        incumbent_fp, 0,
        "artifact-backed services carry a real fingerprint"
    );

    let p = program("p", 96);
    let before = service.speedup_batch_shared(&p, &wave()).0;

    // A candidate trained under a different featurizer schema: its model
    // is internally consistent (input_dim matches *its* schema), but its
    // scores would be meaningless for this service's query encoding.
    let other_schema = FeaturizerConfig {
        max_depth: 5,
        ..FeaturizerConfig::default()
    };
    let mismatched = ModelArtifact::new(
        CostModel::new(
            CostModelConfig {
                input_dim: other_schema.vector_width(),
                embed_widths: vec![16],
                merge_hidden: 8,
                regress_widths: vec![8],
                dropout: 0.0,
            },
            5,
        ),
        other_schema,
        7,
        HeldOutMetrics::default(),
    );
    let err = service.reload_artifact(mismatched).unwrap_err();
    assert!(
        matches!(err, ReloadError::SchemaMismatch { .. }),
        "wrong-schema artifact must be rejected as such, got {err:?}"
    );

    // The incumbent is untouched: same fingerprint, no swap counted,
    // same bit-identical answers.
    assert_eq!(service.active_model_fingerprint(), incumbent_fp);
    assert_eq!(service.stats().model_swaps, 0);
    assert_eq!(service.speedup_batch_shared(&p, &wave()).0, before);
}

#[test]
fn no_cache_entry_crosses_a_swap_boundary() {
    // Warm the cache under model A, swap to B, and re-issue the same
    // wave: every row must be *recomputed* against B (same misses as a
    // cold cache), never answered from A's entries. Swapping back to A
    // must find A's original entries still resident — distinct
    // generations coexist under distinct keys.
    let a = model(42);
    let b = model(1337);
    let p = program("p", 96);
    let ref_a = reference(&a, std::slice::from_ref(&p)).remove(0);
    let ref_b = reference(&b, std::slice::from_ref(&p)).remove(0);

    let service = InferenceService::with_model_fingerprint(
        a.clone(),
        1,
        Featurizer::new(FeaturizerConfig::default()),
        ServeConfig::default(),
    );
    let (warm, first) = service.speedup_batch_shared(&p, &wave());
    assert_eq!(warm, ref_a);
    assert_eq!(first.cache_misses, 4, "5-row wave has one in-batch dup");

    service.reload(b, 2);
    let (post_swap, delta) = service.speedup_batch_shared(&p, &wave());
    assert_eq!(post_swap, ref_b, "post-swap answers come from model B");
    assert_eq!(
        delta.cache_misses, 4,
        "post-swap queries must recompute, not reuse pre-swap entries"
    );

    service.reload(a, 1);
    let (back, warm_delta) = service.speedup_batch_shared(&p, &wave());
    assert_eq!(back, ref_a);
    assert_eq!(
        warm_delta.cache_misses, 0,
        "model A's entries survived under their own fingerprint"
    );
}
