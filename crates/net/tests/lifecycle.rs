//! The model-lifecycle contract over the wire: `Reload` hot-swaps the
//! served artifact without dropping the connection, every failure mode
//! (corrupt artifact, mismatched schema, mid-drain reload) is a typed
//! rejection that leaves the incumbent serving, and no cache entry from
//! the pre-swap generation ever answers a post-swap query.

use std::path::{Path, PathBuf};

use dlcm_eval::{Evaluator, ModelEvaluator};
use dlcm_ir::fingerprint::to_hex;
use dlcm_ir::{CompId, Expr, Program, ProgramBuilder, Schedule, Transform};
use dlcm_model::{
    CostModel, CostModelConfig, Featurizer, FeaturizerConfig, HeldOutMetrics, ModelArtifact,
};
use dlcm_net::{ErrorReply, NetClient, NetConfig, NetError, NetServer, ReloadRejectKind};
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

fn tile(size: i64) -> Schedule {
    Schedule::new(vec![Transform::Tile {
        comp: CompId(0),
        level_a: 0,
        level_b: 1,
        size_a: size,
        size_b: size,
    }])
}

fn wave() -> Vec<Schedule> {
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

/// Saves a seeded artifact under a test-unique temp dir and returns its
/// path (the caller removes it).
fn save_artifact(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlcm_net_lifecycle_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ModelArtifact::new(
        model(seed),
        FeaturizerConfig::default(),
        7,
        HeldOutMetrics::default(),
    )
    .save(&dir)
    .expect("save artifact");
    dir
}

fn reference(dir: &Path, p: &Program) -> Vec<f64> {
    let m = ModelArtifact::load(dir)
        .expect("load artifact")
        .into_model();
    ModelEvaluator::new(&m, Featurizer::new(FeaturizerConfig::default())).speedup_batch(p, &wave())
}

fn bind_server(dir: &Path) -> NetServer<CostModel> {
    let artifact = ModelArtifact::load(dir).expect("load artifact");
    NetServer::bind(
        InferenceService::from_artifact(artifact, ServeConfig::default()),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .expect("bind ephemeral port")
}

#[test]
fn reload_over_the_wire_swaps_generations_atomically() {
    let dir_a = save_artifact("happy_a", 42);
    let dir_b = save_artifact("happy_b", 1337);
    let p = program("p", 96);
    let ref_a = reference(&dir_a, &p);
    let ref_b = reference(&dir_b, &p);
    assert_ne!(ref_a, ref_b, "differently seeded artifacts must differ");
    let fp_b = ModelArtifact::load(&dir_b).unwrap().weights_fingerprint();

    let server = bind_server(&dir_a);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // Warm the incumbent: two sweeps, the second served from cache.
    assert_eq!(client.speedups(&p, &wave()).expect("sweep 1"), ref_a);
    assert_eq!(client.speedups(&p, &wave()).expect("sweep 2"), ref_a);
    let before = client.model_info().expect("model info");
    assert_eq!(before.model_swaps, 0);

    // The swap lands on the same connection, no reconnect needed.
    let after = client
        .reload(dir_b.to_str().expect("utf-8 temp path"))
        .expect("reload accepted");
    assert_eq!(after.fingerprint, to_hex(fp_b));
    assert_eq!(after.model_swaps, 1);
    assert_ne!(after.fingerprint, before.fingerprint);
    assert_eq!(
        client.model_info().expect("model info").fingerprint,
        after.fingerprint
    );

    // Post-swap answers come from artifact B, bit-for-bit — the warmed
    // cache entries from A must not leak through.
    assert_eq!(client.speedups(&p, &wave()).expect("post-swap"), ref_b);

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.serve.model_swaps, 1);
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn corrupt_artifact_is_rejected_typed_and_incumbent_keeps_serving() {
    let dir_a = save_artifact("corrupt_a", 42);
    let dir_bad = save_artifact("corrupt_bad", 1337);
    // Flip a bit of one stored weight: the file has the right length but
    // its content no longer matches the manifest's weights fingerprint.
    let weights_path = ModelArtifact::weights_path(&dir_bad);
    let weights = std::fs::read(&weights_path).expect("read weights");
    let mut tampered = weights.clone();
    tampered[weights.len() / 2] ^= 1;
    std::fs::write(&weights_path, tampered).expect("write tampered weights");

    let p = program("p", 96);
    let ref_a = reference(&dir_a, &p);
    let server = bind_server(&dir_a);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.speedups(&p, &wave()).expect("warm"), ref_a);
    let incumbent = client.model_info().expect("model info");

    match client.reload(dir_bad.to_str().expect("utf-8 temp path")) {
        Err(NetError::Remote(ErrorReply::ReloadRejected { kind, detail })) => {
            assert_eq!(kind, ReloadRejectKind::ArtifactInvalid);
            assert!(!detail.is_empty(), "rejection carries a reason");
        }
        other => panic!("expected typed ReloadRejected, got {other:?}"),
    }
    // Nonexistent paths take the same typed path as corrupt payloads.
    match client.reload("/nonexistent/dlcm/artifact") {
        Err(NetError::Remote(ErrorReply::ReloadRejected { kind, .. })) => {
            assert_eq!(kind, ReloadRejectKind::ArtifactInvalid);
        }
        other => panic!("expected typed ReloadRejected, got {other:?}"),
    }

    // The connection survives, the incumbent is untouched, and its
    // answers have not drifted.
    assert_eq!(
        client.model_info().expect("model info").fingerprint,
        incumbent.fingerprint
    );
    assert_eq!(client.speedups(&p, &wave()).expect("post-rejection"), ref_a);
    assert_eq!(client.stats().expect("stats").serve.model_swaps, 0);

    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_bad).ok();
}

#[test]
fn schema_mismatched_artifact_is_rejected_as_such() {
    let dir_a = save_artifact("schema_a", 42);
    // A candidate trained under a different featurizer schema: internally
    // consistent, but meaningless for this server's query encoding.
    let other_schema = FeaturizerConfig {
        max_depth: 5,
        ..FeaturizerConfig::default()
    };
    let dir_mismatch = std::env::temp_dir().join(format!(
        "dlcm_net_lifecycle_schema_bad_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir_mismatch);
    ModelArtifact::new(
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
    )
    .save(&dir_mismatch)
    .expect("save mismatched artifact");

    let server = bind_server(&dir_a);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let incumbent = client.model_info().expect("model info");
    match client.reload(dir_mismatch.to_str().expect("utf-8 temp path")) {
        Err(NetError::Remote(ErrorReply::ReloadRejected { kind, detail })) => {
            assert_eq!(kind, ReloadRejectKind::SchemaMismatch);
            assert!(!detail.is_empty(), "rejection names both schemas");
        }
        other => panic!("expected typed SchemaMismatch, got {other:?}"),
    }
    assert_eq!(
        client.model_info().expect("model info").fingerprint,
        incumbent.fingerprint
    );

    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_mismatch).ok();
}

#[test]
fn reload_during_graceful_drain_is_refused() {
    let dir_a = save_artifact("drain_a", 42);
    let dir_b = save_artifact("drain_b", 1337);
    let server = bind_server(&dir_a);
    let addr = server.local_addr();

    let mut operator = NetClient::connect(addr).expect("connect operator");
    operator.ping().expect("connection established");
    let mut killer = NetClient::connect(addr).expect("connect killer");
    killer.shutdown_server().expect("shutdown acknowledged");
    assert!(server.is_shutting_down());

    // Once the drain has started, no new model generation may be
    // installed — the reload is refused with the drain's own typed
    // error, whether the worker notices the flag before or after
    // reading the frame.
    match operator.reload(dir_b.to_str().expect("utf-8 temp path")) {
        Err(NetError::Remote(ErrorReply::ShuttingDown)) => {}
        Err(NetError::Frame(_)) => {
            // The worker closed the connection right after flagging it —
            // also a refusal; the swap never happened either way.
        }
        other => panic!("expected refusal during drain, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.serve.model_swaps, 0, "no swap landed during drain");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn post_swap_queries_never_reuse_pre_swap_cache_entries() {
    let dir_a = save_artifact("cachekey_a", 42);
    let dir_b = save_artifact("cachekey_b", 1337);
    let p = program("p", 96);
    let ref_a = reference(&dir_a, &p);
    let ref_b = reference(&dir_b, &p);

    let server = bind_server(&dir_a);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // Warm every key of the wave under generation A.
    assert_eq!(client.speedups(&p, &wave()).expect("warm"), ref_a);
    let warm = client.stats().expect("stats").serve;
    assert_eq!(warm.cache_misses, 4, "5-row wave has one in-batch dup");

    // Same wave after the swap: every row must be recomputed against B.
    // A cache keyed without model identity would replay A's entries
    // here and this assertion is what would catch it.
    client
        .reload(dir_b.to_str().expect("utf-8 temp path"))
        .expect("reload");
    assert_eq!(client.speedups(&p, &wave()).expect("post-swap"), ref_b);
    let after = client.stats().expect("stats").serve;
    assert_eq!(
        after.cache_misses - warm.cache_misses,
        4,
        "post-swap wave recomputes instead of reusing generation A's entries"
    );

    // Swapping back to A finds A's entries still resident under their
    // own fingerprint: distinct generations coexist in the cache.
    client
        .reload(dir_a.to_str().expect("utf-8 temp path"))
        .expect("reload back");
    assert_eq!(client.speedups(&p, &wave()).expect("back on A"), ref_a);
    let back = client.stats().expect("stats").serve;
    assert_eq!(
        back.cache_misses, after.cache_misses,
        "all hits: A's entries survived"
    );

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.serve.model_swaps, 2);
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
