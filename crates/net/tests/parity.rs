//! The network tier's determinism contract: scores served over TCP are
//! bit-identical to in-process evaluation at ≥ 8 concurrent clients,
//! and the server stays within its configured cache capacity under
//! open-loop traffic with an unbounded key population.

use std::thread;

use dlcm_eval::{Evaluator, ModelEvaluator};
use dlcm_ir::{CompId, Expr, Program, ProgramBuilder, Schedule, Transform};
use dlcm_model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};
use dlcm_net::{NetClient, NetConfig, NetServer};
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

fn tile(size: i64) -> Schedule {
    Schedule::new(vec![Transform::Tile {
        comp: CompId(0),
        level_a: 0,
        level_b: 1,
        size_a: size,
        size_b: size,
    }])
}

/// A structure-diverse wave: untransformed, tiled (deeper tree), and
/// unrolled candidates, plus an in-batch duplicate.
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

fn bind_server(serve_cfg: ServeConfig, net_cfg: NetConfig) -> NetServer<CostModel> {
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let service = InferenceService::new(model(), featurizer, serve_cfg);
    NetServer::bind(service, "127.0.0.1:0", net_cfg).expect("bind ephemeral port")
}

#[test]
fn eight_concurrent_clients_get_bit_identical_scores() {
    let m = model();
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let programs: Vec<Program> = (0..4).map(|i| program("p", 64 + 16 * i)).collect();
    let reference: Vec<Vec<f64>> = programs
        .iter()
        .map(|p| ModelEvaluator::new(&m, featurizer.clone()).speedup_batch(p, &wave()))
        .collect();

    let server = bind_server(
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
        NetConfig { max_connections: 8 },
    );
    let addr = server.local_addr();

    // 8 real TCP clients on their own threads, each sweeping every
    // program twice (the second sweep may be served from whatever the
    // other clients warmed).
    let handles: Vec<_> = (0..8)
        .map(|c| {
            let programs = programs.clone();
            thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let pi = c % programs.len();
                let first = client
                    .speedups(&programs[pi], &wave())
                    .expect("first sweep");
                let second = client
                    .speedups(&programs[pi], &wave())
                    .expect("second sweep");
                assert_eq!(first, second, "warm answers must not drift");
                (pi, first)
            })
        })
        .collect();
    for handle in handles {
        let (pi, scores) = handle.join().expect("client thread");
        let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
        let want: Vec<u64> = reference[pi].iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, want, "served scores must be bit-identical");
    }

    let report = server.shutdown();
    assert_eq!(report.serve.queries, 8 * 2 * wave().len());
    assert_eq!(report.net.connections_accepted, 8);
    assert_eq!(report.net.requests, 16);
    assert_eq!(report.serve.rejected_overload, 0);
}

#[test]
fn stats_and_ping_round_trip() {
    let server = bind_server(ServeConfig::default(), NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");
    let p = program("p", 64);
    client.speedups(&p, &wave()).expect("speedups");
    let report = client.stats().expect("stats");
    assert_eq!(report.serve.queries, wave().len());
    assert_eq!(report.serve.client_calls, 1);
    assert!(report.serve.cache_capacity > 0);
    assert!(report.serve.cache_entries <= report.serve.cache_capacity);
    assert_eq!(report.net.active_connections, 1, "just this client");
    assert!(report.net.requests >= 2);
    drop(client);
    server.shutdown();
}

#[test]
fn server_stays_within_cache_capacity_under_distinct_key_traffic() {
    // Open-loop-ish traffic: every request carries fresh schedule keys,
    // so an unbounded cache would grow without limit. The configured
    // capacity (64 entries) must hold while scores stay correct.
    let capacity = 64;
    let server = bind_server(
        ServeConfig {
            cache_capacity: capacity,
            ..ServeConfig::default()
        },
        NetConfig::default(),
    );
    let effective = server.service().stats().cache_capacity;
    assert!(effective >= capacity, "per-shard rounding only rounds up");

    let p = program("p", 64);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for round in 0..40 {
        let schedules: Vec<Schedule> = (0..8)
            .map(|k| tile(2 + 2 * (8 * round + k) as i64))
            .collect();
        let scores = client.speedups(&p, &schedules).expect("round");
        assert_eq!(scores.len(), schedules.len());
        let stats = server.service().stats();
        assert!(
            stats.cache_entries <= stats.cache_capacity,
            "round {round}: {} entries > capacity {}",
            stats.cache_entries,
            stats.cache_capacity
        );
    }
    let report = client.stats().expect("stats");
    assert!(
        report.serve.cache_evictions > 0,
        "320 distinct keys through a 64-entry cache must evict"
    );
    // An evicted key recomputes to the same score: eviction affects
    // cost, never answers.
    let probe = vec![tile(2)];
    let served_again = client.speedups(&p, &probe).expect("probe");
    let m = model();
    let mut direct = ModelEvaluator::new(&m, Featurizer::new(FeaturizerConfig::default()));
    assert_eq!(served_again, direct.speedup_batch(&p, &probe));
    drop(client);
    server.shutdown();
}

#[test]
fn zero_deadline_is_rejected_typed_and_overload_limit_holds() {
    let server = bind_server(ServeConfig::default(), NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let p = program("p", 64);

    // deadline_ms = 0 has always expired by dispatch time: the typed
    // Timeout path, counted as rejected_deadline.
    match client.speedups_with_deadline(&p, &wave(), Some(0)) {
        Err(dlcm_net::NetError::Remote(dlcm_net::ErrorReply::Timeout { deadline_ms: 0 })) => {}
        other => panic!("expected typed Timeout, got {other:?}"),
    }
    // The connection survives a typed rejection.
    let scores = client.speedups(&p, &wave()).expect("post-rejection query");
    assert_eq!(scores.len(), wave().len());

    let report = client.stats().expect("stats");
    assert_eq!(report.serve.rejected_deadline, 1);
    assert_eq!(
        report.serve.queries,
        wave().len(),
        "rejected query never scored"
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_refuses_new_work() {
    let server = bind_server(ServeConfig::default(), NetConfig::default());
    let addr = server.local_addr();
    let p = program("p", 64);

    let mut worker = NetClient::connect(addr).expect("connect worker");
    let scores = worker.speedups(&p, &wave()).expect("pre-shutdown query");
    assert_eq!(scores.len(), wave().len());

    let mut killer = NetClient::connect(addr).expect("connect killer");
    killer.shutdown_server().expect("shutdown acknowledged");
    assert!(server.is_shutting_down());
    let report = server.shutdown();
    assert_eq!(report.serve.queries, wave().len(), "in-flight work drained");

    // The listener is gone: new connections are refused (or reset),
    // they never hang.
    assert!(
        NetClient::connect(addr).is_err() || {
            let mut c = NetClient::connect(addr).expect("raced the close");
            c.ping().is_err()
        }
    );
}

#[test]
fn wait_for_shutdown_returns_once_a_client_sends_shutdown() {
    let server = bind_server(ServeConfig::default(), NetConfig::default());
    let addr = server.local_addr();
    let (done, returned) = std::sync::mpsc::channel();
    let foreground = thread::spawn(move || {
        server.wait_for_shutdown();
        let _unused = done.send(());
        server.shutdown()
    });

    let mut client = NetClient::connect(addr).expect("connect");
    client.ping().expect("serving before the Shutdown frame");
    client.shutdown_server().expect("shutdown acknowledged");
    // A bound on a hang, not on latency.
    returned
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("wait_for_shutdown returned after the Shutdown frame");
    let report = foreground.join().expect("foreground thread");
    assert_eq!(report.net.requests, 2, "the ping and the Shutdown frame");
}
