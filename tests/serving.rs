//! Tier-1 coverage of the serving path: an in-process
//! [`InferenceService`] and a loopback [`NetServer`] / [`NetClient`] pair
//! must both answer with scores bit-identical to in-process
//! [`ModelEvaluator`] evaluation — at any client-thread count and across
//! a model reload landing while clients are mid-flight.

use std::sync::mpsc;

use dlcm::eval::{Evaluator, ModelEvaluator, SyncEvaluator};
use dlcm::ir::{CompId, Expr, Program, ProgramBuilder, Schedule, Transform};
use dlcm::model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};
use dlcm::net::{NetClient, NetConfig, NetServer};
use dlcm::serve::{InferenceService, ServeConfig, ServeStats};

const ROUNDS: usize = 6;

fn program(n: i64) -> Program {
    let mut b = ProgramBuilder::new("p");
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
            embed_widths: vec![16],
            merge_hidden: 8,
            regress_widths: vec![8],
            dropout: 0.0,
        },
        seed,
    )
}

/// Three structure groups (untransformed, tiled, unrolled) and an
/// in-batch duplicate.
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

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// What `ModelEvaluator` answers for every program under `model`.
fn reference(model: &CostModel, programs: &[Program]) -> Vec<Vec<u64>> {
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    programs
        .iter()
        .map(|p| bits(&ModelEvaluator::new(model, featurizer.clone()).speedup_batch(p, &wave())))
        .collect()
}

fn service() -> InferenceService<CostModel> {
    InferenceService::with_model_fingerprint(
        model(42),
        1,
        Featurizer::new(FeaturizerConfig::default()),
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    )
}

/// `clients` threads each open a query handle with `connect` and sweep
/// the programs for `ROUNDS` rounds. Round 0 runs before the reload and
/// must answer as model A; `reload` lands once every client has reported
/// its round 0 (a channel, so a failed client ends the wait instead of
/// hanging it) while later rounds are in flight, each of which must
/// answer wholesale as A or as B; a fresh handle opened after the clients
/// finish must answer as B.
fn drive<Q: FnMut(&Program) -> Vec<f64>>(
    clients: usize,
    connect: impl Fn() -> Q + Sync,
    reload: impl FnOnce(),
) {
    let programs: Vec<Program> = (0..3).map(|i| program(32 + 16 * i)).collect();
    let ref_a = reference(&model(42), &programs);
    let ref_b = reference(&model(1337), &programs);
    assert_ne!(ref_a, ref_b, "differently seeded models must differ");

    let (first_round_done, first_rounds) = mpsc::channel();
    std::thread::scope(|scope| {
        for t in 0..clients {
            let (programs, ref_a, ref_b, connect) = (&programs, &ref_a, &ref_b, &connect);
            let first_round_done = first_round_done.clone();
            scope.spawn(move || {
                let mut query = connect();
                for round in 0..ROUNDS {
                    let pi = (t + round) % programs.len();
                    let got = bits(&query(&programs[pi]));
                    if round == 0 {
                        assert_eq!(got, ref_a[pi], "client {t}: before the reload");
                        first_round_done.send(()).expect("the driver is listening");
                    } else {
                        assert!(
                            got == ref_a[pi] || got == ref_b[pi],
                            "client {t} round {round}: a wave must come from one model"
                        );
                    }
                }
            });
        }
        drop(first_round_done);
        let reported = first_rounds.iter().take(clients).count();
        assert_eq!(reported, clients, "a client failed before the reload");
        reload();
    });
    let mut query = connect();
    for (pi, p) in programs.iter().enumerate() {
        assert_eq!(bits(&query(p)), ref_b[pi], "after the reload");
    }
}

/// Every miss went through exactly one forward pass of its own call.
fn assert_forward_accounting(stats: &ServeStats, clients: usize) {
    assert_eq!(stats.queries, (clients * ROUNDS + 3) * wave().len());
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.queries);
    assert_eq!(stats.forward_rows, stats.cache_misses);
    assert_eq!(stats.coalesced_batches, 0);
    assert_eq!(stats.model_swaps, 1);
}

#[test]
fn in_process_service_matches_model_evaluator_across_a_reload() {
    for clients in [1, 2, 8] {
        let service = service();
        drive(
            clients,
            || |p: &Program| service.speedup_batch_shared(p, &wave()).0,
            || service.reload(model(1337), 2),
        );
        assert_forward_accounting(&service.stats(), clients);
    }
}

#[test]
fn loopback_server_matches_model_evaluator_across_a_reload() {
    for clients in [1, 2, 8] {
        // One worker per client plus one for the handle opened after the
        // reload: a connection is only served once a worker is free.
        let server = NetServer::bind(
            service(),
            "127.0.0.1:0",
            NetConfig {
                max_connections: clients + 1,
            },
        )
        .expect("bind an ephemeral port");
        drive(
            clients,
            || {
                let mut client = NetClient::connect(server.local_addr()).expect("connect");
                move |p: &Program| client.speedups(p, &wave()).expect("served")
            },
            || server.service().reload(model(1337), 2),
        );
        assert_forward_accounting(&server.shutdown().serve, clients);
    }
}
