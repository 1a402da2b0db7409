//! `serve_cold` and `serve_hot`: the model behind `NetServer`, driven by
//! closed-loop `NetClient` connections.
//!
//! Load shape: the callers are searches that wait for each reply, so the
//! loop is closed — `threads` connections, each sending its next request
//! only after the previous answer. Every repetition replays the same
//! seeded operation list against a fresh service (empty cache, empty
//! program memo), so repetitions are identical work and differ only by
//! what the machine did to them.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use dlcm_eval::{Evaluator, ModelEvaluator, SharedCachedEvaluator, SyncEvaluator};
use dlcm_ir::fingerprint::to_hex;
use dlcm_model::{CostModel, ModelArtifact};
use dlcm_net::wire::{self, FrameKind, DEFAULT_MAX_FRAME_LEN};
use dlcm_net::{NetClient, NetConfig, NetServer, Request, Response, StatsReport};
use dlcm_serve::{InferenceService, ServeConfig, ServeStats};
use serde::Deserialize;

use crate::benchmodel;
use crate::common::{
    record_end_to_end, record_traced_process, timed_setup, RepSample, RunConfig, MIN_REPS,
};
use crate::inputs::{distinct_requests, hot_draws, request_digest, ServeRequest, WAVE_LEN};
use crate::micro;
use crate::report::Outcome;
use crate::stats::{percentile, sorted, Summary};
use crate::timed::{TimedPredictor, MODEL_INFER};
use crate::trace::{covered_ns, durations_ns, Span, Tracer};

/// Which of the two serve workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every key never seen before: the cache only inserts.
    Cold,
    /// A small working set after a warm pass: the cache always hits.
    Hot,
}

/// Times the heavy set-up (bench model training) is repeated.
const SETUP_REPS: usize = 3;

/// Everything generated before the first timed operation.
struct Inputs {
    artifact: ModelArtifact,
    /// Distinct requests: the whole cold list, or the hot working set.
    requests: Vec<ServeRequest>,
    /// Per connection, the indices into `requests` it sends, in order.
    plan: Vec<Vec<usize>>,
    /// Scores of the checked requests from in-process evaluation, as bits.
    expected: HashMap<usize, Vec<u64>>,
}

fn generate(kind: Kind, cfg: &RunConfig) -> Inputs {
    let artifact = benchmodel::build(cfg.threads, &cfg.sizes, &cfg.scratch.join("bench_model"))
        .expect("bench model");
    let conns = cfg.threads;
    let (requests, plan) = match kind {
        Kind::Cold => {
            let per_conn = cfg.sizes.cold_requests;
            let requests = distinct_requests(cfg.seed, conns * per_conn);
            let plan = (0..conns)
                .map(|c| (c * per_conn..(c + 1) * per_conn).collect())
                .collect();
            (requests, plan)
        }
        Kind::Hot => {
            let set = cfg.sizes.hot_working_set;
            let requests = distinct_requests(cfg.seed, set);
            let plan = (0..conns)
                .map(|c| {
                    hot_draws(
                        cfg.seed ^ ((c as u64 + 1) << 32),
                        set,
                        cfg.sizes.hot_requests,
                    )
                })
                .collect();
            (requests, plan)
        }
    };
    // The reference answers: the same artifact scored in-process, with
    // no service, cache or wire in between.
    let featurizer = artifact.featurizer();
    let mut direct = ModelEvaluator::new(artifact.model(), featurizer);
    let step = (requests.len() / cfg.sizes.checked_waves.max(1)).max(1);
    let expected = (0..requests.len())
        .step_by(step)
        .take(cfg.sizes.checked_waves)
        .map(|i| {
            let r = &requests[i];
            let bits = direct
                .speedup_batch(&r.program, &r.schedules)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            (i, bits)
        })
        .collect();
    Inputs {
        artifact,
        requests,
        plan,
        expected,
    }
}

fn serve_config(cfg: &RunConfig) -> ServeConfig {
    ServeConfig {
        threads: cfg.threads,
        ..ServeConfig::default()
    }
}

/// A bound server over a fresh service, with `conns` connected clients.
struct Stage {
    server: NetServer<CostModel>,
    clients: Vec<NetClient>,
}

fn stage(kind: Kind, inputs: &Inputs, cfg: &RunConfig, conns: usize) -> Stage {
    let service = InferenceService::from_artifact(inputs.artifact.clone(), serve_config(cfg));
    let server = NetServer::bind(
        service,
        "127.0.0.1:0",
        NetConfig {
            max_connections: conns,
            ..NetConfig::default()
        },
    )
    .expect("bind an ephemeral port");
    let mut clients: Vec<NetClient> = (0..conns)
        .map(|_| NetClient::connect(server.local_addr()).expect("connect"))
        .collect();
    if kind == Kind::Hot {
        // The untimed warm pass: every working-set key enters the cache.
        for r in &inputs.requests {
            clients[0]
                .speedups(&r.program, &r.schedules)
                .expect("warm pass request");
        }
    }
    Stage { server, clients }
}

/// What one connection observed while replaying its plan.
#[derive(Default)]
struct ConnLog {
    /// Round-trip times in microseconds.
    latencies_us: Vec<f64>,
    /// `(request index, scores)` of every answered request.
    answers: Vec<(usize, Vec<f64>)>,
    errors: u64,
}

/// What one repetition observed, all connections pooled.
struct Rep {
    wall_s: f64,
    latencies_us: Vec<f64>,
    answers: Vec<(usize, Vec<f64>)>,
    errors: u64,
    stats: StatsReport,
}

/// Drives one repetition: every connection replays its plan closed-loop,
/// all released together by a barrier.
fn run_rep(stage: Stage, inputs: &Inputs) -> Rep {
    let Stage { server, clients } = stage;
    let barrier = Barrier::new(clients.len() + 1);
    let (logs, wall_s): (Vec<ConnLog>, f64) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&inputs.plan)
            .map(|(mut client, plan)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    barrier.wait();
                    for &i in plan {
                        let r = &inputs.requests[i];
                        let sent = Instant::now();
                        let reply = client.speedups(&r.program, &r.schedules);
                        log.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                        match reply {
                            Ok(scores) => log.answers.push((i, scores)),
                            Err(_) => log.errors += 1,
                        }
                    }
                    log
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (logs, start.elapsed().as_secs_f64())
    });
    let mut rep = Rep {
        wall_s,
        latencies_us: Vec::new(),
        answers: Vec::new(),
        errors: 0,
        stats: server.shutdown(),
    };
    for log in logs {
        rep.latencies_us.extend(log.latencies_us);
        rep.answers.extend(log.answers);
        rep.errors += log.errors;
    }
    rep
}

/// Counts a repetition's requests and checks its outputs: no transport
/// or typed errors, served scores `to_bits`-equal to in-process scoring
/// on the checked waves, and the hit ratio on the side of the guard the
/// workload is defined by.
fn check_rep(kind: Kind, rep: &Rep, inputs: &Inputs, outcome: &mut Outcome) {
    let sent: usize = inputs.plan.iter().map(Vec::len).sum();
    outcome.attempted += sent as u64;
    if rep.errors > 0 {
        outcome.failed += rep.errors;
        outcome
            .failures
            .push(format!("{} requests failed or were refused", rep.errors));
    }
    let mut wrong = 0u64;
    let mut checked = 0u64;
    for (i, scores) in &rep.answers {
        if let Some(expected) = inputs.expected.get(i) {
            checked += 1;
            let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
            if &bits != expected {
                wrong += 1;
            }
        }
    }
    outcome.attempted += checked;
    if wrong > 0 {
        outcome.failed += wrong;
        outcome.failures.push(format!(
            "{wrong} of {checked} checked waves differ from in-process scoring"
        ));
    }
    let hit_ratio = timed_hit_ratio(kind, &rep.stats, inputs);
    let guard_holds = match kind {
        Kind::Cold => hit_ratio <= 0.02,
        Kind::Hot => hit_ratio >= 0.99,
    };
    outcome.check(guard_holds, || {
        format!("cache hit ratio {hit_ratio:.4} is on the wrong side of the {kind:?} guard")
    });
    outcome.check(
        rep.stats.serve.rejected_overload + rep.stats.serve.rejected_deadline == 0,
        || "the server rejected requests".to_string(),
    );
}

/// Hit ratio of the timed requests alone: the warm pass of the hot
/// workload misses once per key by design, so its lookups are taken out.
fn timed_hit_ratio(kind: Kind, stats: &StatsReport, inputs: &Inputs) -> f64 {
    let warm = match kind {
        Kind::Cold => 0,
        Kind::Hot => inputs.requests.len() * WAVE_LEN,
    };
    let hits = stats.serve.cache_hits;
    let misses = stats.serve.cache_misses.saturating_sub(warm);
    hits as f64 / (hits + misses).max(1) as f64
}

/// Runs one serve workload.
pub fn run(kind: Kind, cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    // Set-up: bench model, request list, reference answers, and the
    // first repetition's bind, connect and warm pass. The traced run
    // reports no set-up time, so it sets up once.
    let setup_reps = if cfg.traced { 1 } else { SETUP_REPS };
    let ((inputs, first_stage), setup) = timed_setup(setup_reps, || {
        let inputs = generate(kind, cfg);
        let first = stage(kind, &inputs, cfg, cfg.threads);
        (inputs, first)
    });
    let per_rep: usize = inputs.plan.iter().map(Vec::len).sum();
    outcome.counts.insert("requests_per_rep", per_rep as u64);
    outcome
        .counts
        .insert("distinct_requests", inputs.requests.len() as u64);
    outcome
        .digests
        .insert("request_list", to_hex(request_digest(&inputs.requests)));
    outcome
        .counts
        .insert("checked_waves", inputs.expected.len() as u64);

    if cfg.traced {
        run_traced(kind, cfg, &inputs, first_stage, &mut outcome);
        return outcome;
    }
    // The timed phase: repetitions until `--seconds` have been measured,
    // never fewer than `MIN_REPS`.
    let mut samples = Vec::new();
    let mut measured = 0.0;
    let mut next = Some(first_stage);
    while samples.len() < MIN_REPS || measured < cfg.seconds {
        let current = next
            .take()
            .unwrap_or_else(|| stage(kind, &inputs, cfg, cfg.threads));
        let rep = run_rep(current, &inputs);
        check_rep(kind, &rep, &inputs, &mut outcome);
        measured += rep.wall_s;
        samples.push(RepSample {
            op_us: percentile(&sorted(rep.latencies_us), 0.5),
            work_per_s: (per_rep * WAVE_LEN) as f64 / rep.wall_s,
        });
    }
    record_end_to_end(&mut outcome, &setup, &samples);
    outcome.counts.insert("repetitions", samples.len() as u64);
    outcome
}

const OP: &str = "serve.op";
const RTT: &str = "net.rtt";
const PING: &str = "net.ping";
const ENCODE_REQUEST: &str = "net.encode_request";
const DECODE_REQUEST: &str = "net.decode_request";
const ENCODE_RESPONSE: &str = "net.encode_response";
const DECODE_RESPONSE: &str = "net.decode_response";
const CALL: &str = "serve.call";

/// Reads one frame back from an in-memory buffer and parses its body:
/// what the receiving side of the wire does with it.
fn decode_frame<T: Deserialize>(frame: &[u8]) -> T {
    let mut reader = frame;
    let read = wire::read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).expect("frame");
    wire::decode_body(&read.body).expect("frame body")
}

/// What one single-connection replay of the operation list produced.
struct Replay {
    wall_s: f64,
    done: usize,
    wrong: u64,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    net_stats: StatsReport,
    serve_stats: ServeStats,
}

/// Replays the first `limit` operations on a single connection (so stage
/// times are not mixed with contention) with a span around every stage
/// the outside can see. Stops early once `budget_s` is spent. With the
/// tracer disabled the same calls run and no span is recorded: that
/// replay's wall-clock is the denominator of `trace.overhead_ratio`.
fn replay(
    kind: Kind,
    cfg: &RunConfig,
    inputs: &Inputs,
    tracer: &Arc<Tracer>,
    limit: usize,
    budget_s: f64,
) -> Replay {
    let featurizer = inputs.artifact.featurizer();
    let Stage {
        server,
        mut clients,
    } = stage(kind, inputs, cfg, 1);
    let client = &mut clients[0];
    // The in-process twin of the server's service, over a predictor that
    // records its forward passes, fed the same waves in the same order.
    let service = InferenceService::with_model_fingerprint(
        TimedPredictor::new(inputs.artifact.model().clone(), Arc::clone(tracer)),
        inputs.artifact.weights_fingerprint(),
        featurizer.clone(),
        serve_config(cfg),
    );
    if kind == Kind::Hot {
        for r in &inputs.requests {
            service.speedup_batch_shared(&r.program, &r.schedules);
        }
    }
    let probe = SharedCachedEvaluator::new(micro::ConstantScores);
    // The single connection sends every connection's plan back to back.
    let ops = inputs.plan.iter().flatten().take(limit);

    let (mut done, mut wrong) = (0usize, 0u64);
    let (mut request_bytes, mut response_bytes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for &i in ops {
        if done >= inputs.expected.len() && start.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let r = &inputs.requests[i];
        let _op = tracer.op(OP, done as u64);
        let served = tracer.time(RTT, 1, || client.speedups(&r.program, &r.schedules));
        tracer.time(PING, 1, || client.ping()).expect("ping");

        // The same frames over in-memory buffers: what the client and the
        // server each spend encoding and decoding, without the socket.
        let mut frame = Vec::new();
        tracer.time(ENCODE_REQUEST, 1, || {
            // `NetClient::speedups` clones into the `Request` before it
            // writes, so the clone is part of what a caller pays.
            let request = Request::Speedups {
                program: r.program.clone(),
                schedules: r.schedules.clone(),
                deadline_ms: None,
            };
            wire::write_message(&mut frame, FrameKind::Request, &request).expect("encode");
        });
        tracer.time(DECODE_REQUEST, 1, || decode_frame::<Request>(&frame));
        request_bytes.push(frame.len() as f64);

        let (scores, _) = tracer.time(CALL, r.schedules.len(), || {
            service.speedup_batch_shared(&r.program, &r.schedules)
        });

        let mut reply = Vec::new();
        tracer.time(ENCODE_RESPONSE, 1, || {
            let response = Response::Speedups {
                scores: scores.clone(),
            };
            wire::write_message(&mut reply, FrameKind::Response, &response).expect("encode");
        });
        tracer.time(DECODE_RESPONSE, 1, || decode_frame::<Response>(&reply));
        response_bytes.push(reply.len() as f64);

        if kind == Kind::Cold {
            micro::featurize(tracer, &featurizer, &r.program, &r.schedules);
        }
        micro::fingerprint(tracer, &r.program, &r.schedules);
        micro::cache_probe(tracer, &probe, &r.program, &r.schedules);

        // The real server and the instrumented twin must agree bit for bit.
        let served_bits: Option<Vec<u64>> =
            served.ok().map(|s| s.iter().map(|v| v.to_bits()).collect());
        let twin_bits: Vec<u64> = scores.iter().map(|v| v.to_bits()).collect();
        if served_bits.as_ref() != Some(&twin_bits) {
            wrong += 1;
        }
        done += 1;
    }
    Replay {
        wall_s: start.elapsed().as_secs_f64(),
        done,
        wrong,
        request_bytes,
        response_bytes,
        net_stats: server.shutdown(),
        serve_stats: service.stats(),
    }
}

/// The traced run: one contended repetition for the tail under
/// `threads` connections, then the single-connection replay three times
/// over the same operations — tracer off, on, off.
fn run_traced(
    kind: Kind,
    cfg: &RunConfig,
    inputs: &Inputs,
    first_stage: Stage,
    outcome: &mut Outcome,
) {
    let contended = run_rep(first_stage, inputs);
    check_rep(kind, &contended, inputs, outcome);
    let lat = sorted(contended.latencies_us.clone());
    outcome.set_exact("net.contended_p50_us", percentile(&lat, 0.5));
    outcome.set_exact("net.contended_p99_us", percentile(&lat, 0.99));

    let tracer = Arc::new(Tracer::new(false));
    let quiet = replay(kind, cfg, inputs, &tracer, usize::MAX, cfg.seconds / 4.0);
    tracer.set_enabled(true);
    let traced = replay(kind, cfg, inputs, &tracer, quiet.done, f64::INFINITY);
    tracer.set_enabled(false);
    // The machine drifts by more than the tracer costs, so the tracer-off
    // time is taken on both sides of the traced replay.
    let quiet_after = replay(kind, cfg, inputs, &tracer, quiet.done, f64::INFINITY);
    let spans = tracer.spans();

    let done = traced.done;
    outcome.attempted += done as u64;
    if traced.wrong > 0 {
        outcome.failed += traced.wrong;
        outcome.failures.push(format!(
            "{} of {done} traced requests differ between the server and its instrumented twin",
            traced.wrong
        ));
    }

    // net: the budget of one round trip.
    let us =
        |name: &str| -> Vec<f64> { durations_ns(&spans, name).iter().map(|d| d / 1e3).collect() };
    let rtt_us = us(RTT);
    let rtt = Summary::of(&rtt_us);
    let stages = [
        ("net.encode_request_us", Summary::of(&us(ENCODE_REQUEST))),
        ("net.decode_request_us", Summary::of(&us(DECODE_REQUEST))),
        ("net.encode_response_us", Summary::of(&us(ENCODE_RESPONSE))),
        ("net.decode_response_us", Summary::of(&us(DECODE_RESPONSE))),
        ("serve.call_us", Summary::of(&us(CALL))),
    ];
    let accounted: f64 = stages.iter().map(|(_, s)| s.median).sum();
    outcome.set("net.rtt_us", rtt);
    outcome.set_exact("net.rtt_p99_us", percentile(&sorted(rtt_us), 0.99));
    outcome.set("net.ping_rtt_us", Summary::of(&us(PING)));
    for (name, summary) in stages {
        outcome.set(name, summary);
    }
    // What the outside view cannot attribute: socket, kernel, thread
    // hand-off. Stage medians plus this sum to the round trip by
    // construction.
    outcome.set_exact("net.residual_us", rtt.median - accounted);
    outcome.set("net.request_bytes", Summary::of(&traced.request_bytes));
    outcome.set("net.response_bytes", Summary::of(&traced.response_bytes));
    outcome.set_exact("net.requests", traced.net_stats.net.requests as f64);
    // The drain answers each open connection with one `ShuttingDown`
    // frame; anything above that was a rejection.
    outcome.set_exact("net.errors_sent", traced.net_stats.net.errors_sent as f64);

    // serve: the instrumented twin on the same waves; the coalescing and
    // rejection counters need concurrent callers, so they come from the
    // contended repetition.
    let featurize_ns = micro::featurize_ns_per_row(&spans);
    let residuals = serve_call_residuals_us(&spans, featurize_ns, kind);
    outcome.set("serve.residual_us", Summary::of(&residuals));
    outcome.set_exact(
        "serve.cache_hit_ratio",
        timed_hit_ratio(kind, &contended.stats, inputs),
    );
    outcome.set_exact("serve.forward_rows", traced.serve_stats.forward_rows as f64);
    outcome.set_exact(
        "serve.micro_batches",
        traced.serve_stats.micro_batches as f64,
    );
    outcome.set_exact("serve.mean_batch_rows", traced.serve_stats.mean_batch_rows);
    outcome.set_exact(
        "serve.coalesced_batches",
        contended.stats.serve.coalesced_batches as f64,
    );
    outcome.set_exact(
        "serve.rejected",
        (contended.stats.serve.rejected_overload + contended.stats.serve.rejected_deadline) as f64,
    );

    // model, tensor, eval, ir: direct calls on the same inputs.
    if kind == Kind::Cold {
        outcome.set_exact("model.featurize_ns_per_row", featurize_ns);
        micro::record_infer(&spans, outcome);
        let first = &inputs.requests[0];
        micro::matmul(
            &inputs.artifact,
            &first.program,
            &first.schedules[0],
            outcome,
        );
    }
    micro::record_fingerprint_and_probe(&spans, outcome);

    outcome.set_exact(
        "trace.overhead_ratio",
        traced.wall_s / ((quiet.wall_s + quiet_after.wall_s) / 2.0),
    );
    record_traced_process(outcome);
    outcome.counts.insert("traced_requests", done as u64);
    outcome.counts.insert(
        "contended_latency_samples",
        contended.latencies_us.len() as u64,
    );
    outcome.spans = spans;
}

/// Per traced call: the call's span minus the wall-clock its forward
/// passes cover, minus its misses times the directly measured featurize
/// cost — what the service itself adds (cache view, queueing, merge).
fn serve_call_residuals_us(spans: &[Span], featurize_ns_per_row: f64, kind: Kind) -> Vec<f64> {
    let mut infer_by_op: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == MODEL_INFER) {
        infer_by_op
            .entry(s.op_id)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.name == CALL)
        .map(|call| {
            let infer = infer_by_op.remove(&call.op_id).unwrap_or_default();
            let predictor_ns = covered_ns(infer, call.start_ns, call.end_ns);
            let misses = match kind {
                Kind::Cold => f64::from(call.units),
                Kind::Hot => 0.0,
            };
            (call.dur_ns() as f64 - predictor_ns as f64 - misses * featurize_ns_per_row) / 1e3
        })
        .collect()
}
