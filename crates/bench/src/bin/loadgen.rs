//! Load generator for a `modelctl serve --listen` server.
//!
//! Drives a running dlcm-net server with concurrent TCP clients sending
//! waves of *distinct* schedule keys (the traffic shape an unbounded
//! cache could not survive), measures client-observed request latency,
//! and prints the p50/p99 summary. (The recorded serving numbers come
//! from the `benchmark/` package's `serve_cold`/`serve_hot` workloads;
//! this binary is the smoke driver for a separately launched server.)
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--quick] [--clients N] [--rounds N] [--verify]
//!         [--artifact DIR] [--shutdown]
//! ```
//!
//! - `--verify` replays a **fixed query set** through the server and
//!   through an in-process `dlcm_eval::ModelEvaluator` over the same
//!   artifact (`--artifact`, default `results/model_artifact`) and
//!   fails unless every score matches **bit-for-bit** — the end-to-end
//!   check that the network tier adds no numeric drift.
//! - `--shutdown` sends the protocol's `Shutdown` frame when done, so
//!   CI can tear the server down deterministically (no signals).
//!
//! The generator waits up to 60s for the server to come up (retrying
//! the TCP connect), so it can be started immediately after the server
//! process in a CI step.
//!
//! Workload determinism: programs and schedule waves are generated from
//! fixed seeds, so two runs against the same artifact make exactly the
//! same queries (latency, of course, still varies with the machine).

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use dlcm_bench::{load_artifact, model_artifact_dir, replay_window, Flags};
use dlcm_eval::{Evaluator, ModelEvaluator};
use dlcm_net::NetClient;

/// Retries the TCP connect until the server is up (or 60s pass).
fn connect_with_retry(addr: &str) -> NetClient {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        // Probe with a raw connect first so retry cost stays cheap.
        match TcpStream::connect(addr) {
            Ok(probe) => {
                drop(probe);
                match NetClient::connect(addr) {
                    Ok(client) => return client,
                    Err(e) if Instant::now() < deadline => {
                        eprintln!("loadgen: connect raced a server restart ({e}), retrying");
                    }
                    Err(e) => panic!("loadgen: cannot connect to {addr}: {e}"),
                }
            }
            Err(e) if Instant::now() < deadline => {
                let _unused = e;
                thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("loadgen: server at {addr} never came up: {e}"),
        }
    }
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

/// Replays the fixed verification set through the server and through an
/// in-process evaluator over the same artifact; every score must match
/// bit-for-bit.
fn verify(addr: &str, artifact_dir: &Path) -> bool {
    let artifact = load_artifact(artifact_dir);
    let featurizer = artifact.featurizer();
    let model = artifact.into_model();
    let mut direct = ModelEvaluator::new(&model, featurizer);
    let mut client = connect_with_retry(addr);

    let mut compared = 0usize;
    // Pseudo-client 999, started at program 0: keys no load client sends.
    for (pi, (program, wave)) in replay_window(999 << 32, 0, 6).take(3).enumerate() {
        let expected = direct.speedup_batch(&program, &wave);
        let served = match client.speedups(&program, &wave) {
            Ok(scores) => scores,
            Err(e) => {
                eprintln!("loadgen --verify: query failed: {e}");
                return false;
            }
        };
        let expected_bits: Vec<u64> = expected.iter().map(|s| s.to_bits()).collect();
        let served_bits: Vec<u64> = served.iter().map(|s| s.to_bits()).collect();
        if expected_bits != served_bits {
            eprintln!(
                "loadgen --verify: MISMATCH on program {pi}: served {served:?} vs in-process \
                 {expected:?}"
            );
            return false;
        }
        compared += wave.len();
    }
    println!("verify: {compared} served scores bit-identical to in-process evaluation");
    true
}

/// Schedules per request wave.
const WAVE_LEN: usize = 8;

const USAGE: &str = "loadgen [--addr HOST:PORT] [--quick] [--clients N] [--rounds N] [--verify] \
                     [--artifact DIR] [--shutdown]";

fn main() {
    let flags = Flags::parse(std::env::args().skip(1), USAGE);
    let quick = flags.has("quick");
    let addr = flags.string("addr").unwrap_or("127.0.0.1:7199").to_string();
    let clients = flags.positive("clients", if quick { 2 } else { 4 });
    let rounds = flags.positive("rounds", if quick { 10 } else { 100 });
    eprintln!(
        "=== loadgen (addr={addr}, clients={clients}, rounds={rounds}, wave={WAVE_LEN}, \
         quick={quick}) ==="
    );

    let artifact_dir = flags
        .string("artifact")
        .map_or_else(model_artifact_dir, PathBuf::from);
    if flags.has("verify") && !verify(&addr, &artifact_dir) {
        eprintln!("loadgen --verify FAILED: served scores differ from in-process evaluation");
        std::process::exit(1);
    }

    // The load phase proper: each client thread owns one connection and
    // sends `rounds` fresh-keyed waves back-to-back, timing each
    // request from write to fully-read response.
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = connect_with_retry(&addr);
                let mut latencies_us = Vec::with_capacity(rounds);
                let mut queries = 0usize;
                // Loadgen's slice of the replay traffic: client `c` starts
                // at program `c` and owns the wave seeds `c << 32 ..`.
                let window = replay_window((c as u64) << 32, c, WAVE_LEN);
                for (program, wave) in window.take(rounds) {
                    let sent = Instant::now();
                    let scores = client
                        .speedups(&program, &wave)
                        .expect("loadgen request failed");
                    latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(scores.len(), wave.len());
                    queries += wave.len();
                }
                (latencies_us, queries)
            })
        })
        .collect();
    let mut latencies_us = Vec::new();
    let mut queries = 0usize;
    for handle in handles {
        let (lats, q) = handle.join().expect("client thread");
        latencies_us.extend(lats);
        queries += q;
    }
    let wall = start.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let mut client = connect_with_retry(&addr);
    let serve = client.stats().expect("final stats").serve;
    if flags.has("shutdown") {
        client.shutdown_server().expect("shutdown acknowledged");
        eprintln!("loadgen: server draining (shutdown frame acknowledged)");
    }

    let requests = latencies_us.len();
    println!(
        "{requests} requests ({queries} queries) in {wall:.2}s: p50 {:.0}us, p99 {:.0}us, \
         mean {:.0}us ({:.0} q/s); server cache {}..{} entries ({} evictions), \
         rejected {} overload / {} deadline",
        percentile(&latencies_us, 0.50),
        percentile(&latencies_us, 0.99),
        latencies_us.iter().sum::<f64>() / requests.max(1) as f64,
        queries as f64 / wall,
        serve.cache_entries,
        serve.cache_capacity,
        serve.cache_evictions,
        serve.rejected_overload,
        serve.rejected_deadline,
    );
    assert!(
        serve.cache_entries <= serve.cache_capacity,
        "server exceeded its configured cache capacity"
    );
}
