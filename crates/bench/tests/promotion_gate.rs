//! The promotion gate against a loopback server: strictly-better-only
//! promotion, ranking ties in the order given, a dry run that leaves
//! the server alone, a swap that lands bit for bit, and a verdict that
//! is a pure function of the artifacts and the window.

use std::path::{Path, PathBuf};

use dlcm_bench::{run_promotion, PromotionReport};
use dlcm_ir::fingerprint::to_hex;
use dlcm_model::{CostModel, CostModelConfig, FeaturizerConfig, HeldOutMetrics, ModelArtifact};
use dlcm_net::{NetClient, NetConfig, NetServer};
use dlcm_serve::{InferenceService, ServeConfig};

const WINDOW: usize = 3;

/// Saves a small untrained model (deterministic in `seed`) as an
/// artifact under a fresh temp directory and returns the directory.
fn artifact(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlcm_promotion_gate_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let featurizer = FeaturizerConfig::default();
    let model = CostModel::new(
        CostModelConfig {
            input_dim: featurizer.vector_width(),
            embed_widths: vec![32, 16],
            merge_hidden: 16,
            regress_widths: vec![16],
            dropout: 0.0,
        },
        seed,
    );
    ModelArtifact::new(model, featurizer, 0, HeldOutMetrics::default())
        .save(&dir)
        .unwrap();
    dir
}

fn fingerprint(dir: &Path) -> String {
    to_hex(ModelArtifact::load(dir).unwrap().weights_fingerprint())
}

fn serve(dir: &Path) -> (NetServer<CostModel>, String) {
    let service =
        InferenceService::from_artifact(ModelArtifact::load(dir).unwrap(), ServeConfig::default());
    let server = NetServer::bind(service, "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn served_fingerprint(addr: &str) -> String {
    NetClient::connect(addr)
        .unwrap()
        .model_info()
        .unwrap()
        .fingerprint
}

fn mapes(report: &PromotionReport) -> Vec<u64> {
    std::iter::once(&report.incumbent.mape_vs_ground_truth)
        .chain(report.candidates.iter().map(|c| &c.mape_vs_ground_truth))
        .map(|m| m.to_bits())
        .collect()
}

#[test]
fn the_incumbent_never_beats_itself_and_ties_rank_in_the_order_given() {
    let a = artifact("self_a", 42);
    let twin = artifact("self_twin", 42);
    let (server, addr) = serve(&a);

    // Not a dry run: a candidate equal to the incumbent must not swap.
    let report = run_promotion(&addr, &[a.clone(), twin.clone()], WINDOW, false).unwrap();
    assert_eq!(
        (report.verdict.as_str(), report.action.as_str()),
        ("rollback", "none")
    );
    assert_eq!(report.post_swap_fingerprint, None);
    assert_eq!(mapes(&report)[0], mapes(&report)[1], "same weights");
    let ranks: Vec<usize> = report.candidates.iter().map(|c| c.rank).collect();
    assert_eq!(ranks, [0, 1], "equal candidates keep the order given");
    assert_eq!(report.winner_fingerprint, fingerprint(&a));
    assert_eq!(served_fingerprint(&addr), fingerprint(&a));

    // The verdict and every MAPE repeat exactly.
    let again = run_promotion(&addr, &[a, twin], WINDOW, false).unwrap();
    assert_eq!(again.verdict, report.verdict);
    assert_eq!(mapes(&again), mapes(&report));
    server.shutdown();
}

#[test]
fn a_strictly_better_candidate_is_swapped_in_unless_dry_run() {
    let a = artifact("swap_a", 42);
    let b = artifact("swap_b", 43);
    // Which of two untrained models reads the window better is the
    // gate's call: rank both in one dry run, then serve the worse one.
    let (server, addr) = serve(&a);
    let ranking = run_promotion(&addr, &[a.clone(), b.clone()], WINDOW, true).unwrap();
    server.shutdown();
    let (a_mape, b_mape) = (mapes(&ranking)[1], mapes(&ranking)[2]);
    assert_ne!(a_mape, b_mape, "pick seeds whose window MAPEs differ");
    let (worse, better) = if ranking.candidates[0].rank == 0 {
        (b, a)
    } else {
        (a, b)
    };

    let (server, addr) = serve(&worse);
    let dry = run_promotion(&addr, std::slice::from_ref(&better), WINDOW, true).unwrap();
    assert_eq!(
        (dry.verdict.as_str(), dry.action.as_str()),
        ("promote", "dry-run")
    );
    assert_eq!(served_fingerprint(&addr), fingerprint(&worse));

    // The real run swaps; it returns Ok only after the post-swap probe
    // answered from the winner bit for bit.
    let real = run_promotion(&addr, std::slice::from_ref(&better), WINDOW, false).unwrap();
    assert_eq!(
        (real.verdict.as_str(), real.action.as_str()),
        ("promote", "swapped")
    );
    assert_eq!(mapes(&real), mapes(&dry));
    assert_eq!(real.winner_fingerprint, fingerprint(&better));
    assert_eq!(
        real.post_swap_fingerprint.as_deref(),
        Some(real.winner_fingerprint.as_str())
    );
    assert_eq!(served_fingerprint(&addr), real.winner_fingerprint);

    // The promoted model is the incumbent now: gating it again is the
    // candidate-equals-incumbent case.
    let after = run_promotion(&addr, &[better], WINDOW, false).unwrap();
    assert_eq!(after.action, "none");
    assert_eq!(after.incumbent.fingerprint, real.winner_fingerprint);
    server.shutdown();
}

#[test]
fn an_unloadable_candidate_or_an_unreachable_server_is_an_error() {
    let a = artifact("errors_a", 42);
    let (server, addr) = serve(&a);
    let missing = std::env::temp_dir().join("dlcm_promotion_gate_no_such_artifact");
    assert!(run_promotion(&addr, &[missing], WINDOW, true).is_err());
    assert!(run_promotion(&addr, &[], WINDOW, true).is_err());
    server.shutdown();
    assert!(run_promotion(&addr, &[a], WINDOW, true).is_err());
}
