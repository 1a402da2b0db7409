//! The reproduction's ledger: one struct, rendered as `RESULTS.md` (for
//! reading) and `RESULTS.json` (for diffing), built only from values the
//! `modelctl reproduce` chain already computed.
//!
//! Its provenance is fingerprints — the corpus chain and content
//! fingerprints and the artifact's weights fingerprint — never a commit
//! hash (a committed file cannot name the commit containing it) and never
//! a wall-clock, so the ledger is byte-identical at any `--threads`.

use dlcm_model::{ArtifactManifest, HeldOutMetrics};
use serde::Serialize;

use crate::figures::{Fig7Summary, FIG7_SPEARMAN_THRESHOLD};
use crate::reproduce::{AblationReport, SuiteRow};
use crate::{results_dir, AccuracyReport, Evaluation, FamilyMetrics};

/// Where the ledger's numbers came from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct Provenance {
    /// Chained fingerprint of the corpus's newest generation.
    pub(crate) corpus_chain: String,
    /// Content fingerprint of the corpus (what the artifact records).
    pub(crate) corpus_fingerprint: String,
    /// Fingerprint of the trained weights.
    pub(crate) weights_fingerprint: String,
    /// Training epochs behind the weights.
    pub(crate) epochs: usize,
    /// Programs in the corpus.
    pub(crate) num_programs: usize,
    /// Labeled points in the corpus.
    pub(crate) num_points: usize,
    /// Points in the training split.
    pub(crate) train_points: usize,
    /// Points in the held-out test split.
    pub(crate) test_points: usize,
    /// Logical CPUs of the machine that ran the chain.
    pub(crate) nproc: usize,
}

/// One predictor scored on the held-out points, beside the paper's
/// number where the paper reports one.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct PredictorRow {
    /// Which predictor.
    pub(crate) predictor: String,
    /// Held-out MAPE.
    pub(crate) mape: f64,
    /// Held-out Pearson r.
    pub(crate) pearson: f64,
    /// Held-out Spearman rho.
    pub(crate) spearman: f64,
    /// Held-out R².
    pub(crate) r2: f64,
    /// The paper's MAPE / Pearson / Spearman / R² for this predictor.
    pub(crate) paper: [Option<f64>; 4],
}

/// Table 2's suite averages beside the paper's.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct Table2Averages {
    /// Mean BSE ÷ BSM search time, and the paper's (106.5×).
    pub(crate) bsm_search_accel: [f64; 2],
    /// Mean BSM degradation in percent, and the paper's (15%).
    pub(crate) bsm_degradation_pct: [f64; 2],
    /// Mean BSE ÷ MCTS search time, and the paper's (11.8×).
    pub(crate) mcts_search_accel: [f64; 2],
    /// Mean MCTS degradation in percent, and the paper's (12.5%).
    pub(crate) mcts_degradation_pct: [f64; 2],
}

/// The ledger `modelctl reproduce` writes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Ledger {
    /// Fingerprints, epochs and counts behind every row.
    pub(crate) provenance: Provenance,
    /// Our model, the corpus-trained Halide-style model and the
    /// MAPE-optimal constant, on the same held-out points.
    pub(crate) predictors: Vec<PredictorRow>,
    /// The constant the constant predictor predicts.
    pub(crate) constant: f64,
    /// Our model's held-out metrics per scenario family.
    pub(crate) per_family: Vec<FamilyMetrics>,
    /// Figure 7: test programs whose Spearman rho exceeds 0.75.
    pub(crate) fig7: Fig7Summary,
    /// Per-benchmark speedups and Table 2 ratios.
    pub(crate) search: Vec<SuiteRow>,
    /// Table 2's averages beside the paper's.
    pub(crate) table2: Table2Averages,
    /// §4.4's ablation ratios beside the paper's.
    pub(crate) ablation: AblationReport,
}

/// The constant minimising MAPE over `labels`: `Σ |y − c| / y` is convex
/// and piecewise linear in `c`, with slope `Σ_{y<c} 1/y − Σ_{y>c} 1/y`,
/// so its minimum is the 1/label-weighted median.
fn mape_optimal_constant(labels: &[f64]) -> f64 {
    let mut sorted = labels.to_vec();
    sorted.sort_by(f64::total_cmp);
    let half = sorted.iter().map(|y| 1.0 / y).sum::<f64>() / 2.0;
    let mut below = 0.0;
    for &y in &sorted {
        below += 1.0 / y;
        if below >= half {
            return y;
        }
    }
    *sorted.last().expect("non-empty labels")
}

fn predictor_row(
    predictor: &str,
    y: &[f64],
    preds: &[f64],
    paper: [Option<f64>; 4],
) -> PredictorRow {
    let m = HeldOutMetrics::from_predictions(y, preds);
    PredictorRow {
        predictor: predictor.to_string(),
        mape: m.mape,
        pearson: m.pearson,
        spearman: m.spearman,
        r2: m.r2,
        paper,
    }
}

impl Ledger {
    /// Assembles the ledger from the chain's outputs: the accuracy
    /// `report` of `evaluation`, the artifact `manifest`, the
    /// corpus-trained Halide-style model's predictions over the same
    /// held-out points, and the figure, search and ablation results.
    pub(crate) fn new(
        evaluation: &Evaluation,
        report: &AccuracyReport,
        manifest: &ArtifactManifest,
        halide_preds: &[f64],
        fig7: Fig7Summary,
        search: Vec<SuiteRow>,
        ablation: AblationReport,
    ) -> Ledger {
        let Evaluation { dataset, split, .. } = evaluation;
        let y: Vec<f64> = evaluation.test_set.iter().map(|s| s.target).collect();
        let train_labels: Vec<f64> = split
            .train
            .iter()
            .map(|&i| dataset.points[i].speedup)
            .collect();
        let constant = mape_optimal_constant(&train_labels);
        let predictors = vec![
            PredictorRow {
                predictor: "ours (recursive LSTM)".to_string(),
                mape: report.test_mape,
                pearson: report.pearson,
                spearman: report.spearman,
                r2: report.r2,
                paper: [
                    Some(report.paper_mape),
                    Some(report.paper_pearson),
                    Some(report.paper_spearman),
                    Some(0.89),
                ],
            },
            predictor_row(
                "Halide-style (corpus-trained)",
                &y,
                halide_preds,
                [None, None, None, Some(0.96)],
            ),
            predictor_row("constant", &y, &vec![constant; y.len()], [None; 4]),
        ];
        let mean = |f: fn(&SuiteRow) -> f64| {
            search.iter().map(f).sum::<f64>() / search.len().max(1) as f64
        };
        let table2 = Table2Averages {
            bsm_search_accel: [mean(|r| r.bsm_search_accel), 106.5],
            bsm_degradation_pct: [mean(|r| r.bsm_degradation_pct), 15.0],
            mcts_search_accel: [mean(|r| r.mcts_search_accel), 11.8],
            mcts_degradation_pct: [mean(|r| r.mcts_degradation_pct), 12.5],
        };
        Ledger {
            provenance: Provenance {
                corpus_chain: evaluation.corpus_chain.clone(),
                corpus_fingerprint: manifest.corpus_fingerprint.clone(),
                weights_fingerprint: manifest.weights_fingerprint.clone(),
                epochs: report.epochs,
                num_programs: report.num_programs,
                num_points: report.num_points,
                train_points: report.train_points,
                test_points: report.test_points,
                nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            },
            predictors,
            constant,
            per_family: report.per_family.clone(),
            fig7,
            search,
            table2,
            ablation,
        }
    }

    /// `RESULTS.md`: every row of the ledger as Markdown tables.
    pub fn markdown(&self) -> String {
        let p = &self.provenance;
        let opt = |v: Option<f64>| v.map_or("—".to_string(), |v| format!("{v:.2}"));
        let mut md = String::new();
        let mut line = |s: String| {
            md.push_str(&s);
            md.push('\n');
        };
        line("# Results".into());
        line(String::new());
        line("Written by `modelctl reproduce`; the paper's numbers are Baghdadi et al., MLSys 2021, §4.4 and §6.".into());
        line(String::new());
        line(format!(
            "Corpus chain `{}`, content `{}`; weights `{}`; {} epochs; {} programs, {} points \
             ({} train, {} held out); nproc {}.",
            p.corpus_chain,
            p.corpus_fingerprint,
            p.weights_fingerprint,
            p.epochs,
            p.num_programs,
            p.num_points,
            p.train_points,
            p.test_points,
            p.nproc
        ));
        line(String::new());
        line("## Held-out accuracy".into());
        line(String::new());
        line("| predictor | MAPE | Pearson | Spearman | R² | paper MAPE | paper Pearson | paper Spearman | paper R² |".into());
        line("|---|---|---|---|---|---|---|---|---|".into());
        for r in &self.predictors {
            let name = match r.predictor.as_str() {
                "constant" => format!(
                    "constant {:.4} (MAPE-optimal on the training labels)",
                    self.constant
                ),
                name => name.to_string(),
            };
            line(format!(
                "| {name} | {:.4} | {:.4} | {:.4} | {:.4} | {} | {} | {} | {} |",
                r.mape,
                r.pearson,
                r.spearman,
                r.r2,
                opt(r.paper[0]),
                opt(r.paper[1]),
                opt(r.paper[2]),
                opt(r.paper[3])
            ));
        }
        line(String::new());
        line("## Per family (ours)".into());
        line(String::new());
        line("| family | test points | MAPE | R² | Spearman |".into());
        line("|---|---|---|---|---|".into());
        for r in &self.per_family {
            line(format!(
                "| {} | {} | {:.4} | {:.4} | {:.4} |",
                r.family, r.test_points, r.mape, r.r2, r.spearman
            ));
        }
        line(String::new());
        let f = &self.fig7;
        line(format!(
            "Figure 7: {} of {} test programs ({:.1}%) have per-program Spearman > {FIG7_SPEARMAN_THRESHOLD}.",
            f.good_rank,
            f.programs,
            100.0 * f.good_rank as f64 / f.programs.max(1) as f64
        ));
        line(String::new());
        line("## Search (Figure 6, Table 2)".into());
        line(String::new());
        line("Measured speedup over the parallel baseline; Halide is the domain-gap model, Halide (corpus) the corpus-trained one.".into());
        line(String::new());
        line("| benchmark | BSE | BSM | MCTS | Halide | Halide (corpus) | BSM search accel | BSM degr. % | MCTS search accel | MCTS degr. % |".into());
        line("|---|---|---|---|---|---|---|---|---|---|".into());
        for r in &self.search {
            line(format!(
                "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.1} | {:.1} | {:.1} | {:.1} |",
                r.benchmark,
                r.bse,
                r.bsm,
                r.mcts,
                r.halide,
                r.halide_corpus,
                r.bsm_search_accel,
                r.bsm_degradation_pct,
                r.mcts_search_accel,
                r.mcts_degradation_pct
            ));
        }
        let t = &self.table2;
        line(format!(
            "| **average** (paper) | | | | | | {:.1} ({}) | {:.1} ({}) | {:.1} ({}) | {:.1} ({}) |",
            t.bsm_search_accel[0],
            t.bsm_search_accel[1],
            t.bsm_degradation_pct[0],
            t.bsm_degradation_pct[1],
            t.mcts_search_accel[0],
            t.mcts_search_accel[1],
            t.mcts_degradation_pct[0],
            t.mcts_degradation_pct[1]
        ));
        line(String::new());
        line("## Ablation (§4.4)".into());
        line(String::new());
        let a = &self.ablation;
        line("| model | test MAPE | ÷ recursive | paper |".into());
        line("|---|---|---|---|".into());
        line(format!(
            "| recursive | {:.4} | 1.00 | 1.00 |",
            a.recursive_mape
        ));
        line(format!(
            "| flat LSTM | {:.4} | {:.2} | {:.2} |",
            a.flat_lstm_mape, a.flat_lstm_relative, a.paper_flat_relative
        ));
        line(format!(
            "| concat FFN | {:.4} | {:.2} | {:.2} |",
            a.concat_ffn_mape, a.concat_ffn_relative, a.paper_ffn_relative
        ));
        md
    }

    /// Writes `RESULTS.md` and `RESULTS.json` into the results directory.
    pub fn write(&self) {
        let path = results_dir().join("RESULTS.md");
        std::fs::write(&path, self.markdown()).expect("write RESULTS.md");
        eprintln!("wrote {path:?}");
        crate::write_json("RESULTS.json", self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_datagen::{
        prepare, BuildConfig, DatasetConfig, ParallelDatasetBuilder, ProgramGenConfig,
    };
    use dlcm_machine::{Machine, Measurement};
    use dlcm_model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig, ModelArtifact};
    use rand::{Rng, SeedableRng};

    /// `Σ |y − c| / y`, the objective the constant minimises.
    fn total_ape(labels: &[f64], c: f64) -> f64 {
        labels.iter().map(|y| ((y - c) / y).abs()).sum()
    }

    #[test]
    fn constant_matches_brute_force_over_every_training_label() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for n in [1, 2, 3, 8, 31, 64] {
            // Log-spread labels like speedups (0.01..100), with repeats.
            let labels: Vec<f64> = (0..n)
                .map(|_| 10f64.powf(rng.gen_range(-2.0..2.0)))
                .flat_map(|y| std::iter::repeat_n(y, 1 + (y > 1.0) as usize))
                .collect();
            let best = labels
                .iter()
                .map(|&c| total_ape(&labels, c))
                .fold(f64::INFINITY, f64::min);
            let c = mape_optimal_constant(&labels);
            assert!(labels.contains(&c), "n={n}: {c} is a label");
            assert!(
                total_ape(&labels, c) <= best * (1.0 + 1e-12),
                "n={n}: constant {c} scores {} against brute force {best}",
                total_ape(&labels, c)
            );
        }
        // Weights 1/y: one label at 0.1 outweighs nine at 10.
        let mut labels = vec![10.0; 9];
        labels.push(0.1);
        assert_eq!(mape_optimal_constant(&labels), 0.1);
    }

    #[test]
    fn aggregate_and_family_rows_are_the_accuracy_report_s() {
        let cfg = BuildConfig::new(DatasetConfig {
            num_programs: 16,
            progen: ProgramGenConfig {
                size_pool: vec![8, 16, 32],
                max_points: 1 << 14,
                ..ProgramGenConfig::wide()
            },
            ..DatasetConfig::tiny(23)
        });
        let (dataset, _) = ParallelDatasetBuilder::new(cfg).generate(&Measurement::new(Machine));
        let split = dataset.split(0);
        let featurizer = Featurizer::new(FeaturizerConfig::default());
        let test_set = prepare(&featurizer, &dataset, &split.test);
        let y: Vec<f64> = test_set.iter().map(|s| s.target).collect();
        let preds: Vec<f64> = y
            .iter()
            .enumerate()
            .map(|(k, t)| t * [1.1, 0.85][k % 2])
            .collect();
        let metrics = HeldOutMetrics::from_predictions(&y, &preds);
        let evaluation = Evaluation {
            dataset,
            split,
            test_set,
            test_preds: preds.clone(),
            metrics,
            corpus_chain: "chain".into(),
        };
        let report = crate::accuracy_report(&evaluation, 3);
        let model = CostModel::new(CostModelConfig::fast(featurizer.config().vector_width()), 0);
        let artifact = ModelArtifact::new(model, featurizer.config(), 7, metrics);
        let ablation = AblationReport {
            recursive_mape: 1.0,
            flat_lstm_mape: 1.2,
            concat_ffn_mape: 1.5,
            flat_lstm_relative: 1.2,
            concat_ffn_relative: 1.5,
            paper_flat_relative: 1.15,
            paper_ffn_relative: 1.39,
        };
        let fig7 = Fig7Summary {
            programs: 0,
            good_rank: 0,
        };
        let ledger = Ledger::new(
            &evaluation,
            &report,
            artifact.manifest(),
            &preds,
            fig7,
            vec![],
            ablation,
        );

        let ours = &ledger.predictors[0];
        assert_eq!(
            [ours.mape, ours.pearson, ours.spearman, ours.r2],
            [report.test_mape, report.pearson, report.spearman, report.r2]
        );
        assert_eq!(
            ours.paper[..3],
            [
                Some(report.paper_mape),
                Some(report.paper_pearson),
                Some(report.paper_spearman)
            ]
        );
        assert_eq!(ledger.per_family, report.per_family);
        let p = &ledger.provenance;
        assert_eq!(
            [
                p.epochs,
                p.num_programs,
                p.num_points,
                p.train_points,
                p.test_points
            ],
            [
                report.epochs,
                report.num_programs,
                report.num_points,
                report.train_points,
                report.test_points
            ]
        );
        assert_eq!(p.corpus_fingerprint, artifact.manifest().corpus_fingerprint);
        // Fed the same predictions, the Halide row recomputes ours.
        let halide = &ledger.predictors[1];
        assert_eq!(
            [halide.mape, halide.pearson, halide.spearman, halide.r2],
            [ours.mape, ours.pearson, ours.spearman, ours.r2]
        );
        // Every family shows, empty ones as zero points.
        assert_eq!(ledger.per_family.len(), dlcm_datagen::Pattern::ALL.len());
    }
}
