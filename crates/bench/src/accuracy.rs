//! The accuracy report: held-out metrics partitioned by scenario family
//! and the `accuracy.json` schema built from them.

use dlcm_datagen::{Dataset, Pattern};
use dlcm_model::metrics;

use crate::Evaluation;

/// Name of the catch-all per-family bucket: held-out points whose
/// program carries no family tag (legacy corpora built before family
/// accounting, or serving-tier captures of unknown provenance), plus
/// tags this build does not recognize.
pub const UNTAGGED_FAMILY: &str = "untagged";

/// One scenario family's slice of the held-out metrics.
///
/// Rows for all nine generator families are always emitted — zero-point
/// rows keep the report shape independent of which families the corpus
/// config enabled — followed by an [`UNTAGGED_FAMILY`] row only when
/// untagged points exist. `ss_res` (the raw squared-error sum) is
/// carried so the aggregate R² is exactly recoverable from the rows:
/// `R² = 1 − Σ_f ss_res_f / ss_tot`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FamilyMetrics {
    /// Family name ([`dlcm_datagen::Pattern::name`] or
    /// [`UNTAGGED_FAMILY`]).
    pub family: String,
    /// Held-out test points whose program belongs to this family.
    pub test_points: usize,
    /// Mean Absolute Percentage Error over the family's points (0 when
    /// empty).
    pub mape: f64,
    /// R² over the family's points (0 when empty or degenerate).
    pub r2: f64,
    /// Spearman rank correlation over the family's points (0 when
    /// empty or degenerate).
    pub spearman: f64,
    /// Σ (target − prediction)² over the family's points.
    pub ss_res: f64,
}

fn family_row(family: String, targets: &[f64], preds: &[f64]) -> FamilyMetrics {
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    let ss_res: f64 = targets
        .iter()
        .zip(preds)
        .map(|(t, p)| (t - p) * (t - p))
        .sum();
    FamilyMetrics {
        family,
        test_points: targets.len(),
        mape: if targets.is_empty() {
            0.0
        } else {
            finite(metrics::mape(targets, preds))
        },
        r2: finite(metrics::r2(targets, preds)),
        spearman: finite(metrics::spearman(targets, preds)),
        // A sum of squares is non-negative; abs() only normalizes the
        // empty sum's -0.0 identity so reports never print "-0".
        ss_res: finite(ss_res.abs()),
    }
}

/// Partitions held-out predictions by the owning program's scenario
/// family and scores each slice.
///
/// `test_indices[k]` is the dataset point behind `targets[k]` /
/// `preds[k]`; the point's program index selects the family from
/// [`Dataset::families`]. Row order is deterministic:
/// [`dlcm_datagen::Pattern::ALL`] order, then [`UNTAGGED_FAMILY`] last
/// (only when non-empty). The partition is exact — every test point
/// lands in exactly one row, so `Σ_f test_points_f` equals the
/// aggregate count and `Σ_f test_points_f · mape_f` recombines to the
/// aggregate MAPE.
pub fn per_family_metrics(
    dataset: &Dataset,
    test_indices: &[usize],
    targets: &[f64],
    preds: &[f64],
) -> Vec<FamilyMetrics> {
    assert_eq!(test_indices.len(), targets.len(), "length mismatch");
    assert_eq!(test_indices.len(), preds.len(), "length mismatch");
    let mut buckets: Vec<(&str, Vec<f64>, Vec<f64>)> = Pattern::ALL
        .iter()
        .map(|p| (p.name(), Vec::new(), Vec::new()))
        .collect();
    let mut untagged: (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for (k, &pi) in test_indices.iter().enumerate() {
        let program = dataset.points[pi].program;
        let family = dataset.families[program].as_deref();
        match family.and_then(|name| buckets.iter_mut().find(|(b, _, _)| *b == name)) {
            Some((_, t, p)) => {
                t.push(targets[k]);
                p.push(preds[k]);
            }
            None => {
                untagged.0.push(targets[k]);
                untagged.1.push(preds[k]);
            }
        }
    }
    let mut rows: Vec<FamilyMetrics> = buckets
        .into_iter()
        .map(|(family, t, p)| family_row(family.to_string(), &t, &p))
        .collect();
    if !untagged.0.is_empty() {
        rows.push(family_row(
            UNTAGGED_FAMILY.to_string(),
            &untagged.0,
            &untagged.1,
        ));
    }
    rows
}

/// The `accuracy.json` schema `modelctl eval` writes: §6 headline
/// metrics beside the paper's, plus the per-family breakdown.
#[derive(Debug, Clone, serde::Serialize)]
pub struct AccuracyReport {
    /// Distinct programs in the corpus.
    pub(crate) num_programs: usize,
    /// Labeled points in the corpus.
    pub(crate) num_points: usize,
    /// Training epochs behind the evaluated weights.
    pub(crate) epochs: usize,
    /// Points in the training split.
    pub(crate) train_points: usize,
    /// Points in the held-out test split.
    pub test_points: usize,
    /// Held-out MAPE.
    pub test_mape: f64,
    /// Held-out Pearson r.
    pub pearson: f64,
    /// Held-out Spearman rho.
    pub spearman: f64,
    /// Held-out R².
    pub r2: f64,
    /// Paper's reported MAPE (16%).
    pub paper_mape: f64,
    /// Paper's reported Pearson r (0.90).
    pub paper_pearson: f64,
    /// Paper's reported Spearman rho (0.95).
    pub paper_spearman: f64,
    /// Held-out metrics partitioned by scenario family.
    pub per_family: Vec<FamilyMetrics>,
}

/// Builds the shared [`AccuracyReport`] for weights trained for
/// `epochs` epochs.
pub fn accuracy_report(evaluation: &Evaluation, epochs: usize) -> AccuracyReport {
    let (dataset, split) = (evaluation.corpus.dataset(), &evaluation.corpus.split);
    let held_out = &evaluation.metrics;
    let targets = evaluation.targets();
    AccuracyReport {
        num_programs: dataset.programs.len(),
        num_points: dataset.len(),
        epochs,
        train_points: split.train.len(),
        test_points: held_out.test_points,
        test_mape: held_out.mape,
        pearson: held_out.pearson,
        spearman: held_out.spearman,
        r2: held_out.r2,
        paper_mape: 0.16,
        paper_pearson: 0.90,
        paper_spearman: 0.95,
        per_family: per_family_metrics(dataset, &split.test, &targets, &evaluation.test_preds),
    }
}
