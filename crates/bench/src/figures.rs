//! FIG-4, FIG-5, FIG-7, FIG-8: the prediction-quality figures of §6,
//! drawn from the held-out predictions of one [`Evaluation`]:
//!
//! - Figure 4: predicted vs measured speedups for 100 test programs x
//!   their schedules, sorted ascending (`fig4.csv`);
//! - Figure 5: the APE histogram and APE-vs-speedup scatter
//!   (`fig5_hist.csv`, `fig5_scatter.csv`);
//! - Figure 7: per-program Pearson/Spearman coefficients (`fig7.csv`);
//! - Figure 8: 16 per-program measured/predicted scatters (`fig8.csv`);
//!
//! plus the per-family partition `accuracy.json` carries, as
//! `family_accuracy.csv`.

use std::collections::BTreeMap;

use dlcm_model::metrics;

use crate::{write_csv, AccuracyReport, Evaluation};

/// Figure 7's "good rank" cut: a test program counts as well-ranked
/// when its per-program Spearman rho strictly exceeds this. Matches the
/// paper's §6 discussion of Figure 7 (most programs rank above 0.75).
pub(crate) const FIG7_SPEARMAN_THRESHOLD: f64 = 0.75;

/// Whether a per-program Spearman clears the Figure 7 cut.
fn fig7_good_rank(spearman: f64) -> bool {
    spearman > FIG7_SPEARMAN_THRESHOLD
}

/// Figure 7's summary: how many test programs (with at least four
/// held-out points) rank with Spearman rho above 0.75.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub(crate) struct Fig7Summary {
    /// Test programs with a per-program coefficient.
    pub(crate) programs: usize,
    /// Of those, programs whose Spearman rho exceeds the cut.
    pub(crate) good_rank: usize,
}

/// Writes every figure CSV (and `family_accuracy.csv` from `report`'s
/// per-family rows) for `evaluation`'s held-out predictions.
pub(crate) fn write_figures(evaluation: &Evaluation, report: &AccuracyReport) -> Fig7Summary {
    let Evaluation { dataset, split, .. } = evaluation;
    let preds = &evaluation.test_preds;
    let programs: Vec<usize> = split
        .test
        .iter()
        .map(|&i| dataset.points[i].program)
        .collect();
    let targets: Vec<f64> = evaluation.test_set.iter().map(|s| s.target).collect();

    // ---- Figure 4: sorted predicted vs measured (subset of ~100 programs).
    let subset_programs: Vec<usize> = {
        let mut uniq: Vec<usize> = programs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        uniq.into_iter().take(100).collect()
    };
    let mut fig4: Vec<(f64, f64)> = targets
        .iter()
        .zip(preds)
        .zip(&programs)
        .filter(|(_, p)| subset_programs.contains(p))
        .map(|((&t, &p), _)| (t, p))
        .collect();
    fig4.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    write_csv(
        "fig4.csv",
        "rank,measured,predicted",
        &fig4
            .iter()
            .enumerate()
            .map(|(i, (t, p))| format!("{i},{t:.6},{p:.6}"))
            .collect::<Vec<_>>(),
    );
    println!(
        "Figure 4: {} transformed programs; measured range {:.3}..{:.3}",
        fig4.len(),
        fig4.first().map_or(0.0, |x| x.0),
        fig4.last().map_or(0.0, |x| x.0)
    );

    // ---- Figure 5 (top): APE histogram with the paper's 0.06-wide bins.
    let ape = metrics::ape(&targets, preds);
    let mut bins = [0usize; 17];
    for &e in &ape {
        let b = ((e / 0.06) as usize).min(16);
        bins[b] += 1;
    }
    write_csv(
        "fig5_hist.csv",
        "ape_bin_low,count",
        &bins
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:.2},{c}", i as f64 * 0.06))
            .collect::<Vec<_>>(),
    );
    // (bottom): APE vs measured speedup.
    write_csv(
        "fig5_scatter.csv",
        "measured_speedup,ape",
        &targets
            .iter()
            .zip(&ape)
            .map(|(&t, &e)| format!("{t:.6},{e:.6}"))
            .collect::<Vec<_>>(),
    );
    // Paper's qualitative claim: error is lower near speedup 1.
    let (near, far): (Vec<(&f64, &f64)>, Vec<_>) = targets
        .iter()
        .zip(&ape)
        .partition(|(&t, _)| (0.5..2.0).contains(&t));
    let mean = |v: &[(&f64, &f64)]| v.iter().map(|(_, &e)| e).sum::<f64>() / v.len().max(1) as f64;
    println!(
        "Figure 5: mean APE near speedup 1: {:.3}; far from 1: {:.3} (paper: error grows away from 1)",
        mean(&near),
        mean(&far)
    );

    // ---- Figures 7 & 8: per-program coefficients and scatters.
    let mut by_program: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for ((&t, &p), &prog) in targets.iter().zip(preds).zip(&programs) {
        by_program.entry(prog).or_default().push((t, p));
    }
    let mut fig7 = Vec::new();
    let mut good_rank = 0usize;
    for (prog, pts) in &by_program {
        if pts.len() < 4 {
            continue;
        }
        let (t, p): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
        let pearson = metrics::pearson(&t, &p);
        let spearman = metrics::spearman(&t, &p);
        good_rank += usize::from(fig7_good_rank(spearman));
        fig7.push(format!("{prog},{pearson:.4},{spearman:.4}"));
    }
    let summary = Fig7Summary {
        programs: fig7.len(),
        good_rank,
    };
    write_csv("fig7.csv", "program,pearson,spearman", &fig7);
    println!(
        "Figure 7: {} test programs; {good_rank} have per-program Spearman > \
         {FIG7_SPEARMAN_THRESHOLD}",
        summary.programs
    );

    let fig8: Vec<String> = by_program
        .iter()
        .take(16)
        .flat_map(|(prog, pts)| {
            pts.iter()
                .map(move |(t, p)| format!("{prog},{t:.6},{p:.6}"))
        })
        .collect();
    write_csv("fig8.csv", "program,measured,predicted", &fig8);

    // ---- Per-family breakdown: the same partition accuracy.json
    // carries, as a CSV for plotting alongside the figures.
    write_csv(
        "family_accuracy.csv",
        "family,test_points,mape,r2,spearman,ss_res",
        &report
            .per_family
            .iter()
            .map(|r| {
                format!(
                    "{},{},{:.6},{:.6},{:.6},{:.6}",
                    r.family, r.test_points, r.mape, r.r2, r.spearman, r.ss_res
                )
            })
            .collect::<Vec<_>>(),
    );
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_threshold_is_a_strict_cut_at_0_75() {
        assert_eq!(FIG7_SPEARMAN_THRESHOLD, 0.75);
        assert!(!fig7_good_rank(FIG7_SPEARMAN_THRESHOLD));
        assert!(!fig7_good_rank(0.7499));
        assert!(fig7_good_rank(0.7501));
        assert!(fig7_good_rank(1.0));
        assert!(!fig7_good_rank(f64::NAN));
    }
}
