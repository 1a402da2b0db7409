//! `compare A.json B.json`: one row per (workload, end-to-end metric),
//! with A as the base.
//!
//! A metric *breaches* when B's value is worse than A's by more than the
//! metric's bound. It is *unresolved* when it does not breach but the
//! spread of either run (`Summary::spread`: how far the bulk of the run's
//! repetitions sits from the reported value) exceeds the bound: then the
//! two values cannot be told apart and "unchanged" is not a finding.

use crate::report::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::runner::ResultFile;
use crate::stats::Summary;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A, and the spread is inside it too.
    Within,
    /// B is within the bound of A, but the runs are too noisy to say so.
    Unresolved,
    /// B is worse than A by more than the bound.
    Breach,
}

/// Share by which `b` is worse than `a` (negative when it is better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges one metric of one workload.
pub fn verdict(def: &MetricDef, a: &Summary, b: &Summary) -> Verdict {
    if worsening(def, a.value, b.value) > def.bound {
        Verdict::Breach
    } else if a.spread().max(b.spread()) > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(false)` on any breach, on a raised failure
/// ratio, or when B lacks a run A has.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("base A = {path_a} ({})", a.env.git_commit);
    println!("     B = {path_b} ({})", b.env.git_commit);
    println!(
        "{:<15} {:<12} {:>52} {:>52} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "A value (q1 / median / q3)",
        "B value (q1 / median / q3)",
        "B/A",
        "bound"
    );
    let mut ok = true;
    for workload in &WORKLOADS {
        let Some(run_a) = a.run(workload.name, false) else {
            continue;
        };
        let Some(run_b) = b.run(workload.name, false) else {
            println!("{:<15} missing from B", workload.name);
            ok = false;
            continue;
        };
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (run_a.metrics.get(def.name), run_b.metrics.get(def.name))
            else {
                println!("{:<15} {:<12} missing", workload.name, def.name);
                ok = false;
                continue;
            };
            let verdict = verdict(def, sa, sb);
            ok &= verdict != Verdict::Breach;
            let quartiles = |s: &Summary| {
                format!(
                    "{:.4} ({:.4} / {:.4} / {:.4})",
                    s.value, s.q1, s.median, s.q3
                )
            };
            println!(
                "{:<15} {:<12} {:>52} {:>52} {:>9.4} {:>6.2}  {}",
                workload.name,
                def.name,
                quartiles(sa),
                quartiles(sb),
                sb.value / sa.value,
                def.bound,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Unresolved => "UNRESOLVED (spread exceeds bound)",
                    Verdict::Breach => "BREACH",
                }
            );
        }
        // Failures over attempts, both modes together: any rise fails.
        let ratio = |file: &ResultFile| {
            let (failed, attempted) = file
                .runs
                .iter()
                .filter(|r| r.workload == workload.name)
                .fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted));
            failed as f64 / attempted.max(1) as f64
        };
        let (fa, fb) = (ratio(&a), ratio(&b));
        let raised = fb > fa;
        ok &= !raised;
        println!(
            "{:<15} {:<12} {:>52.6} {:>52.6} {:>9} {:>6}  {}",
            workload.name,
            "failed_ratio",
            fa,
            fb,
            "",
            0,
            if raised { "RAISED" } else { "not raised" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "t",
            unit: "us",
            better: Better::Lower,
            bound,
        }
    }

    #[test]
    fn worse_by_more_than_the_bound_breaches_in_the_metric_s_direction() {
        let def = lower(0.10);
        let a = Summary::exact(100.0, 5);
        assert_eq!(
            verdict(&def, &a, &Summary::exact(109.0, 5)),
            Verdict::Within
        );
        assert_eq!(
            verdict(&def, &a, &Summary::exact(111.0, 5)),
            Verdict::Breach
        );
        assert_eq!(verdict(&def, &a, &Summary::exact(50.0, 5)), Verdict::Within);
        let higher = MetricDef {
            better: Better::Higher,
            ..def
        };
        assert_eq!(
            verdict(&higher, &a, &Summary::exact(89.0, 5)),
            Verdict::Breach
        );
        assert_eq!(
            verdict(&higher, &a, &Summary::exact(150.0, 5)),
            Verdict::Within
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let def = lower(0.10);
        let steady = Summary::exact(100.0, 5);
        let noisy = Summary {
            value: 101.0,
            n: 5,
            q1: 90.0,
            median: 101.0,
            q3: 110.0,
        };
        assert_eq!(verdict(&def, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(&def, &noisy, &steady), Verdict::Unresolved);
    }
}
