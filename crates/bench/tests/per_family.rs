//! Per-family accuracy accounting: the partition is exact (every
//! held-out point lands in exactly one row), the aggregate metrics are
//! recoverable from the rows (MAPE as the count-weighted mean, R² via
//! the carried `ss_res` sums), row order is deterministic, and untagged
//! or unknown-tag programs fall into the `untagged` bucket instead of
//! being dropped.

use dlcm_bench::{per_family_metrics, UNTAGGED_FAMILY};
use dlcm_datagen::{
    BuildConfig, Dataset, DatasetConfig, ParallelDatasetBuilder, Pattern, ProgramGenConfig,
    ShardedDataset,
};
use dlcm_machine::{Machine, Measurement};
use dlcm_model::metrics;

fn wide_corpus(name: &str) -> Dataset {
    let dir = std::env::temp_dir().join(format!("dlcm_per_family_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = BuildConfig {
        threads: 2,
        num_shards: 2,
        ..BuildConfig::new(DatasetConfig {
            num_programs: 24,
            schedules_per_program: 6,
            progen: ProgramGenConfig {
                size_pool: vec![8, 16, 32],
                max_points: 1 << 14,
                ..ProgramGenConfig::wide()
            },
            ..DatasetConfig::tiny(23)
        })
    };
    ParallelDatasetBuilder::new(cfg)
        .write_corpus(&Measurement::new(Machine), &dir)
        .expect("write corpus");
    let dataset = ShardedDataset::open(&dir)
        .expect("open")
        .load_dataset()
        .expect("load");
    let _ = std::fs::remove_dir_all(&dir);
    dataset
}

/// Deterministic stand-in predictions: a fixed multiplicative skew so
/// every family has non-zero error without training a model.
fn fake_preds(targets: &[f64]) -> Vec<f64> {
    targets
        .iter()
        .enumerate()
        .map(|(k, t)| t * if k % 2 == 0 { 1.1 } else { 0.85 })
        .collect()
}

#[test]
fn partition_is_exact_and_recombines_to_the_aggregate() {
    let dataset = wide_corpus("recombine");
    let split = dataset.split(0);
    let targets: Vec<f64> = split
        .test
        .iter()
        .map(|&i| dataset.points[i].speedup)
        .collect();
    let preds = fake_preds(&targets);
    let rows = per_family_metrics(&dataset, &split.test, &targets, &preds);

    // Wide corpus: every program tagged, so exactly the nine family
    // rows in Pattern::ALL order, no untagged bucket.
    assert_eq!(
        rows.iter().map(|r| r.family.as_str()).collect::<Vec<_>>(),
        Pattern::ALL.iter().map(|p| p.name()).collect::<Vec<_>>()
    );
    for row in &rows {
        for v in [row.mape, row.r2, row.spearman, row.ss_res] {
            assert!(v.is_finite(), "non-finite metric in {}", row.family);
        }
    }

    // Counts partition the test set.
    let total: usize = rows.iter().map(|r| r.test_points).sum();
    assert_eq!(total, targets.len());

    // MAPE recombines as the count-weighted mean.
    let weighted: f64 = rows
        .iter()
        .map(|r| r.test_points as f64 * r.mape)
        .sum::<f64>()
        / targets.len() as f64;
    let aggregate = metrics::mape(&targets, &preds);
    assert!(
        (weighted - aggregate).abs() < 1e-12,
        "weighted per-family MAPE {weighted} != aggregate {aggregate}"
    );

    // R² recombines from the carried ss_res sums against the global
    // ss_tot.
    let n = targets.len() as f64;
    let mean = targets.iter().sum::<f64>() / n;
    let ss_tot: f64 = targets.iter().map(|t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = rows.iter().map(|r| r.ss_res).sum();
    let recombined = 1.0 - ss_res / ss_tot;
    let aggregate_r2 = metrics::r2(&targets, &preds);
    assert!(
        (recombined - aggregate_r2).abs() < 1e-12,
        "recombined R² {recombined} != aggregate {aggregate_r2}"
    );
}

#[test]
fn untagged_and_unknown_tags_fall_into_the_catch_all_bucket() {
    let mut dataset = wide_corpus("untagged");
    let split = dataset.split(0);
    let targets: Vec<f64> = split
        .test
        .iter()
        .map(|&i| dataset.points[i].speedup)
        .collect();
    let preds = fake_preds(&targets);

    // All-None families: nine zero rows plus one untagged row holding
    // everything.
    dataset.families = vec![None; dataset.programs.len()];
    let rows = per_family_metrics(&dataset, &split.test, &targets, &preds);
    assert_eq!(rows.len(), Pattern::ALL.len() + 1);
    for row in &rows[..Pattern::ALL.len()] {
        assert_eq!(row.test_points, 0);
        assert_eq!(
            (row.mape, row.r2, row.spearman, row.ss_res),
            (0.0, 0.0, 0.0, 0.0)
        );
    }
    let last = rows.last().unwrap();
    assert_eq!(last.family, UNTAGGED_FAMILY);
    assert_eq!(last.test_points, targets.len());

    // A tag this build does not know (future family, corrupted shard)
    // routes to untagged rather than silently dropping points.
    dataset.families = vec![Some("warp_shuffle".to_string()); dataset.programs.len()];
    let rows = per_family_metrics(&dataset, &split.test, &targets, &preds);
    assert_eq!(rows.last().unwrap().family, UNTAGGED_FAMILY);
    assert_eq!(rows.last().unwrap().test_points, targets.len());
}

#[test]
fn per_family_rows_are_deterministic() {
    let dataset = wide_corpus("deterministic");
    let split = dataset.split(0);
    let targets: Vec<f64> = split
        .test
        .iter()
        .map(|&i| dataset.points[i].speedup)
        .collect();
    let preds = fake_preds(&targets);
    let a = per_family_metrics(&dataset, &split.test, &targets, &preds);
    let b = per_family_metrics(&dataset, &split.test, &targets, &preds);
    assert_eq!(a, b);
}
