//! The suite sweep's concurrency contract at the library level: the full
//! §6 suite swept through the concurrent driver must produce
//! **byte-equal** Figure 6 / Table 2 rows at any search-thread count.
//! (CI enforces the same property on `modelctl reproduce` by diffing its
//! outputs across `--threads` settings; this test keeps the guarantee in
//! `cargo test` without needing the trained model artifact — execution
//! evaluators stand in for the model roles.)

use dlcm_eval::{Evaluator, ParallelEvaluator, SharedCachedEvaluator};
use dlcm_ir::Schedule;
use dlcm_machine::parallel_baseline;
use dlcm_search::{BeamSearch, Mcts, SearchDriver, SearchJob, SearchSpace, SearchSpec};

fn exec_model(_role: usize) -> Box<dyn Evaluator> {
    Box::new(ParallelEvaluator::new(dlcm_bench::harness(), 0, 1))
}

/// A scaled-down suite sweep: MCTS first, then BSE, per benchmark, through
/// one shared cache; Figure 6 speedups and Table 2 ratios as CSV rows,
/// at four and one decimals.
fn suite_rows(search_threads: usize, eval_threads: usize) -> (Vec<String>, Vec<String>) {
    let space = SearchSpace {
        tile_sizes: vec![16, 32],
        unroll_factors: vec![4],
    };
    let harness = dlcm_bench::harness();
    let suite = dlcm_benchsuite::suite();
    let jobs: Vec<SearchJob> = suite
        .iter()
        .map(|bench| SearchJob {
            program: (bench.build)(0.1),
            specs: vec![
                SearchSpec::Mcts {
                    search: Mcts {
                        iterations: 10,
                        space: space.clone(),
                        ..Mcts::default()
                    },
                    role: 0,
                },
                SearchSpec::BeamExec(BeamSearch::new(2, space.clone())),
            ],
        })
        .collect();
    let shared =
        SharedCachedEvaluator::new(ParallelEvaluator::new(harness.clone(), 0, eval_threads));
    let results = SearchDriver::new(search_threads).run_suite(&jobs, &shared, &exec_model);

    let mut fig_rows = Vec::new();
    let mut table_rows = Vec::new();
    for ((bench, job), searches) in suite.iter().zip(&jobs).zip(&results) {
        let mcts = &searches[0];
        let bse = &searches[1];
        let baseline = parallel_baseline(&job.program);
        let t_base = harness
            .measure_schedule(&job.program, &baseline, 1)
            .expect("baseline legal");
        let measured = |s: &Schedule| {
            t_base
                / harness
                    .measure_schedule(&job.program, s, 1)
                    .expect("legal schedule")
        };
        let bse_speedup = measured(&bse.schedule);
        let mcts_speedup = measured(&mcts.schedule);
        let accel = bse.stats.search_time / mcts.stats.search_time.max(1e-9);
        fig_rows.push(format!("{},{bse_speedup:.4},{mcts_speedup:.4}", bench.name));
        table_rows.push(format!("{},{accel:.1}", bench.name));
    }
    (fig_rows, table_rows)
}

#[test]
fn suite_csv_rows_are_byte_identical_at_any_search_thread_count() {
    let (fig_ref, table_ref) = suite_rows(1, 1);
    assert_eq!(fig_ref.len(), 10, "the whole §6 suite");
    for (search_threads, eval_threads) in [(4, 1), (4, 2)] {
        let (fig, table) = suite_rows(search_threads, eval_threads);
        assert_eq!(
            fig, fig_ref,
            "fig6-style rows changed at search_threads={search_threads}"
        );
        assert_eq!(
            table, table_ref,
            "table2-style rows changed at search_threads={search_threads}"
        );
    }
}
