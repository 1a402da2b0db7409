//! Autoschedule paper benchmarks with beam search driven by ground-truth
//! (simulated) execution — the paper's BSE reference configuration — and
//! print the discovered schedules and their speedups over the §6 baseline
//! (outermost loop parallelized).
//!
//! Run with: `cargo run --release --example autoschedule_benchmarks [scale]`

use dlcm::benchsuite;
use dlcm::eval::ParallelEvaluator;
use dlcm::ir::apply_schedule;
use dlcm::machine::{parallel_baseline, Machine, Measurement};
use dlcm::search::{BeamSearch, SearchSpace};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let harness = Measurement::new(Machine);
    let space = SearchSpace {
        tile_sizes: vec![32, 64, 128],
        unroll_factors: vec![2, 4, 8],
    };

    println!(
        "{:<14} {:>9} {:>8} {:>12}  schedule",
        "benchmark", "speedup", "evals", "search(s)"
    );
    for bench in benchsuite::suite() {
        let program = (bench.build)(scale);
        let mut evaluator = ParallelEvaluator::new(harness.clone(), 0, 1);
        let result = BeamSearch::new(4, space.clone()).search(&program, &mut evaluator);
        assert!(apply_schedule(&program, &result.schedule).is_ok());

        // Report vs the paper's §6 baseline: outermost parallelized.
        let baseline = parallel_baseline(&program);
        let t_base = harness
            .measure_schedule(&program, &baseline, 1)
            .expect("baseline is legal");
        let t_opt = harness
            .measure_schedule(&program, &result.schedule, 1)
            .expect("result is legal");
        println!(
            "{:<14} {:>8.2}x {:>8} {:>12.1}  {}",
            bench.name,
            t_base / t_opt,
            result.stats.num_evals,
            result.stats.search_time,
            result.schedule.describe()
        );
    }
}
