//! Integration tests over the paper's benchmark suite: the simulated
//! machine and the search behave sensibly on the real workloads of §6.

use dlcm::benchsuite::{self, Category};
use dlcm::eval::ParallelEvaluator;
use dlcm::ir::{apply_schedule, Schedule};
use dlcm::machine::{parallel_baseline, Machine, Measurement};
use dlcm::search::{BeamSearch, SearchSpace};

#[test]
fn every_benchmark_is_measurable_at_paper_scale() {
    let machine = Machine;
    for bench in benchsuite::suite() {
        let p = (bench.build)(1.0);
        let sp = apply_schedule(&p, &Schedule::empty()).expect("baseline schedulable");
        let t = machine.execute(&sp);
        assert!(
            t.is_finite() && t > 0.0,
            "{} must have a positive finite time, got {t}",
            bench.name
        );
    }
}

#[test]
fn parallel_baseline_speeds_up_parallel_friendly_benchmarks() {
    let harness = Measurement::exact(Machine);
    for bench in benchsuite::suite() {
        let p = (bench.build)(0.5);
        let baseline = parallel_baseline(&p);
        if bench.name == "seidel2d" {
            // In-place Gauss–Seidel: only the init computation can go
            // parallel; the sweep cannot.
            assert!(baseline.len() < p.num_comps());
            continue;
        }
        assert!(!baseline.is_empty(), "{} should parallelize", bench.name);
        let t_serial = harness.measure_schedule(&p, &Schedule::empty(), 0).unwrap();
        let t_par = harness.measure_schedule(&p, &baseline, 0).unwrap();
        assert!(
            t_par < t_serial,
            "{}: parallel baseline should help ({t_par} vs {t_serial})",
            bench.name
        );
    }
}

#[test]
fn beam_search_improves_over_parallel_baseline_on_most_benchmarks() {
    let harness = Measurement::exact(Machine);
    let space = SearchSpace {
        tile_sizes: vec![32, 64],
        unroll_factors: vec![4],
    };
    let mut improved = 0;
    let mut total = 0;
    for bench in benchsuite::suite() {
        // Large benches are slow through full beam search in debug builds;
        // use a reduced scale.
        let p = (bench.build)(0.12);
        let mut ev = ParallelEvaluator::new(harness.clone(), 0, 1);
        let result = BeamSearch::new(3, space.clone()).search(&p, &mut ev);
        let t_base = harness
            .measure_schedule(&p, &parallel_baseline(&p), 0)
            .unwrap();
        let t_opt = harness.measure_schedule(&p, &result.schedule, 0).unwrap();
        total += 1;
        if t_opt <= t_base * 1.001 {
            improved += 1;
        }
    }
    assert!(
        improved >= total - 2,
        "search should match or beat the baseline almost everywhere: {improved}/{total}"
    );
}

#[test]
fn stencil_benchmarks_are_the_hard_parallel_cases() {
    // The §6 story: scientific stencils carry dependences that constrain
    // scheduling. Verify our dependence analysis sees them.
    for bench in benchsuite::suite() {
        if bench.category != Category::Stencil {
            continue;
        }
        let p = (bench.build)(0.1);
        let deps = dlcm::ir::deps::analyze(&p);
        if bench.name == "seidel2d" {
            assert!(
                deps.iter().any(|d| d
                    .distance
                    .as_ref()
                    .is_some_and(|v| v.iter().any(|c| !c.is_zero()))),
                "seidel2d must carry loop dependences"
            );
        }
    }
}

#[test]
fn conv_relu_fusion_is_found_and_profitable() {
    let p = benchsuite::conv_relu(0.2);
    let harness = Measurement::exact(Machine);
    let unfused = harness.measure_schedule(&p, &Schedule::empty(), 0).unwrap();
    let fuse = Schedule::new(vec![dlcm::ir::Transform::Fuse {
        comp: dlcm::ir::CompId(1),
        with: dlcm::ir::CompId(0),
        depth: 4,
    }]);
    let fused = harness.measure_schedule(&p, &fuse, 0).unwrap();
    assert!(
        fused < unfused,
        "fusing relu into conv should cut intermediate traffic: {fused} vs {unfused}"
    );
}
