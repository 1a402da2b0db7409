//! What the search asks the allocator for, counted with a global
//! allocator — hence a test binary of its own. Blocks are counted per
//! thread, and everything measured here runs on the test's own thread.
//!
//! A search tries thousands of transforms, about half of them rejected,
//! and carries a legality state per candidate. So a rejection allocates
//! nothing, a state copies in a constant number of blocks whatever the
//! size of its loop nest, applying a schedule allocates no more than
//! validating it, and one search allocates within a recorded budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dlcm::benchsuite;
use dlcm::eval::{Evaluator, ModelEvaluator, ParallelEvaluator, SharedCachedEvaluator};
use dlcm::ir::{
    apply_schedule, BinOp, CompId, Expr, LegalPrefix, Legality, LinExpr, Program, ProgramBuilder,
    Schedule, Transform,
};
use dlcm::machine::{parallel_baseline, Measurement};
use dlcm::model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};
use dlcm::search::{BeamSearch, Mcts, SearchDriver, SearchJob, SearchSpace, SearchSpec};

/// Counts every block handed out or moved on the calling thread.
struct Counting;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the blocks it allocated.
fn blocks<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (out, BLOCKS.with(Cell::get) - before)
}

/// `out[i][j] = out[i-1][j+1] + 1` (distance `(1, -1)` on `c0`), then
/// `c1` / `c2` under one shared outer loop, then a 1-D scan `c3`: a
/// program on which every kind of rejection below occurs.
fn program() -> Program {
    let mut b = ProgramBuilder::new("rejections");
    let i = b.iter("i", 1, 15);
    let j = b.iter("j", 1, 15);
    let out = b.buffer("out", &[16, 16]);
    let load = b.access(out, &[LinExpr::from(i) - 1, LinExpr::from(j) + 1], &[i, j]);
    b.assign(
        "c0",
        &[i, j],
        out,
        &[i.into(), j.into()],
        Expr::binary(BinOp::Add, Expr::Load(load), Expr::Const(1.0)),
    );
    let a = b.iter("a", 0, 8);
    let k = b.iter("k", 0, 8);
    let l = b.iter("l", 0, 8);
    let acc = b.buffer("acc", &[8, 8]);
    let acc2 = b.buffer("acc2", &[8, 8]);
    b.assign("c1", &[a, k], acc, &[a.into(), k.into()], Expr::Const(1.0));
    b.assign("c2", &[a, l], acc2, &[a.into(), l.into()], Expr::Const(2.0));
    let x = b.iter("x", 1, 16);
    let scan = b.buffer("scan", &[16]);
    let prev = b.access(scan, &[LinExpr::from(x) - 1], &[x]);
    b.assign("c3", &[x], scan, &[x.into()], Expr::Load(prev));
    b.build().unwrap()
}

/// A pointwise copy over a `depth`-deep nest of extent-4 loops.
fn nest(depth: usize) -> Program {
    let mut b = ProgramBuilder::new("nest");
    let iters: Vec<_> = (0..depth).map(|d| b.iter(format!("i{d}"), 0, 4)).collect();
    let dims = vec![4; depth];
    let index: Vec<LinExpr> = iters.iter().map(|&it| it.into()).collect();
    let inp = b.input("in", &dims);
    let out = b.buffer("out", &dims);
    let load = b.access(inp, &index, &iters);
    b.assign("c", &iters, out, &index, Expr::Load(load));
    b.build().unwrap()
}

/// Every rejection but two allocates nothing: a reversed dependence
/// carries its distance vector for the message, and the fusion check
/// solves access pairs it collects first.
#[test]
fn a_rejected_extension_allocates_nothing() {
    let p = program();
    let legality = Legality::new(&p);
    let (c0, c1, c3) = (CompId(0), CompId(1), CompId(3));
    let mut state = legality
        .prefix(&Schedule::new(vec![Transform::Unroll {
            comp: c3,
            factor: 2,
        }]))
        .unwrap();
    // The dependence analysis runs once, on the first transform that
    // reads it; run it before counting.
    let _ = legality.extend(
        &mut state.clone(),
        &Transform::Parallelize { comp: c1, level: 0 },
    );
    let tile = |comp, level_a, level_b, size_a, size_b| Transform::Tile {
        comp,
        level_a,
        level_b,
        size_a,
        size_b,
    };
    let rejected = [
        // NonCanonical: a tile after an unroll.
        tile(c0, 0, 1, 2, 2),
        Transform::Unroll {
            comp: CompId(9),
            factor: 2,
        },
        Transform::Parallelize { comp: c0, level: 5 },
        Transform::Unroll {
            comp: c0,
            factor: 64,
        },
        Transform::Vectorize {
            comp: c1,
            factor: 1,
        },
        Transform::Unroll {
            comp: c3,
            factor: 4,
        },
        Transform::Parallelize { comp: c0, level: 0 },
        Transform::Vectorize {
            comp: c3,
            factor: 4,
        },
    ];
    for t in &rejected {
        let (verdict, allocated) = blocks(|| legality.extend(&mut state, t));
        assert!(verdict.is_err(), "{} must be rejected", t.describe());
        assert_eq!(allocated, 0, "rejecting {}: {verdict:?}", t.describe());
    }
    // Structural rejections before any tag: not adjacent, bad size,
    // branching chain, band not permutable, fusion preconditions.
    let mut state = legality.root();
    let structural = [
        tile(c0, 1, 0, 2, 2),
        tile(c0, 0, 1, 2, 32),
        tile(c1, 0, 1, 2, 2),
        tile(c0, 0, 1, 2, 2),
        Transform::Fuse {
            comp: c1,
            with: c0,
            depth: 1,
        },
        Transform::Fuse {
            comp: c1,
            with: c0,
            depth: 3,
        },
        Transform::Fuse {
            comp: CompId(2),
            with: c1,
            depth: 1,
        },
    ];
    for t in &structural {
        let (verdict, allocated) = blocks(|| legality.extend(&mut state, t));
        assert!(verdict.is_err(), "{} must be rejected", t.describe());
        assert_eq!(allocated, 0, "rejecting {}: {verdict:?}", t.describe());
    }
}

/// A state is a few flat tables: copying one costs the same blocks on a
/// 2-deep and on a 9-deep nest, tiled or not.
#[test]
fn cloning_a_prefix_costs_the_same_on_any_nest() {
    let clone_blocks = |state: &LegalPrefix| blocks(|| state.clone()).1;
    let mut counts = Vec::new();
    for depth in [2, 9] {
        let p = nest(depth);
        let legality = Legality::new(&p);
        let tiled = legality
            .prefix(&Schedule::new(vec![
                Transform::Interchange {
                    comp: CompId(0),
                    level_a: 0,
                    level_b: 1,
                },
                Transform::Tile {
                    comp: CompId(0),
                    level_a: 1,
                    level_b: 0,
                    size_a: 2,
                    size_b: 2,
                },
            ]))
            .unwrap();
        counts.push(clone_blocks(&legality.root()));
        counts.push(clone_blocks(&tiled));
    }
    assert!(
        counts.iter().all(|&c| c == counts[0]) && counts[0] <= 3,
        "blocks per clone (2-deep, 2-deep tiled, 9-deep, 9-deep tiled): {counts:?}"
    );
}

/// A scheduled program is the validated prefix over the borrowed
/// program: `apply_schedule` allocates exactly the blocks of a cold
/// `Legality::prefix` of the same schedule — no copy of the program, no
/// boxed loop tree, no alias map.
#[test]
fn applying_a_schedule_allocates_what_validating_it_does() {
    for bench in benchsuite::suite() {
        let p = (bench.build)(0.1);
        for schedule in [Schedule::empty(), parallel_baseline(&p)] {
            let (applied, applying) = blocks(|| apply_schedule(&p, &schedule).is_ok());
            let (validated, validating) = blocks(|| Legality::new(&p).prefix(&schedule).is_ok());
            assert!(
                applied && validated,
                "{}: [{}]",
                bench.name,
                schedule.describe()
            );
            assert_eq!(
                applying,
                validating,
                "{}: [{}]",
                bench.name,
                schedule.describe()
            );
        }
    }
}

/// Blocks the search below allocated before states were carried, when
/// every expansion and finalization replayed its candidate's schedule
/// into a boxed loop tree and each search built its own model evaluator
/// (7 056 since).
const REPLAYING_BLOCKS: usize = 78_082;

/// The same search through the driver (one job, one model evaluator),
/// seeded like the tier-1 golden, must stay within a third of that.
#[test]
fn one_search_stays_within_a_third_of_the_replaying_blocks() {
    let program = (benchsuite::suite()[1].build)(0.1);
    let space = SearchSpace {
        tile_sizes: vec![8, 32, 128],
        unroll_factors: vec![4, 16],
    };
    let jobs = [SearchJob {
        program,
        specs: vec![
            SearchSpec::Mcts {
                search: Mcts {
                    iterations: 48,
                    space: space.clone(),
                    seed: 17,
                },
                role: 0,
            },
            SearchSpec::BeamModel {
                search: BeamSearch::new(3, space),
                role: 0,
            },
        ],
    }];
    let featurizer = Featurizer::new(FeaturizerConfig::default());
    let model = CostModel::new(
        CostModelConfig::fast(FeaturizerConfig::default().vector_width()),
        0,
    );
    let factory = |_role: usize| -> Box<dyn Evaluator + '_> {
        Box::new(ModelEvaluator::new(&model, featurizer.clone()).with_simulated_cost(0.004))
    };
    let exec = SharedCachedEvaluator::new(ParallelEvaluator::new(Measurement::default(), 0, 1));
    let (results, allocated) = blocks(|| SearchDriver::new(1).run_suite(&jobs, &exec, &factory));
    assert_eq!(results[0].len(), 2);
    assert!(
        allocated * 3 <= REPLAYING_BLOCKS,
        "{allocated} blocks, budget {}",
        REPLAYING_BLOCKS / 3
    );
}
