//! Quickstart: build the paper's §2 convolution, apply the §2 example
//! schedule, verify it preserves semantics with the reference
//! interpreter, and measure its speedup on the simulated machine.
//!
//! Run with: `cargo run --release --example quickstart`

use dlcm::ir::{
    apply_schedule, interpret, interpret_baseline, max_relative_error, synthetic_inputs, BinOp,
    CompId, Expr, LinExpr, ProgramBuilder, Schedule, Transform,
};
use dlcm::machine::{Machine, Measurement};

fn main() {
    // --- The §2 running example: a direct convolution --------------------
    let (batch, cin, cout, h, w) = (4, 3, 8, 130, 130);
    let mut b = ProgramBuilder::new("conv");
    let n = b.iter("n", 0, batch);
    let fout = b.iter("fout", 0, cout);
    let y = b.iter("y", 0, h - 2);
    let x = b.iter("x", 0, w - 2);
    let fin = b.iter("fin", 0, cin);
    let k0 = b.iter("k0", 0, 3);
    let k1 = b.iter("k1", 0, 3);
    let input = b.input("input", &[batch, cin, h, w]);
    let weights = b.input("weights", &[cout, cin, 3, 3]);
    let conv = b.buffer("conv", &[batch, cout, h - 2, w - 2]);
    let iters = [n, fout, y, x, fin, k0, k1];
    let w_acc = b.access(
        weights,
        &[fout.into(), fin.into(), k0.into(), k1.into()],
        &iters,
    );
    let i_acc = b.access(
        input,
        &[
            n.into(),
            fin.into(),
            LinExpr::from(y) + LinExpr::from(k0),
            LinExpr::from(x) + LinExpr::from(k1),
        ],
        &iters,
    );
    b.reduce(
        "conv",
        &iters,
        BinOp::Add,
        conv,
        &[n.into(), fout.into(), y.into(), x.into()],
        Expr::binary(BinOp::Mul, Expr::Load(w_acc), Expr::Load(i_acc)),
    );
    let program = b.build().expect("valid program");
    println!("{program}");

    // --- The §2 example transformations -----------------------------------
    // Interchange hoists the reduction loops (fin, k0, k1) out so the wide
    // x loop is innermost (levels refer to the loops' *original* nesting
    // positions: n=0, fout=1, y=2, x=3, fin=4, k0=5, k1=6), then tile y/x,
    // parallelize the batch loop, vectorize the innermost tile, and unroll.
    let c = CompId(0);
    let schedule = Schedule::new(vec![
        Transform::Interchange {
            comp: c,
            level_a: 2,
            level_b: 4,
        },
        Transform::Interchange {
            comp: c,
            level_a: 3,
            level_b: 5,
        },
        Transform::Interchange {
            comp: c,
            level_a: 2,
            level_b: 6,
        },
        Transform::Interchange {
            comp: c,
            level_a: 2,
            level_b: 3,
        },
        Transform::Tile {
            comp: c,
            level_a: 2,
            level_b: 3,
            size_a: 32,
            size_b: 32,
        },
        Transform::Parallelize { comp: c, level: 0 },
        Transform::Vectorize { comp: c, factor: 8 },
        Transform::Unroll { comp: c, factor: 3 },
    ]);
    println!("schedule: {}", schedule.describe());

    let scheduled = apply_schedule(&program, &schedule).expect("legal schedule");

    // --- Semantics check via the reference interpreter --------------------
    let inputs = synthetic_inputs(&program, 42);
    let base_out = interpret_baseline(&program, &inputs).expect("interpretable");
    let opt_out = interpret(&scheduled, &inputs).expect("interpretable");
    let err = max_relative_error(&base_out, &opt_out);
    println!("max relative output difference vs baseline: {err:.2e}");
    assert!(err < 1e-4, "schedule must preserve semantics");

    // --- Performance on the simulated Xeon --------------------------------
    let harness = Measurement::new(Machine);
    let t_base = harness
        .measure_schedule(&program, &Schedule::empty(), 0)
        .expect("legal");
    let t_opt = harness
        .measure_schedule(&program, &schedule, 0)
        .expect("legal");
    println!("baseline : {:.3} ms", t_base * 1e3);
    println!("optimized: {:.3} ms", t_opt * 1e3);
    println!("speedup  : {:.2}x", t_base / t_opt);
}
