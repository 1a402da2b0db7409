//! The in-memory keys (`Program::cache_key`, `Schedule::cache_key`)
//! against the persisted fingerprints they stand in for: the same
//! equality classes, name-insensitive, sensitive to every structural
//! field, and pinned so that a change of hasher is a deliberate one.

use dlcm_ir::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded draw from a deliberately small space (two extents, two
/// constants, two operators, optional reduction), so that the set holds
/// both equal-content programs under different names and near misses.
fn drawn_program(rng: &mut ChaCha8Rng, index: usize) -> Program {
    let n = rng.gen_range(8i64..10);
    let m = rng.gen_range(8i64..10);
    let shift = rng.gen_range(0i64..2);
    let constant = if rng.gen_bool(0.5) { 1.0 } else { -0.0 };
    let op = if rng.gen_bool(0.5) {
        BinOp::Add
    } else {
        BinOp::Max
    };
    let reduce = rng.gen_bool(0.5);
    let mut b = ProgramBuilder::new(format!("drawn_{index}"));
    let i = b.iter("i", 0, n);
    let j = b.iter("j", 0, m);
    let inp = b.input("in", &[n, m + 1]);
    let acc = b.access(inp, &[i.into(), LinExpr::from(j) + shift], &[i, j]);
    let body = Expr::binary(op, Expr::Load(acc), Expr::Const(constant));
    if reduce {
        let out = b.buffer("out", &[n]);
        b.reduce("c", &[i, j], op, out, &[i.into()], body);
    } else {
        let out = b.buffer("out", &[n, m]);
        b.assign("c", &[i, j], out, &[i.into(), j.into()], body);
    }
    b.build().unwrap()
}

fn corpus() -> Vec<Program> {
    let mut programs: Vec<Program> = Vec::new();
    for scale in [0.05, 0.1] {
        programs.extend(dlcm_benchsuite::suite().iter().map(|b| (b.build)(scale)));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0x6b65_7973);
    programs.extend((0..96).map(|i| drawn_program(&mut rng, i)));
    programs
}

#[test]
fn program_keys_share_the_fingerprints_equality_classes() {
    let programs = corpus();
    let keys: Vec<u64> = programs.iter().map(Program::cache_key).collect();
    let fps: Vec<u64> = programs.iter().map(Program::content_fingerprint).collect();
    let (mut equal, mut distinct) = (0, 0);
    for a in 0..programs.len() {
        for b in a + 1..programs.len() {
            let same_fp = fps[a] == fps[b];
            assert_eq!(
                keys[a] == keys[b],
                same_fp,
                "{} vs {}: key and fingerprint disagree",
                programs[a].name,
                programs[b].name
            );
            if same_fp {
                equal += 1;
            } else {
                distinct += 1;
            }
        }
    }
    // The draw must exercise both sides of the equivalence.
    assert!(equal > 50, "only {equal} equal-content pairs");
    assert!(distinct > 1000, "only {distinct} distinct pairs");
}

#[test]
fn a_renamed_copy_keeps_its_key() {
    for program in corpus() {
        let mut renamed = program.clone();
        renamed.name.push_str("_renamed");
        assert_eq!(renamed.cache_key(), program.cache_key(), "{}", program.name);
    }
}

/// Two computations under a shared outer loop, so the tree has a node
/// with two children, and a constant in a body.
fn base() -> Program {
    let mut b = ProgramBuilder::new("base");
    let i = b.iter("i", 0, 16);
    let j = b.iter("j", 0, 16);
    let k = b.iter("k", 0, 8);
    let inp = b.input("in", &[16, 16]);
    let out = b.buffer("out", &[16, 16]);
    let acc = b.buffer("acc", &[16]);
    let load = b.access(inp, &[i.into(), j.into()], &[i, j]);
    b.assign(
        "scale",
        &[i, j],
        out,
        &[i.into(), j.into()],
        Expr::binary(BinOp::Mul, Expr::Load(load), Expr::Const(0.5)),
    );
    let load = b.access(inp, &[i.into(), k.into()], &[i, k]);
    b.reduce(
        "sum",
        &[i, k],
        BinOp::Add,
        acc,
        &[i.into()],
        Expr::Load(load),
    );
    b.build().unwrap()
}

fn const_mut(expr: &mut Expr) -> Option<&mut f32> {
    match expr {
        Expr::Const(c) => Some(c),
        Expr::Load(_) => None,
        Expr::Neg(e) => const_mut(e),
        Expr::Binary(_, l, r) => const_mut(l).or_else(|| const_mut(r)),
    }
}

/// A named change of exactly one field.
type Edit = (&'static str, fn(&mut Program));

#[test]
fn every_single_field_change_moves_the_key() {
    let base = base();
    let edits: Vec<Edit> = vec![
        ("extent", |p| p.iters[2].upper += 1),
        ("access coefficient", |p| {
            let m = &mut p.comps[0].store.matrix;
            m.set(0, 1, m.get(0, 1) + 1);
        }),
        ("constant bits", |p| {
            let c = const_mut(&mut p.comps[0].expr).expect("a constant");
            *c = f32::from_bits(c.to_bits() ^ 1);
        }),
        ("buffer dim", |p| p.buffers[2].dims[0] += 1),
        ("computation kind", |p| {
            p.comps[1].kind = CompKind::Reduce(BinOp::Max);
        }),
        ("assign vs reduce", |p| p.comps[1].kind = CompKind::Assign),
        ("tree child order", |p| match &mut p.roots[0] {
            TreeNode::Loop(l) => l.children.swap(0, 1),
            TreeNode::Comp(_) => panic!("the root is the shared i loop"),
        }),
    ];
    let mut seen = vec![base.cache_key()];
    for (what, edit) in edits {
        let mut edited = base.clone();
        edit(&mut edited);
        assert_ne!(edited, base, "{what}: the edit must change the program");
        assert_ne!(
            edited.content_fingerprint(),
            base.content_fingerprint(),
            "{what}: the fingerprint sees it"
        );
        let key = edited.cache_key();
        assert!(!seen.contains(&key), "{what}: the key must move");
        seen.push(key);
    }

    // Keys compare constants by bits, like the fingerprint's `Debug`
    // rendering — not by `==`, under which the two zeros are equal.
    let with_constant = |c: f32| {
        let mut p = base.clone();
        *const_mut(&mut p.comps[0].expr).expect("a constant") = c;
        p
    };
    let (zero, negative_zero) = (with_constant(0.0), with_constant(-0.0));
    assert_eq!(zero, negative_zero);
    assert_ne!(
        zero.content_fingerprint(),
        negative_zero.content_fingerprint()
    );
    assert_ne!(zero.cache_key(), negative_zero.cache_key());
}

#[test]
fn schedule_keys_follow_normalization() {
    let tile = Transform::Tile {
        comp: CompId(0),
        level_a: 0,
        level_b: 1,
        size_a: 32,
        size_b: 32,
    };
    let tags = [
        Transform::Unroll {
            comp: CompId(0),
            factor: 4,
        },
        Transform::Parallelize {
            comp: CompId(0),
            level: 0,
        },
        Transform::Vectorize {
            comp: CompId(0),
            factor: 8,
        },
        Transform::Unroll {
            comp: CompId(1),
            factor: 2,
        },
    ];
    // Every permutation of the tag tail shares one key.
    let reference = Schedule::new([vec![tile.clone()], tags.to_vec()].concat()).cache_key();
    let mut order = [0, 1, 2, 3];
    let mut permutations = 0;
    loop {
        let mut transforms = vec![tile.clone()];
        transforms.extend(order.iter().map(|&i| tags[i].clone()));
        assert_eq!(
            Schedule::new(transforms).cache_key(),
            reference,
            "{order:?}"
        );
        permutations += 1;
        if !next_permutation(&mut order) {
            break;
        }
    }
    assert_eq!(permutations, 24);

    // A non-canonical schedule keeps its own key, apart from its legal
    // reordering.
    let illegal = Schedule::new(vec![tags[0].clone(), tile.clone()]);
    let legal = Schedule::new(vec![tile, tags[0].clone()]);
    assert!(!illegal.is_canonical());
    assert_ne!(illegal.cache_key(), legal.cache_key());
}

/// Lexicographic successor of `v`; `false` once `v` is the last one.
fn next_permutation(v: &mut [usize]) -> bool {
    let Some(i) = (1..v.len()).rev().find(|&i| v[i - 1] < v[i]) else {
        return false;
    };
    let j = (i..v.len()).rev().find(|&j| v[j] > v[i - 1]).unwrap();
    v.swap(i - 1, j);
    v[i..].reverse();
    true
}

#[test]
fn keys_are_fixed_functions() {
    // Pinned on a little-endian 64-bit target. A change of hasher — or a
    // per-process seed slipping in — fails here; if the change is meant,
    // re-pin both values and say so.
    let schedule = Schedule::new(vec![
        Transform::Interchange {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
        },
        Transform::Parallelize {
            comp: CompId(0),
            level: 0,
        },
    ]);
    assert_eq!(base().cache_key(), 0xa95b_f329_3147_5118);
    assert_eq!(schedule.cache_key(), 0xd426_cc6d_0dd6_ba2b);
}
