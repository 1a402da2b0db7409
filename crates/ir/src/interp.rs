//! Reference interpreter for scheduled programs.
//!
//! The interpreter executes the transformed loop forest — the node table
//! of the [`ScheduledProgram`]'s validated prefix — over real `f32`
//! buffers. It is the semantics oracle of this reproduction: property
//! tests assert that any schedule accepted by
//! [`crate::schedule::apply_schedule`] produces the same outputs as the
//! untransformed program (up to floating-point reassociation for
//! reductions).

use std::collections::HashMap;

use crate::expr::Expr;
use crate::program::{BufferId, CompId, CompKind, Program};
use crate::schedule::{LegalPrefix, LoopSource, SLoop, ScheduledProgram};
use crate::transform::Schedule;

/// Errors raised by the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// A required input buffer was not provided.
    MissingInput(String),
    /// An input buffer has the wrong number of elements.
    SizeMismatch {
        /// Buffer name.
        buffer: String,
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::MissingInput(name) => write!(f, "missing input buffer {name}"),
            InterpError::SizeMismatch {
                buffer,
                expected,
                got,
            } => {
                write!(f, "buffer {buffer} expected {expected} elements, got {got}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Executes a scheduled program over concrete inputs.
///
/// Non-input buffers are zero-initialized (reductions in this IR use
/// additive accumulation, for which zero is the identity). Returns the
/// final contents of every non-input buffer.
///
/// # Errors
///
/// Returns [`InterpError`] when inputs are missing or badly sized.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use dlcm_ir::{apply_schedule, interpret, Expr, LinExpr, ProgramBuilder, Schedule};
/// let mut b = ProgramBuilder::new("copy");
/// let i = b.iter("i", 0, 4);
/// let inp = b.input("in", &[4]);
/// let out = b.buffer("out", &[4]);
/// let acc = b.access(inp, &[LinExpr::from(i)], &[i]);
/// b.assign("c", &[i], out, &[LinExpr::from(i)], Expr::Load(acc));
/// let p = b.build().unwrap();
/// let sp = apply_schedule(&p, &Schedule::empty()).unwrap();
/// let mut inputs = HashMap::new();
/// inputs.insert(inp, vec![1.0, 2.0, 3.0, 4.0]);
/// let outputs = interpret(&sp, &inputs).unwrap();
/// assert_eq!(outputs[&out], vec![1.0, 2.0, 3.0, 4.0]);
/// ```
pub fn interpret(
    sp: &ScheduledProgram<'_>,
    inputs: &HashMap<BufferId, Vec<f32>>,
) -> Result<HashMap<BufferId, Vec<f32>>, InterpError> {
    let (program, state) = (sp.program(), sp.prefix());
    let mut bufs: Vec<Vec<f32>> = Vec::with_capacity(program.buffers.len());
    for (i, buf) in program.buffers.iter().enumerate() {
        let len = buf.len() as usize;
        if buf.is_input {
            let data = inputs
                .get(&BufferId(i))
                .ok_or_else(|| InterpError::MissingInput(buf.name.clone()))?;
            if data.len() != len {
                return Err(InterpError::SizeMismatch {
                    buffer: buf.name.clone(),
                    expected: len,
                    got: data.len(),
                });
            }
            bufs.push(data.clone());
        } else {
            bufs.push(vec![0.0; len]);
        }
    }

    let mut exec = Exec {
        program,
        state,
        vals: vec![0; program.iters.len()],
        tile_base: vec![0; program.iters.len()],
        bufs,
    };
    exec.nodes(state.first_root);

    Ok(program
        .buffers
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.is_input)
        .map(|(i, _)| (BufferId(i), std::mem::take(&mut exec.bufs[i])))
        .collect())
}

/// Runs the *untransformed* program (the paper's baseline semantics).
///
/// # Errors
///
/// Same as [`interpret`].
pub fn interpret_baseline(
    program: &Program,
    inputs: &HashMap<BufferId, Vec<f32>>,
) -> Result<HashMap<BufferId, Vec<f32>>, InterpError> {
    let sp = crate::schedule::apply_schedule(program, &Schedule::empty())
        .expect("the empty schedule is always legal");
    interpret(&sp, inputs)
}

/// Deterministic pseudo-random inputs for every input buffer of a program
/// (values in `[-1, 1]`), handy for differential testing without an RNG
/// dependency.
pub fn synthetic_inputs(program: &Program, seed: u64) -> HashMap<BufferId, Vec<f32>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        ((v >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    };
    program
        .buffers
        .iter()
        .enumerate()
        .filter(|(_, b)| b.is_input)
        .map(|(i, b)| (BufferId(i), (0..b.len()).map(|_| next()).collect()))
        .collect()
}

/// Maximum relative difference between two buffer maps, for comparing a
/// transformed program against the baseline with floating-point tolerance.
pub fn max_relative_error(a: &HashMap<BufferId, Vec<f32>>, b: &HashMap<BufferId, Vec<f32>>) -> f32 {
    let mut worst = 0.0f32;
    for (id, va) in a {
        let Some(vb) = b.get(id) else {
            return f32::INFINITY;
        };
        if va.len() != vb.len() {
            return f32::INFINITY;
        }
        for (&x, &y) in va.iter().zip(vb) {
            let denom = x.abs().max(y.abs()).max(1.0);
            worst = worst.max((x - y).abs() / denom);
        }
    }
    worst
}

struct Exec<'a> {
    program: &'a Program,
    /// The forest being executed.
    state: &'a LegalPrefix,
    /// Current absolute value of each (resolved) iterator.
    vals: Vec<i64>,
    /// Tile base offsets for tiled iterators.
    tile_base: Vec<i64>,
    bufs: Vec<Vec<f32>>,
}

impl Exec<'_> {
    /// Runs node `first` and the siblings after it, in order.
    fn nodes(&mut self, first: u32) {
        let state = self.state;
        for n in state.siblings(first) {
            let node = &state.nodes[n as usize];
            match &node.header {
                None => self.comp(CompId(n as usize)),
                Some(l) => self.sloop(l, node.first_child),
            }
        }
    }

    fn sloop(&mut self, l: &SLoop, body: u32) {
        let it = self.state.resolve(l.source.iter());
        let iter = self.program.iter_of(it);
        match l.source {
            LoopSource::Orig { .. } => {
                for v in iter.lower..iter.upper {
                    self.vals[it.0] = v;
                    self.nodes(body);
                }
            }
            LoopSource::TileOuter { tile, .. } => {
                for t in 0..l.extent {
                    self.tile_base[it.0] = iter.lower + t * tile;
                    self.nodes(body);
                }
            }
            LoopSource::TileInner { tile, .. } => {
                let base = self.tile_base[it.0];
                let hi = (base + tile).min(iter.upper);
                for v in base..hi {
                    self.vals[it.0] = v;
                    self.nodes(body);
                }
            }
        }
    }

    fn comp(&mut self, id: CompId) {
        let comp = self.program.comp(id);
        // Bind the computation's iterator values (through fusion aliases).
        let values: Vec<i64> = comp
            .iters
            .iter()
            .map(|&it| self.vals[self.state.resolve(it).0])
            .collect();
        let rhs = self.eval(&comp.expr, &values);
        let idx = comp.store.matrix.eval(&values);
        let buf = self.program.buffer(comp.store.buffer);
        let off = buf.offset(&idx);
        let slot = &mut self.bufs[comp.store.buffer.0][off];
        match comp.kind {
            CompKind::Assign => *slot = rhs,
            CompKind::Reduce(op) => *slot = op.apply(*slot, rhs),
        }
    }

    fn eval(&self, e: &Expr, values: &[i64]) -> f32 {
        match e {
            Expr::Const(c) => *c,
            Expr::Neg(x) => -self.eval(x, values),
            Expr::Binary(op, l, r) => op.apply(self.eval(l, values), self.eval(r, values)),
            Expr::Load(a) => {
                let idx = a.matrix.eval(values);
                let buf = self.program.buffer(a.buffer);
                self.bufs[a.buffer.0][buf.offset(&idx)]
            }
        }
    }
}
