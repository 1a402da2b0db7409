//! In-memory span recorder for the traced run.
//!
//! Spans come only from benchmark code: the timing decorators in
//! [`crate::timed`] and direct timed calls into each crate. A span is
//! `(name, start_ns, end_ns, parent, op_id, units)`; spans of one
//! operation (one request, one search, one pipeline stage) share an
//! `op_id`. Nothing is written until the run ends.
//!
//! A layer's *self time* is its span minus the part of that interval its
//! children cover. Children may overlap each other (two pool workers
//! running forward passes for one request), so coverage is the length of
//! the union of the child intervals, clipped to the parent.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Serialize, Value};

/// "No span": the parent of a root span, and the current-operation slot
/// between operations.
const NONE: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`serve.call`, `model.infer`, ...).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; `>= start_ns`.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one operation.
    pub op_id: u64,
    /// Work items the interval covered (rows of a forward pass,
    /// candidates of an evaluator call); 1 when not meaningful.
    pub units: u32,
}

impl Span {
    /// Length of the interval in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

impl Serialize for Span {
    /// Compact row form `[name, start_ns, end_ns, parent, op_id, units]`
    /// (`parent` is `null` for roots) — tens of thousands of spans land
    /// in one result file.
    fn to_value(&self) -> Value {
        Value::Arr(vec![
            Value::Str(self.name.to_string()),
            Value::Num(self.start_ns as f64),
            Value::Num(self.end_ns as f64),
            self.parent
                .map_or(Value::Null, |p| Value::Num(f64::from(p))),
            Value::Num(self.op_id as f64),
            Value::Num(f64::from(self.units)),
        ])
    }
}

thread_local! {
    /// Open spans of this thread, innermost last. One tracer exists per
    /// process, so the stack needs no tracer identity.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread opened the operation now in flight.
    static DRIVING: Cell<bool> = const { Cell::new(false) };
}

/// The recorder. Disabled, every call is one atomic load and no clock
/// read — that mode is the denominator of `trace.overhead_ratio`.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
    /// Innermost span open on the thread driving the current operation:
    /// the parent of spans opened on threads that have no open span of
    /// their own (pool workers running part of the operation).
    adopter: AtomicU32,
    current_op_id: AtomicU64,
}

impl Tracer {
    /// Creates a recorder; `enabled == false` makes every span a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(enabled),
            spans: Mutex::new(Vec::new()),
            adopter: AtomicU32::new(NONE),
            current_op_id: AtomicU64::new(0),
        }
    }

    /// Turns recording on or off (between operations only).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, op_id: u64, units: usize, root: bool) -> SpanGuard<'_> {
        if !self.enabled.load(Ordering::Relaxed) {
            return SpanGuard {
                tracer: self,
                id: NONE,
                root,
            };
        }
        let parent = OPEN
            .with(|s| s.borrow().last().copied())
            .or_else(|| Some(self.adopter.load(Ordering::SeqCst)).filter(|&p| p != NONE));
        let mut spans = self.spans.lock().expect("span store");
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
            units: u32::try_from(units).unwrap_or(u32::MAX),
        });
        drop(spans);
        OPEN.with(|s| s.borrow_mut().push(id));
        if root {
            DRIVING.set(true);
        }
        // Only the driving thread's stack moves the adopter.
        if DRIVING.get() {
            self.adopter.store(id, Ordering::SeqCst);
        }
        SpanGuard {
            tracer: self,
            id,
            root,
        }
    }

    /// Opens the root span of operation `op_id`. Until the guard drops,
    /// spans opened on a thread without an open span of its own become
    /// children of the innermost span open on this thread.
    pub fn op(&self, name: &'static str, op_id: u64) -> SpanGuard<'_> {
        self.current_op_id.store(op_id, Ordering::SeqCst);
        self.open(name, op_id, 1, true)
    }

    /// Opens a span inside the current operation, covering `units` work
    /// items.
    pub fn span(&self, name: &'static str, units: usize) -> SpanGuard<'_> {
        self.open(
            name,
            self.current_op_id.load(Ordering::SeqCst),
            units,
            false,
        )
    }

    /// Times one direct call as a span and passes its result through.
    pub fn time<T>(&self, name: &'static str, units: usize, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name, units);
        f()
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store").clone()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
    /// Whether this is an operation's root span.
    root: bool,
}

impl SpanGuard<'_> {
    /// Sets the work-item count once it is known (a batch's length is
    /// known only after it is loaded).
    pub fn set_units(&mut self, units: usize) {
        if self.id == NONE {
            return;
        }
        let mut spans = self.tracer.spans.lock().expect("span store");
        spans[self.id as usize].units = u32::try_from(units).unwrap_or(u32::MAX);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == NONE {
            return;
        }
        let end_ns = self.tracer.now_ns();
        // `Drop` must not panic: a poisoned store loses this end stamp.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.id as usize].end_ns = end_ns;
        }
        let below = OPEN.with(|s| {
            let mut open = s.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
            open.last().copied()
        });
        if DRIVING.get() {
            self.tracer
                .adopter
                .store(below.unwrap_or(NONE), Ordering::SeqCst);
        }
        if self.root {
            DRIVING.set(false);
        }
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus what its direct children
/// cover (index-aligned with `spans`).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.dur_ns() - covered_ns(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Total `(nanoseconds, units)` over every span called `name` — the two
/// halves of a per-row or per-candidate cost.
pub fn total_ns_and_units(spans: &[Span], name: &str) -> (f64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0.0), |(ns, units), s| {
            (ns + s.dur_ns() as f64, units + f64::from(s.units))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100 with children 10..40 and 30..60 (overlapping: two
        // workers) and 80..120 (clipped at the parent's end).
        let spans = [
            span("parent", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 80, 120, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - (50 + 20));
        assert_eq!(&selfs[1..], &[30, 30, 40]);
    }

    #[test]
    fn self_time_counts_only_direct_children_of_nested_spans() {
        // call 0..100 > batch 20..80 > infer 30..50: the grandchild is
        // inside the child, so the parent loses 60, the child 20.
        let spans = [
            span("call", 0, 100, None),
            span("batch", 20, 80, Some(0)),
            span("infer", 30, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn recorder_nests_by_thread_and_adopts_worker_spans_into_the_operation() {
        let tracer = Tracer::new(true);
        {
            let _op = tracer.op("op", 7);
            let _outer = tracer.span("outer", 3);
            tracer.time("inner", 1, || ());
            std::thread::scope(|scope| {
                scope.spawn(|| tracer.time("worker", 2, || ()));
            });
        }
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["op", "outer", "inner", "worker"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(
            spans[3].parent,
            Some(1),
            "a worker's span joins the innermost span open on the driving thread"
        );
        assert!(spans.iter().all(|s| s.op_id == 7 && s.end_ns >= s.start_ns));
        assert_eq!(total_ns_and_units(&spans, "outer").1, 3.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let _op = tracer.op("op", 1);
            tracer.time("inner", 1, || ());
        }
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        tracer.time("later", 1, || ());
        assert_eq!(tracer.spans().len(), 1);
    }
}
