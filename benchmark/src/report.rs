//! The metric registry and the shapes a run reports in.
//!
//! `BENCHMARK.json` is printed from this registry (`manifest`
//! subcommand), so the contract file and the binary cannot name
//! different metrics.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use crate::stats::Summary;
use crate::trace::Span;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, quality).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// A workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// One line on what it stresses and what it bypasses.
    pub why: &'static str,
    /// What one operation is (the unit of `op_p50_us`).
    pub op: &'static str,
    /// What one unit of work is (the unit of `work_per_s`).
    pub work: &'static str,
}

/// The four workloads, in the order a full run executes them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "serve_cold",
        why: "never-seen keys over TCP: featurize, micro-batch and forward pass do the work, the cache only inserts",
        op: "one Speedups request of 8 schedules, client-observed round trip",
        work: "schedules scored",
    },
    WorkloadDef {
        name: "serve_hot",
        why: "256-request working set, all cache hits: frame encode/decode, cache probes and the socket do the work, the model none",
        op: "one Speedups request of 8 schedules, client-observed round trip",
        work: "schedules scored",
    },
    WorkloadDef {
        name: "search_suite",
        why: "the paper's use: MCTS, BSE and BSM on the ten suite programs in-process; search, ir legality and machine execution carry weight, no wire",
        op: "one full 30-search pass through SearchDriver::run_suite",
        work: "candidate evaluations",
    },
    WorkloadDef {
        name: "train_pipeline",
        why: "datagen, train, persist and one flywheel turn: backward pass, optimizer and the persistence calls dominate, no serving",
        op: "one full datagen-to-warm-retrain pass",
        work: "training rows x epochs inside train_stream",
    },
];

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them; `WorkloadDef::op` and `WorkloadDef::work`
/// say what the operation and the unit of work are on each.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("op_p50_us", "us", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Per-layer metrics (layer = crate), all from the traced run. A
/// workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: [MetricDef; 61] = [
    layer("net.rtt_us", "us", Lower),
    layer("net.rtt_p99_us", "us", Lower),
    layer("net.contended_p50_us", "us", Lower),
    layer("net.contended_p99_us", "us", Lower),
    layer("net.ping_rtt_us", "us", Lower),
    layer("net.encode_request_us", "us", Lower),
    layer("net.decode_request_us", "us", Lower),
    layer("net.encode_response_us", "us", Lower),
    layer("net.decode_response_us", "us", Lower),
    layer("net.request_bytes", "B", Lower),
    layer("net.response_bytes", "B", Lower),
    layer("net.residual_us", "us", Lower),
    layer("net.requests", "count", Higher),
    layer("net.errors_sent", "count", Lower),
    layer("serve.call_us", "us", Lower),
    layer("serve.residual_us", "us", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.forward_rows", "count", Lower),
    layer("serve.micro_batches", "count", Lower),
    layer("serve.coalesced_batches", "count", Higher),
    layer("serve.mean_batch_rows", "rows", Higher),
    layer("serve.rejected", "count", Lower),
    layer("model.featurize_ns_per_row", "ns", Lower),
    layer("model.infer_ns_per_row", "ns", Lower),
    layer("model.infer_rows_per_call", "rows", Higher),
    layer("model.train_ns_per_row", "ns", Lower),
    layer("model.forward_share", "ratio", Lower),
    layer("model.evaluate_ns_per_row", "ns", Lower),
    layer("model.warm_retrain_ns_per_row", "ns", Lower),
    layer("model.artifact_save_ms", "ms", Lower),
    layer("model.artifact_load_ms", "ms", Lower),
    layer("model.heldout_spearman", "ratio", Higher),
    layer("tensor.matmul_ns_per_call", "ns", Lower),
    layer("tensor.matmul_flops_per_row", "flop", Lower),
    layer("eval.cache_probe_ns_per_key", "ns", Lower),
    layer("eval.exec_ns_per_candidate", "ns", Lower),
    layer("eval.model_batch_self_ns_per_row", "ns", Lower),
    layer("eval.exec_evals", "count", Lower),
    layer("eval.exec_cache_hits", "count", Higher),
    layer("eval.pool_dispatch_us", "us", Lower),
    layer("ir.apply_schedule_ns", "ns", Lower),
    layer("ir.fingerprint_ns", "ns", Lower),
    layer("machine.measure_ns", "ns", Lower),
    layer("search.mcts_ms", "ms", Lower),
    layer("search.bse_ms", "ms", Lower),
    layer("search.bsm_ms", "ms", Lower),
    layer("search.self_share", "ratio", Lower),
    layer("search.expand_ns_per_candidate", "ns", Lower),
    layer("search.candidates_scored", "count", Lower),
    layer("search.slowest_job_ms", "ms", Lower),
    layer("search.found_speedup_geomean", "x", Higher),
    layer("datagen.write_corpus_ms", "ms", Lower),
    layer("datagen.points_per_s", "1/s", Higher),
    layer("datagen.open_ms", "ms", Lower),
    layer("datagen.load_batch_ns_per_row", "ns", Lower),
    layer("datagen.append_generation_ms", "ms", Lower),
    layer("datagen.duplicates_dropped", "count", Lower),
    layer("datagen.generation_rows_kept", "count", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("process.peak_rss_mb", "MB", Lower),
    layer("check.failed_ratio", "ratio", Lower),
];

/// The metric list a run of the given mode reports.
pub fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, searches, pipeline stages) plus
    /// output checks made.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly, plus
    /// output checks that did not hold.
    pub failed: u64,
    /// One line per failure kind, for the human reading the run.
    pub failures: Vec<String>,
    /// Measured metrics by registered name.
    pub metrics: BTreeMap<&'static str, Summary>,
    /// Operation and sample counts, for the environment block.
    pub counts: BTreeMap<&'static str, u64>,
    /// Input digests and output fingerprints, in hex: what two runs
    /// compare to show they did the same work and got the same answers.
    pub digests: BTreeMap<&'static str, String>,
    /// Spans of the traced run (empty untraced).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the registry: a metric nobody
    /// declared would silently vanish from the result line.
    pub fn set(&mut self, name: &'static str, summary: Summary) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "metric `{name}` is not registered"
        );
        self.metrics.insert(name, summary);
    }

    /// Records an exact value (a count, a computed ratio).
    pub fn set_exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::exact(value, 1));
    }

    /// Counts one check and, if it did not hold, one failure with its
    /// reason.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(reason());
        }
    }

    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every metric of the
    /// run's mode (0 for a per-layer metric this workload does not
    /// exercise).
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing: each is defined on
    /// every workload.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = defs(traced)
            .iter()
            .map(|def| {
                let value = match self.metrics.get(def.name) {
                    Some(summary) => summary.value,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric `{}` was not measured", def.name),
                };
                let entry = Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(def.unit.into())),
                ]);
                (def.name.to_string(), entry)
            })
            .collect();
        let line = Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ]);
        serde_json::to_string(&line).expect("result line serializes")
    }

    /// Prints every measured metric of this run: name, unit, sample
    /// count, median and quartiles.
    pub fn print_table(&self, traced: bool) {
        println!(
            "  {:<34} {:>6} {:>7} {:>14} {:>14} {:>14} {:>14}",
            "metric", "unit", "n", "value", "q1", "median", "q3"
        );
        for def in defs(traced) {
            if let Some(s) = self.metrics.get(def.name) {
                println!(
                    "  {:<34} {:>6} {:>7} {:>14.4} {:>14.4} {:>14.4} {:>14.4}",
                    def.name, def.unit, s.n, s.value, s.q1, s.median, s.q3
                );
            }
        }
        for (name, count) in &self.counts {
            println!("  count {name} = {count}");
        }
        for (name, digest) in &self.digests {
            println!("  digest {name} = {digest}");
        }
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }

    /// The detail record a child run writes to `--out`.
    pub fn detail(&self, workload: &str, traced: bool) -> RunDetail {
        RunDetail {
            workload: workload.to_string(),
            traced,
            correct: self.correct(),
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures.clone(),
            metrics: self
                .metrics
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            counts: self
                .counts
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            digests: self
                .digests
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            spans: self.spans.iter().map(Serialize::to_value).collect(),
        }
    }
}

/// One child run as written to (and read back from) its `--out` file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunDetail {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Whether every operation succeeded and every check held.
    pub correct: bool,
    /// Operations attempted plus checks made.
    pub attempted: u64,
    /// Operations and checks failed.
    pub failed: u64,
    /// Reasons, one per failure kind.
    pub failures: Vec<String>,
    /// Metric summaries by name.
    pub metrics: BTreeMap<String, Summary>,
    /// Operation and sample counts.
    pub counts: BTreeMap<String, u64>,
    /// Input digests and output fingerprints, in hex.
    pub digests: BTreeMap<String, String>,
    /// Spans as `[name, start_ns, end_ns, parent, op_id, units]` rows.
    pub spans: Vec<Value>,
}

/// `BENCHMARK.json`, printed from the registry.
pub fn manifest_json(run_seconds: u64) -> String {
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str((*s).into())).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            obj(vec![
                ("name", Value::Str(w.name.into())),
                ("why", Value::Str(w.why.into())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|d| {
            obj(vec![
                ("name", Value::Str(d.name.into())),
                ("unit", Value::Str(d.unit.into())),
                ("better", Value::Str(d.better.as_str().into())),
                ("bound", Value::Num(d.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|d| {
            obj(vec![
                ("name", Value::Str(d.name.into())),
                ("unit", Value::Str(d.unit.into())),
                ("better", Value::Str(d.better.as_str().into())),
            ])
        })
        .collect();
    let manifest = obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(run_seconds as f64)),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(end_to_end)),
        ("per_layer", Value::Arr(per_layer)),
    ]);
    serde_json::to_string_pretty(&manifest).expect("manifest serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_names_are_unique_and_within_the_contract_limits() {
        let mut seen = HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for def in &END_TO_END {
            outcome.set(def.name, Summary::of(&[1.5, 2.5]));
        }
        let line: Value = serde_json::from_str(&outcome.result_line(false)).unwrap();
        let Value::Obj(fields) = &line else {
            panic!("object expected")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Obj(metrics) = line.get_field("metrics").unwrap() else {
            panic!("object expected")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics[0].1.get_field("value").unwrap().as_num().unwrap(),
            2.0
        );
        // A traced line carries every per-layer metric, 0 when unmeasured.
        let traced: Value = serde_json::from_str(&outcome.result_line(true)).unwrap();
        let Value::Obj(layers) = traced.get_field("metrics").unwrap() else {
            panic!("object expected")
        };
        assert_eq!(layers.len(), PER_LAYER.len());
    }
}
