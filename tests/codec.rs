//! Tier-1 coverage of the JSON codec every frame, shard line and
//! artifact goes through (`vendor/serde`, `vendor/serde_json`).
//!
//! The codec streams: a derived type writes its fields into a
//! `serde::json::Writer` and matches keys out of a `serde::json::Parser`,
//! and its `to_value` is the trait's default, a bridge *through* that
//! path (every impl but `Value`'s inherits it; reading has no tree path
//! at all) — so the `Value` tree cannot be the reference for the bytes.
//! The reference is [`GOLDEN_BYTES`]: an FNV-1a digest of
//! every document below, compact and pretty, **captured on the commit
//! before the streaming codec** (tree writer, PR 18). Everything else
//! here pins what the decoder accepts and refuses, map keys included.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;

use dlcm::benchsuite::suite;
use dlcm::datagen::{
    ProgramGenConfig, ProgramGenerator, ScheduleGenConfig, ScheduleGenerator, ShardRecord,
};
use dlcm::ir::fingerprint::{fnv1a, to_hex, FNV1A_INIT};
use dlcm::ir::{Program, Schedule};
use dlcm::model::{CostModel, CostModelConfig, FeaturizerConfig};
use dlcm::net::wire::decode_body;
use dlcm::net::{
    ErrorReply, ModelInfoReport, NetStats, ReloadRejectKind, Request, Response, StatsReport,
};
use dlcm::serve::ServeStats;
use dlcm::tensor::ParamId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::json::MAX_DEPTH;
use serde::{Deserialize, Serialize, Value};

/// FNV-1a over the compact then pretty text of every document
/// [`every_document_keeps_its_bytes_and_round_trips`] checks, in order. Captured at cbee815 (the tree codec); a change here
/// is a change to the wire, the corpus and the artifact at once.
const GOLDEN_BYTES: &str = "7041e4a7a5ae6317";

/// Scores and counters that stress number formatting: a subnormal, 17
/// significant digits, an exponent form, integers at the 2^53 edge.
const AWKWARD: [f64; 8] = [
    1.0 / 3.0,
    5e-324,
    f64::MIN_POSITIVE,
    1.000_000_000_000_000_2,
    123_456_789.987_654_32,
    -2.5e-7,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
];

/// `(program, distinct schedules)` pairs from the widest generator
/// configuration, seeded.
fn generated() -> Vec<(Program, Vec<Schedule>)> {
    let programs = ProgramGenerator::new(ProgramGenConfig::wide());
    let schedules = ScheduleGenerator::new(ScheduleGenConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    (0..12)
        .map(|i| {
            let program = programs.generate(&mut rng, &format!("p{i}"));
            let wave = schedules.generate_distinct(&program, 4, &mut rng);
            (program, wave)
        })
        .collect()
}

fn model() -> CostModel {
    CostModel::new(
        CostModelConfig {
            input_dim: FeaturizerConfig::default().vector_width(),
            embed_widths: vec![8],
            merge_hidden: 4,
            regress_widths: vec![4],
            dropout: 0.0,
        },
        19,
    )
}

fn stats() -> StatsReport {
    StatsReport {
        serve: ServeStats {
            queries: 1_000_003,
            cache_hits: 999_999,
            hit_rate: 999_999.0 / 1_000_003.0,
            mean_batch_rows: AWKWARD[0],
            total_latency: AWKWARD[4],
            mean_latency: AWKWARD[5].abs(),
            ..ServeStats::default()
        },
        net: NetStats {
            connections_accepted: 8,
            requests: usize::MAX >> 12,
            ..NetStats::default()
        },
    }
}

fn info() -> ModelInfoReport {
    ModelInfoReport {
        fingerprint: "00c0ffee00c0ffee".to_string(),
        model_swaps: 3,
    }
}

fn requests(generated: &[(Program, Vec<Schedule>)]) -> Vec<Request> {
    let mut out: Vec<Request> = generated
        .iter()
        .enumerate()
        .map(|(i, (program, schedules))| Request::Speedups {
            program: program.clone(),
            schedules: schedules.clone(),
            deadline_ms: (i % 2 == 1).then_some(250 + i as u64),
        })
        .collect();
    out.extend([
        Request::Stats,
        Request::ModelInfo,
        Request::Reload {
            artifact_dir: "C:\\models\\\"new\"\n\tτ/\u{1}".to_string(),
        },
        Request::Ping,
        Request::Shutdown,
    ]);
    out
}

fn responses() -> Vec<Response> {
    vec![
        Response::Speedups {
            scores: AWKWARD.to_vec(),
        },
        Response::Speedups { scores: vec![] },
        Response::Stats(Box::new(stats())),
        Response::ModelInfo(info()),
        Response::Reloaded(info()),
        Response::Pong,
        Response::ShuttingDown,
    ]
}

fn errors() -> Vec<ErrorReply> {
    vec![
        ErrorReply::Overloaded { limit: 64 },
        ErrorReply::Timeout { deadline_ms: 250 },
        ErrorReply::BadRequest {
            message: "expected `,` or `}` at byte 7: \"…\"".to_string(),
        },
        ErrorReply::FrameTooLarge {
            len: u32::MAX,
            max: 16 << 20,
        },
        ErrorReply::UnsupportedVersion {
            got: 9,
            expected: 1,
        },
        ErrorReply::ReloadRejected {
            kind: ReloadRejectKind::ArtifactInvalid,
            detail: "weights.json: missing field `data`".to_string(),
        },
        ErrorReply::ReloadRejected {
            kind: ReloadRejectKind::SchemaMismatch,
            detail: String::new(),
        },
        ErrorReply::ShuttingDown,
    ]
}

fn records(generated: &[(Program, Vec<Schedule>)]) -> Vec<ShardRecord> {
    let (program, schedules) = &generated[0];
    let declare = |family: Option<&str>| ShardRecord::Program {
        index: 7,
        fingerprint: to_hex(program.content_fingerprint()),
        family: family.map(str::to_string),
        program: program.clone(),
    };
    vec![
        declare(None),
        declare(Some("stencil")),
        ShardRecord::Point {
            program: 7,
            structure: "0123456789abcdef".to_string(),
            speedup: AWKWARD[3],
            schedule: schedules[0].clone(),
        },
    ]
}

/// Runs every per-document check and accumulates the text the golden
/// digest covers.
#[derive(Default)]
struct Battery {
    text: String,
    deepest: usize,
}

impl Battery {
    fn check<T: Serialize + Deserialize + PartialEq + Debug>(&mut self, x: &T) {
        self.check_by(x, |back| assert_eq!(back, x));
    }

    /// `same` compares a decoded value with the original.
    fn check_by<T: Serialize + Deserialize>(&mut self, x: &T, same: impl Fn(&T)) {
        let compact = serde_json::to_string(x).expect("compact");
        let pretty = serde_json::to_string_pretty(x).expect("pretty");
        // Round trip, from either layout.
        same(&serde_json::from_str(&compact).expect("compact text decodes"));
        same(&serde_json::from_str(&pretty).expect("pretty text decodes"));
        // The tree is the same document: the `Value` writer over
        // `to_value` gives the streamed bytes, and the text parses to
        // that tree.
        let tree = x.to_value();
        assert_eq!(serde_json::to_string(&tree).unwrap(), compact);
        assert_eq!(serde_json::to_string_pretty(&tree).unwrap(), pretty);
        assert_eq!(serde_json::from_str::<Value>(&pretty).unwrap(), tree);
        self.deepest = self.deepest.max(nesting(&compact));
        self.text.push_str(&compact);
        self.text.push_str(&pretty);
    }
}

/// Deepest container nesting of a JSON text.
fn nesting(json: &str) -> usize {
    let (mut depth, mut deepest, mut in_string, mut escaped) = (0usize, 0, false, false);
    for b in json.bytes() {
        match b {
            _ if escaped => escaped = false,
            b'\\' if in_string => escaped = true,
            b'"' => in_string = !in_string,
            b'[' | b'{' if !in_string => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b']' | b'}' if !in_string => depth -= 1,
            _ => {}
        }
    }
    deepest
}

#[test]
fn every_document_keeps_its_bytes_and_round_trips() {
    let generated = generated();
    let mut battery = Battery::default();
    for (program, schedules) in &generated {
        battery.check(program);
        battery.check(schedules);
    }
    for benchmark in suite() {
        battery.check(&(benchmark.build)(0.05));
    }
    let model = model();
    let weights = serde_json::to_string(&model).unwrap();
    battery.check_by(&model, |back| {
        assert_eq!(serde_json::to_string(back).unwrap(), weights);
    });
    for record in records(&generated) {
        battery.check(&record);
    }
    battery.check(&stats());
    for request in requests(&generated) {
        battery.check(&request);
    }
    for response in responses() {
        battery.check(&response);
    }
    for error in errors() {
        battery.check(&error);
    }

    // The generators' deepest document (an expression tree inside a
    // `Speedups` request or a `Program` record) against the decoder's
    // nesting cap.
    assert!(
        battery.deepest * 2 <= MAX_DEPTH,
        "deepest document nests {} levels, the decoder stops at {MAX_DEPTH}",
        battery.deepest
    );
    let digest = to_hex(fnv1a(FNV1A_INIT, battery.text.as_bytes()));
    assert_eq!(
        digest,
        GOLDEN_BYTES,
        "{} bytes of JSON changed",
        battery.text.len()
    );
}

#[test]
fn floats_survive_bit_for_bit() {
    // `-0.0` is the one exception, by format: it has always been
    // written `0`.
    let doubles: Vec<f64> = AWKWARD
        .iter()
        .flat_map(|&x| [x, -x, x * 1e300, x * 1e-300])
        .filter(|x| x.is_finite())
        .collect();
    let back: Vec<f64> = serde_json::from_str(&serde_json::to_string(&doubles).unwrap()).unwrap();
    assert_eq!(
        back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        doubles.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    let singles: Vec<f32> = vec![
        0.1,
        -1.5e-7,
        f32::MAX,
        f32::MIN_POSITIVE,
        1e-45,
        1.0 / 3.0,
        16_777_217.0,
    ];
    let back: Vec<f32> = serde_json::from_str(&serde_json::to_string(&singles).unwrap()).unwrap();
    assert_eq!(
        back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        singles.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "0");
}

#[test]
fn damaged_request_bodies_are_errors_never_panics() {
    let generated = generated();
    let body = serde_json::to_string(&requests(&generated)[0]).unwrap();
    for cut in 0..body.len() {
        assert!(
            decode_body::<Request>(&body.as_bytes()[..cut]).is_err(),
            "a body cut at byte {cut} of {} decoded",
            body.len()
        );
    }
    let short = serde_json::to_string(&Request::Speedups {
        program: generated[0].0.clone(),
        schedules: vec![Schedule::empty()],
        deadline_ms: Some(5),
    })
    .unwrap();
    let mut bytes = short.clone().into_bytes();
    for at in 0..bytes.len() {
        // The body is ASCII: a high bit anywhere is invalid UTF-8 or a
        // character JSON has no place for outside a string.
        bytes[at] ^= 0x80;
        let _ = decode_body::<Request>(&bytes);
        bytes[at] ^= 0x80;
        for mask in [0x01, 0x20, 0x7f] {
            bytes[at] ^= mask;
            if let Ok(request) = decode_body::<Request>(&bytes) {
                serde_json::to_string(&request).expect("what decoded encodes");
            }
            bytes[at] ^= mask;
        }
    }
    assert_eq!(bytes, short.as_bytes());
}

/// Runs `f` on a thread with a 64 KiB stack: a decoder that recursed
/// once per `[` would overflow it long before a megabyte of them.
fn on_a_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(64 << 10)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("the decoder must return, not overflow its stack");
}

#[test]
fn a_megabyte_of_open_brackets_is_an_error_not_a_stack_overflow() {
    on_a_small_stack(|| {
        for unit in ["[", "{\"a\":"] {
            let bomb = unit.repeat((1 << 20) / unit.len());
            let err = serde_json::from_str::<Value>(&bomb).expect_err("a bomb is not a value");
            assert!(err.to_string().contains("nested deeper"), "{err}");
            assert!(serde_json::from_str::<Request>(&bomb).is_err());
            // Deep junk under an unknown key is skipped by the same
            // bounded walk.
            let hidden = format!("{{\"Reload\":{{\"junk\":{bomb}");
            assert!(serde_json::from_str::<Request>(&hidden).is_err());
        }
        // At the cap exactly, a document still decodes; one deeper is
        // refused, and refused on the way out as well.
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(serde_json::from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(serde_json::from_str::<Value>(&nested(MAX_DEPTH + 1)).is_err());
    });
}

#[test]
fn a_document_too_deep_to_read_back_is_not_written() {
    let mut nested = Value::Null;
    for _ in 0..MAX_DEPTH {
        nested = Value::Arr(vec![nested]);
    }
    let text = serde_json::to_string(&nested).expect("at the cap");
    assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), nested);
    let err = serde_json::to_string(&Value::Arr(vec![nested])).expect_err("one deeper");
    assert!(err.to_string().contains("nested deeper"), "{err}");
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Probe {
    id: u32,
    name: String,
    limit: Option<f64>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    One(u8),
    Two(i8, String),
    Named { x: i64 },
}

#[test]
fn field_rules_are_the_tree_codecs() {
    let probe = |json: &str| serde_json::from_str::<Probe>(json);
    let want = Probe {
        id: 7,
        name: "n".to_string(),
        limit: None,
    };
    assert_eq!(probe(r#"{"id":7,"name":"n","limit":null}"#).unwrap(), want);
    // Any order, unknown keys of any shape skipped.
    assert_eq!(
        probe(r#" { "later" : [1, {"x": [null, "]"]}], "limit": null, "name": "n", "id": 7 } "#)
            .unwrap(),
        want
    );
    // The first occurrence of a repeated key wins.
    assert_eq!(
        probe(r#"{"id":7,"id":8,"name":"n","limit":null,"name":"m"}"#).unwrap(),
        want
    );
    // A key is compared decoded: `\u0064` is `d`.
    assert_eq!(
        probe(r#"{"i\u0064":7,"name":"n","limit":null}"#).unwrap(),
        want
    );
    // Missing is an error — for an `Option` too, which needs its `null`.
    let err = probe(r#"{"id":7,"limit":null}"#).unwrap_err().to_string();
    assert!(err.contains("missing field `name`"), "{err}");
    let err = probe(r#"{"id":7,"name":"n"}"#).unwrap_err().to_string();
    assert!(err.contains("missing field `limit`"), "{err}");
    // Malformed text behind an unknown key is still malformed.
    assert!(probe(r#"{"id":7,"name":"n","limit":null,"x":[1,}"#).is_err());
    assert!(probe(r#"{"id":7,"name":"n","limit":null} x"#).is_err());
}

#[test]
fn enums_stay_externally_tagged() {
    let shapes = [
        (Shape::Unit, r#""Unit""#),
        (Shape::One(255), r#"{"One":255}"#),
        (Shape::Two(-128, "s".to_string()), r#"{"Two":[-128,"s"]}"#),
        (Shape::Named { x: -1 }, r#"{"Named":{"x":-1}}"#),
    ];
    for (shape, text) in &shapes {
        assert_eq!(serde_json::to_string(shape).unwrap(), *text);
        assert_eq!(&serde_json::from_str::<Shape>(text).unwrap(), shape);
    }
    for bad in [
        r#""One""#,
        r#"{"Unit":null}"#,
        r#"{"One":1,"Two":[1,"s"]}"#,
        r#"{"Two":[1]}"#,
        r#"{"Two":[1,"s",2]}"#,
        r#"{"One":256}"#,
        r#"{}"#,
        r#"["Unit"]"#,
        r#"null"#,
    ] {
        assert!(serde_json::from_str::<Shape>(bad).is_err(), "{bad} decoded");
    }
    let err = serde_json::from_str::<Shape>(r#"{"Cube":1}"#).unwrap_err();
    assert!(
        err.to_string().contains("unknown variant `Cube` of Shape"),
        "{err}"
    );
}

#[test]
fn map_keys_are_stringified_and_hash_maps_sorted() {
    let by_id: HashMap<u32, String> = (0..12).rev().map(|i| (i * 7, format!("v{i}"))).collect();
    let text = serde_json::to_string(&by_id).unwrap();
    // Sorted as strings, not as numbers.
    assert!(
        text.starts_with(r#"{"0":"v0","14":"v2","21":"v3","28":"v4","35":"v5","42":"v6","49":"v7","56":"v8","63":"v9","7":"v1","70":"v10","77":"v11"}"#),
        "{text}"
    );
    assert_eq!(
        serde_json::from_str::<HashMap<u32, String>>(&text).unwrap(),
        by_id
    );
    assert_eq!(serde_json::to_string(&by_id.to_value()).unwrap(), text);
    let escaped: BTreeMap<String, bool> = [("a\"b\\c\n".to_string(), true), (String::new(), false)]
        .into_iter()
        .collect();
    let text = serde_json::to_string(&escaped).unwrap();
    assert_eq!(text, r#"{"":false,"a\"b\\c\n":true}"#);
    assert_eq!(
        serde_json::from_str::<BTreeMap<String, bool>>(&text).unwrap(),
        escaped
    );

    // Every branch of the key path: a name is read in its quoted form
    // first (a string key, even one spelled like a number or a bool),
    // then as bare text (a number key — newtype ids and the `f64`
    // spelling past 2^53 included — or a bool key).
    fn round_trip<M: Serialize + Deserialize + PartialEq + Debug>(map: &M, want: &str) {
        let text = serde_json::to_string(map).unwrap();
        assert_eq!(text, want);
        assert_eq!(&serde_json::from_str::<M>(&text).unwrap(), map);
    }
    let strings: BTreeMap<String, u8> = [("12", 1), ("true", 2), ("q\"", 3)]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    round_trip(&strings, r#"{"12":1,"q\"":3,"true":2}"#);
    let params: BTreeMap<ParamId, i8> = [(ParamId(12), -1), (ParamId(3), 5)].into_iter().collect();
    round_trip(&params, r#"{"3":5,"12":-1}"#);
    let wide: BTreeMap<u64, u8> = [((1 << 53) + 2, 1), (u64::MAX, 2)].into_iter().collect();
    round_trip(
        &wide,
        r#"{"9007199254740994.0":1,"1.8446744073709552e19":2}"#,
    );
    let flags: BTreeMap<bool, u8> = [(true, 1), (false, 0)].into_iter().collect();
    round_trip(&flags, r#"{"false":0,"true":1}"#);
}
