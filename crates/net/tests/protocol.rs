//! Protocol abuse tests: truncated frames, oversized frames, malformed
//! JSON, and mid-request disconnects must produce typed errors (or a
//! clean close) — never a panicked worker or a wedged server.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use dlcm_eval::{Evaluator, ModelEvaluator};
use dlcm_ir::{CompId, Expr, Program, ProgramBuilder, Schedule, Transform};
use dlcm_model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};
use dlcm_net::wire::{self, FrameKind, DEFAULT_MAX_FRAME_LEN, HEADER_LEN, MAGIC, WIRE_VERSION};
use dlcm_net::{ErrorReply, NetClient, NetConfig, NetError, NetServer};
use dlcm_serve::{InferenceService, ServeConfig};

fn program() -> Program {
    let mut b = ProgramBuilder::new("p");
    let i = b.iter("i", 0, 64);
    let inp = b.input("in", &[64]);
    let out = b.buffer("out", &[64]);
    let acc = b.access(inp, &[i.into()], &[i]);
    b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
    b.build().unwrap()
}

fn bind_server(net_cfg: NetConfig) -> NetServer<CostModel> {
    let feat_cfg = FeaturizerConfig::default();
    let model = CostModel::new(CostModelConfig::fast(feat_cfg.vector_width()), 0);
    let service = InferenceService::new(model, Featurizer::new(feat_cfg), ServeConfig::default());
    NetServer::bind(service, "127.0.0.1:0", net_cfg).expect("bind ephemeral port")
}

/// Proves the server is still healthy: a well-formed request on a fresh
/// connection gets a real answer.
fn assert_still_serving(server: &NetServer<CostModel>) {
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let scores = client
        .speedups(&program(), &[Schedule::empty()])
        .expect("server must still answer well-formed requests");
    assert_eq!(scores.len(), 1);
}

#[test]
fn stats_before_the_first_query_keeps_the_connection_open() {
    // A fresh service has answered nothing: every ratio in its report
    // must still be a finite, encodable number, or the reply cannot be
    // written and the worker drops the connection.
    let server = bind_server(NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let report = client.stats().expect("a fresh server must answer Stats");
    assert_eq!(report.serve.queries, 0);
    assert_eq!(report.serve.hit_rate, 0.0);
    let scores = client
        .speedups(&program(), &[Schedule::empty()])
        .expect("the same connection must still answer queries");
    assert_eq!(scores.len(), 1);
    server.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_never_wedges_the_server() {
    let server = bind_server(NetConfig::default());

    // Half a header, then hang up.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.write_all(&MAGIC[..3]).expect("partial magic");
    drop(raw);

    // A full header promising a body that never comes, then hang up —
    // the disconnect-mid-request case.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = WIRE_VERSION;
    header[5] = 1; // request
    header[6..].copy_from_slice(&64u32.to_be_bytes());
    raw.write_all(&header).expect("header");
    raw.write_all(b"{\"Ping").expect("partial body");
    drop(raw);

    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn a_peer_that_stalls_mid_frame_does_not_hold_shutdown() {
    let server = bind_server(NetConfig::default());

    // A header promising 64 bytes, 8 of them, then silence with the
    // socket left open.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = WIRE_VERSION;
    header[5] = 1; // request
    header[6..].copy_from_slice(&64u32.to_be_bytes());
    raw.write_all(&header).expect("header");
    raw.write_all(b"{\"Speedu").expect("partial body");
    // Let a worker take the connection and start on the body.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().net.active_connections < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never picked up"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _unused = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(15))
        .expect("shutdown must not wait on a stalled peer");
    drop(raw);
}

#[test]
fn oversized_frame_is_rejected_by_the_length_cap() {
    let server = bind_server(NetConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // A header claiming one byte past the cap, and no body: the rejection
    // must arrive from the length field alone, so the server neither
    // waits for nor allocates a body.
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = WIRE_VERSION;
    header[5] = 1;
    header[6..].copy_from_slice(&(DEFAULT_MAX_FRAME_LEN + 1).to_be_bytes());
    raw.write_all(&header).expect("header");

    let frame = wire::read_frame(&mut raw, 1 << 20).expect("typed reply");
    assert_eq!(frame.kind, FrameKind::Error);
    let reply: ErrorReply = wire::decode_body(&frame.body).expect("error body");
    assert_eq!(
        reply,
        ErrorReply::FrameTooLarge {
            len: DEFAULT_MAX_FRAME_LEN + 1,
            max: DEFAULT_MAX_FRAME_LEN
        }
    );
    drop(raw);
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn malformed_json_gets_a_typed_error_and_the_connection_survives() {
    let server = bind_server(NetConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    // Valid framing, garbage body.
    wire::write_frame(&mut raw, FrameKind::Request, b"{not json at all").expect("send garbage");
    let frame = wire::read_frame(&mut raw, 1 << 20).expect("typed reply");
    assert_eq!(frame.kind, FrameKind::Error);
    match wire::decode_body::<ErrorReply>(&frame.body).expect("error body") {
        ErrorReply::BadRequest { .. } => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Valid JSON, unknown request variant: same typed complaint.
    wire::write_frame(&mut raw, FrameKind::Request, b"\"FlushEverything\"")
        .expect("send unknown variant");
    let frame = wire::read_frame(&mut raw, 1 << 20).expect("typed reply");
    assert_eq!(frame.kind, FrameKind::Error);
    assert!(matches!(
        wire::decode_body::<ErrorReply>(&frame.body).expect("error body"),
        ErrorReply::BadRequest { .. }
    ));

    // The framing never broke, so the same connection still works.
    wire::write_message(&mut raw, FrameKind::Request, &wire::Request::Ping)
        .expect("ping after garbage");
    let frame = wire::read_frame(&mut raw, 1 << 20).expect("pong");
    assert_eq!(frame.kind, FrameKind::Response);

    drop(raw);
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn a_two_mib_string_body_is_refused_promptly() {
    // Decoding must be linear in the body: one long JSON string is well
    // inside the default frame cap, and a decoder that is quadratic in
    // string length would hold this worker for minutes.
    let server = bind_server(NetConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut body = vec![b'a'; 2 << 20];
    *body.first_mut().unwrap() = b'"';
    *body.last_mut().unwrap() = b'"';
    wire::write_frame(&mut raw, FrameKind::Request, &body).expect("send long string");
    let frame = wire::read_frame(&mut raw, 4 << 20).expect("typed reply within 5 s");
    assert_eq!(frame.kind, FrameKind::Error);
    assert!(matches!(
        wire::decode_body::<ErrorReply>(&frame.body).expect("error body"),
        ErrorReply::BadRequest { .. }
    ));

    wire::write_message(&mut raw, FrameKind::Request, &wire::Request::Ping)
        .expect("ping after the long string");
    let frame = wire::read_frame(&mut raw, 1 << 20).expect("pong");
    assert_eq!(frame.kind, FrameKind::Response);
    server.shutdown();
}

#[test]
fn invalid_program_is_rejected_at_the_boundary_and_serving_continues() {
    // A program that decodes but fails `Program::validate` (its tree
    // still references the computation that was cleared) must be turned
    // away with validate's own message before it reaches the scoring
    // path — and must cost nobody else anything: the same connection
    // and a fresh one both still get exact in-process scores.
    let server = bind_server(NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let mut hollow = program();
    hollow.comps.clear();
    match client.speedups(&hollow, &[Schedule::empty()]) {
        Err(NetError::Remote(ErrorReply::BadRequest { message })) => assert!(
            message.contains("unknown computation CompId(0)"),
            "the rejection must carry validate's text, got {message:?}"
        ),
        other => panic!("expected a typed BadRequest, got {other:?}"),
    }

    let feat_cfg = FeaturizerConfig::default();
    let model = CostModel::new(CostModelConfig::fast(feat_cfg.vector_width()), 0);
    let wave = [
        Schedule::empty(),
        Schedule::new(vec![Transform::Unroll {
            comp: CompId(0),
            factor: 4,
        }]),
    ];
    let expected: Vec<u64> = ModelEvaluator::new(&model, Featurizer::new(feat_cfg))
        .speedup_batch(&program(), &wave)
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let mut second = NetClient::connect(server.local_addr()).expect("second connection");
    for (who, conn) in [("same", &mut client), ("second", &mut second)] {
        let served: Vec<u64> = conn
            .speedups(&program(), &wave)
            .unwrap_or_else(|e| panic!("{who} connection must still be served: {e}"))
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(served, expected, "{who} connection");
    }
    assert_eq!(server.stats().serve.queries, wave.len() * 2);
    server.shutdown();
}

#[test]
fn wrong_magic_and_wrong_version_are_typed_then_closed() {
    let server = bind_server(NetConfig::default());

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("http-ish bytes");
    let frame = wire::read_frame(&mut raw, 1 << 20).expect("typed reply");
    assert_eq!(frame.kind, FrameKind::Error);
    assert!(matches!(
        wire::decode_body::<ErrorReply>(&frame.body).expect("error body"),
        ErrorReply::BadRequest { .. }
    ));

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = 42; // a future wire version
    header[5] = 1;
    raw.write_all(&header).expect("header");
    let frame = wire::read_frame(&mut raw, 1 << 20).expect("typed reply");
    assert_eq!(frame.kind, FrameKind::Error);
    assert_eq!(
        wire::decode_body::<ErrorReply>(&frame.body).expect("error body"),
        ErrorReply::UnsupportedVersion {
            got: 42,
            expected: WIRE_VERSION
        }
    );

    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn full_accept_queue_sheds_connections_with_a_typed_overload() {
    // One worker and the 16-socket accept queue: the worker parks on a
    // held connection, sixteen more wait in the queue, and the next one
    // must be turned away with a typed Overloaded frame.
    let server = bind_server(NetConfig { max_connections: 1 });
    let addr = server.local_addr();

    let held = NetClient::connect(addr).expect("held connection");
    // Wait until the single worker owns the held connection.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().net.active_connections < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never picked up"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let queued: Vec<NetClient> = (0..16)
        .map(|_| NetClient::connect(addr).expect("queued connection"))
        .collect();
    while server.stats().net.accept_queue_depth < 16 {
        assert!(std::time::Instant::now() < deadline, "queue never filled");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut rejected = NetClient::connect(addr).expect("tcp accepts, server rejects");
    match rejected.ping() {
        Err(NetError::Remote(ErrorReply::Overloaded { limit: 16 })) => {}
        // The server may close before the reply is readable; a frame
        // error is an acceptable shed, a hang is not.
        Err(NetError::Frame(_)) => {}
        other => panic!("expected typed overload or closed connection, got {other:?}"),
    }

    let report = server.stats();
    assert_eq!(report.net.rejected_queue_full, 1);
    assert_eq!(
        report.serve.rejected_overload, 1,
        "visible in ServeStats too"
    );
    drop(held);
    drop(queued);
    server.shutdown();
}

/// Sends `body` as a request frame: the worker must answer with a typed
/// `BadRequest` and keep reading the same connection.
fn expect_bad_request(raw: &mut TcpStream, body: &[u8]) {
    wire::write_frame(raw, FrameKind::Request, body).expect("send bomb");
    let frame = wire::read_frame(raw, 1 << 20).expect("typed reply");
    assert_eq!(frame.kind, FrameKind::Error);
    match wire::decode_body::<ErrorReply>(&frame.body).expect("error body") {
        ErrorReply::BadRequest { .. } => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

#[test]
fn a_megabyte_of_nesting_is_a_bad_request_not_a_dead_worker() {
    // A decoder that recursed once per `[` would overflow the worker's
    // stack on these bodies — an abort no `catch_unwind` catches, taking
    // the whole server with it. The codec stops at its nesting cap.
    let server = bind_server(NetConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let repeat = |unit: &str| unit.repeat((1 << 20) / unit.len());
    for bomb in [
        repeat("["),
        repeat("{\"a\":"),
        // Under a key the request type does not know: skipped, by the
        // same bounded walk.
        format!("{{\"Speedups\":{{\"junk\":{}", repeat("[")),
        // Inside the one recursive type a request carries, where the
        // typed decoder itself is what nests.
        format!(
            "{{\"Speedups\":{{\"program\":{{\"comps\":[{{\"expr\":{}",
            repeat("{\"Neg\":")
        ),
    ] {
        expect_bad_request(&mut raw, bomb.as_bytes());
    }
    wire::write_message(&mut raw, FrameKind::Request, &wire::Request::Ping)
        .expect("ping after the bombs");
    let frame = wire::read_frame(&mut raw, 1 << 20).expect("pong");
    assert_eq!(frame.kind, FrameKind::Response);

    let mut second = NetClient::connect(server.local_addr()).expect("second connection");
    second.ping().expect("a second connection is served");
    assert_still_serving(&server);
    server.shutdown();
}

/// Every message kind the protocol has, in the order
/// `tests/fixtures/frames_v1.bin` holds them.
fn fixture_messages() -> Vec<(FrameKind, Message)> {
    use wire::{ModelInfoReport, ReloadRejectKind, Request, Response, StatsReport};
    let info = ModelInfoReport {
        fingerprint: "00c0ffee00c0ffee".to_string(),
        model_swaps: 2,
    };
    let mut report = StatsReport::default();
    report.serve.queries = 1_000_003;
    report.serve.hit_rate = 999_999.0 / 1_000_003.0;
    report.serve.mean_latency = 2.5e-7;
    report.net.requests = 4_256;
    let requests = [
        Request::Speedups {
            program: program(),
            schedules: vec![
                Schedule::empty(),
                Schedule::new(vec![Transform::Unroll {
                    comp: CompId(0),
                    factor: 4,
                }]),
            ],
            deadline_ms: Some(250),
        },
        Request::Speedups {
            program: program(),
            schedules: vec![],
            deadline_ms: None,
        },
        Request::Stats,
        Request::ModelInfo,
        Request::Reload {
            artifact_dir: "results/\"new\"\\model\n".to_string(),
        },
        Request::Ping,
        Request::Shutdown,
    ];
    let responses = [
        Response::Speedups {
            // A subnormal, 17 significant digits, and the shapes the
            // writer treats specially (integral, exponent form).
            scores: vec![5e-324, 1.000_000_000_000_000_2, 1.0 / 3.0, 2.0, 1e21, -0.5],
        },
        Response::Stats(Box::new(report)),
        Response::ModelInfo(info.clone()),
        Response::Reloaded(info),
        Response::Pong,
        Response::ShuttingDown,
    ];
    let errors = [
        ErrorReply::Overloaded { limit: 64 },
        ErrorReply::Timeout { deadline_ms: 250 },
        ErrorReply::BadRequest {
            message: "expected `,` or `}` at byte 7".to_string(),
        },
        ErrorReply::FrameTooLarge {
            len: u32::MAX,
            max: 16 << 20,
        },
        ErrorReply::UnsupportedVersion {
            got: 42,
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
    ];
    let mut out = Vec::new();
    out.extend(requests.map(|m| (FrameKind::Request, Message::Request(m))));
    out.extend(responses.map(|m| (FrameKind::Response, Message::Response(m))));
    out.extend(errors.map(|m| (FrameKind::Error, Message::Error(m))));
    out
}

#[derive(Debug, PartialEq)]
enum Message {
    Request(wire::Request),
    Response(wire::Response),
    Error(ErrorReply),
}

impl Message {
    fn decode(kind: FrameKind, body: &[u8]) -> Message {
        match kind {
            FrameKind::Request => Message::Request(wire::decode_body(body).expect("request")),
            FrameKind::Response => Message::Response(wire::decode_body(body).expect("response")),
            FrameKind::Error => Message::Error(wire::decode_body(body).expect("error")),
        }
    }

    fn write(&self, w: &mut impl Write, kind: FrameKind) {
        match self {
            Message::Request(m) => wire::write_message(w, kind, m),
            Message::Response(m) => wire::write_message(w, kind, m),
            Message::Error(m) => wire::write_message(w, kind, m),
        }
        .expect("write frame");
    }
}

/// A sink that counts `write` calls (and takes whatever it is given).
#[derive(Default)]
struct CountingSink {
    bytes: Vec<u8>,
    writes: usize,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A source that hands out one byte per `read`, as a slow link would.
struct Trickle<'a>(&'a [u8]);

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.len().min(buf.len()).min(1);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

#[test]
fn frames_written_before_the_streaming_codec_decode_and_re_encode_byte_for_byte() {
    // The fixture was written by `wire::write_message` at cbee815 (the
    // tree codec, PR 18) from `fixture_messages()`: the wire did not
    // move by a byte, in either direction.
    let fixture: &[u8] = include_bytes!("fixtures/frames_v1.bin");
    let mut unread = fixture;
    let mut rewritten = Vec::new();
    for (kind, message) in fixture_messages() {
        let frame = wire::read_frame(&mut unread, 1 << 20).expect("fixture frame");
        assert_eq!(frame.kind, kind);
        assert_eq!(Message::decode(frame.kind, &frame.body), message);
        message.write(&mut rewritten, kind);
    }
    assert!(matches!(
        wire::read_frame(&mut unread, 1 << 20),
        Err(wire::FrameError::Closed)
    ));
    assert!(
        rewritten == fixture,
        "re-encoded frames differ from the fixture"
    );
}

#[test]
fn a_frame_is_one_write_and_survives_a_one_byte_at_a_time_reader() {
    for (kind, message) in fixture_messages() {
        let mut sink = CountingSink::default();
        message.write(&mut sink, kind);
        assert_eq!(sink.writes, 1, "{message:?}: header and body in one write");
        let mut trickle = Trickle(&sink.bytes);
        let frame = wire::read_frame(&mut trickle, 1 << 20).expect("trickled frame");
        assert_eq!(Message::decode(frame.kind, &frame.body), message);
        assert!(matches!(
            wire::read_frame(&mut trickle, 1 << 20),
            Err(wire::FrameError::Closed)
        ));
    }
}
