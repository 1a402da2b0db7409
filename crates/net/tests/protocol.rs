//! Protocol abuse tests: truncated frames, oversized frames, malformed
//! JSON, and mid-request disconnects must produce typed errors (or a
//! clean close) — never a panicked worker or a wedged server.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use dlcm_eval::{Evaluator, ModelEvaluator};
use dlcm_ir::{CompId, Expr, Program, ProgramBuilder, Schedule, Transform};
use dlcm_model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};
use dlcm_net::wire::{self, FrameKind, HEADER_LEN, MAGIC, WIRE_VERSION};
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
fn oversized_frame_is_rejected_by_the_length_cap() {
    let server = bind_server(NetConfig {
        max_frame_len: 1024,
        ..NetConfig::default()
    });
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // A header *claiming* 2 MiB: the rejection must arrive from the
    // length field alone, before any body bytes are sent.
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = WIRE_VERSION;
    header[5] = 1;
    header[6..].copy_from_slice(&(2u32 << 20).to_be_bytes());
    raw.write_all(&header).expect("header");

    let frame = wire::read_frame(&mut raw, 1 << 20).expect("typed reply");
    assert_eq!(frame.kind, FrameKind::Error);
    let reply: ErrorReply = wire::decode_body(&frame.body).expect("error body");
    assert_eq!(
        reply,
        ErrorReply::FrameTooLarge {
            len: 2 << 20,
            max: 1024
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
    // One worker, a one-slot accept queue: the worker parks on a held
    // connection, a second connection waits in the queue, and a third
    // must be turned away with a typed Overloaded frame.
    let server = bind_server(NetConfig {
        max_connections: 1,
        accept_queue: 1,
        ..NetConfig::default()
    });
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
    let queued = NetClient::connect(addr).expect("queued connection");
    while server.stats().net.accept_queue_depth < 1 {
        assert!(std::time::Instant::now() < deadline, "queue never filled");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut rejected = NetClient::connect(addr).expect("tcp accepts, server rejects");
    match rejected.ping() {
        Err(NetError::Remote(ErrorReply::Overloaded { limit: 1 })) => {}
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
