//! The framed wire format dlcm-net speaks over TCP.
//!
//! Every message is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"DLCM"
//! 4       1     wire version (currently 1)
//! 5       1     frame kind: 1 = request, 2 = response, 3 = error
//! 6       4     body length, big-endian u32
//! 10      n     body: one UTF-8 JSON document
//! ```
//!
//! The body of a request frame is a [`Request`], of a response frame a
//! [`Response`], of an error frame an [`ErrorReply`] — all externally
//! tagged JSON enums (`"Ping"` for unit variants,
//! `{"Speedups": {...}}` for variants with fields).
//!
//! Versioning rule: the header is fixed forever; `version` bumps when
//! the *body* schema changes incompatibly. A peer that sees a version it
//! does not speak replies with a typed
//! [`ErrorReply::UnsupportedVersion`] and closes — it never guesses.
//! Adding new enum variants (new request kinds) is a compatible change
//! because old servers answer unknown variants with a typed
//! [`ErrorReply::BadRequest`] instead of wedging.
//!
//! Score fidelity: `f64` scores cross the wire as JSON numbers printed
//! with Rust's shortest-round-trip formatting and parsed back with
//! `str::parse::<f64>`, so a served score is **bit-identical** to the
//! in-process value (the parity tests assert exact equality, not
//! approximate).
//!
//! The body length is capped at [`DEFAULT_MAX_FRAME_LEN`] on both ends:
//! a frame claiming more is rejected *before* any allocation
//! with [`FrameError::Oversized`], so a hostile or corrupt length field
//! cannot make the server allocate unbounded memory. What a body may
//! *nest* is capped too (`serde::json::MAX_DEPTH`): a frame of `[[[[…`
//! decodes to an error, not a stack overflow.
//!
//! One frame is one write: [`write_message`] streams the body into a
//! buffer behind room for the header and sends both with a single
//! `write_all`, so a `TCP_NODELAY` socket carries one segment and the
//! peer is never woken by a bare header. [`read_frame`] reads the
//! header in one go and the body in another; [`decode_body`] validates
//! the body as UTF-8 once and the parser borrows from that `&str`.

use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::time::{Duration, Instant};

use dlcm_ir::{Program, Schedule};
use dlcm_serve::ServeStats;
use serde::{Deserialize, Serialize};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"DLCM";

/// Current wire version. Bumps on incompatible body-schema changes.
pub const WIRE_VERSION: u8 = 1;

/// Fixed frame header length in bytes (magic + version + kind + length).
pub const HEADER_LEN: usize = 10;

/// Default cap on a frame's body length: 16 MiB comfortably fits the
/// largest generated program plus a full candidate wave, while bounding
/// what one frame can make the receiver allocate.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 << 20;

/// How long a started frame may go without a byte before the read gives
/// up with [`FrameError::Truncated`]: a peer that stalls mid-frame must
/// not hold a server worker (and its shutdown) forever.
const MID_FRAME_STALL: Duration = Duration::from_secs(5);

/// What kind of body a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Body is a [`Request`].
    Request,
    /// Body is a [`Response`].
    Response,
    /// Body is an [`ErrorReply`].
    Error,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Error => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            3 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// One decoded frame: its kind and raw (not yet JSON-parsed) body.
#[derive(Debug)]
pub struct Frame {
    /// What the body claims to be.
    pub kind: FrameKind,
    /// The raw JSON body bytes.
    pub body: Vec<u8>,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Score `schedules` applied to `program`, exactly as
    /// `dlcm_serve::InferenceService::speedup_batch_shared` would.
    Speedups {
        /// The program the schedules apply to.
        program: Program,
        /// Candidate schedules to score.
        schedules: Vec<Schedule>,
        /// Optional per-request deadline, milliseconds from the moment
        /// the server finished reading this frame. Expired before
        /// dispatch → typed [`ErrorReply::Timeout`]; completed late →
        /// scores are still returned but the server's `deadline_missed`
        /// counter ticks.
        deadline_ms: Option<u64>,
    },
    /// Snapshot the server's serving and network counters.
    Stats,
    /// Identify the active model: its weights fingerprint and how many
    /// hot swaps the server has completed.
    ModelInfo,
    /// Hot-swap the served model to the artifact saved under
    /// `artifact_dir` (a path on the **server's** filesystem — this is a
    /// control-plane operation for operators co-located with the
    /// server, not a data-plane upload). The server loads and validates
    /// the artifact off the hot path and swaps only on success; any
    /// failure leaves the incumbent model serving and comes back as a
    /// typed [`ErrorReply::ReloadRejected`].
    Reload {
        /// Artifact directory (`manifest.json` + `weights.bin`) on the
        /// server's filesystem.
        artifact_dir: String,
    },
    /// Liveness probe.
    Ping,
    /// Ask the server to shut down gracefully: stop accepting, drain
    /// in-flight queries, then exit. Lets test harnesses and CI tear a
    /// server down deterministically without process signals.
    Shutdown,
}

/// A successful server-to-client reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Scores for a [`Request::Speedups`], in schedule order.
    Speedups {
        /// One predicted speedup per requested schedule, bit-identical
        /// to in-process evaluation.
        scores: Vec<f64>,
    },
    /// Counters for a [`Request::Stats`] (boxed: the report is by far
    /// the widest variant and would otherwise inflate every `Response`).
    Stats(Box<StatsReport>),
    /// Identity of the active model, for a [`Request::ModelInfo`].
    ModelInfo(ModelInfoReport),
    /// Acknowledges a completed [`Request::Reload`]: the swap has
    /// happened and every query answered after this frame is scored by
    /// the new model.
    Reloaded(ModelInfoReport),
    /// Reply to [`Request::Ping`].
    Pong,
    /// Acknowledges a [`Request::Shutdown`]; the connection closes after
    /// this frame.
    ShuttingDown,
}

/// The body of a [`Request::Stats`] response: the inference service's
/// own counters plus the network tier's connection-level gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Serving-tier counters (queries, cache, batching, admission).
    pub serve: ServeStats,
    /// Network-tier counters (connections, accept queue).
    pub net: NetStats,
}

/// Identity of the model a server is currently answering with: the body
/// of [`Response::ModelInfo`] and [`Response::Reloaded`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfoReport {
    /// Weights fingerprint of the active model, as the 16-hex-digit
    /// string artifact manifests use (`u64` fingerprints do not survive
    /// JSON's doubles above 2^53).
    pub fingerprint: String,
    /// Hot swaps completed since the server started.
    pub model_swaps: usize,
}

/// Connection-level counters owned by the network tier. Admission
/// outcomes (`rejected_overload`, `rejected_deadline`,
/// `deadline_missed`) live in [`ServeStats`] — the network tier reports
/// them into the service so one snapshot describes the whole stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    /// Connections accepted since the server started.
    pub connections_accepted: usize,
    /// Connections currently being served by a worker.
    pub active_connections: usize,
    /// Accepted connections waiting for a free worker at snapshot time.
    pub accept_queue_depth: usize,
    /// Connections turned away because the bounded accept queue was
    /// full (each got a best-effort [`ErrorReply::Overloaded`] frame
    /// before close).
    pub rejected_queue_full: usize,
    /// Request frames fully decoded and dispatched.
    pub requests: usize,
    /// Error frames sent (typed rejections and malformed-input replies).
    pub errors_sent: usize,
}

/// A typed server-side rejection: the body of an error frame. Every
/// rejection a client can hit has a variant — clients never parse
/// free-form strings to find out *why* (except [`ErrorReply::BadRequest`],
/// whose message is diagnostic only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ErrorReply {
    /// The server's accept queue is full (sent at connect time). Back
    /// off and retry.
    Overloaded {
        /// The limit that was hit.
        limit: usize,
    },
    /// The request's deadline expired before evaluation started. The
    /// query was never scored.
    Timeout {
        /// The deadline the request carried.
        deadline_ms: u64,
    },
    /// The frame or its JSON body could not be understood. The message
    /// is diagnostic, not machine-readable.
    BadRequest {
        /// Human-readable decode failure.
        message: String,
    },
    /// The frame's length field exceeded the receiver's cap.
    FrameTooLarge {
        /// Claimed body length.
        len: u32,
        /// The receiver's cap.
        max: u32,
    },
    /// The frame's version byte is one this peer does not speak.
    UnsupportedVersion {
        /// Version the peer sent.
        got: u8,
        /// Version this side speaks.
        expected: u8,
    },
    /// A [`Request::Reload`] was refused; the incumbent model is still
    /// serving, untouched.
    ReloadRejected {
        /// Machine-readable failure class.
        kind: ReloadRejectKind,
        /// Human-readable detail (the underlying artifact or schema
        /// error), diagnostic only.
        detail: String,
    },
    /// The server is draining for shutdown and not taking new work.
    ShuttingDown,
}

/// Machine-readable class of a refused reload: what a deployment
/// pipeline branches on (retrain vs. fix the artifact path), while
/// `detail` stays human-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReloadRejectKind {
    /// The artifact could not be loaded: missing or unreadable files,
    /// parse failures, unsupported format version, or a weights
    /// fingerprint mismatch (corrupt/tampered `weights.bin`).
    ArtifactInvalid,
    /// The artifact loaded cleanly but was trained under a different
    /// featurizer schema than the server encodes queries with.
    SchemaMismatch,
}

impl fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorReply::Overloaded { limit } => {
                write!(f, "server overloaded (limit {limit})")
            }
            ErrorReply::Timeout { deadline_ms } => {
                write!(f, "deadline of {deadline_ms}ms expired before dispatch")
            }
            ErrorReply::BadRequest { message } => write!(f, "bad request: {message}"),
            ErrorReply::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds cap of {max}")
            }
            ErrorReply::UnsupportedVersion { got, expected } => {
                write!(f, "wire version {got} unsupported (expected {expected})")
            }
            ErrorReply::ReloadRejected { kind, detail } => {
                let kind = match kind {
                    ReloadRejectKind::ArtifactInvalid => "invalid artifact",
                    ReloadRejectKind::SchemaMismatch => "featurizer schema mismatch",
                };
                write!(f, "reload rejected ({kind}): {detail}")
            }
            ErrorReply::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames (EOF with
    /// zero bytes of the next header read). Not an error for a server —
    /// it is how clients hang up.
    Closed,
    /// The connection ended *mid-frame*: some header or body bytes
    /// arrived, then EOF, or (on a socket with a read timeout) nothing
    /// for 5 s. The remainder will never come.
    Truncated {
        /// Which part of the frame was cut off.
        context: &'static str,
    },
    /// A read timed out with zero bytes of the next frame read — the
    /// connection is idle, not broken. Only surfaced on sockets with a
    /// read timeout configured; used by the server to poll its shutdown
    /// flag between requests.
    Idle,
    /// The first four bytes were not [`MAGIC`] — the peer is not
    /// speaking this protocol.
    BadMagic([u8; 4]),
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The frame kind byte is unknown.
    BadKind(u8),
    /// The length field exceeds the receiver's cap; rejected before any
    /// body allocation.
    Oversized {
        /// Claimed body length.
        len: u32,
        /// The receiver's cap.
        max: u32,
    },
    /// Transport failure other than the cases above.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { context } => {
                write!(f, "connection closed mid-frame (truncated {context})")
            }
            FrameError::Idle => write!(f, "read timed out between frames"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds cap of {max}")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Fills `buf` from `r`, distinguishing the ways a read can stop short.
///
/// `context` names the frame part for [`FrameError::Truncated`];
/// `idle_ok` is true only while waiting for the *first* byte of a frame
/// (a timeout there means "idle", a timeout mid-frame keeps waiting —
/// frames are small, so a live peer finishes them promptly — until
/// [`MID_FRAME_STALL`] has passed without a byte).
fn fill<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
    idle_ok: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && idle_ok {
                    FrameError::Closed
                } else {
                    FrameError::Truncated { context }
                })
            }
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if filled == 0 && idle_ok {
                    return Err(FrameError::Idle);
                }
                // Mid-frame timeout: the peer started a frame, keep
                // waiting for the rest while it still sends.
                if last_progress.elapsed() >= MID_FRAME_STALL {
                    return Err(FrameError::Truncated { context });
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame, enforcing the `max_len` body cap before allocating.
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // Idle and closed are told from truncated by whether the *first*
    // byte came, which `fill` sees for itself.
    fill(r, &mut header, "header", true)?;
    if header[..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&header[..4]);
        return Err(FrameError::BadMagic(m));
    }
    if header[4] != WIRE_VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let kind = FrameKind::from_byte(header[5]).ok_or(FrameError::BadKind(header[5]))?;
    let len = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    let mut body = vec![0u8; len as usize];
    fill(r, &mut body, "body", false)?;
    Ok(Frame { kind, body })
}

fn header(kind: FrameKind, body_len: usize) -> io::Result<[u8; HEADER_LEN]> {
    let len = u32::try_from(body_len)
        .map_err(|_| io::Error::new(ErrorKind::InvalidInput, "frame body exceeds u32 length"))?;
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = WIRE_VERSION;
    header[5] = kind.to_byte();
    header[6..].copy_from_slice(&len.to_be_bytes());
    Ok(header)
}

/// Writes one frame. Fails if the body exceeds the u32 length field.
pub fn write_frame<W: Write>(w: &mut W, kind: FrameKind, body: &[u8]) -> io::Result<()> {
    w.write_all(&header(kind, body.len())?)?;
    w.write_all(body)?;
    w.flush()
}

/// Serializes `msg` as JSON and writes it as one frame of `kind`, in one
/// `write_all`: the body is streamed into a buffer behind room for the
/// header, the header is filled in once the length is known, and the
/// peer is never woken by ten bytes to wait for the rest.
pub fn write_message<W: Write, T: Serialize>(
    w: &mut W,
    kind: FrameKind,
    msg: &T,
) -> io::Result<()> {
    let mut json = serde::json::Writer::append_to(vec![0u8; HEADER_LEN]);
    msg.write_json(&mut json);
    let mut frame = json
        .finish()
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    let header = header(kind, frame.len() - HEADER_LEN)?;
    frame[..HEADER_LEN].copy_from_slice(&header);
    w.write_all(&frame)?;
    w.flush()
}

/// Parses a frame body as a JSON message of type `T`.
pub fn decode_body<T: Deserialize>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_message(&mut buf, FrameKind::Request, &Request::Ping).unwrap();
        write_message(
            &mut buf,
            FrameKind::Error,
            &ErrorReply::Overloaded { limit: 4 },
        )
        .unwrap();
        let mut r = &buf[..];
        let f1 = read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(f1.kind, FrameKind::Request);
        assert_eq!(decode_body::<Request>(&f1.body).unwrap(), Request::Ping);
        let f2 = read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(f2.kind, FrameKind::Error);
        assert_eq!(
            decode_body::<ErrorReply>(&f2.body).unwrap(),
            ErrorReply::Overloaded { limit: 4 }
        );
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn scores_cross_the_wire_bit_identically() {
        // Awkward doubles: shortest-round-trip formatting must bring
        // every bit pattern back exactly.
        let scores = vec![
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.000_000_000_000_000_2,
            123_456_789.987_654_32,
        ];
        let mut buf = Vec::new();
        write_message(
            &mut buf,
            FrameKind::Response,
            &Response::Speedups {
                scores: scores.clone(),
            },
        )
        .unwrap();
        let frame = read_frame(&mut &buf[..], DEFAULT_MAX_FRAME_LEN).unwrap();
        let back: Response = decode_body(&frame.body).unwrap();
        match back {
            Response::Speedups { scores: got } => {
                let bits: Vec<u64> = got.iter().map(|s| s.to_bits()).collect();
                let want: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(bits, want);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn truncation_and_caps_are_typed() {
        let mut buf = Vec::new();
        write_message(&mut buf, FrameKind::Request, &Request::Stats).unwrap();
        // Cut the frame mid-body.
        let cut = &buf[..buf.len() - 2];
        assert!(matches!(
            read_frame(&mut &cut[..], DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Truncated { context: "body" })
        ));
        // Cut it mid-header.
        let cut = &buf[..HEADER_LEN - 3];
        assert!(matches!(
            read_frame(&mut &cut[..], DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Truncated { context: "header" })
        ));
        // A tiny cap rejects the frame by its length field alone.
        assert!(matches!(
            read_frame(&mut &buf[..], 2),
            Err(FrameError::Oversized { max: 2, .. })
        ));
        // Wrong magic is typed too.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut &bad[..], DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::BadMagic(_))
        ));
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(matches!(
            read_frame(&mut &bad[..], DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::BadVersion(9))
        ));
    }
}
