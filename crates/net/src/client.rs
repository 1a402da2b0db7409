//! Blocking client for the dlcm-net wire protocol.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use dlcm_ir::{Program, Schedule};
use serde::json::Writer;
use serde::Serialize;

use crate::wire::{
    self, ErrorReply, FrameError, FrameKind, ModelInfoReport, Request, Response, StatsReport,
    DEFAULT_MAX_FRAME_LEN,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// The server rejected the request with a typed error frame
    /// (overload, timeout, bad request, ...). The connection usually
    /// stays usable — see [`ErrorReply`] for which rejections close it.
    Remote(ErrorReply),
    /// The frame stream broke (transport error, truncation, bad magic).
    Frame(FrameError),
    /// The server answered with a response variant this call did not
    /// expect — a protocol bug, not a transient failure.
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Remote(reply) => write!(f, "server rejected request: {reply}"),
            NetError::Frame(e) => write!(f, "transport failure: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Frame(FrameError::Io(e))
    }
}

/// A [`Request::Speedups`] over borrowed parts, so a call encodes the
/// caller's program and schedules without cloning them. Hand-written
/// because the vendored derive rejects generic types, lifetimes
/// included; it writes exactly the bytes the derived `Request::Speedups`
/// encoding writes (the tests below compare the two).
struct SpeedupsView<'a> {
    program: &'a Program,
    schedules: &'a [Schedule],
    deadline_ms: Option<u64>,
}

impl Serialize for SpeedupsView<'_> {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.key_lit(serde::json_key!("Speedups"));
        w.begin_object();
        w.field_lit(serde::json_key!("program"), self.program);
        w.field_lit(serde::json_key!("schedules"), self.schedules);
        w.field_lit(serde::json_key!("deadline_ms"), &self.deadline_ms);
        w.end_object();
        w.end_object();
    }
}

/// A blocking connection to a [`crate::NetServer`]. One request is in
/// flight at a time (send, then read the matching reply); open one
/// client per thread for concurrency — the parity tests drive eight.
///
/// See [`crate::NetServer`] for a connect-query-shutdown example.
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects; received frames are capped at [`DEFAULT_MAX_FRAME_LEN`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sends one request frame and reads the matching reply, lifting
    /// typed server rejections into [`NetError::Remote`]. `request` is a
    /// [`Request`] or a view that encodes to the same bytes.
    fn call(&mut self, request: &impl Serialize) -> Result<Response, NetError> {
        wire::write_message(&mut self.stream, FrameKind::Request, request)?;
        let frame = wire::read_frame(&mut self.stream, DEFAULT_MAX_FRAME_LEN)?;
        match frame.kind {
            FrameKind::Response => wire::decode_body(&frame.body).map_err(NetError::Protocol),
            FrameKind::Error => {
                let reply: ErrorReply =
                    wire::decode_body(&frame.body).map_err(NetError::Protocol)?;
                Err(NetError::Remote(reply))
            }
            FrameKind::Request => Err(NetError::Protocol(
                "server sent a request frame as a reply".into(),
            )),
        }
    }

    /// Scores `schedules` against `program` on the server. Scores come
    /// back bit-identical to in-process evaluation, in schedule order.
    pub fn speedups(
        &mut self,
        program: &Program,
        schedules: &[Schedule],
    ) -> Result<Vec<f64>, NetError> {
        self.speedups_with_deadline(program, schedules, None)
    }

    /// Like [`NetClient::speedups`] with a per-request deadline in
    /// milliseconds; an expired deadline comes back as
    /// [`NetError::Remote`]`(`[`ErrorReply::Timeout`]`)`.
    pub fn speedups_with_deadline(
        &mut self,
        program: &Program,
        schedules: &[Schedule],
        deadline_ms: Option<u64>,
    ) -> Result<Vec<f64>, NetError> {
        let response = self.call(&SpeedupsView {
            program,
            schedules,
            deadline_ms,
        })?;
        match response {
            Response::Speedups { scores } => Ok(scores),
            other => Err(NetError::Protocol(format!(
                "expected Speedups reply, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's serving + network counters.
    pub fn stats(&mut self) -> Result<StatsReport, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats(report) => Ok(*report),
            other => Err(NetError::Protocol(format!(
                "expected Stats reply, got {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(NetError::Protocol(format!(
                "expected Pong reply, got {other:?}"
            ))),
        }
    }

    /// Identifies the model generation the server is currently serving:
    /// its artifact fingerprint (16 hex digits) and how many hot swaps
    /// it has performed since binding.
    pub fn model_info(&mut self) -> Result<ModelInfoReport, NetError> {
        match self.call(&Request::ModelInfo)? {
            Response::ModelInfo(info) => Ok(info),
            other => Err(NetError::Protocol(format!(
                "expected ModelInfo reply, got {other:?}"
            ))),
        }
    }

    /// Asks the server to hot-swap its model to the artifact at
    /// `artifact_dir` **on the server's filesystem**. Returns the
    /// post-swap model identity on success; a rejected reload
    /// ([`ErrorReply::ReloadRejected`], [`ErrorReply::ShuttingDown`])
    /// comes back as [`NetError::Remote`] and guarantees the incumbent
    /// model is still serving, untouched.
    pub fn reload(&mut self, artifact_dir: &str) -> Result<ModelInfoReport, NetError> {
        let response = self.call(&Request::Reload {
            artifact_dir: artifact_dir.to_owned(),
        })?;
        match response {
            Response::Reloaded(info) => Ok(info),
            other => Err(NetError::Protocol(format!(
                "expected Reloaded reply, got {other:?}"
            ))),
        }
    }

    /// Asks the server to drain and exit (see [`Request::Shutdown`]).
    /// The connection is closed by the server after the acknowledgment.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(NetError::Protocol(format!(
                "expected ShuttingDown reply, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlcm_ir::{BinOp, CompId, Expr, LinExpr, ProgramBuilder, Transform};

    fn program(name: &str, n: i64, reduce: bool) -> Program {
        let mut b = ProgramBuilder::new(name);
        let i = b.iter("i", 0, n);
        let j = b.iter("j", 0, n);
        let inp = b.input("in", &[n, n + 2]);
        let out = b.buffer("out", &[n, n]);
        let acc = b.access(inp, &[i.into(), LinExpr::from(j) + 2], &[i, j]);
        let body = Expr::binary(BinOp::Mul, Expr::Load(acc), Expr::Const(-0.5));
        if reduce {
            b.reduce("c", &[i, j], BinOp::Add, out, &[i.into(), i.into()], body);
        } else {
            b.assign("c", &[i, j], out, &[i.into(), j.into()], body);
        }
        b.build().unwrap()
    }

    fn frame(msg: &impl Serialize) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::write_message(&mut buf, FrameKind::Request, msg).unwrap();
        buf
    }

    #[test]
    fn speedups_view_encodes_like_the_derived_request() {
        let tile = Transform::Tile {
            comp: CompId(0),
            level_a: 0,
            level_b: 1,
            size_a: 8,
            size_b: 16,
        };
        let par = Transform::Parallelize {
            comp: CompId(0),
            level: 0,
        };
        let schedule_lists = [
            vec![],
            vec![Schedule::empty()],
            vec![
                Schedule::new(vec![tile.clone(), par.clone()]),
                Schedule::empty(),
            ],
            vec![Schedule::new(vec![par]); 3],
        ];
        let programs = [
            program("p", 16, false),
            program("a \"quoted\" name", 7, true),
        ];
        for program in &programs {
            for schedules in &schedule_lists {
                for deadline_ms in [None, Some(0), Some(250), Some(u64::MAX)] {
                    let view = frame(&SpeedupsView {
                        program,
                        schedules,
                        deadline_ms,
                    });
                    let derived = frame(&Request::Speedups {
                        program: program.clone(),
                        schedules: schedules.clone(),
                        deadline_ms,
                    });
                    assert_eq!(view, derived);
                }
            }
        }
    }
}
