//! Blocking client for the dlcm-net wire protocol.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use dlcm_ir::{Program, Schedule};

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
    /// typed server rejections into [`NetError::Remote`].
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
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
        let response = self.call(&Request::Speedups {
            program: program.clone(),
            schedules: schedules.to_vec(),
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
