//! The serving tier's network front end: a bounded-worker TCP acceptor
//! with admission control and graceful drain over
//! [`dlcm_serve::InferenceService`].
//!
//! # Worker model
//!
//! One acceptor thread blocks in `accept` and pushes accepted sockets
//! onto a **bounded accept queue**; `max_connections` worker
//! threads pop sockets and serve each connection request-by-request
//! until the client hangs up. A socket arriving while the queue is full
//! is turned away immediately with a typed
//! [`ErrorReply::Overloaded`] frame — the server sheds load instead of
//! accumulating unbounded connection state. Each worker scores its own
//! request's cache misses (fanned over the shared `dlcm_eval::pool` when
//! the service has `threads > 1`), so worker threads block on I/O and
//! scoring, never on each other.
//!
//! # Admission control
//!
//! A `Speedups` program that fails `Program::validate` is answered
//! [`ErrorReply::BadRequest`] (validate's message) before any gate
//! below; the connection stays usable. Schedules are not pre-applied:
//! an illegal one panics inside its own request, which `catch_unwind`
//! answers `BadRequest` — nothing in the service outlives the request.
//!
//! Two gates, each with a typed rejection:
//!
//! 1. **Accept queue** (16 sockets): full → `Overloaded` at connect.
//!    Each of the `max_connections` workers serves one request at a
//!    time, so no more than `max_connections` requests are ever in
//!    evaluation at once.
//! 2. **Deadlines**: a request whose `deadline_ms` expired before
//!    dispatch is answered [`ErrorReply::Timeout`] and never scored; one
//!    that finishes late still gets its scores, but the service's
//!    `deadline_missed` counter ticks.
//!
//! Both outcomes surface in [`dlcm_serve::ServeStats`] via the service's
//! `note_*` hooks plus the [`NetStats`] gauges, so `/stats` (the
//! [`Request::Stats`] message) describes the whole stack.
//!
//! # Shutdown
//!
//! [`NetServer::shutdown`] (or a client's [`Request::Shutdown`] frame)
//! stops the acceptor, lets every worker finish the request it is
//! currently serving, answers queued-but-unserved sockets with a typed
//! `ShuttingDown` error, and joins all threads. In-flight queries are
//! **drained, not dropped** — no client that got its request accepted
//! loses its answer to shutdown. Both take one stop path: raise the
//! flag, wake every waiting thread, then connect once to the listener
//! so the blocking `accept` returns and the acceptor sees the flag.
//!
//! # Determinism
//!
//! The network tier adds no nondeterminism: scores come out of the same
//! `InferenceService` in-process callers use, and JSON number round-trip
//! is bit-exact (see [`crate::wire`]), so a served score equals the
//! in-process score bit-for-bit at any client count.

use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dlcm_eval::SyncEvaluator;
use dlcm_ir::fingerprint::to_hex;
use dlcm_model::{ModelArtifact, SpeedupPredictor};
use dlcm_serve::{ArtifactReloadable, InferenceService, ReloadError};

use crate::wire::{
    self, ErrorReply, FrameError, FrameKind, ModelInfoReport, NetStats, ReloadRejectKind, Request,
    Response, StatsReport, DEFAULT_MAX_FRAME_LEN,
};

/// How long an idle connection's read waits before its worker looks at
/// the shutdown flag again (a pending request wakes it at once through
/// the socket), and how long the acceptor backs off after a failed
/// `accept`.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Accepted sockets allowed to wait for a free worker before new
/// arrivals are rejected with `Overloaded`.
const ACCEPT_QUEUE: usize = 16;

/// Network-tier tuning knobs. Like `ServeConfig`, none of these change
/// scores — only throughput and rejection behavior. Request frames are
/// capped at [`DEFAULT_MAX_FRAME_LEN`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Worker threads, i.e. connections served (and requests in
    /// evaluation) concurrently.
    pub max_connections: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { max_connections: 8 }
    }
}

/// State shared by the acceptor, the workers, and the handle.
struct Shared<M: SpeedupPredictor> {
    service: InferenceService<M>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Signalled, under the queue lock, when `shutdown` is raised.
    stopped: Condvar,
    /// The bound address, which `stop` connects to.
    addr: SocketAddr,
    connections_accepted: AtomicUsize,
    active_connections: AtomicUsize,
    rejected_queue_full: AtomicUsize,
    requests: AtomicUsize,
    errors_sent: AtomicUsize,
}

impl<M: SpeedupPredictor> Shared<M> {
    fn net_stats(&self) -> NetStats {
        NetStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            accept_queue_depth: self.queue.lock().expect("accept queue").len(),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            errors_sent: self.errors_sent.load(Ordering::Relaxed),
        }
    }

    fn stats_report(&self) -> StatsReport {
        StatsReport {
            serve: self.service.stats(),
            net: self.net_stats(),
        }
    }

    fn model_info(&self) -> ModelInfoReport {
        ModelInfoReport {
            fingerprint: to_hex(self.service.active_model_fingerprint()),
            model_swaps: self.service.model_swaps(),
        }
    }

    /// The one stop path of drain and the `Shutdown` frame: raises the
    /// flag, wakes the idle workers and [`NetServer::wait_for_shutdown`],
    /// then connects once to the listener so the acceptor's blocking
    /// `accept` returns and sees the flag. Only the first call acts.
    fn stop(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            // Under the lock: a thread that read the flag unset holds
            // it until it waits, so it cannot miss the notification.
            let _queue = self.queue.lock().expect("accept queue");
            self.queue_cv.notify_all();
            self.stopped.notify_all();
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _unused = TcpStream::connect(wake);
    }

    fn send_error(&self, stream: &mut TcpStream, reply: &ErrorReply) {
        // Best-effort: the peer may already be gone; rejection delivery
        // is advisory, the counter is the record.
        if wire::write_message(stream, FrameKind::Error, reply).is_ok() {
            self.errors_sent.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A running TCP front end over an [`InferenceService`]. Binding spawns
/// the acceptor and worker threads; dropping (or calling
/// [`NetServer::shutdown`]) drains and joins them.
///
/// # Examples
///
/// ```
/// use dlcm_model::{CostModel, CostModelConfig, Featurizer, FeaturizerConfig};
/// use dlcm_net::{NetClient, NetConfig, NetServer};
/// use dlcm_serve::{InferenceService, ServeConfig};
///
/// let feat_cfg = FeaturizerConfig::default();
/// let model = CostModel::new(CostModelConfig::fast(feat_cfg.vector_width()), 0);
/// let service = InferenceService::new(model, Featurizer::new(feat_cfg), ServeConfig::default());
/// let server = NetServer::bind(service, "127.0.0.1:0", NetConfig::default()).unwrap();
///
/// let mut client = NetClient::connect(server.local_addr()).unwrap();
/// client.ping().unwrap();
/// server.shutdown();
/// ```
pub struct NetServer<M: SpeedupPredictor + Send + Sync + 'static>
where
    InferenceService<M>: ArtifactReloadable,
{
    addr: SocketAddr,
    shared: Arc<Shared<M>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl<M: SpeedupPredictor + Send + Sync + 'static> NetServer<M>
where
    InferenceService<M>: ArtifactReloadable,
{
    /// Binds `addr` (use port 0 for an ephemeral port) and spawns the
    /// acceptor plus `cfg.max_connections` worker threads.
    pub fn bind(
        service: InferenceService<M>,
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stopped: Condvar::new(),
            addr,
            connections_accepted: AtomicUsize::new(0),
            active_connections: AtomicUsize::new(0),
            rejected_queue_full: AtomicUsize::new(0),
            requests: AtomicUsize::new(0),
            errors_sent: AtomicUsize::new(0),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("dlcm-net-accept".into())
                .spawn(move || accept_loop(&shared, listener))?
        };
        let workers = (0..cfg.max_connections.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("dlcm-net-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served model's inference service (e.g. for asserting cache
    /// bounds in tests without a network round-trip).
    pub fn service(&self) -> &InferenceService<M> {
        &self.shared.service
    }

    /// True once a shutdown has been requested (locally or by a client's
    /// `Shutdown` frame).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Snapshot of serving + network counters, same data `/stats`
    /// returns over the wire.
    pub fn stats(&self) -> StatsReport {
        self.shared.stats_report()
    }

    /// Blocks until a shutdown request arrives (e.g. a client's
    /// `Shutdown` frame) — the foreground-server idiom behind
    /// `modelctl serve --listen`.
    pub fn wait_for_shutdown(&self) {
        let mut queue = self.shared.queue.lock().expect("accept queue");
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            queue = self.shared.stopped.wait(queue).expect("accept queue");
        }
    }

    /// Graceful drain: stop accepting, finish in-flight requests, answer
    /// queued-but-unserved sockets with `ShuttingDown`, join all
    /// threads, and return the final counters.
    pub fn shutdown(mut self) -> StatsReport {
        self.drain();
        self.shared.stats_report()
    }

    fn drain(&mut self) {
        self.shared.stop();
        if let Some(acceptor) = self.acceptor.take() {
            let _unused = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _unused = worker.join();
        }
        // Whatever is still queued was never picked up by a worker:
        // reject it in the open instead of silently dropping the socket.
        let leftover: Vec<TcpStream> = self
            .shared
            .queue
            .lock()
            .expect("accept queue")
            .drain(..)
            .collect();
        for mut stream in leftover {
            self.shared
                .send_error(&mut stream, &ErrorReply::ShuttingDown);
        }
    }
}

impl<M: SpeedupPredictor + Send + Sync + 'static> Drop for NetServer<M>
where
    InferenceService<M>: ArtifactReloadable,
{
    fn drop(&mut self) {
        self.drain();
    }
}

/// Accepts sockets until shutdown, enforcing the bounded accept queue.
fn accept_loop<M: SpeedupPredictor>(shared: &Shared<M>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        // `stop` connects once after raising the flag, so every stop
        // ends a blocked `accept` here; that socket is dropped unread.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((mut stream, _peer)) => {
                shared.connections_accepted.fetch_add(1, Ordering::Relaxed);
                let mut queue = shared.queue.lock().expect("accept queue");
                if queue.len() >= ACCEPT_QUEUE {
                    drop(queue);
                    shared.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                    shared.service.note_rejected_overload();
                    shared.send_error(
                        &mut stream,
                        &ErrorReply::Overloaded {
                            limit: ACCEPT_QUEUE,
                        },
                    );
                    // Closing `stream` here sheds the connection.
                } else {
                    queue.push_back(stream);
                    drop(queue);
                    shared.queue_cv.notify_one();
                }
            }
            // Out of descriptors and the like: back off, then retry.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Pops sockets off the accept queue and serves each connection to
/// completion. Exits when shutdown is flagged and the current
/// connection (if any) has finished its in-flight request.
fn worker_loop<M: SpeedupPredictor>(shared: &Shared<M>)
where
    InferenceService<M>: ArtifactReloadable,
{
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("accept queue");
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.queue_cv.wait(queue).expect("accept queue");
            }
        };
        let Some(stream) = stream else { return };
        shared.active_connections.fetch_add(1, Ordering::Relaxed);
        // A panic while serving one connection (e.g. a forward pass on
        // adversarial input) must not take the worker down with it.
        let _unused = panic::catch_unwind(AssertUnwindSafe(|| {
            serve_connection(shared, stream);
        }));
        shared.active_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serves one connection request-by-request until the client hangs up,
/// a framing error makes the stream unrecoverable, or shutdown drains
/// it.
fn serve_connection<M: SpeedupPredictor>(shared: &Shared<M>, mut stream: TcpStream)
where
    InferenceService<M>: ArtifactReloadable,
{
    let _unused = stream.set_nodelay(true);
    // The read timeout is what lets an idle connection notice shutdown:
    // `read_frame` surfaces it as `FrameError::Idle` between frames.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Drained: the request we were serving (if any) completed;
            // close before reading further work.
            shared.send_error(&mut stream, &ErrorReply::ShuttingDown);
            return;
        }
        let frame = match wire::read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
            Ok(frame) => frame,
            Err(FrameError::Idle) => continue,
            Err(FrameError::Closed) | Err(FrameError::Truncated { .. }) => return,
            Err(FrameError::Oversized { len, max }) => {
                // The body was never read, so the stream cannot resync:
                // reject in the open and close.
                shared.send_error(&mut stream, &ErrorReply::FrameTooLarge { len, max });
                return;
            }
            Err(FrameError::BadVersion(got)) => {
                shared.send_error(
                    &mut stream,
                    &ErrorReply::UnsupportedVersion {
                        got,
                        expected: wire::WIRE_VERSION,
                    },
                );
                return;
            }
            Err(FrameError::BadMagic(_)) | Err(FrameError::BadKind(_)) => {
                shared.send_error(
                    &mut stream,
                    &ErrorReply::BadRequest {
                        message: "malformed frame header".into(),
                    },
                );
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        let arrival = Instant::now();
        if frame.kind != FrameKind::Request {
            // Framing is intact, so the connection can continue after a
            // typed complaint.
            shared.send_error(
                &mut stream,
                &ErrorReply::BadRequest {
                    message: "expected a request frame".into(),
                },
            );
            continue;
        }
        let request: Request = match wire::decode_body(&frame.body) {
            Ok(request) => request,
            Err(message) => {
                shared.send_error(&mut stream, &ErrorReply::BadRequest { message });
                continue;
            }
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            Request::Ping => {
                if wire::write_message(&mut stream, FrameKind::Response, &Response::Pong).is_err() {
                    return;
                }
            }
            Request::Stats => {
                let report = Box::new(shared.stats_report());
                if wire::write_message(&mut stream, FrameKind::Response, &Response::Stats(report))
                    .is_err()
                {
                    return;
                }
            }
            Request::Shutdown => {
                shared.stop();
                let _unused =
                    wire::write_message(&mut stream, FrameKind::Response, &Response::ShuttingDown);
                return;
            }
            Request::ModelInfo => {
                let info = shared.model_info();
                if wire::write_message(&mut stream, FrameKind::Response, &Response::ModelInfo(info))
                    .is_err()
                {
                    return;
                }
            }
            Request::Reload { artifact_dir } => {
                // A drain that raced this frame wins: once shutdown is
                // flagged no new model generation may be installed.
                if shared.shutdown.load(Ordering::SeqCst) {
                    shared.send_error(&mut stream, &ErrorReply::ShuttingDown);
                    return;
                }
                // Load-and-validate happens here, off the hot path: other
                // workers keep answering queries from the incumbent while
                // this worker deserializes the candidate. The swap only
                // lands on success; any failure leaves the incumbent
                // serving untouched.
                let loaded = ModelArtifact::load(std::path::Path::new(&artifact_dir));
                let swapped = loaded
                    .map_err(|e| (ReloadRejectKind::ArtifactInvalid, e.to_string()))
                    .and_then(|artifact| {
                        shared.service.reload_artifact(artifact).map_err(|e| {
                            let kind = match e {
                                ReloadError::SchemaMismatch { .. } => {
                                    ReloadRejectKind::SchemaMismatch
                                }
                            };
                            (kind, e.to_string())
                        })
                    });
                match swapped {
                    Ok(_fingerprint) => {
                        let info = shared.model_info();
                        if wire::write_message(
                            &mut stream,
                            FrameKind::Response,
                            &Response::Reloaded(info),
                        )
                        .is_err()
                        {
                            return;
                        }
                    }
                    Err((kind, detail)) => {
                        shared
                            .send_error(&mut stream, &ErrorReply::ReloadRejected { kind, detail });
                        continue;
                    }
                }
            }
            Request::Speedups {
                program,
                schedules,
                deadline_ms,
            } => {
                if let Err(message) = program.validate() {
                    shared.send_error(&mut stream, &ErrorReply::BadRequest { message });
                    continue;
                }
                let expired_before_dispatch = deadline_ms
                    .map(|ms| arrival.elapsed() >= Duration::from_millis(ms))
                    .unwrap_or(false);
                if expired_before_dispatch {
                    shared.service.note_rejected_deadline();
                    shared.send_error(
                        &mut stream,
                        &ErrorReply::Timeout {
                            deadline_ms: deadline_ms.expect("deadline present"),
                        },
                    );
                    continue;
                }
                // Evaluation panics (adversarial schedules) become typed
                // errors, not dead workers.
                let scored = panic::catch_unwind(AssertUnwindSafe(|| {
                    shared.service.speedup_batch_shared(&program, &schedules).0
                }));
                match scored {
                    Ok(scores) => {
                        if let Some(ms) = deadline_ms {
                            if arrival.elapsed() > Duration::from_millis(ms) {
                                shared.service.note_deadline_missed();
                            }
                        }
                        if wire::write_message(
                            &mut stream,
                            FrameKind::Response,
                            &Response::Speedups { scores },
                        )
                        .is_err()
                        {
                            return;
                        }
                    }
                    Err(_panic) => {
                        shared.send_error(
                            &mut stream,
                            &ErrorReply::BadRequest {
                                message: "evaluation failed for this request".into(),
                            },
                        );
                        continue;
                    }
                }
            }
        }
    }
}
