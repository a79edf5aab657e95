//! The connection service: everything about serving a socket that does
//! not depend on *what* is being served.
//!
//! A [`Service`] owns the listener, the acceptor thread, the fixed pool
//! of handler threads with its bounded hand-off, the overflow lane, and
//! — per connection — socket options, the drain check, HELLO/version
//! negotiation, frame decoding with the typed decode-error reply, the
//! rx/tx counters, the request's Handler span and trace tag, the
//! protocol-v3 gate, and the GOODBYE/ERROR tail. A [`FrameHandler`]
//! owns only what a request *means*: a single node dispatches to its
//! ingest pools and WAL, a cluster router fans out to shards — the same
//! server over a different source of sketches (DESIGN.md §8).
//!
//! ## Identity slots
//!
//! Every handler thread is built from a *slot*: pool threads hold slots
//! `0..handler_threads` for the life of the service, overflow threads
//! borrow one of `handler_threads..handler_threads + 64`, and a slot is
//! handed out again only after the thread that held it has exited. The
//! router derives its per-thread shard identity from the slot
//! (`client_id_base + slot`), so its exactly-once forwarding rests on a
//! slot never being live on two threads at once.
//!
//! ## Drain
//!
//! The drain flag is checked before *every* read, not only on idle
//! ticks: a peer that never goes quiet (a replication poll loop, a
//! tight producer) must not be able to starve the drain and wedge the
//! joins in [`Service::stop`]. The request already being processed
//! still finishes — the check gates picking up the next one.

use ss_trace::Phase;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use stream_ingest::TraceTag;
use stream_telemetry::{Counter, Gauge};
use stream_wire::{
    ErrorCode, Frame, ServerInfo, TraceContext, WireError, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};

/// Hard cap on concurrently-live overflow handler threads (beyond the
/// fixed pool). Past it the acceptor waits for a pooled handler.
const OVERFLOW_HANDLERS_MAX: usize = 64;

/// What a front does with a request. Exactly two implementors exist:
/// the single-node [`Server`](crate::Server) and the cluster router.
pub trait FrameHandler: Send + Sync + 'static {
    /// State private to one handler thread (the router's shard
    /// sessions; nothing for a node).
    type State;

    /// The schema and limits advertised in HELLO_ACK.
    fn info(&self) -> ServerInfo;

    /// Builds the state of the handler thread holding identity `slot`
    /// (see the module docs); called on that thread.
    fn thread_state(&self, slot: usize) -> Self::State;

    /// Serves one request frame of an established session, replying
    /// through `conn`. HELLO, GOODBYE, ERROR and frames the session's
    /// protocol may not carry never reach this.
    fn handle(&self, state: &mut Self::State, frame: Frame, conn: &mut Conn<'_>) -> Flow;
}

/// Whether a connection goes on after a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum Flow {
    /// Read the next request.
    Continue,
    /// Drop the connection.
    Close,
}

/// The knobs of a [`Service`], taken from the front's own configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// `"server"` or `"router"`: the metric-name prefix and the noun in
    /// handshake diagnostics.
    pub name: &'static str,
    /// Pooled handler threads (each serves one connection at a time).
    pub handler_threads: usize,
    /// Per-connection read timeout — the idle tick.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Largest accepted frame payload, in bytes.
    pub max_payload: u32,
}

/// Connection-level telemetry, registered under the service's name.
struct ConnMetrics {
    connections: Arc<Gauge>,
    accepted: Arc<Counter>,
    frames_rx: Arc<Counter>,
    frames_tx: Arc<Counter>,
    bytes_rx: Arc<Counter>,
    bytes_tx: Arc<Counter>,
    decode_errors: Arc<Counter>,
}

impl ConnMetrics {
    fn register(name: &str) -> Self {
        let r = stream_telemetry::global();
        let dir = |what: &str, dir: &str| {
            r.counter_with(&format!("{name}_{what}_total"), &[("dir", dir)])
        };
        ConnMetrics {
            connections: r.gauge(&format!("{name}_connections")),
            accepted: r.counter(&format!("{name}_connections_total")),
            frames_rx: dir("frames", "rx"),
            frames_tx: dir("frames", "tx"),
            bytes_rx: dir("bytes", "rx"),
            bytes_tx: dir("bytes", "tx"),
            decode_errors: r.counter(&format!("{name}_decode_errors_total")),
        }
    }
}

/// One client connection as a handler sees it: the reply channel plus
/// the current request's trace handles.
pub struct Conn<'a> {
    sock: TcpStream,
    metrics: Option<&'a ConnMetrics>,
    /// The request's wire trace context, echoed on its replies so the
    /// client can pair its Request span with our Handler span.
    ctx: Option<TraceContext>,
    /// `(trace, Handler-span)` for downstream stages to parent under.
    tag: TraceTag,
}

impl Conn<'_> {
    /// The trace context the current request arrived with.
    pub fn trace(&self) -> Option<TraceContext> {
        self.ctx
    }

    /// `(trace id, Handler span id)` of the current request: what
    /// queueing, ingest, WAL and estimation spans parent under.
    pub fn tag(&self) -> TraceTag {
        self.tag
    }

    /// [`Conn::tag`] as a wire context, for requests made on behalf of
    /// this one (the router's shard fan-out).
    pub fn forward(&self) -> Option<TraceContext> {
        self.tag
            .map(|(trace_id, span_id)| TraceContext { trace_id, span_id })
    }

    /// Opens a `phase` span under the current request's Handler span
    /// (`None` when the request is untraced).
    pub fn span(&self, phase: Phase) -> Option<ss_trace::SpanGuard> {
        self.tag.map(|(t, p)| ss_trace::span(phase, t, p, 0))
    }

    /// Sends one reply frame; the connection closes if the write fails.
    pub fn send(&mut self, frame: &Frame) -> Flow {
        match frame.write_to_traced(&mut self.sock, self.ctx) {
            Ok(n) => {
                if let Some(m) = self.metrics {
                    m.frames_tx.inc();
                    m.bytes_tx.add(n as u64);
                }
                Flow::Continue
            }
            Err(_) => Flow::Close,
        }
    }

    /// Replies with a typed error the client can act on and keeps the
    /// session open (throttle-like refusals: NOT_PRIMARY, degraded).
    pub fn refuse(&mut self, code: ErrorCode, message: &str) -> Flow {
        self.send(&Frame::Error {
            code,
            message: message.to_string(),
        })
    }

    /// Replies with a typed error and closes the session.
    pub fn fail(&mut self, code: ErrorCode, message: &str) -> Flow {
        let _ = self.refuse(code, message);
        Flow::Close
    }

    /// The reply to a frame kind only the serving side may send.
    pub fn unexpected(&mut self) -> Flow {
        self.fail(ErrorCode::Protocol, "unexpected frame for a client to send")
    }
}

struct Shared<H> {
    handler: Arc<H>,
    config: ServiceConfig,
    draining: AtomicBool,
    /// Pooled handlers free to take a connection, minus connections
    /// already queued for them: the acceptor claims one per hand-off, a
    /// pool thread returns it when its connection ends. A connection is
    /// therefore never parked behind a busy handler — with none free it
    /// goes to the overflow lane.
    free_handlers: AtomicUsize,
    metrics: Option<ConnMetrics>,
    /// Overflow lane: when every pooled handler is pinned by a
    /// long-lived session (a follower's replication poll, a supervisor's
    /// heartbeat probe, an idle producer), a new connection gets a
    /// dedicated thread instead of queueing behind sessions that never
    /// end. Entry `i` is the thread holding slot `handler_threads + i`.
    overflow: Lanes,
}

// ss-analyze: allow(a4-blocking-hot-path) -- touched on accept overflow and at stop only, never per frame
type Lanes = Mutex<Vec<Option<JoinHandle<()>>>>;

/// The receiving end of the acceptor→pool hand-off, shared by the pool
/// threads.
// ss-analyze: allow(a4-blocking-hot-path) -- accept-path hand-off, taken once per connection (not per frame); contention is bounded by the handler count
type ConnQueue = Mutex<Receiver<TcpStream>>;

impl<H> Shared<H> {
    /// The overflow lanes. Poison-tolerant: the vector is valid at
    /// every step, so a panicking sibling must not cascade.
    fn lanes(&self) -> std::sync::MutexGuard<'_, Vec<Option<JoinHandle<()>>>> {
        self.overflow.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A running acceptor + handler pool serving `H` (see the module docs).
pub struct Service<H: FrameHandler> {
    shared: Arc<Shared<H>>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    pool: Vec<JoinHandle<()>>,
}

impl<H: FrameHandler> Service<H> {
    /// Binds `addr` (port 0 for an ephemeral port) and starts serving
    /// `handler` on it.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        handler: Arc<H>,
        config: ServiceConfig,
    ) -> io::Result<Self> {
        assert!(config.handler_threads > 0, "need at least one handler");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            handler,
            metrics: stream_telemetry::ENABLED.then(|| ConnMetrics::register(config.name)),
            draining: AtomicBool::new(false),
            free_handlers: AtomicUsize::new(config.handler_threads),
            overflow: Lanes::new((0..OVERFLOW_HANDLERS_MAX).map(|_| None).collect()),
            config,
        });
        // Bounded hand-off from acceptor to pool: it only ever holds
        // connections a free handler was claimed for. With the pool busy
        // and the overflow lane full, new connections wait in the OS
        // listen backlog instead of a process-side queue.
        let (conn_tx, conn_rx) =
            std::sync::mpsc::sync_channel::<TcpStream>(shared.config.handler_threads);
        let conn_rx = Arc::new(ConnQueue::new(conn_rx));
        let pool = (0..shared.config.handler_threads)
            .map(|slot| {
                let shared = shared.clone();
                let conn_rx = conn_rx.clone();
                std::thread::spawn(move || pool_loop(&shared, slot, &conn_rx))
            })
            .collect();
        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &conn_tx, &shared))
        };
        Ok(Service {
            shared,
            local_addr,
            acceptor,
            pool,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, lets every handler finish its in-flight request
    /// (the next read answers `SHUTTING_DOWN`), and joins every thread;
    /// afterwards the service holds no reference to the handler.
    /// Returns the family name of each thread that had panicked.
    pub fn stop(self) -> Vec<&'static str> {
        self.shared.draining.store(true, Ordering::Release);
        let mut panicked = Vec::new();
        if self.acceptor.join().is_err() {
            panicked.push("acceptor");
        }
        // The acceptor is gone, so the overflow lane can no longer grow.
        let overflow = std::mem::take(&mut *self.shared.lanes());
        for h in self.pool.into_iter().chain(overflow.into_iter().flatten()) {
            if h.join().is_err() {
                panicked.push("connection handler");
            }
        }
        panicked
    }
}

fn pool_loop<H: FrameHandler>(shared: &Shared<H>, slot: usize, conn_rx: &ConnQueue) {
    let mut state = shared.handler.thread_state(slot);
    loop {
        // A poisoned lock only means a sibling handler panicked
        // mid-recv; the receiver itself is still coherent, so keep
        // serving instead of cascading.
        let queue = conn_rx.lock().unwrap_or_else(|p| p.into_inner());
        let next = queue.recv_timeout(Duration::from_millis(100));
        drop(queue);
        let draining = shared.draining.load(Ordering::Acquire);
        match next {
            // Accepted but never served once draining: drop.
            Ok(sock) if !draining => {
                handle_connection(shared, &mut state, sock);
                shared.free_handlers.fetch_add(1, Ordering::Release);
            }
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) if !draining => {}
            Err(_) => break,
        }
    }
}

fn accept_loop<H: FrameHandler>(
    listener: &TcpListener,
    conn_tx: &SyncSender<TcpStream>,
    shared: &Arc<Shared<H>>,
) {
    // Nonblocking-accept poll tick, accept-error backoff and the wait at
    // the overflow cap: the acceptor owns no data-path work.
    // ss-analyze: allow(a4-blocking-hot-path) -- acceptor-thread pacing; no frame is in flight on this thread
    let pause = || std::thread::sleep(Duration::from_millis(2));
    while !shared.draining.load(Ordering::Acquire) {
        // Transient accept errors (e.g. ECONNABORTED) keep serving.
        let Ok((mut sock, _peer)) = listener.accept() else {
            pause();
            continue;
        };
        if let Some(m) = &shared.metrics {
            m.accepted.inc();
        }
        let claim = |n: usize| n.checked_sub(1);
        loop {
            let free = &shared.free_handlers;
            if free
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, claim)
                .is_ok()
            {
                // Cannot block: the queue holds at most one connection
                // per claimed handler.
                if conn_tx.send(sock).is_err() {
                    return;
                }
                break;
            }
            // Every pooled handler is busy — possibly *forever* (a
            // follower's poll session, a supervisor's probe and an idle
            // producer never end). Spill to a dedicated thread; at the
            // cap, poll so a drain cannot wedge the acceptor.
            match spawn_overflow(shared, sock) {
                Ok(()) => break,
                Err(_) if shared.draining.load(Ordering::Acquire) => return,
                Err(back) => {
                    sock = back;
                    pause();
                }
            }
        }
    }
}

/// Serves `sock` on a fresh overflow thread under a free identity slot,
/// or hands the socket back when all [`OVERFLOW_HANDLERS_MAX`] are live.
/// If the spawn itself fails the connection is dropped (the peer sees a
/// reset and retries), the same outcome as an accept error under
/// resource exhaustion.
fn spawn_overflow<H: FrameHandler>(
    shared: &Arc<Shared<H>>,
    sock: TcpStream,
) -> Result<(), TcpStream> {
    let mut lanes = shared.lanes();
    let free = lanes.iter_mut().enumerate().find(|(_, lane)| match lane {
        Some(held) => held.is_finished(),
        None => true,
    });
    let Some((i, lane)) = free else {
        return Err(sock);
    };
    // Reap before reuse: the slot's previous holder has fully exited
    // (and dropped its state) once this join returns.
    if let Some(done) = lane.take() {
        let _ = done.join();
    }
    let slot = shared.config.handler_threads + i;
    let thread_shared = shared.clone();
    *lane = std::thread::Builder::new()
        .name("ss-overflow".to_string())
        .spawn(move || {
            let mut state = thread_shared.handler.thread_state(slot);
            handle_connection(&thread_shared, &mut state, sock);
        })
        .ok();
    Ok(())
}

/// Serves one connection to completion: handshake, then strict
/// request/reply until GOODBYE, error, disconnect, or drain.
fn handle_connection<H: FrameHandler>(shared: &Shared<H>, state: &mut H::State, sock: TcpStream) {
    let config = &shared.config;
    if sock.set_nodelay(true).is_err()
        || sock.set_read_timeout(Some(config.read_timeout)).is_err()
        || sock.set_write_timeout(Some(config.write_timeout)).is_err()
    {
        return;
    }
    let metrics = shared.metrics.as_ref();
    if let Some(m) = metrics {
        m.connections.add(1);
    }
    let mut conn = Conn {
        sock,
        metrics,
        ctx: None,
        tag: None,
    };
    serve_frames(shared, state, &mut conn);
    if let Some(m) = metrics {
        m.connections.add(-1);
    }
}

/// Reads the next frame into `conn` (setting its trace context),
/// absorbing idle ticks; `None` means the connection is done — closed,
/// errored, undecodable, or the service is draining.
///
/// `scratch` is the connection's reusable payload buffer: it grows to
/// the largest payload the connection has seen, so steady-state ingest
/// performs no per-frame allocation.
fn next_frame<H>(shared: &Shared<H>, conn: &mut Conn<'_>, scratch: &mut Vec<u8>) -> Option<Frame> {
    conn.ctx = None;
    conn.tag = None;
    loop {
        if shared.draining.load(Ordering::Acquire) {
            let _ = conn.fail(
                ErrorCode::ShuttingDown,
                &format!("{} draining; reconnect later", shared.config.name),
            );
            return None;
        }
        let max_payload = shared.config.max_payload;
        match Frame::read_traced_from_with_scratch(&mut conn.sock, max_payload, scratch) {
            Ok((frame, n, ctx)) => {
                if let Some(m) = conn.metrics {
                    m.frames_rx.inc();
                    m.bytes_rx.add(n as u64);
                }
                conn.ctx = ctx;
                return Some(frame);
            }
            Err(WireError::Idle) => {}
            Err(WireError::Closed | WireError::Io(_)) => return None,
            Err(decode_err) => {
                // Header/CRC/payload-shape failures: the stream may no
                // longer sit at a frame boundary, so report and close.
                if let Some(m) = conn.metrics {
                    m.decode_errors.inc();
                }
                let _ = conn.fail(ErrorCode::Protocol, &decode_err.to_string());
                return None;
            }
        }
    }
}

fn serve_frames<H: FrameHandler>(shared: &Shared<H>, state: &mut H::State, conn: &mut Conn<'_>) {
    // One payload buffer for the connection's whole life.
    let mut scratch = Vec::new();

    // Handshake: the first frame must be HELLO offering a protocol
    // version in our accepted range. The session then speaks the
    // *offered* version: a v2 client never sees (and may not send) the
    // v3 cluster vocabulary. Out-of-range offers get the typed
    // UNSUPPORTED_VERSION code so mixed fleets fail loud at rollout
    // instead of tripping generic protocol errors mid-session.
    let session_protocol = match next_frame(shared, conn, &mut scratch) {
        Some(Frame::Hello { protocol, .. }) => protocol,
        Some(_) => {
            let _ = conn.fail(ErrorCode::Protocol, "expected HELLO");
            return;
        }
        None => return,
    };
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&session_protocol) {
        let _ = conn.fail(
            ErrorCode::UnsupportedVersion,
            &format!(
                "protocol {session_protocol} unsupported ({} speaks \
                 {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})",
                shared.config.name
            ),
        );
        return;
    }
    if conn.send(&Frame::HelloAck(shared.handler.info())) == Flow::Close {
        return;
    }

    while let Some(frame) = next_frame(shared, conn, &mut scratch) {
        // The request's Handler span: child of the client's Request
        // span when the frame carried a trace context; downstream work
        // parents under it through `Conn::tag`.
        let handler_span = conn
            .ctx
            .map(|c| ss_trace::span(Phase::Handler, c.trace_id, c.span_id, 0));
        conn.tag = conn.ctx.map(|c| {
            let parent = handler_span
                .as_ref()
                .map_or(c.span_id, ss_trace::SpanGuard::id);
            (c.trace_id, parent)
        });
        let flow = if frame.min_protocol() > session_protocol {
            // The one version gate: no handler sees a frame its session
            // did not negotiate.
            conn.fail(
                ErrorCode::Protocol,
                &format!(
                    "frame kind {} requires a protocol-v{} session",
                    frame.kind_tag(),
                    frame.min_protocol()
                ),
            )
        } else {
            match frame {
                Frame::Goodbye => {
                    let _ = conn.send(&Frame::Goodbye);
                    Flow::Close
                }
                // The client gave up; nothing to reply.
                Frame::Error { .. } => Flow::Close,
                // ss-analyze: allow(a6-frame-exhaustive) -- delegation, not absorption: every other kind goes to the handler, whose own match enumerates them
                request => shared.handler.handle(state, request, conn),
            }
        };
        if flow == Flow::Close {
            return;
        }
    }
}
