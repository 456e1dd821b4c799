//! The serving loop: accept, frame, dispatch, drain.
//!
//! One OS thread per connection, bounded by a connection cap; the *compute*
//! concurrency is bounded separately by the engine's admission controller,
//! which each print pass goes through (with the client's tenant and
//! deadline attached). Reads and writes carry socket timeouts, so a stalled
//! client can never hold anything but its own thread — admission slots are
//! only held inside a print pass, never across a read.
//!
//! Shutdown is a drain: on SIGTERM (or an admin `Shutdown` frame) the
//! server stops accepting, flips readiness (Hello answers `draining`), lets
//! in-flight requests finish up to the drain timeout, then returns from
//! [`Server::run`].

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lux_core::{EventKind, SessionLogger};
use lux_engine::knobs::knobs;
use lux_engine::trace::{names as metric, MetricsRegistry};
use lux_engine::{failpoint, AdmissionController};

use crate::protocol::{read_frame, write_frame, ErrorCode, Frame, ProtoError, Request, Response};
use crate::registry::Registry;

/// Version string sent in `HelloAck`.
pub const SERVER_VERSION: &str = concat!("lux-server/", env!("CARGO_PKG_VERSION"));

/// Serving-layer knobs, each with a `LUX_*` environment override.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// `host:port`, or `unix:<path>` for a Unix domain socket
    /// (`LUX_SERVER_ADDR`).
    pub addr: String,
    /// The spool directory durable state lives in (`LUX_SERVER_DATA_DIR`).
    pub data_dir: PathBuf,
    /// Per-read socket timeout (`LUX_READ_TIMEOUT_MS`). Bounds how long a
    /// slow or dead client can hold its connection thread.
    pub read_timeout: Duration,
    /// Per-write socket timeout (follows `LUX_READ_TIMEOUT_MS`).
    pub write_timeout: Duration,
    /// How long the drain waits for in-flight requests before the hard
    /// cutoff (`LUX_DRAIN_TIMEOUT_MS`).
    pub drain_timeout: Duration,
    /// Connection cap; excess connections get a typed error and a close.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7717".to_string(),
            data_dir: PathBuf::from("lux-server-data"),
            read_timeout: Duration::from_millis(10_000),
            write_timeout: Duration::from_millis(10_000),
            drain_timeout: Duration::from_millis(5_000),
            max_conns: 256,
        }
    }
}

impl ServerConfig {
    /// Defaults overridden by the `LUX_*` variables named above
    /// ([`lux_engine::knobs`]; an invalid value keeps the default).
    pub fn from_env() -> ServerConfig {
        let env = knobs();
        let d = ServerConfig::default();
        let io_timeout = env.read_timeout.map(|t| t.max(Duration::from_millis(1)));
        ServerConfig {
            addr: env.server_addr.clone().unwrap_or(d.addr),
            data_dir: env.server_data_dir.clone().unwrap_or(d.data_dir),
            read_timeout: io_timeout.unwrap_or(d.read_timeout),
            write_timeout: io_timeout.unwrap_or(d.write_timeout),
            drain_timeout: env.drain_timeout.unwrap_or(d.drain_timeout),
            max_conns: d.max_conns,
        }
    }
}

/// TCP, Unix, or in-memory listener behind one interface.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
    Mem(crate::mem::MemListener),
}

impl Listener {
    fn bind(addr: &str) -> std::io::Result<(Listener, String)> {
        if let Some(name) = addr.strip_prefix("mem:") {
            let l = crate::mem::MemListener::bind(name)?;
            Ok((Listener::Mem(l), format!("mem:{name}")))
        } else if let Some(path) = addr.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path); // stale socket from a crash
            let l = UnixListener::bind(path)?;
            Ok((Listener::Unix(l), format!("unix:{path}")))
        } else {
            let l = TcpListener::bind(addr)?;
            let local = l.local_addr()?;
            Ok((Listener::Tcp(l), local.to_string()))
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Mem(_) => Ok(()), // mem accept is always non-blocking
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                Conn::tcp(s)
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Unix(s))
            }
            Listener::Mem(l) => Ok(Conn::Mem(l.accept()?)),
        }
    }

    /// Block until a peer is waiting to be accepted or `timeout` has passed,
    /// whichever is first (`poll(2)` on the listening socket; raw libc over
    /// FFI like `install_signal_handlers`). A plain sleep would make every
    /// new connection wait out the rest of a tick, and a session whose work
    /// takes about one tick last one tick or two depending on which side of
    /// it the machine's speed puts it.
    fn wait_acceptable(&self, timeout: Duration) {
        use std::os::fd::AsRawFd;
        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
        }
        const POLLIN: i16 = 1;
        let fd = match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
            // No descriptor to wait on: the simulated transport keeps the tick.
            Listener::Mem(_) => return std::thread::sleep(timeout),
        };
        let mut p = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // A signal (the terminate latch) cuts the wait short, which is what
        // the caller wants; any other failure must not turn into a spin.
        if unsafe { poll(&mut p, 1, ms) } < 0
            && std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted
        {
            std::thread::sleep(timeout);
        }
    }
}

/// One accepted connection (TCP, Unix, or in-memory), read/write with
/// timeouts.
pub enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
    Mem(crate::mem::MemStream),
}

impl Conn {
    /// Connect a client to `host:port`, `unix:<path>`, or `mem:<name>`.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        if let Some(name) = addr.strip_prefix("mem:") {
            Ok(Conn::Mem(crate::mem::connect(name)?))
        } else if let Some(path) = addr.strip_prefix("unix:") {
            Ok(Conn::Unix(UnixStream::connect(path)?))
        } else {
            Conn::tcp(TcpStream::connect(addr)?)
        }
    }

    /// Every TCP stream, dialed or accepted, runs with `TCP_NODELAY`:
    /// frames are written whole, so there is nothing for Nagle to merge
    /// and a request/response exchange must not wait out an ACK timer.
    fn tcp(s: TcpStream) -> std::io::Result<Conn> {
        s.set_nodelay(true)?;
        Ok(Conn::Tcp(s))
    }

    pub fn set_timeouts(&self, read: Duration, write: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
            Conn::Unix(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
            Conn::Mem(s) => {
                s.set_read_timeout(read);
                Ok(())
            }
        }
    }

    /// Half-close towards the peer (used on fatal protocol errors).
    fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Mem(s) => s.shutdown(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
            Conn::Mem(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
            Conn::Mem(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
            Conn::Mem(s) => s.flush(),
        }
    }
}

/// Process-wide SIGTERM/SIGINT latch, set from the signal handler. Raw
/// libc `signal` over FFI keeps the crate dependency-free; the handler
/// body is a single atomic store, which is async-signal-safe.
static TERMINATE: AtomicBool = AtomicBool::new(false);

extern "C" fn on_terminate(_sig: i32) {
    TERMINATE.store(true, Ordering::SeqCst);
}

/// Install SIGTERM/SIGINT handlers that request a graceful drain.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_terminate as *const () as usize);
        signal(SIGINT, on_terminate as *const () as usize);
    }
}

/// The server: registry + listener + drain machinery.
pub struct Server {
    cfg: ServerConfig,
    registry: Arc<Registry>,
    listener: Listener,
    local_addr: String,
    /// Set to request a drain (by SIGTERM, an admin frame, or a test).
    shutdown: Arc<AtomicBool>,
    /// Readiness flip: set once draining; `Hello` answers `draining: true`
    /// and new work is refused with a typed error.
    draining: Arc<AtomicBool>,
    /// Requests currently executing (not idle connections).
    in_flight: Arc<AtomicUsize>,
    conns: Arc<AtomicUsize>,
    logger: Arc<SessionLogger>,
}

impl Server {
    /// Bind the listener and recover session state from the spool directory.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        failpoint::init();
        // The data dir must exist before the logger opens its JSONL file in
        // it — otherwise a fresh deployment silently drops its log and loses
        // request attribution.
        std::fs::create_dir_all(&cfg.data_dir)?;
        // Logger first: the registry attaches it to every frame so
        // server-side passes emit attributable PassSummary JSONL events. A
        // log that cannot be opened is dropped, never kept in memory.
        let logger = SessionLogger::to_file(&cfg.data_dir.join("server.log.jsonl"))
            .unwrap_or_else(|_| SessionLogger::discard());
        let (registry, notes) =
            Registry::recover_with_logger(&cfg.data_dir, Some(Arc::clone(&logger)))?;
        let (listener, local_addr) = Listener::bind(&cfg.addr)?;
        // Anomalous passes dump their traces under the data dir unless
        // LUX_FLIGHT_SPOOL already pointed the recorder elsewhere.
        let flight = lux_engine::FlightRecorder::global();
        if flight.enabled() && flight.spool().is_none() {
            flight.set_spool(&cfg.data_dir.join("flight"));
        }
        for w in &knobs().invalid {
            logger.log(EventKind::ActionFault, w.clone(), None);
        }
        for n in notes {
            logger.log(EventKind::Server, n, None);
        }
        logger.log(
            EventKind::Server,
            format!("{SERVER_VERSION} listening on {local_addr}"),
            None,
        );
        Ok(Server {
            cfg,
            registry: Arc::new(registry),
            listener,
            local_addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            draining: Arc::new(AtomicBool::new(false)),
            in_flight: Arc::new(AtomicUsize::new(0)),
            conns: Arc::new(AtomicUsize::new(0)),
            logger,
        })
    }

    /// The bound address (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Handle a test or embedding can use to request a drain.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The recovered registry (for embedding and tests).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Accept until a drain is requested, then drain and return. Returns
    /// the number of requests still in flight at the hard cutoff (0 on a
    /// clean drain).
    pub fn run(&self) -> std::io::Result<usize> {
        self.listener.set_nonblocking(true)?;
        while !self.shutdown.load(Ordering::SeqCst) && !TERMINATE.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok(conn) => self.spawn_handler(conn),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // The timeout only paces the look at the drain flags; a
                    // dialed connection ends the wait at once.
                    self.listener.wait_acceptable(Duration::from_millis(20));
                }
                Err(e) => {
                    self.logger
                        .log(EventKind::ActionFault, format!("accept failed: {e}"), None);
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        Ok(self.drain())
    }

    /// Stop accepting, flip readiness, wait for in-flight work up to the
    /// drain timeout. Connection threads see `draining` and refuse new
    /// work; the process exits (killing idle readers) when the caller
    /// returns from `run`.
    fn drain(&self) -> usize {
        self.draining.store(true, Ordering::SeqCst);
        self.logger.log(
            EventKind::Server,
            format!(
                "draining: {} in-flight request(s), cutoff {}ms",
                self.in_flight.load(Ordering::SeqCst),
                self.cfg.drain_timeout.as_millis()
            ),
            None,
        );
        let deadline = lux_engine::clock::now() + self.cfg.drain_timeout;
        while self.in_flight.load(Ordering::SeqCst) > 0 && lux_engine::clock::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let leftover = self.in_flight.load(Ordering::SeqCst);
        self.logger.log(
            EventKind::Server,
            if leftover == 0 {
                "drained cleanly".to_string()
            } else {
                format!("drain hard cutoff with {leftover} request(s) in flight")
            },
            None,
        );
        leftover
    }

    fn spawn_handler(&self, conn: Conn) {
        let _ = conn.set_timeouts(self.cfg.read_timeout, self.cfg.write_timeout);
        if self.conns.fetch_add(1, Ordering::SeqCst) >= self.cfg.max_conns {
            self.conns.fetch_sub(1, Ordering::SeqCst);
            let mut conn = conn;
            let (t, p) = Response::Error {
                code: ErrorCode::Draining,
                message: format!("connection limit {} reached", self.cfg.max_conns),
                trace: String::new(),
            }
            .encode();
            let _ = write_frame(&mut conn, t, 0, &p);
            conn.shutdown();
            return;
        }
        let ctx = HandlerCtx {
            registry: Arc::clone(&self.registry),
            draining: Arc::clone(&self.draining),
            shutdown: Arc::clone(&self.shutdown),
            in_flight: Arc::clone(&self.in_flight),
            conns: Arc::clone(&self.conns),
            logger: Arc::clone(&self.logger),
        };
        std::thread::spawn(move || {
            let mut conn = conn;
            handle_connection(&mut conn, &ctx);
            conn.shutdown();
            ctx.conns.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

struct HandlerCtx {
    registry: Arc<Registry>,
    draining: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    in_flight: Arc<AtomicUsize>,
    conns: Arc<AtomicUsize>,
    logger: Arc<SessionLogger>,
}

/// Decrement-on-drop guard for the in-flight request counter: a panicking
/// request handler (injected or otherwise) must never wedge the drain.
struct InFlight<'a>(&'a AtomicUsize);

impl<'a> InFlight<'a> {
    fn enter(counter: &'a AtomicUsize) -> InFlight<'a> {
        counter.fetch_add(1, Ordering::SeqCst);
        InFlight(counter)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(conn: &mut Conn, ctx: &HandlerCtx) {
    let metrics = MetricsRegistry::global();
    // Tenant identity is per-connection, set by Hello.
    let mut tenant: Option<String> = None;
    loop {
        // Failpoint: injected read failure — the handler must release
        // everything and exit, exactly like a dead client.
        if failpoint::hit(failpoint::names::SERVER_READ).is_some() {
            return;
        }
        let frame = match read_frame(conn) {
            Ok(f) => f,
            Err(ProtoError::Closed) => return,
            Err(e @ ProtoError::Crc { .. }) => {
                // Stream still aligned: answer and keep serving.
                metrics.incr(metric::SERVER_PROTOCOL_ERRORS);
                let resp = Response::Error {
                    code: ErrorCode::Protocol,
                    message: e.to_string(),
                    trace: String::new(),
                };
                if !send(conn, 0, &resp, ctx) {
                    return;
                }
                continue;
            }
            Err(ProtoError::IdleTimeout) => {
                // No bytes consumed: the connection is just idle. Keep
                // waiting — unless draining, when idle readers hang up so
                // the process can exit.
                if ctx.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(ProtoError::Io(e)) => {
                // Mid-frame I/O failure: a slowloris that stalled inside a
                // frame, a reset, or an injected fault. The stream cannot
                // be realigned — drop the connection (releasing its
                // thread; admission slots are never held across reads).
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    metrics.incr(metric::SERVER_TIMEOUTS);
                }
                return;
            }
            Err(e) => {
                // Bad magic/version/length: framing is lost. One typed
                // error, then close.
                metrics.incr(metric::SERVER_PROTOCOL_ERRORS);
                let code = match e {
                    ProtoError::TooLarge(_) => ErrorCode::TooLarge,
                    _ => ErrorCode::Protocol,
                };
                let resp = Response::Error {
                    code,
                    message: e.to_string(),
                    trace: String::new(),
                };
                let _ = send(conn, 0, &resp, ctx);
                return;
            }
        };
        metrics.incr(metric::SERVER_REQUESTS);
        let Frame {
            msg_type,
            request_id,
            payload,
        } = frame;
        let request = match Request::decode(msg_type, &payload) {
            Ok(r) => r,
            Err(msg) => {
                metrics.incr(metric::SERVER_PROTOCOL_ERRORS);
                let resp = Response::Error {
                    code: ErrorCode::Protocol,
                    message: msg,
                    trace: String::new(),
                };
                if !send(conn, request_id, &resp, ctx) {
                    return;
                }
                continue;
            }
        };
        let _guard = InFlight::enter(&ctx.in_flight);
        let resp = process(&request, &mut tenant, ctx);
        let end = matches!(resp, Response::ShuttingDown);
        if !send(conn, request_id, &resp, ctx) {
            return;
        }
        if end {
            return;
        }
    }
}

/// Write one response; returns false when the connection should be torn
/// down (dead client or injected write failure).
fn send(conn: &mut Conn, request_id: u32, resp: &Response, ctx: &HandlerCtx) -> bool {
    if failpoint::hit(failpoint::names::SERVER_WRITE).is_some() {
        ctx.logger.log(
            EventKind::ActionFault,
            "injected write failure; dropping connection",
            None,
        );
        return false;
    }
    let (t, p) = resp.encode();
    match write_frame(conn, t, request_id, &p) {
        Ok(()) => true,
        Err(e) => {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                MetricsRegistry::global().incr(metric::SERVER_TIMEOUTS);
            }
            false
        }
    }
}

/// Server-minted trace id sequence (used when a `Print` arrives with an
/// empty trace id, so every pass is attributable even for old-style
/// clients).
static NEXT_TRACE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn mint_trace_id() -> String {
    format!("srv-{}", NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
}

fn unknown_frame(tenant: &str, name: &str, trace: String) -> Response {
    Response::Error {
        code: ErrorCode::UnknownFrame,
        message: format!("no frame named {name:?} for tenant {tenant:?}"),
        trace,
    }
}

fn process(request: &Request, tenant: &mut Option<String>, ctx: &HandlerCtx) -> Response {
    let draining = ctx.draining.load(Ordering::SeqCst);
    let no_trace = String::new;
    match request {
        Request::Hello { tenant: t } => match ctx.registry.register_tenant(t) {
            Ok(()) => {
                *tenant = Some(t.clone());
                Response::HelloAck {
                    server_version: SERVER_VERSION.to_string(),
                    draining,
                    degraded: ctx.registry.journal_degraded(),
                }
            }
            Err((code, message)) => Response::Error {
                code,
                message,
                trace: no_trace(),
            },
        },
        Request::Ping => Response::Pong,
        Request::Stats => Response::StatsText {
            text: stats_text(ctx),
        },
        // Observability ops stay answerable while draining (and before
        // Hello): an operator diagnosing a drain needs them most.
        Request::Metrics => Response::MetricsText {
            text: MetricsRegistry::global().snapshot().prometheus_text(),
        },
        Request::Flight => Response::FlightText {
            text: lux_engine::FlightRecorder::global().render_text(),
        },
        Request::Shutdown => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            Response::ShuttingDown
        }
        // StatFrame is the reconnect-settlement probe: read-only, cheap,
        // and most needed exactly when the server is restarting or
        // draining — answerable any time after Hello.
        Request::StatFrame { name } => {
            let Some(tenant) = tenant.as_deref() else {
                return Response::Error {
                    code: ErrorCode::Protocol,
                    message: "send Hello before frame operations".to_string(),
                    trace: no_trace(),
                };
            };
            match ctx.registry.get(tenant, name) {
                Some(e) => Response::FrameStat {
                    exists: true,
                    rows: e.rows,
                    cols: e.cols,
                    fingerprint: e.fingerprint,
                    seq: e.seq,
                    token: e.token.clone(),
                },
                None => Response::FrameStat {
                    exists: false,
                    rows: 0,
                    cols: 0,
                    fingerprint: 0,
                    seq: 0,
                    token: String::new(),
                },
            }
        }
        // Everything below is real work: refused while draining, and
        // requires a Hello first.
        Request::Print { trace, .. } if draining => Response::Error {
            code: ErrorCode::Draining,
            message: "server is draining for shutdown".to_string(),
            trace: trace.clone(),
        },
        _ if draining => Response::Error {
            code: ErrorCode::Draining,
            message: "server is draining for shutdown".to_string(),
            trace: no_trace(),
        },
        _ => {
            let Some(tenant) = tenant.as_deref() else {
                return Response::Error {
                    code: ErrorCode::Protocol,
                    message: "send Hello before frame operations".to_string(),
                    trace: match request {
                        Request::Print { trace, .. } => trace.clone(),
                        _ => no_trace(),
                    },
                };
            };
            match request {
                Request::PutFrame { name, csv, token } => {
                    match ctx.registry.put_frame(tenant, name, csv, token) {
                        Ok(entry) => Response::FrameAck {
                            rows: entry.rows,
                            cols: entry.cols,
                            fingerprint: entry.fingerprint,
                            seq: entry.seq,
                        },
                        Err((code, message)) => Response::Error {
                            code,
                            message,
                            trace: no_trace(),
                        },
                    }
                }
                Request::Print {
                    name,
                    intent,
                    deadline_ms,
                    per_tab,
                    trace,
                } => {
                    // Client-supplied or server-minted: either way, every
                    // response and every server-side artifact (root-span
                    // tags, PassSummary JSONL, flight dumps) carries it.
                    let trace_id = if trace.is_empty() {
                        mint_trace_id()
                    } else {
                        trace.clone()
                    };
                    let Some(entry) = ctx.registry.get(tenant, name) else {
                        return unknown_frame(tenant, name, trace_id);
                    };
                    let deadline = (*deadline_ms > 0).then(|| Duration::from_millis(*deadline_ms));
                    match entry.print(intent, tenant, deadline, *per_tab as usize, &trace_id) {
                        Ok(widget) if widget.was_shed() => Response::Busy {
                            reason: widget
                                .shed_note
                                .unwrap_or_else(|| "engine busy".to_string()),
                            trace: trace_id,
                        },
                        Ok(widget) => Response::PrintResult {
                            widget: widget.encode(),
                        },
                        Err((code, message)) => Response::Error {
                            code,
                            message,
                            trace: trace_id,
                        },
                    }
                }
                Request::VegaLite { name, intent } => {
                    let trace_id = mint_trace_id();
                    let Some(entry) = ctx.registry.get(tenant, name) else {
                        return unknown_frame(tenant, name, trace_id);
                    };
                    match entry.vega_lite(intent, tenant, &trace_id) {
                        Ok(Ok(text)) => Response::VegaLiteText { text },
                        Ok(Err(reason)) => Response::Busy {
                            reason,
                            trace: trace_id,
                        },
                        Err((code, message)) => Response::Error {
                            code,
                            message,
                            trace: trace_id,
                        },
                    }
                }
                Request::ListFrames => Response::FrameList {
                    names: ctx.registry.list(tenant),
                },
                Request::DropFrame { name } => Response::Dropped {
                    existed: ctx.registry.drop_frame(tenant, name),
                },
                // Hello/Ping/Stats/Metrics/Flight/Shutdown handled above.
                _ => Response::Error {
                    code: ErrorCode::Internal,
                    message: "unreachable request routing".to_string(),
                    trace: no_trace(),
                },
            }
        }
    }
}

fn stats_text(ctx: &HandlerCtx) -> String {
    let admission = AdmissionController::global().stats();
    let metrics = MetricsRegistry::global();
    let mut out = String::new();
    out.push_str(&format!(
        "tenants: {}  frames: {}  journal: {}\n",
        ctx.registry.tenant_count(),
        ctx.registry.frame_count(),
        ctx.registry.journal_health()
    ));
    out.push_str(&format!(
        "requests: {}  protocol_errors: {}  timeouts: {}\n",
        metrics.counter(metric::SERVER_REQUESTS),
        metrics.counter(metric::SERVER_PROTOCOL_ERRORS),
        metrics.counter(metric::SERVER_TIMEOUTS),
    ));
    out.push_str(&admission.render_text());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodelay(conn: &Conn) -> bool {
        match conn {
            Conn::Tcp(s) => s.nodelay().expect("query TCP_NODELAY"),
            _ => panic!("expected a TCP connection"),
        }
    }

    #[test]
    fn both_ends_of_a_tcp_conn_run_nodelay() {
        let (listener, addr) = Listener::bind("127.0.0.1:0").expect("bind");
        let dialed = Conn::connect(&addr).expect("connect");
        let accepted = listener.accept().expect("accept");
        assert!(nodelay(&dialed), "dialed end");
        assert!(nodelay(&accepted), "accepted end");
    }

    /// The accept loop's wait ends when a peer dials in, not when its tick
    /// does (the mechanism, with bounds far from either: a 30 s tick, a 5 s
    /// allowance).
    #[test]
    fn a_dialed_connection_ends_the_accept_wait() {
        for addr in [
            "127.0.0.1:0".to_string(),
            format!(
                "unix:{}/lux-accept-{}.sock",
                std::env::temp_dir().display(),
                std::process::id()
            ),
        ] {
            let (listener, addr) = Listener::bind(&addr).expect("bind");
            listener.set_nonblocking(true).expect("nonblocking");

            let idle = lux_engine::clock::now();
            listener.wait_acceptable(Duration::from_millis(30));
            assert!(
                lux_engine::clock::elapsed(idle) >= Duration::from_millis(25),
                "{addr}: idle wait returned early"
            );
            assert_eq!(
                listener.accept().err().map(|e| e.kind()),
                Some(std::io::ErrorKind::WouldBlock),
                "{addr}: nobody dialed"
            );

            let dialer = {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(50));
                    Conn::connect(&addr).expect("connect")
                })
            };
            let waiting = lux_engine::clock::now();
            listener.wait_acceptable(Duration::from_secs(30));
            assert!(
                lux_engine::clock::elapsed(waiting) < Duration::from_secs(5),
                "{addr}: slept the tick out"
            );
            listener.accept().expect("the dialed peer is acceptable");
            drop(dialer.join().expect("dialer"));
            if let Some(path) = addr.strip_prefix("unix:") {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}
