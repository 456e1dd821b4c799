//! A blocking client for the wire protocol, used by the CLI's client mode,
//! the benchmark harness, and the integration tests.
//!
//! The client survives a server restart: when the transport dies it
//! reconnects with jittered exponential backoff (three attempts from a
//! 50 ms base, capped at 2 s), replays
//! its `Hello`, and retries the request — but **only idempotent
//! requests**. A `put` interrupted before
//! its ack is settled through the `StatFrame` probe: the client journals an
//! idempotency token with every put, and after a reconnect asks the server
//! what it holds under that name. A matching token means the put was
//! applied (the ack is synthesized from the probe); anything else is a
//! typed [`ClientError::RetryUnsafe`] — blindly resending could clobber a
//! newer frame someone else put under the same name, so that decision goes
//! back to the caller. `Shutdown` is never retried.

use std::time::Duration;

use lux_core::WireWidget;

use crate::protocol::{read_frame, write_frame, ErrorCode, Request, Response};
use crate::server::Conn;

/// Why a client call failed, typed so callers (the CLI, the load harness)
/// can react without string-matching.
#[derive(Debug)]
pub enum ClientError {
    /// Could not establish (or re-establish) the connection: refused,
    /// unreachable, or the handshake transport died. Retries exhausted.
    Connect { addr: String, detail: String },
    /// The transport died mid-conversation and reconnect retries ran out.
    Io(String),
    /// The peer answered, but not with this protocol (decode failure,
    /// request-id mismatch, response of an impossible type).
    Protocol(String),
    /// A well-formed typed error from the server.
    Server(ErrorCode, String),
    /// The server shed the pass behind a non-print request (admission
    /// control); `trace` is the server-side trace id of the shed.
    Busy { reason: String, trace: String },
    /// A `put` was interrupted and the server could not confirm it was
    /// applied (no frame, or a different put's token under that name).
    /// Resending might clobber newer state — the caller decides.
    RetryUnsafe(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect { addr, detail } => {
                write!(f, "cannot connect to {addr}: {detail}")
            }
            ClientError::Io(e) => write!(f, "connection lost: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(code, msg) => write!(f, "server error ({code:?}): {msg}"),
            ClientError::Busy { reason, trace } => write!(f, "shed [{trace}]: {reason}"),
            ClientError::RetryUnsafe(msg) => write!(f, "retry unsafe: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether this is a transport-level failure (the server may simply be
    /// restarting — watch loops reconnect on these, not on server errors).
    pub fn is_transport(&self) -> bool {
        matches!(self, ClientError::Connect { .. } | ClientError::Io(_))
    }
}

/// `Hello` outcome: what the server said about itself.
#[derive(Debug, Clone)]
pub struct HelloInfo {
    pub server_version: String,
    pub draining: bool,
    /// Journal persistence is in its sticky degraded state; puts carry no
    /// durability promise.
    pub degraded: bool,
}

/// A durably acknowledged put: shape, fingerprint, and the journal
/// sequence number it landed at (0 = the server's persistence is degraded
/// and the frame is served from memory only).
#[derive(Debug, Clone, Copy)]
pub struct PutAck {
    pub rows: u64,
    pub cols: u64,
    pub fingerprint: u64,
    pub seq: u64,
}

/// Outcome of a print request, flattened for callers that only care about
/// the three well-formed endings: a widget, a shed, or a typed error. Shed
/// and error endings carry the echoed request trace id (empty when the
/// request supplied none and the failure preceded server-side minting).
#[derive(Debug)]
pub enum PrintOutcome {
    Widget(WireWidget),
    Busy { reason: String, trace: String },
    Error(ErrorCode, String),
}

/// Reconnect attempts after a transport failure.
const RETRIES: u32 = 3;
/// Base of the reconnect backoff.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Ceiling of the reconnect backoff.
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// One logical connection to a lux server (transparently re-dialed across
/// restarts). Requests are synchronous: send a frame, read the matching
/// response.
pub struct Client {
    addr: String,
    timeout: Duration,
    conn: Option<Conn>,
    next_id: u32,
    /// Replayed on every reconnect, once `hello` has been called.
    tenant: Option<String>,
    /// xorshift64 state for backoff jitter and idempotency tokens.
    rng: u64,
}

impl Client {
    /// Connect to `host:port` or `unix:<path>`, with both socket timeouts
    /// set to `timeout`. Connection-refused comes back as a typed
    /// [`ClientError::Connect`], not a raw `io::Error`.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Client, ClientError> {
        let mut client = Client {
            addr: addr.to_string(),
            timeout,
            conn: None,
            next_id: 1,
            tenant: None,
            rng: seed_rng(addr),
        };
        client.conn = Some(client.dial()?);
        Ok(client)
    }

    /// One dial attempt (no retries — the retry loop owns those).
    fn dial(&self) -> Result<Conn, ClientError> {
        let conn = Conn::connect(&self.addr).map_err(|e| ClientError::Connect {
            addr: self.addr.clone(),
            detail: e.to_string(),
        })?;
        conn.set_timeouts(self.timeout, self.timeout)
            .map_err(|e| ClientError::Connect {
                addr: self.addr.clone(),
                detail: format!("socket setup failed: {e}"),
            })?;
        Ok(conn)
    }

    /// Re-establish the connection and replay `Hello` (tenant identity is
    /// per-connection server-side). Called from the retry loops only.
    fn redial(&mut self) -> Result<(), ClientError> {
        self.conn = Some(self.dial()?);
        if let Some(tenant) = self.tenant.clone() {
            // A failed replay invalidates the fresh connection too.
            if let Err(e) = self.send_recv(&Request::Hello { tenant }) {
                self.conn = None;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Jittered exponential backoff before reconnect `attempt` (1-based):
    /// `base * 2^(attempt-1)`, capped, scaled by a random factor in
    /// [0.5, 1.5) so a fleet of clients does not stampede a restarting
    /// server in lockstep.
    fn backoff(&mut self, attempt: u32) {
        let exp = BACKOFF_BASE
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(BACKOFF_MAX);
        let jitter = 0.5 + (self.next_rand() % 1_000) as f64 / 1_000.0;
        lux_engine::clock::sleep(exp.mul_f64(jitter));
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64: tiny, std-only, good enough for jitter and tokens.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// One request/response exchange on the current connection. Any
    /// transport failure poisons the connection (`self.conn = None`).
    fn send_recv(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let result = (|| {
            let conn = self
                .conn
                .as_mut()
                .ok_or_else(|| ClientError::Io("not connected".to_string()))?;
            let (t, p) = req.encode();
            write_frame(conn, t, id, &p)
                .map_err(|e| ClientError::Io(format!("send failed: {e}")))?;
            let frame =
                read_frame(conn).map_err(|e| ClientError::Io(format!("recv failed: {e}")))?;
            // Errors emitted outside a request context carry id 0.
            if frame.request_id != id && frame.request_id != 0 {
                return Err(ClientError::Protocol(format!(
                    "response id {} does not match request id {id}",
                    frame.request_id
                )));
            }
            Response::decode(frame.msg_type, &frame.payload).map_err(ClientError::Protocol)
        })();
        if matches!(result, Err(ClientError::Io(_))) {
            self.conn = None;
        }
        result
    }

    /// Send a request and read its response — single attempt, no retry.
    /// Kept public for tests and callers that manage retries themselves.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        if self.conn.is_none() {
            self.conn = Some(self.dial()?);
        }
        self.send_recv(req)
    }

    /// Send an **idempotent** request, transparently reconnecting (with
    /// backoff + `Hello` replay) on transport failure, up to the retry
    /// budget. Mutating requests must not come through here.
    fn request_idempotent(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            let err = match self.request(req) {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_transport() => e,
                Err(e) => return Err(e),
            };
            if attempt >= RETRIES {
                return Err(err);
            }
            attempt += 1;
            self.backoff(attempt);
            // A failed redial just burns this attempt; the loop re-dials
            // again through `request` until the budget runs out.
            let _ = self.redial();
        }
    }

    /// Register this connection's tenant. Returns whether the server is
    /// draining. (Use [`Client::hello_info`] for the full handshake.)
    pub fn hello(&mut self, tenant: &str) -> Result<bool, ClientError> {
        self.hello_info(tenant).map(|info| info.draining)
    }

    /// Register this connection's tenant; the tenant is remembered and
    /// replayed automatically after every reconnect.
    pub fn hello_info(&mut self, tenant: &str) -> Result<HelloInfo, ClientError> {
        self.tenant = Some(tenant.to_string());
        match self.request_idempotent(&Request::Hello {
            tenant: tenant.to_string(),
        })? {
            Response::HelloAck {
                server_version,
                draining,
                degraded,
            } => Ok(HelloInfo {
                server_version,
                draining,
                degraded,
            }),
            Response::Error { code, message, .. } => Err(ClientError::Server(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Upload a named CSV frame; returns `(rows, cols, fingerprint)`.
    pub fn put_frame(&mut self, name: &str, csv: &str) -> Result<(u64, u64, u64), ClientError> {
        self.put_frame_durable(name, csv)
            .map(|ack| (ack.rows, ack.cols, ack.fingerprint))
    }

    /// Upload a named CSV frame with at-most-once retry semantics. The put
    /// carries a generated idempotency token; if the transport dies before
    /// the ack, the client reconnects and probes `StatFrame`: a matching
    /// token proves the put was applied (the ack is synthesized), anything
    /// else is [`ClientError::RetryUnsafe`]. A put is only ever in doubt
    /// once its request frame may have reached the wire — a failed *dial*
    /// ([`ClientError::Connect`]) provably never sent it, so those simply
    /// reconnect and resend.
    pub fn put_frame_durable(&mut self, name: &str, csv: &str) -> Result<PutAck, ClientError> {
        let token = format!(
            "tok-{:08x}-{:08x}",
            std::process::id(),
            self.next_rand() as u32
        );
        let req = Request::PutFrame {
            name: name.to_string(),
            csv: csv.to_string(),
            token: token.clone(),
        };
        let mut attempt = 0u32;
        let err = loop {
            match self.request(&req) {
                Ok(resp) => return decode_put_ack(resp),
                Err(e @ ClientError::Connect { .. }) => {
                    // The dial itself failed: the put was never sent, so
                    // resending is unconditionally safe — no token probe.
                    if attempt >= RETRIES {
                        return Err(e);
                    }
                    attempt += 1;
                    self.backoff(attempt);
                    // Replays `Hello` (tenant identity is per-connection);
                    // a failed redial just burns the attempt.
                    let _ = self.redial();
                }
                Err(e) if e.is_transport() => break e,
                Err(e) => return Err(e),
            }
        };
        // In-doubt: the request frame was (at least partially) written
        // before the transport died — the put may or may not have been
        // applied. Reconnect (within the remaining budget) and let the
        // server settle it by token.
        while attempt < RETRIES {
            attempt += 1;
            self.backoff(attempt);
            if self.redial().is_err() {
                continue;
            }
            match self.stat_frame(name) {
                Ok(Some(stat)) if stat.token == token => {
                    return Ok(PutAck {
                        rows: stat.rows,
                        cols: stat.cols,
                        fingerprint: stat.fingerprint,
                        seq: stat.seq,
                    });
                }
                Ok(_) => {
                    return Err(ClientError::RetryUnsafe(format!(
                        "put of {name:?} was interrupted and the server holds no matching \
                         token; resend may clobber newer state"
                    )))
                }
                Err(e) if e.is_transport() => continue,
                Err(e) => return Err(e),
            }
        }
        Err(err)
    }

    /// What the server holds under `name`: `None` when the frame does not
    /// exist. Read-only, so reconnect-retried like the other probes.
    pub fn stat_frame(&mut self, name: &str) -> Result<Option<FrameStatInfo>, ClientError> {
        match self.request_idempotent(&Request::StatFrame {
            name: name.to_string(),
        })? {
            Response::FrameStat { exists: false, .. } => Ok(None),
            Response::FrameStat {
                rows,
                cols,
                fingerprint,
                seq,
                token,
                ..
            } => Ok(Some(FrameStatInfo {
                rows,
                cols,
                fingerprint,
                seq,
                token,
            })),
            Response::Error { code, message, .. } => Err(ClientError::Server(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Print a named frame. `deadline_ms` of 0 means no deadline.
    pub fn print(
        &mut self,
        name: &str,
        intent: &str,
        deadline_ms: u64,
        per_tab: u32,
    ) -> Result<PrintOutcome, ClientError> {
        self.print_traced(name, intent, deadline_ms, per_tab, "")
    }

    /// Print a named frame, attaching a client-supplied request trace id
    /// that the server tags onto the pass trace and echoes back on shed or
    /// error. An empty `trace` lets the server mint its own id. Read-only,
    /// so a transport failure reconnects and retries.
    pub fn print_traced(
        &mut self,
        name: &str,
        intent: &str,
        deadline_ms: u64,
        per_tab: u32,
        trace: &str,
    ) -> Result<PrintOutcome, ClientError> {
        match self.request_idempotent(&Request::Print {
            name: name.to_string(),
            intent: intent.to_string(),
            deadline_ms,
            per_tab,
            trace: trace.to_string(),
        })? {
            Response::PrintResult { widget } => {
                let w = WireWidget::decode(&widget)
                    .map_err(|e| ClientError::Protocol(format!("bad widget payload: {e}")))?;
                Ok(PrintOutcome::Widget(w))
            }
            Response::Busy { reason, trace } => Ok(PrintOutcome::Busy { reason, trace }),
            Response::Error { code, message, .. } => Ok(PrintOutcome::Error(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// The machine-readable export of a print: grouped Vega-Lite JSON for
    /// the frame's recommendations under `intent`. Not part of the print
    /// response — ask for it when something will consume it. Read-only, so
    /// reconnect-retried; a shed pass is a typed [`ClientError::Busy`].
    pub fn vega_lite(&mut self, name: &str, intent: &str) -> Result<String, ClientError> {
        match self.request_idempotent(&Request::VegaLite {
            name: name.to_string(),
            intent: intent.to_string(),
        })? {
            Response::VegaLiteText { text } => Ok(text),
            Response::Busy { reason, trace } => Err(ClientError::Busy { reason, trace }),
            Response::Error { code, message, .. } => Err(ClientError::Server(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Names of this tenant's frames.
    pub fn list_frames(&mut self) -> Result<Vec<String>, ClientError> {
        match self.request_idempotent(&Request::ListFrames)? {
            Response::FrameList { names } => Ok(names),
            Response::Error { code, message, .. } => Err(ClientError::Server(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Drop a named frame; returns whether it existed. A mutation — not
    /// retried (dropping twice is harmless, but the `existed` answer after
    /// a blind retry would lie).
    pub fn drop_frame(&mut self, name: &str) -> Result<bool, ClientError> {
        match self.request(&Request::DropFrame {
            name: name.to_string(),
        })? {
            Response::Dropped { existed } => Ok(existed),
            Response::Error { code, message, .. } => Err(ClientError::Server(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// The server's stats text (admission + serving counters).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.request_idempotent(&Request::Stats)? {
            Response::StatsText { text } => Ok(text),
            Response::Error { code, message, .. } => Err(ClientError::Server(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// The process metrics in Prometheus text exposition format, over the
    /// wire (works even without a metrics listener configured).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.request_idempotent(&Request::Metrics)? {
            Response::MetricsText { text } => Ok(text),
            Response::Error { code, message, .. } => Err(ClientError::Server(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// The server's flight-recorder table: recent and pinned anomalous
    /// passes.
    pub fn flight(&mut self) -> Result<String, ClientError> {
        match self.request_idempotent(&Request::Flight)? {
            Response::FlightText { text } => Ok(text),
            Response::Error { code, message, .. } => Err(ClientError::Server(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request_idempotent(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Ask the server to drain and exit. Never retried: a transport error
    /// after the send usually just means the server took the request
    /// seriously.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }
}

/// What `StatFrame` reported about an existing frame.
#[derive(Debug, Clone)]
pub struct FrameStatInfo {
    pub rows: u64,
    pub cols: u64,
    pub fingerprint: u64,
    pub seq: u64,
    pub token: String,
}

fn decode_put_ack(resp: Response) -> Result<PutAck, ClientError> {
    match resp {
        Response::FrameAck {
            rows,
            cols,
            fingerprint,
            seq,
        } => Ok(PutAck {
            rows,
            cols,
            fingerprint,
            seq,
        }),
        Response::Error { code, message, .. } => Err(ClientError::Server(code, message)),
        other => Err(ClientError::Protocol(format!(
            "unexpected response {other:?}"
        ))),
    }
}

/// Seed the jitter RNG through the seedable rng module: ambient entropy
/// (wall clock, pid, counter) in normal operation so concurrent clients
/// de-correlate, a pure function of the installed world seed under the
/// simulation harness so replays are exact. The address still stirs the
/// ambient path so two clients dialing different servers in the same
/// nanosecond diverge.
fn seed_rng(addr: &str) -> u64 {
    let mut seed = lux_engine::rng::derive("client.rng");
    if lux_engine::rng::installed().is_none() {
        for b in addr.bytes() {
            seed = seed.rotate_left(7) ^ b as u64;
        }
    }
    seed | 1 // xorshift must not start at 0
}

#[cfg(test)]
mod tests {
    use super::seed_rng;
    use lux_engine::world::World;

    /// Reconnect jitter is replayable under the simulation world seed
    /// (DESIGN.md §15): the same installed seed yields the same sequence
    /// of per-connection jitter seeds, while successive connections in
    /// one run still de-correlate.
    #[test]
    fn reconnect_jitter_seed_replays_under_an_installed_world_seed() {
        let draw = || {
            let _world = World::simulated(7);
            (0..4).map(|_| seed_rng("mem:sim")).collect::<Vec<u64>>()
        };
        let first = draw();
        assert_eq!(first, draw(), "world-seed replay must be exact");
        assert_ne!(first[0], first[1], "connections must de-correlate");
        assert!(first.iter().all(|s| s % 2 == 1), "xorshift seeds stay odd");

        // Ambient path (no world seed installed): the address stirs the
        // seed, so clients dialing different servers diverge.
        let _world = World::enter();
        let a = seed_rng("unix:/tmp/a.sock");
        let b = seed_rng("unix:/tmp/b.sock");
        assert_ne!(a, b);
        assert_eq!(a % 2, 1);
    }
}
