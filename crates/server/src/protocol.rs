//! The wire protocol: length-prefixed, CRC-checked binary frames.
//!
//! Every frame is
//!
//! ```text
//! offset  size  field
//! 0       2     magic `LX`
//! 2       1     protocol version ([`PROTOCOL_VERSION`])
//! 3       1     message type
//! 4       4     request id (little-endian; echoed in the response)
//! 8       4     payload length (little-endian; capped at 64 MiB)
//! 12      n     payload
//! 12+n    4     CRC-32 (IEEE, little-endian) over bytes 2..12+n
//! ```
//!
//! The CRC covers the version, type, id, length and payload, so a flipped
//! bit anywhere but the magic is caught. Error recovery is by frame class:
//! a CRC mismatch with a plausible header leaves the stream in sync (the
//! whole frame was consumed), so the server answers with a typed error and
//! keeps the connection; a bad magic or version means the framing itself is
//! lost, so the server answers and closes. Either way: a typed response,
//! never a panic, never a silent desync.
//!
//! A frame is assembled in one buffer and handed to the socket in one
//! `write_all`: the transport sees whole frames, never a header, a payload
//! and a CRC as three small segments (which on TCP costs a delayed-ACK
//! timer per direction).

use std::io::{Read, Write};

use lux_core::wire::{put_str, put_vec, Reader};

/// Protocol version carried in every frame header. Version 2 added wire
/// request-trace propagation (a trace id on `Print`, echoed on `Busy` and
/// `Error`) and the `Metrics`/`Flight` observability ops. Version 3 added
/// durable-state plumbing: an idempotency token on `PutFrame`, the journal
/// sequence number on `FrameAck`, a persistence-degraded flag on
/// `HelloAck`, and the `StatFrame`/`FrameStat` pair a reconnecting client
/// uses to confirm whether an un-acked put was applied. Version 4 moved the
/// Vega-Lite export out of the print response (`WireWidget` v2) into its
/// own opt-in `VegaLite`/`VegaLiteText` pair.
pub const PROTOCOL_VERSION: u8 = 4;

/// Frame magic.
pub const MAGIC: [u8; 2] = *b"LX";

/// Hard ceiling on payload size: a hostile length prefix cannot make the
/// server allocate more than this.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Tenant and frame names on the wire: 1-64 chars of `[A-Za-z0-9_.-]`.
/// Keeping names in this alphabet makes the journal lines and the on-disk
/// spool paths safe by construction.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
        && !name.starts_with('.')
}

/// Why reading a frame failed.
#[derive(Debug)]
pub enum ProtoError {
    /// Clean EOF at a frame boundary: the peer hung up.
    Closed,
    /// Read timeout while waiting for the *first* byte of a frame: no
    /// bytes were consumed, so the stream is still aligned and the caller
    /// may keep waiting.
    IdleTimeout,
    /// An I/O error (timeout, reset, injected fault) mid-frame.
    Io(std::io::Error),
    /// The first two bytes were not `LX`: framing lost, unrecoverable.
    BadMagic([u8; 2]),
    /// Unknown protocol version: unrecoverable (layout may differ).
    BadVersion(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`]. Unrecoverable — the
    /// stream position inside the oversized body is unknowable.
    TooLarge(u32),
    /// Checksum mismatch. The full frame was consumed, so the stream is
    /// still in sync; the connection can continue.
    Crc { expected: u32, actual: u32 },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::IdleTimeout => write!(f, "idle read timeout"),
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::TooLarge(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            ProtoError::Crc { expected, actual } => {
                write!(
                    f,
                    "crc mismatch (expected {expected:08x}, got {actual:08x})"
                )
            }
        }
    }
}

impl ProtoError {
    /// Whether the stream is still frame-aligned after this error (the
    /// server may answer and keep reading).
    pub fn recoverable(&self) -> bool {
        matches!(self, ProtoError::Crc { .. } | ProtoError::IdleTimeout)
    }
}

/// A raw frame: type, request id, payload. Message-level decoding happens
/// in [`Request::decode`] / [`Response::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub msg_type: u8,
    pub request_id: u32,
    pub payload: Vec<u8>,
}

/// Read one frame. Blocks up to the stream's configured read timeout per
/// `read` call; a timeout surfaces as `ProtoError::Io(WouldBlock/TimedOut)`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
    let mut header = [0u8; 12];
    // Distinguish "peer closed between frames" (clean) and "timed out
    // before any byte" (still aligned, retryable) from "died mid-frame".
    match r.read(&mut header[..1]) {
        Ok(0) => return Err(ProtoError::Closed),
        Ok(_) => {}
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            return Err(ProtoError::IdleTimeout)
        }
        Err(e) => return Err(ProtoError::Io(e)),
    }
    read_exact(r, &mut header[1..])?;
    if header[..2] != MAGIC {
        return Err(ProtoError::BadMagic([header[0], header[1]]));
    }
    if header[2] != PROTOCOL_VERSION {
        return Err(ProtoError::BadVersion(header[2]));
    }
    let msg_type = header[3];
    let request_id = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len as usize > MAX_PAYLOAD {
        return Err(ProtoError::TooLarge(len));
    }
    // Grow with the bytes that actually arrive: a peer that declares a
    // large (legal) length and then stalls reserves nothing up front.
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(64 * 1024));
    match r.by_ref().take(len as u64).read_to_end(&mut payload) {
        Ok(n) if n < len => return Err(mid_frame_eof()),
        Ok(_) => {}
        Err(e) => return Err(ProtoError::Io(e)),
    }
    let mut crc_bytes = [0u8; 4];
    read_exact(r, &mut crc_bytes)?;
    let expected = u32::from_le_bytes(crc_bytes);
    let mut crc = Crc32::new();
    crc.update(&header[2..]);
    crc.update(&payload);
    let actual = crc.finish();
    if actual != expected {
        return Err(ProtoError::Crc { expected, actual });
    }
    Ok(Frame {
        msg_type,
        request_id,
        payload,
    })
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ProtoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            mid_frame_eof()
        } else {
            ProtoError::Io(e)
        }
    })
}

fn mid_frame_eof() -> ProtoError {
    ProtoError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "peer closed mid-frame",
    ))
}

/// Write one frame (header + payload + CRC) as a single `write_all`, then
/// flush.
pub fn write_frame<W: Write>(
    w: &mut W,
    msg_type: u8,
    request_id: u32,
    payload: &[u8],
) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let mut frame = Vec::with_capacity(12 + payload.len() + 4);
    frame.extend_from_slice(&MAGIC);
    frame.push(PROTOCOL_VERSION);
    frame.push(msg_type);
    frame.extend_from_slice(&request_id.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame[2..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Messages

/// Message type codes. Requests are `0x01..=0x7F`, responses `0x80..`.
pub mod msg {
    pub const HELLO: u8 = 0x01;
    pub const PUT_FRAME: u8 = 0x02;
    pub const PRINT: u8 = 0x03;
    pub const LIST_FRAMES: u8 = 0x04;
    pub const DROP_FRAME: u8 = 0x05;
    pub const STATS: u8 = 0x06;
    pub const PING: u8 = 0x07;
    pub const SHUTDOWN: u8 = 0x08;
    pub const METRICS: u8 = 0x09;
    pub const FLIGHT: u8 = 0x0A;
    pub const STAT_FRAME: u8 = 0x0B;
    pub const VEGA_LITE: u8 = 0x0C;

    pub const HELLO_ACK: u8 = 0x81;
    pub const FRAME_ACK: u8 = 0x82;
    pub const PRINT_RESULT: u8 = 0x83;
    pub const BUSY: u8 = 0x84;
    pub const FRAME_LIST: u8 = 0x85;
    pub const DROPPED: u8 = 0x86;
    pub const STATS_TEXT: u8 = 0x87;
    pub const PONG: u8 = 0x88;
    pub const SHUTTING_DOWN: u8 = 0x89;
    pub const METRICS_TEXT: u8 = 0x8A;
    pub const FLIGHT_TEXT: u8 = 0x8B;
    pub const FRAME_STAT: u8 = 0x8C;
    pub const VEGA_LITE_TEXT: u8 = 0x8D;
    pub const ERROR: u8 = 0xFF;
}

/// Typed error codes carried by `Error` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed frame or payload; the offending request is dropped.
    Protocol = 1,
    /// Named frame does not exist for this tenant.
    UnknownFrame = 2,
    /// The uploaded CSV failed to parse.
    BadData = 3,
    /// Server is draining for shutdown; no new work accepted.
    Draining = 4,
    /// Unexpected server-side failure (the request, not the server, died).
    Internal = 5,
    /// Payload over the size cap.
    TooLarge = 6,
    /// Tenant or frame name outside the allowed alphabet.
    BadName = 7,
}

impl ErrorCode {
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::UnknownFrame,
            3 => ErrorCode::BadData,
            4 => ErrorCode::Draining,
            6 => ErrorCode::TooLarge,
            7 => ErrorCode::BadName,
            _ => ErrorCode::Internal,
        }
    }
}

/// Client-to-server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Register the connection's tenant identity.
    Hello {
        tenant: String,
    },
    /// Upload a CSV under a name; idempotent (same name replaces). The
    /// `token` is a client-generated idempotency token journaled with the
    /// put: after a reconnect, `StatFrame` compares tokens to decide
    /// whether an un-acked put was in fact applied ("" = no confirmation
    /// wanted).
    PutFrame {
        name: String,
        csv: String,
        token: String,
    },
    /// Print a named frame: the always-on pass, with the client's
    /// end-to-end deadline (0 = none), per-tab chart cap, and a request
    /// trace id (empty = server mints one) that attributes the server-side
    /// pass trace, pass-summary log event, and any flight-recorder dump.
    Print {
        name: String,
        intent: String,
        deadline_ms: u64,
        per_tab: u32,
        trace: String,
    },
    ListFrames,
    DropFrame {
        name: String,
    },
    Stats,
    Ping,
    /// Administrative: ask the server to drain and exit (used by tests and
    /// the CLI's `serve --oneshot` teardown).
    Shutdown,
    /// Prometheus text exposition of the server's `MetricsRegistry`.
    Metrics,
    /// Flight-recorder summary (recent passes + pinned anomalies).
    Flight,
    /// Durability probe: what does the server currently hold under this
    /// name? Used by a reconnecting client to settle an in-doubt put.
    StatFrame {
        name: String,
    },
    /// The machine-readable export of a print: grouped Vega-Lite JSON for
    /// every recommended visualization of `name` under `intent`. Opt-in
    /// per request — a print response carries only the rendered views.
    VegaLite {
        name: String,
        intent: String,
    },
}

impl Request {
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        match self {
            Request::Hello { tenant } => {
                put_str(&mut p, tenant);
                (msg::HELLO, p)
            }
            Request::PutFrame { name, csv, token } => {
                put_str(&mut p, name);
                put_str(&mut p, csv);
                put_str(&mut p, token);
                (msg::PUT_FRAME, p)
            }
            Request::Print {
                name,
                intent,
                deadline_ms,
                per_tab,
                trace,
            } => {
                put_str(&mut p, name);
                put_str(&mut p, intent);
                p.extend_from_slice(&deadline_ms.to_le_bytes());
                p.extend_from_slice(&per_tab.to_le_bytes());
                put_str(&mut p, trace);
                (msg::PRINT, p)
            }
            Request::ListFrames => (msg::LIST_FRAMES, p),
            Request::DropFrame { name } => {
                put_str(&mut p, name);
                (msg::DROP_FRAME, p)
            }
            Request::Stats => (msg::STATS, p),
            Request::Ping => (msg::PING, p),
            Request::Shutdown => (msg::SHUTDOWN, p),
            Request::Metrics => (msg::METRICS, p),
            Request::Flight => (msg::FLIGHT, p),
            Request::StatFrame { name } => {
                put_str(&mut p, name);
                (msg::STAT_FRAME, p)
            }
            Request::VegaLite { name, intent } => {
                put_str(&mut p, name);
                put_str(&mut p, intent);
                (msg::VEGA_LITE, p)
            }
        }
    }

    /// Decode a request payload. Any structural problem yields `Err` with a
    /// human-readable reason (mapped to `ErrorCode::Protocol`), never a
    /// panic — this is the surface the protocol fuzz tests hammer.
    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<Request, String> {
        let mut c = Reader::new(payload);
        let req = match msg_type {
            msg::HELLO => Request::Hello { tenant: c.str()? },
            msg::PUT_FRAME => Request::PutFrame {
                name: c.str()?,
                csv: c.str()?,
                token: c.str()?,
            },
            msg::PRINT => Request::Print {
                name: c.str()?,
                intent: c.str()?,
                deadline_ms: c.u64()?,
                per_tab: c.u32()?,
                trace: c.str()?,
            },
            msg::LIST_FRAMES => Request::ListFrames,
            msg::DROP_FRAME => Request::DropFrame { name: c.str()? },
            msg::STATS => Request::Stats,
            msg::PING => Request::Ping,
            msg::SHUTDOWN => Request::Shutdown,
            msg::METRICS => Request::Metrics,
            msg::FLIGHT => Request::Flight,
            msg::STAT_FRAME => Request::StatFrame { name: c.str()? },
            msg::VEGA_LITE => Request::VegaLite {
                name: c.str()?,
                intent: c.str()?,
            },
            t => return Err(format!("unknown request type 0x{t:02x}")),
        };
        c.finish()?;
        Ok(req)
    }
}

/// Server-to-client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    HelloAck {
        server_version: String,
        draining: bool,
        /// Persistence health at connect time: `true` means the journal is
        /// in its sticky degraded state and puts carry no durability
        /// promise.
        degraded: bool,
    },
    FrameAck {
        rows: u64,
        cols: u64,
        fingerprint: u64,
        /// Journal sequence number the put landed at (0 = persistence
        /// degraded; the frame is served from memory only).
        seq: u64,
    },
    /// An encoded [`lux_core::WireWidget`] payload.
    PrintResult {
        widget: Vec<u8>,
    },
    /// The pass was shed (admission or deadline); a well-formed outcome,
    /// not an error. `trace` echoes the request's trace id so the client can
    /// correlate the shed with server-side telemetry.
    Busy {
        reason: String,
        trace: String,
    },
    FrameList {
        names: Vec<String>,
    },
    Dropped {
        existed: bool,
    },
    StatsText {
        text: String,
    },
    Pong,
    ShuttingDown,
    /// Prometheus text exposition (the `Metrics` op's response).
    MetricsText {
        text: String,
    },
    /// Flight-recorder rendering (the `Flight` op's response).
    FlightText {
        text: String,
    },
    /// Answer to `StatFrame`: the shape, journal seq, and idempotency
    /// token of whatever the server holds under the probed name
    /// (`exists: false` zeroes the rest).
    FrameStat {
        exists: bool,
        rows: u64,
        cols: u64,
        fingerprint: u64,
        seq: u64,
        token: String,
    },
    /// Grouped Vega-Lite JSON (the `VegaLite` op's response).
    VegaLiteText {
        text: String,
    },
    /// `trace` echoes the failing request's trace id ("" when the request
    /// never carried one, e.g. a protocol-level error).
    Error {
        code: ErrorCode,
        message: String,
        trace: String,
    },
}

impl Response {
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        match self {
            Response::HelloAck {
                server_version,
                draining,
                degraded,
            } => {
                put_str(&mut p, server_version);
                p.push(u8::from(*draining));
                p.push(u8::from(*degraded));
                (msg::HELLO_ACK, p)
            }
            Response::FrameAck {
                rows,
                cols,
                fingerprint,
                seq,
            } => {
                p.extend_from_slice(&rows.to_le_bytes());
                p.extend_from_slice(&cols.to_le_bytes());
                p.extend_from_slice(&fingerprint.to_le_bytes());
                p.extend_from_slice(&seq.to_le_bytes());
                (msg::FRAME_ACK, p)
            }
            Response::PrintResult { widget } => (msg::PRINT_RESULT, widget.clone()),
            Response::Busy { reason, trace } => {
                put_str(&mut p, reason);
                put_str(&mut p, trace);
                (msg::BUSY, p)
            }
            Response::FrameList { names } => {
                put_vec(&mut p, names);
                (msg::FRAME_LIST, p)
            }
            Response::Dropped { existed } => {
                p.push(u8::from(*existed));
                (msg::DROPPED, p)
            }
            Response::StatsText { text } => {
                put_str(&mut p, text);
                (msg::STATS_TEXT, p)
            }
            Response::Pong => (msg::PONG, p),
            Response::ShuttingDown => (msg::SHUTTING_DOWN, p),
            Response::MetricsText { text } => {
                put_str(&mut p, text);
                (msg::METRICS_TEXT, p)
            }
            Response::FlightText { text } => {
                put_str(&mut p, text);
                (msg::FLIGHT_TEXT, p)
            }
            Response::FrameStat {
                exists,
                rows,
                cols,
                fingerprint,
                seq,
                token,
            } => {
                p.push(u8::from(*exists));
                p.extend_from_slice(&rows.to_le_bytes());
                p.extend_from_slice(&cols.to_le_bytes());
                p.extend_from_slice(&fingerprint.to_le_bytes());
                p.extend_from_slice(&seq.to_le_bytes());
                put_str(&mut p, token);
                (msg::FRAME_STAT, p)
            }
            Response::VegaLiteText { text } => {
                put_str(&mut p, text);
                (msg::VEGA_LITE_TEXT, p)
            }
            Response::Error {
                code,
                message,
                trace,
            } => {
                p.extend_from_slice(&(*code as u16).to_le_bytes());
                put_str(&mut p, message);
                put_str(&mut p, trace);
                (msg::ERROR, p)
            }
        }
    }

    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<Response, String> {
        let mut c = Reader::new(payload);
        let resp = match msg_type {
            msg::HELLO_ACK => Response::HelloAck {
                server_version: c.str()?,
                draining: c.u8()? != 0,
                degraded: c.u8()? != 0,
            },
            msg::FRAME_ACK => Response::FrameAck {
                rows: c.u64()?,
                cols: c.u64()?,
                fingerprint: c.u64()?,
                seq: c.u64()?,
            },
            msg::PRINT_RESULT => {
                return Ok(Response::PrintResult {
                    widget: payload.to_vec(),
                })
            }
            msg::BUSY => Response::Busy {
                reason: c.str()?,
                trace: c.str()?,
            },
            msg::FRAME_LIST => Response::FrameList { names: c.vec()? },
            msg::DROPPED => Response::Dropped {
                existed: c.u8()? != 0,
            },
            msg::STATS_TEXT => Response::StatsText { text: c.str()? },
            msg::PONG => Response::Pong,
            msg::SHUTTING_DOWN => Response::ShuttingDown,
            msg::METRICS_TEXT => Response::MetricsText { text: c.str()? },
            msg::FLIGHT_TEXT => Response::FlightText { text: c.str()? },
            msg::FRAME_STAT => Response::FrameStat {
                exists: c.u8()? != 0,
                rows: c.u64()?,
                cols: c.u64()?,
                fingerprint: c.u64()?,
                seq: c.u64()?,
                token: c.str()?,
            },
            msg::VEGA_LITE_TEXT => Response::VegaLiteText { text: c.str()? },
            msg::ERROR => Response::Error {
                code: ErrorCode::from_u16(c.u16()?),
                message: c.str()?,
                trace: c.str()?,
            },
            t => return Err(format!("unknown response type 0x{t:02x}")),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slice-by-8.

pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Eight bytes per step: the state folds into the first four, and each
    /// of the eight bytes indexes the table that already carries it past
    /// the remaining ones. The tail (< 8 bytes) goes a byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = crc_tables();
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// Checksum a whole buffer in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// `tables[0]` is the classic byte-at-a-time table; `tables[k][i]` is the
/// CRC of byte `i` followed by `k` zero bytes.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        tables
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC slice-by-8 must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &crc_tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_reference() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 151 + 43) as u8).collect();
        for len in 0..=data.len() {
            let expected = crc32_bytewise(&data[..len]);
            assert_eq!(crc32(&data[..len]), expected, "len {len}");
            // State carried across `update` calls split at every offset.
            for split in 0..=len {
                let mut c = Crc32::new();
                c.update(&data[..split]);
                c.update(&data[split..len]);
                assert_eq!(c.finish(), expected, "len {len} split {split}");
            }
        }
    }

    /// Counts `write` calls: what the transport sees of a frame.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [&b""[..], b"hello", &[7u8; 100_000]] {
            let mut w = CountingWriter {
                writes: 0,
                bytes: Vec::new(),
            };
            write_frame(&mut w, msg::PING, 9, payload).unwrap();
            assert_eq!(w.writes, 1, "payload of {} bytes", payload.len());
            let frame = read_frame(&mut w.bytes.as_slice()).unwrap();
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn truncated_body_is_a_mid_frame_eof() {
        // A legal 32 MiB length followed by a handful of bytes: the reader
        // must report the peer closing mid-frame (having buffered only what
        // arrived), not TooLarge and not an idle timeout.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(PROTOCOL_VERSION);
        buf.push(msg::PUT_FRAME);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(32u32 * 1024 * 1024).to_le_bytes());
        buf.extend_from_slice(b"only a few bytes");
        match read_frame(&mut buf.as_slice()).unwrap_err() {
            ProtoError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                assert_eq!(e.to_string(), "peer closed mid-frame");
            }
            other => panic!("expected a mid-frame EOF, got {other}"),
        }
        // Header only, then EOF: same classification.
        buf.truncate(12);
        assert!(matches!(
            read_frame(&mut buf.as_slice()).unwrap_err(),
            ProtoError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg::PING, 42, b"hello").unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.msg_type, msg::PING);
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.payload, b"hello");
    }

    #[test]
    fn corrupted_byte_is_caught() {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg::PING, 7, b"payload").unwrap();
        // Flip one payload byte: CRC must catch it, and the error is
        // recoverable (whole frame consumed).
        buf[14] ^= 0x01;
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, ProtoError::Crc { .. }), "{err}");
        assert!(err.recoverable());
    }

    #[test]
    fn bad_magic_and_version_are_fatal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg::PING, 7, b"").unwrap();
        let mut bad = buf.clone();
        bad[0] = b'Z';
        let err = read_frame(&mut bad.as_slice()).unwrap_err();
        assert!(matches!(err, ProtoError::BadMagic(_)));
        assert!(!err.recoverable());
        let mut bad = buf.clone();
        bad[2] = 99;
        // Version is CRC-covered, but the version check fires first.
        let err = read_frame(&mut bad.as_slice()).unwrap_err();
        assert!(matches!(err, ProtoError::BadVersion(99)));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(PROTOCOL_VERSION);
        buf.push(msg::PING);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, ProtoError::TooLarge(_)));
    }

    #[test]
    fn eof_between_frames_is_closed_not_error() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut { empty }).unwrap_err(),
            ProtoError::Closed
        ));
    }

    #[test]
    fn requests_roundtrip() {
        let cases = vec![
            Request::Hello {
                tenant: "t1".into(),
            },
            Request::PutFrame {
                name: "cars".into(),
                csv: "a,b\n1,2\n".into(),
                token: "tok-1".into(),
            },
            Request::Print {
                name: "cars".into(),
                intent: "a,b".into(),
                deadline_ms: 250,
                per_tab: 2,
                trace: "cli-42".into(),
            },
            Request::ListFrames,
            Request::DropFrame {
                name: "cars".into(),
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
            Request::Metrics,
            Request::Flight,
            Request::StatFrame {
                name: "cars".into(),
            },
            Request::VegaLite {
                name: "cars".into(),
                intent: "a,b".into(),
            },
        ];
        for req in cases {
            let (t, p) = req.encode();
            assert_eq!(Request::decode(t, &p).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let cases = vec![
            Response::HelloAck {
                server_version: "lux/0.1".into(),
                draining: true,
                degraded: false,
            },
            Response::FrameAck {
                rows: 10,
                cols: 3,
                fingerprint: 99,
                seq: 17,
            },
            Response::PrintResult {
                widget: vec![1, 2, 3],
            },
            Response::Busy {
                reason: "engine busy".into(),
                trace: "cli-42".into(),
            },
            Response::FrameList {
                names: vec!["a".into(), "b".into()],
            },
            Response::Dropped { existed: false },
            Response::StatsText {
                text: "stats".into(),
            },
            Response::Pong,
            Response::ShuttingDown,
            Response::MetricsText {
                text: "lux_prints 1\n".into(),
            },
            Response::FlightText {
                text: "flight recorder: 0 recorded".into(),
            },
            Response::FrameStat {
                exists: true,
                rows: 10,
                cols: 3,
                fingerprint: 99,
                seq: 17,
                token: "tok-1".into(),
            },
            Response::VegaLiteText {
                text: "[{\"action\": \"Correlation\", \"charts\": []}]".into(),
            },
            Response::Error {
                code: ErrorCode::Draining,
                message: "draining".into(),
                trace: "cli-42".into(),
            },
        ];
        for resp in cases {
            let (t, p) = resp.encode();
            assert_eq!(Response::decode(t, &p).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_payloads_error_cleanly() {
        let (t, p) = Request::PutFrame {
            name: "cars".into(),
            csv: "a,b\n1,2\n".into(),
            token: "tok-1".into(),
        }
        .encode();
        for cut in 0..p.len() {
            assert!(Request::decode(t, &p[..cut]).is_err());
        }
        // Trailing garbage rejected too.
        let mut extended = p.clone();
        extended.push(0);
        assert!(Request::decode(t, &extended).is_err());
    }

    #[test]
    fn name_alphabet() {
        assert!(valid_name("cars"));
        assert!(valid_name("my-frame_2.csv"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("x".repeat(65).as_str()));
        assert!(!valid_name("sp ace"));
    }
}
