//! # lux-server
//!
//! A crash-tolerant, multi-tenant serving layer over the Lux engine
//! (DESIGN.md §11). Zero dependencies beyond the workspace: the wire
//! protocol, CRC, spool directory, and signal handling are all hand-rolled on
//! `std`.
//!
//! - [`protocol`] — length-prefixed, CRC-checked binary frames over TCP or
//!   Unix sockets; typed requests/responses; malformed input yields typed
//!   errors, never a panic or a desync.
//! - [`registry`] — the session registry: tenants and named frames. Upload
//!   a CSV once, print it many times; repeated prints share the wrapper's
//!   recommendations memo and the metadata, sample and processed views
//!   kept on the frame.
//! - [`journal`] — durable state as a spool directory: one checksummed,
//!   seq-versioned file per put, a tombstone per drop, a directory per
//!   tenant; listed on boot so a `kill -9`'d server comes back serving
//!   exactly the frames it acked — and never a corrupt one.
//! - [`server`] — the accept/dispatch/drain loop: per-request deadlines
//!   propagate into the engine's admission and action-budget machinery,
//!   reads/writes are timeout-bounded, SIGTERM drains in-flight passes
//!   behind a readiness flip with a hard cutoff.
//! - [`client`] — a blocking client for the CLI, the benchmark harness, and
//!   the integration tests.
//! - [`mem`] — an in-memory `mem:<name>` transport with seeded fault
//!   injection, used by the deterministic simulation harness
//!   (DESIGN.md §15).

pub mod client;
pub mod journal;
pub mod mem;
pub mod protocol;
pub mod registry;
pub mod server;

pub use client::{Client, ClientError, FrameStatInfo, HelloInfo, PrintOutcome, PutAck};
pub use protocol::{ErrorCode, Frame, ProtoError, Request, Response};
pub use registry::Registry;
pub use server::{install_signal_handlers, Conn, Server, ServerConfig, SERVER_VERSION};
