//! # lux-server
//!
//! A crash-tolerant, multi-tenant serving layer over the Lux engine
//! (DESIGN.md §11). Zero dependencies beyond the workspace: the wire
//! protocol, CRC, journal, and signal handling are all hand-rolled on
//! `std`.
//!
//! - [`protocol`] — length-prefixed, CRC-checked binary frames over TCP or
//!   Unix sockets; typed requests/responses; malformed input yields typed
//!   errors, never a panic or a desync.
//! - [`registry`] — the session registry: tenants and named frames. Upload
//!   a CSV once, print it many times; repeated prints share the WFLOW memo
//!   and the process-wide processed-vis cache through the frame
//!   fingerprint.
//! - [`journal`] — checksummed, sequence-numbered JSONL session journal
//!   with an explicit fsync policy, snapshot + compaction, and a verified
//!   CSV spool; replayed on boot so a `kill -9`'d server comes back
//!   serving exactly the frames it acked — and never a corrupt one.
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
