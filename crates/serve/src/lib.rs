//! # `mph-serve` — the `mphd` experiment service daemon
//!
//! A long-running server that accepts experiment-grid requests over
//! line-delimited JSON-RPC on TCP and serves them all from **one**
//! process: one worker pool (the sweep engine's), one shared
//! warm-oracle-table hub ([`mph_oracle::OracleHub`]), many concurrent
//! client sessions. See docs/SERVING.md for the protocol and
//! operational story; the pieces are:
//!
//! * [`jsonio`] — a strict, panic-free JSON parser producing the
//!   workspace's own deterministic [`mph_metrics::json::Json`] model, so
//!   parsed requests re-render canonically.
//! * [`proto`] — the wire protocol: request parsing and validation
//!   ([`proto::GridSpec`]), typed rejections ([`proto::ProtoError`]),
//!   response rendering.
//! * [`session`] — one session end to end: spec → sweep cells → results
//!   → canonical report, durable through the checkpoint subsystem.
//! * [`server`] — the TCP accept loop, per-connection request loop,
//!   admission control with typed `busy` load-shedding, and JSONL event
//!   streaming.
//!
//! The daemon inherits — and is pinned to — the workspace's determinism
//! contract: the same grid submitted by any number of concurrent
//! clients, on any thread count, resumed after a kill or computed
//! fresh, produces byte-identical reports, and they match what the
//! single-process CLI sweep would have printed.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod jsonio;
pub mod proto;
pub mod server;
pub mod session;

pub use proto::{GridSpec, ProtoError};
pub use server::{Server, ServerConfig};
