//! `splash4-serve`: the experiment service's network layer.
//!
//! The harness owns everything about what a request *means*
//! ([`splash4_harness::service`]): the request model, the lock-free worker
//! pool, the content-hashed result cache and the load generator. This crate
//! adds the wire:
//!
//! - [`proto`]: newline-delimited compact-JSON framing over any
//!   `BufRead`/`Write` pair,
//! - [`server`]: a TCP accept loop in front of a shared
//!   [`WorkerPool`](splash4_harness::WorkerPool), streaming job events back
//!   per submission and draining gracefully on shutdown,
//! - [`client`]: a blocking client with `Backoff`-paced connect retry.
//!
//! Protocol (one JSON object per line, both directions):
//!
//! ```text
//! -> {"op":"ping"}
//! <- {"ok":true,"pong":true}
//! -> {"op":"submit","request":{"type":"sim","cores":256,...}}
//! <- {"event":"queued","job":1}
//! <- {"event":"running","job":1}
//! <- {"event":"progress","job":1,"pct":40}
//! <- {"event":"done","job":1,"cached":false,"result":{...}}
//! -> {"op":"stats"}
//! <- {"ok":true,"submitted":1,"cache_hits":0,"cache_misses":1,...,"workers_parked":4}
//! -> {"op":"shutdown"}
//! <- {"ok":true,"stopping":true}
//! ```
//!
//! Malformed or rejected operations answer `{"ok":false,"error":"..."}` and
//! keep the connection usable; a `submit` stream always terminates in a
//! `done` or `error` event. See `DESIGN.md` §13.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::Client;
pub use server::{Server, ServerConfig};
