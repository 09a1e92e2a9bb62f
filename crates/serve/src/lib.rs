//! `sraa-serve` — alias analysis as a resident service.
//!
//! One-shot `sraa` invocations pay the whole pipeline — parse, e-SSA,
//! constraint generation, fixpoint — for every question asked. The
//! engine's own design points the other way: pair queries against a
//! solved engine are cheap next to whole-solution recomputation, and the
//! summary cache already makes re-solving incremental. This crate packages that as a
//! long-lived daemon (`sraa serve`) that keeps solved
//! [`DisambiguationEngine`](sraa_core::DisambiguationEngine)s resident
//! and answers queries over a socket:
//!
//! * [`protocol`] — newline-delimited, length-prefixed, checksummed JSON
//!   frames (`sraa1 <len> <fnv64> <payload>`), with typed error codes
//!   for every way a frame can be malformed;
//! * [`server`] — the threaded accept loop and request dispatcher:
//!   `upload` (compile + solve, incremental against the previous upload
//!   or a warm-start cache), `no-alias`/`lt` point queries, `eval`
//!   (pre-rendered, byte-identical to one-shot `sraa eval`), `pairs`
//!   (streamed batch), `stats`, `shutdown` (graceful drain);
//! * [`client`] — the `sraa query` side: framed request/reply plus
//!   streamed `pairs` consumption;
//! * [`stats`] — daemon-lifetime counters with p50/p99 query latency.

pub mod client;
pub mod protocol;
pub mod server;
pub mod stats;

pub use client::{Client, ClientError};
pub use protocol::{decode_frame, encode_frame, obj, parse, FrameError, Json, JsonError, MAGIC};
pub use server::{Server, ServerConfig};
pub use stats::ServeStats;
