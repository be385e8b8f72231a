//! A deterministic fleet-simulation service: what-if queries over
//! `eh-fleet` behind a dependency-free HTTP/1.1 front end.
//!
//! The fleet pipeline is deterministic end to end — a
//! [`eh_fleet::FleetReport`] is a pure function of `(spec, seed)` —
//! which turns aggressive serving-side reuse from a heuristic into a
//! theorem. This crate leans on that everywhere:
//!
//! - requests are validated and re-serialized as **canonical JSON**
//!   ([`json`]), so key order, whitespace and default spelling all
//!   collapse onto one FNV-1a cache key;
//! - the **response cache** serves repeats byte-identically
//!   (`X-Cache: hit`), and concurrent identical misses coalesce onto
//!   one computation (`X-Cache: coalesced`);
//! - requests differing only in tracker/engine share one prepared
//!   [`eh_fleet::FleetContext`] through the spec-hash context cache,
//!   and concurrent requests over one fleet prepare it once;
//! - streaming campaigns checkpoint per shard and resume
//!   bit-identically after a crash.
//!
//! Both caches, like the PV surface registry underneath them, are an
//! [`eh_units::Memo`]: bounded, least recently used out, one
//! computation per key however many requests ask for it at once.
//!
//! Endpoints: `GET /healthz`, `GET /metrics` (the [`eh_obs`]-backed
//! live store), `POST /whatif`, `POST /compare` (all 11 trackers over
//! one fleet), `POST /whatif/stream` (chunked per-shard snapshots),
//! `POST /campaign` (multi-year endurance campaigns over `eh-campaign`),
//! `POST /admin/shutdown` (graceful drain).
//!
//! # Example
//!
//! ```
//! use eh_serve::{ServeConfig, Server};
//! use std::io::{Read as _, Write as _};
//!
//! let mut cfg = ServeConfig::default_local();
//! cfg.http_workers = 2;
//! cfg.sim_workers = 1;
//! let server = Server::spawn(cfg)?;
//! let mut conn = std::net::TcpStream::connect(server.addr())?;
//! conn.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")?;
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply)?;
//! assert!(reply.ends_with("{\"ok\":true}"));
//! server.shutdown();
//! # Ok::<(), eh_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod engine;
mod error;
mod hash;
pub mod http;
pub mod json;
pub mod metrics;
pub mod request;
mod server;

pub use error::{EnvError, ServeError};
pub use json::Json;
pub use metrics::ServiceMetrics;
pub use request::{CampaignRequest, Op, TolerancePreset, WhatIfRequest};
pub use server::{ServeConfig, Server};
