//! The HTTP service: configuration, bounded accept queue, worker pool,
//! response cache, routing, graceful shutdown.
//!
//! Connections are accepted onto a bounded queue (overflow is shed
//! with `503` immediately, so a stampede degrades loudly instead of
//! stacking latency) and drained by a fixed worker pool. The what-if
//! and campaign endpoints run behind the **response cache**, an
//! [`eh_units::Memo`] from canonical request hash to rendered body: a
//! stored body is a hit (`X-Cache: hit`), and concurrent identical
//! misses share one computation (`X-Cache: coalesced`). Both are
//! correct because the fleet pipeline is deterministic — a cached or
//! coalesced body is byte-identical to the body a fresh computation
//! would render.
//!
//! Shutdown (`POST /admin/shutdown`, or [`Server::shutdown`]) stops
//! accepting, lets the workers drain every queued connection, and only
//! then returns. Checkpoints need no extra flushing: the spill store
//! syncs each shard file as it completes.

use std::collections::VecDeque;
use std::ffi::OsString;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use eh_units::{Lookup, Memo};

use crate::checkpoint::OBS_REFUSAL;
use crate::engine::ComputeEngine;
use crate::error::{EnvError, ServeError};
use crate::hash::hex;
use crate::http::{self, ChunkedWriter, HttpRequest};
use crate::json::Json;
use crate::metrics::{names, ServiceMetrics};
use crate::request::{CampaignRequest, Op, WhatIfRequest};

/// Service configuration. Every field has a sensible local default;
/// [`ServeConfig::from_env`] overrides them from `EH_SERVE_*`
/// variables with strict parsing (a typoed name or value is a startup
/// error, never a silent default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// HTTP worker threads draining the connection queue.
    pub http_workers: usize,
    /// Simulation worker threads inside the fleet runner.
    pub sim_workers: usize,
    /// Bounded connection-queue capacity; overflow sheds with 503.
    pub queue_capacity: usize,
    /// Largest fleet a request may ask for.
    pub max_nodes: u32,
    /// Directory for `/whatif/stream` shard checkpoints.
    pub spill_dir: PathBuf,
}

/// Rendered bodies the response cache keeps (canonical hash → body).
const RESPONSE_CACHE_CAPACITY: usize = 256;

/// What an `EH_SERVE_*` name must be: one [`ServeConfig::from_env`]
/// reads.
const KNOWN_VARIABLES: &str = "a variable eh-serve reads (EH_SERVE_ADDR, \
    EH_SERVE_HTTP_WORKERS, EH_SERVE_SIM_WORKERS, EH_SERVE_QUEUE_CAPACITY, \
    EH_SERVE_MAX_NODES or EH_SERVE_SPILL_DIR)";

impl ServeConfig {
    /// Local defaults: loopback ephemeral port, a small worker pool,
    /// and spills under the system temp directory.
    pub fn default_local() -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2);
        Self {
            addr: "127.0.0.1:0".to_owned(),
            http_workers: 4,
            sim_workers: cores.min(8),
            queue_capacity: 64,
            max_nodes: 10_000,
            spill_dir: std::env::temp_dir().join("eh-serve-spill"),
        }
    }

    /// The defaults overridden by `EH_SERVE_ADDR`,
    /// `EH_SERVE_HTTP_WORKERS`, `EH_SERVE_SIM_WORKERS`,
    /// `EH_SERVE_QUEUE_CAPACITY`, `EH_SERVE_MAX_NODES` and
    /// `EH_SERVE_SPILL_DIR`.
    ///
    /// # Errors
    ///
    /// A hard [`ServeError::Env`] naming the variable, the value and the
    /// expectation: for any other `EH_SERVE_*` name, for a value that
    /// does not parse, and for a value that is not UTF-8 (except the
    /// spill directory's, which may be any path).
    pub fn from_env() -> Result<Self, ServeError> {
        Self::from_vars(std::env::vars_os()).map_err(ServeError::from)
    }

    /// The defaults overridden by the `EH_SERVE_*` members of `vars`;
    /// every other variable is ignored. See [`ServeConfig::from_env`].
    fn from_vars(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Result<Self, EnvError> {
        let mut cfg = Self::default_local();
        for (name, value) in vars {
            let name = name.to_string_lossy();
            if !name.starts_with("EH_SERVE_") {
                continue;
            }
            let error = |expected| EnvError {
                source: name.clone().into_owned(),
                raw: value.to_string_lossy().into_owned(),
                expected,
            };
            let positive = || {
                let raw = value.to_str().ok_or_else(|| error("a positive integer"))?;
                positive_usize(&name, raw)
            };
            match &*name {
                "EH_SERVE_ADDR" => {
                    let addr = value.to_str().ok_or_else(|| error("a socket address"))?;
                    cfg.addr = addr.to_owned();
                }
                "EH_SERVE_HTTP_WORKERS" => cfg.http_workers = positive()?,
                "EH_SERVE_SIM_WORKERS" => cfg.sim_workers = positive()?,
                "EH_SERVE_QUEUE_CAPACITY" => cfg.queue_capacity = positive()?,
                "EH_SERVE_MAX_NODES" => {
                    cfg.max_nodes = u32::try_from(positive()?)
                        .map_err(|_| error("a positive integer fitting u32"))?;
                }
                "EH_SERVE_SPILL_DIR" => cfg.spill_dir = PathBuf::from(&value),
                _ => return Err(error(KNOWN_VARIABLES)),
            }
        }
        Ok(cfg)
    }
}

/// Parses `raw`, the value of `source`, as a strictly positive integer.
/// Empty, non-numeric and zero values are an error naming `source`.
fn positive_usize(source: &str, raw: &str) -> Result<usize, EnvError> {
    raw.trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| EnvError {
            source: source.to_owned(),
            raw: raw.to_owned(),
            expected: "a positive integer",
        })
}

struct ServerState {
    config: ServeConfig,
    addr: SocketAddr,
    metrics: Arc<ServiceMetrics>,
    engine: ComputeEngine,
    responses: Memo<u64, String, ServeError>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
}

/// A running service instance.
pub struct Server {
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the service: one accept thread plus
    /// `http_workers` request workers.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(config: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServiceMetrics::new());
        let engine =
            ComputeEngine::new(config.sim_workers, &config.spill_dir, Arc::clone(&metrics));
        let state = Arc::new(ServerState {
            config,
            addr,
            metrics,
            engine,
            responses: Memo::new(RESPONSE_CACHE_CAPACITY),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });

        let workers = (0..state.config.http_workers)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("eh-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawning a worker thread")
            })
            .collect();
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("eh-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_state))
            .expect("spawning the accept thread");

        Ok(Server {
            state,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The live metric store.
    pub fn metrics(&self) -> Arc<ServiceMetrics> {
        Arc::clone(&self.state.metrics)
    }

    /// Signals shutdown without waiting: accepting stops, queued
    /// connections keep draining.
    pub fn initiate_shutdown(&self) {
        trigger_shutdown(&self.state);
    }

    /// Waits for the accept thread and every worker to finish (after a
    /// shutdown was initiated here or via `POST /admin/shutdown`).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: stop accepting, drain the queue, return.
    pub fn shutdown(self) {
        self.initiate_shutdown();
        self.join();
    }
}

fn trigger_shutdown(state: &ServerState) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    // Unblock the accept loop with a throwaway self-connection.
    let _ = TcpStream::connect(state.addr);
    state.queue_cv.notify_all();
}

fn accept_loop(listener: &TcpListener, state: &ServerState) {
    for conn in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        state.metrics.incr(names::HTTP_CONNECTIONS);
        let mut queue = state.queue.lock().expect("queue lock poisoned");
        if queue.len() >= state.config.queue_capacity {
            drop(queue);
            state.metrics.incr(names::HTTP_SHED);
            state.metrics.count_status(503);
            let mut stream = stream;
            // Swallow whatever request bytes are already in flight so
            // the close after the 503 sends FIN, not RST — an RST can
            // destroy the response before the client has read it.
            drain_briefly(&stream);
            let _ = http::write_response(
                &mut stream,
                503,
                &[],
                error_body("connection queue full").as_bytes(),
            );
            continue;
        }
        queue.push_back(stream);
        state.metrics.gauge(names::QUEUE_DEPTH, queue.len() as f64);
        drop(queue);
        state.queue_cv.notify_one();
    }
    // Wake every worker so the drain-and-exit check runs.
    state.queue_cv.notify_all();
}

/// Bounded best-effort read of pending request bytes on a connection
/// that is being shed. Capped at a few reads with a short timeout so a
/// hostile slow sender cannot stall the accept loop.
fn drain_briefly(mut stream: &TcpStream) {
    use std::io::Read as _;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    for _ in 0..4 {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

fn worker_loop(state: &ServerState) {
    loop {
        let stream = {
            let mut queue = state.queue.lock().expect("queue lock poisoned");
            loop {
                // Drain before honouring shutdown: queued clients were
                // accepted and must be answered.
                if let Some(s) = queue.pop_front() {
                    state.metrics.gauge(names::QUEUE_DEPTH, queue.len() as f64);
                    break Some(s);
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = state.queue_cv.wait(queue).expect("queue lock poisoned");
            }
        };
        let Some(mut stream) = stream else { return };
        handle_connection(state, &mut stream);
    }
}

/// A `{"error": ...}` body with proper JSON escaping.
fn error_body(message: &str) -> String {
    Json::Obj(vec![("error".to_owned(), Json::Str(message.to_owned()))]).to_canonical_string()
}

fn respond(
    state: &ServerState,
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) {
    state.metrics.count_status(status);
    let _ = http::write_response(stream, status, extra_headers, body.as_bytes());
}

/// How long one response write may block on a client that stopped
/// reading, so such a client cannot hold a worker either.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

fn handle_connection(state: &ServerState, stream: &mut TcpStream) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let request = match http::read_request(stream) {
        Ok(r) => r,
        Err(e) => {
            if e.status == 408 {
                state.metrics.incr(names::HTTP_DEADLINE_EXPIRED);
            }
            state.metrics.count_status(e.status);
            let _ = http::write_response(stream, e.status, &[], error_body(&e.message).as_bytes());
            return;
        }
    };
    route(state, stream, &request);
}

const ROUTES: [&str; 7] = [
    "/healthz",
    "/metrics",
    "/whatif",
    "/compare",
    "/whatif/stream",
    "/campaign",
    "/admin/shutdown",
];

fn route(state: &ServerState, stream: &mut TcpStream, request: &HttpRequest) {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => respond(state, stream, 200, &[], "{\"ok\":true}"),
        ("GET", "/metrics") => {
            let body = state.metrics.render();
            respond(state, stream, 200, &[], &body);
        }
        ("POST", "/whatif") => cached_op(state, stream, Op::WhatIf, &request.body),
        ("POST", "/compare") => cached_op(state, stream, Op::Compare, &request.body),
        ("POST", "/whatif/stream") => stream_op(state, stream, &request.body),
        ("POST", "/campaign") => campaign_op(state, stream, &request.body),
        ("POST", "/admin/shutdown") => {
            respond(state, stream, 200, &[], "{\"draining\":true}");
            trigger_shutdown(state);
        }
        (_, target) if ROUTES.contains(&target) => {
            respond(state, stream, 405, &[], &error_body("method not allowed"));
        }
        _ => respond(state, stream, 404, &[], &error_body("unknown route")),
    }
}

fn parse_request_body(
    state: &ServerState,
    op: Op,
    body: &[u8],
) -> Result<WhatIfRequest, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::BadRequest("body must be UTF-8".to_owned()))?;
    let json = Json::parse(text).map_err(ServeError::BadRequest)?;
    WhatIfRequest::from_json(op, &json, state.config.max_nodes)
}

/// The `/whatif` and `/compare` path through the response cache;
/// `X-Cache` reports how the bytes were served (hit, coalesced or
/// miss), while the bodies stay byte-identical across all three.
fn cached_op(state: &ServerState, stream: &mut TcpStream, op: Op, body: &[u8]) {
    let req = match parse_request_body(state, op, body) {
        Ok(r) => r,
        Err(e) => {
            respond(state, stream, e.status(), &[], &error_body(&e.to_string()));
            return;
        }
    };
    let key = req.hash();
    serve_cached(state, stream, key, || match op {
        Op::WhatIf => state.engine.whatif(&req),
        Op::Compare => state.engine.compare(&req),
        Op::Stream => unreachable!("stream requests never enter the cached path"),
    });
}

/// The `/campaign` path: the same response cache as the what-if
/// endpoints — valid because a campaign report is as deterministic as a
/// fleet report — keyed by the campaign request's own canonical hash
/// (its `"op":"campaign"` member keeps the key spaces disjoint).
fn campaign_op(state: &ServerState, stream: &mut TcpStream, body: &[u8]) {
    let req = match std::str::from_utf8(body)
        .map_err(|_| ServeError::BadRequest("body must be UTF-8".to_owned()))
        .and_then(|text| Json::parse(text).map_err(ServeError::BadRequest))
        .and_then(|json| CampaignRequest::from_json(&json, state.config.max_nodes))
    {
        Ok(r) => r,
        Err(e) => {
            respond(state, stream, e.status(), &[], &error_body(&e.to_string()));
            return;
        }
    };
    let key = req.hash();
    serve_cached(state, stream, key, || state.engine.campaign(&req));
}

/// Serves one cacheable request from the response cache: a stored
/// body, another request's body for the same key, or `compute`'s.
fn serve_cached(
    state: &ServerState,
    stream: &mut TcpStream,
    key: u64,
    compute: impl FnOnce() -> Result<String, ServeError>,
) {
    let (result, lookup) = state.responses.get_or_compute(key, compute);
    let cache_status = match lookup {
        Lookup::Hit => {
            state.metrics.incr(names::CACHE_HITS);
            "hit"
        }
        Lookup::Coalesced => {
            state.metrics.incr(names::CACHE_MISSES);
            state.metrics.incr(names::SF_COALESCED);
            "coalesced"
        }
        Lookup::Computed { evicted } => {
            state.metrics.incr(names::CACHE_MISSES);
            state.metrics.incr(names::SF_LEADER);
            if evicted {
                state.metrics.incr(names::CACHE_EVICTIONS);
            }
            "miss"
        }
    };
    match result {
        Ok(response) => respond(
            state,
            stream,
            200,
            &[("x-cache", cache_status), ("x-request-hash", &hex(key))],
            &response,
        ),
        Err(e) => respond(state, stream, e.status(), &[], &error_body(&e.to_string())),
    }
}

/// The `/whatif/stream` path: chunked newline-delimited JSON, one line
/// per completed shard plus the final response body. Not cached or
/// coalesced — each streamed request owns its checkpoint lifecycle.
fn stream_op(state: &ServerState, stream: &mut TcpStream, body: &[u8]) {
    let req = match parse_request_body(state, Op::Stream, body) {
        Ok(r) => r,
        Err(e) => {
            respond(state, stream, e.status(), &[], &error_body(&e.to_string()));
            return;
        }
    };
    if req.obs {
        // Refuse before committing to a 200 chunked response; the
        // engine enforces the same rule as defense in depth.
        let e = ServeError::Unsupported(OBS_REFUSAL);
        respond(state, stream, e.status(), &[], &error_body(&e.to_string()));
        return;
    }
    let request_hash = hex(req.hash());
    state.metrics.count_status(200);
    let mut writer = match ChunkedWriter::start(stream, &[("x-request-hash", &request_hash)]) {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut emit = |line: &str| -> Result<(), ServeError> {
        let mut chunk = line.as_bytes().to_vec();
        chunk.push(b'\n');
        writer.write_chunk(&chunk).map_err(ServeError::from)
    };
    match state.engine.stream(&req, &mut emit) {
        Ok(()) => {
            let _ = writer.finish();
        }
        Err(e) => {
            // The 200 head is committed; surface the failure in-band.
            let mut line = error_body(&e.to_string()).into_bytes();
            line.push(b'\n');
            let _ = writer.write_chunk(&line);
            let _ = writer.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default_local();
        assert!(cfg.http_workers >= 1);
        assert!(cfg.sim_workers >= 1);
        assert!(cfg.queue_capacity >= 1);
        assert!(cfg.max_nodes >= 1000);
        assert_eq!(cfg.addr, "127.0.0.1:0");
    }

    /// `from_vars` over `(name, value)` pairs of text.
    fn config(vars: &[(&str, &str)]) -> Result<ServeConfig, EnvError> {
        ServeConfig::from_vars(vars.iter().map(|&(k, v)| (k.into(), v.into())))
    }

    #[test]
    fn an_environment_without_eh_serve_names_gives_the_defaults() {
        let defaults = ServeConfig::default_local();
        assert_eq!(config(&[]), Ok(defaults.clone()));
        assert_eq!(config(&[("PATH", "/usr/bin:/bin")]), Ok(defaults));
    }

    #[test]
    fn every_known_variable_is_applied() {
        let cfg = config(&[
            ("EH_SERVE_ADDR", "127.0.0.1:9000"),
            ("EH_SERVE_HTTP_WORKERS", "3"),
            ("EH_SERVE_SIM_WORKERS", "5"),
            ("EH_SERVE_QUEUE_CAPACITY", "7"),
            ("EH_SERVE_MAX_NODES", "11"),
            ("EH_SERVE_SPILL_DIR", "spill"),
        ])
        .unwrap();
        let expected = ServeConfig {
            addr: "127.0.0.1:9000".to_owned(),
            http_workers: 3,
            sim_workers: 5,
            queue_capacity: 7,
            max_nodes: 11,
            spill_dir: PathBuf::from("spill"),
        };
        assert_eq!(cfg, expected);
    }

    #[test]
    fn unknown_eh_serve_names_are_refused() {
        for (name, value) in [
            ("EH_SERVE_CACHE_CAPACITY", "8"),
            ("EH_SERVE_CONTEXT_CACHE_CAPACITY", "8"),
            ("EH_SERVE_HTTP_WORKER", "2"),
        ] {
            let err = config(&[(name, value)]).unwrap_err();
            assert_eq!((err.source.as_str(), err.raw.as_str()), (name, value));
            let msg = err.to_string();
            for known in [
                "EH_SERVE_ADDR",
                "EH_SERVE_HTTP_WORKERS",
                "EH_SERVE_SIM_WORKERS",
                "EH_SERVE_QUEUE_CAPACITY",
                "EH_SERVE_MAX_NODES",
                "EH_SERVE_SPILL_DIR",
            ] {
                assert!(msg.contains(known), "{msg}");
            }
        }
    }

    #[test]
    fn positive_usize_accepts_and_rejects() {
        assert_eq!(positive_usize("EH_WORKERS", "4"), Ok(4));
        assert_eq!(positive_usize("EH_WORKERS", " 16 "), Ok(16));
        for bad in ["0", "-1", "lots", "", "4.5"] {
            let err = positive_usize("EH_WORKERS", bad).unwrap_err();
            assert_eq!(err.source, "EH_WORKERS");
            assert_eq!(err.raw, bad);
            let msg = err.to_string();
            assert!(msg.contains("EH_WORKERS"), "{msg}");
            assert!(msg.contains("positive integer"), "{msg}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_values_are_refused_except_the_spill_dir() {
        use std::os::unix::ffi::{OsStrExt as _, OsStringExt as _};
        let var = |name: &str, value: &[u8]| {
            ServeConfig::from_vars([(name.into(), OsString::from_vec(value.to_vec()))])
        };
        for name in ["EH_SERVE_HTTP_WORKERS", "EH_SERVE_ADDR"] {
            let err = var(name, b"\xff").unwrap_err();
            assert_eq!((err.source.as_str(), err.raw.as_str()), (name, "\u{fffd}"));
            assert!(err.to_string().contains(name));
        }
        let cfg = var("EH_SERVE_SPILL_DIR", b"spill-\xff").unwrap();
        assert_eq!(cfg.spill_dir.as_os_str().as_bytes(), b"spill-\xff");
    }

    #[test]
    fn error_bodies_are_valid_json() {
        let body = error_body("a \"quoted\" message\nwith newline");
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("a \"quoted\" message\nwith newline")
        );
    }
}
