//! End-to-end service tests over real sockets: cache byte-identity,
//! single-flight coalescing, streaming, error statuses, overload
//! shedding, idle clients and graceful shutdown.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use eh_serve::{http, metrics::names, Json, Op, ServeConfig, Server, WhatIfRequest};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "eh-serve-it-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Removes a spill root when it drops, so a test leaves nothing in the
/// temp dir, whether it passes or panics.
struct SpillRoot(std::path::PathBuf);

impl Drop for SpillRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A server and the guard of its spill root. Bind the guard to a name,
/// not `_`, so it lives to the end of the test.
fn test_server(tag: &str) -> (Server, SpillRoot) {
    let mut cfg = ServeConfig::default_local();
    cfg.http_workers = 4;
    cfg.sim_workers = 2;
    cfg.spill_dir = scratch_dir(tag);
    let spill = SpillRoot(cfg.spill_dir.clone());
    (Server::spawn(cfg).expect("server spawns"), spill)
}

/// A parsed response: status, headers (lowercased names), body text
/// (chunked transfer decoded when present).
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).expect("write head");
    conn.write_all(body.as_bytes()).expect("write body");
    conn.flush().expect("flush");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a head/body split");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v == "chunked");
    let body = if chunked {
        decode_chunked(body)
    } else {
        body.to_owned()
    };
    Response {
        status,
        headers,
        body,
    }
}

fn decode_chunked(raw: &str) -> String {
    let mut out = String::new();
    let mut rest = raw;
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&tail[..size]);
        rest = tail[size..]
            .strip_prefix("\r\n")
            .expect("chunk data terminator");
    }
}

#[test]
fn health_metrics_and_unknown_routes() {
    let (server, _spill) = test_server("routes");
    let addr = server.addr();

    let health = exchange(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"ok\":true}");

    let metrics = exchange(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    let parsed = Json::parse(&metrics.body).expect("metrics body is JSON");
    assert_eq!(
        parsed.get("service").and_then(Json::as_str),
        Some("eh-serve")
    );

    assert_eq!(exchange(addr, "GET", "/nope", "").status, 404);
    assert_eq!(exchange(addr, "DELETE", "/whatif", "").status, 405);
    assert_eq!(exchange(addr, "POST", "/whatif", "{not json").status, 400);
    assert_eq!(
        exchange(addr, "POST", "/whatif", r#"{"nodes":0}"#).status,
        400
    );
    // The batch engine is gone: asking for it names the known engines.
    for path in ["/whatif", "/compare", "/campaign"] {
        let removed = exchange(addr, "POST", path, r#"{"engine":"batch"}"#);
        assert_eq!(removed.status, 400, "{path}");
        assert!(
            removed.body.contains("per-node, vectorized"),
            "{path}: {}",
            removed.body
        );
    }
    assert_eq!(
        exchange(addr, "POST", "/whatif/stream", r#"{"nodes":4,"obs":true}"#).status,
        422
    );
    server.shutdown();
}

#[test]
fn cached_response_is_byte_identical_to_the_cold_one() {
    let (server, _spill) = test_server("cache");
    let addr = server.addr();
    let body = r#"{"nodes":10,"seed":42}"#;

    let cold = exchange(addr, "POST", "/whatif", body);
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-cache"), Some("miss"));

    // Different spelling of the same request: whitespace, key order,
    // explicit defaults — must hit the cache.
    let respelled = r#"{ "seed" : 42, "nodes" : 1e1, "tracker": "focv" }"#;
    let warm = exchange(addr, "POST", "/whatif", respelled);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(
        warm.body, cold.body,
        "cached bytes must equal cold bytes exactly"
    );
    assert_eq!(warm.header("x-request-hash"), cold.header("x-request-hash"));

    let m = server.metrics();
    assert_eq!(m.counter(names::CACHE_HITS), 1);
    assert_eq!(m.counter(names::CACHE_MISSES), 1);
    assert_eq!(m.counter(names::SF_LEADER), 1);

    // The /metrics endpoint surfaces the same counters.
    let rendered = exchange(addr, "GET", "/metrics", "").body;
    assert!(rendered.contains("\"serve.cache.hits\":1"), "{rendered}");
    server.shutdown();
}

#[test]
fn whatif_matches_a_direct_fleet_run() {
    let (server, _spill) = test_server("direct");
    let body = r#"{"nodes":8,"seed":7,"tracker":"oracle"}"#;
    let response = exchange(server.addr(), "POST", "/whatif", body);
    assert_eq!(response.status, 200);
    let report = Json::parse(&response.body).unwrap();
    let served_p50 = report
        .get("report")
        .and_then(|r| r.get("net_j"))
        .and_then(|p| p.get("p50"))
        .and_then(Json::as_f64)
        .expect("served median");

    // The same request computed directly through the fleet layer.
    let req = WhatIfRequest::from_json(Op::WhatIf, &Json::parse(body).unwrap(), 10_000).unwrap();
    let spec = req.to_spec().unwrap();
    let direct = eh_fleet::FleetRunner::new(1)
        .with_shard_size(req.shard_size)
        .run_engine(&spec, req.tracker, req.engine)
        .unwrap();
    let expected = direct.net_energy_percentiles().unwrap().p50;
    assert_eq!(
        served_p50.to_bits(),
        expected.to_bits(),
        "service must serve the exact deterministic result"
    );
    server.shutdown();
}

#[test]
fn concurrent_identical_requests_coalesce() {
    let (server, _spill) = test_server("coalesce");
    let addr = server.addr();
    // Per-node engine over a non-trivial fleet keeps the flight open
    // long enough that the racing requests land inside it.
    let body = r#"{"nodes":300,"seed":99,"engine":"per-node"}"#;
    const CLIENTS: usize = 4;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let bodies: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let r = exchange(addr, "POST", "/whatif", body);
                    assert_eq!(r.status, 200);
                    (r.header("x-cache").unwrap().to_owned(), r.body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every caller saw the exact same bytes, whatever layer served it.
    for (status, b) in &bodies {
        assert_eq!(b, &bodies[0].1, "divergent body from layer {status}");
    }
    let m = server.metrics();
    let led = m.counter(names::SF_LEADER);
    let coalesced = m.counter(names::SF_COALESCED);
    let hits = m.counter(names::CACHE_HITS);
    assert_eq!(
        led + coalesced + hits,
        CLIENTS as u64,
        "every request is accounted to exactly one layer"
    );
    assert!(led >= 1, "someone must compute");
    assert!(
        coalesced >= 1,
        "racing identical requests must coalesce (led {led}, coalesced {coalesced}, hits {hits})"
    );
    server.shutdown();
}

#[test]
fn streaming_snapshots_then_final_report() {
    let (server, _spill) = test_server("stream");
    let addr = server.addr();
    let stream = exchange(
        addr,
        "POST",
        "/whatif/stream",
        r#"{"nodes":12,"shard_size":4}"#,
    );
    assert_eq!(stream.status, 200);
    let lines: Vec<&str> = stream.body.lines().collect();
    assert_eq!(lines.len(), 4, "3 shard snapshots + final body");
    for (i, line) in lines[..3].iter().enumerate() {
        let snap = Json::parse(line).expect("snapshot line is JSON");
        assert_eq!(
            snap.get("shards_done").and_then(Json::as_u64),
            Some(i as u64 + 1)
        );
        assert_eq!(
            snap.get("nodes_done").and_then(Json::as_u64),
            Some(4 * (i as u64 + 1))
        );
    }
    // The final line carries the same report a /whatif for the same
    // fleet produces (shard grouping equal, op differs only in echo).
    let final_report = Json::parse(lines[3])
        .unwrap()
        .get("report")
        .expect("final line has the report")
        .to_canonical_string();
    let whatif = exchange(addr, "POST", "/whatif", r#"{"nodes":12,"shard_size":4}"#);
    let whatif_report = Json::parse(&whatif.body)
        .unwrap()
        .get("report")
        .unwrap()
        .to_canonical_string();
    assert_eq!(final_report, whatif_report);
    let m = server.metrics();
    assert_eq!(m.counter(names::CHECKPOINT_SAVED), 3);
    server.shutdown();
}

#[test]
fn campaign_endpoint_serves_cached_deterministic_survival() {
    let (server, _spill) = test_server("campaign");
    let addr = server.addr();
    let body = r#"{"nodes":4,"days":6,"epoch_days":3,"dt_s":3600,"seed":7}"#;

    let cold = exchange(addr, "POST", "/campaign", body);
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    let parsed = Json::parse(&cold.body).expect("campaign body is JSON");
    let report = parsed.get("report").expect("report member");
    assert_eq!(report.get("nodes").and_then(Json::as_u64), Some(4));
    assert_eq!(report.get("days").and_then(Json::as_u64), Some(6));
    assert!(report.get("survivors").is_some());
    assert!(report.get("survival_days").is_some());
    assert_eq!(
        parsed
            .get("request")
            .and_then(|r| r.get("op"))
            .and_then(Json::as_str),
        Some("campaign")
    );

    // A respelled identical request must hit the cache byte for byte.
    let respelled = r#"{ "seed": 7, "days": 6, "nodes": 4, "epoch_days": 3, "dt_s": 3.6e3 }"#;
    let warm = exchange(addr, "POST", "/campaign", respelled);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body);

    // Validation failures surface as 400s naming the problem.
    assert_eq!(
        exchange(addr, "POST", "/campaign", r#"{"climate":"hurricane"}"#).status,
        400
    );
    assert_eq!(
        exchange(addr, "POST", "/campaign", r#"{"days":0}"#).status,
        400
    );
    assert_eq!(exchange(addr, "GET", "/campaign", "").status, 405);
    server.shutdown();
}

#[test]
fn zero_capacity_queue_sheds_with_503() {
    let mut cfg = ServeConfig::default_local();
    cfg.http_workers = 1;
    cfg.sim_workers = 1;
    cfg.queue_capacity = 0;
    cfg.spill_dir = scratch_dir("shed");
    let server = Server::spawn(cfg).unwrap();
    let shed = exchange(server.addr(), "GET", "/healthz", "");
    assert_eq!(shed.status, 503);
    let m = server.metrics();
    assert_eq!(m.counter(names::HTTP_SHED), 1);
    assert_eq!(m.counter(names::HTTP_SERVER_ERROR), 1);
    server.shutdown();
}

/// A client that sends half a request head and stops holds the only
/// HTTP worker until the request deadline and no longer: it gets a 408,
/// and a `/healthz` queued behind it is answered within the deadline
/// plus a margin. A server without the deadline fails this on the
/// probe's own read timeout instead of hanging.
#[test]
fn idle_client_cannot_hold_the_only_worker() {
    let mut cfg = ServeConfig::default_local();
    cfg.http_workers = 1;
    cfg.sim_workers = 1;
    cfg.spill_dir = scratch_dir("idle");
    let server = Server::spawn(cfg).unwrap();
    let addr = server.addr();
    let client_timeout = Some(http::REQUEST_DEADLINE + Duration::from_secs(5));

    // Connected first, so the one worker takes it first.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(client_timeout).unwrap();
    idle.write_all(b"GET /healthz HTTP/1.1\r\nhost: te")
        .expect("write half a head");

    let mut probe = TcpStream::connect(addr).expect("connect");
    probe.set_read_timeout(client_timeout).unwrap();
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n")
        .expect("write the probe");
    let mut reply = String::new();
    probe
        .read_to_string(&mut reply)
        .expect("/healthz answered within the deadline plus a margin");
    assert!(reply.starts_with("HTTP/1.1 200 "), "probe got: {reply}");

    let mut timed_out = String::new();
    idle.read_to_string(&mut timed_out)
        .expect("the idle client's reply");
    assert!(
        timed_out.starts_with("HTTP/1.1 408 "),
        "idle client got: {timed_out}"
    );
    assert_eq!(server.metrics().counter(names::HTTP_CLIENT_ERROR), 1);
    server.shutdown();
}

#[test]
fn admin_shutdown_drains_and_stops() {
    let (server, _spill) = test_server("shutdown");
    let addr = server.addr();
    assert_eq!(exchange(addr, "GET", "/healthz", "").status, 200);
    let reply = exchange(addr, "POST", "/admin/shutdown", "");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, "{\"draining\":true}");
    // join() returning proves the accept loop and every worker exited.
    server.join();
    // The listener is gone: a fresh connection is refused or closed
    // without an answer.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut conn) => {
            let _ = conn.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
            let mut buf = Vec::new();
            let n = conn.read_to_end(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "a drained server must not answer new requests");
        }
    }
}

#[test]
fn two_servers_serve_identical_bytes_for_one_request() {
    // Cross-process-style determinism: independent instances, same
    // request, byte-identical cold responses (hashes are FNV-1a, not
    // RandomState, so this also pins hash stability).
    let (a, _a_spill) = test_server("det-a");
    let (b, _b_spill) = test_server("det-b");
    let body = r#"{"nodes":9,"seed":3,"tracker":"perturb-observe"}"#;
    let ra = exchange(a.addr(), "POST", "/whatif", body);
    let rb = exchange(b.addr(), "POST", "/whatif", body);
    assert_eq!(ra.body, rb.body);
    assert_eq!(ra.header("x-request-hash"), rb.header("x-request-hash"));
    a.shutdown();
    b.shutdown();
}
