//! The process-wide PV surface registry seen from `/metrics`: a cold
//! what-if that differs from an earlier one only in its seed builds no
//! surface table. The registry's counters are process-wide, so this
//! binary holds this one test and no other test moves them.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};

use eh_serve::{metrics::names, Json, ServeConfig, Server};

fn post(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes()).expect("write request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    raw.split_once("\r\n\r\n")
        .expect("head/body split")
        .1
        .to_owned()
}

/// `(builds, hits, entries)` as `/metrics` renders them now.
fn registry(addr: SocketAddr) -> (u64, u64, u64) {
    let body = Json::parse(&post(addr, "GET", "/metrics", "")).expect("metrics JSON");
    let metrics = body.get("metrics").expect("metrics member");
    let read = |kind: &str, name: &str| {
        metrics
            .get(kind)
            .and_then(|m| m.get(name))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{kind} {name} missing"))
    };
    assert_eq!(
        read("gauges", names::REGISTRY_CAPACITY),
        eh_pv::registry::CAPACITY as f64
    );
    (
        read("counters", names::REGISTRY_BUILDS) as u64,
        read("counters", names::REGISTRY_HITS) as u64,
        read("gauges", names::REGISTRY_ENTRIES) as u64,
    )
}

#[test]
fn a_cold_whatif_with_a_new_seed_builds_no_surface() {
    let mut cfg = ServeConfig::default_local();
    cfg.spill_dir = std::env::temp_dir().join(format!("eh-serve-registry-{}", std::process::id()));
    let server = Server::spawn(cfg).expect("server spawns");
    let addr = server.addr();

    assert_eq!(registry(addr), (0, 0, 0));
    post(addr, "POST", "/whatif", r#"{"nodes":50,"seed":7}"#);
    let (builds, hits, entries) = registry(addr);
    // Fifty nodes of the mixed fleet use all three placements.
    assert_eq!((builds, hits, entries), (3, 0, 3));
    post(addr, "POST", "/whatif", r#"{"nodes":50,"seed":8}"#);
    assert_eq!(registry(addr), (3, 3, 3), "the second seed rebuilt a table");
    server.shutdown();
}
