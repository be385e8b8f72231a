//! Benchmark — the `eh-serve` what-if service under load.
//!
//! Boots the service in-process on an ephemeral port and drives it over
//! real sockets, exactly as a deployment would see it:
//!
//! 1. **Cold vs warm** — one `/compare` request over a 1000-node fleet
//!    (all 11 trackers), first against an empty cache, then repeated.
//!    The two bodies must be byte-identical (the determinism contract
//!    that makes response caching sound), and the warm hit must be at
//!    least 10× faster in the full profile (recorded, not gated, in
//!    smoke: CI containers make timing gates flaky).
//! 2. **Loadgen** — a multi-threaded client sweep over a small pool of
//!    distinct what-if bodies, recording throughput, p50/p95 latency
//!    and the cache hit-rate observed by the service's own metrics.
//!
//! Results land in `BENCH_serve.json`. Run with
//! `cargo run -q --release -p eh-bench --bin bench_serve`
//! (accepts `--smoke` for the fast CI profile).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use eh_bench::{banner, fmt, render_table, smoke_mode};
use eh_serve::{metrics::names, ServeConfig, Server};
use eh_sim::SweepRunner;

/// One measured exchange: status, `X-Cache` layer, body, seconds.
struct Sample {
    status: u16,
    layer: String,
    body: String,
    seconds: f64,
}

fn request(addr: SocketAddr, path: &str, body: &str) -> Sample {
    let t0 = Instant::now();
    let mut conn = TcpStream::connect(addr).expect("connect to eh-serve");
    let head = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).expect("write request");
    conn.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let seconds = t0.elapsed().as_secs_f64();
    let (head, body) = raw.split_once("\r\n\r\n").expect("full HTTP response");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let layer = head
        .lines()
        .find_map(|l| l.strip_prefix("x-cache: "))
        .unwrap_or("-")
        .to_owned();
    Sample {
        status,
        layer,
        body: body.to_owned(),
        seconds,
    }
}

/// Nearest-rank percentile over an unsorted sample of seconds.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = smoke_mode();
    let sim_workers = SweepRunner::auto().workers();
    let mut config = ServeConfig::default_local();
    config.sim_workers = sim_workers;
    config.http_workers = 4;
    config.spill_dir = std::env::temp_dir().join(format!("eh-serve-bench-{}", std::process::id()));
    let server = Server::spawn(config)?;
    let addr = server.addr();
    let metrics = server.metrics();

    let (compare_nodes, loadgen_requests, loadgen_threads) = if smoke {
        (100u32, 32usize, 2usize)
    } else {
        (1000u32, 160usize, 4usize)
    };

    if smoke {
        banner("eh-serve — SMOKE profile (no timing claims)");
    } else {
        banner("eh-serve — cold vs warm, then loadgen");
    }
    println!("listening on {addr}, {sim_workers} sim workers, 4 http workers");

    // --- 1. cold vs warm ------------------------------------------------
    let compare_body = format!("{{\"nodes\":{compare_nodes},\"seed\":2011}}");
    let cold = request(addr, "/compare", &compare_body);
    assert_eq!(cold.status, 200, "cold /compare failed: {}", cold.body);
    assert_eq!(cold.layer, "miss");
    let warm = request(addr, "/compare", &compare_body);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.layer, "hit");
    assert_eq!(
        warm.body, cold.body,
        "cached response must be byte-identical to the cold computation"
    );
    let speedup = cold.seconds / warm.seconds.max(1e-9);
    println!(
        "/compare {compare_nodes} nodes, 11 trackers: cold {} s -> warm {} s (x{} speedup), bodies byte-identical",
        fmt(cold.seconds, 3),
        fmt(warm.seconds, 6),
        fmt(speedup, 1)
    );
    if !smoke {
        assert!(
            speedup >= 10.0,
            "warm cache hit must be at least 10x faster than the cold \
             1000-node comparison (got x{speedup:.1})"
        );
    }

    // --- 2. loadgen -----------------------------------------------------
    banner(&format!(
        "Loadgen — {loadgen_requests} requests, {loadgen_threads} client threads, 8 distinct bodies"
    ));
    // A pool of distinct small what-ifs: every body repeats, so the
    // steady state is cache-hit dominated with a burst of misses up
    // front — the shape a dashboard actually produces.
    let bodies: Vec<String> = (0..8u64)
        .map(|seed| format!("{{\"nodes\":25,\"seed\":{seed},\"trace_decimate\":600}}"))
        .collect();
    let t0 = Instant::now();
    // Each sample is tagged with the index of the body that produced it
    // so the byte-identity sweep below can group replies by request.
    let samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let bodies = &bodies;
        let handles: Vec<_> = (0..loadgen_threads)
            .map(|t| {
                scope.spawn(move || {
                    let per_thread = loadgen_requests / loadgen_threads;
                    (0..per_thread)
                        .map(|i| {
                            let bi = (t + i * loadgen_threads) % bodies.len();
                            let s = request(addr, "/whatif", &bodies[bi]);
                            assert_eq!(s.status, 200, "loadgen request failed: {}", s.body);
                            (bi, s)
                        })
                        .collect::<Vec<(usize, Sample)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let samples: Vec<Sample> = {
        // Identical bodies must have produced identical responses
        // whichever layer served them.
        let mut first_reply: Vec<Option<&str>> = vec![None; bodies.len()];
        for (bi, s) in &samples {
            match first_reply[*bi] {
                None => first_reply[*bi] = Some(&s.body),
                Some(expected) => assert_eq!(
                    s.body, expected,
                    "one request body produced divergent responses"
                ),
            }
        }
        samples.into_iter().map(|(_, s)| s).collect()
    };

    let mut latencies: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    latencies.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies, 50.0);
    let p95 = percentile(&latencies, 95.0);
    let throughput = samples.len() as f64 / wall.max(1e-12);
    let served = |layer: &str| samples.iter().filter(|s| s.layer == layer).count();
    let (hits, misses, coalesced) = (served("hit"), served("miss"), served("coalesced"));
    let hit_rate = hits as f64 / samples.len().max(1) as f64;
    println!(
        "{}",
        render_table(
            &[
                "requests",
                "wall (s)",
                "req/s",
                "p50 (ms)",
                "p95 (ms)",
                "hit",
                "miss",
                "coalesced"
            ],
            &[vec![
                samples.len().to_string(),
                fmt(wall, 3),
                fmt(throughput, 1),
                fmt(p50 * 1e3, 3),
                fmt(p95 * 1e3, 3),
                hits.to_string(),
                misses.to_string(),
                coalesced.to_string(),
            ]]
        )
    );

    // The service's own view of the run, from its live metric store.
    let cache_hits = metrics.counter(names::CACHE_HITS);
    let cache_misses = metrics.counter(names::CACHE_MISSES);
    let sf_coalesced = metrics.counter(names::SF_COALESCED);
    let sim_nodes = metrics.counter(names::SIM_NODES);
    println!(
        "service metrics: cache {cache_hits} hits / {cache_misses} misses, \
         {sf_coalesced} coalesced, {sim_nodes} nodes simulated"
    );

    let json = format!(
        r#"{{
  "bench": "serve",
  "command": "cargo run -q --release -p eh-bench --bin bench_serve",
  "smoke": {smoke},
  "sim_workers": {sim_workers},
  "http_workers": 4,
  "cold_vs_warm": {{
    "request": "/compare over {compare_nodes} nodes, 11 trackers, seed 2011",
    "cold_seconds": {cold_s:.6},
    "warm_seconds": {warm_s:.6},
    "speedup": {speedup:.1},
    "bodies_byte_identical": true,
    "gate": "full profile asserts speedup >= 10; smoke records only"
  }},
  "loadgen": {{
    "requests": {n_req},
    "client_threads": {loadgen_threads},
    "distinct_bodies": 8,
    "wall_seconds": {wall:.3},
    "requests_per_sec": {throughput:.1},
    "latency_p50_ms": {p50_ms:.3},
    "latency_p95_ms": {p95_ms:.3},
    "served_hit": {hits},
    "served_miss": {misses},
    "served_coalesced": {coalesced},
    "client_hit_rate": {hit_rate:.3}
  }},
  "service_metrics": {{
    "cache_hits": {cache_hits},
    "cache_misses": {cache_misses},
    "singleflight_coalesced": {sf_coalesced},
    "nodes_simulated": {sim_nodes}
  }}
}}
"#,
        cold_s = cold.seconds,
        warm_s = warm.seconds,
        n_req = samples.len(),
        p50_ms = p50 * 1e3,
        p95_ms = p95 * 1e3,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, json)?;
    println!("wrote {path}");

    server.shutdown();
    Ok(())
}
