//! `serve-mixed`: eh-serve under the repository's own load generator,
//! the loadgen of `bench_serve` that `BENCH_serve.json` records, repeated
//! for the length of the run. One round posts 160 `/whatif` requests over
//! 8 distinct bodies `{"nodes":25,"seed":…,"trace_decimate":600}` from
//! `min(4, nproc)` clients, each sending one request at a time; client
//! `t`'s `i`-th request carries body `(t + i·clients) mod 8`. The first
//! request of a body misses and computes, the other 19 hit: 95% hits, as
//! the loadgen records. Each round draws 8 new seeds, so misses recur and
//! the mix holds for the whole run.
//!
//! The clients never have more requests in flight than the service has
//! HTTP workers, so no request waits for a worker: the workload measures
//! how hits and misses share the CPU, not a stalled worker pool.

use std::net::SocketAddr;
use std::time::Instant;

use eh_fleet::{FleetContext, FleetRunner};
use eh_serve::{Json, Op, ServeConfig, Server, WhatIfRequest};

use crate::compare_cold::json_seed;
use crate::harness::{
    end_to_end, outcome, parallel_map, repeated_setup, spawn_server, Layers, Run, ServeCounts,
};
use crate::stats::{self, Outcome};
use crate::trace::{self, Breakdown, Tracer};
use crate::{client, probe, sys};

/// Tail percentile of `op_tail_ms`: about 3000 requests in a 25 s run,
/// 30 beyond p99.
const TAIL_P: f64 = 99.0;

/// Client threads of the loadgen; the workload uses fewer on a host
/// with fewer cores.
const LOADGEN_CLIENTS: usize = 4;

struct Size {
    nodes: u32,
    bodies: usize,
    round: usize,
}

impl Size {
    fn of(run: &Run) -> Self {
        if run.toy {
            Self {
                nodes: 2,
                bodies: 2,
                round: 8,
            }
        } else {
            // The loadgen's 25-node bodies, 8 of them, 160 requests.
            Self {
                nodes: 25,
                bodies: 8,
                round: 160,
            }
        }
    }

    /// Body `k` of round `r`.
    fn body(&self, run: &Run, r: usize, k: usize) -> String {
        let index = (r * self.bodies + k) as u64;
        let seed = json_seed(run.seed.wrapping_mul(1 << 20).wrapping_add(index));
        format!(
            "{{\"nodes\":{},\"seed\":{seed},\"trace_decimate\":600}}",
            self.nodes
        )
    }
}

/// One request as its client saw it.
#[derive(Debug)]
struct Sample {
    /// The body's index within its round.
    body: usize,
    /// Harness time since the client's previous reply, seconds.
    gap: f64,
    send: Instant,
    done: Instant,
    reply: Result<client::Reply, String>,
}

impl Sample {
    fn latency(&self) -> f64 {
        (self.done - self.send).as_secs_f64()
    }

    fn is_hit(&self) -> bool {
        matches!(&self.reply, Ok(r) if r.cache.as_deref() == Some("hit"))
    }
}

/// The body index of each client's requests in one round, in the
/// loadgen's order.
fn plan(size: &Size, nproc: usize) -> Vec<Vec<usize>> {
    let clients = LOADGEN_CLIENTS.min(nproc).clamp(1, size.round);
    (0..clients)
        .map(|t| {
            (0..size.round / clients)
                .map(|i| (t + i * clients) % size.bodies)
                .collect()
        })
        .collect()
}

/// One round of the loadgen on fresh bodies.
fn round(run: &Run, size: &Size, addr: SocketAddr, r: usize) -> Vec<Sample> {
    let plan = plan(size, run.nproc);
    parallel_map(plan.len(), plan.len(), |t| {
        let mut previous: Option<Instant> = None;
        plan[t]
            .iter()
            .map(|&k| {
                let body = size.body(run, r, k);
                let send = Instant::now();
                let reply = client::ok(client::request(addr, "POST", "/whatif", &body));
                let done = Instant::now();
                let gap = previous.map_or(0.0, |p| (send - p).as_secs_f64());
                previous = Some(done);
                Sample {
                    body: k,
                    gap,
                    send,
                    done,
                    reply,
                }
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Output checks of one round: each request is a 200 with the bytes
/// every other request of its body got, the body's reply covers `nodes`
/// nodes, and each body was computed exactly once.
fn check_round(size: &Size, samples: &[Sample], out: &mut Outcome) {
    let mut first: Vec<Option<&str>> = vec![None; size.bodies];
    let mut computed = vec![0usize; size.bodies];
    for s in samples {
        out.check(match &s.reply {
            Err(e) => Err(e.clone()),
            Ok(reply) => {
                if reply.cache.as_deref() == Some("miss") {
                    computed[s.body] += 1;
                }
                match first[s.body] {
                    None => {
                        first[s.body] = Some(&reply.body);
                        check_nodes(size, &reply.body)
                    }
                    Some(f) if f == reply.body => Ok(()),
                    Some(_) => Err("a body got different bytes".into()),
                }
            }
        });
    }
    for (k, &n) in computed.iter().enumerate() {
        out.check(if n == 1 {
            Ok(())
        } else {
            Err(format!("body {k} of a round was computed {n} times"))
        });
    }
}

fn check_nodes(size: &Size, body: &str) -> Result<(), String> {
    let json = Json::parse(body)?;
    let nodes = json
        .get("report")
        .and_then(|r| r.get("nodes"))
        .and_then(Json::as_u64);
    if nodes == Some(u64::from(size.nodes)) {
        Ok(())
    } else {
        Err(format!("a /whatif reply reports {nodes:?} nodes"))
    }
}

/// A fresh server that has answered one `/whatif`, so lazy process
/// set-up is paid before timing. The warm-up body's zero tolerances give
/// it a fleet spec no round shares, so it warms neither cache for them.
fn warmed_server(run: &Run, size: &Size) -> Result<Server, String> {
    let server = spawn_server(run)?;
    let warm_up = format!(
        "{{\"nodes\":{},\"seed\":0,\"tolerances\":\"none\"}}",
        size.nodes
    );
    let reply = client::ok(client::request(server.addr(), "POST", "/whatif", &warm_up))
        .and_then(|r| check_nodes(size, &r.body));
    match reply {
        Ok(()) => Ok(server),
        Err(e) => {
            server.shutdown();
            Err(format!("warm-up: {e}"))
        }
    }
}

/// What the rounds of one run measured.
struct Phase {
    samples: Vec<Sample>,
    rounds: usize,
    cpu_utilization: f64,
}

/// Rounds back to back while the mean round still fits in `seconds`;
/// at least one.
fn phase(run: &Run, size: &Size, server: &Server, seconds: f64, out: &mut Outcome) -> Phase {
    let start = Instant::now();
    let cpu0 = sys::cpu_seconds();
    let mut samples = Vec::new();
    let mut rounds = 0;
    while rounds == 0
        || start.elapsed().as_secs_f64() * (rounds + 1) as f64 / rounds as f64 <= seconds
    {
        let r = round(run, size, server.addr(), rounds);
        check_round(size, &r, out);
        samples.extend(r);
        rounds += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    Phase {
        samples,
        rounds,
        cpu_utilization: stats::ratio(sys::cpu_seconds() - cpu0, run.nproc as f64 * wall),
    }
}

fn p_ms(values: &[f64], p: f64) -> f64 {
    1e3 * stats::percentile(&stats::sorted(values), p)
}

/// Latency notes for hits and for the rest.
fn summarize(phase: &Phase, out: &mut Outcome) {
    let of = |hit: bool| -> Vec<f64> {
        phase
            .samples
            .iter()
            .filter(|s| s.is_hit() == hit)
            .map(Sample::latency)
            .collect()
    };
    let (hits, misses) = (of(true), of(false));
    out.notes.push(format!(
        "{} rounds: hits ({}) p50 {:.3} ms p99 {:.3} ms; misses ({}) p50 {:.3} ms p99 {:.3} ms",
        phase.rounds,
        hits.len(),
        p_ms(&hits, 50.0),
        p_ms(&hits, 99.0),
        misses.len(),
        p_ms(&misses, 50.0),
        p_ms(&misses, 99.0),
    ));
}

/// Runs the workload; see the module docs.
pub fn run(run: &Run) -> Outcome {
    outcome(|out| measure(run, out))
}

fn measure(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let size = Size::of(run);
    let (setups, server) = repeated_setup(|| warmed_server(run, &size), Server::shutdown)?;
    // Its clock must start before the first request it records.
    let tracer = Tracer::new();
    let measured = phase(run, &size, &server, run.seconds, out);
    let counts = ServeCounts::of(&server.metrics());
    server.shutdown();
    summarize(&measured, out);
    let latencies: Vec<f64> = measured.samples.iter().map(Sample::latency).collect();
    if !run.trace {
        end_to_end(&setups, &latencies, TAIL_P, out);
        return Ok(());
    }

    // The spans are the clients' own instants, recorded after the run,
    // so tracing adds nothing to the requests it splits by kind.
    for (i, s) in measured.samples.iter().enumerate() {
        let op = i as u64;
        let root = tracer.interval("serve-mixed.request", op, None, s.send, s.done);
        let layer = if s.is_hit() {
            "serve.hit"
        } else {
            "serve.miss"
        };
        tracer.interval(layer, op, Some(root), s.send, s.done);
    }
    let spans = tracer.into_spans();
    let selfs = trace::self_times(&spans);
    if let Err(e) = trace::write(&run.out_dir.join("trace-serve-mixed.json"), &spans, &selfs) {
        out.notes.push(format!("could not write the trace: {e}"));
    }
    let req = WhatIfRequest::from_json(
        Op::WhatIf,
        &Json::parse(&size.body(run, 0, 0))?,
        ServeConfig::default_local().max_nodes,
    )
    .map_err(|e| e.to_string())?;
    let spec = req.to_spec().map_err(|e| e.to_string())?;
    let prepare = probe::fleet_prepare(&spec)?;
    let engine = probe::engine(req.tracker, |obs| {
        let mut s = spec.clone();
        s.obs = obs;
        let ctx = FleetContext::prepare(&s).map_err(|e| e.to_string())?;
        FleetRunner::new(1)
            .run_engine_prepared(&ctx, req.tracker, req.engine)
            .map_err(|e| e.to_string())
    })?;
    let layers = Layers {
        breakdown: Breakdown::from_spans(&spans, &selfs),
        untraced_s: latencies.iter().sum(),
        cpu_utilization: measured.cpu_utilization,
        lag_s: measured.samples.iter().map(|s| s.gap).collect(),
        prepare,
        engine: vec![engine],
        serve: counts,
    };
    out.notes.extend(layers.lines());
    out.metrics = layers.metrics();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(nproc: usize) -> Run {
        Run {
            seed: 7,
            seconds: 25.0,
            trace: false,
            nproc,
            out_dir: std::env::temp_dir(),
            toy: false,
        }
    }

    #[test]
    fn a_round_follows_the_loadgen_mix() {
        // 160 requests, 20 per body, from at most four clients.
        for (nproc, clients) in [(1, 1), (2, 2), (4, 4), (8, 4)] {
            let size = Size::of(&run(nproc));
            let plan = plan(&size, nproc);
            assert_eq!(plan.len(), clients);
            let mut per_body = vec![0; size.bodies];
            for &k in plan.iter().flatten() {
                per_body[k] += 1;
            }
            assert_eq!(per_body, vec![20; 8], "nproc {nproc}");
        }
        // The loadgen's order: client 1 of 2 posts bodies 1, 3, 5, 7, 1, …
        let plan = plan(&Size::of(&run(2)), 2);
        assert_eq!(plan[1][..5], [1, 3, 5, 7, 1]);
    }

    #[test]
    fn rounds_draw_new_bodies() {
        let run = run(2);
        let size = Size::of(&run);
        let mut bodies: Vec<String> = (0..50)
            .flat_map(|r| (0..size.bodies).map(move |k| (r, k)))
            .map(|(r, k)| size.body(&run, r, k))
            .collect();
        assert_eq!(size.body(&run, 3, 5), bodies[3 * 8 + 5]);
        bodies.sort();
        bodies.dedup();
        assert_eq!(bodies.len(), 50 * 8);
    }
}
