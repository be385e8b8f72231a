//! `compare-cold`: the cold what-if path. One caller posts `/compare`
//! bodies `{"nodes":4,"seed":seed+i}` over loopback to eh-serve at its
//! defaults. Every seed is new, so every request misses the response
//! cache and the context cache: the time goes to context prepare,
//! surface warm and stepping all 11 trackers over one shard. It barely
//! touches the vectorized engine.
//!
//! Identical computations on this path vary by up to ±15% from one
//! execution to the next (fresh allocations, fresh threads), so the
//! traced split, which repeats the computation in process, is exact
//! only on average over its operations.

use std::net::SocketAddr;

use eh_fleet::{FleetContext, FleetRunner, TrackerKind};
use eh_serve::{Json, Op, ServeConfig, Server, WhatIfRequest};

use crate::client;
use crate::harness::{
    closed_loop, end_to_end, outcome, repeated_setup, spawn_server, timed, Layers, Run, ServeCounts,
};
use crate::probe;
use crate::stats::{self, Outcome};
use crate::trace::{self, Breakdown, Span, Tracer};

/// Requests per second of `--seconds`: 40 in a 25 s run. The count is
/// fixed before the run, not cut by time, so it does not depend on the
/// host's speed; a 25 s run measures for about 30 s on 2 cores.
const REQUESTS_PER_S: f64 = 1.6;

/// Tail percentile of `op_tail_ms`: 40 requests, 10 beyond p75.
const TAIL_P: f64 = 75.0;

/// Trackers whose stepping dominates a cold comparison at the seed
/// commit: they re-measure all night, and the oracle solves the exact MPP.
const STORM_TRACKERS: [TrackerKind; 3] = [
    TrackerKind::PilotCell,
    TrackerKind::Photodetector,
    TrackerKind::Oracle,
];

/// Request seeds stay below 2^53 so they survive JSON numbers exactly.
pub fn json_seed(x: u64) -> u64 {
    x & ((1 << 48) - 1)
}

fn nodes(run: &Run) -> u32 {
    if run.toy {
        1
    } else {
        4
    }
}

/// A fresh server that has answered one cold `/compare`, so lazy
/// process set-up is paid before timing. The warm-up body's zero
/// tolerances give it a fleet spec no timed request shares, so it
/// warms neither cache for them.
fn warmed_server(run: &Run) -> Result<Server, String> {
    let server = spawn_server(run)?;
    let warm_up = format!(
        "{{\"nodes\":{},\"seed\":0,\"tolerances\":\"none\"}}",
        nodes(run)
    );
    let (_, checked) = post(server.addr(), &warm_up, nodes(run));
    match checked {
        Ok(_) => Ok(server),
        Err(e) => {
            server.shutdown();
            Err(format!("warm-up: {e}"))
        }
    }
}

fn body(run: &Run, i: usize) -> String {
    format!(
        "{{\"nodes\":{},\"seed\":{}}}",
        nodes(run),
        json_seed(run.seed.wrapping_add(i as u64))
    )
}

/// Output check of one `/compare` body: 11 tracker summaries of
/// `nodes` nodes each, none with a median net energy above the
/// oracle's.
fn check_compare(body: &str, nodes: u32) -> Result<(), String> {
    let json = Json::parse(body)?;
    let Some(Json::Arr(trackers)) = json.get("trackers") else {
        return Err("no trackers array".into());
    };
    if trackers.len() != TrackerKind::ALL.len() {
        return Err(format!("{} trackers, expected 11", trackers.len()));
    }
    let p50 = |t: &Json| {
        t.get("net_j")
            .and_then(|n| n.get("p50"))
            .and_then(Json::as_f64)
    };
    let oracle_at = TrackerKind::ALL
        .iter()
        .position(|k| *k == TrackerKind::Oracle)
        .expect("the oracle is a tracker kind");
    let oracle = p50(&trackers[oracle_at]).ok_or("oracle has no net_j.p50")?;
    for t in trackers {
        if t.get("nodes").and_then(Json::as_u64) != Some(u64::from(nodes)) {
            return Err(format!("a tracker summary does not cover {nodes} nodes"));
        }
        let p = p50(t).ok_or("a tracker has no net_j.p50")?;
        if p > oracle + 1e-9 * oracle.abs().max(1.0) {
            return Err(format!(
                "a tracker's net_j.p50 {p} beats the oracle's {oracle}"
            ));
        }
    }
    Ok(())
}

/// One untraced request.
fn post(addr: SocketAddr, body: &str, nodes: u32) -> (f64, Result<String, String>) {
    let (latency, reply) = timed(|| client::ok(client::request(addr, "POST", "/compare", body)));
    let checked = reply.and_then(|r| {
        check_compare(&r.body, nodes)?;
        match r.cache.as_deref() {
            Some("miss") => Ok(r.body),
            other => Err(format!("a cold request was served as {other:?}")),
        }
    });
    (latency, checked)
}

/// `requests` back to back against one server, then the cache check:
/// request 0 posted again must be a hit with identical bytes.
fn phase(run: &Run, addr: SocketAddr, requests: usize, out: &mut Outcome) -> crate::harness::Loop {
    let mut first: Option<String> = None;
    let lp = closed_loop(f64::INFINITY, requests, run.nproc, out, |i| {
        let (latency, checked) = post(addr, &body(run, i), nodes(run));
        let checked = checked.map(|b| {
            if i == 0 {
                first = Some(b);
            }
        });
        (latency, checked)
    });
    let again = client::ok(client::request(addr, "POST", "/compare", &body(run, 0)));
    out.check(again.and_then(|r| {
        if r.cache.as_deref() == Some("hit") && Some(&r.body) == first.as_ref() {
            Ok(())
        } else {
            Err("request 0 again was not a byte-identical cache hit".into())
        }
    }));
    lp
}

/// One request as the harness decomposes it: the cold round trip, the
/// same body again (a cache hit: the service path without the
/// computation), then in-process the parse, the hash, and the
/// computation's parts — the context prepare and each tracker's run.
fn traced_request(run: &Run, addr: SocketAddr, tracer: &Tracer, i: usize) -> Result<(), String> {
    let op = i as u64;
    let body = body(run, i);
    let config = ServeConfig::default_local();
    tracer.span("compare-cold.request", op, None, |root| {
        let reply = tracer.span("serve.request", op, Some(root), |_| {
            client::ok(client::request(addr, "POST", "/compare", &body))
        })?;
        let hit = tracer.span("serve.hit", op, Some(root), |_| {
            client::ok(client::request(addr, "POST", "/compare", &body))
        })?;
        if hit.cache.as_deref() != Some("hit") || hit.body != reply.body {
            return Err("the repeated body was not a byte-identical hit".into());
        }
        let req = tracer.span("serve.parse", op, Some(root), |_| {
            let json = Json::parse(&body)?;
            WhatIfRequest::from_json(Op::Compare, &json, config.max_nodes)
                .map_err(|e| e.to_string())
        })?;
        std::hint::black_box(tracer.span("serve.hash", op, Some(root), |_| req.hash()));
        let ctx = tracer.span("fleet.prepare", op, Some(root), |_| {
            FleetContext::prepare(&req.to_spec().map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())
        })?;
        let runner = FleetRunner::new(config.sim_workers).with_shard_size(req.shard_size);
        for kind in TrackerKind::ALL {
            tracer
                .span(format!("tracker.{}", kind.label()), op, Some(root), |_| {
                    runner.run_engine_prepared(&ctx, kind, req.engine)
                })
                .map_err(|e| e.to_string())?;
        }
        check_compare(&reply.body, nodes(run))
    })
}

/// The cold request's time split into layers. Parse, hash, prepare and
/// the tracker runs are measured in process; transport is the cache
/// hit's round trip less parse and hash; `serve.render` is what is left
/// of the cold round trip — response rendering and cache bookkeeping,
/// plus the run-to-run difference between the service's computation and
/// the harness's repetition of it.
fn breakdown(spans: &[Span]) -> Breakdown {
    let mut b = Breakdown::default();
    let ops: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.op).collect();
    for op in ops {
        let dur = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.op == op && s.parent.is_some() && s.name == name)
                .map(|s| s.end - s.start)
                .sum()
        };
        let (cold, hit) = (dur("serve.request"), dur("serve.hit"));
        let (parse, hash, prepare) = (dur("serve.parse"), dur("serve.hash"), dur("fleet.prepare"));
        let engines: Vec<(String, f64)> = TrackerKind::ALL
            .iter()
            .map(|k| {
                let name = format!("tracker.{}", k.label());
                let s = dur(&name);
                (name, s)
            })
            .collect();
        let engine_s: f64 = engines.iter().map(|(_, s)| s).sum();
        b.ops += 1;
        b.e2e_s += cold;
        b.add("serve.parse", parse);
        b.add("serve.hash", hash);
        b.add("serve.transport", hit - parse - hash);
        b.add("fleet.prepare", prepare);
        for (name, s) in &engines {
            b.add(name, *s);
        }
        b.add("serve.render", cold - hit - prepare - engine_s);
        b.attributed_s += hit + prepare + engine_s;
    }
    b
}

/// Runs the workload; see the module docs.
pub fn run(run: &Run) -> Outcome {
    outcome(|out| measure(run, out))
}

fn measure(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let (setups, server) = repeated_setup(|| warmed_server(run), Server::shutdown)?;
    let seconds = if run.trace {
        run.seconds / 3.0
    } else {
        run.seconds
    };
    let requests = ((REQUESTS_PER_S * seconds).round() as usize).max(1);
    let untraced = phase(run, server.addr(), requests, out);
    let counts = ServeCounts::of(&server.metrics());
    server.shutdown();
    let per_request = f64::from(nodes(run)) * TrackerKind::ALL.len() as f64;
    out.notes.push(format!(
        "{:.1} simulated node-days per host second ({} nodes x 11 trackers x 1 day per request)",
        per_request / stats::mean(&untraced.latencies),
        nodes(run)
    ));
    if !run.trace {
        end_to_end(&setups, &untraced.latencies, TAIL_P, out);
        return Ok(());
    }

    // The same requests against a fresh server, so they are cold again.
    let server = warmed_server(run)?;
    let tracer = Tracer::new();
    let addr = server.addr();
    let traced = closed_loop(
        f64::INFINITY,
        untraced.latencies.len(),
        run.nproc,
        out,
        |i| timed(|| traced_request(run, addr, &tracer, i)),
    );
    server.shutdown();
    let spans = tracer.into_spans();
    let selfs = trace::self_times(&spans);
    if let Err(e) = trace::write(&run.out_dir.join("trace-compare-cold.json"), &spans, &selfs) {
        out.notes.push(format!("could not write the trace: {e}"));
    }
    let max_nodes = ServeConfig::default_local().max_nodes;
    let req = WhatIfRequest::from_json(Op::Compare, &Json::parse(&body(run, 0))?, max_nodes)
        .map_err(|e| e.to_string())?;
    let spec = req.to_spec().map_err(|e| e.to_string())?;
    let prepare = probe::fleet_prepare(&spec)?;
    let engine = TrackerKind::ALL
        .into_iter()
        .map(|kind| {
            probe::engine(kind, |obs| {
                let mut s = spec.clone();
                s.obs = obs;
                let ctx = FleetContext::prepare(&s).map_err(|e| e.to_string())?;
                FleetRunner::new(1)
                    .run_engine_prepared(&ctx, kind, req.engine)
                    .map_err(|e| e.to_string())
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let layers = Layers {
        breakdown: breakdown(&spans),
        untraced_s: untraced.latencies.iter().sum(),
        cpu_utilization: untraced.cpu_utilization,
        lag_s: [untraced.gaps, traced.gaps].concat(),
        prepare,
        engine,
        serve: counts,
    };
    let b = &layers.breakdown;
    let engine_share = |kinds: &[TrackerKind]| -> f64 {
        kinds
            .iter()
            .map(|k| b.share(&format!("tracker.{}", k.label())))
            .sum()
    };
    out.notes.extend(layers.lines());
    out.notes.push(format!(
        "pilot-cell + photodetector + oracle: {:.2}% of all tracker stepping",
        100.0
            * stats::ratio(
                engine_share(&STORM_TRACKERS),
                engine_share(&TrackerKind::ALL)
            )
    ));
    out.metrics = layers.metrics();
    Ok(())
}
