//! What every workload shares: the run settings, the closed loop, the
//! end-to-end metrics and the per-layer metric set.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use eh_fleet::TrackerKind;
use eh_serve::metrics::names;
use eh_serve::{ServeConfig, Server, ServiceMetrics};
use eh_sim::Mergeable;

use crate::probe::{EngineProbe, PrepareProbe};
use crate::stats::{median, percentile, ratio, sorted, tail_percentile, Metric, Outcome};
use crate::trace::Breakdown;
use crate::{client, sys};

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Length of the measured region, seconds.
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Worker threads and load-generator connections (the host's cores).
    pub nproc: usize,
    /// Where the traced run writes its spans and the service its spills.
    pub out_dir: PathBuf,
    /// Toy sizes: the same code paths on inputs small enough for tests.
    pub toy: bool,
}

/// How many times each workload repeats its set-up; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 3;

/// Runs a workload's body; an error that ends it early counts as one
/// more failed operation.
pub fn outcome(body: impl FnOnce(&mut Outcome) -> Result<(), String>) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = body(&mut out) {
        out.check(Err(e));
    }
    out
}

/// Folds shard or node reports in index order, as the runners do.
pub fn merge_in_order<R: Mergeable, E: std::fmt::Display>(
    reports: Vec<Result<R, E>>,
) -> Result<R, String> {
    let mut merged: Option<R> = None;
    for report in reports {
        let report = report.map_err(|e| e.to_string())?;
        match merged.as_mut() {
            None => merged = Some(report),
            Some(m) => m.merge(report),
        }
    }
    merged.ok_or_else(|| "nothing to merge".to_owned())
}

/// Runs `f` and returns its wall time in seconds with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Repeats a set-up `SETUP_REPEATS` times and keeps the last result,
/// with every repetition's wall time. Each earlier result goes to
/// `retire`, untimed, before the next repetition starts.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut retire: impl FnMut(T),
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            retire(previous);
        }
        let (s, v) = timed(&mut setup);
        times.push(s);
        last = Some(v?);
    }
    Ok((times, last.expect("at least one repetition")))
}

/// What a closed loop measured.
#[derive(Debug, Default, Clone)]
pub struct Loop {
    /// Per-operation latency, seconds, in the order the operations ran.
    pub latencies: Vec<f64>,
    /// Per-operation harness time outside the timed call (input
    /// building, output checks), seconds.
    pub gaps: Vec<f64>,
    /// Host CPU used over the loop, as a share of every core's wall time.
    pub cpu_utilization: f64,
}

/// One caller issuing operations back to back. The next operation
/// starts only if the mean so far still fits in `seconds`; at least one
/// runs, at most `max_ops`. `op(i)` returns the latency it timed and
/// whether its output check passed.
pub fn closed_loop(
    seconds: f64,
    max_ops: usize,
    nproc: usize,
    out: &mut Outcome,
    mut op: impl FnMut(usize) -> (f64, Result<(), String>),
) -> Loop {
    let start = Instant::now();
    let cpu0 = sys::cpu_seconds();
    let mut lp = Loop::default();
    while lp.latencies.len() < max_ops {
        let elapsed = start.elapsed().as_secs_f64();
        if !lp.latencies.is_empty() && elapsed + crate::stats::mean(&lp.latencies) > seconds {
            break;
        }
        let (wall, (latency, result)) = timed(|| op(lp.latencies.len()));
        lp.latencies.push(latency);
        lp.gaps.push((wall - latency).max(0.0));
        out.check(result);
    }
    let wall = start.elapsed().as_secs_f64();
    lp.cpu_utilization = ratio(sys::cpu_seconds() - cpu0, nproc as f64 * wall);
    lp
}

/// `f(0..n)` on `workers` threads that claim indices in order; results
/// come back in index order.
pub fn parallel_map<T: Send>(workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, n.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a worker thread panicked"))
            .collect()
    });
    slots.sort_by_key(|(i, _)| *i);
    slots.into_iter().map(|(_, v)| v).collect()
}

/// The end-to-end metrics of an untraced run: set-up median, peak
/// memory, and the operation latency's median and fixed tail
/// percentile `tail_p`.
pub fn end_to_end(setups: &[f64], latencies: &[f64], tail_p: f64, out: &mut Outcome) {
    let lat = sorted(latencies);
    let n = lat.len();
    let beyond = match tail_percentile(n) {
        Some(p) if p >= tail_p => "at least 10 samples beyond it".to_owned(),
        Some(p) => format!("fewer than 10 beyond it; p{p:.1} is the highest with 10"),
        None => "no percentile has 10 samples beyond it".to_owned(),
    };
    out.notes.push(format!(
        "{n} operations: p50 {:.3} ms, p{tail_p} {:.3} ms ({beyond}); set-up median of {}: {:.4} s",
        1e3 * percentile(&lat, 50.0),
        1e3 * percentile(&lat, tail_p),
        setups.len(),
        median(setups),
    ));
    out.metrics = vec![
        Metric::new("setup_s", median(setups), "s"),
        Metric::new("peak_rss_mb", sys::peak_rss_mib(), "MiB"),
        Metric::new("op_p50_ms", 1e3 * percentile(&lat, 50.0), "ms"),
        Metric::new("op_tail_ms", 1e3 * percentile(&lat, tail_p), "ms"),
    ];
}

/// Starts eh-serve at its local defaults, spilling under the run's
/// output directory, and waits until `/healthz` answers.
pub fn spawn_server(run: &Run) -> Result<Server, String> {
    let mut config = ServeConfig::default_local();
    config.spill_dir = run.out_dir.join("spill");
    let server = Server::spawn(config).map_err(|e| e.to_string())?;
    client::ok(client::request(server.addr(), "GET", "/healthz", ""))?;
    Ok(server)
}

/// The service's own counters after a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeCounts {
    hits: u64,
    misses: u64,
    context_misses: u64,
    coalesced: u64,
    shed: u64,
    server_errors: u64,
}

impl ServeCounts {
    /// Reads the counters from a live metric store.
    pub fn of(m: &ServiceMetrics) -> Self {
        Self {
            hits: m.counter(names::CACHE_HITS),
            misses: m.counter(names::CACHE_MISSES),
            context_misses: m.counter(names::CONTEXT_MISSES),
            coalesced: m.counter(names::SF_COALESCED),
            shed: m.counter(names::HTTP_SHED),
            server_errors: m.counter(names::HTTP_SERVER_ERROR),
        }
    }
}

/// Layers whose self time a traced operation can contain; each is
/// reported as `<layer>.self_share` of the traced end-to-end time, and
/// so is `tracker.<label>` for every tracker kind.
pub const SHARE_LAYERS: [&str; 11] = [
    "fleet.shard",
    "fleet.merge",
    "campaign.node",
    "campaign.fold",
    "serve.parse",
    "serve.hash",
    "fleet.prepare",
    "serve.render",
    "serve.transport",
    "serve.hit",
    "serve.miss",
];

/// Everything a traced run measured, turned into the per-layer metric
/// set every workload reports (0 for a layer it bypasses).
#[derive(Debug, Default)]
pub struct Layers {
    /// Attribution of the traced operations.
    pub breakdown: Breakdown,
    /// Σ untraced latency of the same operations on the same inputs.
    pub untraced_s: f64,
    /// Host CPU share over the untraced operations.
    pub cpu_utilization: f64,
    /// Per-operation harness time outside the timed calls, seconds.
    pub lag_s: Vec<f64>,
    /// Set-up decomposition.
    pub prepare: PrepareProbe,
    /// Deterministic engine counts per tracker run.
    pub engine: Vec<EngineProbe>,
    /// The service's counters, for workloads that drive it.
    pub serve: ServeCounts,
}

impl Layers {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let b = &self.breakdown;
        let steps: u64 = self.engine.iter().map(|e| e.steps).sum();
        let engine_s: f64 = self.engine.iter().map(|e| e.seconds).sum();
        let node_days: f64 = self.engine.iter().map(|e| e.node_days).sum();
        let measurements: u64 = self.engine.iter().map(|e| e.measurements).sum();
        let s = &self.serve;
        let mut m = vec![
            Metric::new("trace.e2e_ms", 1e3 * ratio(b.e2e_s, b.ops as f64), "ms"),
            Metric::new(
                "trace.overhead_frac",
                ratio(b.e2e_s, self.untraced_s) - 1.0,
                "fraction",
            ),
            Metric::new("trace.attributed_frac", b.attributed_frac(), "fraction"),
            Metric::new("host.cpu_utilization", self.cpu_utilization, "fraction"),
            Metric::new(
                "gen.lag_p99_ms",
                1e3 * percentile(&sorted(&self.lag_s), 99.0),
                "ms",
            ),
            Metric::new("fleet.prepare_ms", 1e3 * self.prepare.prepare_s, "ms"),
            Metric::new("fleet.population_ms", 1e3 * self.prepare.population_s, "ms"),
            Metric::new("env.trace_ms", 1e3 * self.prepare.env_s, "ms"),
            Metric::new("pv.surface_warm_ms", 1e3 * self.prepare.pv_s, "ms"),
            Metric::new(
                "engine.ns_per_step",
                1e9 * ratio(engine_s, steps as f64),
                "ns",
            ),
            Metric::new(
                "engine.measurements_per_node_day",
                ratio(measurements as f64, node_days),
                "meas/node-day",
            ),
        ];
        for layer in SHARE_LAYERS {
            m.push(Metric::new(
                format!("{layer}.self_share"),
                b.share(layer),
                "fraction",
            ));
        }
        for kind in TrackerKind::ALL {
            m.push(Metric::new(
                format!("tracker.{}.self_share", kind.label()),
                b.share(&format!("tracker.{}", kind.label())),
                "fraction",
            ));
        }
        for kind in TrackerKind::ALL {
            let e = self.engine.iter().filter(|e| e.kind == kind);
            let (st, nd) = e.fold((0u64, 0.0), |(a, b), e| (a + e.steps, b + e.node_days));
            m.push(Metric::new(
                format!("tracker.{}.steps_per_node_day", kind.label()),
                ratio(st as f64, nd),
                "steps/node-day",
            ));
        }
        m.extend([
            Metric::new(
                "serve.cache_hit_ratio",
                ratio(s.hits as f64, (s.hits + s.misses) as f64),
                "fraction",
            ),
            Metric::new("serve.context_misses", s.context_misses as f64, "count"),
            Metric::new("serve.sf_coalesced", s.coalesced as f64, "count"),
            Metric::new("serve.http_shed", s.shed as f64, "count"),
            Metric::new("serve.server_errors", s.server_errors as f64, "count"),
        ]);
        m
    }

    /// Human-readable breakdown lines.
    pub fn lines(&self) -> Vec<String> {
        let mut out = self.breakdown.lines();
        out.push(format!(
            "set-up decomposition (median of {}): prepare {:.3} ms = population {:.3} + \
             light traces {:.3} + surface warm {:.3} ms + rest",
            crate::probe::REPEATS,
            1e3 * self.prepare.prepare_s,
            1e3 * self.prepare.population_s,
            1e3 * self.prepare.env_s,
            1e3 * self.prepare.pv_s,
        ));
        for e in &self.engine {
            out.push(format!(
                "engine {:<24} {:>12.1} steps/node-day {:>10.1} meas/node-day {:>8.1} ns/step",
                e.kind.label(),
                ratio(e.steps as f64, e.node_days),
                ratio(e.measurements as f64, e.node_days),
                1e9 * ratio(e.seconds, e.steps as f64),
            ));
        }
        let attributed = self.breakdown.attributed_frac();
        if self.breakdown.ops > 0 && !(0.95..=1.05).contains(&attributed) {
            out.push(format!(
                "WARNING: directly measured layers cover {:.1}% of the traced time, outside 95–105%",
                100.0 * attributed
            ));
        }
        out
    }
}
