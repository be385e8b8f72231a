//! `fleet-day`: the library fleet path. One caller runs FOCV fleet
//! jobs on the vectorized engine back to back, cycling through contexts
//! prepared in set-up. It exercises the vectorized engine and the sweep
//! runner, and bypasses the service, the other trackers and the exact
//! MPP solver.

use eh_fleet::{Engine, FleetContext, FleetReport, FleetRunner, FleetSpec, TrackerKind};
use eh_units::Seconds;

use crate::harness::{
    closed_loop, end_to_end, merge_in_order, outcome, parallel_map, repeated_setup, timed, Layers,
    Run,
};
use crate::probe;
use crate::stats::{self, Outcome};
use crate::trace::{self, Breakdown, Tracer};

/// Tail percentile of `op_tail_ms`: 40–65 jobs in a 25 s run, 10–16
/// beyond p75.
const TAIL_P: f64 = 75.0;

struct Size {
    contexts: u64,
    nodes: u32,
    dt_s: f64,
}

impl Size {
    fn of(run: &Run) -> Self {
        if run.toy {
            Self {
                contexts: 2,
                nodes: 12,
                dt_s: 600.0,
            }
        } else {
            // FleetSpec defaults: a 1-minute light grid and a 60 s step.
            Self {
                contexts: 4,
                nodes: 5000,
                dt_s: 60.0,
            }
        }
    }

    fn spec(&self, seed: u64) -> Result<FleetSpec, String> {
        let mut spec =
            FleetSpec::mixed_indoor_outdoor(self.nodes, seed).map_err(|e| e.to_string())?;
        spec.dt = Seconds::new(self.dt_s);
        spec.trace_decimate = self.dt_s as usize;
        Ok(spec)
    }
}

/// The first report of each context; every later pass must equal it.
fn same_as_first(first: &mut Option<FleetReport>, report: FleetReport) -> Result<(), String> {
    match first {
        None => {
            *first = Some(report);
            Ok(())
        }
        Some(f) if *f == report => Ok(()),
        Some(_) => Err("a fleet pass differs from the context's first pass".into()),
    }
}

/// One job as the harness decomposes it: `simulate_shard` per shard of
/// the runner's default size on `workers` threads, then the in-order
/// merge. Vectorized reports are identical at any grouping, so this
/// must equal the runner's report.
fn traced_job(
    ctx: &FleetContext,
    workers: usize,
    tracer: &Tracer,
    op: u64,
) -> Result<FleetReport, String> {
    tracer.span("fleet-day.job", op, None, |root| {
        let shards: Vec<_> = ctx
            .population()
            .chunks(FleetRunner::DEFAULT_SHARD_SIZE)
            .collect();
        let reports = parallel_map(workers, shards.len(), |k| {
            tracer.span("fleet.shard", op, Some(root), |_| {
                ctx.simulate_shard(TrackerKind::Focv, Engine::Vectorized, shards[k].to_vec())
            })
        });
        tracer.span("fleet.merge", op, Some(root), |_| {
            merge_in_order(reports).map(FleetReport::with_fleet_counters)
        })
    })
}

/// Runs the workload; see the module docs.
pub fn run(run: &Run) -> Outcome {
    outcome(|out| measure(run, out))
}

fn measure(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let size = Size::of(run);
    let (setups, ctxs) = repeated_setup(
        || {
            (0..size.contexts)
                .map(|i| {
                    let spec = size.spec(run.seed.wrapping_add(i))?;
                    FleetContext::prepare(&spec).map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>()
        },
        drop,
    )?;
    let runner = FleetRunner::new(run.nproc);
    let mut firsts: Vec<Option<FleetReport>> = vec![None; ctxs.len()];
    let seconds = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let untraced = closed_loop(seconds, usize::MAX, run.nproc, out, |i| {
        let c = i % ctxs.len();
        let (latency, report) =
            timed(|| runner.run_engine_prepared(&ctxs[c], TrackerKind::Focv, Engine::Vectorized));
        let check = report
            .map_err(|e| e.to_string())
            .and_then(|r| same_as_first(&mut firsts[c], r));
        (latency, check)
    });
    // Each job simulates one day of every node.
    out.notes.push(format!(
        "{:.0} simulated node-days per host second",
        f64::from(size.nodes) / stats::mean(&untraced.latencies)
    ));
    if !run.trace {
        end_to_end(&setups, &untraced.latencies, TAIL_P, out);
        return Ok(());
    }

    let tracer = Tracer::new();
    let traced = closed_loop(
        f64::INFINITY,
        untraced.latencies.len(),
        run.nproc,
        out,
        |i| {
            let c = i % ctxs.len();
            let (latency, report) = timed(|| traced_job(&ctxs[c], run.nproc, &tracer, i as u64));
            (
                latency,
                report.and_then(|r| same_as_first(&mut firsts[c], r)),
            )
        },
    );
    let spans = tracer.into_spans();
    let selfs = trace::self_times(&spans);
    if let Err(e) = trace::write(&run.out_dir.join("trace-fleet-day.json"), &spans, &selfs) {
        out.notes.push(format!("could not write the trace: {e}"));
    }
    let spec = size.spec(run.seed)?;
    let prepare = probe::fleet_prepare(&spec)?;
    // A prefix of context 0's population: populations are drawn
    // serially, so the first nodes are the same nodes.
    let mut replica = spec.clone();
    replica.nodes = replica.nodes.min(1024);
    let engine = probe::engine(TrackerKind::Focv, |obs| {
        let mut s = replica.clone();
        s.obs = obs;
        let ctx = FleetContext::prepare(&s).map_err(|e| e.to_string())?;
        FleetRunner::new(1)
            .run_engine_prepared(&ctx, TrackerKind::Focv, Engine::Vectorized)
            .map_err(|e| e.to_string())
    })?;
    let layers = Layers {
        breakdown: Breakdown::from_spans(&spans, &selfs),
        untraced_s: untraced.latencies.iter().sum(),
        cpu_utilization: untraced.cpu_utilization,
        lag_s: [untraced.gaps, traced.gaps].concat(),
        prepare,
        engine: vec![engine],
        ..Layers::default()
    };
    out.notes.extend(layers.lines());
    out.metrics = layers.metrics();
    Ok(())
}
