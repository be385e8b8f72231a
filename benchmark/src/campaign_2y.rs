//! `campaign-2y`: the reference endurance campaign, 1000 nodes over
//! 730 days on the campaign's default engine. It uses the fleet layer
//! unlike `fleet-day`: multi-day seasonal and weather traces, and per-node
//! epoch chaining that carries store energy between epochs. A change of
//! the campaign's default engine shows here and not on `fleet-day`.

use eh_campaign::environment::epoch_traces;
use eh_campaign::run::WEATHER_SALT;
use eh_campaign::{CampaignContext, CampaignReport, CampaignRunner, CampaignSpec};
use eh_fleet::{FleetContext, FleetSpec, Placement, SurfacePool};
use eh_units::Seconds;

use crate::harness::{
    closed_loop, end_to_end, merge_in_order, outcome, parallel_map, repeated_setup, timed, Layers,
    Run,
};
use crate::probe::{self, placements_in_use, PrepareProbe};
use crate::stats::{self, Outcome};
use crate::trace::{self, Breakdown, Tracer};

/// One campaign per run: `op_tail_ms` is its largest (only) sample.
const TAIL_P: f64 = 100.0;

/// Survivors, browned-out and faulted nodes of the reference campaign
/// at seed 2011, as recorded in `BENCH_campaign.json`.
const GOLDEN_2011: (usize, usize, usize) = (115, 885, 148);

/// Nodes of the first epoch replayed with counters on.
const REPLICA_NODES: usize = 64;

fn spec(run: &Run) -> CampaignSpec {
    if run.toy {
        let mut s = CampaignSpec::reference(6, run.seed);
        s.days = 6;
        s.epoch_days = 3;
        s.dt = Seconds::new(1800.0);
        s
    } else {
        CampaignSpec::reference(1000, run.seed)
    }
}

fn check(
    run: &Run,
    report: &CampaignReport,
    first: &mut Option<CampaignReport>,
) -> Result<(), String> {
    let (survivors, browned) = (report.survivors(), report.browned_out());
    let nodes = spec(run).nodes as usize;
    if report.nodes() != nodes || survivors + browned != nodes {
        return Err(format!(
            "{survivors} survivors + {browned} browned out over {} of {nodes} nodes",
            report.nodes()
        ));
    }
    let counts = (survivors, browned, report.faulted());
    if !run.toy && run.seed == 2011 && counts != GOLDEN_2011 {
        return Err(format!(
            "seed 2011 counts {counts:?}, golden {GOLDEN_2011:?}"
        ));
    }
    match first {
        None => *first = Some(report.clone()),
        Some(f) if f == report => {}
        Some(_) => return Err("a campaign pass differs from the first".into()),
    }
    Ok(())
}

/// The campaign as the harness decomposes it: `simulate_node` per node
/// on `workers` threads, then the in-order fold. Campaign reports are
/// identical at any grouping, so this must equal the runner's.
fn traced_job(
    ctx: &CampaignContext,
    workers: usize,
    tracer: &Tracer,
    op: u64,
) -> Result<CampaignReport, String> {
    tracer.span("campaign-2y.job", op, None, |root| {
        let (nodes, schedules) = (ctx.population(), ctx.schedules());
        let reports = parallel_map(workers, nodes.len(), |k| {
            tracer.span("campaign.node", op, Some(root), |_| {
                ctx.simulate_node(&nodes[k], &schedules[k])
            })
        });
        tracer.span("campaign.fold", op, Some(root), |_| merge_in_order(reports))
    })
}

/// The campaign's base fleet, as `CampaignContext::prepare` builds it.
fn fleet_spec(spec: &CampaignSpec) -> Result<FleetSpec, String> {
    let mut f =
        FleetSpec::mixed_indoor_outdoor(spec.nodes, spec.seed).map_err(|e| e.to_string())?;
    f.name = spec.name.clone();
    f.load = Some(spec.load.build().map_err(|e| e.to_string())?);
    f.dt = spec.dt;
    Ok(f)
}

/// Times the campaign prepare and, separately, its population draw,
/// its light traces (season, weather chain and every epoch's traces)
/// and its surface warm. Also replays the first epoch of the first
/// nodes with counters on, without faults, for the engine counts.
fn probes(spec: &CampaignSpec) -> Result<(PrepareProbe, probe::EngineProbe), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let fleet = fleet_spec(spec)?;
    let population = fleet.population().map_err(|e| err(&e))?;
    let used = placements_in_use(&population);
    let in_use = Placement::ALL.map(|p| used.contains(&p));
    let mut epoch0 = None;
    let mut pool0 = None;
    let prepare = PrepareProbe::median_of(|| {
        let (prepare_s, ctx) = timed(|| CampaignContext::prepare(spec));
        ctx.map_err(|e| err(&e))?;
        let (population_s, p) = timed(|| fleet.population());
        p.map_err(|e| err(&e))?;
        let (env_s, traces) = timed(|| -> Result<Vec<_>, String> {
            let season = spec
                .climate
                .season(spec.latitude_deg)
                .map_err(|e| err(&e))?;
            let attenuations = spec
                .climate
                .weather(spec.seed ^ WEATHER_SALT)
                .map_err(|e| err(&e))?
                .attenuations(spec.days as usize);
            spec.epochs()
                .iter()
                .map(|&(start, len)| {
                    epoch_traces(&season, &attenuations, start, len, spec.dt, in_use)
                        .map_err(|e| err(&e))
                })
                .collect()
        });
        let (pv_s, pool) =
            timed(|| SurfacePool::warm(&fleet.cell, used.iter().copied(), fleet.pv_cache));
        epoch0 = traces?.into_iter().next();
        pool0 = Some(pool.map_err(|e| err(&e))?);
        Ok(PrepareProbe {
            prepare_s,
            population_s,
            env_s,
            pv_s,
        })
    })?;
    let (traces, pool) = (epoch0.ok_or("no epochs")?, pool0.ok_or("no pool")?);
    let engine = probe::engine(spec.tracker, |obs| {
        let mut f = fleet.clone();
        f.obs = obs;
        let ctx = FleetContext::prepare_with_environment(&f, traces.clone(), pool.clone())
            .map_err(|e| err(&e))?;
        let nodes = ctx.population()[..REPLICA_NODES.min(population.len())].to_vec();
        ctx.simulate_shard(spec.tracker, spec.engine, nodes)
            .map_err(|e| err(&e))
    })?;
    Ok((prepare, engine))
}

/// Runs the workload; see the module docs.
pub fn run(run: &Run) -> Outcome {
    outcome(|out| measure(run, out))
}

fn measure(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let spec = spec(run);
    let (setups, ctx) = repeated_setup(
        || CampaignContext::prepare(&spec).map_err(|e| e.to_string()),
        drop,
    )?;
    let runner = CampaignRunner::new(run.nproc);
    let mut first = None;
    let seconds = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let untraced = closed_loop(seconds, usize::MAX, run.nproc, out, |_| {
        let (latency, report) = timed(|| runner.run_prepared(&ctx));
        let checked = report
            .map_err(|e| e.to_string())
            .and_then(|r| check(run, &r, &mut first));
        (latency, checked)
    });
    let node_days = f64::from(spec.nodes) * f64::from(spec.days);
    out.notes.push(format!(
        "{:.0} simulated node-days per host second",
        node_days / stats::mean(&untraced.latencies)
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
            let (latency, report) = timed(|| traced_job(&ctx, run.nproc, &tracer, i as u64));
            (latency, report.and_then(|r| check(run, &r, &mut first)))
        },
    );
    let spans = tracer.into_spans();
    let selfs = trace::self_times(&spans);
    if let Err(e) = trace::write(&run.out_dir.join("trace-campaign-2y.json"), &spans, &selfs) {
        out.notes.push(format!("could not write the trace: {e}"));
    }
    let node_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "campaign.node")
        .map(|s| s.end - s.start)
        .collect();
    let node_s = stats::sorted(&node_s);
    out.notes.push(format!(
        "campaign.node over {} nodes: p50 {:.3} ms, p99 {:.3} ms",
        node_s.len(),
        1e3 * stats::percentile(&node_s, 50.0),
        1e3 * stats::percentile(&node_s, 99.0)
    ));
    let (prepare, engine) = probes(&spec)?;
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
