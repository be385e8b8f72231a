//! Per-layer probes a traced run takes after its operations: the
//! set-up decomposition and the deterministic engine counts.

use eh_env::week;
use eh_fleet::{FleetContext, FleetReport, FleetSpec, Placement, SurfacePool, TrackerKind};

use crate::harness::timed;
use crate::stats::median;

/// Repetitions behind each set-up probe median.
pub const REPEATS: usize = 3;

/// Medians of a set-up and of its parts, seconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PrepareProbe {
    /// The whole context prepare.
    pub prepare_s: f64,
    /// Drawing the seeded population.
    pub population_s: f64,
    /// Building the light traces.
    pub env_s: f64,
    /// Warming the PV surfaces.
    pub pv_s: f64,
}

impl PrepareProbe {
    /// Medians over `REPEATS` calls of `sample`, which times one prepare
    /// and its parts.
    pub fn median_of(
        mut sample: impl FnMut() -> Result<PrepareProbe, String>,
    ) -> Result<Self, String> {
        let runs = (0..REPEATS)
            .map(|_| sample())
            .collect::<Result<Vec<_>, _>>()?;
        let med = |f: fn(&PrepareProbe) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        Ok(Self {
            prepare_s: med(|p| p.prepare_s),
            population_s: med(|p| p.population_s),
            env_s: med(|p| p.env_s),
            pv_s: med(|p| p.pv_s),
        })
    }
}

/// The placements a population uses, in [`Placement::ALL`] order.
pub fn placements_in_use(population: &[eh_fleet::NodeSpec]) -> Vec<Placement> {
    Placement::ALL
        .into_iter()
        .filter(|p| population.iter().any(|n| n.placement == *p))
        .collect()
}

/// Times `FleetContext::prepare(spec)` and, separately, the population
/// draw, the day traces and the surface warm it consists of.
pub fn fleet_prepare(spec: &FleetSpec) -> Result<PrepareProbe, String> {
    PrepareProbe::median_of(|| {
        let (prepare_s, ctx) = timed(|| FleetContext::prepare(spec));
        ctx.map_err(|e| e.to_string())?;
        let (population_s, population) = timed(|| spec.population());
        let in_use = placements_in_use(&population.map_err(|e| e.to_string())?);
        let mut kinds: Vec<week::DayKind> = in_use.iter().map(|p| p.day_kind()).collect();
        kinds.dedup();
        let (env_s, traces) = timed(|| {
            kinds
                .iter()
                .map(|&k| week::day(k, spec.seed).decimate(spec.trace_decimate))
                .collect::<Result<Vec<_>, _>>()
        });
        traces.map_err(|e| e.to_string())?;
        let (pv_s, pool) =
            timed(|| SurfacePool::warm(&spec.cell, in_use.iter().copied(), spec.pv_cache));
        pool.map_err(|e| e.to_string())?;
        Ok(PrepareProbe {
            prepare_s,
            population_s,
            env_s,
            pv_s,
        })
    })
}

/// Deterministic engine work of one tracker over a replica fleet, with
/// the single-worker wall time of the same run without counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineProbe {
    /// The tracker.
    pub kind: TrackerKind,
    /// `engine.steps` of the counted run.
    pub steps: u64,
    /// `node.measurements` of the counted run.
    pub measurements: u64,
    /// Simulated node-days of the run.
    pub node_days: f64,
    /// Wall time of the uncounted run, seconds.
    pub seconds: f64,
}

/// Runs `replica(false)` timed and `replica(true)` (metric collection
/// on) for its counters.
pub fn engine(
    kind: TrackerKind,
    replica: impl Fn(bool) -> Result<FleetReport, String>,
) -> Result<EngineProbe, String> {
    let (seconds, plain) = timed(|| replica(false));
    plain?;
    let counted = replica(true)?;
    let m = counted
        .metrics
        .as_ref()
        .ok_or("the counted replica carries no metric store")?;
    let node_days = counted
        .outcomes
        .iter()
        .map(|o| o.report.duration.value())
        .sum::<f64>()
        / 86_400.0;
    Ok(EngineProbe {
        kind,
        steps: m.counter("engine.steps"),
        measurements: m.counter("node.measurements"),
        node_days,
        seconds,
    })
}
