//! Prepared shared inputs of a fleet run.
//!
//! Building a fleet's shared inputs — the seeded population, one base
//! day trace per placement, the warmed PV surface pool, the cold-start
//! supervisor constants — costs tens of milliseconds (hundreds when the
//! process has not built the pool's surface tables yet), which used to
//! be paid on every [`crate::FleetRunner::run`] call. A [`FleetContext`]
//! hoists that setup so repeated runs (tracker comparisons, benchmarks,
//! campaign epochs) pay it once.

use eh_converter::{ColdStart, InputRegulatedConverter};
use eh_env::week::{self, DayKind};
use eh_env::TimeSeries;
use eh_node::{NodeSimulation, SimConfig};
use eh_pv::PvCell;
use eh_sim::{Mergeable as _, SweepRunner};
use eh_units::{Error, Lux, Volts};

use crate::compare::TrackerKind;
use crate::pool::SurfacePool;
use crate::population::NodeSpec;
use crate::report::{FleetReport, NodeOutcome};
use crate::run::Engine;
use crate::spec::{FleetSpec, Placement};

/// The shared, immutable inputs of a fleet run, prepared once: the
/// validated spec, its seeded population, one base day trace per
/// placement in use, the warmed [`SurfacePool`], and the paper's §III
/// cold-start supervisor constants.
#[derive(Debug)]
pub struct FleetContext {
    spec: FleetSpec,
    population: Vec<NodeSpec>,
    traces: [Option<TimeSeries>; 3],
    pool: SurfacePool,
    cold: ColdStart,
    knee: Volts,
}

impl FleetContext {
    /// Prepares the shared inputs for `spec`: validates it, stamps the
    /// population, synthesizes and decimates one base trace per day
    /// kind in use (the kinds side by side on a [`SweepRunner`] sized
    /// to the host), and warms one PV surface per placement
    /// temperature.
    ///
    /// # Errors
    ///
    /// Propagates spec validation, trace construction, and surface
    /// warming failures; when several days fail, the error of the
    /// first placement in [`Placement::ALL`] order wins.
    pub fn prepare(spec: &FleetSpec) -> Result<Self, Error> {
        let population = spec.population()?;

        // Shared inputs, built once: one base trace per day kind (the
        // two office placements share the office day) and one warmed
        // PV surface per placement temperature in use.
        let in_use: Vec<Placement> = Placement::ALL
            .into_iter()
            .filter(|p| population.iter().any(|n| n.placement == *p))
            .collect();
        let mut days = synthesize_days(spec, &in_use).into_iter();
        let mut traces: [Option<TimeSeries>; 3] = [None, None, None];
        for &p in &in_use {
            let existing = in_use
                .iter()
                .take_while(|q| **q != p)
                .find(|q| q.day_kind() == p.day_kind())
                .map(|q| traces[q.index()].clone().expect("earlier placement traced"));
            traces[p.index()] = Some(match existing {
                Some(t) => t,
                None => days.next().expect("one day per kind in use")?,
            });
        }
        let pool = SurfacePool::warm(&spec.cell, in_use.iter().copied(), spec.pv_cache)?;
        let cold = ColdStart::paper_prototype()?;
        let knee = cold.enable_threshold() + cold.diode_drop();

        Ok(Self {
            spec: spec.clone(),
            population,
            traces,
            pool,
            cold,
            knee,
        })
    }

    /// Prepares a context against **caller-supplied** environment traces
    /// and a pre-warmed surface pool, instead of the spec's built-in
    /// week profiles. This is the campaign layer's entry point: it
    /// synthesizes one multi-day seasonal/weather trace per placement
    /// (indexed by [`Placement::index`]) per epoch and reuses one warmed
    /// pool across every epoch, so only the cheap spec/population work
    /// is repeated.
    ///
    /// Every placement the population uses must have a trace and a
    /// warmed cell; the population itself is still drawn from the spec's
    /// seed with the standard nine-draw contract.
    ///
    /// # Errors
    ///
    /// Propagates spec validation; returns
    /// [`Error::InvalidParameter`] if a used placement has no trace or
    /// no warmed cell.
    pub fn prepare_with_environment(
        spec: &FleetSpec,
        traces: [Option<TimeSeries>; 3],
        pool: SurfacePool,
    ) -> Result<Self, Error> {
        let population = spec.population()?;
        for p in Placement::ALL {
            if population.iter().any(|n| n.placement == p) {
                if traces[p.index()].is_none() {
                    return Err(Error::InvalidParameter {
                        name: "environment_trace",
                        value: p.index() as f64,
                    });
                }
                if pool.cell(p).is_none() {
                    return Err(Error::InvalidParameter {
                        name: "environment_surface",
                        value: p.index() as f64,
                    });
                }
            }
        }
        let cold = ColdStart::paper_prototype()?;
        let knee = cold.enable_threshold() + cold.diode_drop();
        Ok(Self {
            spec: spec.clone(),
            population,
            traces,
            pool,
            cold,
            knee,
        })
    }

    /// The spec this context was prepared from.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// The seeded population, in fleet order.
    pub fn population(&self) -> &[NodeSpec] {
        &self.population
    }

    /// Simulates one shard of nodes and folds their reports in fleet
    /// order — the public per-shard entry point long-running callers
    /// (the serving layer's streaming and checkpoint/resume paths, the
    /// campaign's epochs) drive directly. Each node runs on its own
    /// [`eh_sim::drive`] loop; the first error in fleet order wins.
    ///
    /// The [`Engine`] argument selects nothing: both labels run the one
    /// node stepper. It stays so existing callers compile.
    ///
    /// Folding the returned shard reports in shard index order
    /// reproduces [`crate::FleetRunner`]'s output **bit for bit** at
    /// equal shard grouping: `run_engine_prepared` performs exactly this
    /// per-shard call followed by an in-order reduce.
    ///
    /// # Errors
    ///
    /// As [`crate::FleetRunner::run`]; an empty shard is
    /// [`Error::EmptyFleet`].
    pub fn simulate_shard(
        &self,
        kind: TrackerKind,
        _engine: Engine,
        nodes: Vec<NodeSpec>,
    ) -> Result<FleetReport, Error> {
        let mut merged: Option<Result<FleetReport, Error>> = None;
        for node in nodes {
            let single = self.simulate_node(kind, node);
            match merged.as_mut() {
                None => merged = Some(single),
                Some(m) => m.merge(single),
            }
        }
        crate::run::merged_or_empty(merged)
    }

    /// The shared base trace of a placement in use.
    pub(crate) fn base_trace(&self, p: Placement) -> &TimeSeries {
        self.traces[p.index()]
            .as_ref()
            .expect("every placement in use has a base trace")
    }

    /// The warmed cell of a placement in use.
    pub(crate) fn cell(&self, p: Placement) -> &PvCell {
        self.pool
            .cell(p)
            .expect("every placement in use has a warmed cell")
    }

    /// Analytic cold-start feasibility of a node whose light peaks at
    /// `peak`: the module must push the supervisor's C1 past the enable
    /// threshold through the steering diode (Voc above the knee) while
    /// out-supplying the supervisor's quiescent draw (current at the
    /// knee).
    pub(crate) fn cold_start_ok(&self, placement: Placement, peak: Lux) -> Result<bool, Error> {
        let cell = self.cell(placement);
        Ok(cell.open_circuit_voltage(peak)? > self.knee
            && cell.current_at(self.knee, peak)? > self.cold.supervisor_current())
    }

    /// Simulates one node: cold-start screening, then the node
    /// simulation under its tracker.
    pub(crate) fn simulate_node(
        &self,
        kind: TrackerKind,
        node: NodeSpec,
    ) -> Result<FleetReport, Error> {
        let spec = &self.spec;
        let trace = node.perturbation.apply(self.base_trace(node.placement));
        let cold_start_ok = self.cold_start_ok(node.placement, Lux::new(trace.max()))?;
        let cell = self.cell(node.placement).clone();
        let mut tracker = kind.build(&node, &cell)?;
        let config = SimConfig {
            cell,
            converter: InputRegulatedConverter::paper_prototype()?,
            measurement_dwell: node.pulse_width,
            load: spec.load.clone(),
            store: node.store.unwrap_or(spec.store).build()?,
            obs: spec.obs,
        };
        let report = NodeSimulation::new(config)?.run(tracker.as_mut(), &trace, spec.dt)?;
        Ok(FleetReport::single(
            &spec.name,
            NodeOutcome {
                id: node.id,
                placement: node.placement,
                cold_start_ok,
                report,
            },
        ))
    }
}

/// One decimated base day per distinct day kind of `in_use`, in order of
/// first use, built side by side by [`SweepRunner::auto`] (the calling
/// thread builds one of them; a 1-core host builds them all in turn).
/// Each day is a pure function of its kind, the seed and the
/// decimation, so the traces are the same bits on any host; a panicking
/// day resumes its panic here.
fn synthesize_days(spec: &FleetSpec, in_use: &[Placement]) -> Vec<Result<TimeSeries, Error>> {
    let mut kinds: Vec<DayKind> = Vec::new();
    for p in in_use {
        if !kinds.contains(&p.day_kind()) {
            kinds.push(p.day_kind());
        }
    }
    let (seed, decimate) = (spec.seed, spec.trace_decimate);
    SweepRunner::auto().run(kinds, |_, kind| week::day(kind, seed).decimate(decimate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PlacementMix;
    use eh_units::Seconds;

    /// A trace's start, step and every sample, as bits.
    fn trace_bits(t: &TimeSeries) -> Vec<u64> {
        [t.start_time().value(), t.dt().value()]
            .into_iter()
            .chain(t.values().iter().copied())
            .map(f64::to_bits)
            .collect()
    }

    /// Every placement in use gets exactly the day a sequential build
    /// gives it, and the two desks share the office day, whether the
    /// fleet uses one day kind or both (on a multi-core host the second
    /// kind is synthesized on its own thread).
    #[test]
    fn prepared_traces_are_the_days_bit_for_bit() {
        use Placement::{InteriorDesk, Outdoor, WindowDesk};
        let fleets = [
            (
                PlacementMix::new(0.25, 0.60, 0.0).unwrap(),
                vec![WindowDesk, InteriorDesk],
            ),
            (PlacementMix::new(0.0, 0.0, 1.0).unwrap(), vec![Outdoor]),
            (
                PlacementMix::mixed_indoor_outdoor(),
                vec![WindowDesk, InteriorDesk, Outdoor],
            ),
        ];
        for (mix, expected) in fleets {
            let mut spec = FleetSpec::mixed_indoor_outdoor(40, 7).unwrap();
            spec.placements = mix;
            spec.trace_decimate = 120;
            spec.pv_cache = false;
            let ctx = FleetContext::prepare(&spec).unwrap();
            let in_use: Vec<Placement> = Placement::ALL
                .into_iter()
                .filter(|p| ctx.population().iter().any(|n| n.placement == *p))
                .collect();
            assert_eq!(in_use, expected);
            for p in in_use {
                let day = week::day(p.day_kind(), spec.seed).decimate(120).unwrap();
                assert!(
                    trace_bits(ctx.base_trace(p)) == trace_bits(&day),
                    "{} trace differs from its day",
                    p.label()
                );
            }
            if expected.contains(&WindowDesk) {
                assert!(
                    trace_bits(ctx.base_trace(WindowDesk))
                        == trace_bits(ctx.base_trace(InteriorDesk)),
                    "the desks do not share the office day"
                );
            }
        }
    }

    #[test]
    fn prepare_hoists_population_and_traces() {
        let mut spec = FleetSpec::mixed_indoor_outdoor(12, 2011).unwrap();
        spec.trace_decimate = 600;
        spec.dt = Seconds::new(600.0);
        let ctx = FleetContext::prepare(&spec).unwrap();
        assert_eq!(ctx.population().len(), 12);
        assert_eq!(ctx.population(), spec.population().unwrap());
        for node in ctx.population() {
            // Every placement the population uses is traced and warmed.
            assert!(ctx.base_trace(node.placement).len() > 1);
            let _ = ctx.cell(node.placement);
        }
        assert!(ctx.knee.value() > 0.0);
    }

    #[test]
    fn prepare_rejects_invalid_specs() {
        let mut spec = FleetSpec::mixed_indoor_outdoor(12, 2011).unwrap();
        spec.nodes = 0;
        assert!(FleetContext::prepare(&spec).is_err());

        // Caller-supplied environments must cover every placement the
        // population uses, with a trace and with a warmed cell.
        let spec = FleetSpec::mixed_indoor_outdoor(12, 2011).unwrap();
        let used: Vec<Placement> = Placement::ALL
            .into_iter()
            .filter(|p| spec.population().unwrap().iter().any(|n| n.placement == *p))
            .collect();
        let missing = *used.last().expect("a populated fleet");
        let day = TimeSeries::new(Seconds::ZERO, Seconds::new(3600.0), vec![300.0; 25]).unwrap();
        let traces = || Placement::ALL.map(|_| Some(day.clone()));
        let pool = |placements: Vec<Placement>| SurfacePool::warm(&spec.cell, placements, false);
        let rejected =
            |traces, pool| match FleetContext::prepare_with_environment(&spec, traces, pool) {
                Err(Error::InvalidParameter { name, value }) => (name, value),
                other => panic!("expected InvalidParameter, got {other:?}"),
            };
        assert!(FleetContext::prepare_with_environment(
            &spec,
            traces(),
            pool(used.clone()).unwrap()
        )
        .is_ok());

        let mut untraced = traces();
        untraced[missing.index()] = None;
        assert_eq!(
            rejected(untraced, pool(used.clone()).unwrap()),
            ("environment_trace", missing.index() as f64)
        );

        let unwarmed: Vec<Placement> = used.iter().copied().filter(|p| *p != missing).collect();
        assert_eq!(
            rejected(traces(), pool(unwarmed).unwrap()),
            ("environment_surface", missing.index() as f64)
        );
    }
}
