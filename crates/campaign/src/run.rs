//! The campaign runner: epoch-chained fleet simulation with store
//! carry, drift and faults.
//!
//! # Execution model
//!
//! A campaign is **node-major**: the fleet is sharded across workers,
//! and each node runs *all* epochs sequentially — epoch `e+1` starts
//! from the store energy the node held at the end of epoch `e`. Drift
//! and fault state are piecewise constant within an epoch, re-derived
//! at each boundary from the node's [`NodeSchedule`] and the epoch's
//! start age, so a node's whole trajectory is a pure function of
//! `(spec, node id)` — independent of sharding, worker count and fleet
//! size. Per-node reports merge in fleet order exactly like
//! [`eh_fleet::FleetRunner`], which is what makes the
//! [`CampaignReport`] bit-identical at any worker count.
//!
//! # Seed streams
//!
//! One campaign seed feeds three order-pinned generators that never
//! share state:
//!
//! * **population** — `StdRng::seed_from_u64(seed)`, nine draws per
//!   node ([`eh_fleet::FleetSpec::population`]);
//! * **schedules** — `seed ^ SCHEDULE_SALT`, six draws per node
//!   ([`crate::schedule`]);
//! * **weather** — `seed ^ WEATHER_SALT`, one draw per simulated day
//!   ([`eh_env::weather::WeatherModel`]).

use eh_env::TracePerturbation;
use eh_fleet::{FleetContext, FleetRunner, FleetSpec, NodeSpec, Placement, SurfacePool};
use eh_node::StoreSpec;
use eh_sim::SweepRunner;
use eh_units::{Error, Farads, Joules, Volts};

use crate::environment::epoch_traces;
use crate::report::{CampaignNodeOutcome, CampaignReport};
use crate::schedule::{node_schedules, FaultKind, NodeSchedule};
use crate::spec::CampaignSpec;

/// Salt XORed into the campaign seed for the weather stream (distinct
/// from the population stream and [`crate::schedule::SCHEDULE_SALT`]).
pub const WEATHER_SALT: u64 = 0x517C_C1B7_2722_0A95;

/// The prepared, immutable inputs of a campaign: the base fleet spec,
/// the drawn population and schedules, and one environment-injected
/// [`FleetContext`] per epoch (all sharing one warmed surface pool).
#[derive(Debug)]
pub struct CampaignContext {
    spec: CampaignSpec,
    epochs: Vec<(u32, u32)>,
    contexts: Vec<FleetContext>,
    population: Vec<NodeSpec>,
    schedules: Vec<NodeSchedule>,
}

impl CampaignContext {
    /// Prepares a campaign: validates the spec, draws the population
    /// and schedules, steps the weather chain once per day, synthesises
    /// each epoch's placement traces and warms one surface pool shared
    /// by every epoch context.
    ///
    /// # Errors
    ///
    /// Propagates spec validation, environment synthesis and fleet
    /// preparation failures.
    pub fn prepare(spec: &CampaignSpec) -> Result<Self, Error> {
        spec.validate()?;

        // The base fleet: the reference deployment reshaped to the
        // campaign's load, step and name. `trace_decimate` is unused on
        // the environment-injected path (traces are synthesised on the
        // dt grid directly) but must stay valid.
        let mut fleet_spec = FleetSpec::mixed_indoor_outdoor(spec.nodes, spec.seed)?;
        fleet_spec.name = spec.name.clone();
        fleet_spec.load = Some(spec.load.build()?);
        fleet_spec.dt = spec.dt;

        let population = fleet_spec.population()?;
        let schedules = node_schedules(spec);

        let mut in_use = [false; 3];
        for node in &population {
            in_use[node.placement.index()] = true;
        }
        let placements = Placement::ALL.into_iter().filter(|p| in_use[p.index()]);
        let pool = SurfacePool::warm(&fleet_spec.cell, placements, fleet_spec.pv_cache)?;

        let season = spec.climate.season(spec.latitude_deg)?;
        let mut weather = spec.climate.weather(spec.seed ^ WEATHER_SALT)?;
        let attenuations = weather.attenuations(spec.days as usize);
        debug_assert_eq!(weather.draws(), u64::from(spec.days));

        let epochs = spec.epochs();
        let mut contexts = Vec::with_capacity(epochs.len());
        for &(start, len) in &epochs {
            let traces = epoch_traces(&season, &attenuations, start, len, spec.dt, in_use)?;
            contexts.push(FleetContext::prepare_with_environment(
                &fleet_spec,
                traces,
                pool.clone(),
            )?);
        }

        Ok(Self {
            spec: spec.clone(),
            epochs,
            contexts,
            population,
            schedules,
        })
    }

    /// The spec this context was prepared from.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The epoch schedule (`(start_day, length_days)` pairs).
    pub fn epochs(&self) -> &[(u32, u32)] {
        &self.epochs
    }

    /// The drawn population, in fleet order.
    pub fn population(&self) -> &[NodeSpec] {
        &self.population
    }

    /// The drawn per-node schedules, in fleet order.
    pub fn schedules(&self) -> &[NodeSchedule] {
        &self.schedules
    }

    /// Runs one node through every epoch, carrying its store energy
    /// across boundaries, and returns its single-node report.
    ///
    /// # Errors
    ///
    /// Propagates fleet simulation failures.
    pub fn simulate_node(
        &self,
        node: &NodeSpec,
        sched: &NodeSchedule,
    ) -> Result<CampaignReport, Error> {
        let spec = &self.spec;
        let base_store = self.contexts[0].spec().store;
        let mut carry: Option<Joules> = None;
        let mut first_brownout: Option<u32> = None;
        let mut brownout_epochs = 0u32;
        let mut net = 0.0;
        let mut final_store = Joules::ZERO;

        for (ctx, &(start, len)) in self.contexts.iter().zip(&self.epochs) {
            let mut unit = node.clone();

            // Drift at the epoch's start age: dust and cell aging both
            // land multiplicatively on the node's illuminance gain.
            let optics = NodeSchedule::remaining(sched.dust_per_year, start)
                * NodeSchedule::remaining(sched.aging_per_year, start);
            let mut gain = node.perturbation.gain() * optics;
            let mut offset = node.perturbation.offset_lux();

            if let Some((kind, onset)) = sched.fault {
                // Permanent faults apply from the epoch containing the
                // onset; the dropout storm only blacks out that epoch.
                let from_here = onset < start + len;
                let in_this_epoch = (start..start + len).contains(&onset);
                match kind {
                    FaultKind::StuckHoldCap if from_here => {
                        unit.sample_period = node.sample_period * 1000.0;
                    }
                    FaultKind::DividerDrift if from_here => {
                        unit.k = node.k * 1.25;
                    }
                    FaultKind::DropoutStorm if in_this_epoch => {
                        gain = 0.0;
                        offset = 0.0;
                    }
                    _ => {}
                }
            }
            unit.perturbation = TracePerturbation::new(gain, offset)?;
            unit.store = Some(worn_store(base_store, sched.wear_per_year, start, carry));

            let report = ctx.simulate_shard(spec.tracker, spec.engine, vec![unit])?;
            let outcome = &report.outcomes[0];
            net += outcome.net_energy().value();
            final_store = outcome.report.final_store_energy;
            carry = Some(final_store);

            if outcome.browned_out() {
                brownout_epochs += 1;
                if first_brownout.is_none() {
                    // Estimate the failure day from the served fraction:
                    // exact to the epoch, approximate within it.
                    let served = outcome.report.load_served.value();
                    let demand = outcome.report.load_demand.value();
                    let frac = (served / demand).clamp(0.0, 1.0);
                    let est = (frac * f64::from(len)) as u32;
                    first_brownout = Some(start + est.min(len - 1));
                }
            }
        }

        Ok(CampaignReport::single(
            &spec.name,
            spec.days,
            CampaignNodeOutcome {
                id: node.id,
                placement: node.placement,
                first_brownout_day: first_brownout,
                brownout_epochs,
                fault: sched.fault,
                net_energy: Joules::new(net),
                final_store_energy: final_store,
            },
        ))
    }
}

/// The base store aged to `age_days` of wear, optionally carrying the
/// usable energy the node held at the previous epoch's end.
///
/// Supercapacitors lose capacitance (the carried energy re-derives the
/// terminal voltage against the *worn* capacitance, clamped into the
/// usable window by the store constructor); batteries lose capacity
/// (the carry re-derives state of charge). The ideal store has no wear
/// and no carry — it exists for tracker isolation studies, not
/// endurance.
fn worn_store(
    base: StoreSpec,
    wear_per_year: f64,
    age_days: u32,
    carry: Option<Joules>,
) -> StoreSpec {
    let frac = NodeSchedule::remaining(wear_per_year, age_days);
    match base {
        StoreSpec::Supercapacitor {
            capacitance,
            v_max,
            v_min,
            initial_voltage,
        } => {
            let worn = Farads::new(capacitance.value() * frac);
            let v0 = match carry {
                None => initial_voltage,
                Some(e) => {
                    Volts::new((v_min.value().powi(2) + 2.0 * e.value() / worn.value()).sqrt())
                }
            };
            StoreSpec::Supercapacitor {
                capacitance: worn,
                v_max,
                v_min,
                initial_voltage: v0,
            }
        }
        StoreSpec::Battery {
            capacity,
            charge_efficiency,
            self_discharge_per_month,
            initial_soc,
        } => {
            let worn = Joules::new(capacity.value() * frac);
            let soc = match carry {
                None => initial_soc,
                Some(e) => (e.value() / worn.value()).clamp(0.0, 1.0),
            };
            StoreSpec::Battery {
                capacity: worn,
                charge_efficiency,
                self_discharge_per_month,
                initial_soc: soc,
            }
        }
        other => other,
    }
}

/// Shards a campaign across workers with bit-identical aggregation at
/// any worker count and shard size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignRunner {
    runner: SweepRunner,
    shard_size: usize,
}

impl CampaignRunner {
    /// A runner with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            runner: SweepRunner::new(workers),
            shard_size: FleetRunner::DEFAULT_SHARD_SIZE,
        }
    }

    /// Overrides the nodes-per-shard grouping. A zero size is kept as
    /// given, so a run rejects it with
    /// [`eh_sim::SweepRunner::run_merged`]'s `shard_size` error.
    #[must_use]
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size;
        self
    }

    /// Prepares and runs a campaign.
    ///
    /// # Errors
    ///
    /// Propagates preparation and simulation failures.
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignReport, Error> {
        self.run_prepared(&CampaignContext::prepare(spec)?)
    }

    /// Runs a prepared campaign: nodes are sharded across workers, each
    /// node chained through every epoch, and the per-node reports folded
    /// in fleet order.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run_prepared(&self, ctx: &CampaignContext) -> Result<CampaignReport, Error> {
        let items: Vec<(NodeSpec, NodeSchedule)> = ctx
            .population
            .iter()
            .cloned()
            .zip(ctx.schedules.iter().copied())
            .collect();
        let merged = self
            .runner
            .run_merged(items, self.shard_size, |_idx, (node, sched)| {
                ctx.simulate_node(&node, &sched)
            })?;
        match merged {
            Some(report) => report,
            // Unreachable: validate() rejects zero-node campaigns.
            None => Err(Error::InvalidParameter {
                name: "nodes",
                value: 0.0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_units::Seconds;

    fn tiny_spec(nodes: u32, days: u32, epoch_days: u32, seed: u64) -> CampaignSpec {
        let mut s = CampaignSpec::smoke(seed);
        s.nodes = nodes;
        s.days = days;
        s.epoch_days = epoch_days;
        s.dt = Seconds::new(1800.0);
        s
    }

    #[test]
    fn prepare_builds_one_context_per_epoch() {
        let ctx = CampaignContext::prepare(&tiny_spec(6, 10, 4, 2011)).unwrap();
        assert_eq!(ctx.epochs(), &[(0, 4), (4, 4), (8, 2)]);
        assert_eq!(ctx.population().len(), 6);
        assert_eq!(ctx.schedules().len(), 6);
    }

    #[test]
    fn runner_produces_one_outcome_per_node_in_fleet_order() {
        let report = CampaignRunner::new(2)
            .run(&tiny_spec(6, 6, 3, 2011))
            .unwrap();
        assert_eq!(report.nodes(), 6);
        let ids: Vec<u32> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(report.days, 6);
    }

    #[test]
    fn zero_shard_size_is_an_error_naming_it() {
        let err = CampaignRunner::new(1)
            .with_shard_size(0)
            .run(&tiny_spec(2, 2, 2, 2011))
            .unwrap_err();
        assert!(err.to_string().contains("shard_size"), "{err}");
    }

    #[test]
    fn worn_store_carries_energy_into_the_shrunken_window() {
        let base = StoreSpec::supercapacitor_022f_at(4.0);
        // No carry: deployment voltage, worn capacitance.
        let frac = NodeSchedule::remaining(0.1, 365);
        let fresh = worn_store(base, 0.1, 365, None);
        let StoreSpec::Supercapacitor {
            capacitance,
            initial_voltage,
            ..
        } = fresh
        else {
            panic!("kind changed")
        };
        assert!((capacitance.value() - 0.22 * frac).abs() < 1e-12);
        assert_eq!(initial_voltage.value(), 4.0);
        // Carry: the same usable energy on a smaller capacitance sits at
        // a higher terminal voltage.
        let carried = worn_store(base, 0.1, 365, Some(Joules::new(1.0)));
        let StoreSpec::Supercapacitor {
            initial_voltage: v, ..
        } = carried
        else {
            panic!("kind changed")
        };
        let expect = (1.8f64.powi(2) + 2.0 / (0.22 * frac)).sqrt();
        assert!((v.value() - expect).abs() < 1e-9);
    }

    #[test]
    fn worn_store_battery_carry_rederives_soc() {
        let base = StoreSpec::Battery {
            capacity: Joules::new(100.0),
            charge_efficiency: 0.9,
            self_discharge_per_month: 0.02,
            initial_soc: 0.5,
        };
        let carried = worn_store(base, 0.0, 0, Some(Joules::new(30.0)));
        let StoreSpec::Battery { initial_soc, .. } = carried else {
            panic!("kind changed")
        };
        assert!((initial_soc - 0.3).abs() < 1e-12);
    }

    #[test]
    fn dropout_storm_blacks_out_exactly_one_epoch() {
        let mut spec = tiny_spec(1, 9, 3, 42);
        spec.faults.probability = 1.0;
        let ctx = CampaignContext::prepare(&spec).unwrap();
        let sched = ctx.schedules()[0];
        let (kind, onset) = sched.fault.unwrap();
        // Re-run the node with the drawn fault forced to a dropout storm
        // at the drawn onset and check net energy collapses only in the
        // containing epoch relative to a fault-free run.
        let node = ctx.population()[0].clone();
        let healthy = NodeSchedule {
            fault: None,
            ..sched
        };
        let stormy = NodeSchedule {
            fault: Some((FaultKind::DropoutStorm, onset)),
            ..sched
        };
        let a = ctx.simulate_node(&node, &healthy).unwrap();
        let b = ctx.simulate_node(&node, &stormy).unwrap();
        assert!(
            b.outcomes[0].net_energy.value() < a.outcomes[0].net_energy.value(),
            "storm must cost energy (kind drawn: {})",
            kind.label()
        );
    }
}
