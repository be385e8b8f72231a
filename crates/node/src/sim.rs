//! The closed-loop node simulation engine.

use eh_converter::InputRegulatedConverter;
use eh_core::{CoreError, MpptController, Observation, TrackerCommand};
use eh_env::TimeSeries;
use eh_obs::{EnergyBucket, Metrics};
use eh_pv::{CachedPvSurface, ConnectPoint, LuxCursor, PvCell, PvError};
use eh_sim::{drive, Light, StepInput, Stepper};
use eh_units::{Amps, Joules, Lux, Seconds, Volts, Watts};

use crate::accumulator::Accumulator;
use crate::error::NodeError;
use crate::load::DutyCycledLoad;
use crate::report::NodeReport;
use crate::storage::{ConcreteStore, EnergyStore, IdealStore};

/// Configuration of a closed-loop run.
pub struct SimConfig {
    /// The PV module.
    pub cell: PvCell,
    /// The power stage.
    pub converter: InputRegulatedConverter,
    /// How long an open-circuit measurement interrupts harvesting (the
    /// paper's PULSE width, 39 ms).
    pub measurement_dwell: Seconds,
    /// Optional node load drawing from the store.
    pub load: Option<DutyCycledLoad>,
    /// The energy store.
    pub store: ConcreteStore,
    /// Whether to collect deterministic metrics (counters, spans, the
    /// per-bucket energy ledger) into the report's
    /// [`eh_obs::Metrics`]. Off by default: uninstrumented runs pay
    /// only a branch per step.
    pub obs: bool,
}

impl SimConfig {
    /// A default configuration for a cell: paper-prototype converter,
    /// 39 ms dwell, ideal store, no load.
    ///
    /// # Errors
    ///
    /// Propagates converter construction failures instead of panicking,
    /// so library callers can handle them.
    pub fn default_for(cell: PvCell) -> Result<Self, NodeError> {
        Ok(Self {
            cell,
            converter: InputRegulatedConverter::paper_prototype().map_err(CoreError::from)?,
            measurement_dwell: Seconds::from_milli(39.0),
            load: None,
            store: ConcreteStore::Ideal(IdealStore::new()),
            obs: false,
        })
    }

    /// Replaces the store (builder style).
    #[must_use]
    pub fn with_store(mut self, store: ConcreteStore) -> Self {
        self.store = store;
        self
    }

    /// Adds a node load (builder style).
    #[must_use]
    pub fn with_load(mut self, load: DutyCycledLoad) -> Self {
        self.load = Some(load);
        self
    }

    /// Enables or disables metric collection (builder style).
    #[must_use]
    pub fn with_obs(mut self, enabled: bool) -> Self {
        self.obs = enabled;
        self
    }
}

impl std::fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("cell", &self.cell.name())
            .field("measurement_dwell", &self.measurement_dwell)
            .field("has_load", &self.load.is_some())
            .field("store", &self.store.stored_energy())
            .field("obs", &self.obs)
            .finish()
    }
}

/// Per-step observability accumulated in plain locals and flushed once
/// per run into the node's [`Metrics`].
///
/// The per-step recording path costs a `BTreeMap` probe per counter and
/// span on every simulated step; batching into locals cuts that to one
/// flush per node. The flush is **value-identical** to per-step
/// recording: every float add mirrors the sink's own guard (the ledger
/// and spans ignore non-finite contributions per add), per-bucket sums
/// accumulate in the same step order the per-step path would have used,
/// counters are exact integers, and zero-count spans / zero counters are
/// skipped so no map entry appears that per-step recording would not
/// have created.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ObsLocals {
    transfer_steps: u64,
    switching_j: f64,
    astable_j: f64,
    sample_hold_j: f64,
    compute_j: f64,
    load_j: f64,
    harvest_count: u64,
    harvest_time: f64,
    measure_count: u64,
    measure_time: f64,
}

impl ObsLocals {
    /// Mirrors the sinks' per-add guard: non-finite contributions are
    /// dropped without poisoning the running sum.
    #[inline]
    fn add(dst: &mut f64, x: f64) {
        if x.is_finite() {
            *dst += x;
        }
    }

    /// Counts the step when the converter actually transferred power
    /// and accrues `losses · dt` toward the converter-switching bucket.
    #[inline]
    pub fn observe_harvest(&mut self, harvest: &eh_converter::HarvestResult, dt: Seconds) {
        if harvest.output_power.value() > 0.0 {
            self.transfer_steps += 1;
        }
        Self::add(&mut self.switching_j, (harvest.losses * dt).value());
    }

    /// Accrues a slice's measurements: `pulses` PULSEs lasting
    /// `measured` in all, during which the sample-and-hold chain burns
    /// the tracker overhead `sample_hold`.
    #[inline]
    pub fn observe_measuring(&mut self, pulses: u64, measured: Seconds, sample_hold: Joules) {
        Self::add(&mut self.sample_hold_j, sample_hold.value());
        self.measure_count += pulses;
        Self::add(&mut self.measure_time, measured.value());
    }

    /// Accrues a slice's connected rest, lasting `connected`, during
    /// which the astable timer burns the tracker overhead `astable`.
    #[inline]
    pub fn observe_harvesting(&mut self, connected: Seconds, astable: Joules) {
        Self::add(&mut self.astable_j, astable.value());
        self.harvest_count += 1;
        Self::add(&mut self.harvest_time, connected.value());
    }

    /// Accrues a slice's compute and served-load energy.
    #[inline]
    pub fn observe_draws(&mut self, compute: Joules, served: Joules) {
        Self::add(&mut self.compute_j, compute.value());
        Self::add(&mut self.load_j, served.value());
    }

    /// Flushes the accumulated step observations into `metrics`. Call
    /// exactly once per node, after the drive loop and before any
    /// conservation check against the ledger.
    pub fn flush(&self, metrics: &mut Metrics) {
        if self.transfer_steps > 0 {
            metrics.add_counter("converter.transfer_steps", self.transfer_steps);
        }
        metrics.charge(
            EnergyBucket::ConverterSwitching,
            Joules::new(self.switching_j),
        );
        metrics.charge(EnergyBucket::Astable, Joules::new(self.astable_j));
        metrics.charge(EnergyBucket::SampleHold, Joules::new(self.sample_hold_j));
        metrics.charge(EnergyBucket::Compute, Joules::new(self.compute_j));
        metrics.charge(EnergyBucket::Load, Joules::new(self.load_j));
        metrics.record_span_stats(
            "node.harvesting",
            self.harvest_count,
            self.harvest_time,
            0.0,
        );
        metrics.record_span_stats("node.measuring", self.measure_count, self.measure_time, 0.0);
    }
}

/// The closed-loop engine: cell + tracker + converter + store + load
/// against a light trace.
#[derive(Debug)]
pub struct NodeSimulation {
    config: SimConfig,
}

impl NodeSimulation {
    /// Creates the engine.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive measurement dwell.
    pub fn new(config: SimConfig) -> Result<Self, NodeError> {
        if !(config.measurement_dwell.value().is_finite() && config.measurement_dwell.value() > 0.0)
        {
            return Err(NodeError::InvalidParameter {
                name: "measurement_dwell",
                value: config.measurement_dwell.value(),
            });
        }
        if config.cell.cache_enabled() {
            // Build the surface now so run timing is pure lookups (a
            // no-op when a warmed cell was cloned into this config).
            config.cell.cached().map_err(CoreError::from)?;
        }
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs `tracker` over `trace` with nominal step `dt` and returns the
    /// report, driven by the shared engine in [`eh_sim`]. The clock stays
    /// on the `dt` grid: a measurement takes the module off the converter
    /// for the measurement dwell (the 39 ms PULSE) inside the slice it
    /// interrupts, the tracker sees the reading at the dwell's end and
    /// decides the rest of the slice, and the slice then settles its
    /// store once. So a PULSE costs a second tracker decision, not a
    /// second engine step, and harvesting stops for the dwell only.
    ///
    /// The tracker's overhead power is read once per run, as the
    /// [`MpptController::overhead_power`] contract allows.
    ///
    /// The store carries over from run to run, while the load's cycle
    /// position restarts at 0 with each run's clock.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive `dt`; propagates PV solver failures.
    pub fn run(
        &mut self,
        tracker: &mut dyn MpptController,
        trace: &TimeSeries,
        dt: Seconds,
    ) -> Result<NodeReport, NodeError> {
        let light = Light::trace(trace);
        let has_sensor = tracker.requires_light_sensor();
        let compute_cost = tracker.compute_cost();
        let metrics = self.config.obs.then(Metrics::new);
        let config = &self.config;
        let surface = if config.cell.cache_enabled() {
            Some(config.cell.cached().map_err(CoreError::from)?)
        } else {
            None
        };
        let mut stepper = NodeStepper {
            cell: &config.cell,
            surface,
            cursor: LuxCursor::new(),
            converter: &config.converter,
            dwell: config.measurement_dwell,
            load: config.load.as_ref(),
            load_pos: 0.0,
            // The stepper owns a copy of the store for the run, so the
            // hot loop touches it by value; the copy goes back into the
            // config afterwards, on the error path too.
            store: config.store.clone(),
            overhead: tracker.overhead_power(),
            tracker: &mut *tracker,
            has_sensor,
            compute_per_decision: compute_cost.energy_per_decision(),
            acc: Accumulator::new(),
            last_voltage: Volts::ZERO,
            last_current: Amps::ZERO,
            last_power: Watts::ZERO,
            last_voc: None,
            last_isc: None,
            obs: ObsLocals::default(),
            metrics,
        };
        let driven = drive(&mut stepper, &light, dt);
        let NodeStepper {
            store,
            acc,
            obs,
            metrics,
            ..
        } = stepper;
        let final_store = store.stored_energy();
        self.config.store = store;
        driven?;
        NodeReport::assemble(
            tracker.name().to_owned(),
            trace.duration(),
            &acc,
            final_store,
            compute_cost.ops_per_decision,
            &obs,
            metrics,
        )
    }
}

/// One node-simulation time slice as a steppable system: observe, ask
/// the tracker for a command, execute it, and settle the store.
///
/// Three strength reductions keep the step cheap, each exact or within
/// the cache's own error bound: the supercapacitor store carries energy
/// (no `sqrt` round trip per deposit or withdraw), the load draw is a
/// prefix-sum difference at a cycle position the stepper carries, and a
/// cached cell's surface is read through a [`LuxCursor`] that reuses the
/// log-lux cell between steps.
struct NodeStepper<'a> {
    cell: &'a PvCell,
    /// The cell's warmed surface, resolved once per run; `None` keeps
    /// the exact solver.
    surface: Option<&'a CachedPvSurface>,
    cursor: LuxCursor,
    converter: &'a InputRegulatedConverter,
    dwell: Seconds,
    load: Option<&'a DutyCycledLoad>,
    /// Position in the load's duty cycle, from 0 at the run's start.
    load_pos: f64,
    store: ConcreteStore,
    tracker: &'a mut dyn MpptController,
    /// The tracker's overhead power, constant for its lifetime.
    overhead: Watts,
    has_sensor: bool,
    compute_per_decision: Joules,
    acc: Accumulator,
    last_voltage: Volts,
    last_current: Amps,
    last_power: Watts,
    last_voc: Option<Volts>,
    last_isc: Option<Amps>,
    obs: ObsLocals,
    metrics: Option<Metrics>,
}

impl NodeStepper<'_> {
    /// The regulated operating voltage `min(target, Voc)` and, when it
    /// is positive, the current the cell sources there.
    #[inline(always)]
    fn connect_point(&mut self, target: Volts, lux: Lux) -> Result<ConnectPoint, NodeError> {
        Ok(match self.surface {
            Some(surface) => surface.connect_point_lane(&mut self.cursor, target, lux)?,
            None => self.connect_point_exact(target, lux)?,
        })
    }

    /// [`NodeStepper::connect_point`] on the exact solver. Kept out of
    /// line: its solves dwarf a call, and inlined it crowds the cached
    /// step loop.
    #[inline(never)]
    fn connect_point_exact(&self, target: Volts, lux: Lux) -> Result<ConnectPoint, PvError> {
        self.cell
            .model()
            .connect_point(target, lux, self.cell.temperature())
    }

    /// Open-circuit voltage at `lux`, through the cursor when cached.
    #[inline(always)]
    fn open_circuit_voltage(&mut self, lux: Lux) -> Result<Volts, NodeError> {
        Ok(match self.surface {
            Some(surface) => surface.open_circuit_voltage_lane(&mut self.cursor, lux)?,
            None => self.cell.open_circuit_voltage(lux)?,
        })
    }

    #[inline(always)]
    fn disconnect(&mut self) {
        self.last_voltage = Volts::ZERO;
        self.last_current = Amps::ZERO;
        self.last_power = Watts::ZERO;
    }

    /// Asks the tracker for its command over the coming `dt`, from what
    /// the module did since its last decision.
    #[inline(always)]
    fn decide(&mut self, t: Seconds, dt: Seconds, lux: Lux) -> TrackerCommand {
        let obs = Observation {
            time: t,
            pv_voltage: self.last_voltage,
            pv_current: self.last_current,
            pv_power: self.last_power,
            voc_measurement: self.last_voc.take(),
            isc_measurement: self.last_isc.take(),
            ambient_lux: self.has_sensor.then_some(lux),
        };
        self.acc.count_decision();
        self.tracker.step(&obs, dt)
    }

    /// Takes the reading a measurement command asks for, with the
    /// module off the converter: `Voc` at open circuit, or `Isc`
    /// shorted.
    #[inline(always)]
    fn measure(&mut self, cmd: TrackerCommand, lux: Lux) -> Result<(), NodeError> {
        if cmd == TrackerCommand::MeasureIsc {
            let isc = self.cell.short_circuit_current(lux)?;
            self.last_isc = Some(isc);
            self.last_voltage = Volts::ZERO;
            self.last_current = isc;
        } else {
            let voc = self.open_circuit_voltage(lux)?;
            self.last_voc = Some(voc);
            self.last_voltage = voc;
            self.last_current = Amps::ZERO;
        }
        self.last_power = Watts::ZERO;
        self.acc.count_measurement();
        Ok(())
    }

    /// Holds the module at `target` for `dt` and deposits what the
    /// converter delivers; a non-positive target, or a cell with no
    /// positive operating voltage, leaves it idle.
    #[inline(always)]
    fn connect(&mut self, target: Volts, lux: Lux, dt: Seconds) -> Result<(), NodeError> {
        if target.value() > 0.0 {
            let point = self.connect_point(target, lux)?;
            if let Some(i) = point.current {
                let v_op = point.v_op;
                let i = i.max(Amps::ZERO);
                let harvest = self.converter.harvest(v_op, i, dt);
                self.acc.add_harvest(harvest.output_energy);
                self.acc.add_loss(harvest.losses * dt);
                if self.metrics.is_some() {
                    self.obs.observe_harvest(&harvest, dt);
                }
                self.store.deposit(harvest.output_energy);
                self.last_voltage = v_op;
                self.last_current = i;
                self.last_power = harvest.input_power;
                return Ok(());
            }
        }
        self.disconnect();
        Ok(())
    }
}

impl Stepper for NodeStepper<'_> {
    type Error = NodeError;

    #[inline]
    fn step(&mut self, t: Seconds, planned: Seconds, input: &StepInput) -> Result<(), NodeError> {
        let lux = input.lux;
        let mut cmd = self.decide(t, planned, lux);
        let mut decisions = 1.0;

        // A PULSE takes the module off the converter for the dwell only:
        // the tracker sees the reading at the dwell's end and decides
        // the rest of the slice. A slice no longer than the dwell is all
        // measurement, and the reading waits for the next slice.
        let mut pulses = 0;
        let mut measured = Seconds::ZERO;
        while !cmd.is_connect() {
            self.measure(cmd, lux)?;
            pulses += 1;
            if planned - measured <= self.dwell {
                measured = planned;
                break;
            }
            measured += self.dwell;
            cmd = self.decide(t + measured, planned - measured, lux);
            decisions += 1.0;
        }
        if let TrackerCommand::Connect(target) = cmd {
            self.connect(target, lux, planned - measured)?;
        }

        // The slice settles once. Tracker overhead comes out of the
        // store, harvested or not.
        let oh = self.overhead * planned;
        self.acc.add_overhead(oh);
        self.store.withdraw(oh);

        // Control-law compute energy, charged at the tracker's declared
        // ops × energy/op per decision. Zero (and a guaranteed store
        // no-op) for analog trackers.
        let compute = self.compute_per_decision * decisions;
        self.acc.add_compute(compute);
        self.store.withdraw(compute);

        // Node load.
        let mut served = Joules::ZERO;
        if let Some(load) = self.load {
            let demand = load.energy_over(&mut self.load_pos, planned);
            served = self.store.withdraw(demand);
            self.acc.add_load(demand, served);
        }

        self.store.leak(planned);

        // Metric attribution, accumulated in per-run locals (flushed
        // once after the drive loop). The tracker's lump overhead is
        // split by phase: during the PULSE the sample-and-hold chain is
        // what burns it; for the rest of the slice the astable timer is
        // the consumer. Conversion losses were already accrued by
        // `observe_harvest`; the load bucket takes what the store
        // actually delivered.
        if self.metrics.is_some() {
            let mut astable = oh;
            if pulses > 0 {
                let sample_hold = self.overhead * measured;
                self.obs.observe_measuring(pulses, measured, sample_hold);
                astable -= sample_hold;
            }
            if cmd.is_connect() {
                self.obs.observe_harvesting(planned - measured, astable);
            }
            self.obs.observe_draws(compute, served);
        }

        Ok(())
    }

    fn recorder(&mut self) -> Option<&mut Metrics> {
        self.metrics.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Supercapacitor;
    use eh_core::baselines::{FocvSampleHold, Oracle, PerturbObserve};
    use eh_env::profiles;
    use eh_pv::presets;
    use eh_units::{Farads, Joules, Lux};

    fn minute_trace() -> TimeSeries {
        profiles::constant(Lux::new(1000.0), Seconds::from_minutes(30.0))
    }

    #[test]
    fn validation() {
        let mut cfg = SimConfig::default_for(presets::sanyo_am1815()).unwrap();
        cfg.measurement_dwell = Seconds::ZERO;
        assert!(NodeSimulation::new(cfg).is_err());
    }

    #[test]
    fn focv_harvests_at_constant_light() {
        let mut sim =
            NodeSimulation::new(SimConfig::default_for(presets::sanyo_am1815()).unwrap()).unwrap();
        let mut tracker = FocvSampleHold::paper_prototype().unwrap();
        let report = sim
            .run(&mut tracker, &minute_trace(), Seconds::new(1.0))
            .unwrap();
        assert!(report.gross_energy.value() > 0.0);
        assert!(
            report.is_net_positive(),
            "FOCV must be net-positive at 1 klux"
        );
        // ~26 measurements in 30 min (one per 69 s).
        assert!(
            (20..=30).contains(&report.measurements),
            "{}",
            report.measurements
        );
    }

    #[test]
    fn oracle_beats_focv_gross_but_not_by_much() {
        let trace = minute_trace();
        let run = |tracker: &mut dyn MpptController| {
            let mut sim =
                NodeSimulation::new(SimConfig::default_for(presets::sanyo_am1815()).unwrap())
                    .unwrap();
            sim.run(tracker, &trace, Seconds::new(1.0)).unwrap()
        };
        let focv = run(&mut FocvSampleHold::paper_prototype().unwrap());
        let oracle = run(&mut Oracle::new(presets::sanyo_am1815()));
        assert!(oracle.gross_energy >= focv.gross_energy);
        let ratio = focv.gross_energy.value() / oracle.gross_energy.value();
        assert!(
            ratio > 0.85,
            "FOCV should stay near the oracle at fixed light, got {ratio:.3}"
        );
    }

    #[test]
    fn perturb_observe_net_negative_indoors() {
        // The paper's core claim: a 2 mW hill climber eats more than an
        // indoor cell produces.
        let mut sim =
            NodeSimulation::new(SimConfig::default_for(presets::sanyo_am1815()).unwrap()).unwrap();
        let mut tracker = PerturbObserve::literature_default().unwrap();
        let report = sim
            .run(&mut tracker, &minute_trace(), Seconds::new(1.0))
            .unwrap();
        assert!(
            !report.is_net_positive(),
            "P&O indoors must be net-negative: net = {}",
            report.net_energy()
        );
    }

    #[test]
    fn load_served_from_harvest() {
        let cfg = SimConfig::default_for(presets::sanyo_am1815())
            .unwrap()
            .with_load(DutyCycledLoad::typical_sensor_node().unwrap())
            .with_store(ConcreteStore::Supercapacitor(
                Supercapacitor::new(Farads::new(0.22), Volts::new(5.0), Volts::new(1.8)).unwrap(),
            ));
        let mut sim = NodeSimulation::new(cfg).unwrap();
        let mut tracker = FocvSampleHold::paper_prototype().unwrap();
        let report = sim
            .run(&mut tracker, &minute_trace(), Seconds::new(1.0))
            .unwrap();
        assert!(report.load_demand.value() > 0.0);
        // At 1 klux the AM-1815 harvest (~hundreds of µW) covers the
        // ~16 µW average load easily once the store has any charge.
        assert!(
            report.uptime().value() > 0.9,
            "uptime = {}",
            report.uptime()
        );
    }

    #[test]
    fn the_store_carries_over_to_the_next_run() {
        let cfg = |store: ConcreteStore| {
            SimConfig::default_for(presets::sanyo_am1815())
                .unwrap()
                .with_load(DutyCycledLoad::typical_sensor_node().unwrap())
                .with_store(store)
        };
        let run = |sim: &mut NodeSimulation, trace: &TimeSeries| {
            let mut tracker = FocvSampleHold::paper_prototype().unwrap();
            sim.run(&mut tracker, trace, Seconds::new(1.0)).unwrap()
        };
        let deployed = ConcreteStore::Supercapacitor(
            Supercapacitor::new(Farads::new(0.22), Volts::new(5.0), Volts::new(1.8)).unwrap(),
        );
        let floor = deployed.stored_energy();
        let mut sim = NodeSimulation::new(cfg(deployed)).unwrap();
        let first = run(&mut sim, &minute_trace());
        assert!(first.final_store_energy > floor, "the first run charges");
        assert_eq!(sim.config().store.stored_energy(), first.final_store_energy);

        // The second run starts from the first run's store, exactly as a
        // fresh simulation handed that store does.
        let dusk = profiles::constant(Lux::new(50.0), Seconds::from_minutes(30.0));
        let carried = sim.config().store.clone();
        let second = run(&mut sim, &dusk);
        let mut fresh = NodeSimulation::new(cfg(carried)).unwrap();
        assert_eq!(run(&mut fresh, &dusk), second);
    }

    #[test]
    fn dark_trace_harvests_nothing() {
        let trace = profiles::constant(Lux::ZERO, Seconds::from_minutes(5.0));
        let mut sim =
            NodeSimulation::new(SimConfig::default_for(presets::sanyo_am1815()).unwrap()).unwrap();
        let mut tracker = FocvSampleHold::paper_prototype().unwrap();
        let report = sim.run(&mut tracker, &trace, Seconds::new(1.0)).unwrap();
        assert_eq!(report.gross_energy, Joules::ZERO);
        assert!(report.overhead_energy.value() > 0.0);
        assert!(!report.is_net_positive());
    }

    #[test]
    fn metrics_opt_in_and_ledger_conserves() {
        let cfg = SimConfig::default_for(presets::sanyo_am1815())
            .unwrap()
            .with_load(DutyCycledLoad::typical_sensor_node().unwrap())
            .with_store(ConcreteStore::Supercapacitor(
                Supercapacitor::new(Farads::new(0.22), Volts::new(5.0), Volts::new(1.8)).unwrap(),
            ))
            .with_obs(true);
        let mut sim = NodeSimulation::new(cfg).unwrap();
        let mut tracker = FocvSampleHold::paper_prototype().unwrap();
        let report = sim
            .run(&mut tracker, &minute_trace(), Seconds::new(1.0))
            .unwrap();
        let m = report.metrics.as_ref().expect("obs enabled");

        // The bucket split re-sums to the lump accumulators (run()
        // already enforces this; re-check against the report's fields).
        let closed = report.overhead_energy + report.loss_energy + report.load_served;
        assert!(m.ledger().relative_error(closed) < 1e-9);
        assert_eq!(m.counter("node.measurements"), report.measurements);
        // Each PULSE folds into the slice it interrupts: the measuring
        // span counts one PULSE-wide entry per measurement, and each
        // PULSE costs one extra decision.
        assert!(report.measurements > 0);
        let measuring = m.span_stats("node.measuring").expect("measuring span");
        assert_eq!(measuring.count, report.measurements);
        let dwell = Seconds::from_milli(39.0).value() * report.measurements as f64;
        assert!((measuring.sim_time().value() - dwell).abs() < 1e-9);
        assert_eq!(
            m.counter("tracker.decisions"),
            m.counter("engine.steps") + report.measurements
        );
        assert!(m.span_stats("node.harvesting").is_some());
        assert!(m.counter("converter.transfer_steps") > 0);

        // Uninstrumented runs carry no store.
        let mut plain =
            NodeSimulation::new(SimConfig::default_for(presets::sanyo_am1815()).unwrap()).unwrap();
        let mut tracker = FocvSampleHold::paper_prototype().unwrap();
        let r = plain
            .run(&mut tracker, &minute_trace(), Seconds::new(1.0))
            .unwrap();
        assert!(r.metrics.is_none(), "obs must be opt-in");
    }

    #[test]
    fn metrics_do_not_change_the_report() {
        let run = |obs: bool| {
            let cfg = SimConfig::default_for(presets::sanyo_am1815())
                .unwrap()
                .with_obs(obs);
            let mut sim = NodeSimulation::new(cfg).unwrap();
            let mut tracker = FocvSampleHold::paper_prototype().unwrap();
            let mut r = sim
                .run(&mut tracker, &minute_trace(), Seconds::new(1.0))
                .unwrap();
            r.metrics = None; // compare the physics, not the store
            r
        };
        assert_eq!(run(false), run(true), "observation must be passive");
    }

    #[test]
    fn cached_run_matches_exact_report() {
        // The cell owns the cache policy: under the default config a
        // warmed cell's run reads its surface, so it differs from the
        // exact run, but by no more than the cache's documented error
        // bound: same measurement count, energies within a fraction of
        // a percent.
        let run = |cell: PvCell| {
            let cfg = SimConfig::default_for(cell).unwrap();
            let mut sim = NodeSimulation::new(cfg).unwrap();
            let mut tracker = FocvSampleHold::paper_prototype().unwrap();
            sim.run(&mut tracker, &minute_trace(), Seconds::new(1.0))
                .unwrap()
        };
        let exact = run(presets::sanyo_am1815());
        let cached = run(presets::sanyo_am1815().warmed().unwrap());
        assert_ne!(
            exact.gross_energy, cached.gross_energy,
            "a warmed cell must step on its surface, not the exact solver"
        );
        assert_eq!(exact.measurements, cached.measurements);
        let gross_rel = (exact.gross_energy.value() - cached.gross_energy.value()).abs()
            / exact.gross_energy.value();
        assert!(gross_rel < 5e-3, "gross energy diverged by {gross_rel:.2e}");
        let overhead_rel = (exact.overhead_energy.value() - cached.overhead_energy.value()).abs()
            / exact.overhead_energy.value();
        assert!(
            overhead_rel < 5e-3,
            "overhead diverged by {overhead_rel:.2e}"
        );
    }
}
