//! The fast FOCV fleet engine.
//!
//! The per-node engine pays for a `dyn` seam on every PV lookup,
//! tracker decision and store update, plus the per-step
//! transcendentals of the exact physics. This engine removes both for
//! [`TrackerKind::Focv`](crate::TrackerKind::Focv), the paper's
//! technique. Each node is one
//! monomorphic [`Stepper`], run by [`eh_sim::drive`] — the same time
//! loop as the per-node oracle. The stepper holds the tracker's
//! `Copy`-able [`FocvKernel`]/[`FocvLane`] state machine and an
//! enum-dispatched store, and makes three strength reductions over the
//! per-node step:
//!
//! 1. **Load walk**: per-step demand comes from a prefix-sum
//!    [`LoadEnergyProfile`] — whole cycles by multiplication plus two
//!    cumulative-energy reads — instead of walking the duty-cycle
//!    phase list segment by segment every step.
//! 2. **Store arithmetic**: a supercapacitor store evolves in the
//!    energy domain ([`EnergyDomainSupercap`]), so deposits and
//!    withdrawals are adds/clamps and the per-step `sqrt` count drops
//!    from three to the single one leakage genuinely needs.
//! 3. **PV lookups**: surface reads go through a per-node
//!    [`LuxCursor`], which reuses the `ln`-derived log-lux cell index
//!    while the illuminance stays inside the current cell.
//!
//! The name `vectorized` ([`Engine::Vectorized`](crate::Engine)) is
//! kept from when this engine stepped lane packs in lockstep: it is the
//! engine's wire label and part of every cache key.
//!
//! # The bounded-divergence contract
//!
//! The engine is **not** bit-identical to the per-node oracle — the
//! cursor's series expansion, the energy-domain store, and the
//! prefix-sum load profile reassociate a handful of float operations.
//! What it guarantees instead (enforced by the `vectorized_equivalence`
//! suite; see `DESIGN.md` §14):
//!
//! - **Counts and classifications are exact.** Both engines run the
//!   same `drive` loop, and FOCV decisions depend only on the step-size
//!   sequence — so step, dwell, measurement and decision counts, and
//!   every outcome classification (brown-out, cold-start failure,
//!   net-negative) equal the oracle's exactly.
//! - **Energies agree to rel 1e-9** per node (net, gross, overhead,
//!   load, losses, final store).
//! - **The engine is bit-identical to itself** at any worker count and
//!   shard size: nodes share only immutable inputs.
//!
//! Trackers without a fast stepper (and fleets with `pv_cache: false`,
//! whose exact-solver reads have no cursor to reuse) go to the per-node
//! shard fold in [`FleetContext::simulate_shard`], which is the oracle
//! itself.

use eh_converter::InputRegulatedConverter;
use eh_core::baselines::{FocvDecision, FocvKernel, FocvLane};
use eh_core::MpptController as _;
use eh_node::{
    ConcreteStore, EnergyDomainSupercap, EnergyStore, LoadEnergyProfile, NodeError, NodeReport,
    ObsLocals,
};
use eh_obs::Metrics;
use eh_pv::{CachedPvSurface, LuxCursor};
use eh_sim::{drive, Accumulator, Light, StepInput, StepOutput, Stepper};
use eh_units::{Amps, Joules, Lux, Seconds, Volts};

use crate::context::FleetContext;
use crate::error::FleetError;
use crate::population::NodeSpec;
use crate::report::{FleetReport, NodeOutcome};
use crate::spec::FleetSpec;

/// The inputs every fast node of a shard shares: the paper's converter
/// and the load's prefix-sum profile (each node carries only its
/// position in the cycle).
#[derive(Debug)]
pub(crate) struct Shared {
    converter: InputRegulatedConverter,
    load: Option<LoadEnergyProfile>,
}

impl Shared {
    /// Builds the shard-wide inputs of `spec`.
    pub(crate) fn new(spec: &FleetSpec) -> Result<Self, FleetError> {
        Ok(Self {
            converter: InputRegulatedConverter::paper_prototype()?,
            load: spec.load.as_ref().map(|l| l.energy_profile()),
        })
    }
}

/// Simulates one FOCV node on the fast stepper, with the per-node
/// engine's error precedence: cold-start screening, tracker and store
/// construction, the `measurement_dwell` validation
/// [`eh_node::NodeSimulation::new`] performs, the surface, then the
/// drive.
pub(crate) fn simulate_node(
    ctx: &FleetContext,
    shared: &Shared,
    node: NodeSpec,
) -> Result<FleetReport, FleetError> {
    let spec = ctx.spec();
    let trace = node.perturbation.apply(ctx.base_trace(node.placement));
    let cold_start_ok = ctx.cold_start_ok(node.placement, Lux::new(trace.max()))?;
    let tracker = node.tracker()?;
    let store = node.store.unwrap_or(spec.store).build_concrete()?;
    let dwell = node.pulse_width;
    if !(dwell.value().is_finite() && dwell.value() > 0.0) {
        return Err(NodeError::InvalidParameter {
            name: "measurement_dwell",
            value: dwell.value(),
        }
        .into());
    }
    let mut stepper = FocvNode {
        surface: ctx.cell(node.placement).cached()?,
        shared,
        kernel: tracker.kernel(),
        dwell,
        lane: tracker.lane(),
        store: LaneStore::new(store),
        cursor: LuxCursor::default(),
        load_pos: 0.0,
        last_voc: None,
        acc: Accumulator::new(),
        obs: ObsLocals::default(),
        metrics: spec.obs.then(Metrics::new),
    };
    drive(&mut stepper, &Light::trace(&trace), spec.dt)?;
    let report = NodeReport::assemble(
        tracker.name().to_owned(),
        trace.duration(),
        &stepper.acc,
        stepper.store.stored_energy(),
        0, // the analog tracker runs no control-law ops
        &stepper.obs,
        stepper.metrics,
    )?;
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

/// A node's energy store with the supercapacitor case strength-reduced
/// into the energy domain. Every other store kind keeps its exact
/// [`ConcreteStore`] arithmetic.
enum LaneStore {
    /// A supercapacitor evolving as stored energy: `√`-free deposits
    /// and withdrawals, one `sqrt` per leak.
    Energy(EnergyDomainSupercap),
    /// Any other concrete store, unchanged.
    Concrete(ConcreteStore),
}

impl LaneStore {
    fn new(store: ConcreteStore) -> Self {
        match store {
            ConcreteStore::Supercapacitor(sc) => {
                LaneStore::Energy(EnergyDomainSupercap::from_supercapacitor(&sc))
            }
            other => LaneStore::Concrete(other),
        }
    }

    #[inline]
    fn deposit(&mut self, energy: Joules) -> Joules {
        match self {
            LaneStore::Energy(s) => s.deposit(energy),
            LaneStore::Concrete(s) => s.deposit(energy),
        }
    }

    #[inline]
    fn withdraw(&mut self, energy: Joules) -> Joules {
        match self {
            LaneStore::Energy(s) => s.withdraw(energy),
            LaneStore::Concrete(s) => s.withdraw(energy),
        }
    }

    #[inline]
    fn leak(&mut self, dt: Seconds) {
        match self {
            LaneStore::Energy(s) => s.leak(dt),
            LaneStore::Concrete(s) => s.leak(dt),
        }
    }

    #[inline]
    fn stored_energy(&self) -> Joules {
        match self {
            LaneStore::Energy(s) => s.stored_energy(),
            LaneStore::Concrete(s) => s.stored_energy(),
        }
    }
}

/// One FOCV node as a steppable system: the per-node engine's step with
/// the tracker devirtualized and the three strength reductions applied.
struct FocvNode<'a> {
    surface: &'a CachedPvSurface,
    shared: &'a Shared,
    kernel: FocvKernel,
    dwell: Seconds,
    lane: FocvLane,
    store: LaneStore,
    cursor: LuxCursor,
    /// Position in the load's duty cycle, for the prefix-sum profile.
    load_pos: f64,
    last_voc: Option<Volts>,
    acc: Accumulator,
    obs: ObsLocals,
    metrics: Option<Metrics>,
}

impl Stepper for FocvNode<'_> {
    type Error = NodeError;

    #[inline]
    fn step(
        &mut self,
        _t: Seconds,
        planned: Seconds,
        input: &StepInput,
    ) -> Result<StepOutput, NodeError> {
        let decision = self
            .kernel
            .step(&mut self.lane, self.last_voc.take(), planned);
        let is_connect = matches!(decision, FocvDecision::Connect(_));
        let actual = if is_connect {
            planned
        } else {
            self.dwell.min(planned)
        };

        match decision {
            FocvDecision::Connect(target) if target.value() > 0.0 => {
                let point = self
                    .surface
                    .connect_point_lane(&mut self.cursor, target, input.lux)?;
                if let Some(current) = point.current {
                    let current = current.max(Amps::ZERO);
                    let harvest = self.shared.converter.harvest(point.v_op, current, actual);
                    self.acc.add_harvest(harvest.output_energy);
                    self.acc.add_loss(harvest.losses * actual);
                    if self.metrics.is_some() {
                        self.obs.observe_harvest(&harvest, actual);
                    }
                    self.store.deposit(harvest.output_energy);
                }
            }
            FocvDecision::Connect(_) => {}
            FocvDecision::Measure => {
                let voc = self
                    .surface
                    .open_circuit_voltage_lane(&mut self.cursor, input.lux)?;
                self.last_voc = Some(voc);
                self.acc.count_measurement();
            }
        }

        let overhead = self.kernel.overhead_power() * actual;
        self.acc.add_overhead(overhead);
        self.store.withdraw(overhead);

        // The per-node engine's compute charge, exactly zero for the
        // analog tracker, kept so the ledger arithmetic stays aligned.
        let compute = Joules::ZERO;
        self.acc.add_compute(compute);
        self.acc.count_decision();
        self.store.withdraw(compute);

        let mut served = Joules::ZERO;
        if let Some(load) = &self.shared.load {
            let demand = load.energy_over(&mut self.load_pos, actual);
            served = self.store.withdraw(demand);
            self.acc.add_load(demand, served);
        }

        self.store.leak(actual);

        if self.metrics.is_some() {
            self.obs
                .observe_step(is_connect, overhead, compute, served, actual);
        }
        Ok(StepOutput::dwell(actual))
    }

    fn recorder(&mut self) -> Option<&mut Metrics> {
        self.metrics.as_mut()
    }
}
