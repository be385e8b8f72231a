//! Facade crate for the DATE 2011 ultra low-power FOCV MPPT reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can `use pv_mppt_repro::...`. See the individual
//! crates for the substance:
//!
//! * [`units`] — typed physical quantities.
//! * [`pv`] — photovoltaic cell models and FOCV analysis.
//! * [`analog`] — behavioural analog circuit substrate (astable
//!   multivibrator, sample-and-hold, supply-current ledger).
//! * [`mod@env`] — indoor/outdoor illuminance environments and the Eq. (2)
//!   sampling-error analysis.
//! * [`converter`] — input-regulated buck-boost converter and cold-start.
//! * [`core`] — the paper's FOCV sample-and-hold MPPT system plus the
//!   baseline trackers it is compared against.
//! * [`sim`] — the shared simulation engine: [`sim::Stepper`] steppers,
//!   [`sim::drive`] time-stepping, and the
//!   deterministic [`sim::SweepRunner`] job and shard fan-out.
//! * [`node`] — closed-loop wireless-sensor-node simulations.
//! * [`obs`] — opt-in deterministic observability: the one
//!   [`obs::Metrics`] store, called directly (counters, gauges,
//!   simulated-time span stats), and the five-bucket
//!   [`obs::EnergyLedger`] with its conservation invariant.
//! * [`fleet`] — deterministic fleet-scale simulation of heterogeneous
//!   node populations: seeded [`fleet::FleetSpec`] instantiation,
//!   sharded order-independent aggregation, tracker comparison over a
//!   whole population.
//! * [`campaign`] — multi-year endurance campaigns: seasonal skies and
//!   Markov weather over degradation epochs, per-node drift and fault
//!   schedules, survival percentiles in a bit-identical
//!   [`campaign::CampaignReport`].
//! * [`serve`] — the what-if service: dependency-free HTTP/1.1 over
//!   the fleet layer with canonical-JSON request identity, a
//!   byte-identical response cache, single-flight coalescing, chunked
//!   streaming with per-shard checkpoint/resume, live
//!   [`serve::ServiceMetrics`], and the `/campaign` endurance endpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use eh_analog as analog;
pub use eh_campaign as campaign;
pub use eh_converter as converter;
pub use eh_core as core;
pub use eh_env as env;
pub use eh_fleet as fleet;
pub use eh_node as node;
pub use eh_obs as obs;
pub use eh_pv as pv;
pub use eh_serve as serve;
pub use eh_sim as sim;
pub use eh_units as units;
