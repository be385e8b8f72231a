//! Deterministic fleet-scale simulation of heterogeneous sensor-node
//! populations.
//!
//! The paper validates one prototype; a deployment ships hundreds of
//! units that differ in trimmed divider, astable timing, cell binning,
//! dust, and desk placement. This crate stamps a whole population out of
//! one [`FleetSpec`] — base design plus a seeded, bounded spread — and
//! answers the deployment questions: the net-energy percentiles across
//! the fleet, how many nodes brown out or can never cold-start, what
//! the tracker overhead distribution looks like, and which node is the
//! worst and why.
//!
//! Pipeline (see `DESIGN.md` for the full diagram):
//!
//! ```text
//! FleetSpec ─▶ population (seeded, 9 draws/node) ─▶ shards ─▶ merge
//!      shared: base day trace per placement + warmed PV surface
//! ```
//!
//! Determinism is end-to-end: the population is a pure function of
//! `(spec, seed)`, every node owns its jitter, and shard reports merge
//! in shard index order — so a [`FleetReport`] is **bit-for-bit
//! identical** whether it was computed by 1 worker or 16.
//!
//! # Example
//!
//! ```
//! use eh_fleet::{FleetRunner, FleetSpec};
//! use eh_units::Seconds;
//!
//! let mut spec = FleetSpec::mixed_indoor_outdoor(12, 7)?;
//! spec.trace_decimate = 600; // 10-minute light grid keeps the doctest quick
//! spec.dt = Seconds::new(600.0);
//! let report = FleetRunner::new(2).run(&spec)?;
//! assert_eq!(report.nodes(), 12);
//! let p = report.net_energy_percentiles().expect("non-empty fleet");
//! assert!(p.p5 <= p.p50 && p.p50 <= p.p95);
//! // Bit-identical on a single worker.
//! assert_eq!(report, FleetRunner::new(1).run(&spec)?);
//! # Ok::<(), eh_units::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod context;
mod pool;
mod population;
mod report;
mod run;
mod spec;

pub use compare::{compare_trackers_over_fleet, compare_trackers_over_fleet_with, TrackerKind};
pub use context::FleetContext;
pub use pool::SurfacePool;
pub use population::NodeSpec;
pub use report::{FleetReport, NodeOutcome, Percentiles};
pub use run::{Engine, FleetRunner};
pub use spec::{FleetSpec, Placement, PlacementMix, Tolerances};
