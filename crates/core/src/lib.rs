//! The paper's contribution: the ultra low-power FOCV sample-and-hold
//! MPPT system, plus the baseline trackers it is evaluated against.
//!
//! Two levels of model are provided:
//!
//! * [`FocvMpptSystem`] — the full circuit-level composition of Fig. 3:
//!   PV cell, cold-start capacitor, astable multivibrator, sample-and-hold
//!   and input-regulated converter, stepped with event-exact analog
//!   dynamics. This is the model behind Table I, Fig. 4 and the
//!   cold-start experiments.
//! * [`MpptController`] — a behavioural tracker interface with
//!   implementations of the proposed technique ([`baselines::FocvSampleHold`])
//!   and of the state of the art the paper compares against:
//!   hill-climbing/perturb-&-observe ([`baselines::PerturbObserve`], cf. \[2\]),
//!   a fixed-voltage harvester ([`baselines::FixedVoltage`], cf. \[8\]),
//!   a pilot-cell tracker ([`baselines::PilotCell`], cf. \[5\] Brunelli),
//!   a photodetector tracker ([`baselines::Photodetector`], cf. \[6\]
//!   AmbiMax), and an ideal [`baselines::Oracle`]. These drive the
//!   day-scale comparisons in `eh-node`.
//!
//! # Example: one sampling cycle of the full system
//!
//! ```
//! use eh_core::{FocvMpptSystem, SystemConfig};
//! use eh_units::{Lux, Seconds};
//!
//! let mut sys = FocvMpptSystem::new(SystemConfig::paper_prototype()?)?;
//! // Run 10 minutes at a constant office 1000 lux.
//! let report = sys.run_constant(Lux::new(1000.0), Seconds::from_minutes(10.0), Seconds::from_milli(5.0))?;
//! assert!(report.pulses >= 8, "one PULSE per ~69 s expected");
//! # Ok::<(), eh_units::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod compute;
mod controller;
mod metrics;
mod system;

pub use compute::{ComputeCost, MCU_ENERGY_PER_OP};
pub use controller::{MpptController, Observation, TrackerCommand};
pub use metrics::{tracking_accuracy_table, HarvestSummary, TrackingAccuracyRow};
pub use system::{FocvMpptSystem, RunReport, SystemConfig, SystemState, SystemStep};
