//! Wireless-sensor-node energy-system simulation.
//!
//! The paper's motivation (§I) is a sensor node that must live off its
//! harvester indefinitely, indoors and outdoors. This crate closes the
//! loop around the other crates: a PV cell under a 24-hour light trace,
//! an MPPT tracker (the proposed technique or any baseline), the
//! switching converter, an energy store and a duty-cycled node load.
//! [`NodeSimulation`] holds those parts and runs one tracker over a
//! trace on the one node stepper, booking every flow straight into the
//! [`NodeReport`] it returns.
//!
//! The headline experiment it supports is the paper's comparison against
//! the state of the art: run every tracker over the same mixed
//! indoor/outdoor day and compare *net* harvested energy — gross harvest
//! minus what the tracker's own electronics ate. Outdoors everybody
//! wins; indoors only an ultra low-power tracker stays net-positive.
//!
//! # Example
//!
//! ```
//! use eh_core::baselines::{FocvSampleHold, Oracle};
//! use eh_env::profiles;
//! use eh_node::NodeSimulation;
//! use eh_pv::presets;
//! use eh_units::Seconds;
//!
//! let trace = profiles::office_desk_mixed(7).decimate(60)?; // 1-min grid
//! let mut sim = NodeSimulation::default_for(presets::sanyo_am1815())?;
//! let report = sim.run(
//!     &mut FocvSampleHold::paper_prototype()?,
//!     &trace,
//!     Seconds::new(60.0),
//! )?;
//! assert!(report.gross_energy.value() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod load;
mod report;
mod sim;
pub mod sizing;
mod storage;

pub use compare::{compare_trackers, TrackerComparison};
pub use load::{DutyCycledLoad, LoadPhase};
pub use report::NodeReport;
pub use sim::NodeSimulation;
pub use storage::{Battery, ConcreteStore, IdealStore, StoreSpec, Supercapacitor};
