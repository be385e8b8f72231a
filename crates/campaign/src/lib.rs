//! Multi-year endurance campaigns for the DATE 2011 MPPT reproduction.
//!
//! The paper validates its 7.6 µA FOCV tracker on 24-hour logs; this
//! crate asks the question the paper could not: does the design stay
//! alive over *simulated years* of seasons, weather, dust, aging,
//! storage wear and outright faults? A [`CampaignSpec`] describes the
//! deployment (fleet size and seed, latitude and climate, load class,
//! drift rates, fault plan); the [`CampaignRunner`] chains the fleet
//! through degradation epochs — carrying every node's store energy
//! across epoch boundaries — and aggregates survival percentiles and
//! time-to-first-brownout into a [`CampaignReport`] that is
//! bit-identical at any worker count, like every other layer of the
//! reproduction.
//!
//! # Quickstart
//!
//! ```
//! use eh_campaign::{CampaignRunner, CampaignSpec};
//! use eh_units::Seconds;
//!
//! let mut spec = CampaignSpec::smoke(2011);
//! spec.nodes = 4;
//! spec.days = 6;
//! spec.epoch_days = 3;
//! spec.dt = Seconds::new(1800.0);
//! let report = CampaignRunner::new(2).run(&spec)?;
//! assert_eq!(report.nodes(), 4);
//! println!("{report}");
//! # Ok::<(), eh_units::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod environment;
pub mod report;
pub mod run;
pub mod schedule;
pub mod spec;

pub use report::{CampaignNodeOutcome, CampaignReport};
pub use run::{CampaignContext, CampaignRunner};
pub use schedule::{node_schedules, FaultKind, NodeSchedule};
pub use spec::{CampaignSpec, Climate, DriftRates, FaultPlan, LoadClass};
