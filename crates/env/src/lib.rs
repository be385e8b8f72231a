//! Synthetic indoor/outdoor light environments for the DATE 2011 MPPT
//! reproduction.
//!
//! §II-B of the paper selects the sample-and-hold period from 24-hour
//! logs of the PV module's open-circuit voltage: one on an office desk
//! (mixed natural and artificial light — Fig. 2), one on a lab desk on a
//! Sunday with the blinds closed, and a "semi-mobile" day in which the
//! cell was taken outdoors at lunchtime. The original logs are lab data
//! we cannot rerun, so this crate synthesises illuminance traces with the
//! same *dynamics*: sunrise and sunset ramps, lamp switch-on/off
//! edges, occupancy shadowing, cloud variability and the indoor↔outdoor
//! lunch excursion. All stochastic processes are seeded, so every run is
//! reproducible.
//!
//! The [`sampling_error`] module implements the paper's Eq. (2) — the
//! worst-case mean error of a sampled estimate as a function of sampling
//! period — which is the analysis that justifies the 69 s hold period.
//!
//! # Quickstart
//!
//! ```
//! use eh_env::profiles;
//! use eh_units::Seconds;
//!
//! let day = profiles::office_desk_mixed(42);
//! assert_eq!(day.duration().as_hours().round(), 24.0);
//! // Midday is brighter than midnight.
//! let midnight = day.value_at(Seconds::from_hours(0.5)).unwrap();
//! let noon = day.value_at(Seconds::from_hours(12.5)).unwrap();
//! assert!(noon > 10.0 * midnight.max(1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lamps;
mod perturb;
pub mod process;
pub mod profiles;
pub mod sampling_error;
pub mod season;
mod series;
pub mod solar;
pub mod weather;
pub mod week;

pub use perturb::TracePerturbation;
pub use series::TimeSeries;
