//! Photovoltaic cell modelling for the DATE 2011 ultra low-power MPPT
//! reproduction.
//!
//! The paper ([Weddell et al., DATE 2011]) evaluates its sample-and-hold
//! FOCV MPPT technique with two amorphous-silicon (a-Si) PV modules:
//! a Schott Solar 1116929 (Fig. 1/Fig. 2) and a SANYO Amorton AM-1815
//! (Table I and the evaluation). This crate provides the electrical model
//! of such cells:
//!
//! * [`SingleDiodeModel`] — a single-diode equivalent circuit with series
//!   resistance and an **illumination-proportional shunt** (photo-shunt),
//!   which reproduces the two defining properties of a-Si cells the paper
//!   relies on: a logarithmic `Voc(lux)` law and an MPP voltage that is an
//!   approximately constant fraction `k ≈ 0.6` of `Voc` (Eq. (1) of the
//!   paper).
//! * [`PvCell`] — a model bound to an operating temperature, exposing
//!   `Voc`, `Isc`, I-V curves and MPP solving.
//! * [`CachedPvSurface`] — a memoized interpolation table over the I-V
//!   surface with a documented error bound, taking the implicit solver
//!   off the simulation hot path (enable per cell with
//!   [`PvCell::with_cache`]), built once per `(model, temperature)`
//!   per process and shared through the [`registry`].
//! * [`presets`] — parameter sets fitted to the paper's own measurements
//!   (Table I) and the AM-1815 datasheet.
//! * [`focv`] — fractional-open-circuit-voltage analysis: `k(lux)`, and
//!   the efficiency loss incurred by operating away from the true MPP
//!   (used by the paper's §II-B argument that a 60 s hold period costs
//!   <1 % efficiency).
//! * [`teg`] — a thermoelectric generator model; §I notes the technique
//!   also applies to TEGs, whose MPP is at exactly half the open-circuit
//!   voltage.
//!
//! # Quickstart
//!
//! ```
//! use eh_pv::presets;
//! use eh_units::Lux;
//!
//! let cell = presets::sanyo_am1815();
//! let voc = cell.open_circuit_voltage(Lux::new(1000.0))?;
//! let mpp = cell.mpp(Lux::new(1000.0))?;
//! assert!((voc.value() - 5.44).abs() < 0.05);
//! assert!(mpp.voltage < voc);
//! # Ok::<(), eh_units::Error>(())
//! ```
//!
//! [Weddell et al., DATE 2011]: https://eprints.soton.ac.uk/271584/

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
mod cache;
mod cell;
mod curve;
pub mod fit;
pub mod focv;
pub mod irradiance;
mod model;
mod mpp;
pub mod presets;
pub mod registry;
pub mod spectrum;
pub mod teg;
pub mod thermal;

pub use cache::{CachedPvSurface, ConnectPoint, LuxCursor};
pub use cell::PvCell;
pub use curve::{CurvePoint, IvCurve};
pub use irradiance::{LightSource, LuminousEfficacy};
pub use model::SingleDiodeModel;
pub use mpp::MppPoint;
