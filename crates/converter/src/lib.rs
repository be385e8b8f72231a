//! The switching-converter substrate of the DATE 2011 MPPT reproduction.
//!
//! The paper's converter (§III-A) is a modified buck-boost derived from
//! the authors' earlier indoor harvester [Weddell'08]. Its defining
//! behaviour for this system is *input-voltage regulation*: "during
//! normal operation, this circuit acts to maintain a constant voltage
//! across its input terminals in order to keep the PV module at a voltage
//! indicated by `HELD_SAMPLE`". The converter design itself is explicitly
//! not the paper's focus, so the model here is behavioural:
//!
//! * [`InputRegulatedConverter`] — holds the PV node at the commanded
//!   voltage and transfers the harvested power to the output through an
//!   [`EfficiencyModel`] loss surface;
//! * [`ColdStart`] — the small capacitor (C1) charged through the
//!   steering diode (D1) that powers the MPPT rail up from a completely
//!   dead system (§III-A, validated at 200 lux in §IV-B).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buckboost;
mod coldstart;
mod efficiency;
pub mod switching;

pub use buckboost::{HarvestResult, InputRegulatedConverter};
pub use coldstart::{ColdStart, ColdStartState};
pub use efficiency::EfficiencyModel;
