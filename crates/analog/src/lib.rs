//! Behavioural analog circuit substrate for the DATE 2011 MPPT
//! reproduction.
//!
//! The paper's contribution is an *analog* metrology chain: a micropower
//! comparator astable multivibrator that generates the PULSE timing, and
//! a sample-and-hold circuit (input buffer → analog switch → low-leakage
//! hold capacitor → output buffer) that freezes a fraction of the PV
//! module's open-circuit voltage on the `HELD_SAMPLE` line. This crate
//! models those circuits at behavioural level with the parameters that
//! determine the paper's figures of merit:
//!
//! * supply currents of every active part (LMC7215-class comparators,
//!   micropower op-amp buffers) — integrated by a [`CurrentLedger`] to
//!   reproduce the measured 7.6 µA average draw (§IV-A);
//! * RC timing of the astable (39 ms ON / 69 s OFF);
//! * switch on-resistance, charge injection and off-leakage, capacitor
//!   self-leakage and buffer bias currents — which set the sampling
//!   settling time, the `HELD_SAMPLE` ripple of Fig. 4, and the hold
//!   droop over the 69 s hold period.
//!
//! Every block steps in closed form on the exact first-order [`rc`]
//! updates: the circuits here are piecewise-RC, and the astable switches
//! at its threshold network's fixed fractions of the rail, so the
//! exponential updates are exact rather than approximate.
//!
//! # Example: the paper's astable timing
//!
//! ```
//! use eh_analog::astable::AstableMultivibrator;
//!
//! let astable = AstableMultivibrator::paper_configuration()?;
//! let (t_on, t_off) = astable.analytic_periods();
//! assert!((t_on.as_milli() - 39.0).abs() < 2.0);
//! assert!((t_off.value() - 69.0).abs() < 3.0);
//! # Ok::<(), eh_analog::AnalogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod astable;
pub mod components;
mod error;
mod ledger;
pub mod rc;
pub mod sample_hold;
mod trace;

pub use error::AnalogError;
pub use ledger::{CurrentLedger, LedgerEntry};
pub use trace::Trace;
