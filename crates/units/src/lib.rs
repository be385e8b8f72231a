//! Typed physical quantities for the energy-harvesting MPPT reproduction.
//!
//! Every quantity that crosses a module boundary in this workspace is a
//! dedicated newtype over `f64` ([`Volts`], [`Amps`], [`Watts`], [`Lux`],
//! ...) so the compiler catches unit confusion (C-NEWTYPE). Quantities
//! support the physically meaningful arithmetic — `Volts * Amps = Watts`,
//! `Watts * Seconds = Joules`, `Volts / Ohms = Amps`, and so on — and
//! format themselves with SI prefixes.
//!
//! Every library crate depends on this one, so it also holds [`Error`],
//! the workspace's one error type, and [`Memo`], the one bounded,
//! single-flight cache behind the PV surface registry and the
//! service's response cache.
//!
//! # Examples
//!
//! ```
//! use eh_units::{Volts, Amps, Watts, Seconds};
//!
//! let v = Volts::new(3.3);
//! let i = Amps::from_micro(7.6);
//! let p: Watts = v * i;
//! assert!((p.value() - 25.08e-6).abs() < 1e-12);
//! assert_eq!(format!("{p}"), "25.08 µW");
//!
//! let e = p * Seconds::new(60.0);
//! assert!((e.value() - 1.5048e-3).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod format;
mod memo;
mod ops;
mod quantity;
mod temperature;

pub use error::Error;
pub use format::format_si;
pub use memo::{Lookup, Memo, MemoStats};
pub use quantity::{
    Amps, Coulombs, Farads, Hertz, Joules, Lux, Ohms, Ratio, Seconds, Volts, Watts,
};
pub use temperature::{Celsius, Kelvin};

/// Boltzmann constant over elementary charge, in volts per kelvin.
///
/// Used by the PV diode model to compute the thermal voltage
/// `Vt = K_OVER_Q * T`.
pub const K_OVER_Q: f64 = 8.617_333_262e-5;

/// Thermal voltage at a given absolute temperature.
///
/// # Examples
///
/// ```
/// use eh_units::{thermal_voltage, Kelvin};
/// let vt = thermal_voltage(Kelvin::new(300.0));
/// assert!((vt.value() - 0.025852).abs() < 1e-5);
/// ```
pub fn thermal_voltage(t: Kelvin) -> Volts {
    Volts::new(K_OVER_Q * t.value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_voltage_room_temperature() {
        let vt = thermal_voltage(Celsius::new(25.0).to_kelvin());
        assert!((vt.value() - 0.02569).abs() < 2e-4, "vt = {vt}");
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Volts>();
        assert_send_sync::<Amps>();
        assert_send_sync::<Watts>();
        assert_send_sync::<Lux>();
        assert_send_sync::<Seconds>();
        assert_send_sync::<Kelvin>();
    }
}
