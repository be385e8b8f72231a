//! Thermoelectric generator (TEG) model.
//!
//! §I of the paper notes the proposed technique "is also applicable to
//! other forms of energy harvesting (such as thermoelectric generators)
//! which feature a similar relationship between the open-circuit and MPP
//! voltage" (citing Laird et al. \[9\]). A TEG is a Thévenin source:
//! `Voc = S·ΔT` with internal resistance `R`, so maximum power transfer
//! occurs at exactly `Vmpp = Voc / 2` — i.e. `k = 0.5`.

use eh_units::{Amps, Error, Ohms, Ratio, Volts, Watts};

use crate::mpp::MppPoint;

/// A thermoelectric generator: Seebeck voltage source behind an internal
/// resistance.
///
/// ```
/// use eh_pv::teg::Teg;
/// use eh_units::Ohms;
///
/// let teg = Teg::new(0.05, Ohms::new(5.0))?;
/// let mpp = teg.mpp(20.0); // 20 K gradient
/// assert!((mpp.focv_factor().value() - 0.5).abs() < 1e-12);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Teg {
    seebeck_v_per_k: f64,
    internal_resistance: Ohms,
}

impl Teg {
    /// Creates a TEG with the given Seebeck coefficient (volts per kelvin
    /// of gradient) and internal resistance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive or
    /// non-finite parameters.
    pub fn new(seebeck_v_per_k: f64, internal_resistance: Ohms) -> Result<Self, Error> {
        if !(seebeck_v_per_k.is_finite() && seebeck_v_per_k > 0.0) {
            return Err(Error::InvalidParameter {
                name: "seebeck_v_per_k",
                value: seebeck_v_per_k,
            });
        }
        if !(internal_resistance.value().is_finite() && internal_resistance.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "internal_resistance",
                value: internal_resistance.value(),
            });
        }
        Ok(Self {
            seebeck_v_per_k,
            internal_resistance,
        })
    }

    /// Open-circuit voltage for a temperature gradient `delta_t_kelvin`.
    pub fn open_circuit_voltage(&self, delta_t_kelvin: f64) -> Volts {
        Volts::new(self.seebeck_v_per_k * delta_t_kelvin.max(0.0))
    }

    /// Terminal current when held at voltage `v` with gradient
    /// `delta_t_kelvin`: `(Voc − V)/R`, clamped at zero for `V ≥ Voc`.
    pub fn current_at(&self, v: Volts, delta_t_kelvin: f64) -> Amps {
        let voc = self.open_circuit_voltage(delta_t_kelvin);
        if v >= voc {
            return Amps::ZERO;
        }
        (voc - v.max(Volts::ZERO)) / self.internal_resistance
    }

    /// Output power at terminal voltage `v`.
    pub fn power_at(&self, v: Volts, delta_t_kelvin: f64) -> Watts {
        v.max(Volts::ZERO) * self.current_at(v, delta_t_kelvin)
    }

    /// The maximum power point: exactly half the open-circuit voltage.
    pub fn mpp(&self, delta_t_kelvin: f64) -> MppPoint {
        let voc = self.open_circuit_voltage(delta_t_kelvin);
        let v = voc * 0.5;
        let i = self.current_at(v, delta_t_kelvin);
        MppPoint {
            voltage: v,
            current: i,
            power: v * i,
            open_circuit_voltage: voc,
        }
    }

    /// The FOCV factor of an ideal TEG is exactly one half.
    pub fn focv_factor(&self) -> Ratio {
        Ratio::new(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn teg() -> Teg {
        Teg::new(0.05, Ohms::new(10.0)).unwrap()
    }

    #[test]
    fn validation() {
        assert!(Teg::new(0.0, Ohms::new(1.0)).is_err());
        assert!(Teg::new(0.05, Ohms::ZERO).is_err());
        assert!(Teg::new(f64::NAN, Ohms::new(1.0)).is_err());
    }

    #[test]
    fn voc_linear_in_gradient() {
        let t = teg();
        assert_eq!(t.open_circuit_voltage(10.0), Volts::new(0.5));
        assert_eq!(t.open_circuit_voltage(20.0), Volts::new(1.0));
        assert_eq!(t.open_circuit_voltage(-5.0), Volts::ZERO);
    }

    #[test]
    fn mpp_at_half_voc() {
        let t = teg();
        let mpp = t.mpp(20.0);
        assert_eq!(mpp.voltage, Volts::new(0.5));
        assert!((mpp.focv_factor().value() - 0.5).abs() < 1e-12);
        // P = Voc²/(4R) = 1/(40) = 25 mW
        assert!((mpp.power.as_milli() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn mpp_power_beats_neighbours() {
        let t = teg();
        let mpp = t.mpp(15.0);
        for dv in [-0.1, 0.1] {
            let p = t.power_at(mpp.voltage + Volts::new(dv), 15.0);
            assert!(p <= mpp.power);
        }
    }

    #[test]
    fn current_clamps_beyond_voc() {
        let t = teg();
        assert_eq!(t.current_at(Volts::new(2.0), 10.0), Amps::ZERO);
        assert_eq!(t.power_at(Volts::new(-1.0), 10.0), Watts::ZERO);
    }
}
