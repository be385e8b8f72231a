//! The input-regulated buck-boost converter.

use eh_units::{Error, Joules, Seconds, Volts, Watts};

use crate::efficiency::EfficiencyModel;

/// Result of one harvesting step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarvestResult {
    /// Power taken from the PV module.
    pub input_power: Watts,
    /// Power delivered to the energy store.
    pub output_power: Watts,
    /// Energy delivered during the step.
    pub output_energy: Joules,
    /// Power dissipated in the converter.
    pub losses: Watts,
}

impl HarvestResult {
    /// A step in which the converter was idle.
    pub fn idle() -> Self {
        Self {
            input_power: Watts::ZERO,
            output_power: Watts::ZERO,
            output_energy: Joules::ZERO,
            losses: Watts::ZERO,
        }
    }
}

/// Behavioural model of the paper's modified buck-boost: an
/// input-voltage-regulated power stage.
///
/// The regulation loop is assumed fast relative to the simulation step
/// (the real converter switches at tens of kHz; the system steps at
/// milliseconds and up), so within a step the PV node is held exactly at
/// the commanded voltage and the transferred power is
/// `η(P_in)·V_in·I_pv(V_in)`. The converter refuses to operate below a
/// minimum input voltage (its control circuitry dropout).
///
/// ```
/// use eh_converter::{EfficiencyModel, InputRegulatedConverter};
/// use eh_units::{Amps, Seconds, Volts};
///
/// let conv = InputRegulatedConverter::paper_prototype()?;
/// let r = conv.harvest(Volts::new(3.0), Amps::from_micro(42.0), Seconds::new(1.0));
/// assert!(r.output_power.value() > 0.0);
/// assert!(r.output_power < r.input_power);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InputRegulatedConverter {
    efficiency: EfficiencyModel,
    min_input_voltage: Volts,
}

impl InputRegulatedConverter {
    /// Creates a converter from a loss model and minimum operating input
    /// voltage.
    ///
    /// # Errors
    ///
    /// Rejects a negative minimum input voltage.
    pub fn new(efficiency: EfficiencyModel, min_input_voltage: Volts) -> Result<Self, Error> {
        if !(min_input_voltage.value().is_finite() && min_input_voltage.value() >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "min_input_voltage",
                value: min_input_voltage.value(),
            });
        }
        Ok(Self {
            efficiency,
            min_input_voltage,
        })
    }

    /// The prototype configuration: micropower loss surface, 0.8 V
    /// minimum input.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors
    /// [`InputRegulatedConverter::new`].
    pub fn paper_prototype() -> Result<Self, Error> {
        Self::new(EfficiencyModel::micropower_buck_boost()?, Volts::new(0.8))
    }

    /// Minimum input voltage for operation.
    pub fn min_input_voltage(&self) -> Volts {
        self.min_input_voltage
    }

    /// Harvests for `dt` with the PV node regulated at `v_in` where the
    /// module supplies `i_pv`. Returns an idle result if the operating
    /// point is below the converter's minimum input voltage or produces
    /// no net output.
    #[inline]
    pub fn harvest(&self, v_in: Volts, i_pv: eh_units::Amps, dt: Seconds) -> HarvestResult {
        if v_in < self.min_input_voltage || i_pv.value() <= 0.0 || dt.value() <= 0.0 {
            return HarvestResult::idle();
        }
        let input_power = v_in * i_pv;
        let output_power = self.efficiency.output_power(input_power);
        HarvestResult {
            input_power,
            output_power,
            output_energy: output_power * dt,
            losses: Watts::new(input_power.value() - output_power.value()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_units::Amps;

    fn conv() -> InputRegulatedConverter {
        InputRegulatedConverter::paper_prototype().unwrap()
    }

    #[test]
    fn validation() {
        assert!(InputRegulatedConverter::new(
            EfficiencyModel::micropower_buck_boost().unwrap(),
            Volts::new(-0.1)
        )
        .is_err());
    }

    #[test]
    fn harvest_energy_balance() {
        let c = conv();
        let r = c.harvest(Volts::new(3.0), Amps::from_micro(100.0), Seconds::new(10.0));
        assert!((r.input_power.as_micro() - 300.0).abs() < 1e-9);
        assert!((r.input_power.value() - r.output_power.value() - r.losses.value()).abs() < 1e-15);
        assert!((r.output_energy.value() - r.output_power.value() * 10.0).abs() < 1e-15);
    }

    #[test]
    fn refuses_below_minimum_input() {
        let c = conv();
        let r = c.harvest(Volts::new(0.5), Amps::from_milli(1.0), Seconds::new(1.0));
        assert_eq!(r, HarvestResult::idle());
    }

    #[test]
    fn idle_on_zero_current_or_time() {
        let c = conv();
        assert_eq!(
            c.harvest(Volts::new(3.0), Amps::ZERO, Seconds::new(1.0)),
            HarvestResult::idle()
        );
        assert_eq!(
            c.harvest(Volts::new(3.0), Amps::new(1e-3), Seconds::ZERO),
            HarvestResult::idle()
        );
    }

    #[test]
    fn tiny_input_yields_nothing_but_wastes_it() {
        let c = conv();
        // 1 µW input is below the 1.5 µW quiescent floor.
        let r = c.harvest(Volts::new(1.0), Amps::from_micro(1.0), Seconds::new(1.0));
        assert_eq!(r.output_power, Watts::ZERO);
        assert!((r.losses.value() - r.input_power.value()).abs() < 1e-15);
    }

    #[test]
    fn efficiency_accessor_consistent() {
        let c = conv();
        let p = Watts::from_micro(500.0);
        let eta = EfficiencyModel::micropower_buck_boost()
            .unwrap()
            .efficiency(p);
        let r = c.harvest(Volts::new(2.5), Amps::from_micro(200.0), Seconds::new(1.0));
        assert!((r.output_power.value() / r.input_power.value() - eta.value()).abs() < 1e-12);
    }
}
