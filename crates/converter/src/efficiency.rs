//! The converter's loss surface.
//!
//! Micropower switching converters lose power three ways: a fixed
//! quiescent overhead (gate drive, control), losses proportional to the
//! throughput (diode/switch conduction at fixed voltage), and ohmic
//! losses quadratic in throughput. Efficiency therefore rises steeply
//! once the input power clears the quiescent floor, plateaus, and
//! eventually rolls off — the standard bathtub-complement shape.

use eh_units::{Error, Ratio, Watts};

/// Converter efficiency model `η(P_in)` built from a three-term loss
/// decomposition: `P_loss = P_q + a·P_in + (P_in²/P_knee)·b`.
///
/// ```
/// use eh_converter::EfficiencyModel;
/// use eh_units::Watts;
///
/// let model = EfficiencyModel::micropower_buck_boost()?;
/// // At the AM-1815's 200 lux MPP (~126 µW) the converter is usable.
/// let eta = model.efficiency(Watts::from_micro(126.0));
/// assert!(eta.value() > 0.5);
/// // Deep below the quiescent floor it collapses.
/// assert!(model.efficiency(Watts::from_micro(2.0)).value() < 0.4);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyModel {
    quiescent: Watts,
    proportional_loss: f64,
    quadratic_knee: Watts,
    quadratic_coeff: f64,
}

impl EfficiencyModel {
    /// Creates a loss model.
    ///
    /// # Errors
    ///
    /// Rejects negative quiescent power, proportional loss outside
    /// `[0, 1)`, or non-positive quadratic knee.
    pub fn new(
        quiescent: Watts,
        proportional_loss: f64,
        quadratic_knee: Watts,
        quadratic_coeff: f64,
    ) -> Result<Self, Error> {
        if !(quiescent.value().is_finite() && quiescent.value() >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "quiescent",
                value: quiescent.value(),
            });
        }
        if !(0.0..1.0).contains(&proportional_loss) {
            return Err(Error::InvalidParameter {
                name: "proportional_loss",
                value: proportional_loss,
            });
        }
        if !(quadratic_knee.value().is_finite() && quadratic_knee.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "quadratic_knee",
                value: quadratic_knee.value(),
            });
        }
        if !(quadratic_coeff.is_finite() && quadratic_coeff >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "quadratic_coeff",
                value: quadratic_coeff,
            });
        }
        Ok(Self {
            quiescent,
            proportional_loss,
            quadratic_knee,
            quadratic_coeff,
        })
    }

    /// A micropower buck-boost in the class of the paper's converter:
    /// 1.5 µW quiescent, 12 % proportional loss, quadratic roll-off knee
    /// at 50 mW. Peak efficiency ≈ 85 % — consistent with the efficient
    /// small harvesters the paper cites ([Brunelli'08], [Weddell'08]).
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors
    /// [`EfficiencyModel::new`].
    pub fn micropower_buck_boost() -> Result<Self, Error> {
        Self::new(Watts::from_micro(1.5), 0.12, Watts::from_milli(50.0), 0.08)
    }

    /// The quiescent (fixed) loss.
    pub fn quiescent(&self) -> Watts {
        self.quiescent
    }

    /// Total losses at a given input power.
    #[inline]
    pub fn losses(&self, input: Watts) -> Watts {
        let p = input.value().max(0.0);
        let quadratic = self.quadratic_coeff * p * p / self.quadratic_knee.value();
        Watts::new(self.quiescent.value() + self.proportional_loss * p + quadratic)
    }

    /// Output power for a given input power (clamped at zero).
    #[inline]
    pub fn output_power(&self, input: Watts) -> Watts {
        Watts::new((input.value() - self.losses(input).value()).max(0.0))
    }

    /// Conversion efficiency `P_out/P_in` (zero for zero input).
    pub fn efficiency(&self, input: Watts) -> Ratio {
        if input.value() <= 0.0 {
            return Ratio::ZERO;
        }
        Ratio::new(self.output_power(input) / input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EfficiencyModel {
        EfficiencyModel::micropower_buck_boost().unwrap()
    }

    #[test]
    fn validation() {
        assert!(EfficiencyModel::new(Watts::new(-1.0), 0.1, Watts::new(1.0), 0.1).is_err());
        assert!(EfficiencyModel::new(Watts::ZERO, 1.0, Watts::new(1.0), 0.1).is_err());
        assert!(EfficiencyModel::new(Watts::ZERO, 0.1, Watts::ZERO, 0.1).is_err());
        assert!(EfficiencyModel::new(Watts::ZERO, 0.1, Watts::new(1.0), -0.1).is_err());
    }

    #[test]
    fn efficiency_shape() {
        let m = model();
        // Rising region.
        let e10 = m.efficiency(Watts::from_micro(10.0)).value();
        let e100 = m.efficiency(Watts::from_micro(100.0)).value();
        let e1000 = m.efficiency(Watts::from_micro(1000.0)).value();
        assert!(e10 < e100 && e100 < e1000, "{e10} {e100} {e1000}");
        // Plateau in the mW range.
        let e_plateau = m.efficiency(Watts::from_milli(5.0)).value();
        assert!(e_plateau > 0.8, "plateau = {e_plateau}");
        // Roll-off far beyond the knee.
        let e_high = m.efficiency(Watts::new(0.5)).value();
        assert!(e_high < e_plateau);
    }

    #[test]
    fn below_quiescent_floor_nothing_comes_out() {
        let m = model();
        assert_eq!(m.output_power(Watts::from_micro(1.0)), Watts::ZERO);
        assert_eq!(m.efficiency(Watts::ZERO), Ratio::ZERO);
        assert_eq!(m.efficiency(Watts::new(-1.0)), Ratio::ZERO);
    }

    #[test]
    fn losses_monotone_in_input() {
        let m = model();
        let mut prev = -1.0;
        for p in [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2] {
            let l = m.losses(Watts::new(p)).value();
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn output_never_exceeds_input() {
        let m = model();
        for p in [1e-7, 1e-6, 1e-4, 1e-2, 1.0] {
            assert!(m.output_power(Watts::new(p)).value() <= p);
        }
    }
}
