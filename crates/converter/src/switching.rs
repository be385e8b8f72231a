//! Cycle-level model of the modified buck-boost power stage.
//!
//! The behavioural [`EfficiencyModel`](crate::EfficiencyModel) used by
//! the system simulations is a three-term loss surface; this module
//! derives such a surface from first principles: an inductor-based
//! buck-boost switching cycle with conduction, diode, gate-charge and
//! controller losses, operating in discontinuous conduction mode (DCM)
//! at the µW–mW levels of indoor harvesting.
//!
//! The paper's converter is "a modified buck-boost converter" derived
//! from [Weddell'08]; component-level values are not given, so this
//! model documents a plausible micropower design (47 µH class inductor,
//! tens of kHz) and is validated against the behavioural loss surface.

use eh_units::{Amps, Error, Ratio, Seconds, Volts, Watts};

/// Conduction mode of the inductor current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConductionMode {
    /// Inductor current returns to zero every cycle (light load).
    Discontinuous,
    /// Inductor current never reaches zero (heavy load).
    Continuous,
}

/// One solved switching operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingOperatingPoint {
    /// Switch on-time per cycle.
    pub on_time: Seconds,
    /// Peak inductor current.
    pub peak_current: Amps,
    /// Conduction mode.
    pub mode: ConductionMode,
    /// Power lost in switch and inductor resistance.
    pub conduction_loss: Watts,
    /// Power lost in the freewheeling diode.
    pub diode_loss: Watts,
    /// Gate-drive and controller losses.
    pub fixed_loss: Watts,
    /// Net output power.
    pub output_power: Watts,
}

impl SwitchingOperatingPoint {
    /// Conversion efficiency at this point.
    pub fn efficiency(&self, input_power: Watts) -> Ratio {
        if input_power.value() <= 0.0 {
            return Ratio::ZERO;
        }
        Ratio::new((self.output_power / input_power).clamp(0.0, 1.0))
    }
}

/// The cycle-level buck-boost stage.
///
/// ```
/// use eh_converter::switching::SwitchingStage;
/// use eh_units::{Amps, Volts};
///
/// let stage = SwitchingStage::micropower_prototype()?;
/// let op = stage.operating_point(Volts::new(3.0), Amps::from_micro(42.0), Volts::new(3.3))?;
/// let eta = op.efficiency(Volts::new(3.0) * Amps::from_micro(42.0));
/// assert!(eta.value() > 0.5 && eta.value() < 1.0);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingStage {
    inductance_h: f64,
    switching_frequency_hz: f64,
    switch_resistance_ohm: f64,
    diode_drop_v: f64,
    gate_energy_j: f64,
    controller_power_w: f64,
}

impl SwitchingStage {
    /// Creates a stage with explicit component values.
    ///
    /// # Errors
    ///
    /// Rejects non-positive inductance or frequency, or negative losses.
    pub fn new(
        inductance_h: f64,
        switching_frequency_hz: f64,
        switch_resistance_ohm: f64,
        diode_drop_v: f64,
        gate_energy_j: f64,
        controller_power_w: f64,
    ) -> Result<Self, Error> {
        for (name, v, strict) in [
            ("inductance", inductance_h, true),
            ("switching_frequency", switching_frequency_hz, true),
            ("switch_resistance", switch_resistance_ohm, false),
            ("diode_drop", diode_drop_v, false),
            ("gate_energy", gate_energy_j, false),
            ("controller_power", controller_power_w, false),
        ] {
            let ok = v.is_finite() && if strict { v > 0.0 } else { v >= 0.0 };
            if !ok {
                return Err(Error::InvalidParameter { name, value: v });
            }
        }
        Ok(Self {
            inductance_h,
            switching_frequency_hz,
            switch_resistance_ohm,
            diode_drop_v,
            gate_energy_j,
            controller_power_w,
        })
    }

    /// A plausible micropower prototype: 47 µH, 25 kHz (pulse-skipping
    /// at light load), 1.5 Ω switch, 0.3 V Schottky, 15 pJ of gate charge
    /// per cycle, 1 µW controller.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; mirrors [`SwitchingStage::new`].
    pub fn micropower_prototype() -> Result<Self, Error> {
        Self::new(47e-6, 25_000.0, 1.5, 0.3, 15e-12, 1e-6)
    }

    /// The switching frequency.
    pub fn switching_frequency_hz(&self) -> f64 {
        self.switching_frequency_hz
    }

    /// Solves the cycle for a demanded average input current at a given
    /// input (PV) and output (storage) voltage.
    ///
    /// In DCM the controller picks the on-time so the cycle-averaged
    /// input current equals `i_in`:
    /// `t_on = sqrt(2·L·i_in / (v_in·f))`, `I_pk = v_in·t_on/L`.
    /// A pulse-skipping controller keeps this valid down to nA-scale
    /// loads. If `t_on + t_off` exceeds the period the stage is in CCM
    /// and the ripple analysis switches accordingly.
    ///
    /// # Errors
    ///
    /// Rejects non-positive voltages or negative current.
    pub fn operating_point(
        &self,
        v_in: Volts,
        i_in: Amps,
        v_out: Volts,
    ) -> Result<SwitchingOperatingPoint, Error> {
        if !(v_in.value() > 0.0 && v_out.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "voltages",
                value: v_in.value().min(v_out.value()),
            });
        }
        if !(i_in.value() >= 0.0 && i_in.value().is_finite()) {
            return Err(Error::InvalidParameter {
                name: "input_current",
                value: i_in.value(),
            });
        }
        let l = self.inductance_h;
        let f = self.switching_frequency_hz;
        let period = 1.0 / f;
        let vin = v_in.value();
        let vout = v_out.value();
        let iin = i_in.value();
        let p_in = vin * iin;

        if iin == 0.0 {
            return Ok(SwitchingOperatingPoint {
                on_time: Seconds::ZERO,
                peak_current: Amps::ZERO,
                mode: ConductionMode::Discontinuous,
                conduction_loss: Watts::ZERO,
                diode_loss: Watts::ZERO,
                fixed_loss: Watts::new(self.controller_power_w),
                output_power: Watts::ZERO,
            });
        }

        // DCM solution.
        let t_on = (2.0 * l * iin / (vin * f)).sqrt();
        let i_pk = vin * t_on / l;
        let t_off = i_pk * l / (vout + self.diode_drop_v);
        let (mode, t_on, i_pk, t_off) = if t_on + t_off <= period {
            (ConductionMode::Discontinuous, t_on, i_pk, t_off)
        } else {
            // CCM: duty from the voltage ratio, ripple around the mean.
            let duty = (vout + self.diode_drop_v) / (vin + vout + self.diode_drop_v);
            let t_on_ccm = duty * period;
            let i_mean = iin / duty;
            let ripple = vin * t_on_ccm / l;
            (
                ConductionMode::Continuous,
                t_on_ccm,
                i_mean + 0.5 * ripple,
                period - t_on_ccm,
            )
        };

        // RMS current through the switch (triangle during t_on).
        let i_rms_on_sq = i_pk * i_pk / 3.0 * (t_on * f);
        let conduction = i_rms_on_sq * self.switch_resistance_ohm;
        // Diode conducts the falling triangle during t_off.
        let i_avg_off = 0.5 * i_pk * (t_off * f);
        let diode = i_avg_off * self.diode_drop_v;
        // Pulse-skipping: gate energy is only paid on cycles that switch.
        // The DCM solution above assumes one pulse per period, so the
        // fixed losses are per-period gate charge plus the controller.
        let fixed = self.gate_energy_j * f + self.controller_power_w;

        let output = (p_in - conduction - diode - fixed).max(0.0);
        Ok(SwitchingOperatingPoint {
            on_time: Seconds::new(t_on),
            peak_current: Amps::new(i_pk),
            mode,
            conduction_loss: Watts::new(conduction),
            diode_loss: Watts::new(diode),
            fixed_loss: Watts::new(fixed),
            output_power: Watts::new(output),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EfficiencyModel;

    fn stage() -> SwitchingStage {
        SwitchingStage::micropower_prototype().unwrap()
    }

    #[test]
    fn validation() {
        assert!(SwitchingStage::new(0.0, 25e3, 1.5, 0.3, 1e-12, 1e-6).is_err());
        assert!(SwitchingStage::new(47e-6, 0.0, 1.5, 0.3, 1e-12, 1e-6).is_err());
        assert!(SwitchingStage::new(47e-6, 25e3, -1.0, 0.3, 1e-12, 1e-6).is_err());
        let s = stage();
        assert!(s
            .operating_point(Volts::ZERO, Amps::new(1e-5), Volts::new(3.3))
            .is_err());
        assert!(s
            .operating_point(Volts::new(3.0), Amps::new(-1.0), Volts::new(3.3))
            .is_err());
    }

    #[test]
    fn indoor_point_is_dcm_and_efficient() {
        // The AM-1815's 200 lux MPP: 42 µA at 3.0 V.
        let s = stage();
        let op = s
            .operating_point(Volts::new(3.0), Amps::from_micro(42.0), Volts::new(3.3))
            .unwrap();
        assert_eq!(op.mode, ConductionMode::Discontinuous);
        let eta = op.efficiency(Volts::new(3.0) * Amps::from_micro(42.0));
        assert!(eta.value() > 0.6 && eta.value() < 0.95, "indoor η = {eta}");
    }

    #[test]
    fn heavy_load_enters_ccm() {
        // The DCM/CCM boundary for this stage sits near 380 mA of input
        // current (≈1.1 W at 3 V) — far above harvesting levels, which is
        // the design point: the converter lives its whole life in DCM.
        let s = stage();
        let op = s
            .operating_point(Volts::new(3.0), Amps::from_milli(500.0), Volts::new(3.3))
            .unwrap();
        assert_eq!(op.mode, ConductionMode::Continuous);
        assert!(op.peak_current.value() > 0.5);
        // And a typical harvesting load is firmly DCM.
        let op = s
            .operating_point(Volts::new(3.0), Amps::from_milli(1.0), Volts::new(3.3))
            .unwrap();
        assert_eq!(op.mode, ConductionMode::Discontinuous);
    }

    #[test]
    fn zero_current_costs_only_the_controller() {
        let s = stage();
        let op = s
            .operating_point(Volts::new(3.0), Amps::ZERO, Volts::new(3.3))
            .unwrap();
        assert_eq!(op.output_power, Watts::ZERO);
        assert!((op.fixed_loss.value() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn dcm_on_time_reproduces_demanded_current() {
        // Cycle arithmetic consistency: charge per period / period = i_in.
        let s = stage();
        let v_in = Volts::new(3.0);
        let i_in = Amps::from_micro(200.0);
        let op = s.operating_point(v_in, i_in, Volts::new(3.3)).unwrap();
        let f = s.switching_frequency_hz();
        let charge_per_cycle = 0.5 * op.peak_current.value() * op.on_time.value();
        let i_avg = charge_per_cycle * f;
        assert!(
            (i_avg - i_in.value()).abs() < 1e-9,
            "avg {i_avg} vs demanded {}",
            i_in.value()
        );
    }

    #[test]
    fn efficiency_curve_shape_matches_behavioural_model() {
        // The behavioural three-term loss surface should approximate the
        // cycle model over the harvesting range (50 µW – 5 mW): same
        // rising-then-plateau shape, within ~12 points everywhere.
        let s = stage();
        let m = EfficiencyModel::micropower_buck_boost().unwrap();
        let v_in = Volts::new(3.0);
        let mut prev_cycle = 0.0;
        for p_uw in [50.0, 126.0, 400.0, 1000.0, 5000.0] {
            let p = Watts::from_micro(p_uw);
            let i = p / v_in;
            let op = s.operating_point(v_in, i, Volts::new(3.3)).unwrap();
            let eta_cycle = op.efficiency(p).value();
            let eta_model = m.efficiency(p).value();
            assert!(
                (eta_cycle - eta_model).abs() < 0.12,
                "at {p_uw} µW: cycle {eta_cycle:.3} vs model {eta_model:.3}"
            );
            assert!(eta_cycle >= prev_cycle - 0.02, "roughly monotone rise");
            prev_cycle = eta_cycle;
        }
    }

    #[test]
    fn loss_breakdown_sums() {
        let s = stage();
        let v_in = Volts::new(3.0);
        let i_in = Amps::from_micro(500.0);
        let op = s.operating_point(v_in, i_in, Volts::new(3.3)).unwrap();
        let p_in = (v_in * i_in).value();
        let sum = op.output_power.value()
            + op.conduction_loss.value()
            + op.diode_loss.value()
            + op.fixed_loss.value();
        assert!((sum - p_in).abs() < 1e-12, "sum {sum} vs in {p_in}");
    }
}
