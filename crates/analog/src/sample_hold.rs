//! The paper's sample-and-hold arrangement (§III-B).
//!
//! Signal chain: the PV module voltage enters a resistive divider
//! (R1/R2) that scales it by `k·α` (Eq. (3) of the paper:
//! `HELD_SAMPLE = Voc·k·α`); a unity-gain input buffer (U2) drives a
//! low-leakage analog switch; the switch tops up a polyester hold
//! capacitor during each PULSE; an output buffer (U4) presents the held
//! value, smoothed by the R3/C3 ripple filter, as the `HELD_SAMPLE`
//! line; comparator U5 raises `ACTIVE` once a valid sample is held so
//! the switching converter may start.
//!
//! The model tracks everything the paper measures: per-part supply
//! currents (for the 7.6 µA average of §IV-A), the sampling transient
//! and its small `HELD_SAMPLE` ripple (Fig. 4), and the droop of the
//! held value across the 69 s hold period (which §II-B's error budget
//! relies on being negligible).

use eh_units::{Amps, Coulombs, Error, Farads, Ohms, Ratio, Seconds, Volts};

use crate::components::{AnalogSwitch, Capacitor, Comparator, OpAmpBuffer, VoltageDivider};

/// Configuration of the sample-and-hold arrangement.
#[derive(Debug, Clone)]
pub struct SampleHoldConfig {
    /// Supply rail of the metrology chain.
    pub supply_voltage: Volts,
    /// The R1/R2 scaling divider (ratio = `k·α`).
    pub divider: VoltageDivider,
    /// Input unity-gain buffer (U2).
    pub input_buffer: OpAmpBuffer,
    /// Output unity-gain buffer (U4).
    pub output_buffer: OpAmpBuffer,
    /// The sampling analog switch.
    pub switch: AnalogSwitch,
    /// Hold capacitor (low-leakage polyester).
    pub hold_capacitance: Farads,
    /// Ripple filter series resistance (R3).
    pub filter_resistance: Ohms,
    /// Ripple filter capacitance (C3).
    pub filter_capacitance: Farads,
    /// `ACTIVE` threshold as a fraction of the supply rail.
    ///
    /// The paper derives its "arbitrary threshold" by dividing the supply
    /// rail by two; with a fixed 3.3 V bench rail and the AM-1815's
    /// `HELD_SAMPLE` levels (1.48–1.78 V) a one-quarter division keeps
    /// the same any-valid-sample semantics across the full 200 lux–5 klux
    /// range, so that is the default here.
    pub active_threshold_fraction: f64,
    /// Supply current of the `ACTIVE` comparator (U5).
    pub active_comparator_current: Amps,
    /// Each resistor of the U5 threshold divider.
    pub threshold_divider_resistance: Ohms,
    /// Quiescent draw of the M-switch gate-drive and level-shifting
    /// network (M1–M3, M8 of Fig. 3).
    pub auxiliary_current: Amps,
}

impl SampleHoldConfig {
    /// The configuration matching the paper's prototype, with the
    /// divider trimmed to a given `k·α` ratio (default use:
    /// `k ≈ 0.596`, `α = 0.5` → ratio ≈ 0.298, reproducing Table I).
    ///
    /// # Errors
    ///
    /// Rejects ratios outside `(0, 1)`.
    pub fn paper_configuration(division_ratio: f64) -> Result<Self, Error> {
        Ok(Self {
            supply_voltage: Volts::new(3.3),
            divider: VoltageDivider::with_ratio(Ohms::from_mega(5.0), division_ratio)?,
            input_buffer: OpAmpBuffer::micropower(),
            output_buffer: OpAmpBuffer::micropower(),
            switch: AnalogSwitch::low_leakage(),
            hold_capacitance: Farads::from_micro(1.0),
            // R3/C3 corner at ~34 Hz: attenuates the 100 Hz lamp flicker
            // that rides on the divider during sampling, yet settles well
            // within the 39 ms pulse (5τ ≈ 24 ms).
            filter_resistance: Ohms::from_kilo(47.0),
            filter_capacitance: Farads::from_nano(100.0),
            active_threshold_fraction: 0.25,
            active_comparator_current: Amps::from_micro(0.8),
            threshold_divider_resistance: Ohms::from_mega(15.0),
            auxiliary_current: Amps::from_micro(2.15),
        })
    }
}

/// Result of advancing the sample-and-hold by one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleHoldStep {
    /// The `HELD_SAMPLE` line voltage (after the R3/C3 filter).
    pub held_sample: Volts,
    /// Whether `ACTIVE` is asserted.
    pub active: bool,
    /// Charge drawn from the supply rail during the step.
    pub supply_charge: Coulombs,
    /// Charge drawn from the PV node by the measurement divider during
    /// the step (non-zero only while sampling).
    pub pv_charge: Coulombs,
}

/// The steppable sample-and-hold block.
///
/// ```
/// use eh_analog::sample_hold::{SampleHold, SampleHoldConfig};
/// use eh_units::{Seconds, Volts};
///
/// let mut sh = SampleHold::new(SampleHoldConfig::paper_configuration(0.298)?)?;
/// // One 39 ms PULSE sampling a 5.44 V open-circuit voltage:
/// let step = sh.step(Volts::new(5.44), true, Seconds::from_milli(39.0));
/// assert!((step.held_sample.value() - 5.44 * 0.298).abs() < 0.01);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct SampleHold {
    config: SampleHoldConfig,
    hold_cap: Capacitor,
    filter_cap: Capacitor,
    switch: AnalogSwitch,
    active_comparator: Comparator,
    time: Seconds,
}

impl SampleHold {
    /// Builds the block from a configuration.
    ///
    /// # Errors
    ///
    /// Rejects non-positive capacitances or filter resistance.
    pub fn new(config: SampleHoldConfig) -> Result<Self, Error> {
        let hold_cap = Capacitor::polyester(config.hold_capacitance)?;
        let filter_cap = Capacitor::polyester(config.filter_capacitance)?;
        if !(config.filter_resistance.value().is_finite() && config.filter_resistance.value() > 0.0)
        {
            return Err(Error::InvalidParameter {
                name: "filter_resistance",
                value: config.filter_resistance.value(),
            });
        }
        if !(0.0..1.0).contains(&config.active_threshold_fraction) {
            return Err(Error::InvalidParameter {
                name: "active_threshold_fraction",
                value: config.active_threshold_fraction,
            });
        }
        let active_comparator = Comparator::new(
            config.supply_voltage,
            config.active_comparator_current,
            Volts::from_milli(50.0),
        )?;
        let switch = config.switch.clone();
        Ok(Self {
            config,
            hold_cap,
            filter_cap,
            switch,
            active_comparator,
            time: Seconds::ZERO,
        })
    }

    /// The division ratio applied to the PV voltage (`k·α` of Eq. (3)).
    pub fn division_ratio(&self) -> Ratio {
        Ratio::new(self.config.divider.ratio())
    }

    /// The raw hold-capacitor voltage (before the output filter).
    pub fn hold_voltage(&self) -> Volts {
        self.hold_cap.voltage()
    }

    /// The `HELD_SAMPLE` line voltage.
    pub fn held_sample(&self) -> Volts {
        self.filter_cap.voltage()
    }

    /// Whether `ACTIVE` is asserted.
    pub fn is_active(&self) -> bool {
        self.active_comparator.output_high()
    }

    /// The configuration in use.
    pub fn config(&self) -> &SampleHoldConfig {
        &self.config
    }

    /// The current the measurement chain draws from the PV node while
    /// sampling at the given PV voltage.
    pub fn measurement_load_current(&self, pv_voltage: Volts) -> Amps {
        self.config
            .divider
            .input_current(pv_voltage.max(Volts::ZERO))
    }

    /// Forces the held value (for tests and fault injection).
    pub fn force_held(&mut self, v: Volts) {
        self.hold_cap.set_voltage(v);
        self.filter_cap.set_voltage(v);
    }

    /// Advances the block by `dt` with the given PV node voltage and
    /// PULSE state.
    pub fn step(&mut self, pv_voltage: Volts, sampling: bool, dt: Seconds) -> SampleHoldStep {
        let dt = Seconds::new(dt.value().max(0.0));
        let mut pv_charge = 0.0f64;

        // Switch control transition → charge injection into the hold cap.
        let injected = self.switch.set_closed(sampling);
        if injected != Coulombs::ZERO {
            self.hold_cap.inject_charge(injected);
        }

        if sampling {
            // Divider tap (unloaded: U2 input is high-impedance), buffered
            // by U2, through the switch onto the hold capacitor.
            let tap = self.config.divider.output(pv_voltage.max(Volts::ZERO));
            let target = self.config.input_buffer.output(tap);
            let source_r =
                self.config.input_buffer.output_resistance() + self.switch.on_resistance();
            self.hold_cap.drive_toward(target, source_r, dt);
            pv_charge = self.measurement_load_current(pv_voltage).value() * dt.value();
        } else {
            // Hold phase: droop from switch off-leakage (toward the now
            // low PV side), U4 input bias and capacitor self-leakage.
            let leak = self.switch.leakage_current(self.hold_cap.voltage())
                + self.config.output_buffer.input_bias_current();
            self.hold_cap.discharge(leak.max(Amps::ZERO), dt);
            self.hold_cap.leak(dt);
        }

        // Output buffer drives HELD_SAMPLE through the R3/C3 filter.
        let buffered = self.config.output_buffer.output(self.hold_cap.voltage());
        let filter_r =
            self.config.output_buffer.output_resistance() + self.config.filter_resistance;
        self.filter_cap.drive_toward(buffered, filter_r, dt);

        // ACTIVE sanity check (U5).
        let threshold = self.config.supply_voltage * self.config.active_threshold_fraction;
        let active = self
            .active_comparator
            .update(self.filter_cap.voltage(), threshold);

        // Supply accounting: buffers + U5 + its divider + auxiliary gate
        // drive, all continuous.
        let threshold_divider_current =
            self.config.supply_voltage / (self.config.threshold_divider_resistance * 2.0);
        let supply_current = self.config.input_buffer.supply_current()
            + self.config.output_buffer.supply_current()
            + self.config.active_comparator_current
            + threshold_divider_current
            + self.config.auxiliary_current;

        self.time += dt;
        SampleHoldStep {
            held_sample: self.filter_cap.voltage(),
            active,
            supply_charge: Coulombs::new(supply_current.value() * dt.value()),
            pv_charge: Coulombs::new(pv_charge),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> SampleHold {
        SampleHold::new(SampleHoldConfig::paper_configuration(0.298).unwrap()).unwrap()
    }

    #[test]
    fn samples_to_divided_value() {
        let mut sh = block();
        let step = sh.step(Volts::new(4.978), true, Seconds::from_milli(39.0));
        // Table I row 1: 200 lux, Voc 4.978 V → HELD 1.483 V.
        assert!(
            (step.held_sample.value() - 1.483).abs() < 0.01,
            "held = {}",
            step.held_sample
        );
    }

    #[test]
    fn settles_well_within_pulse_width() {
        let mut sh = block();
        // τ = (2 kΩ + 1 kΩ)·1 µF = 3 ms, so the 39 ms pulse is 13 τ —
        // the sample fully settles with margin.
        let step = sh.step(Volts::new(5.44), true, Seconds::from_milli(39.0));
        assert!((step.held_sample.value() - 5.44 * 0.298).abs() < 0.002);
        // Half a pulse is already within a few tens of millivolts (the
        // R3/C3 filter is the slowest element, τ ≈ 4.8 ms).
        let mut sh2 = block();
        let step2 = sh2.step(Volts::new(5.44), true, Seconds::from_milli(20.0));
        assert!((step2.held_sample.value() - 5.44 * 0.298).abs() < 0.03);
    }

    #[test]
    fn holds_for_69_seconds_with_negligible_droop() {
        let mut sh = block();
        sh.step(Volts::new(5.44), true, Seconds::from_milli(39.0));
        let held_before = sh.hold_voltage();
        // Hold with the PV voltage collapsed (worst case for leakage).
        for _ in 0..69 {
            sh.step(Volts::ZERO, false, Seconds::new(1.0));
        }
        let droop = (held_before - sh.hold_voltage()).value();
        // §III-B: "holds this value for extended periods" — droop must be
        // far below the 12.7 mV sampling error budget of §II-B.
        assert!(droop.abs() < 2e-3, "droop = {droop} V over 69 s");
    }

    #[test]
    fn active_asserts_only_after_valid_sample() {
        let mut sh = block();
        let step = sh.step(Volts::ZERO, false, Seconds::from_milli(10.0));
        assert!(!step.active, "ACTIVE must stay low before any sample");
        let step = sh.step(Volts::new(4.978), true, Seconds::from_milli(39.0));
        assert!(step.active, "ACTIVE must assert after a valid sample");
        // Stays asserted through the hold phase.
        let step = sh.step(Volts::ZERO, false, Seconds::new(5.0));
        assert!(step.active);
    }

    #[test]
    fn ripple_during_sampling_is_small() {
        let mut sh = block();
        sh.step(Volts::new(5.44), true, Seconds::from_milli(39.0));
        sh.step(Volts::new(5.44), false, Seconds::new(69.0));
        let settled = sh.held_sample().value();
        // Next sampling operation of the same Voc: observe the excursion.
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for _ in 0..390 {
            let s = sh.step(Volts::new(5.44), true, Seconds::from_milli(0.1));
            min = min.min(s.held_sample.value());
            max = max.max(s.held_sample.value());
        }
        let ripple = (max - settled).max(settled - min);
        // Fig. 4: "a small ripple may be observed" — bounded to millivolts.
        assert!(ripple < 5e-3, "ripple = {ripple} V");
        assert!(ripple > 0.0, "some ripple must be visible");
    }

    #[test]
    fn resamples_a_changed_voc() {
        let mut sh = block();
        sh.step(Volts::new(5.44), true, Seconds::from_milli(39.0));
        sh.step(Volts::new(5.44), false, Seconds::new(69.0));
        // Light dropped: Voc now 4.978.
        sh.step(Volts::new(4.978), true, Seconds::from_milli(39.0));
        assert!((sh.held_sample().value() - 4.978 * 0.298).abs() < 0.01);
    }

    #[test]
    fn measurement_load_only_during_sampling() {
        let mut sh = block();
        let s_hold = sh.step(Volts::new(5.0), false, Seconds::new(1.0));
        assert_eq!(s_hold.pv_charge, Coulombs::ZERO);
        let s_sample = sh.step(Volts::new(5.0), true, Seconds::from_milli(39.0));
        // 5 V across 5 MΩ for 39 ms ≈ 39 nC.
        assert!((s_sample.pv_charge.as_nano() - 39.0).abs() < 2.0);
    }

    #[test]
    fn supply_current_budget() {
        let mut sh = block();
        let total = Seconds::new(69.0);
        let s = sh.step(Volts::new(5.0), false, total);
        let avg = s.supply_charge / total;
        // 1.8 + 1.8 + 0.8 + 0.11 + 2.15 = 6.66 µA continuous.
        assert!((avg.as_micro() - 6.66).abs() < 0.1, "S&H average = {avg}");
    }

    #[test]
    fn division_ratio_trimmable() {
        // §IV-A: k "may easily be trimmed by means of a variable
        // potentiometer in place of R2".
        for ratio in [0.30, 0.35, 0.40] {
            let sh =
                SampleHold::new(SampleHoldConfig::paper_configuration(ratio).unwrap()).unwrap();
            assert!((sh.division_ratio().value() - ratio).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = SampleHoldConfig::paper_configuration(0.298).unwrap();
        cfg.active_threshold_fraction = 1.5;
        assert!(SampleHold::new(cfg).is_err());
        let mut cfg = SampleHoldConfig::paper_configuration(0.298).unwrap();
        cfg.filter_resistance = Ohms::ZERO;
        assert!(SampleHold::new(cfg).is_err());
        assert!(SampleHoldConfig::paper_configuration(0.0).is_err());
    }

    #[test]
    fn force_held_for_fault_injection() {
        let mut sh = block();
        sh.force_held(Volts::new(1.6));
        assert_eq!(sh.held_sample(), Volts::new(1.6));
        assert_eq!(sh.hold_voltage(), Volts::new(1.6));
    }

    #[test]
    fn negative_pv_voltage_treated_as_zero() {
        let mut sh = block();
        let s = sh.step(Volts::new(-1.0), true, Seconds::from_milli(39.0));
        assert!(s.held_sample.value().abs() < 0.01);
    }
}
