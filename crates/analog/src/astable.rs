//! The astable multivibrator that generates the PULSE timing.
//!
//! The paper adapts the square-wave generator from the LMC6772 datasheet
//! (its ref. \[11\]): a micropower comparator whose non-inverting input sits
//! on a three-resistor threshold network with feedback from the output
//! (thresholds `Vdd/3` and `2·Vdd/3` for equal resistors) and whose
//! inverting input follows a timing capacitor. A steering diode gives the
//! charge and discharge paths *independent* resistances, which is how the
//! paper obtains the extreme 39 ms ON / 69 s OFF asymmetry.
//!
//! The simulation is event-segmented and analytically exact: within each
//! output phase the capacitor follows a single exponential, so phase
//! boundaries are located with [`crate::rc::time_to_reach`] rather than
//! by small-step integration. A 24-hour run therefore costs microseconds.

use eh_units::{Amps, Coulombs, Error, Farads, Ohms, Seconds, Volts};

use crate::components::{Capacitor, Comparator};
use crate::rc;

/// The threshold network's comparison levels, `(upper, lower)`. Three
/// equal resistors join the threshold node to the rail, to ground and to
/// the comparator output, so the node sits at `2·Vdd/3` while the output
/// is high and at `Vdd/3` while it is low, whatever the resistance.
fn thresholds(supply: Volts) -> (Volts, Volts) {
    let vdd = supply.value();
    (Volts::new(2.0 * vdd / 3.0), Volts::new(vdd / 3.0))
}

/// Configuration of the astable multivibrator.
#[derive(Debug, Clone, PartialEq)]
pub struct AstableConfig {
    /// Supply rail.
    pub supply_voltage: Volts,
    /// Timing capacitor value (low-leakage polyester film).
    pub timing_capacitance: Farads,
    /// Each of the three equal threshold-network resistors.
    pub threshold_resistance: Ohms,
    /// Resistance of the charge path (sets the ON/PULSE width).
    pub charge_resistance: Ohms,
    /// Resistance of the discharge path (sets the OFF/hold period).
    pub discharge_resistance: Ohms,
    /// Supply current of the comparator.
    pub comparator_current: Amps,
}

impl AstableConfig {
    /// Derives charge/discharge resistances from target ON and OFF times
    /// for a given capacitor, using the exact exponential phase equations.
    ///
    /// # Errors
    ///
    /// Rejects non-positive times, capacitance or resistances.
    pub fn from_periods(
        supply_voltage: Volts,
        timing_capacitance: Farads,
        threshold_resistance: Ohms,
        t_on: Seconds,
        t_off: Seconds,
    ) -> Result<Self, Error> {
        for (name, v) in [
            ("t_on", t_on.value()),
            ("t_off", t_off.value()),
            ("timing_capacitance", timing_capacitance.value()),
            ("threshold_resistance", threshold_resistance.value()),
            ("supply_voltage", supply_voltage.value()),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(Error::InvalidParameter { name, value: v });
            }
        }
        // The equal-resistor network's thresholds (see `thresholds`)
        // split the rail in thirds, so both phases span a factor-2
        // exponential ratio: t = R·C·ln 2.
        let ln2 = std::f64::consts::LN_2;
        let r_charge = Ohms::new(t_on.value() / (timing_capacitance.value() * ln2));
        let r_discharge = Ohms::new(t_off.value() / (timing_capacitance.value() * ln2));
        Ok(Self {
            supply_voltage,
            timing_capacitance,
            threshold_resistance,
            charge_resistance: r_charge,
            discharge_resistance: r_discharge,
            comparator_current: Amps::from_micro(0.7),
        })
    }
}

/// Result of advancing the astable by one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AstableStep {
    /// Output state at the end of the step (true = PULSE active).
    pub output_high: bool,
    /// Charge drawn from the supply rail during the step.
    pub supply_charge: Coulombs,
    /// Number of output transitions that occurred within the step.
    pub transitions: u32,
}

/// The steppable astable multivibrator.
///
/// ```
/// use eh_analog::astable::AstableMultivibrator;
/// use eh_units::Seconds;
///
/// let mut astable = AstableMultivibrator::paper_configuration()?;
/// // Run for three full periods and measure the produced pulse widths.
/// let step = astable.step(Seconds::new(3.0 * 69.1));
/// assert!(step.transitions >= 5);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct AstableMultivibrator {
    config: AstableConfig,
    comparator: Comparator,
    timing_cap: Capacitor,
    output_high: bool,
    upper_threshold: Volts,
    lower_threshold: Volts,
    rail_current_high: Amps,
    rail_current_low: Amps,
    time: Seconds,
}

impl AstableMultivibrator {
    /// Builds the astable the paper measured: 3.3 V supply, 1 µF polyester
    /// timing capacitor, 10 MΩ threshold network, charge/discharge paths
    /// sized for 39 ms ON and 69 s OFF.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn paper_configuration() -> Result<Self, Error> {
        let config = AstableConfig::from_periods(
            Volts::new(3.3),
            Farads::from_micro(1.0),
            Ohms::from_mega(10.0),
            Seconds::from_milli(39.0),
            Seconds::new(69.0),
        )?;
        Self::new(config)
    }

    /// Builds an astable from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive or non-finite resistance, capacitance or
    /// supply voltage.
    pub fn new(config: AstableConfig) -> Result<Self, Error> {
        for (name, v) in [
            ("charge_resistance", config.charge_resistance.value()),
            ("discharge_resistance", config.discharge_resistance.value()),
            ("supply_voltage", config.supply_voltage.value()),
            ("threshold_resistance", config.threshold_resistance.value()),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(Error::InvalidParameter { name, value: v });
            }
        }
        let (upper, lower) = thresholds(config.supply_voltage);
        let (rail_high, rail_low) = Self::rail_currents(&config);
        let comparator = Comparator::new(
            config.supply_voltage,
            config.comparator_current,
            Volts::ZERO,
        )?;
        let mut timing_cap = Capacitor::polyester(config.timing_capacitance)?;
        // Power-up: capacitor discharged, so the comparator output starts
        // high (cap below the lower threshold) and the first PULSE fires
        // immediately — this is what gives the paper's fast first sample
        // after cold start (§IV-B).
        timing_cap.set_voltage(Volts::ZERO);
        Ok(Self {
            config,
            comparator,
            timing_cap,
            output_high: true,
            upper_threshold: upper,
            lower_threshold: lower,
            rail_current_high: rail_high,
            rail_current_low: rail_low,
            time: Seconds::ZERO,
        })
    }

    /// Static rail current of the threshold network while the output is
    /// high and while it is low.
    fn rail_currents(config: &AstableConfig) -> (Amps, Amps) {
        let (upper, lower) = thresholds(config.supply_voltage);
        let vdd = config.supply_voltage.value();
        let r = config.threshold_resistance.value();
        let through_top = |vth: Volts| (vdd - vth.value()) / r;
        // From the rail: through the top resistor always, plus through
        // the feedback resistor when the comparator output is high (its
        // push stage sources from the rail, at the same voltage drop).
        (
            Amps::new(through_top(upper) + through_top(upper)),
            Amps::new(through_top(lower)),
        )
    }

    /// The (ON, OFF) periods predicted analytically from the exponential
    /// phase equations — the numbers the paper quotes as 39 ms and 69 s.
    pub fn analytic_periods(&self) -> (Seconds, Seconds) {
        let vdd = self.config.supply_voltage;
        let c = self.config.timing_capacitance;
        let t_on = rc::time_to_reach(
            self.lower_threshold,
            self.upper_threshold,
            vdd,
            self.config.charge_resistance * c,
        )
        .unwrap_or(Seconds::ZERO);
        let t_off = rc::time_to_reach(
            self.upper_threshold,
            self.lower_threshold,
            Volts::ZERO,
            self.config.discharge_resistance * c,
        )
        .unwrap_or(Seconds::ZERO);
        (t_on, t_off)
    }

    /// Analytic duty cycle of the PULSE output.
    pub fn duty_cycle(&self) -> f64 {
        let (t_on, t_off) = self.analytic_periods();
        let total = t_on.value() + t_off.value();
        if total <= 0.0 {
            0.0
        } else {
            t_on.value() / total
        }
    }

    /// Whether the PULSE output is currently high.
    pub fn output_high(&self) -> bool {
        self.output_high
    }

    /// Simulated time elapsed.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// The configuration in use.
    pub fn config(&self) -> &AstableConfig {
        &self.config
    }

    /// Instantaneous supply current (comparator + threshold network +
    /// charge-path draw).
    pub fn supply_current(&self) -> Amps {
        let mut i = self.config.comparator_current;
        i += if self.output_high {
            self.rail_current_high
        } else {
            self.rail_current_low
        };
        if self.output_high {
            // Charging current sourced from the rail through the output
            // stage and the charge path.
            i += rc::charging_current(
                self.timing_cap.voltage(),
                self.config.supply_voltage,
                self.config.charge_resistance,
            )
            .max(Amps::ZERO);
        }
        i
    }

    /// Time until the next output transition from the present state —
    /// the event horizon a system-level simulator can step to.
    pub fn time_to_next_transition(&self) -> Seconds {
        let (target, resistance, threshold) = if self.output_high {
            (
                self.config.supply_voltage,
                self.config.charge_resistance,
                self.upper_threshold,
            )
        } else {
            (
                Volts::ZERO,
                self.config.discharge_resistance,
                self.lower_threshold,
            )
        };
        rc::time_to_reach(
            self.timing_cap.voltage(),
            threshold,
            target,
            resistance * self.config.timing_capacitance,
        )
        .unwrap_or(Seconds::new(f64::INFINITY))
    }

    /// Advances the astable by `dt`, crossing as many output transitions
    /// as fall inside the interval (event-segmented, analytically exact).
    pub fn step(&mut self, dt: Seconds) -> AstableStep {
        let mut remaining = dt.value().max(0.0);
        let mut charge = 0.0f64;
        let mut transitions = 0u32;
        let c = self.config.timing_capacitance;

        while remaining > 0.0 {
            let (target, resistance, threshold) = if self.output_high {
                (
                    self.config.supply_voltage,
                    self.config.charge_resistance,
                    self.upper_threshold,
                )
            } else {
                (
                    Volts::ZERO,
                    self.config.discharge_resistance,
                    self.lower_threshold,
                )
            };
            let tau = resistance * c;
            let v0 = self.timing_cap.voltage();
            let time_to_flip = rc::time_to_reach(v0, threshold, target, tau)
                .map(|t| t.value())
                .unwrap_or(f64::INFINITY);

            let seg = time_to_flip.min(remaining);
            let v1 = rc::relax(v0, target, tau, Seconds::new(seg));

            // Static network + comparator draw over the segment.
            let static_current = self.config.comparator_current.value()
                + if self.output_high {
                    self.rail_current_high.value()
                } else {
                    self.rail_current_low.value()
                };
            charge += static_current * seg;
            // Charge delivered into the cap from the rail (high phase only).
            if self.output_high && v1 > v0 {
                charge += c.value() * (v1 - v0).value();
            }

            self.timing_cap.set_voltage(v1);
            remaining -= seg;

            if time_to_flip <= seg + f64::EPSILON && remaining >= 0.0 && seg == time_to_flip {
                self.output_high = !self.output_high;
                transitions += 1;
                // Keep the internal comparator state consistent.
                self.comparator.update(
                    if self.output_high {
                        Volts::new(1.0)
                    } else {
                        Volts::ZERO
                    },
                    Volts::new(0.5),
                );
            } else if seg >= remaining && time_to_flip > seg {
                break;
            }
            if seg == 0.0 && time_to_flip == 0.0 {
                // Defensive: avoid an infinite loop if the threshold is
                // exactly at the current voltage.
                self.output_high = !self.output_high;
                transitions += 1;
            }
        }
        self.time += dt;
        AstableStep {
            output_high: self.output_high,
            supply_charge: Coulombs::new(charge),
            transitions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    #[test]
    fn paper_periods() {
        let astable = AstableMultivibrator::paper_configuration().unwrap();
        let (t_on, t_off) = astable.analytic_periods();
        assert!((t_on.as_milli() - 39.0).abs() < 1.0, "t_on = {t_on}");
        assert!((t_off.value() - 69.0).abs() < 1.0, "t_off = {t_off}");
        let duty = astable.duty_cycle();
        assert!((duty - 0.039 / 69.039).abs() < 1e-4, "duty = {duty}");
    }

    #[test]
    fn paper_periods_keep_their_bits() {
        let (t_on, t_off) = AstableMultivibrator::paper_configuration()
            .unwrap()
            .analytic_periods();
        // Recorded when the thresholds came from a DC solve of the
        // three-resistor network; the closed form must keep every bit.
        assert_eq!(
            t_on.value().to_bits(),
            0x3fa3_f7ce_d916_872c,
            "t_on = {t_on}"
        );
        assert_eq!(
            t_off.value().to_bits(),
            0x4051_4000_0000_0001,
            "t_off = {t_off}"
        );
    }

    #[test]
    fn thresholds_are_thirds_of_supply() {
        let astable = AstableMultivibrator::paper_configuration().unwrap();
        assert!((astable.upper_threshold.value() - 2.2).abs() < 1e-9);
        assert!((astable.lower_threshold.value() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn starts_with_pulse_high_for_cold_start() {
        let astable = AstableMultivibrator::paper_configuration().unwrap();
        assert!(astable.output_high(), "first PULSE must fire at power-up");
    }

    #[test]
    fn simulated_periods_match_analytic() {
        let mut astable = AstableMultivibrator::paper_configuration().unwrap();
        let mut trace = Trace::new("PULSE");
        let dt = Seconds::from_milli(5.0);
        let mut t = 0.0;
        // Simulate 3.5 periods.
        while t < 3.5 * 69.1 {
            let s = astable.step(dt);
            t += dt.value();
            trace.record(Seconds::new(t), if s.output_high { 3.3 } else { 0.0 });
        }
        let highs = trace.high_durations(1.65);
        assert!(!highs.is_empty());
        for h in &highs {
            assert!(
                (h.as_milli() - 39.0).abs() < 11.0,
                "pulse width {h} (5 ms sampling)"
            );
        }
        // Period between rising edges ≈ 69 s.
        let rises = trace.rising_edges(1.65);
        assert!(rises.len() >= 2);
        let period = (rises[1] - rises[0]).value();
        assert!((period - 69.04).abs() < 0.5, "period = {period}");
    }

    #[test]
    fn large_step_crosses_many_transitions() {
        let mut astable = AstableMultivibrator::paper_configuration().unwrap();
        let s = astable.step(Seconds::new(10.0 * 69.04));
        assert!(s.transitions >= 19, "transitions = {}", s.transitions);
    }

    #[test]
    fn average_supply_current_under_microamp_scale() {
        let mut astable = AstableMultivibrator::paper_configuration().unwrap();
        let total = Seconds::new(5.0 * 69.04);
        let s = astable.step(total);
        let avg = s.supply_charge / total;
        // Comparator 0.7 µA + threshold network ~0.25 µA + charge pulses.
        assert!(
            avg.as_micro() > 0.7 && avg.as_micro() < 1.5,
            "astable average = {avg}"
        );
    }

    #[test]
    fn instantaneous_current_higher_during_pulse() {
        let mut astable = AstableMultivibrator::paper_configuration().unwrap();
        // At start the output is high and the cap charges: large draw.
        let during_pulse = astable.supply_current();
        astable.step(Seconds::new(1.0)); // well past the 39 ms pulse
        assert!(!astable.output_high());
        let during_hold = astable.supply_current();
        assert!(during_pulse.value() > during_hold.value() * 5.0);
    }

    #[test]
    fn config_from_periods_validation() {
        assert!(AstableConfig::from_periods(
            Volts::new(3.3),
            Farads::from_micro(1.0),
            Ohms::from_mega(10.0),
            Seconds::ZERO,
            Seconds::new(69.0),
        )
        .is_err());
        assert!(AstableConfig::from_periods(
            Volts::ZERO,
            Farads::from_micro(1.0),
            Ohms::from_mega(10.0),
            Seconds::from_milli(39.0),
            Seconds::new(69.0),
        )
        .is_err());
    }

    #[test]
    fn new_rejects_a_bad_supply_or_threshold_network() {
        let paper = || AstableMultivibrator::paper_configuration().unwrap().config;
        let name_of = |config: AstableConfig| match AstableMultivibrator::new(config) {
            Err(Error::InvalidParameter { name, .. }) => name,
            other => panic!("expected a rejection, got {other:?}"),
        };
        for r in [0.0, -1e6, f64::NAN, f64::INFINITY] {
            let mut config = paper();
            config.threshold_resistance = Ohms::new(r);
            assert_eq!(name_of(config), "threshold_resistance", "R = {r}");
        }
        for v in [f64::NAN, -3.3, 0.0, f64::INFINITY] {
            let mut config = paper();
            config.supply_voltage = Volts::new(v);
            assert_eq!(name_of(config), "supply_voltage", "Vdd = {v}");
        }
    }

    #[test]
    fn custom_symmetric_astable() {
        let config = AstableConfig::from_periods(
            Volts::new(3.3),
            Farads::from_nano(100.0),
            Ohms::from_mega(1.0),
            Seconds::from_milli(10.0),
            Seconds::from_milli(10.0),
        )
        .unwrap();
        let astable = AstableMultivibrator::new(config).unwrap();
        assert!((astable.duty_cycle() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn timing_is_ratiometric_in_supply() {
        // The thresholds are fractions of Vdd and the charge targets are
        // Vdd/ground, so the periods are supply-independent — the reason
        // the astable keeps its 39 ms / 69 s calibration while the
        // storage rail wanders between 2.2 V and 3.3 V.
        let at = |vdd: f64| {
            let config = AstableConfig::from_periods(
                Volts::new(vdd),
                Farads::from_micro(1.0),
                Ohms::from_mega(10.0),
                Seconds::from_milli(39.0),
                Seconds::new(69.0),
            )
            .unwrap();
            AstableMultivibrator::new(config)
                .unwrap()
                .analytic_periods()
        };
        let (on_a, off_a) = at(2.2);
        let (on_b, off_b) = at(3.3);
        assert!((on_a.value() - on_b.value()).abs() < 1e-9);
        assert!((off_a.value() - off_b.value()).abs() < 1e-9);
    }

    #[test]
    fn time_advances() {
        let mut astable = AstableMultivibrator::paper_configuration().unwrap();
        astable.step(Seconds::new(1.5));
        astable.step(Seconds::new(2.5));
        assert!((astable.time().value() - 4.0).abs() < 1e-12);
    }
}
