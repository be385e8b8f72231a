//! Behavioural models of the discrete parts in the paper's circuit:
//! micropower comparators (LMC7215 class), micropower op-amp unity-gain
//! buffers, analog switches, MOSFET switches, capacitors with
//! self-leakage and resistive dividers.
//!
//! Each active part exposes its instantaneous supply current so a
//! [`crate::CurrentLedger`] can reproduce the paper's 7.6 µA measurement.

use eh_units::{Amps, Coulombs, Farads, Ohms, Seconds, Volts};

use crate::error::AnalogError;
use crate::rc;

fn require_positive(name: &'static str, v: f64) -> Result<f64, AnalogError> {
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(AnalogError::InvalidParameter { name, value: v })
    }
}

fn require_non_negative(name: &'static str, v: f64) -> Result<f64, AnalogError> {
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(AnalogError::InvalidParameter { name, value: v })
    }
}

/// A micropower rail-to-rail comparator (National LMC7215 class: the part
/// the paper's astable and ACTIVE monitor use).
///
/// The model is static: the output settles within one simulation step,
/// because the LMC7215's ~4 µs propagation delay is four orders of
/// magnitude below the 39 ms pulse width. It has optional input
/// hysteresis and a constant supply current.
///
/// ```
/// use eh_analog::components::Comparator;
/// use eh_units::Volts;
///
/// let mut cmp = Comparator::lmc7215(Volts::new(3.3));
/// assert!(cmp.update(Volts::new(2.0), Volts::new(1.0)));
/// assert!(!cmp.update(Volts::new(0.5), Volts::new(1.0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Comparator {
    supply_voltage: Volts,
    supply_current: Amps,
    hysteresis: Volts,
    output_high: bool,
}

impl Comparator {
    /// Creates a comparator with explicit parameters.
    ///
    /// # Errors
    ///
    /// Rejects negative supply current or hysteresis.
    pub fn new(
        supply_voltage: Volts,
        supply_current: Amps,
        hysteresis: Volts,
    ) -> Result<Self, AnalogError> {
        require_non_negative("supply_current", supply_current.value())?;
        require_non_negative("hysteresis", hysteresis.value())?;
        require_positive("supply_voltage", supply_voltage.value())?;
        Ok(Self {
            supply_voltage,
            supply_current,
            hysteresis,
            output_high: false,
        })
    }

    /// The LMC7215 at a given supply: 0.7 µA typical supply current,
    /// no built-in hysteresis.
    pub fn lmc7215(supply_voltage: Volts) -> Self {
        Self {
            supply_voltage,
            supply_current: Amps::from_micro(0.7),
            hysteresis: Volts::ZERO,
            output_high: false,
        }
    }

    /// Evaluates the comparator and latches its output state.
    ///
    /// With hysteresis `h`, the threshold seen by a high output is
    /// `inverting − h/2` and by a low output `inverting + h/2`.
    pub fn update(&mut self, non_inverting: Volts, inverting: Volts) -> bool {
        let half = self.hysteresis * 0.5;
        let threshold = if self.output_high {
            inverting - half
        } else {
            inverting + half
        };
        self.output_high = non_inverting > threshold;
        self.output_high
    }

    /// The latched output state.
    pub fn output_high(&self) -> bool {
        self.output_high
    }

    /// Instantaneous supply current (constant for this part).
    pub fn supply_current(&self) -> Amps {
        self.supply_current
    }

    /// The supply rail this comparator runs from.
    pub fn supply_voltage(&self) -> Volts {
        self.supply_voltage
    }
}

/// A micropower op-amp wired as a unity-gain buffer (the paper's U2 input
/// and U4 output buffers).
///
/// Models input offset voltage, input bias current (which loads whatever
/// the input is connected to — critically, the hold capacitor), finite
/// output resistance and a constant supply current.
///
/// The output is static: it settles within one simulation step. A
/// micropower buffer slews at about 0.02 V/µs, so even the full 1.6 V
/// HELD_SAMPLE step takes ~80 µs, far inside the 39 ms pulse. A pulse
/// retuned toward that figure would need a slew model.
#[derive(Debug, Clone, PartialEq)]
pub struct OpAmpBuffer {
    offset: Volts,
    input_bias: Amps,
    output_resistance: Ohms,
    supply_current: Amps,
}

impl OpAmpBuffer {
    /// Creates a buffer with explicit parameters.
    ///
    /// # Errors
    ///
    /// Rejects negative output resistance or supply current.
    pub fn new(
        offset: Volts,
        input_bias: Amps,
        output_resistance: Ohms,
        supply_current: Amps,
    ) -> Result<Self, AnalogError> {
        require_non_negative("output_resistance", output_resistance.value())?;
        require_non_negative("supply_current", supply_current.value())?;
        if !offset.is_finite() || !input_bias.is_finite() {
            return Err(AnalogError::InvalidParameter {
                name: "offset_or_bias",
                value: f64::NAN,
            });
        }
        Ok(Self {
            offset,
            input_bias,
            output_resistance,
            supply_current,
        })
    }

    /// A CMOS micropower buffer: ±1 mV offset budgeted to zero (trimmed),
    /// 1 pA bias, 2 kΩ output resistance, 1.8 µA supply current.
    pub fn micropower() -> Self {
        Self {
            offset: Volts::ZERO,
            input_bias: Amps::from_pico(1.0),
            output_resistance: Ohms::from_kilo(2.0),
            supply_current: Amps::from_micro(1.8),
        }
    }

    /// The buffered output for a given input (unity gain plus offset).
    pub fn output(&self, input: Volts) -> Volts {
        input + self.offset
    }

    /// The bias current drawn *from the input node* (discharges a hold
    /// capacitor connected there).
    pub fn input_bias_current(&self) -> Amps {
        self.input_bias
    }

    /// The source resistance the output presents.
    pub fn output_resistance(&self) -> Ohms {
        self.output_resistance
    }

    /// Instantaneous supply current.
    pub fn supply_current(&self) -> Amps {
        self.supply_current
    }
}

/// An analog switch (transmission gate) with on-resistance, off-state
/// leakage and charge injection at turn-off.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogSwitch {
    on_resistance: Ohms,
    off_leakage: Amps,
    charge_injection: Coulombs,
    closed: bool,
}

impl AnalogSwitch {
    /// Creates a switch with explicit parameters.
    ///
    /// # Errors
    ///
    /// Rejects non-positive on-resistance or negative leakage.
    pub fn new(
        on_resistance: Ohms,
        off_leakage: Amps,
        charge_injection: Coulombs,
    ) -> Result<Self, AnalogError> {
        require_positive("on_resistance", on_resistance.value())?;
        require_non_negative("off_leakage", off_leakage.value())?;
        if !charge_injection.is_finite() {
            return Err(AnalogError::InvalidParameter {
                name: "charge_injection",
                value: charge_injection.value(),
            });
        }
        Ok(Self {
            on_resistance,
            off_leakage,
            charge_injection,
            closed: false,
        })
    }

    /// A low-leakage CMOS analog switch: 1 kΩ on, 2 pA off-leakage,
    /// 5 pC injection (ADG-class precision switch).
    pub fn low_leakage() -> Self {
        Self {
            on_resistance: Ohms::from_kilo(1.0),
            off_leakage: Amps::from_pico(2.0),
            charge_injection: Coulombs::from_pico(5.0),
            closed: false,
        }
    }

    /// Drives the control input. Returns the charge injected into the
    /// signal path on a closing/opening transition (zero when the state
    /// does not change).
    pub fn set_closed(&mut self, closed: bool) -> Coulombs {
        if closed == self.closed {
            return Coulombs::ZERO;
        }
        self.closed = closed;
        // Injection kicks the signal node on both transitions; sign
        // convention: positive on close, negative on open.
        if closed {
            self.charge_injection
        } else {
            -self.charge_injection
        }
    }

    /// Series resistance of the conducting switch.
    pub fn on_resistance(&self) -> Ohms {
        self.on_resistance
    }

    /// Leakage current through the open switch for a given voltage across
    /// it (sign follows the voltage).
    pub fn leakage_current(&self, v_across: Volts) -> Amps {
        if self.closed {
            return Amps::ZERO;
        }
        if v_across.value() >= 0.0 {
            self.off_leakage
        } else {
            -self.off_leakage
        }
    }
}

/// A MOSFET used as a low-side or series switch (the paper's M1–M5, M8),
/// modelled as a gate-threshold-controlled resistance.
#[derive(Debug, Clone, PartialEq)]
pub struct MosfetSwitch {
    threshold: Volts,
    on_resistance: Ohms,
    off_resistance: Ohms,
}

impl MosfetSwitch {
    /// Creates a switch with the given gate threshold and on/off
    /// resistances.
    ///
    /// # Errors
    ///
    /// Rejects non-positive resistances or a non-finite threshold.
    pub fn new(
        threshold: Volts,
        on_resistance: Ohms,
        off_resistance: Ohms,
    ) -> Result<Self, AnalogError> {
        require_positive("on_resistance", on_resistance.value())?;
        require_positive("off_resistance", off_resistance.value())?;
        if !threshold.is_finite() {
            return Err(AnalogError::InvalidParameter {
                name: "threshold",
                value: threshold.value(),
            });
        }
        Ok(Self {
            threshold,
            on_resistance,
            off_resistance,
        })
    }

    /// A logic-level NMOS chosen (as the paper notes) for low
    /// on-resistance at small gate voltages: Vth 0.9 V, 2 Ω on, 100 MΩ off.
    pub fn logic_level_nmos() -> Self {
        Self {
            threshold: Volts::new(0.9),
            on_resistance: Ohms::new(2.0),
            off_resistance: Ohms::from_mega(100.0),
        }
    }

    /// The channel resistance for a given gate-source voltage.
    pub fn channel_resistance(&self, vgs: Volts) -> Ohms {
        if vgs > self.threshold {
            self.on_resistance
        } else {
            self.off_resistance
        }
    }

    /// Whether the channel is enhanced at the given gate voltage.
    pub fn is_on(&self, vgs: Volts) -> bool {
        vgs > self.threshold
    }

    /// The gate threshold voltage.
    pub fn threshold(&self) -> Volts {
        self.threshold
    }
}

/// A capacitor with a parallel self-leakage resistance, advanced with
/// exact exponential updates.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    capacitance: Farads,
    leakage_resistance: Ohms,
    voltage: Volts,
}

impl Capacitor {
    /// Creates a capacitor with the given value and self-leakage
    /// resistance, initially discharged.
    ///
    /// # Errors
    ///
    /// Rejects non-positive capacitance or leakage resistance.
    pub fn new(capacitance: Farads, leakage_resistance: Ohms) -> Result<Self, AnalogError> {
        require_positive("capacitance", capacitance.value())?;
        require_positive("leakage_resistance", leakage_resistance.value())?;
        Ok(Self {
            capacitance,
            leakage_resistance,
            voltage: Volts::ZERO,
        })
    }

    /// A low-leakage polyester (film) capacitor, as the paper specifies
    /// for both the astable timing and the hold capacitor. Film
    /// dielectrics are characterised by their insulation RC product;
    /// a high-grade part reaches τ = R_ins·C ≈ 10⁵ s, which is what the
    /// "holds this value for extended periods" claim of §III-B needs.
    ///
    /// # Errors
    ///
    /// Rejects non-positive capacitance.
    pub fn polyester(capacitance: Farads) -> Result<Self, AnalogError> {
        const INSULATION_TAU_S: f64 = 1e5;
        Self::new(
            capacitance,
            Ohms::new(INSULATION_TAU_S / capacitance.value()),
        )
    }

    /// The capacitance.
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// The present voltage.
    pub fn voltage(&self) -> Volts {
        self.voltage
    }

    /// Forces the voltage (e.g. initial conditions).
    pub fn set_voltage(&mut self, v: Volts) {
        self.voltage = v;
    }

    /// Injects a charge packet (e.g. switch charge injection):
    /// `ΔV = Q/C`.
    pub fn inject_charge(&mut self, q: Coulombs) {
        self.voltage += q / self.capacitance;
    }

    /// Draws a constant current for `dt` (positive discharges), clamping
    /// at zero volts.
    pub fn discharge(&mut self, i: Amps, dt: Seconds) {
        let dv = (i * dt) / self.capacitance;
        self.voltage = (self.voltage - dv).max(Volts::ZERO);
    }

    /// Relaxes toward `target` through a series resistance for `dt`
    /// (exact exponential), including the internal leakage path to
    /// ground.
    pub fn drive_toward(&mut self, target: Volts, series: Ohms, dt: Seconds) {
        // Thevenin of drive through `series` and leakage to ground.
        let g_drive = 1.0 / series.value().max(1e-3);
        let g_leak = 1.0 / self.leakage_resistance.value();
        let g_total = g_drive + g_leak;
        let v_eff = Volts::new(target.value() * g_drive / g_total);
        let tau = Seconds::new(self.capacitance.value() / g_total);
        self.voltage = rc::relax(self.voltage, v_eff, tau, dt);
    }

    /// Lets the capacitor self-discharge through its leakage for `dt`.
    pub fn leak(&mut self, dt: Seconds) {
        let tau = self.leakage_resistance * self.capacitance;
        self.voltage = rc::relax(self.voltage, Volts::ZERO, tau, dt);
    }

    /// Stored energy `½CV²`.
    pub fn stored_energy(&self) -> eh_units::Joules {
        eh_units::Joules::new(0.5 * self.capacitance.value() * self.voltage.value().powi(2))
    }
}

/// A two-resistor divider (the paper's R1/R2 chain that scales `Voc` to
/// `HELD_SAMPLE = Voc·k·α`).
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageDivider {
    top: Ohms,
    bottom: Ohms,
}

impl VoltageDivider {
    /// Creates a divider with `top` from input to tap and `bottom` from
    /// tap to ground.
    ///
    /// # Errors
    ///
    /// Rejects non-positive resistances.
    pub fn new(top: Ohms, bottom: Ohms) -> Result<Self, AnalogError> {
        require_positive("top", top.value())?;
        require_positive("bottom", bottom.value())?;
        Ok(Self { top, bottom })
    }

    /// Builds a divider with a given total resistance and ratio
    /// `tap/input = ratio` — how a designer picks R1/R2 for a target
    /// `k·α`.
    ///
    /// # Errors
    ///
    /// Rejects ratios outside `(0, 1)` or non-positive totals.
    pub fn with_ratio(total: Ohms, ratio: f64) -> Result<Self, AnalogError> {
        require_positive("total", total.value())?;
        if !(ratio.is_finite() && ratio > 0.0 && ratio < 1.0) {
            return Err(AnalogError::InvalidParameter {
                name: "ratio",
                value: ratio,
            });
        }
        Ok(Self {
            top: total * (1.0 - ratio),
            bottom: total * ratio,
        })
    }

    /// The unloaded tap voltage for a given input.
    pub fn output(&self, input: Volts) -> Volts {
        input * (self.bottom.value() / (self.top.value() + self.bottom.value()))
    }

    /// The unloaded division ratio.
    pub fn ratio(&self) -> f64 {
        self.bottom.value() / (self.top.value() + self.bottom.value())
    }

    /// Current drawn from the input source.
    pub fn input_current(&self, input: Volts) -> Amps {
        input / (self.top + self.bottom)
    }

    /// The top resistor.
    pub fn top(&self) -> Ohms {
        self.top
    }

    /// The bottom resistor.
    pub fn bottom(&self) -> Ohms {
        self.bottom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_basic_and_hysteresis() {
        let mut c =
            Comparator::new(Volts::new(3.3), Amps::from_micro(0.7), Volts::new(0.2)).unwrap();
        assert!(!c.output_high());
        // Below upper threshold (1.0 + 0.1): stays low.
        assert!(!c.update(Volts::new(1.05), Volts::new(1.0)));
        // Above it: goes high.
        assert!(c.update(Volts::new(1.15), Volts::new(1.0)));
        // Now must fall below 0.9 to go low again.
        assert!(c.update(Volts::new(0.95), Volts::new(1.0)));
        assert!(!c.update(Volts::new(0.85), Volts::new(1.0)));
    }

    #[test]
    fn lmc7215_preset() {
        let c = Comparator::lmc7215(Volts::new(3.3));
        assert!((c.supply_current().as_micro() - 0.7).abs() < 1e-9);
        assert_eq!(c.supply_voltage(), Volts::new(3.3));
    }

    #[test]
    fn comparator_rejects_bad_params() {
        assert!(Comparator::new(Volts::ZERO, Amps::ZERO, Volts::ZERO).is_err());
        assert!(Comparator::new(Volts::new(3.3), Amps::new(-1.0), Volts::ZERO).is_err());
        assert!(Comparator::new(Volts::new(3.3), Amps::ZERO, Volts::new(-0.1)).is_err());
    }

    #[test]
    fn buffer_output_and_bias() {
        let b = OpAmpBuffer::micropower();
        assert_eq!(b.output(Volts::new(1.5)), Volts::new(1.5));
        assert!(b.input_bias_current().value() > 0.0);
        let offset_buf = OpAmpBuffer::new(
            Volts::from_milli(2.0),
            Amps::from_pico(1.0),
            Ohms::from_kilo(1.0),
            Amps::from_micro(1.0),
        )
        .unwrap();
        assert!((offset_buf.output(Volts::new(1.0)).value() - 1.002).abs() < 1e-12);
    }

    #[test]
    fn switch_injection_on_transitions_only() {
        let mut s = AnalogSwitch::low_leakage();
        let q1 = s.set_closed(true);
        assert!(q1.value() > 0.0);
        let q2 = s.set_closed(true); // no transition
        assert_eq!(q2, Coulombs::ZERO);
        let q3 = s.set_closed(false);
        assert!(q3.value() < 0.0);
    }

    #[test]
    fn switch_leakage_sign_follows_voltage() {
        let s = AnalogSwitch::low_leakage();
        assert!(s.leakage_current(Volts::new(2.0)).value() > 0.0);
        assert!(s.leakage_current(Volts::new(-2.0)).value() < 0.0);
        let mut closed = AnalogSwitch::low_leakage();
        closed.set_closed(true);
        assert_eq!(closed.leakage_current(Volts::new(2.0)), Amps::ZERO);
    }

    #[test]
    fn mosfet_threshold_switching() {
        let m = MosfetSwitch::logic_level_nmos();
        assert!(!m.is_on(Volts::new(0.5)));
        assert!(m.is_on(Volts::new(3.3)));
        assert!(m.channel_resistance(Volts::new(3.3)).value() < 10.0);
        assert!(m.channel_resistance(Volts::new(0.0)).value() > 1e6);
    }

    #[test]
    fn capacitor_charge_and_leak() {
        let mut c = Capacitor::polyester(Farads::from_nano(100.0)).unwrap();
        c.drive_toward(
            Volts::new(1.5),
            Ohms::from_kilo(3.0),
            Seconds::from_milli(39.0),
        );
        // τ = 3 kΩ·100 nF = 0.3 ms; 39 ms is 130 τ: fully settled.
        assert!((c.voltage().value() - 1.5).abs() < 1e-6);
        // Hold for 69 s: with τ_ins = 10⁵ s the droop is ~1 mV on 1.5 V.
        let before = c.voltage();
        c.leak(Seconds::new(69.0));
        let droop = (before - c.voltage()).value();
        assert!(droop > 0.0 && droop < 2e-3, "droop = {droop} V");
    }

    #[test]
    fn capacitor_injection_and_discharge() {
        let mut c = Capacitor::polyester(Farads::from_nano(100.0)).unwrap();
        c.set_voltage(Volts::new(1.0));
        c.inject_charge(Coulombs::from_pico(5.0));
        assert!((c.voltage().value() - 1.00005).abs() < 1e-9);
        c.discharge(Amps::from_pico(10.0), Seconds::new(69.0));
        // 10 pA · 69 s / 100 nF = 6.9 mV
        assert!((c.voltage().value() - (1.00005 - 0.0069)).abs() < 1e-6);
        // Clamp at zero.
        c.discharge(Amps::new(1.0), Seconds::new(1.0));
        assert_eq!(c.voltage(), Volts::ZERO);
    }

    #[test]
    fn capacitor_stored_energy() {
        let mut c = Capacitor::polyester(Farads::from_micro(100.0)).unwrap();
        c.set_voltage(Volts::new(2.0));
        assert!((c.stored_energy().value() - 0.5 * 100e-6 * 4.0).abs() < 1e-12);
    }

    #[test]
    fn divider_math() {
        let d = VoltageDivider::new(Ohms::from_mega(3.515), Ohms::from_mega(1.5)).unwrap();
        let out = d.output(Volts::new(5.0));
        // 1.5/5.015 ≈ 0.2991
        assert!((out.value() - 5.0 * 1.5 / 5.015).abs() < 1e-9);
        assert!((d.input_current(Volts::new(5.0)).as_micro() - 5.0 / 5.015).abs() < 1e-6);
    }

    #[test]
    fn divider_with_ratio() {
        let d = VoltageDivider::with_ratio(Ohms::from_mega(5.0), 0.298).unwrap();
        assert!((d.ratio() - 0.298).abs() < 1e-12);
        assert!((d.top().value() + d.bottom().value() - 5e6).abs() < 1.0);
        assert!(VoltageDivider::with_ratio(Ohms::from_mega(5.0), 1.2).is_err());
        assert!(VoltageDivider::with_ratio(Ohms::ZERO, 0.5).is_err());
    }
}
