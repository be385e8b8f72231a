//! The cold-start arrangement (§III-A of the paper).
//!
//! "Cold starting is enabled through a small capacitor; once this has
//! been charged to a sufficient level and a threshold voltage has been
//! reached, the MPPT circuit is switched on."
//!
//! The model: the PV module charges C1 through the steering diode D1.
//! A threshold detector with hysteresis gates the metrology rail: the
//! rail turns on at `v_enable` and drops out at `v_disable`. Once the
//! system harvests, the converter keeps the rail topped up; if the light
//! disappears for long enough the rail collapses and the next
//! illumination cold-starts the system again — exactly the behaviour the
//! paper validated down to 200 lux.

use eh_obs::Metrics;
use eh_units::{Amps, Error, Farads, Seconds, Volts};

/// Discrete state of the cold-start supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdStartState {
    /// C1 below the enable threshold; everything but the charging path is
    /// off.
    Charging,
    /// The rail is up and the MPPT system runs.
    Running,
}

/// The C1/D1/threshold cold-start circuit.
///
/// ```
/// use eh_converter::{ColdStart, ColdStartState};
/// use eh_units::{Amps, Seconds, Volts};
///
/// let mut cs = ColdStart::paper_prototype()?;
/// assert_eq!(cs.state(), ColdStartState::Charging);
/// // 40 µA of PV current into 47 µF reaches the 2.2 V threshold in ~2.6 s.
/// for _ in 0..30 {
///     cs.step(Amps::from_micro(40.0), Amps::ZERO, Seconds::new(0.1));
/// }
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ColdStart {
    capacitance: Farads,
    v_enable: Volts,
    v_disable: Volts,
    v_max: Volts,
    diode_drop: Volts,
    supervisor_current: Amps,
    v_c1: Volts,
    state: ColdStartState,
    enable_events: u64,
    dropout_events: u64,
}

impl ColdStart {
    /// Creates a cold-start circuit.
    ///
    /// # Errors
    ///
    /// Rejects non-positive capacitance, thresholds that are not ordered
    /// `0 < v_disable < v_enable < v_max`, or a negative diode drop.
    pub fn new(
        capacitance: Farads,
        v_enable: Volts,
        v_disable: Volts,
        v_max: Volts,
        diode_drop: Volts,
    ) -> Result<Self, Error> {
        if !(capacitance.value().is_finite() && capacitance.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "capacitance",
                value: capacitance.value(),
            });
        }
        if !(v_disable.value() > 0.0 && v_enable > v_disable && v_max > v_enable) {
            return Err(Error::InvalidParameter {
                name: "thresholds",
                value: v_enable.value(),
            });
        }
        if !(diode_drop.value().is_finite() && diode_drop.value() >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "diode_drop",
                value: diode_drop.value(),
            });
        }
        Ok(Self {
            capacitance,
            v_enable,
            v_disable,
            v_max,
            diode_drop,
            supervisor_current: Amps::from_micro(0.4),
            v_c1: Volts::ZERO,
            state: ColdStartState::Charging,
            enable_events: 0,
            dropout_events: 0,
        })
    }

    /// Overrides the threshold supervisor's quiescent current (default
    /// 0.4 µA — a micropower voltage detector). This sets the light floor
    /// below which C1 can never reach the enable threshold.
    #[must_use]
    pub fn with_supervisor_current(mut self, i: Amps) -> Self {
        self.supervisor_current = i.max(Amps::ZERO);
        self
    }

    /// The supervisor's quiescent current.
    pub fn supervisor_current(&self) -> Amps {
        self.supervisor_current
    }

    /// The prototype: 47 µF start-up capacitor, enable at 2.2 V, dropout
    /// at 1.8 V, clamp at 3.3 V, 0.3 V Schottky steering diode.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors
    /// [`ColdStart::new`].
    pub fn paper_prototype() -> Result<Self, Error> {
        Self::new(
            Farads::from_micro(47.0),
            Volts::new(2.2),
            Volts::new(1.8),
            Volts::new(3.3),
            Volts::new(0.3),
        )
    }

    /// The supervisor state.
    pub fn state(&self) -> ColdStartState {
        self.state
    }

    /// Whether the metrology rail is powered.
    pub fn rail_on(&self) -> bool {
        self.state == ColdStartState::Running
    }

    /// The C1 voltage (which is the metrology rail when running).
    pub fn rail_voltage(&self) -> Volts {
        self.v_c1
    }

    /// The reservoir capacitance C1 (47 µF in the paper's prototype).
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// The enable threshold: the C1 voltage at which the rail turns on
    /// (2.2 V in the prototype).
    pub fn enable_threshold(&self) -> Volts {
        self.v_enable
    }

    /// The steering diode D1's forward drop (0.3 V Schottky in the
    /// prototype).
    pub fn diode_drop(&self) -> Volts {
        self.diode_drop
    }

    /// The voltage the PV module must exceed for the charging path to
    /// conduct (C1 voltage plus the diode drop).
    pub fn charging_knee(&self) -> Volts {
        self.v_c1 + self.diode_drop
    }

    /// Forces the capacitor voltage (test/fault injection).
    pub fn set_rail_voltage(&mut self, v: Volts) {
        self.v_c1 = v.clamp(Volts::ZERO, self.v_max);
        self.update_state();
    }

    /// Advances by `dt`: `charge_current` flows in from the PV through
    /// D1 (already net of the diode knee — the caller solves the PV
    /// operating point), `load_current` is drawn by the metrology chain
    /// (zero while the rail is off).
    ///
    /// Returns the state after the step.
    pub fn step(
        &mut self,
        charge_current: Amps,
        load_current: Amps,
        dt: Seconds,
    ) -> ColdStartState {
        let load = if self.rail_on() {
            load_current
        } else {
            Amps::ZERO
        };
        let net = charge_current - load - self.supervisor_current;
        let dv = (net * dt) / self.capacitance;
        self.v_c1 = (self.v_c1 + dv).clamp(Volts::ZERO, self.v_max);
        self.update_state();
        self.state
    }

    fn update_state(&mut self) {
        match self.state {
            ColdStartState::Charging if self.v_c1 >= self.v_enable => {
                self.state = ColdStartState::Running;
                self.enable_events += 1;
            }
            ColdStartState::Running if self.v_c1 <= self.v_disable => {
                self.state = ColdStartState::Charging;
                self.dropout_events += 1;
            }
            _ => {}
        }
    }

    /// How many times the rail has turned on (the enable threshold was
    /// crossed from below) since construction.
    pub fn enable_events(&self) -> u64 {
        self.enable_events
    }

    /// How many times the rail has collapsed (the dropout threshold was
    /// crossed from above) since construction.
    pub fn dropout_events(&self) -> u64 {
        self.dropout_events
    }

    /// Folds the supervisor's event counters and present rail state into
    /// a metric store. Counters are cumulative; call once per run.
    pub fn observe(&self, metrics: &mut Metrics) {
        metrics.add_counter("coldstart.enable_events", self.enable_events);
        metrics.add_counter("coldstart.dropout_events", self.dropout_events);
        metrics.set_gauge("coldstart.rail_v", self.v_c1.value());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs() -> ColdStart {
        ColdStart::paper_prototype().unwrap()
    }

    #[test]
    fn validation() {
        assert!(ColdStart::new(
            Farads::ZERO,
            Volts::new(2.2),
            Volts::new(1.8),
            Volts::new(3.3),
            Volts::new(0.3)
        )
        .is_err());
        // Thresholds out of order.
        assert!(ColdStart::new(
            Farads::from_micro(47.0),
            Volts::new(1.5),
            Volts::new(1.8),
            Volts::new(3.3),
            Volts::new(0.3)
        )
        .is_err());
        assert!(ColdStart::new(
            Farads::from_micro(47.0),
            Volts::new(2.2),
            Volts::new(1.8),
            Volts::new(2.0),
            Volts::new(0.3)
        )
        .is_err());
    }

    #[test]
    fn charges_then_runs() {
        let mut c = cs();
        assert_eq!(c.state(), ColdStartState::Charging);
        // Q = C·V = 47 µF · 2.2 V ≈ 103 µC; at 40 µA that is ~2.6 s.
        let mut t = 0.0f64;
        while c.state() == ColdStartState::Charging && t < 10.0 {
            c.step(Amps::from_micro(40.0), Amps::ZERO, Seconds::new(0.01));
            t += 0.01;
        }
        assert_eq!(c.state(), ColdStartState::Running);
        assert!((t - 2.585).abs() < 0.1, "cold-start time = {t}");
    }

    #[test]
    fn hysteresis_prevents_chatter() {
        let mut c = cs();
        c.set_rail_voltage(Volts::new(2.3));
        assert!(c.rail_on());
        // Sag to 1.9 V: still above the 1.8 V dropout.
        c.set_rail_voltage(Volts::new(1.9));
        assert!(c.rail_on());
        // Sag to 1.8 V: rail collapses.
        c.set_rail_voltage(Volts::new(1.8));
        assert!(!c.rail_on());
        // Recover to 2.0 V: still charging — must reach 2.2 V again.
        c.set_rail_voltage(Volts::new(2.0));
        assert!(!c.rail_on());
    }

    #[test]
    fn load_only_drains_when_running() {
        let mut c = cs();
        c.set_rail_voltage(Volts::new(1.0));
        let before = c.rail_voltage();
        // Load requested while still charging: ignored (rail is off); only
        // the 0.4 µA supervisor drains C1.
        c.step(Amps::ZERO, Amps::from_micro(100.0), Seconds::new(1.0));
        let drop = (before - c.rail_voltage()).value();
        let supervisor_only = 0.4e-6 * 1.0 / 47e-6;
        assert!((drop - supervisor_only).abs() < 1e-6, "drop = {drop}");
        // Once running, load drains C1.
        c.set_rail_voltage(Volts::new(2.5));
        c.step(Amps::ZERO, Amps::from_micro(100.0), Seconds::new(1.0));
        assert!(c.rail_voltage() < Volts::new(2.5) - Volts::from_milli(1.0));
    }

    #[test]
    fn supervisor_sets_a_light_floor() {
        // Charge current below the supervisor draw: C1 never reaches the
        // threshold no matter how long we wait.
        let mut c = cs();
        for _ in 0..10_000 {
            c.step(Amps::from_micro(0.2), Amps::ZERO, Seconds::new(1.0));
        }
        assert_eq!(c.state(), ColdStartState::Charging);
        assert_eq!(c.rail_voltage(), Volts::ZERO);
        // A custom zero-supervisor circuit does charge.
        let mut free = cs().with_supervisor_current(Amps::ZERO);
        for _ in 0..2000 {
            free.step(Amps::from_micro(0.2), Amps::ZERO, Seconds::new(1.0));
        }
        assert_eq!(free.state(), ColdStartState::Running);
    }

    #[test]
    fn clamps_at_vmax_and_zero() {
        let mut c = cs();
        c.step(Amps::new(1.0), Amps::ZERO, Seconds::new(10.0));
        assert_eq!(c.rail_voltage(), Volts::new(3.3));
        c.step(Amps::new(-10.0), Amps::ZERO, Seconds::new(10.0));
        assert_eq!(c.rail_voltage(), Volts::ZERO);
    }

    #[test]
    fn threshold_crossings_are_counted_and_observable() {
        let mut c = cs();
        c.set_rail_voltage(Volts::new(2.5)); // enable
        c.set_rail_voltage(Volts::new(1.0)); // dropout
        c.set_rail_voltage(Volts::new(2.5)); // enable again
        assert_eq!(c.enable_events(), 2);
        assert_eq!(c.dropout_events(), 1);

        let mut m = Metrics::new();
        c.observe(&mut m);
        assert_eq!(m.counter("coldstart.enable_events"), 2);
        assert_eq!(m.counter("coldstart.dropout_events"), 1);
        assert_eq!(m.gauge("coldstart.rail_v"), Some(2.5));
    }

    #[test]
    fn charging_knee_includes_diode() {
        let mut c = cs();
        c.set_rail_voltage(Volts::new(1.0));
        assert_eq!(c.charging_knee(), Volts::new(1.3));
    }
}
