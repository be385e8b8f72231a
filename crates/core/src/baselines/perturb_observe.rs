//! The hill-climbing (perturb & observe) baseline.

use eh_units::{Error, Seconds, Volts, Watts};

use super::shared::{check_overhead, check_positive, clamp_target, ControlTick};
use crate::compute::ComputeCost;
use crate::controller::{MpptController, Observation, TrackerCommand};

/// Classic perturb-&-observe hill climbing (the paper's §I: "the
/// operating point of the PV cell is continually modified; if the
/// modification results in an increase in the power obtained from the
/// cell, the operating point will continue to be adjusted in the same
/// direction").
///
/// It needs a microcontroller and continuous power sensing, so its
/// overhead is orders of magnitude above the proposed technique's —
/// the default uses the 2 mW system consumption reported for the
/// supercapacitor charger of Simjee & Chou \[4\].
#[derive(Debug, Clone)]
pub struct PerturbObserve {
    step_size: Volts,
    overhead: Watts,
    target: Volts,
    direction: f64,
    last_power: Watts,
    tick: ControlTick,
}

impl PerturbObserve {
    /// Creates a tracker perturbing by `step_size` every `control_period`.
    ///
    /// # Errors
    ///
    /// Rejects non-positive step size or period, or negative overhead.
    pub fn new(
        step_size: Volts,
        control_period: Seconds,
        initial_target: Volts,
        overhead: Watts,
    ) -> Result<Self, Error> {
        check_positive("step_size", step_size.value())?;
        let tick = ControlTick::new(control_period)?;
        check_overhead(overhead)?;
        Ok(Self {
            step_size,
            overhead,
            target: initial_target,
            direction: 1.0,
            last_power: Watts::ZERO,
            tick,
        })
    }

    /// The configuration from the literature the paper cites: 50 mV
    /// steps at 10 Hz, starting at 2.5 V, 2 mW overhead \[4\].
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors
    /// [`PerturbObserve::new`].
    pub fn literature_default() -> Result<Self, Error> {
        Self::new(
            Volts::from_milli(50.0),
            Seconds::from_milli(100.0),
            Volts::new(2.5),
            Watts::from_milli(2.0),
        )
    }

    /// The present voltage target.
    pub fn target(&self) -> Volts {
        self.target
    }
}

impl MpptController for PerturbObserve {
    fn name(&self) -> &str {
        "perturb & observe (hill climbing)"
    }

    fn step(&mut self, obs: &Observation, dt: Seconds) -> TrackerCommand {
        if let Some(first) = self.tick.advance(dt) {
            // Compare powers; keep direction on strict improvement, flip
            // otherwise. Treating "no better" as "worse" is the standard
            // guard that stops the climber running away when the module
            // is dark or pinned at open circuit (zero power everywhere).
            // The first decision has no previous perturbation to judge:
            // it seeds the comparison from this observation and probes
            // in the initial direction. Comparing against the
            // Watts::ZERO initializer instead would read a dark start as
            // "power dropped" and lock in a downhill walk.
            if !first && obs.pv_power <= self.last_power {
                self.direction = -self.direction;
            }
            self.last_power = obs.pv_power;
            self.target = clamp_target(self.target + self.step_size * self.direction);
        }
        TrackerCommand::connect_at(self.target)
    }

    fn overhead_power(&self) -> Watts {
        self.overhead
    }

    fn compute_cost(&self) -> ComputeCost {
        // Sample scaling, one compare, one signed step, one clamp.
        ComputeCost::mcu_class(60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_units::Lux;

    fn obs(power_uw: f64) -> Observation {
        Observation {
            pv_voltage: Volts::new(2.5),
            pv_power: Watts::from_micro(power_uw),
            ambient_lux: Some(Lux::new(1000.0)),
            ..Observation::at(Seconds::ZERO)
        }
    }

    #[test]
    fn validation() {
        assert!(
            PerturbObserve::new(Volts::ZERO, Seconds::new(0.1), Volts::new(2.5), Watts::ZERO)
                .is_err()
        );
        assert!(PerturbObserve::new(
            Volts::new(0.05),
            Seconds::ZERO,
            Volts::new(2.5),
            Watts::ZERO
        )
        .is_err());
    }

    #[test]
    fn climbs_while_power_rises() {
        let mut t = PerturbObserve::literature_default().unwrap();
        let start = t.target();
        // Rising power: keep climbing in the same direction.
        t.step(&obs(100.0), Seconds::from_milli(100.0));
        t.step(&obs(110.0), Seconds::from_milli(100.0));
        t.step(&obs(120.0), Seconds::from_milli(100.0));
        assert!(t.target() > start);
    }

    #[test]
    fn reverses_on_power_drop() {
        let mut t = PerturbObserve::literature_default().unwrap();
        t.step(&obs(100.0), Seconds::from_milli(100.0));
        t.step(&obs(110.0), Seconds::from_milli(100.0));
        let peak = t.target();
        // Power drops: direction flips.
        t.step(&obs(90.0), Seconds::from_milli(100.0));
        assert!(t.target() < peak);
    }

    #[test]
    fn oscillates_around_maximum() {
        // A synthetic parabola with a peak at 3.0 V.
        let mut t = PerturbObserve::literature_default().unwrap();
        let mut v = t.target();
        for _ in 0..400 {
            let p = 100.0 - (v.value() - 3.0).powi(2) * 50.0;
            let c = t.step(&obs(p), Seconds::from_milli(100.0));
            v = c.target_voltage().expect("P&O stays connected");
        }
        assert!(
            (v.value() - 3.0).abs() < 0.2,
            "should hover near 3.0 V, got {v}"
        );
    }

    #[test]
    fn stays_connected_and_power_hungry() {
        let mut t = PerturbObserve::literature_default().unwrap();
        let c = t.step(&obs(50.0), Seconds::from_milli(100.0));
        assert!(c.is_connect(), "P&O never disconnects the module");
        assert!(t.overhead_power().as_milli() >= 1.0);
    }

    #[test]
    fn first_decision_probes_upward_from_a_dark_start() {
        // Regression: `last_power` used to start at `Watts::ZERO`, so the
        // very first control boundary compared the first observation
        // against zero. A dark start (pv_power == 0) then read as "no
        // better", flipped the direction to -1 and locked in a downhill
        // walk before the tracker had ever perturbed anything. The first
        // boundary must seed the comparison and probe upward instead.
        let mut t = PerturbObserve::literature_default().unwrap();
        let start = t.target();
        let c = t.step(&obs(0.0), Seconds::from_milli(100.0));
        let v = c.target_voltage().expect("P&O stays connected");
        assert!(
            v > start,
            "first decision must probe in the initial (+) direction, got {v} from {start}"
        );
    }

    #[test]
    fn declares_digital_compute_cost() {
        let t = PerturbObserve::literature_default().unwrap();
        assert!(!t.compute_cost().is_free());
    }

    #[test]
    fn target_floor_prevents_collapse() {
        let mut t = PerturbObserve::new(
            Volts::new(1.0),
            Seconds::from_milli(100.0),
            Volts::new(0.3),
            Watts::from_milli(2.0),
        )
        .unwrap();
        for i in 0..20 {
            // Monotonically decreasing power forces repeated direction flips,
            // but the target must never fall below the 100 mV floor.
            t.step(&obs(100.0 - i as f64), Seconds::from_milli(100.0));
            assert!(t.target().value() >= 0.1);
        }
    }
}
